"""Adaptive cut of the merge forest from per-path break points.

For every singleton, the chosen parameter is read along its successor path
(the singleton itself contributes a leading 0), scaled to [0, 1], and
differenced.  A break point is any path position whose first difference
strictly exceeds every earlier one, i.e. where the running maximum of the
differences moves.  Each break is charged to the merge node it lands on.

Counting breaks over all paths gives a per-node histogram; nodes whose
count sits in the upper tail (fraction above the threshold at most p) are
nullified together with everything they later merge into.  What survives
with no surviving successor is reported as a candidate group.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

from .hac import Hierarchy


def scale_unit(values: Sequence[float]) -> list[float]:
    """Min-max scale to [0, 1]; an all-equal sequence becomes all zeros."""
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0] * len(values)
    span = hi - lo
    return [(v - lo) / span for v in values]


def first_differences(values: Sequence[float]) -> list[float]:
    return [values[j + 1] - values[j] for j in range(len(values) - 1)]


def cumulative_max(values: Sequence[float]) -> list[float]:
    out: list[float] = []
    best = float("-inf")
    for v in values:
        best = v if v > best else best
        out.append(best)
    return out


@dataclass(frozen=True)
class PathTrace:
    """One singleton's walk to its root, with the break-point analysis."""

    start: int
    nodes: tuple[int, ...]
    f: tuple[float, ...]
    d: tuple[float, ...]
    cmax: tuple[float, ...]
    breakpoints: frozenset[int]


def trace_path(
    hierarchy: Hierarchy, stream: Mapping[int, float], start: int
) -> PathTrace:
    """Trace one singleton's path through the given parameter stream.

    Args:
        hierarchy: finished merge forest.
        stream: merge-node id -> parameter value.
        start: singleton node id to walk from.

    Raises:
        ValueError: ``start`` is not a singleton node.
    """
    if not hierarchy.node(start).is_singleton:
        raise ValueError(f"node {start} is not a singleton")
    nodes = hierarchy.path_from(start)
    raw = [0.0] + [float(stream[n]) for n in nodes[1:]]
    f = scale_unit(raw)
    d = first_differences(f)
    cmax = cumulative_max(d)
    # Strict new record <=> the running maximum moved at j (j >= 1).
    breaks = frozenset(j for j in range(1, len(d)) if d[j] > cmax[j - 1])
    return PathTrace(
        start=start,
        nodes=tuple(nodes),
        f=tuple(f),
        d=tuple(d),
        cmax=tuple(cmax),
        breakpoints=breaks,
    )


def trace_all(hierarchy: Hierarchy, stream: Mapping[int, float]) -> list[PathTrace]:
    """One trace per singleton, in singleton node-id order."""
    return [trace_path(hierarchy, stream, s) for s in hierarchy.singleton_node_ids()]


# ---------------------------------------------------------------------------
# counting and trimming
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BreakCounts:
    """Break totals per node plus the tail-significance threshold."""

    counts: dict[int, int]
    significance: int
    p: float


def count_breaks(
    hierarchy: Hierarchy, traces: Sequence[PathTrace], p: float = 0.25
) -> BreakCounts:
    """Accumulate break points over all paths and fix the cut threshold.

    The threshold is the smallest integer v for which at most a fraction p
    of the merge nodes have a count strictly above v.

    Raises:
        ValueError: traces do not cover the singletons exactly once, or p
            is outside [0, 1].
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    starts = [t.start for t in traces]
    if sorted(starts) != list(hierarchy.singleton_node_ids()):
        raise ValueError("need exactly one trace per singleton")

    counts = {node.id: 0 for node in hierarchy.nodes()}
    for trace in traces:
        for j in trace.breakpoints:
            counts[trace.nodes[j + 1]] += 1

    merge_ids = hierarchy.merge_node_ids()
    significance = 0
    if merge_ids:
        total = len(merge_ids)
        while sum(1 for h in merge_ids if counts[h] > significance) / total > p:
            significance += 1
    return BreakCounts(counts=counts, significance=significance, p=p)


@dataclass(frozen=True)
class TrimmedHierarchy:
    removed: frozenset[int]
    terminals: frozenset[int]


def trim(hierarchy: Hierarchy, breaks: BreakCounts) -> TrimmedHierarchy:
    """Drop over-threshold nodes and everything they merge into.

    Terminals are the surviving nodes whose successor is gone or absent;
    by construction no terminal sits below another.
    """
    removed: set[int] = set()
    stack = [
        node.id
        for node in hierarchy.nodes()
        if breaks.counts.get(node.id, 0) > breaks.significance
    ]
    while stack:
        current = stack.pop()
        if current in removed:
            continue
        removed.add(current)
        succ = hierarchy.node(current).successor
        if succ is not None:
            stack.append(succ)

    terminals = frozenset(
        node.id
        for node in hierarchy.nodes()
        if node.id not in removed
        and (node.successor is None or node.successor in removed)
    )
    return TrimmedHierarchy(removed=frozenset(removed), terminals=terminals)


def filter_terminals(
    trimmed: TrimmedHierarchy, hierarchy: Hierarchy, min_size: int
) -> frozenset[int]:
    """Keep terminals with at least ``min_size`` member segments."""
    if min_size < 1:
        raise ValueError(f"min_size must be at least 1, got {min_size}")
    return frozenset(
        h for h in trimmed.terminals if len(hierarchy.node(h).members) >= min_size
    )


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------


def dump_trace_csv(trace: PathTrace, stream: IO[str]) -> None:
    """One row per difference position along the path."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["j", "node_id", "f", "D", "Cmax", "is_break"])
    for j in range(len(trace.d)):
        writer.writerow(
            [
                j,
                trace.nodes[j + 1],
                trace.f[j + 1],
                trace.d[j],
                trace.cmax[j],
                int(j in trace.breakpoints),
            ]
        )


def dump_histogram_csv(
    hierarchy: Hierarchy, breaks: BreakCounts, stream: IO[str]
) -> None:
    """Merge-node count histogram: count_value, num_nodes."""
    merge_ids = hierarchy.merge_node_ids()
    tally: dict[int, int] = {}
    for h in merge_ids:
        tally[breaks.counts[h]] = tally.get(breaks.counts[h], 0) + 1
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["count_value", "num_nodes"])
    for value in sorted(tally):
        writer.writerow([value, tally[value]])
