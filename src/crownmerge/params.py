"""Per-node geometric parameters of a merge forest.

Each merge node gets, besides plain member-size sums, four quantities
describing the interstitial ground it bridged:

* ``a_merge``        distinct link pixels between the two merged groups,
* ``l_hat``          mean link length over that link multiset (every
                     recorded link counts once, even on coinciding paths),
* ``lw_ratio``       l_hat**2 / a_merge, a length-to-width shape cue for
                     the bridged valley (0 when a_merge is 0),
* ``a_cumulative``   distinct link pixels over this merge and every merge
                     below it, which grows monotonically along any path.

Singletons only carry the member sums.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from operator import attrgetter
from typing import IO, Mapping, Sequence

from .hac import Hierarchy
from .raster_io import Isol


@dataclass(frozen=True)
class NodeParams:
    n_pix: int
    n_edge: int
    a_merge: int | None = None
    l_hat: float | None = None
    lw_ratio: float | None = None
    a_cumulative: int | None = None


#: Streams selectable by name; ``lw_over_acum`` is lw_ratio / a_cumulative
#: with 0 wherever a_cumulative is 0.
NAMED_STREAMS = ("a_merge", "lw_over_acum", "n_pix", "n_edge", "a_cumulative")

#: Base fields usable in a ``ratio:<numer>/<denom>`` stream.
RATIO_FIELDS = ("a_merge", "l_hat", "lw_ratio", "n_pix", "n_edge", "a_cumulative")


def compute_params(
    hierarchy: Hierarchy, isols: Sequence[Isol] | Mapping[int, Isol]
) -> dict[int, NodeParams]:
    """Compute parameters for every node, keyed by node id.

    The link quantities of each merge were recorded on its node by
    ``agglomerate``; here they are only combined, and the member sizes
    summed bottom-up.
    """
    isol_map = isols if isinstance(isols, Mapping) else {i.id: i for i in isols}
    out: dict[int, NodeParams] = {}

    for node in hierarchy.nodes():
        if node.is_singleton:
            (isol_id,) = node.members
            isol = isol_map[isol_id]
            out[node.id] = NodeParams(n_pix=len(isol.pixels), n_edge=len(isol.edge_pixels))
            continue

        left, right = node.ancestors
        a_merge = node.merge_distance
        l_hat = node.length_sum / node.link_count
        out[node.id] = NodeParams(
            n_pix=out[left].n_pix + out[right].n_pix,
            n_edge=out[left].n_edge + out[right].n_edge,
            a_merge=a_merge,
            l_hat=l_hat,
            lw_ratio=(l_hat * l_hat) / a_merge if a_merge > 0 else 0.0,
            a_cumulative=node.a_cumulative,
        )
    return out


def parameter_stream(
    hierarchy: Hierarchy, params: Mapping[int, NodeParams], choice: str
) -> dict[int, float]:
    """One scalar per merge node, selected by name.

    ``choice`` is one of NAMED_STREAMS or ``ratio:<numer>/<denom>`` over
    RATIO_FIELDS (value 0 wherever the denominator is 0).
    """
    extract = _stream_extractor(choice)
    return {
        node_id: extract(params[node_id]) for node_id in hierarchy.merge_node_ids()
    }


def validate_stream(choice: str) -> None:
    """Raise ValueError if choice names no known stream."""
    _stream_extractor(choice)


def _stream_extractor(choice: str):
    if choice == "lw_over_acum":
        choice = "ratio:lw_ratio/a_cumulative"
    if choice in NAMED_STREAMS:
        return lambda p: float(getattr(p, choice))
    if choice.startswith("ratio:"):
        body = choice[len("ratio:") :]
        numer, sep, denom = body.partition("/")
        if not sep or numer not in RATIO_FIELDS or denom not in RATIO_FIELDS:
            raise ValueError(
                f"bad ratio stream {choice!r}; use ratio:<numer>/<denom> "
                f"with fields from {RATIO_FIELDS}"
            )

        def ratio(p: NodeParams) -> float:
            top = float(getattr(p, numer))
            bottom = float(getattr(p, denom))
            return top / bottom if bottom else 0.0

        return ratio
    raise ValueError(
        f"unknown parameter stream {choice!r}; expected one of "
        f"{NAMED_STREAMS} or ratio:<numer>/<denom>"
    )


def dump_params_csv(
    hierarchy: Hierarchy, params: Mapping[int, NodeParams], stream: IO[str]
) -> None:
    """CSV of all nodes: id, merge iteration, then ``RATIO_FIELDS``.

    A blank field is a ``None`` field, so singleton rows leave the merge
    iteration and the merge-only fields blank.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["node_id", "merge_iteration", *RATIO_FIELDS])
    fields = attrgetter(*RATIO_FIELDS)
    for node in hierarchy.nodes():
        writer.writerow([node.id, node.merge_iteration, *fields(params[node.id])])
