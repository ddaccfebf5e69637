"""Spans and counts recorded around the crownmerge layers, from outside.

``instrument`` replaces the module-level functions that
``cli.run_pipeline`` calls through their module (``raster_io.extract_isols``,
``hac.agglomerate``, ...) with wrappers.  Each wrapped call records a span
(name, start, end, parent) and, for the stages that produce the counts
that drive cost, those counts.  The benchmark opens the root span,
``cli.run_pipeline``, around each call, so every layer span must nest in
it.  Nothing in the program changes, and the originals are restored when
``instrument`` exits.

With ``alloc=True``, each span named in LAYER_ALLOCS runs under
``tracemalloc`` and records the peak of the memory it allocated and had
not yet freed.  Only those spans pay tracemalloc's slowdown.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

ROOT = "cli.run_pipeline"

#: Every function ``run_pipeline`` calls through its module, as module.name.
LAYER_FUNCTIONS = (
    "raster_io.sniff_format",
    "raster_io.load_raster",
    "raster_io.extract_isols",
    "raster_io.by_id",
    "links.cast_rays",
    "hac.agglomerate",
    "params.compute_params",
    "params.parameter_stream",
    "termination.trace_all",
    "termination.count_breaks",
    "termination.trim",
    "termination.filter_terminals",
    "ranking.rank_candidates",
    "hac.hierarchy_records",
    "params.dump_params_csv",
    "termination.dump_trace_csv",
    "termination.dump_histogram_csv",
    "raster_io.write_cluster_raster",
    "raster_io.dump_pgm",
    "links.dump_links_csv",
)

#: Per-layer time metric -> the spans whose durations it sums.
LAYER_TIMES = {
    "raster_io.load_raster_s": ("raster_io.load_raster",),
    "raster_io.extract_isols_s": ("raster_io.extract_isols",),
    "raster_io.write_s": ("raster_io.write_cluster_raster", "raster_io.dump_pgm"),
    "links.cast_rays_s": ("links.cast_rays",),
    "links.dump_links_csv_s": ("links.dump_links_csv",),
    "hac.agglomerate_s": ("hac.agglomerate",),
    "hac.hierarchy_records_s": ("hac.hierarchy_records",),
    "params.compute_params_s": ("params.compute_params",),
    "params.parameter_stream_s": ("params.parameter_stream",),
    "params.dump_params_csv_s": ("params.dump_params_csv",),
    "termination.analysis_s": (
        "termination.trace_all",
        "termination.count_breaks",
        "termination.trim",
        "termination.filter_terminals",
    ),
    "termination.dump_trace_csv_s": ("termination.dump_trace_csv",),
    "ranking.rank_candidates_s": ("ranking.rank_candidates",),
}

#: Per-layer allocation metric -> the span it reads.
LAYER_ALLOCS = {
    "raster_io.extract_isols_alloc_mb": "raster_io.extract_isols",
    "links.cast_rays_alloc_mb": "links.cast_rays",
    "hac.agglomerate_alloc_mb": "hac.agglomerate",
    "params.compute_params_alloc_mb": "params.compute_params",
}


def _raster_counts(args, raster) -> dict[str, int]:
    return {"raster_io.pixels": raster.width * raster.height}


def _isol_counts(args, isols) -> dict[str, int]:
    return {
        "raster_io.regions": len(isols),
        "raster_io.edge_pixels": sum(len(isol.edge_pixels) for isol in isols),
    }


def _link_counts(args, store) -> dict[str, int]:
    isols = args[1]
    pairs = store.pairs()
    return {
        "links.rays": 8 * sum(len(isol.edge_pixels) for isol in isols),
        "links.links": sum(len(store.links_between(*pair)) for pair in pairs),
        "links.linked_pairs": len(pairs),
        "links.footprint_px": sum(len(store.pair_union(*pair)) for pair in pairs),
    }


def _hac_counts(args, hierarchy) -> dict[str, int]:
    cross = 0
    for node_id in hierarchy.merge_node_ids():
        left, right = hierarchy.node(node_id).ancestors
        cross += len(hierarchy.node(left).members) * len(hierarchy.node(right).members)
    return {
        "hac.merges": len(hierarchy.merge_node_ids()),
        "hac.roots": len(hierarchy.roots),
        "params.cross_pairs": cross,
    }


def _trace_counts(args, traces) -> dict[str, int]:
    return {
        "termination.path_nodes": sum(len(t.nodes) for t in traces),
        "termination.breaks": sum(len(t.breakpoints) for t in traces),
    }


def _break_counts(args, breaks) -> dict[str, int]:
    return {"termination.f_significance": breaks.significance}


def _trim_counts(args, trimmed) -> dict[str, int]:
    return {"termination.removed_nodes": len(trimmed.removed)}


def _rank_counts(args, candidates) -> dict[str, int]:
    return {
        "ranking.candidates": len(candidates),
        "ranking.pixels_scored": sum(c.stats.pixel_count for c in candidates),
    }


#: Span name -> reads counts from the call's positional arguments and result.
COUNTERS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "raster_io.load_raster": _raster_counts,
    "raster_io.extract_isols": _isol_counts,
    "links.cast_rays": _link_counts,
    "hac.agglomerate": _hac_counts,
    "termination.trace_all": _trace_counts,
    "termination.count_breaks": _break_counts,
    "termination.trim": _trim_counts,
    "ranking.rank_candidates": _rank_counts,
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    #: Peak bytes allocated within the span (alloc mode, LAYER_ALLOCS only).
    alloc_bytes: int = 0


@dataclass
class CallTrace:
    """The spans and counts of one ``run_pipeline`` call."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    #: Time spent inside the root span on this module's own bookkeeping.
    bookkeeping_s: float = 0.0


class Tracer:
    """Records spans into the current ``CallTrace``; one tracer per run."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.call = CallTrace()
        self._open: list[int] = []

    def new_call(self) -> CallTrace:
        self.call = CallTrace()
        return self.call

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.call.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._open.append(len(self.call.spans) - 1)
        return self._open[-1]

    def _exit(self, index: int) -> None:
        self.call.spans[index].end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        traces_alloc = self.alloc and name in LAYER_ALLOCS.values()

        def wrapper(*args, **kwargs):
            index = self._enter(name)
            if traces_alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if traces_alloc:
                    self.call.spans[index].alloc_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._exit(index)
            if counter is not None:
                started = time.perf_counter()
                self.call.counts.update(counter(args, result))
                self.call.bookkeeping_s += time.perf_counter() - started
            return result

        return wrapper


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Route every function in LAYER_FUNCTIONS through ``tracer``.

    Raises AttributeError when a listed function no longer exists, so a
    refactor that drops or renames a layer entry point fails loudly.
    """
    saved: list[tuple[Any, str, Callable]] = []
    try:
        for qualified in LAYER_FUNCTIONS:
            module_name, fn_name = qualified.split(".")
            module = importlib.import_module(f"crownmerge.{module_name}")
            original = getattr(module, fn_name)
            saved.append((module, fn_name, original))
            setattr(module, fn_name, tracer.wrap(qualified, original))
        yield
    finally:
        for module, fn_name, original in reversed(saved):
            setattr(module, fn_name, original)


def span_cost_s() -> float:
    """Seconds one wrapper adds to the call it wraps: its span's enter and
    exit.  The least over five batches of wrapped minus bare no-op calls,
    so that a pause of the host during one batch does not count."""
    calls = 2000

    def noop() -> None:
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("calibration", noop)
    best = float("inf")
    for _ in range(5):
        tracer.new_call()
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        wrapped_s = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare_s = time.perf_counter() - start
        best = min(best, (wrapped_s - bare_s) / calls)
    return best


def overhead_s(call: CallTrace, span_cost: float) -> float:
    """What tracing added to one call: each span's enter and exit, and the
    counting done after the stages return."""
    return len(call.spans) * span_cost + call.bookkeeping_s


class SpanError(RuntimeError):
    """A traced call missed a layer span or recorded one outside its root."""


def check_call(call: CallTrace, name: str) -> None:
    """Fail unless every layer fired, nested inside one root span."""
    roots = [i for i, s in enumerate(call.spans) if s.name == ROOT]
    if len(roots) != 1 or call.spans[roots[0]].parent is not None:
        raise SpanError(f"{name}: expected exactly one top-level {ROOT} span")
    root = call.spans[roots[0]]
    for span in call.spans:
        if span is root:
            continue
        if span.parent is None or not (root.start <= span.start <= span.end <= root.end):
            raise SpanError(f"{name}: span {span.name} falls outside its {ROOT} parent")
    missing = sorted(set(LAYER_FUNCTIONS) - {s.name for s in call.spans})
    if missing:
        raise SpanError(f"{name}: layer spans never fired: {', '.join(missing)}")


def layer_times(call: CallTrace) -> dict[str, float]:
    """Per-layer seconds of one call, plus the root span and its self time."""
    durations: dict[str, float] = {}
    root_index = next(i for i, s in enumerate(call.spans) if s.name == ROOT)
    root = call.spans[root_index]
    children = 0.0
    for span in call.spans:
        durations[span.name] = durations.get(span.name, 0.0) + span.end - span.start
        if span.parent == root_index:
            children += span.end - span.start
    out = {
        metric: sum(durations.get(name, 0.0) for name in names)
        for metric, names in LAYER_TIMES.items()
    }
    out["cli.run_pipeline_s"] = root.end - root.start
    out["cli.self_s"] = root.end - root.start - children - call.bookkeeping_s
    return out


def layer_allocs(call: CallTrace) -> dict[str, float]:
    """Per-layer peak allocation in MB (the call must run in alloc mode)."""
    peaks: dict[str, int] = {}
    for span in call.spans:
        peaks[span.name] = max(peaks.get(span.name, 0), span.alloc_bytes)
    return {metric: peaks.get(name, 0) / 2**20 for metric, name in LAYER_ALLOCS.items()}
