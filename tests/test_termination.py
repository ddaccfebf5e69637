"""Path scaling, break points, histogram counting, and trimming."""

from __future__ import annotations

import io

import pytest
from hypothesis import example, given, settings

from crownmerge import (
    BreakCounts,
    LabeledRaster,
    NAMED_STREAMS,
    NodeParams,
    by_id,
    compute_params,
    count_breaks,
    cumulative_max,
    filter_terminals,
    first_differences,
    parameter_stream,
    scale_unit,
    trace_all,
    trace_path,
    trim,
)
from crownmerge.termination import dump_histogram_csv, dump_trace_csv

from conftest import build_bundle, label_rasters, max_rays, mosaic, mosaic_rasters
import oracles


@pytest.fixture(scope="module")
def quad_stream(quad):
    params = compute_params(quad.hierarchy, quad.isols)
    return parameter_stream(quad.hierarchy, params, "a_merge")


# ---------------------------------------------------------------------------
# differential: raw rasters through params and termination
# ---------------------------------------------------------------------------


def _oracle_params(raster, hierarchy, max_ray) -> dict[int, NodeParams]:
    """Every node's params from walked links and mask-extracted segments."""
    isols = by_id(oracles.brute_force_isols(raster))
    walked = oracles.walk_rays(raster, list(isols.values()), max_ray=max_ray)
    out = {}
    for node in hierarchy.nodes():
        sizes = dict(
            n_pix=sum(len(isols[m].pixels) for m in node.members),
            n_edge=sum(len(isols[m].edge_pixels) for m in node.members),
        )
        if node.is_singleton:
            out[node.id] = NodeParams(**sizes)
            continue
        a_merge, count, total = oracles.brute_force_merge_params(hierarchy, walked, node.id)
        l_hat = total / count
        out[node.id] = NodeParams(
            **sizes,
            a_merge=a_merge,
            l_hat=l_hat,
            lw_ratio=l_hat * l_hat / a_merge if a_merge else 0.0,
            a_cumulative=oracles.brute_force_a_cumulative(hierarchy, walked, node.id),
        )
    return out


@settings(max_examples=200, deadline=None)
@given(label_rasters() | mosaic_rasters, max_rays)
@example(LabeledRaster.from_array([[1, 0, 2, 0, 0, 3, 0, 0, 0, 4]]), None)  # widening gaps
@example(mosaic(1, n_cells=40, size=48, valley=2), None)  # canopy-shaped, many ties
def test_params_and_breakpoints_match_oracles_on_raw_rasters(raster, max_ray):
    assert set(oracles.STREAM_VALUES) == set(NAMED_STREAMS)
    bundle = build_bundle(raster, max_ray=max_ray)
    h = bundle.hierarchy
    params = compute_params(h, bundle.isols)
    want = _oracle_params(raster, h, max_ray)
    assert params == want
    for name in NAMED_STREAMS:
        values = {n: oracles.STREAM_VALUES[name](want[n]) for n in h.merge_node_ids()}
        stream = parameter_stream(h, params, name)
        assert stream == values
        traces = trace_all(h, stream)
        assert [t.start for t in traces] == list(h.singleton_node_ids())
        for trace in traces:
            path = h.path_from(trace.start)
            raw = [0.0] + [values[n] for n in path[1:]]
            assert trace.nodes == tuple(path)
            assert trace.breakpoints == oracles.strict_record_breakpoints(raw)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def test_scale_unit_maps_to_unit_interval():
    assert scale_unit([0.0, 0.2, 0.1, 0.9]) == pytest.approx([0, 2 / 9, 1 / 9, 1])
    assert scale_unit([5.0, 5.0, 5.0]) == [0.0, 0.0, 0.0]
    assert scale_unit([3.0]) == [0.0]
    assert scale_unit([-2.0, 2.0]) == [0.0, 1.0]


def test_first_differences_and_running_maximum():
    f = [0.0, 0.2, 0.1, 0.9]
    d = first_differences(f)
    assert d == pytest.approx([0.2, -0.1, 0.8])
    assert cumulative_max(d) == pytest.approx([0.2, 0.2, 0.8])
    # Only position 2 sets a new record after the start.
    records = {j for j in range(1, len(d)) if d[j] > max(d[:j])}
    assert records == {2}


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def test_quad_trace_shape_and_break(quad, quad_stream):
    trace = trace_path(quad.hierarchy, quad_stream, 0)
    assert trace.start == 0
    assert trace.nodes == (0, 4, 6)
    # Raw values [0, 2, 15] scale to [0, 2/15, 1].
    assert trace.f == pytest.approx([0.0, 2 / 15, 1.0])
    assert trace.d == pytest.approx([2 / 15, 13 / 15])
    assert trace.cmax == pytest.approx([2 / 15, 13 / 15])
    assert trace.breakpoints == {1}


def test_trace_break_charges_landing_node(quad, quad_stream):
    # The break at j=1 is the step onto nodes[2], the root.
    trace = trace_path(quad.hierarchy, quad_stream, 0)
    assert trace.nodes[2] == 6


def test_trace_rejects_merge_node_start(quad, quad_stream):
    with pytest.raises(ValueError, match="not a singleton"):
        trace_path(quad.hierarchy, quad_stream, 4)


def test_trace_all_covers_singletons_in_order(quad, quad_stream):
    traces = trace_all(quad.hierarchy, quad_stream)
    assert [t.start for t in traces] == [0, 1, 2, 3]
    # All four paths break only on the final jump to the root.
    for trace in traces:
        assert trace.breakpoints == {1}
        assert trace.nodes[-1] == 6


def test_flat_stream_yields_no_breaks():
    bundle = build_bundle(LabeledRaster.from_array([[1, 2]]))
    params = compute_params(bundle.hierarchy, bundle.isols)
    stream = parameter_stream(bundle.hierarchy, params, "a_merge")
    trace = trace_path(bundle.hierarchy, stream, 0)
    assert trace.f == (0.0, 0.0)
    assert trace.breakpoints == frozenset()


def test_breakpoints_ignore_affine_shift_of_path_values(quad, quad_stream):
    base = trace_path(quad.hierarchy, quad_stream, 0)
    raw = [0.0] + [quad_stream[n] for n in base.nodes[1:]]
    for a, b in [(3.0, 0.0), (0.25, 7.0), (10.0, -2.0)]:
        f = scale_unit([a * v + b for v in raw])
        d = first_differences(f)
        records = {j for j in range(1, len(d)) if d[j] > max(d[:j])}
        assert records == base.breakpoints


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def test_quad_break_counts(quad, quad_stream):
    traces = trace_all(quad.hierarchy, quad_stream)
    breaks = count_breaks(quad.hierarchy, traces, p=0.25)
    assert breaks.counts == {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 4}
    # One of three merge nodes exceeds any v < 4 (fraction 1/3 > 0.25),
    # so the threshold settles at the root's own count.
    assert breaks.significance == 4
    assert breaks.p == 0.25


def test_count_conservation(quad, quad_stream):
    traces = trace_all(quad.hierarchy, quad_stream)
    breaks = count_breaks(quad.hierarchy, traces)
    assert sum(breaks.counts.values()) == sum(len(t.breakpoints) for t in traces)


def test_count_breaks_validates_p(quad, quad_stream):
    traces = trace_all(quad.hierarchy, quad_stream)
    with pytest.raises(ValueError, match="p must be"):
        count_breaks(quad.hierarchy, traces, p=1.5)


def test_count_breaks_needs_full_trace_cover(quad, quad_stream):
    traces = trace_all(quad.hierarchy, quad_stream)
    with pytest.raises(ValueError, match="one trace per singleton"):
        count_breaks(quad.hierarchy, traces[:-1])


def test_permissive_tail_keeps_significance_zero(quad, quad_stream):
    traces = trace_all(quad.hierarchy, quad_stream)
    breaks = count_breaks(quad.hierarchy, traces, p=1.0)
    assert breaks.significance == 0
    # Every count is then allowed in the tail, so flagging applies to any
    # positive count: the root goes and its two ancestors surface.
    trimmed = trim(quad.hierarchy, breaks)
    assert trimmed.removed == {6}
    assert trimmed.terminals == {4, 5}


# ---------------------------------------------------------------------------
# trimming
# ---------------------------------------------------------------------------


def counts_for(quad, flagged: dict[int, int]) -> BreakCounts:
    counts = {node.id: 0 for node in quad.hierarchy.nodes()}
    counts.update(flagged)
    return BreakCounts(counts=counts, significance=0, p=0.25)


def test_trim_nothing_flagged_keeps_roots(quad):
    breaks = counts_for(quad, {})
    trimmed = trim(quad.hierarchy, breaks)
    assert trimmed.removed == frozenset()
    assert trimmed.terminals == {6}


def test_trim_flagged_root_exposes_its_ancestors(quad):
    trimmed = trim(quad.hierarchy, counts_for(quad, {6: 5}))
    assert trimmed.removed == {6}
    assert trimmed.terminals == {4, 5}


def test_trim_removal_propagates_to_successors(quad):
    # Flagging an inner node drags everything on its path to the root.
    trimmed = trim(quad.hierarchy, counts_for(quad, {4: 3}))
    assert trimmed.removed == {4, 6}
    assert trimmed.terminals == {0, 3, 5}


def test_trim_terminals_never_nest(quad, quad_stream):
    traces = trace_all(quad.hierarchy, quad_stream)
    trimmed = trim(quad.hierarchy, count_breaks(quad.hierarchy, traces))
    h = quad.hierarchy
    for t in trimmed.terminals:
        for other in trimmed.terminals:
            if t != other:
                assert t not in h.ancestors_all(other)


def test_filter_terminals_by_member_count(quad):
    trimmed = trim(quad.hierarchy, counts_for(quad, {6: 5}))
    assert filter_terminals(trimmed, quad.hierarchy, min_size=1) == {4, 5}
    assert filter_terminals(trimmed, quad.hierarchy, min_size=2) == {4, 5}
    assert filter_terminals(trimmed, quad.hierarchy, min_size=3) == frozenset()
    with pytest.raises(ValueError, match="at least 1"):
        filter_terminals(trimmed, quad.hierarchy, min_size=0)


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------


def test_trace_csv_rows(quad, quad_stream):
    trace = trace_path(quad.hierarchy, quad_stream, 0)
    out = io.StringIO()
    dump_trace_csv(trace, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "j,node_id,f,D,Cmax,is_break"
    assert len(lines) == 1 + len(trace.d)
    assert lines[1].startswith("0,4,")
    assert lines[2].startswith("1,6,")
    assert lines[2].endswith(",1")  # the break row is marked


def test_histogram_csv(quad, quad_stream):
    traces = trace_all(quad.hierarchy, quad_stream)
    breaks = count_breaks(quad.hierarchy, traces)
    out = io.StringIO()
    dump_histogram_csv(quad.hierarchy, breaks, out)
    assert out.getvalue().splitlines() == [
        "count_value,num_nodes",
        "0,2",
        "4,1",
    ]
