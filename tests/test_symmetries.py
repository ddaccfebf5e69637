"""Metamorphic checks: scene changes that the links, the forest and its
trim must keep.

Rays run in all 8 directions, edge pixels are 4-neighbour and merge ties
go by the smallest ids, so rotating or reflecting the scene, or padding
it with ground, moves every ray-table row and changes nothing else, and
an order-keeping relabel changes only the ids.  Upscaling is no exact
symmetry, so it is checked by its known answer: the planted ring stays
rank 1.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crownmerge import (
    DIRECTIONS,
    SCORE_KEYS,
    LabeledRaster,
    LinkStore,
    by_id,
    compute_params,
    count_breaks,
    filter_terminals,
    generate_ring,
    parameter_stream,
    rank_candidates,
    trace_all,
    trim,
)

from conftest import (
    QUAD_GRID,
    build_bundle,
    label_rasters,
    max_rays,
    mosaic,
    mosaic_rasters,
    synth_rasters,
)

#: The 7 non-identity symmetries of the square as (transpose, flip x, flip
#: y): the labels are transposed first, then flipped along the new axes.
SYMMETRIES = [(t, x, y) for t in (False, True) for x in (False, True) for y in (False, True)][1:]

_STEP_INDEX = {(dx, dy): d for d, (_, dx, dy) in enumerate(DIRECTIONS)}


def _transform(labels: np.ndarray, symmetry) -> np.ndarray:
    transpose, flip_x, flip_y = symmetry
    out = labels.T if transpose else labels
    if flip_x:
        out = out[:, ::-1]
    if flip_y:
        out = out[::-1]
    return out.copy()


#: The streams whose break counts, ``f_significance`` and trim are compared.
#: ``n_pix`` and ``n_edge`` sum the regions' pixel and edge-pixel counts.
STREAMS = ("a_merge", "lw_over_acum", "n_pix", "n_edge", "a_cumulative", "ratio:l_hat/a_merge")


#: The two streams the planted ring is known to rank first under.
RING_STREAMS = ("a_merge", "lw_over_acum")


def _termination(bundle, streams=STREAMS) -> list[tuple]:
    """Per stream in ``streams``: the break counts per node id, the
    significance threshold (``f_significance``) and the ``trim`` result."""
    hierarchy = bundle.hierarchy
    node_params = compute_params(hierarchy, by_id(bundle.isols))
    out = []
    for choice in streams:
        stream = parameter_stream(hierarchy, node_params, choice)
        breaks = count_breaks(hierarchy, trace_all(hierarchy, stream))
        out.append((breaks.counts, breaks.significance, trim(hierarchy, breaks)))
    return out


def _sorted_rows(store: LinkStore) -> list[tuple[int, ...]]:
    """Every ray-table row of the store, read pair by pair, sorted."""
    return sorted(
        tuple(row) for pair in store.pairs() for row in store.links_between(*pair).tolist()
    )


def _transformed_rows(rows, shape: tuple[int, int], symmetry) -> list[tuple[int, ...]]:
    """``rows`` of a scene of ``shape`` as the symmetry maps them: origins
    moved, direction indices rotated or reflected, all else kept; sorted."""
    transpose, flip_x, flip_y = symmetry
    height, width = shape[::-1] if transpose else shape
    out = []
    for origin, target, d, x, y, length in rows:
        _, dx, dy = DIRECTIONS[d]
        if transpose:
            x, y, dx, dy = y, x, dy, dx
        if flip_x:
            x, dx = width - 1 - x, -dx
        if flip_y:
            y, dy = height - 1 - y, -dy
        out.append((origin, target, _STEP_INDEX[dx, dy], x, y, length))
    return sorted(out)


@settings(max_examples=80, deadline=None)
@given(
    label_rasters() | synth_rasters | mosaic_rasters,
    max_rays,
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 4),
)
@example(LabeledRaster.from_array(QUAD_GRID), None, (1, 0, 2, 3))
@example(mosaic(0, n_cells=40, size=48, valley=1), 2, (0, 3, 0, 1))
@example(LabeledRaster.from_array([[1, 0, 0, 2, 0, 3]]), None, (2, 2, 0, 0))  # 1xN
def test_symmetries_and_padding_keep_the_ray_table_and_forest(raster, max_ray, pad):
    # Every node compares whole: members, ancestors, merge distance, link
    # count, length sum and a_cumulative among its fields.
    base = build_bundle(raster, max_ray=max_ray)
    rows = _sorted_rows(base.store)
    nodes = list(base.hierarchy.nodes())
    termination = _termination(base)
    for symmetry in SYMMETRIES:
        moved = build_bundle(
            LabeledRaster.from_array(_transform(raster.labels, symmetry)), max_ray=max_ray
        )
        want = _transformed_rows(rows, raster.labels.shape, symmetry)
        assert _sorted_rows(moved.store) == want, symmetry
        assert list(moved.hierarchy.nodes()) == nodes, symmetry
        assert _termination(moved) == termination, symmetry
    top, bottom, left, right = pad
    padded_labels = np.pad(raster.labels, ((top, bottom), (left, right)))
    padded = build_bundle(LabeledRaster.from_array(padded_labels), max_ray=max_ray)
    assert _sorted_rows(padded.store) == sorted(
        (origin, target, d, x + left, y + top, length) for origin, target, d, x, y, length in rows
    )
    assert list(padded.hierarchy.nodes()) == nodes
    assert _termination(padded) == termination


#: How far a ranking stat may move under a symmetry: the pixels are summed
#: in sorted ``(x, y)`` order, which a symmetry changes, so only rounding.
TOLERANCE = 1e-9


def _moved_point(x: float, y: float, shape: tuple[int, int], symmetry) -> tuple[float, float]:
    """Where the symmetry takes the point ``(x, y)`` of a scene of ``shape``."""
    transpose, flip_x, flip_y = symmetry
    height, width = shape[::-1] if transpose else shape
    if transpose:
        x, y = y, x
    if flip_x:
        x = width - 1 - x
    if flip_y:
        y = height - 1 - y
    return x, y


def _ranked(bundle, min_size: int, key: str):
    """The candidates a run ranks under ``a_merge`` at p = 0.25."""
    ((_, _, trimmed),) = _termination(bundle, ("a_merge",))
    terminals = filter_terminals(trimmed, bundle.hierarchy, min_size)
    return rank_candidates(bundle.hierarchy, by_id(bundle.isols), terminals, key)


@settings(max_examples=40, deadline=None)
@given(
    label_rasters() | synth_rasters | mosaic_rasters,
    max_rays,
    st.integers(1, 3),
    st.sampled_from(SCORE_KEYS),
)
@example(LabeledRaster.from_array(QUAD_GRID), None, 1, "mean")
@example(mosaic(0, n_cells=40, size=48, valley=1), 2, 1, "sum")
def test_symmetries_keep_the_ranking_stats_to_rounding(raster, max_ray, min_size, key):
    # The same nodes are ranked, each with the same pixel count and, up to
    # rounding, the same stats and its centroid moved with the scene.
    # Two candidates keep their order wherever their values differ by
    # more than the tolerance.
    base = _ranked(build_bundle(raster, max_ray=max_ray), min_size, key)
    value = (lambda c: c.stats.score) if key == "mean" else (lambda c: c.stats.sum_over_max)
    for symmetry in SYMMETRIES:
        moved = _ranked(
            build_bundle(
                LabeledRaster.from_array(_transform(raster.labels, symmetry)), max_ray=max_ray
            ),
            min_size,
            key,
        )
        assert sorted(c.node_id for c in moved) == sorted(c.node_id for c in base), symmetry
        stats = {c.node_id: c.stats for c in moved}
        for c in base:
            got = stats[c.node_id]
            assert got.pixel_count == c.stats.pixel_count
            want = _moved_point(*c.stats.centroid, raster.labels.shape, symmetry)
            assert got.centroid == pytest.approx(want, rel=TOLERANCE, abs=TOLERANCE)
            for name in ("sum_abs_dev", "mean_abs_dev", "max_abs_dev", "score", "sum_over_max"):
                assert getattr(got, name) == pytest.approx(
                    getattr(c.stats, name), rel=TOLERANCE, abs=TOLERANCE
                ), (symmetry, name)
        rank = {c.node_id: i for i, c in enumerate(moved)}
        for i, first in enumerate(base):
            for later in base[i + 1 :]:
                if value(later) - value(first) > TOLERANCE:
                    assert rank[first.node_id] < rank[later.node_id], symmetry


@settings(max_examples=80, deadline=None)
@given(label_rasters() | synth_rasters | mosaic_rasters, max_rays, st.data())
@example(LabeledRaster.from_array(QUAD_GRID), None, None)
@example(mosaic(0, n_cells=40, size=48, valley=1), 2, None)
def test_order_keeping_relabel_maps_only_the_ids(raster, max_ray, data):
    # Ids are drawn small or past 10**12, sorted: merge ties go by the
    # smallest ids, so any strictly increasing relabel keeps the node ids,
    # and every node and row changes only in the ids it names.
    ids = raster.positive_ids()
    if data is None:
        new_ids = [10**12 + 7 * i for i in range(len(ids))]
    else:
        new_ids = sorted(data.draw(st.lists(
            st.integers(1, 50) | st.integers(10**12, 2**63 - 1),
            min_size=len(ids),
            max_size=len(ids),
            unique=True,
        )))
    mapped = dict(zip(ids, new_ids))
    # Ground sorts before every id; the 0 past the end keeps the lookup
    # non-empty for a scene of ground only.
    lookup = np.array([*new_ids, 0], dtype=np.int64)
    where = np.searchsorted(np.array(ids, dtype=np.int64), raster.labels)
    labels = np.where(raster.labels > 0, lookup[where], 0)
    base = build_bundle(raster, max_ray=max_ray)
    relabelled = build_bundle(LabeledRaster.from_array(labels), max_ray=max_ray)
    assert _sorted_rows(relabelled.store) == sorted(
        (mapped[origin], mapped[target], *rest) for origin, target, *rest in _sorted_rows(base.store)
    )
    assert list(relabelled.hierarchy.nodes()) == [
        replace(node, members=frozenset(map(mapped.get, node.members)))
        for node in base.hierarchy.nodes()
    ]
    assert _termination(relabelled) == _termination(base)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_upscaled_ring_ranks_first(k):
    # Each pixel of the ring scenes of the benchmark's rings workload
    # becomes a k x k block; with the defaults of ``crownmerge run``
    # (p = 0.25, groups of at least 7 segments, mean score) the planted
    # ring stays rank 1 under both streams.
    for seed in range(20):
        scene = generate_ring(seed, outliers=4, size=192)
        labels = np.kron(scene.raster.labels, np.ones((k, k), dtype=np.int64))
        bundle = build_bundle(LabeledRaster.from_array(labels))
        for choice, (_, _, trimmed) in zip(RING_STREAMS, _termination(bundle, RING_STREAMS)):
            terminals = filter_terminals(trimmed, bundle.hierarchy, 7)
            ranked = rank_candidates(bundle.hierarchy, by_id(bundle.isols), terminals)
            assert ranked, (seed, choice)
            top = bundle.hierarchy.node(ranked[0].node_id).members
            assert top == scene.truth_groups[0], (seed, choice)
