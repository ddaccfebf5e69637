"""Dispersion scoring and candidate ordering."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crownmerge import (
    SCORE_KEYS,
    LabeledRaster,
    agglomerate,
    by_id,
    cast_rays,
    compute_params,
    count_breaks,
    extract_isols,
    filter_terminals,
    parameter_stream,
    rank_candidates,
    score_cluster,
    trace_all,
    trim,
)

from conftest import QUAD_GRID, label_rasters, mosaic_rasters, synth_rasters
from oracles import brute_force_isols, pixel_set, rank_groups


def test_single_pixel_scores_zero():
    stats = score_cluster([(5, 9)])
    assert stats.centroid == (5.0, 9.0)
    assert stats.max_abs_dev == 0.0
    assert stats.score == 0.0
    assert stats.sum_over_max == 0.0
    assert stats.pixel_count == 1


def test_square_corners_score_one():
    # All four deviations are equal, so mean/max is exactly 1.
    stats = score_cluster([(0, 0), (0, 2), (2, 0), (2, 2)])
    assert stats.centroid == (1.0, 1.0)
    assert stats.max_abs_dev == pytest.approx(math.sqrt(2))
    assert stats.score == pytest.approx(1.0)
    assert stats.sum_over_max == pytest.approx(4.0)


def test_three_point_line():
    stats = score_cluster([(0, 0), (1, 0), (2, 0)])
    assert stats.centroid == (1.0, 0.0)
    assert stats.sum_abs_dev == pytest.approx(2.0)
    assert stats.mean_abs_dev == pytest.approx(2 / 3)
    assert stats.max_abs_dev == pytest.approx(1.0)
    assert stats.score == pytest.approx(2 / 3)


def test_score_bounds_and_translation_invariance():
    pixels = [(0, 0), (3, 1), (1, 4), (2, 2), (5, 0)]
    base = score_cluster(pixels)
    assert 0.0 <= base.score <= 1.0
    for dx, dy in [(10, 0), (0, -7), (123, 456)]:
        moved = score_cluster([(x + dx, y + dy) for x, y in pixels])
        assert moved.score == pytest.approx(base.score)
        assert moved.sum_abs_dev == pytest.approx(base.sum_abs_dev)
        assert moved.mean_abs_dev == pytest.approx(base.mean_abs_dev)
        assert moved.max_abs_dev == pytest.approx(base.max_abs_dev)
        assert moved.centroid == (
            pytest.approx(base.centroid[0] + dx),
            pytest.approx(base.centroid[1] + dy),
        )


def test_input_order_does_not_matter():
    pixels = [(0, 0), (3, 1), (1, 4)]
    assert score_cluster(pixels) == score_cluster(list(reversed(pixels)))


def test_empty_cluster_rejected():
    with pytest.raises(ValueError, match="empty"):
        score_cluster([])


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def reference_stats(pixels):
    """Pure-python recomputation used to pin the ranking order."""
    n = len(pixels)
    mx = sum(x for x, _ in pixels) / n
    my = sum(y for _, y in pixels) / n
    devs = [math.hypot(x - mx, y - my) for x, y in pixels]
    return sum(devs) / n / max(devs), sum(devs) / max(devs)


def test_rank_candidates_orders_by_compactness(quad):
    isols = by_id(quad.isols)
    ranked = rank_candidates(quad.hierarchy, isols, [4, 5])
    assert [c.node_id for c in ranked] == [4, 5]

    for candidate in ranked:
        members = quad.hierarchy.node(candidate.node_id).members
        pixels = sorted(p for m in members for p in pixel_set(isols[m].pixels))
        mean_score, sum_score = reference_stats(pixels)
        assert candidate.stats.score == pytest.approx(mean_score)
        assert candidate.stats.sum_over_max == pytest.approx(sum_score)
    assert ranked[0].stats.score < ranked[1].stats.score


def test_rank_candidates_sum_key(quad):
    isols = by_id(quad.isols)
    by_mean = rank_candidates(quad.hierarchy, isols, [4, 5], key="mean")
    by_sum = rank_candidates(quad.hierarchy, isols, [4, 5], key="sum")
    assert {c.node_id for c in by_sum} == {c.node_id for c in by_mean}
    for candidate in by_sum:
        assert candidate.stats.sum_over_max >= candidate.stats.score


def test_rank_ties_fall_back_to_node_id(quad):
    # The two 2x2 singleton blocks are congruent: identical scores, so the
    # lower node id must come first.
    ranked = rank_candidates(quad.hierarchy, by_id(quad.isols), [3, 0])
    assert [c.node_id for c in ranked] == [0, 3]
    assert ranked[0].stats.score == ranked[1].stats.score


def test_rank_rejects_unknown_key(quad):
    with pytest.raises(ValueError, match="score key"):
        rank_candidates(quad.hierarchy, by_id(quad.isols), [4], key="median")


@settings(max_examples=100, deadline=None)
@given(
    label_rasters() | synth_rasters | mosaic_rasters,
    st.integers(1, 3),
    st.sampled_from(SCORE_KEYS),
)
@example(LabeledRaster.from_array(QUAD_GRID), 2, "mean")
@example(LabeledRaster.from_array([[1, 0], [0, 0], [0, 2]]), 1, "sum")  # unlinked, tied
def test_rank_candidates_matches_scoring_oracle(raster, min_group_size, key):
    # The terminals a run would rank; small floors leave some to rank.
    isols = extract_isols(raster)
    hierarchy = agglomerate(isols, cast_rays(raster, isols))
    stream = parameter_stream(hierarchy, compute_params(hierarchy, isols), "a_merge")
    breaks = count_breaks(hierarchy, trace_all(hierarchy, stream))
    terminals = filter_terminals(trim(hierarchy, breaks), hierarchy, min_group_size)
    got = rank_candidates(hierarchy, by_id(isols), terminals, key=key)
    # Exact: every float, down to its last bit, and the order.
    assert got == rank_groups(hierarchy, by_id(brute_force_isols(raster)), terminals, key)
