"""Ray casting, connective links, and pair/group distances."""

from __future__ import annotations

import io
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from crownmerge import (
    DIRECTIONS,
    NO_CONNECTION,
    ConnectiveLink,
    LabeledRaster,
    LinkStore,
    cast_rays,
    extract_isols,
    group_distance,
    pair_distance,
)
from crownmerge.links import dump_links_csv

from conftest import (
    QUAD_GRID,
    QUAD_PAIR_DISTANCES,
    build_bundle,
    label_rasters,
    max_rays,
    synth_rasters,
)
from oracles import walk_rays


def scene(rows):
    return build_bundle(LabeledRaster.from_array(rows))


# ---------------------------------------------------------------------------
# directions
# ---------------------------------------------------------------------------


def test_eight_compass_directions():
    names = [name for name, _, _ in DIRECTIONS]
    assert names == ["N", "NE", "E", "SE", "S", "SW", "W", "NW"]
    steps = {(dx, dy) for _, dx, dy in DIRECTIONS}
    assert len(steps) == 8
    assert (0, 0) not in steps
    assert all(abs(dx) <= 1 and abs(dy) <= 1 for dx, dy in steps)


# ---------------------------------------------------------------------------
# quad scene (hand-counted)
# ---------------------------------------------------------------------------


def test_quad_linked_pairs_exactly(quad):
    assert quad.store.pairs() == ((1, 2), (1, 3), (1, 4), (2, 3), (3, 4))
    assert not quad.store.has_links(2, 4)


def test_quad_pair_distances(quad):
    for (a, b), expected in QUAD_PAIR_DISTANCES.items():
        assert pair_distance(quad.store, a, b) == expected
        assert pair_distance(quad.store, b, a) == expected
    assert pair_distance(quad.store, 2, 4) == NO_CONNECTION


def test_quad_pair_unions(quad):
    assert quad.store.pair_union(1, 4) == {(1, 3), (2, 3)}
    assert quad.store.pair_union(2, 3) == {(7, 3), (7, 4)}
    assert quad.store.pair_union(3, 4) == {(3, 5), (4, 5), (5, 5)}
    assert quad.store.pair_union(1, 3) == {
        (3, 2), (4, 3), (5, 4), (3, 3), (4, 4), (5, 5),
    }


def test_quad_link_stats(quad):
    # (link count, summed length); rays from both endpoints all count.
    assert quad.store.link_stats(1, 4) == (4, 4)
    assert quad.store.link_stats(2, 3) == (2, 4)
    assert quad.store.link_stats(3, 4) == (2, 6)
    assert quad.store.link_stats(1, 2) == (4, 16)
    assert quad.store.link_stats(1, 3) == (4, 12)
    assert quad.store.link_stats(2, 4) == (0, 0)


def test_pair_union_is_a_new_set_on_each_call():
    # The caller owns each result: changing one changes nothing in the store.
    store = scene(QUAD_GRID).store
    want = {(3, 2), (4, 3), (5, 4), (3, 3), (4, 4), (5, 5)}
    first = store.pair_union(1, 3)
    first.clear()
    first.add((0, 0))
    second = store.pair_union(1, 3)
    assert second == want and second is not first
    second |= store.pair_union(1, 2)
    assert store.pair_union(1, 3) == want
    assert store.link_stats(1, 3) == (4, 12)


def test_quad_both_endpoints_cast(quad):
    origins = {link.origin_isol for link in quad.store.links_between(1, 4)}
    assert origins == {1, 4}


def test_quad_interstitial_is_background(quad):
    # Every recorded interstitial pixel must be label 0 in the scene.
    for pair in quad.store.pairs():
        for link in quad.store.links_between(*pair):
            for x, y in link.interstitial:
                assert QUAD_GRID[y][x] == 0


def test_one_link_per_origin_pixel_and_direction(quad):
    seen = set()
    for pair in quad.store.pairs():
        for link in quad.store.links_between(*pair):
            key = (link.origin_isol, link.origin_pixel, link.direction)
            assert key not in seen
            seen.add(key)


# ---------------------------------------------------------------------------
# small hand scenes
# ---------------------------------------------------------------------------


def test_touching_segments_distance_zero():
    bundle = scene([[1, 2]])
    assert bundle.store.has_links(1, 2)
    assert pair_distance(bundle.store, 1, 2) == 0
    assert all(link.length == 0 for link in bundle.store.links_between(1, 2))


def test_two_pixel_gap():
    bundle = scene([[1, 0, 0, 2]])
    assert pair_distance(bundle.store, 1, 2) == 2
    assert bundle.store.pair_union(1, 2) == {(1, 0), (2, 0)}


def test_ray_returning_to_own_segment_is_discarded():
    # The left patch of 1 sees its own label first; only the right patch
    # reaches 2, so the shared background pixel (1,0) never enters a link.
    bundle = scene([[1, 0, 1, 0, 2]])
    assert pair_distance(bundle.store, 1, 2) == 1
    assert bundle.store.pair_union(1, 2) == {(3, 0)}


def test_diagonal_rays_are_king_moves():
    bundle = scene([[1, 0, 0], [0, 0, 0], [0, 0, 2]])
    (link,) = [
        l for l in bundle.store.links_between(1, 2) if l.origin_isol == 1
    ]
    assert link.direction == "SE"
    assert link.interstitial == ((1, 1),)


def test_rays_leaving_raster_make_no_links():
    bundle = scene([[0, 1, 0]])
    assert len(bundle.store) == 0
    assert pair_distance(bundle.store, 1, 1) == NO_CONNECTION


def test_max_ray_caps_interstitial_length():
    rows = [[1, 0, 0, 0, 0, 2]]
    raster = LabeledRaster.from_array(rows)
    isols = extract_isols(raster)
    assert len(cast_rays(raster, isols, max_ray=3)) == 0
    capped = cast_rays(raster, isols, max_ray=4)
    assert pair_distance(capped, 1, 2) == 4


@settings(max_examples=200, deadline=None)
@given(label_rasters() | synth_rasters, max_rays, st.booleans())
@example(LabeledRaster.from_array([[1, 0, 1, 0, 2]]), None, False)  # back to own label
@example(LabeledRaster.from_array([[1], [0], [0], [2]]), 1, False)  # capped below the gap
@example(LabeledRaster.from_array([[0, 0, 5], [0, 0, 0], [70000, 0, 0]]), None, True)
def test_cast_rays_matches_pixel_walk_oracle(raster, max_ray, reverse):
    # Segments are cast in the order given, which need not be by id.
    isols = extract_isols(raster)[:: -1 if reverse else 1]
    got = cast_rays(raster, isols, max_ray=max_ray)
    want = walk_rays(raster, isols, max_ray=max_ray)
    assert got.pairs() == want.pairs()
    for pair in got.pairs():
        links = got.links_between(*pair)
        assert links == want.links_between(*pair)
        assert got.pair_union(*pair) == want.pair_union(*pair)
        assert got.link_stats(*pair) == want.link_stats(*pair)
        for link in links:
            assert type(link.target_isol) is int
            assert all(type(v) is int for px in link.interstitial for v in px)


def test_no_connection_is_infinite():
    assert NO_CONNECTION == math.inf
    assert NO_CONNECTION > 10**12


# ---------------------------------------------------------------------------
# group distance
# ---------------------------------------------------------------------------


def test_group_distance_quad_partition(quad):
    # Cross links of {1,4} vs {2,3} share pixels, so the union stays below
    # the sum of the pair distances: 15 < 8 + 6 + 3.
    assert group_distance(quad.store, {1, 4}, {2, 3}) == 15
    assert group_distance(quad.store, {2, 3}, {1, 4}) == 15


def test_group_distance_single_vs_pair(quad):
    # (1,2) and (1,3) overlap in exactly one pixel: 8 + 6 - 1.
    assert group_distance(quad.store, {1}, {2, 3}) == 13


def test_group_distance_subadditive(quad):
    total = sum(QUAD_PAIR_DISTANCES[p] for p in [(1, 2), (1, 3), (3, 4)])
    assert group_distance(quad.store, {1, 4}, {2, 3}) < total


def test_group_distance_unlinked_groups(quad):
    assert group_distance(quad.store, {2}, {4}) == NO_CONNECTION


def test_group_distance_rejects_overlap(quad):
    with pytest.raises(ValueError, match="overlap"):
        group_distance(quad.store, {1, 2}, {2, 3})


def test_group_distance_rejects_empty(quad):
    with pytest.raises(ValueError, match="non-empty"):
        group_distance(quad.store, set(), {1})


# ---------------------------------------------------------------------------
# store validation and dumps
# ---------------------------------------------------------------------------


def _link(a: int, b: int, direction: str = "E", length: int = 1) -> ConnectiveLink:
    return ConnectiveLink(
        origin_isol=a, target_isol=b, direction=direction,
        origin_pixel=(0, 0), length=length,
    )


def test_store_rejects_unsorted_pair_key():
    with pytest.raises(ValueError, match="low < high"):
        LinkStore({(2, 1): [_link(2, 1)]})


def test_store_rejects_empty_link_list():
    with pytest.raises(ValueError, match="empty"):
        LinkStore({(1, 2): []})


def test_store_rejects_misfiled_link():
    with pytest.raises(ValueError, match="filed under"):
        LinkStore({(1, 2): [_link(1, 3)]})


def test_store_rejects_unknown_direction():
    with pytest.raises(ValueError, match="unknown direction 'EAST'"):
        LinkStore({(1, 2): [_link(1, 2), _link(2, 1, direction="EAST")]})


def test_store_rejects_negative_length():
    with pytest.raises(ValueError, match="negative length -1"):
        LinkStore({(1, 2): [_link(1, 2, length=-1)]})


def test_dump_links_csv(quad):
    out = io.StringIO()
    dump_links_csv(quad.store, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "origin_isol,target_isol,direction,origin_x,origin_y,length"
    total_links = sum(
        len(quad.store.links_between(*pair)) for pair in quad.store.pairs()
    )
    assert len(lines) == 1 + total_links
