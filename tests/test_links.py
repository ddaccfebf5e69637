"""Ray casting, connective links, and pair/group distances."""

from __future__ import annotations

import csv
import io
import math
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crownmerge import (
    DIRECTIONS,
    NO_CONNECTION,
    ConnectiveLink,
    Isol,
    LabeledRaster,
    LinkStore,
    cast_rays,
    extract_isols,
    generate_random,
    group_distance,
    pair_distance,
)
from crownmerge import raster_io
from crownmerge.links import dump_links_csv

from conftest import (
    QUAD_GRID,
    QUAD_PAIR_DISTANCES,
    build_bundle,
    label_rasters,
    max_rays,
    mosaic,
    mosaic_rasters,
    synth_rasters,
)
from oracles import raw_union, walk_links


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


def test_max_ray_zero_keeps_touching_links_and_negative_is_rejected():
    raster = LabeledRaster.from_array([[1, 2, 0, 3]])
    isols = extract_isols(raster)
    assert cast_rays(raster, isols, max_ray=0).pairs() == ((1, 2),)
    assert cast_rays(raster, isols).pairs() == ((1, 2), (2, 3))
    with pytest.raises(ValueError, match="max_ray must be >= 0, got -1"):
        cast_rays(raster, isols, max_ray=-1)


def _isol(id_, *edge):
    return Isol(id_, frozenset(edge), frozenset(edge))


@pytest.mark.parametrize(
    "rows, isol, stray",
    [
        ([[1, 0, 2]], _isol(7, (0, 0)), (0, 0)),  # another segment's pixel
        ([[1, 0, 2]], _isol(2, (2, 0), (0, 0)), (0, 0)),
        ([[1, 0, 2]], _isol(2, (2, 0), (5, 5)), (5, 5)),  # off the raster
        ([[1, 0, 2]], _isol(1, (0, -1), (0, 0)), (0, -1)),
        ([[1, 0, 2]], _isol(1, (0, 0), (1, 0)), (1, 0)),  # ground
        ([[0, 0, 0]], _isol(1, (1, 0)), (1, 0)),  # every pixel ground
        ([[0, 0, 0]], _isol(1, (3, 0)), (3, 0)),
        ([[1, 0, 2]], _isol(1, (2**63, 0)), (2**63, 0)),  # past int64
        ([[1, 0, 2]], _isol(2, (2, 0), (0, -(2**63) - 1)), (0, -(2**63) - 1)),
        ([[1, 0, 2]], _isol(2, (5, 0), (2**64, 0)), (5, 0)),  # first stray
        ([[1, 0, 2]], _isol(2**63, (0, 0)), (0, 0)),  # id past int64
        ([[1, 0, 2]], _isol(-(2**63) - 1, (2, 0)), (2, 0)),
    ],
)
def test_cast_rays_rejects_stray_origins(rows, isol, stray):
    # Every ray starts on a pixel of its own segment; anything else used to
    # give one-sided links, links to segments that are not given, or none.
    raster = LabeledRaster.from_array(rows)
    message = (
        f"isol {isol.id} edge pixel \\({stray[0]}, {stray[1]}\\) is not a pixel "
        f"labelled {isol.id} in the 3x1 raster"
    )
    with pytest.raises(ValueError, match=message):
        cast_rays(raster, [isol])


@pytest.mark.parametrize("isol_id", [2**63, -(2**63) - 1])
def test_cast_rays_casts_nothing_from_isols_without_edge_pixels(isol_id):
    # With no edge pixel there is no origin to check, whatever the id;
    # the other segments' rays are cast as usual.
    raster = LabeledRaster.from_array([[1, 0, 2]])
    isol = Isol(isol_id, frozenset({(0, 0)}), frozenset())
    assert cast_rays(raster, [isol]).pairs() == ()
    store = cast_rays(raster, [isol, _isol(2, (2, 0))])
    assert store.link_stats(1, 2) == (1, 1)


@settings(max_examples=200, deadline=None)
@given(label_rasters() | synth_rasters, max_rays, st.booleans())
@example(LabeledRaster.from_array([[1, 0, 1, 0, 2]]), None, False)  # back to own label
@example(LabeledRaster.from_array([[1], [0], [0], [2]]), 1, False)  # capped below the gap
@example(LabeledRaster.from_array([[0, 0, 5], [0, 0, 0], [70000, 0, 0]]), None, True)
def test_cast_rays_matches_pixel_walk_oracle(raster, max_ray, reverse):
    _assert_cast_rays_matches_walk(raster, max_ray, reverse)


@settings(max_examples=100, deadline=None)
@given(mosaic_rasters, max_rays, st.booleans())
@example(mosaic(0, n_cells=40, size=48, valley=1), None, False)
# Not square: the sort keys of cast_rays mix width and height.
@example(LabeledRaster.from_array(mosaic(0, 40, 48, 1).labels[:12]), None, False)
@example(LabeledRaster.from_array(mosaic(0, 40, 48, 1).labels[:, :12]), None, True)
@example(LabeledRaster.from_array(mosaic(1, 40, 48, 2).labels[5:9, 3:45]), 2, False)
def test_cast_rays_matches_pixel_walk_oracle_on_mosaics(raster, max_ray, reverse):
    # Canopy-shaped: mostly 0-2 px rays, length 0 at valley corners.
    _assert_cast_rays_matches_walk(raster, max_ray, reverse)


def _assert_cast_rays_matches_walk(raster, max_ray, reverse):
    # Segments are cast in the order given, which need not be by id.  The
    # oracle's links are raw lists, so no store code is on its side.
    isols = extract_isols(raster)[:: -1 if reverse else 1]
    got = cast_rays(raster, isols, max_ray=max_ray)
    want = walk_links(raster, isols, max_ray=max_ray)
    assert got.pairs() == tuple(sorted(want))
    for pair in got.pairs():
        links = got.links_between(*pair)
        assert links == tuple(want[pair])
        assert got.pair_union(*pair) == set(
            chain.from_iterable(link.interstitial for link in want[pair])
        )
        assert got.link_stats(*pair) == (
            len(want[pair]), sum(link.length for link in want[pair])
        )
        for link in links:
            assert type(link.target_isol) is int
            assert all(type(v) is int for px in link.interstitial for v in px)
        assert all(type(v) is int for px in got.pair_union(*pair) for v in px)


@settings(max_examples=200, deadline=None)
@given(label_rasters(), max_rays)
@example(LabeledRaster.from_array([[1, 2]]), None)  # touching: an empty mask
@example(LabeledRaster.from_array([[0, 1, 0]]), None)  # no links at all
@example(LabeledRaster.from_array([[1, 0, 0, 2, 0, 3, 0, 1]]), None)  # 1xN
@example(LabeledRaster.from_array([[1], [0], [0], [2], [0], [3], [0], [1]]), 2)  # Nx1
@example(LabeledRaster.from_array([[1, 0, 2], [0, 0, 0], [3, 0, 4]]), None)  # row 0, column 0
def test_flat_pair_unions_match_pair_union_and_link_stats(raster, max_ray):
    # pair_union decodes these same masks, so they are checked against
    # the union of the links' own interstitial pixels instead.
    store = cast_rays(raster, extract_isols(raster), max_ray=max_ray)
    span, ranked, masks = store._masks
    assert list(masks) == list(store.pairs())
    # Ranks are row-major: the flat indices ascend, each one pixel.
    assert ranked.tolist() == sorted(set(ranked.tolist()))
    pixels = [(x, y) for y, x in (divmod(flat, span) for flat in ranked.tolist())]
    assert all(0 <= x < span for x, _ in pixels)
    footprint = set()
    for pair, ((bits, low, count), link_count, length_sum) in masks.items():
        assert all(type(v) is int for v in (bits, low, count))
        assert count == bits.bit_count()
        # The offset is the lowest rank, so bit 0 is set unless empty.
        assert bits & 1 if count else (bits, low) == (0, 0)
        decoded = {pixels[low + i] for i in range(bits.bit_length()) if bits >> i & 1}
        assert decoded == raw_union(store, {pair[0]}, {pair[1]})[0] == store.pair_union(*pair)
        assert (link_count, length_sum) == store.link_stats(*pair)
        footprint |= decoded
    assert footprint == set(pixels)


def test_flat_pair_unions_of_touching_pair_are_empty_but_linked():
    store = scene([[1, 2]]).store
    span, ranked, masks = store._masks
    assert ranked.tolist() == []
    assert masks == {(1, 2): ((0, 0, 0), 2, 0)}
    assert store.pair_union(1, 2) == set()


def test_flat_pair_unions_span_covers_far_ends():
    # Cast rays always come in mirrored pairs; a store built by hand need
    # not, so the span must bound the far end of a one-way link too.
    store = LinkStore({(1, 2): [ConnectiveLink(1, 2, "SE", (0, 0), 3)]})
    span, ranked, masks = store._masks
    assert (span, ranked.tolist()) == (4, [5, 10, 15])
    assert masks == {(1, 2): ((0b111, 0, 3), 1, 3)}


def test_flat_pair_unions_offset_masks_by_lowest_rank():
    # Ranks 0..5 are the pixels (1..3, 1) and (1..3, 3) in row-major
    # order; pair (1, 2) covers the first row and pair (2, 3) the second,
    # so its mask starts at rank 3.
    store = LinkStore({
        (1, 2): [ConnectiveLink(1, 2, "E", (0, 1), 3)],
        (2, 3): [ConnectiveLink(3, 2, "E", (0, 3), 3), ConnectiveLink(2, 3, "W", (4, 3), 2)],
    })
    span, ranked, masks = store._masks
    assert (span, ranked.tolist()) == (5, [6, 7, 8, 16, 17, 18])
    assert masks == {(1, 2): ((0b111, 0, 3), 1, 3), (2, 3): ((0b111, 3, 3), 2, 5)}
    assert store.pair_union(2, 3) == {(1, 3), (2, 3), (3, 3)}


@pytest.mark.parametrize(
    "link, message",
    [
        (ConnectiveLink(1, 2, "W", (0, 0), 1), "non-negative"),
        (ConnectiveLink(1, 2, "E", (2**40, 2**40), 1), "overflow int64"),
        (ConnectiveLink(1, 2, "N", (3, 5), 6), "non-negative"),
        (ConnectiveLink(1, 2, "E", (2**63 - 1, 0), 1), "far ends must fit in int64"),
        (ConnectiveLink(1, 2, "SE", (0, 2**63 - 2), 2), "far ends must fit in int64"),
    ],
)
def test_flat_pair_unions_reject_unkeyable_pixels(link, message):
    # Pixels off the raster's quadrant would collide as flat indices, far
    # ends past int64 would wrap, and too wide a bounding box would
    # overflow the pair-major keys.  Every union reader says so, again on
    # a second call: a failed build of the mask table keeps nothing.
    store = LinkStore({(1, 2): [link]})
    readers = (
        lambda: store._masks,
        lambda: store.pair_union(1, 2),
        lambda: pair_distance(store, 1, 2),
        lambda: group_distance(store, {2}, {1}),
    )
    for read in readers * 2:
        with pytest.raises(ValueError, match=message):
            read()
    # Unlinked queries answer without building the table.
    assert pair_distance(store, 1, 3) == group_distance(store, {1}, {3}) == NO_CONNECTION
    assert "_masks" not in store.__dict__


def test_footprint_pass_runs_once_per_store(monkeypatch):
    # agglomerate and every union reader share one mask table, so the
    # vectorised pass over the ray table runs once, however often they read.
    calls = []
    footprint_pass = LinkStore._footprint_pass
    monkeypatch.setattr(
        LinkStore, "_footprint_pass", lambda self: calls.append(1) or footprint_pass(self)
    )
    bundle = build_bundle(mosaic(0, n_cells=40, size=48, valley=1))
    store, isols = bundle.store, bundle.isols
    assert len(store) > 100 and bundle.hierarchy.merge_node_ids()
    for a, b in store.pairs():
        assert len(store.pair_union(a, b)) == pair_distance(store, a, b)
        assert group_distance(store, {a}, {b}) == pair_distance(store, b, a)
    assert group_distance(store, [isols[0].id], [isol.id for isol in isols[1:]]) > 0
    assert len(calls) == 1


@settings(max_examples=150, deadline=None)
@given(label_rasters() | synth_rasters | mosaic_rasters, max_rays, st.data())
@example(mosaic(0, n_cells=40, size=48, valley=1), None, None)
@example(LabeledRaster.from_array([[1, 2]]), None, None)  # touching: distance 0
@example(LabeledRaster.from_array([[1, 0, 2, 0, 0, 3]]), 1, None)  # 1-3 unlinked
def test_distances_match_raw_union_oracle(raster, max_ray, data):
    bundle = build_bundle(raster, max_ray=max_ray)
    store = bundle.store
    ids = [isol.id for isol in bundle.isols]
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            union, linked = raw_union(store, {a}, {b})
            want = len(union) if linked else NO_CONNECTION
            assert pair_distance(store, a, b) == pair_distance(store, b, a) == want
    if len(ids) < 2:
        return
    if data is None:
        groups = [ids[:1], ids[-1:]]
    else:
        order = data.draw(st.permutations(ids))
        cut = data.draw(st.integers(1, len(ids) - 1))
        groups = [order[:cut], order[cut:data.draw(st.integers(cut + 1, len(ids)))]]
    union, linked = raw_union(store, *groups)
    want = len(union) if linked else NO_CONNECTION
    assert group_distance(store, *groups) == group_distance(store, *groups[::-1]) == want


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


@pytest.mark.parametrize(
    "link, field",
    [
        (ConnectiveLink(2**63, 1, "E", (0, 0), 1), "origin_isol"),
        (ConnectiveLink(1, -(2**63) - 1, "E", (0, 0), 1), "target_isol"),
        (ConnectiveLink(1, 2, "E", (2**63, 0), 1), "origin_x"),
        (ConnectiveLink(1, 2, "E", (0, -(2**63) - 1), 1), "origin_y"),
        (ConnectiveLink(1, 2, "E", (0, 0), 2**63), "length"),
    ],
)
def test_store_rejects_fields_beyond_int64(link, field):
    pair = tuple(sorted((link.origin_isol, link.target_isol)))
    with pytest.raises(ValueError, match=f"link {field} does not fit in int64"):
        LinkStore({pair: [link]})


@pytest.mark.parametrize(
    "row, message",
    [
        ((3, 3, 2, 0, 0, 1), "link 3 joins a segment to itself"),
        ((1, 2, 8, 0, 0, 1), "unknown direction index 8"),
        ((1, 2, -1, 0, 0, 1), "unknown direction index -1"),
        ((2, 1, 2, 0, 0, -4), "negative length -4"),
    ],
)
def test_ray_table_checks(row, message):
    # cast_rays hands its rays over as a table; they are checked there.
    table = np.array([(1, 2, 2, 0, 0, 1), row], dtype=np.int64)
    with pytest.raises(ValueError, match=message):
        LinkStore._from_table(table)


int64s = st.integers(-(2**63), 2**63 - 1)


@st.composite
def links_by_pair(draw) -> dict[tuple[int, int], list[ConnectiveLink]]:
    """Hand-built stores: int64 ids, both orientations, every direction."""
    ids = draw(st.lists(int64s, min_size=2, max_size=6, unique=True))
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids))
            .filter(lambda ab: ab[0] < ab[1]),
            unique=True,
            max_size=6,
        )
    )
    mapping = {}
    for a, b in pairs:
        mapping[(a, b)] = draw(
            st.lists(
                st.builds(
                    lambda ends, direction, pixel, length: ConnectiveLink(
                        *ends, direction, pixel, length
                    ),
                    st.sampled_from([(a, b), (b, a)]),
                    st.sampled_from([name for name, _, _ in DIRECTIONS]),
                    st.tuples(int64s, int64s),
                    st.integers(0, 2**63 - 1) | st.integers(0, 3),
                ),
                min_size=1,
                max_size=5,
            )
        )
    return mapping


@settings(max_examples=200, deadline=None)
@given(links_by_pair(), int64s, int64s)
def test_hand_built_store_round_trips(mapping, x, y):
    store = LinkStore(mapping)
    assert store.pairs() == tuple(sorted(mapping)) and len(store) == len(mapping)
    for (a, b), links in mapping.items():
        for got in (store.links_between(a, b), store.links_between(b, a)):
            assert got == tuple(links)
            for link in got:
                fields = (link.origin_isol, link.target_isol, *link.origin_pixel, link.length)
                assert all(type(v) is int for v in fields)
        count, total = store.link_stats(a, b)
        assert (count, total) == (len(links), sum(link.length for link in links))
        assert type(count) is int and type(total) is int
    if x != y and (min(x, y), max(x, y)) not in mapping:
        assert not store.has_links(x, y)
        assert store.links_between(x, y) == ()
        assert store.link_stats(x, y) == (0, 0)


def test_dump_links_csv(quad):
    out = io.StringIO()
    dump_links_csv(quad.store, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "origin_isol,target_isol,direction,origin_x,origin_y,length"
    raster = LabeledRaster.from_array(QUAD_GRID)
    walked = walk_links(raster, extract_isols(raster))
    want = [
        [str(v) for v in (
            link.origin_isol, link.target_isol, link.direction, *link.origin_pixel, link.length
        )]
        for pair in sorted(walked)
        for link in walked[pair]
    ]
    assert list(csv.reader(lines[1:])) == want


def _csv_writer_bytes(table: np.ndarray) -> bytes:
    """What ``csv.writer`` writes for the header and the ray-table rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["origin_isol", "target_isol", "direction", "origin_x", "origin_y", "length"])
    writer.writerows(
        (origin, target, DIRECTIONS[d][0], x, y, n) for origin, target, d, x, y, n in table.tolist()
    )
    return out.getvalue().encode("ascii")


def _dumped(store: LinkStore) -> bytes:
    """What ``dump_links_csv`` writes for the store."""
    out = io.StringIO()
    dump_links_csv(store, out)
    return out.getvalue().encode("ascii")


#: Around the four-digit word edges, the int64 ends and their neighbours.
word_edges = st.sampled_from(
    [0, 1, 9, 10, 999, 1000, 9999, 10000, 10001, 99999999, 10**8, 10**12 + 39, 10**16,
     10**18, 2**63 - 1, -1, -9, -9999, -10000, -(10**16), -(2**63) + 1, -(2**63)]
)
csv_values = int64s | word_edges | st.integers(-(10**5), 10**5)


@st.composite
def ray_tables(draw) -> np.ndarray:
    """Ray tables of any int64 values the store accepts: distinct ends,
    every direction index, non-negative lengths."""
    rows = draw(
        st.lists(
            st.tuples(
                csv_values,
                csv_values,
                st.integers(0, len(DIRECTIONS) - 1),
                csv_values,
                csv_values,
                csv_values.map(lambda n: n if n >= 0 else -(n + 1)),
            ).filter(lambda row: row[0] != row[1]),
            max_size=40,
        )
    )
    return np.array(rows, dtype=np.int64).reshape(-1, 6)


@settings(max_examples=300, deadline=None)
@given(ray_tables(), st.sampled_from([48, 96, 65536]))
@example(np.array([(1, 2, d, 0, 0, 0) for d in range(8)]), 65536)
@example(np.array([(-(2**63), 2**63 - 1, 7, -(2**63), 2**63 - 1, 2**63 - 1)]), 48)
def test_dump_links_csv_matches_csv_writer(table, block):
    # Blocks of one and two rows make neighbouring rows differ in digit
    # words and signs.
    store = LinkStore._from_table(table)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(raster_io, "_BLOCK", block)
        assert _dumped(store) == _csv_writer_bytes(store._table)


def test_dump_links_csv_of_empty_store_is_its_header():
    assert _dumped(LinkStore({})) == b"origin_isol,target_isol,direction,origin_x,origin_y,length\n"


def test_dump_links_csv_writes_negative_fields():
    store = LinkStore({
        (-10000, -5): [
            ConnectiveLink(-5, -10000, "SW", (-3, -10001), 2),
            ConnectiveLink(-10000, -5, "N", (7, 0), 0),
        ],
        (-5, 3): [ConnectiveLink(3, -5, "NE", (-(2**63), 2**63 - 1), 12)],
    })
    assert _dumped(store) == (
        b"origin_isol,target_isol,direction,origin_x,origin_y,length\n"
        b"-5,-10000,SW,-3,-10001,2\n"
        b"-10000,-5,N,7,0,0\n"
        b"3,-5,NE,-9223372036854775808,9223372036854775807,12\n"
    )
    assert _dumped(store) == _csv_writer_bytes(store._table)


def test_dump_links_csv_allocates_little_beside_its_output():
    # The rows are formatted a block at a time, so the dump peaks at a
    # small multiple of the text it writes.
    scene = generate_random(42, 1000, size=256)
    store = cast_rays(scene.raster, extract_isols(scene.raster))
    out = io.StringIO()
    tracemalloc.start()
    try:
        dump_links_csv(store, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = len(out.getvalue())
    assert size > 300_000 and peak <= 4 * size
