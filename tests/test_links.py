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
    Isol,
    LabeledRaster,
    LinkStore,
    agglomerate,
    cast_rays,
    extract_isols,
    generate_random,
    group_distance,
    pair_distance,
)
from crownmerge import raster_io
from crownmerge.links import _COLUMNS, dump_links_csv

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
from oracles import link_table, ray_pixels, raw_union, walk_links


def scene(rows):
    return build_bundle(LabeledRaster.from_array(rows))


def _link_stats(store: LinkStore, a: int, b: int) -> tuple[int, int]:
    """(link count, summed link length) of a pair, read off its rows."""
    rows = store.links_between(a, b)
    return len(rows), sum(rows[:, _COLUMNS.index("length")].tolist())


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
    assert quad.store.links_between(2, 4).shape == (0, 6)


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
    assert _link_stats(quad.store, 1, 4) == (4, 4)
    assert _link_stats(quad.store, 2, 3) == (2, 4)
    assert _link_stats(quad.store, 3, 4) == (2, 6)
    assert _link_stats(quad.store, 1, 2) == (4, 16)
    assert _link_stats(quad.store, 1, 3) == (4, 12)
    assert _link_stats(quad.store, 2, 4) == (0, 0)


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
    assert _link_stats(store, 1, 3) == (4, 12)


def test_quad_both_endpoints_cast(quad):
    origins = {origin for origin, *_ in quad.store.links_between(1, 4).tolist()}
    assert origins == {1, 4}


def test_quad_interstitial_is_background(quad):
    # Every recorded interstitial pixel must be label 0 in the scene.
    for pair in quad.store.pairs():
        for row in quad.store.links_between(*pair):
            for x, y in ray_pixels(row):
                assert QUAD_GRID[y][x] == 0


def test_one_link_per_origin_pixel_and_direction(quad):
    seen = set()
    for pair in quad.store.pairs():
        for origin, _, direction, x, y, _ in quad.store.links_between(*pair).tolist():
            key = (origin, (x, y), direction)
            assert key not in seen
            seen.add(key)


# ---------------------------------------------------------------------------
# small hand scenes
# ---------------------------------------------------------------------------


def test_touching_segments_distance_zero():
    bundle = scene([[1, 2]])
    assert bundle.store.pairs() == ((1, 2),)
    assert pair_distance(bundle.store, 1, 2) == 0
    assert all(length == 0 for *_, length in bundle.store.links_between(1, 2).tolist())


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
    (link,) = [row for row in bundle.store.links_between(1, 2).tolist() if row[0] == 1]
    assert DIRECTIONS[link[2]][0] == "SE"
    assert ray_pixels(link) == ((1, 1),)


def test_rays_leaving_raster_make_no_links():
    bundle = scene([[0, 1, 0]])
    assert bundle.store.pairs() == ()
    assert pair_distance(bundle.store, 1, 1) == NO_CONNECTION


def test_max_ray_caps_interstitial_length():
    rows = [[1, 0, 0, 0, 0, 2]]
    raster = LabeledRaster.from_array(rows)
    isols = extract_isols(raster)
    assert cast_rays(raster, isols, max_ray=3).pairs() == ()
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
        ([[1, 0, 2]], _isol(1, (2**63 - 1, 0)), (2**63 - 1, 0)),  # int64 edges
        ([[1, 0, 2]], _isol(2, (2, 0), (0, -(2**63))), (0, -(2**63))),
        ([[1, 0, 2]], _isol(2, (5, 0), (2**62, 0)), (5, 0)),  # first stray
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


@pytest.mark.parametrize("isol_id", [3, 2**63 - 1])
def test_cast_rays_casts_nothing_from_isols_without_edge_pixels(isol_id):
    # With no edge pixel there is no origin to check, even for an id that
    # labels no pixel; the other segments' rays are cast as usual.
    raster = LabeledRaster.from_array([[1, 0, 2]])
    isol = Isol(isol_id, frozenset({(0, 0)}), frozenset())
    assert cast_rays(raster, [isol]).pairs() == ()
    store = cast_rays(raster, [isol, _isol(2, (2, 0))])
    assert _link_stats(store, 1, 2) == (1, 1)


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
        rows = got.links_between(*pair)
        assert rows.dtype == np.int64 and not rows.flags.writeable
        assert rows.tolist() == [list(row) for row, _ in want[pair]]
        assert got.pair_union(*pair) == set(chain.from_iterable(path for _, path in want[pair]))
        assert _link_stats(got, *pair) == (len(want[pair]), sum(row[5] for row, _ in want[pair]))
        assert all(type(v) is int for px in got.pair_union(*pair) for v in px)


@pytest.mark.parametrize(
    "link, message",
    [
        ((1, 2, "W", 0, 0, 1), "non-negative"),
        ((1, 2, "E", 2**40, 2**40, 1), "overflow int64"),
        ((1, 2, "N", 3, 5, 6), "non-negative"),
        ((1, 2, "E", 2**63 - 1, 0, 1), "far ends must fit in int64"),
        ((1, 2, "SE", 0, 2**63 - 2, 2), "far ends must fit in int64"),
    ],
)
def test_flat_pair_unions_reject_unkeyable_pixels(link, message):
    # Pixels off the quadrant would collide as flat indices and far ends
    # past int64 would wrap: the store refuses both when it is built.  Too
    # wide a bounding box overflows the pair-major keys of agglomerate's
    # masks, which depends on the pair count, so agglomerate says so, again
    # on a second call, while the distance readers still answer.
    if message != "overflow int64":
        with pytest.raises(ValueError, match=message):
            LinkStore(link_table(link))
        return
    store = LinkStore(link_table(link))
    isols = [Isol(i, [], []) for i in (1, 2, 3)]
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            agglomerate(isols, store)
    want = set(ray_pixels(store.links_between(1, 2)[0]))
    assert store.pair_union(1, 2) == store.pair_union(2, 1) == want
    assert pair_distance(store, 1, 2) == group_distance(store, {2}, {1}) == len(want)
    assert pair_distance(store, 1, 3) == group_distance(store, {1}, {3}) == NO_CONNECTION
    assert sorted(vars(store)) == ["_rows", "_table"]


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


def test_store_rejects_unknown_direction():
    # The index is compared as it is, so even the largest int64 is named.
    table = np.array([(1, 2, 2, 0, 0, 1), (2, 1, 2**63 - 1, 0, 0, 1)], dtype=np.int64)
    with pytest.raises(ValueError, match=f"unknown direction index {2**63 - 1}"):
        LinkStore(table)


def test_store_rejects_negative_length():
    with pytest.raises(ValueError, match="negative length -1"):
        LinkStore(link_table((1, 2, "E", 0, 0, -1)))


@pytest.mark.parametrize(
    "link, field",
    [
        ((2**63, 1, 2, 0, 0, 1), "origin_isol"),
        ((1, -(2**63) - 1, 2, 0, 0, 1), "target_isol"),
        ((1, 2, 2, 2**63, 0, 1), "origin_x"),
        ((1, 2, 2, 0, -(2**63) - 1, 1), "origin_y"),
        ((1, 2, 2, 0, 0, 2**63), "length"),
    ],
)
def test_store_rejects_fields_beyond_int64(link, field):
    # A field past int64 comes in a table of another dtype, here uint64 or
    # object; the store takes int64 tables only, so nothing wraps.
    table = np.array([link], dtype=np.uint64 if min(link) >= 0 else object)
    value = link[_COLUMNS.index(field)]
    assert table[0, _COLUMNS.index(field)] == value and not -(2**63) <= value < 2**63
    with pytest.raises(ValueError, match=f"link table must be int64, got {table.dtype}"):
        LinkStore(table)


@pytest.mark.parametrize(
    "table, message",
    [
        (np.zeros(6, dtype=np.int64), r"shape \(n, 6\) .*; got shape \(6,\)"),
        (np.zeros((1, 1, 6), dtype=np.int64), r"got shape \(1, 1, 6\)"),
        (np.zeros((2, 5), dtype=np.int64), r"got shape \(2, 5\)"),
        (np.zeros((0, 7), dtype=np.int64), r"got shape \(0, 7\)"),
        (np.array([(1.0, 2.0, 2.0, 0.0, 0.0, 1.5)]), "must be int64, got float64"),
        (np.zeros((0, 6), dtype=np.int32), "must be int64, got int32"),
        ([], r"got shape \(0,\)"),
    ],
)
def test_store_rejects_tables_of_other_shapes_or_dtypes(table, message):
    with pytest.raises(ValueError, match=message):
        LinkStore(table)


@pytest.mark.parametrize(
    "row, message",
    [
        ((3, 3, 2, 0, 0, 1), "link 3 joins a segment to itself"),
        ((1, 2, 8, 0, 0, 1), "unknown direction index 8"),
        ((1, 2, -1, 0, 0, 1), "unknown direction index -1"),
        ((2, 1, 2, 0, 0, -4), "negative length -4"),
        ((0, 2, 2, 0, 0, 1), "non-positive segment id 0"),
        # Ids and origins that no raster has.
        ((-5, -10000, 5, -3, -10001, 2), "non-positive segment id -10000"),
        ((-10000, -5, 0, 7, 0, 0), "non-positive segment id -10000"),
        ((3, -5, 1, -(2**63), 2**63 - 1, 12), "non-positive segment id -5"),
        ((3, 5, 1, -(2**63), 2**63 - 1, 12), "link pixels must have non-negative coordinates"),
        ((5, 3, 1, 2**63 - 12, 2**63 - 1, 12), "link far ends must fit in int64"),
    ],
)
def test_ray_table_checks(row, message):
    # cast_rays hands its rays over as a table; the constructor checks it.
    table = np.array([(1, 2, 2, 0, 0, 1), row], dtype=np.int64)
    with pytest.raises(ValueError, match=message):
        LinkStore(table)


#: The largest int64, which is the largest label and coordinate.
TOP = 2**63 - 1

int64s = st.integers(-TOP - 1, TOP)

#: Around the four-digit word edges, the int64 ends and their neighbours.
word_edges = st.sampled_from(
    [0, 1, 9, 10, 999, 1000, 9999, 10000, 10001, 99999999, 10**8, 10**12 + 39, 10**16,
     10**18, TOP, -1, -9, -9999, -10000, -(10**16), -TOP, -TOP - 1]
)

#: Non-negative values: each negative one ``v`` becomes ``-(v + 1)``, so
#: the word edges keep 0 and TOP.
csv_values = (int64s | word_edges | st.integers(-(10**5), 10**5)).map(
    lambda v: v if v >= 0 else -(v + 1)
)


def in_quadrant(row: tuple) -> tuple:
    """``row`` with its length cut to the longest that keeps every pixel
    of its ray in 0..TOP, for an origin there."""
    origin, target, d, x, y, length = row
    _, dx, dy = DIRECTIONS[d]
    reach = min(v if step < 0 else TOP - v for v, step in ((x, dx), (y, dy)) if step)
    return origin, target, d, x, y, min(length, reach)


#: Rows the store accepts: distinct positive ids, every direction index,
#: origins in the quadrant and lengths that keep each ray there, often
#: reaching 0 or TOP.
ray_rows = st.tuples(
    csv_values.map(lambda v: max(v, 1)),
    csv_values.map(lambda v: max(v, 1)),
    st.integers(0, len(DIRECTIONS) - 1),
    csv_values,
    csv_values,
    csv_values,
).filter(lambda row: row[0] != row[1]).map(in_quadrant)


@st.composite
def hand_tables(draw) -> np.ndarray:
    """Hand-built ray tables: a few positive int64 ids, so that pairs
    repeat in both orientations, every direction, origins anywhere in the
    quadrant and any length that keeps the ray there."""
    ids = draw(st.lists(st.integers(1, TOP), min_size=2, max_size=6, unique=True))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ids),
                st.sampled_from(ids),
                st.integers(0, len(DIRECTIONS) - 1),
                st.integers(0, TOP),
                st.integers(0, TOP),
                st.integers(0, TOP) | st.integers(0, 3),
            ).filter(lambda row: row[0] != row[1]).map(in_quadrant),
            max_size=30,
        )
    )
    return np.array(rows, dtype=np.int64).reshape(-1, 6)


def accepted(row) -> bool:
    """Whether a ray-table row is one a raster can have: distinct positive
    ids, a known direction, a length of at least 0, and the origin and
    every pixel of ``ray_pixels`` in 0..TOP."""
    origin, target, d, x, y, length = row
    if origin == target or min(origin, target) < 1 or not 0 <= d < len(DIRECTIONS) or length < 0:
        return False
    if length > 64:
        # Too many pixels to list, but each coordinate moves one way, so
        # the far end, the pixel of the ray's last step, stands for them.
        _, dx, dy = DIRECTIONS[d]
        row = (origin, target, d, x + dx * (length - 1), y + dy * (length - 1), 1)
    return all(0 <= v <= TOP for pixel in [(x, y), *ray_pixels(row)] for v in pixel)


#: Any int64, with the values near each boundary the store checks drawn often.
any_fields = int64s | word_edges | st.integers(-2, 12)

#: Rows with any fields, accepted rows, and accepted rows one pixel longer,
#: which reach one past 0 or TOP when the row reached it.
any_rows = (
    st.tuples(
        any_fields, any_fields, st.integers(-1, 8) | int64s, any_fields, any_fields, any_fields
    )
    | ray_rows
    | ray_rows.map(lambda row: (*row[:5], min(row[5] + 1, TOP)))
)


@settings(max_examples=500, deadline=None)
@given(st.lists(any_rows, min_size=1, max_size=3))
@example([(1, 2, 6, 5, 0, 5)])  # west to x = 0
@example([(1, 2, 6, 5, 0, 6)])  # one past it
@example([(TOP, 1, 2, TOP - 1, 0, 1)])  # east to x = TOP
@example([(TOP, 1, 2, TOP - 1, 0, 2)])
@example([(1, 2, 3, TOP, TOP, 0)])  # a touching link at the corner
@example([(1, 2, 0, 3, 5, 5), (0, 2, 0, 3, 5, 5)])  # north to y = 0; id 0
def test_store_accepts_exactly_the_rows_a_raster_can_have(rows):
    table = np.array(rows, dtype=np.int64)
    if all(map(accepted, rows)):
        assert LinkStore(table).pairs() == tuple(sorted({(min(r[:2]), max(r[:2])) for r in rows}))
    else:
        with pytest.raises(ValueError):
            LinkStore(table)


@settings(max_examples=100, deadline=None)
@given(label_rasters() | synth_rasters | mosaic_rasters, max_rays)
def test_cast_tables_hold_only_rows_a_raster_can_have(raster, max_ray):
    store = cast_rays(raster, extract_isols(raster), max_ray=max_ray)
    assert all(map(accepted, store._table.tolist()))


@settings(max_examples=200, deadline=None)
@given(hand_tables(), int64s, int64s)
def test_hand_built_store_round_trips(table, x, y):
    store = LinkStore(table)
    given_rows: dict[tuple[int, int], list] = {}
    for row in table.tolist():
        given_rows.setdefault((min(row[:2]), max(row[:2])), []).append(row)
    assert store.pairs() == tuple(sorted(given_rows))
    # The store keeps its own copy: the caller's table may change.
    table[:] = 0
    for (a, b), rows in given_rows.items():
        for got in (store.links_between(a, b), store.links_between(b, a)):
            assert got.tolist() == rows
            assert got.dtype == np.int64 and not got.flags.writeable
    if x != y and (min(x, y), max(x, y)) not in given_rows:
        got = store.links_between(x, y)
        assert got.shape == (0, 6) and got.dtype == np.int64 and not got.flags.writeable


def test_dump_links_csv(quad):
    out = io.StringIO()
    dump_links_csv(quad.store, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "origin_isol,target_isol,direction,origin_x,origin_y,length"
    raster = LabeledRaster.from_array(QUAD_GRID)
    walked = walk_links(raster, extract_isols(raster))
    want = [
        [str(v) for v in (origin, target, DIRECTIONS[d][0], x, y, n)]
        for pair in sorted(walked)
        for (origin, target, d, x, y, n), _ in walked[pair]
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


#: Ray tables the store accepts.
ray_tables = st.lists(ray_rows, max_size=40).map(
    lambda rows: np.array(rows, dtype=np.int64).reshape(-1, 6)
)


@settings(max_examples=300, deadline=None)
@given(ray_tables, st.sampled_from([48, 96, 65536]))
@example(np.array([(1, 2, d, 0, 0, 0) for d in range(8)]), 65536)
@example(np.array([(1, TOP, 7, TOP, TOP, TOP), (TOP, 1, 3, 0, 0, TOP)]), 48)
def test_dump_links_csv_matches_csv_writer(table, block):
    # Blocks of one and two rows make neighbouring rows differ in digit
    # words.
    store = LinkStore(table)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(raster_io, "_BLOCK", block)
        assert _dumped(store) == _csv_writer_bytes(store._table)


def test_dump_links_csv_of_empty_store_is_its_header():
    header = b"origin_isol,target_isol,direction,origin_x,origin_y,length\n"
    assert _dumped(LinkStore(link_table())) == header


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
