"""Agglomeration order, node identities, and forest structure."""

from __future__ import annotations

from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crownmerge import (
    DIRECTIONS,
    Hierarchy,
    HierarchyNode,
    Isol,
    LabeledRaster,
    LinkStore,
    agglomerate,
    by_id,
    cast_rays,
    extract_isols,
    generate_random,
    group_distance,
    group_pixels,
    hierarchy_records,
    pair_distance,
)
from crownmerge.hac import _EMPTY, _pair_masks, _unite

from conftest import (
    build_bundle,
    label_rasters,
    max_rays,
    mosaic,
    mosaic_rasters,
    random_bundles,
)
from oracles import (
    brute_force_a_cumulative,
    brute_force_merge_params,
    brute_force_merge_sequence,
    link_table,
    merge_sequence_of,
    ray_pixels,
    raw_union,
    walk_rays,
)


# The quad scene merges:  iteration 1 joins {1} and {4} (distance 2, the
# tie against {2},{3} resolves to the smaller member pair), iteration 2
# joins {2} and {3} (distance 2), iteration 3 joins everything at 15.


def test_quad_singleton_numbering(quad):
    h = quad.hierarchy
    assert h.singleton_count() == 4
    assert h.singleton_node_ids() == (0, 1, 2, 3)
    for node_id, isol_id in enumerate([1, 2, 3, 4]):
        assert h.singleton_node_id(isol_id) == node_id
        assert h.node(node_id).members == {isol_id}
        assert h.node(node_id).is_singleton


def test_quad_merge_sequence(quad):
    h = quad.hierarchy
    assert len(h) == 7  # 2M-1 on a connected scene
    assert h.merge_node_ids() == (4, 5, 6)

    first = h.node(4)
    assert first.members == {1, 4}
    assert first.merge_distance == 2
    assert first.merge_iteration == 1
    assert first.ancestors == (0, 3)

    second = h.node(5)
    assert second.members == {2, 3}
    assert second.merge_distance == 2
    assert second.merge_iteration == 2

    root = h.node(6)
    assert root.members == {1, 2, 3, 4}
    assert root.merge_distance == 15
    assert root.ancestors == (4, 5)
    assert h.roots == (6,)


def test_quad_distance_tie_prefers_smaller_member_pair(quad):
    # Both candidate first merges sit at distance 2; {1},{4} must win
    # because (1, 4) < (2, 3).
    assert quad.hierarchy.node(4).members == {1, 4}


def test_quad_successor_wiring(quad):
    h = quad.hierarchy
    assert [h.node(i).successor for i in range(7)] == [4, 5, 5, 4, 6, 6, None]


def test_path_and_successor_stepping(quad):
    h = quad.hierarchy
    assert h.path_from(0) == [0, 4, 6]
    assert h.path_from(1) == [1, 5, 6]
    assert h.path_from(6) == [6]
    assert h.successor(0, k=0) == 0
    assert h.successor(0, k=2) == 6
    assert h.successor(0, k=3) is None
    with pytest.raises(ValueError, match="non-negative"):
        h.successor(0, k=-1)


def test_ancestors_all(quad):
    h = quad.hierarchy
    assert h.ancestors_all(4) == {4, 0, 3}
    assert h.ancestors_all(6) == set(range(7))
    assert h.ancestors_all(2) == {2}


def test_members_partition_at_every_merge(quad):
    h = quad.hierarchy
    for node_id in h.merge_node_ids():
        node = h.node(node_id)
        left, right = node.ancestors
        assert h.node(left).members | h.node(right).members == node.members
        assert not h.node(left).members & h.node(right).members
        assert h.node(left).successor == node_id
        assert h.node(right).successor == node_id


def test_disconnected_scene_builds_forest():
    # Two linked pairs with nothing between them: all connecting rays
    # either exit the raster or run past the other component's rows.
    rows = [[0] * 13 for _ in range(6)]
    rows[0][0], rows[0][2] = 1, 2
    rows[5][10], rows[5][12] = 3, 4
    bundle = build_bundle(LabeledRaster.from_array(rows))
    h = bundle.hierarchy
    assert len(h) == 6
    assert h.merge_node_ids() == (4, 5)
    assert h.node(4).members == {1, 2}
    assert h.node(5).members == {3, 4}
    assert set(h.roots) == {4, 5}
    assert h.path_from(0) == [0, 4]
    assert h.successor(0, k=2) is None


def test_scene_with_no_links_stays_singletons():
    bundle = build_bundle(LabeledRaster.from_array([[0, 7, 0]]))
    h = bundle.hierarchy
    assert len(h) == 1
    assert h.merge_node_ids() == ()
    assert h.roots == (0,)


def _bare_isols(ids):
    return [Isol(id=i, pixels=frozenset(), edge_pixels=frozenset()) for i in ids]


def test_agglomerate_rejects_a_linked_segment_missing_from_isols():
    store = LinkStore(link_table((2, 9, "E", 0, 0, 1)))
    with pytest.raises(ValueError, match=r"\(2, 9\) names isol 9"):
        agglomerate(_bare_isols([1, 2]), store)


def test_agglomerate_rejects_repeated_isol_ids():
    # Two singletons with members {2} would leave one of them unmerged.
    store = LinkStore(link_table((1, 2, "E", 0, 0, 1)))
    with pytest.raises(ValueError, match="isol id 2 is given more than once"):
        agglomerate(_bare_isols([2, 1, 2]), store)


def test_group_pixels_unions_members(quad):
    isols = by_id(quad.isols)
    pixels = group_pixels(quad.hierarchy, isols, 4)
    assert pixels.dtype == np.int64 and pixels.shape == (8, 2)
    # One array of both members' pixels, ascending by (x, y).
    want = sorted(map(tuple, [*isols[1].pixels.tolist(), *isols[4].pixels.tolist()]))
    assert list(map(tuple, pixels.tolist())) == want
    assert np.array_equal(group_pixels(quad.hierarchy, isols, 0), isols[1].pixels)


def test_hierarchy_records_shape(quad):
    records = hierarchy_records(quad.hierarchy)
    assert [r["id"] for r in records] == list(range(7))
    assert records[0] == {
        "id": 0,
        "members": [1],
        "ancestors": [],
        "successor": 4,
        "merge_iteration": None,
        "merge_distance": None,
    }
    assert records[6]["members"] == [1, 2, 3, 4]
    assert records[6]["successor"] is None


def test_hierarchy_rejects_misplaced_node_ids():
    with pytest.raises(ValueError, match="position"):
        Hierarchy([HierarchyNode(id=1, members=frozenset({5}))], {5: 1})


def test_unknown_node_id_rejected(quad):
    with pytest.raises(ValueError, match="unknown node"):
        quad.hierarchy.node(99)
    with pytest.raises(ValueError, match="no singleton"):
        quad.hierarchy.singleton_node_id(42)


@settings(max_examples=60, deadline=None)
@given(random_bundles)
def test_merge_distance_never_decreases(bundle):
    h = bundle.hierarchy
    heights = [h.node(node_id).merge_distance for node_id in h.merge_node_ids()]
    assert heights == sorted(heights)


@settings(max_examples=60, deadline=None)
@given(random_bundles)
def test_merge_sequence_matches_brute_force_oracle(bundle):
    assert merge_sequence_of(bundle.hierarchy) == brute_force_merge_sequence(
        bundle.isols, bundle.store
    )


@settings(max_examples=200, deadline=None)
@given(label_rasters(), max_rays)
@example(LabeledRaster.from_array([[1, 2, 0, 3, 0, 0, 1]]), None)  # touching, then a fold
@example(LabeledRaster.from_array([[5, 0, 0, 0, 7], [0, 0, 9, 0, 0]]), 1)  # capped rays
def test_agglomerate_matches_oracles_on_raw_rasters(raster, max_ray):
    _assert_agglomerate_matches_oracles(raster, max_ray)


@settings(max_examples=50, deadline=None)
@given(mosaic_rasters, max_rays)
@example(mosaic(0, n_cells=40, size=48, valley=1), None)  # the largest, length-0 links
@example(mosaic(1, n_cells=40, size=48, valley=2), 2)
def test_agglomerate_matches_oracles_on_mosaics(raster, max_ray):
    # Canopy-shaped: short rays, heavily overlapping pair unions, many ties.
    _assert_agglomerate_matches_oracles(raster, max_ray)


def _assert_agglomerate_matches_oracles(raster, max_ray):
    # The oracles rescan links found by walking every ray, not by casting.
    bundle = build_bundle(raster, max_ray=max_ray)
    h = bundle.hierarchy
    walked = walk_rays(raster, bundle.isols, max_ray=max_ray)
    assert merge_sequence_of(h) == brute_force_merge_sequence(bundle.isols, walked)
    for node_id in h.merge_node_ids():
        node = h.node(node_id)
        assert (node.merge_distance, node.link_count, node.length_sum) == (
            brute_force_merge_params(h, walked, node_id)
        )
        assert node.a_cumulative == brute_force_a_cumulative(h, walked, node_id)


def _node_quantities(h):
    return [
        (n.merge_distance, n.link_count, n.length_sum, n.a_cumulative) for n in h.nodes()
    ]


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_agglomerate_twice_on_one_store_is_identical(seed):
    # agglomerate must leave the store as it found it: a second run on the
    # same store differs if it ever keeps or changes state there.
    scene = generate_random(seed, n_isols=16, size=48)
    isols = extract_isols(scene.raster)
    store = cast_rays(scene.raster, isols)
    first, second = agglomerate(isols, store), agglomerate(isols, store)
    assert len(first.merge_node_ids()) > 3
    assert hierarchy_records(second) == hierarchy_records(first)
    assert _node_quantities(second) == _node_quantities(first)


def test_lattice_ties_follow_smallest_member_pair():
    # A 5x5 lattice of 2x2 blocks at pitch 4: every row neighbour sits at
    # distance 4, so 20 of the 24 merges tie and only the (min member,
    # min member) key orders them.  Each row chains left to right, then
    # the five rows join at 52.
    rows = [[0] * 21 for _ in range(21)]
    for label in range(1, 26):
        top, left = 2 + 4 * ((label - 1) // 5), 2 + 4 * ((label - 1) % 5)
        for y in (top, top + 1):
            rows[y][left] = rows[y][left + 1] = label
    bundle = build_bundle(LabeledRaster.from_array(rows))
    h = bundle.hierarchy

    sequence = merge_sequence_of(h)
    assert sequence == brute_force_merge_sequence(bundle.isols, bundle.store)
    assert [distance for *_, distance in sequence] == [4] * 20 + [52] * 4
    first = [h.node(node_id) for node_id in h.merge_node_ids()[:6]]
    assert [node.ancestors for node in first] == [
        (0, 1), (2, 25), (3, 26), (4, 27), (5, 6), (7, 29)
    ]
    assert [node.members for node in first] == [
        {1, 2}, {1, 2, 3}, {1, 2, 3, 4}, {1, 2, 3, 4, 5}, {6, 7}, {6, 7, 8}
    ]
    assert h.roots == (48,)


# ---------------------------------------------------------------------------
# pixel masks
# ---------------------------------------------------------------------------


def test_crossing_rays_unite_overlapping_masks():
    # Pair (1, 2) runs east along y = 2 and pair (3, 4) south along x = 2,
    # so they cross at (2, 2): the two cumulative masks {1, 2} and {3, 4}
    # bring into their merge overlap there, and the lower one starts at
    # (2, 1).  Segment 5 reaches up column 1 to both groups; its two
    # entries overlap on (1, 4)..(1, 9) but start at (1, 2) and (1, 4),
    # so the fold unites masks at different offsets.
    store = LinkStore(link_table(
        (1, 2, "E", 0, 2, 3),
        (3, 4, "S", 2, 0, 3),
        (2, 4, "S", 4, 0, 5),
        (5, 1, "N", 1, 10, 8),
        (5, 3, "N", 1, 10, 6),
        (3, 5, "W", 5, 9, 3),
    ))
    isols = [Isol(id=i, pixels=frozenset(), edge_pixels=frozenset()) for i in range(1, 6)]
    h = agglomerate(isols, store)
    assert merge_sequence_of(h) == brute_force_merge_sequence(isols, store)
    assert [h.node(n).ancestors for n in h.merge_node_ids()] == [(0, 1), (2, 3), (5, 6), (4, 7)]
    for node_id in h.merge_node_ids():
        node = h.node(node_id)
        assert (node.merge_distance, node.link_count, node.length_sum) == (
            brute_force_merge_params(h, store, node_id)
        )
        assert node.a_cumulative == brute_force_a_cumulative(h, store, node_id)
    # 3 + 3 - 1 crossing + 5; then the column (1, 2)..(1, 9) adds 7 new
    # pixels and (2..4, 9) three more.
    assert [h.node(n).a_cumulative for n in h.merge_node_ids()] == [3, 3, 10, 20]
    assert h.node(8).merge_distance == 11


@pytest.mark.parametrize(
    "a, b, union",
    [
        ((0b1, 0, 1), (0b11, 2, 2), (0b1101, 0, 3)),  # disjoint
        ((0b111, 4, 3), (0b1011, 5, 3), (0b10111, 4, 4)),  # overlapping
        ((0b11, 1, 2), (0b111, 0, 3), (0b111, 0, 3)),  # one inside the other
        ((0b101, 4, 2), _EMPTY, (0b101, 4, 2)),  # one side empty
        (_EMPTY, _EMPTY, _EMPTY),  # both sides empty
    ],
)
@pytest.mark.parametrize("swap", [False, True])
def test_unite_shifts_to_the_lower_offset(a, b, union, swap):
    if swap:
        a, b = b, a
    got = _unite(a, b)
    assert got == union
    assert got[2] == got[0].bit_count()


def test_agglomerate_leaves_the_store_its_table_and_row_index():
    # The masks are agglomerate's own: built per call and dropped, so the
    # store keeps exactly what it was built with, and every merge distance
    # is the ray-level group distance of the two merged groups.
    raster = mosaic(0, n_cells=40, size=48, valley=1)
    isols = extract_isols(raster)
    store = cast_rays(raster, isols)
    held = dict(vars(store))
    h = agglomerate(isols, store)
    assert len(store.pairs()) > 100 and h.merge_node_ids()
    assert sorted(held) == ["_rows", "_table"]
    assert vars(store).keys() == held.keys()
    assert all(vars(store)[name] is value for name, value in held.items())
    for node_id in h.merge_node_ids():
        left, right = (h.node(n).members for n in h.node(node_id).ancestors)
        assert h.node(node_id).merge_distance == group_distance(store, left, right)
    for a, b in store.pairs():
        assert len(store.pair_union(a, b)) == pair_distance(store, a, b)
        assert group_distance(store, {a}, {b}) == pair_distance(store, b, a)


def _link_stats(store: LinkStore, a: int, b: int) -> tuple[int, int]:
    """(link count, summed link length) of a pair, read off its rows."""
    rows = store.links_between(a, b).tolist()
    return len(rows), sum(row[5] for row in rows)


def _row_major(pixels) -> list[tuple[int, int]]:
    """Pixels ascending by ``(y, x)``: the rank order of the masks."""
    return sorted(pixels, key=lambda p: (p[1], p[0]))


@settings(max_examples=200, deadline=None)
@given(label_rasters(), max_rays)
@example(LabeledRaster.from_array([[1, 2]]), None)  # touching: an empty mask
@example(LabeledRaster.from_array([[0, 1, 0]]), None)  # no links at all
@example(LabeledRaster.from_array([[1, 0, 0, 2, 0, 3, 0, 1]]), None)  # 1xN
@example(LabeledRaster.from_array([[1], [0], [0], [2], [0], [3], [0], [1]]), 2)  # Nx1
@example(LabeledRaster.from_array([[1, 0, 2], [0, 0, 0], [3, 0, 4]]), None)  # row 0, column 0
def test_flat_pair_unions_match_pair_union_and_link_stats(raster, max_ray):
    # The masks are decoded through the row-major order of every link
    # pixel and checked against the union of the links' own pixels.
    store = cast_rays(raster, extract_isols(raster), max_ray=max_ray)
    masks = _pair_masks(store)
    assert list(masks) == list(store.pairs())
    unions = {(a, b): raw_union(store, {a}, {b})[0] for a, b in store.pairs()}
    pixels = _row_major(set().union(*unions.values()))
    footprint = set()
    for pair, ((bits, low, count), link_count, length_sum) in masks.items():
        assert all(type(v) is int for v in (bits, low, count))
        assert count == bits.bit_count()
        # The offset is the lowest rank, so bit 0 is set unless empty.
        assert bits & 1 if count else (bits, low) == (0, 0)
        decoded = {pixels[low + i] for i in range(bits.bit_length()) if bits >> i & 1}
        assert decoded == unions[pair] == store.pair_union(*pair)
        assert (link_count, length_sum) == _link_stats(store, *pair)
        footprint |= decoded
    assert footprint == set(pixels)


def test_flat_pair_unions_of_touching_pair_are_empty_but_linked():
    store = build_bundle(LabeledRaster.from_array([[1, 2]])).store
    assert _pair_masks(store) == {(1, 2): ((0, 0, 0), 2, 0)}
    assert store.pair_union(1, 2) == set()


def test_flat_pair_unions_span_covers_far_ends():
    # Cast rays always come in mirrored pairs; a store built by hand need
    # not, so the span must bound the far end of a one-way link too.  Here
    # every origin has x = 0, yet the row-major ranks are (0, 1), (1, 1),
    # (0, 2), (2, 2), (3, 3): a span of 1 would key (1, 1) and (0, 2) alike.
    store = LinkStore(link_table((1, 2, "SE", 0, 0, 3), (3, 4, "S", 0, 0, 2)))
    assert _pair_masks(store) == {(1, 2): ((0b1101, 1, 3), 1, 3), (3, 4): ((0b101, 0, 2), 1, 2)}


def test_flat_pair_unions_offset_masks_by_lowest_rank():
    # Ranks 0..5 are the pixels (1..3, 1) and (1..3, 3) in row-major
    # order; pair (1, 2) covers the first row and pair (2, 3) the second,
    # so its mask starts at rank 3.
    store = LinkStore(link_table(
        (1, 2, "E", 0, 1, 3),
        (3, 2, "E", 0, 3, 3),
        (2, 3, "W", 4, 3, 2),
    ))
    assert _pair_masks(store) == {(1, 2): ((0b111, 0, 3), 1, 3), (2, 3): ((0b111, 3, 3), 2, 5)}
    assert store.pair_union(2, 3) == {(1, 3), (2, 3), (3, 3)}


#: Rows of hand-built ray tables: ids 1-5, any direction, lengths 0-4 and
#: origins in a 6x6 box shifted by the longest length, so that every pixel
#: stays in the quadrant.  Unlike cast tables, these have one-way links,
#: zero-length rows, duplicate rows and many pairs over one pixel.
hand_rows = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=len(DIRECTIONS) - 1),
    st.integers(min_value=4, max_value=9),
    st.integers(min_value=4, max_value=9),
    st.integers(min_value=0, max_value=4),
).filter(lambda row: row[0] != row[1])


@st.composite
def hand_tables(draw) -> list[tuple[int, ...]]:
    rows = draw(st.lists(hand_rows, max_size=24))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=6))
    return rows


@settings(max_examples=300, deadline=None)
@given(hand_tables())
@example([])
@example([(1, 2, 2, 4, 4, 0), (2, 1, 6, 5, 4, 0)])  # touching only: no pixels
@example([(1, 2, 3, 4, 4, 4), (3, 4, 1, 4, 8, 4), (1, 2, 3, 4, 4, 4)])  # crossing, duplicated
def test_masks_match_sets_of_ray_pixels(rows):
    store = LinkStore(np.array(rows, dtype=np.int64).reshape(-1, 6))
    masks = _pair_masks(store)
    footprints: dict[tuple[int, int], set] = {}
    stats: dict[tuple[int, int], tuple[int, int]] = {}
    for row in rows:
        pair = (min(row[:2]), max(row[:2]))
        footprints.setdefault(pair, set()).update(ray_pixels(row))
        links, total = stats.get(pair, (0, 0))
        stats[pair] = (links + 1, total + row[5])
    rank = {p: r for r, p in enumerate(_row_major(set(chain.from_iterable(footprints.values()))))}
    assert list(masks) == sorted(footprints)
    for pair, pixels in footprints.items():
        ranks = [rank[p] for p in pixels]
        low = min(ranks, default=0)
        bits = sum(1 << (r - low) for r in ranks)
        assert masks[pair] == ((bits, low, len(pixels)), *stats[pair])
        assert store.pair_union(*pair) == pixels
