"""Agglomeration order, node identities, and forest structure."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings

from crownmerge import (
    Hierarchy,
    HierarchyNode,
    LabeledRaster,
    agglomerate,
    by_id,
    cast_rays,
    extract_isols,
    generate_random,
    group_pixels,
    hierarchy_records,
)

from conftest import build_bundle, label_rasters, max_rays, random_bundles
from oracles import (
    brute_force_a_cumulative,
    brute_force_merge_params,
    brute_force_merge_sequence,
    merge_sequence_of,
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


def test_group_pixels_unions_members(quad):
    isols = by_id(quad.isols)
    pixels = group_pixels(quad.hierarchy, isols, 4)
    assert pixels == isols[1].pixels | isols[4].pixels
    assert group_pixels(quad.hierarchy, isols, 0) == isols[1].pixels


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
    # agglomerate grows the pixel sets pair_union hands it, so a second run
    # on the same store differs if the store ever hands out one set twice.
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
