"""Agglomerative grouping of segments by connective distance.

Groups start as singletons and the closest two active groups merge until
nothing connective is left, producing a binary merge forest.  Group-to-group
distance is the size of the union of all link-pixel sets between their
members, so it is not additive and is maintained as an incremental
pixel-set union per active pair.  The linkage is reducible, because
U(A+B, C) = U(A, C) | U(B, C) is at least as large as either part, so the
merge heights never decrease along the merge order.

Each merge node also records the link quantities its parameters are read
from: the link count and summed link length across the merged pair, and
the cumulative link area of every merge in its subtree.

Node ids: the M singletons take 0..M-1 in ascending segment-id order, the
merge of iteration i (counted from 1) takes M-1+i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .links import LinkStore
from .raster_io import Isol, PixelCoord


@dataclass
class HierarchyNode:
    """One node of the merge forest.

    ``ancestors`` are the two merged-from nodes (empty for singletons);
    ``successor`` is the merge this node later disappears into, if any.
    Merge nodes carry, over the links between their two ancestors, the
    distinct pixel count (``merge_distance``), the link count and the
    summed link length; ``a_cumulative`` counts the distinct link pixels
    of this merge and every merge below it.
    """

    id: int
    members: frozenset[int]
    ancestors: tuple[int, ...] = ()
    successor: int | None = None
    merge_iteration: int | None = None
    merge_distance: int | None = None
    link_count: int | None = None
    length_sum: int | None = None
    a_cumulative: int | None = None

    @property
    def is_singleton(self) -> bool:
        return not self.ancestors


class Hierarchy:
    """Immutable view of a finished merge forest, indexed by node id."""

    def __init__(self, nodes: Sequence[HierarchyNode], singleton_ids: Mapping[int, int]):
        self._nodes = tuple(nodes)
        self._singleton_ids = dict(singleton_ids)
        for idx, node in enumerate(self._nodes):
            if node.id != idx:
                raise ValueError(f"node at position {idx} has id {node.id}")
        self.roots: tuple[int, ...] = tuple(
            n.id for n in self._nodes if n.successor is None
        )

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, node_id: int) -> HierarchyNode:
        if not 0 <= node_id < len(self._nodes):
            raise ValueError(f"unknown node id {node_id}")
        return self._nodes[node_id]

    def nodes(self) -> Iterator[HierarchyNode]:
        return iter(self._nodes)

    def singleton_count(self) -> int:
        return len(self._singleton_ids)

    def singleton_node_id(self, isol_id: int) -> int:
        try:
            return self._singleton_ids[isol_id]
        except KeyError:
            raise ValueError(f"no singleton for isol id {isol_id}") from None

    def singleton_node_ids(self) -> tuple[int, ...]:
        return tuple(range(self.singleton_count()))

    def merge_node_ids(self) -> tuple[int, ...]:
        return tuple(range(self.singleton_count(), len(self._nodes)))

    # -- path calculus ------------------------------------------------------

    def successor(self, node_id: int, k: int = 1) -> int | None:
        """Follow the successor chain k steps; None when it ends early."""
        if k < 0:
            raise ValueError("k must be non-negative")
        current: int | None = self.node(node_id).id
        for _ in range(k):
            current = self._nodes[current].successor
            if current is None:
                return None
        return current

    def path_from(self, start: int) -> list[int]:
        """The node and every successor up to its root, in order."""
        path = [self.node(start).id]
        while (nxt := self._nodes[path[-1]].successor) is not None:
            path.append(nxt)
        return path

    def ancestors_all(self, node_id: int) -> set[int]:
        """The node plus everything that ever merged into it."""
        seen: set[int] = set()
        stack = [self.node(node_id).id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._nodes[current].ancestors)
        return seen


def group_pixels(
    hierarchy: Hierarchy, isols: Mapping[int, Isol], node_id: int
) -> frozenset[PixelCoord]:
    """All raster pixels of the segments a node represents."""
    pixels: set[PixelCoord] = set()
    for isol_id in hierarchy.node(node_id).members:
        pixels |= isols[isol_id].pixels
    return frozenset(pixels)


# ---------------------------------------------------------------------------
# agglomeration
# ---------------------------------------------------------------------------


def agglomerate(isols: Sequence[Isol], store: LinkStore) -> Hierarchy:
    """Merge closest groups until only unlinked groups remain.

    Ties on distance go to the pair whose two group-minimum segment ids
    are lexicographically smallest, which makes the run deterministic.
    Scenes whose link graph is disconnected end as a forest.
    """
    ordered = sorted(isols, key=lambda isol: isol.id)
    singleton_ids = {isol.id: idx for idx, isol in enumerate(ordered)}
    nodes = [
        HierarchyNode(id=idx, members=frozenset({isol.id}))
        for idx, isol in enumerate(ordered)
    ]
    n_singletons = len(nodes)

    members: dict[int, frozenset[int]] = {n.id: n.members for n in nodes}
    min_member: dict[int, int] = {idx: min(m) for idx, m in members.items()}

    # Active-pair link-pixel unions; an entry existing means "linked", so a
    # touching pair keeps its (empty) entry and distance 0.  The pair's
    # (link count, length sum) lives apart, off the hot min() scan.
    pair_pixels: dict[tuple[int, int], set[PixelCoord]] = {}
    pair_stats: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b in store.pairs():
        key = (singleton_ids[a], singleton_ids[b])
        key = key if key[0] < key[1] else (key[1], key[0])
        pair_pixels[key] = set(store.pair_union(a, b))
        pair_stats[key] = store.link_stats(a, b)
    # Link pixels of every merge below each active group.
    cumulative: dict[int, set[PixelCoord]] = {n.id: set() for n in nodes}

    def tie_key(key: tuple[int, int]) -> tuple[int, int]:
        lo, hi = min_member[key[0]], min_member[key[1]]
        return (lo, hi) if lo < hi else (hi, lo)

    iteration = 0
    while pair_pixels:
        iteration += 1
        best = min(pair_pixels, key=lambda k: (len(pair_pixels[k]), tie_key(k)))
        left, right = best
        new_id = n_singletons - 1 + iteration
        merge_pixels = pair_pixels.pop(best)
        link_count, length_sum = pair_stats.pop(best)
        covered, smaller = cumulative.pop(left), cumulative.pop(right)
        if len(covered) < len(smaller):
            covered, smaller = smaller, covered
        covered |= smaller
        covered |= merge_pixels
        cumulative[new_id] = covered
        merged = HierarchyNode(
            id=new_id,
            members=members[left] | members[right],
            ancestors=best,
            merge_iteration=iteration,
            merge_distance=len(merge_pixels),
            link_count=link_count,
            length_sum=length_sum,
            a_cumulative=len(covered),
        )
        nodes[left].successor = new_id
        nodes[right].successor = new_id
        nodes.append(merged)

        inherited: dict[int, set[PixelCoord]] = {}
        inherited_stats: dict[int, tuple[int, int]] = {}
        for key in list(pair_pixels):
            if left in key or right in key:
                other = key[1] if key[0] in (left, right) else key[0]
                pixels = pair_pixels.pop(key)
                count, total = pair_stats.pop(key)
                if other in inherited:
                    inherited[other] |= pixels
                    kept_count, kept_total = inherited_stats[other]
                    inherited_stats[other] = (kept_count + count, kept_total + total)
                else:
                    inherited[other] = pixels
                    inherited_stats[other] = (count, total)
        for other, pixels in inherited.items():
            key = (other, new_id) if other < new_id else (new_id, other)
            pair_pixels[key] = pixels
            pair_stats[key] = inherited_stats[other]

        del members[left], members[right], min_member[left], min_member[right]
        members[new_id] = merged.members
        min_member[new_id] = min(merged.members)

    return Hierarchy(nodes, singleton_ids)


def hierarchy_records(hierarchy: Hierarchy) -> list[dict]:
    """JSON-ready node records, ascending by id."""
    return [
        {
            "id": node.id,
            "members": sorted(node.members),
            "ancestors": list(node.ancestors),
            "successor": node.successor,
            "merge_iteration": node.merge_iteration,
            "merge_distance": node.merge_distance,
        }
        for node in hierarchy.nodes()
    ]
