"""Agglomerative grouping of segments by connective distance.

Groups start as singletons and the closest two active groups merge until
nothing connective is left, producing a binary merge forest.  Group-to-group
distance is the size of the union of all link-pixel sets between their
members, so it is not additive.  Each group keeps a map from every linked
neighbour to their pair's ``(pixel union, link count, length sum)``; a
merge folds the smaller map into the larger one, uniting the two entries
of a neighbour both sides share.  Each union is a ``links`` bit mask, and
a min-heap of pairs picks each merge (see ``agglomerate``).  The linkage
is reducible, because U(A+B, C) = U(A, C) | U(B, C) is at least as large
as either part, so the merge heights never decrease along the merge order.

Each merge node also records the link quantities its parameters are read
from: the link count and summed link length across the merged pair, and
the cumulative link area of every merge in its subtree.

Node ids: the M singletons take 0..M-1 in ascending segment-id order, the
merge of iteration i (counted from 1) takes M-1+i.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .links import _EMPTY, LinkStore, Mask, _unite
from .raster_io import Isol


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


def group_pixels(hierarchy: Hierarchy, isols: Mapping[int, Isol], node_id: int) -> np.ndarray:
    """All raster pixels of the segments a node represents: one new ``(n,
    2)`` int64 array of distinct ``(x, y)`` rows, ascending by ``(x, y)``."""
    pixels = np.concatenate([isols[isol_id].pixels for isol_id in hierarchy.node(node_id).members])
    pixels = pixels[np.lexsort((pixels[:, 1], pixels[:, 0]))]
    return pixels[np.append(True, (pixels[1:] != pixels[:-1]).any(axis=1))]


# ---------------------------------------------------------------------------
# agglomeration
# ---------------------------------------------------------------------------


def agglomerate(isols: Sequence[Isol], store: LinkStore) -> Hierarchy:
    """Merge closest groups until only unlinked groups remain.

    Ties on distance go to the pair whose two group-minimum segment ids
    are lexicographically smallest, which makes the run deterministic.
    Scenes whose link graph is disconnected end as a forest.

    Every linked pair of active groups has an immutable entry ``(link
    pixel mask, link count, length sum)`` in both groups' neighbour maps,
    and one heap item ``(distance, lo min member, hi min member, left id,
    right id)``.  The singletons' entries are the store's own
    (``LinkStore._masks``); a merge builds a new one for a neighbour both
    sides share.  An item is live while both its groups are active:
    a pair's entry only changes when one side merges, a merge retires
    both ids, and ids are never reused, so stale items are simply skipped
    when popped.  Two active groups never share a minimum member, so the
    heap orders live pairs exactly as a full scan for the smallest
    ``(distance, tie key)`` would.  Every pixel union (an entry's, or a
    group's cumulative one) is a mask ``(bits, low, count)`` over the
    ranked footprint pixels; ``links._unite`` makes a new one, and each
    cached ``count`` is read as a heap key, a merge distance or an
    ``a_cumulative``; only the counts leave this function.

    Raises ``ValueError`` if two isols share an id or the store links a
    segment that is not among ``isols``.
    """
    ordered = sorted(isols, key=lambda isol: isol.id)
    singleton_ids = {isol.id: idx for idx, isol in enumerate(ordered)}
    if len(singleton_ids) < len(ordered):
        repeated = next(a.id for a, b in zip(ordered, ordered[1:]) if a.id == b.id)
        raise ValueError(f"isol id {repeated} is given more than once")
    for pair in store.pairs():
        for isol_id in pair:
            if isol_id not in singleton_ids:
                raise ValueError(f"linked pair {pair} names isol {isol_id}, which is not given")
    nodes = [
        HierarchyNode(id=idx, members=frozenset({isol.id}))
        for idx, isol in enumerate(ordered)
    ]

    # The active groups; min_member[g] is the tie key of group g.
    min_member: dict[int, int] = {idx: isol.id for idx, isol in enumerate(ordered)}
    # An entry existing means "linked", so a touching pair keeps its
    # (empty) mask and distance 0.
    neighbours: dict[int, dict[int, tuple[Mask, int, int]]] = {n.id: {} for n in nodes}
    heap: list[tuple[int, int, int, int, int]] = []
    for (a, b), entry in store._masks[2].items():
        lo, hi = singleton_ids[a], singleton_ids[b]
        neighbours[lo][hi] = neighbours[hi][lo] = entry
        heap.append((entry[0][2], a, b, lo, hi))
    heapq.heapify(heap)
    # Link pixel mask of every merge below each active group.
    cumulative: dict[int, Mask] = {n.id: _EMPTY for n in nodes}

    while heap:
        _, _, _, left, right = heapq.heappop(heap)
        if left not in min_member or right not in min_member:
            continue
        new_id = len(nodes)
        merge_mask, link_count, length_sum = neighbours[left].pop(right)
        del neighbours[right][left]
        covered = _unite(cumulative.pop(left), cumulative.pop(right))
        cumulative[new_id] = covered = _unite(covered, merge_mask)
        merged = HierarchyNode(
            id=new_id,
            members=nodes[left].members | nodes[right].members,
            ancestors=(left, right),
            merge_iteration=new_id - len(ordered) + 1,
            merge_distance=merge_mask[2],
            link_count=link_count,
            length_sum=length_sum,
            a_cumulative=covered[2],
        )
        nodes[left].successor = new_id
        nodes[right].successor = new_id
        nodes.append(merged)

        # Fold the smaller neighbour map into the larger one; a neighbour
        # of both sides gets a new entry uniting its two.
        folded, small = neighbours.pop(left), neighbours.pop(right)
        if len(folded) < len(small):
            folded, small = small, folded
        for other, entry in small.items():
            kept = folded.get(other)
            if kept is not None:
                entry = (_unite(kept[0], entry[0]), kept[1] + entry[1], kept[2] + entry[2])
            folded[other] = entry
        new_min = min(min_member.pop(left), min_member.pop(right))
        for other, entry in folded.items():
            theirs = neighbours[other]
            theirs.pop(left, None)
            theirs.pop(right, None)
            theirs[new_id] = entry
            lo, hi = min_member[other], new_min
            if hi < lo:
                lo, hi = hi, lo
            heapq.heappush(heap, (entry[0][2], lo, hi, other, new_id))
        neighbours[new_id] = folded
        min_member[new_id] = new_min

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
