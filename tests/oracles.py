"""Slow reference implementations the package is checked against.

Everything here recomputes from first principles: text grids with one
Python ``int()`` or ``str()`` per cell, segments from one full-raster mask
per label, links by walking every ray pixel by pixel (each link's derived
pixels are checked against the walk), group distances from the raw
per-link pixel tuples, break points by literal max-over-prefix, and
cumulative link areas by walking the whole merge subtree.  Nothing is
shared with the optimized code paths beyond the public types and the link
store accessors.
"""

from __future__ import annotations

import numpy as np

from crownmerge import DIRECTIONS, ConnectiveLink, Hierarchy, Isol, LinkStore


def parse_text_rows(text: str) -> list[list[int]]:
    """The cells of a headerless text grid, one ``int()`` per cell."""
    return [[int(c) for c in line.split()] for line in text.splitlines() if line.strip()]


def format_rows(rows) -> str:
    """Rows as text: ``str`` of each cell, one space apart, one line per row."""
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def brute_force_isols(raster) -> list[Isol]:
    """Segments by one full-raster mask per positive label, ascending.

    Pixels are inserted in row-major order, as the package does.
    """
    labels = raster.labels
    # A pixel is an edge pixel if any 4-neighbour has a different label;
    # the raster border counts as outside.
    differs = np.zeros(labels.shape, dtype=bool)
    differs[0, :] = True
    differs[-1, :] = True
    differs[:, 0] = True
    differs[:, -1] = True
    differs[1:, :] |= labels[1:, :] != labels[:-1, :]
    differs[:-1, :] |= labels[:-1, :] != labels[1:, :]
    differs[:, 1:] |= labels[:, 1:] != labels[:, :-1]
    differs[:, :-1] |= labels[:, :-1] != labels[:, 1:]

    out: list[Isol] = []
    for isol_id in raster.positive_ids():
        mask = labels == isol_id
        ys, xs = np.nonzero(mask)
        pixels = frozenset(zip(xs.tolist(), ys.tolist()))
        eys, exs = np.nonzero(mask & differs)
        edges = frozenset(zip(exs.tolist(), eys.tolist()))
        out.append(Isol(id=isol_id, pixels=pixels, edge_pixels=edges))
    return out


def walk_rays(raster, isols, max_ray: int | None = None) -> LinkStore:
    """Links by walking every ray pixel by pixel from every edge pixel.

    Rays go segment by segment in the given order, edge pixels sorted,
    directions in ``DIRECTIONS`` order.
    """
    width, height = raster.width, raster.height
    flat = raster.labels.ravel().tolist()
    found: dict[tuple[int, int], list[ConnectiveLink]] = {}

    for isol in isols:
        own = isol.id
        for px, py in sorted(isol.edge_pixels):
            for name, dx, dy in DIRECTIONS:
                x, y = px + dx, py + dy
                path: list = []
                while 0 <= x < width and 0 <= y < height:
                    label = flat[y * width + x]
                    if label == 0:
                        path.append((x, y))
                        if max_ray is not None and len(path) > max_ray:
                            break
                        x += dx
                        y += dy
                        continue
                    if label != own:
                        link = ConnectiveLink(
                            origin_isol=own,
                            target_isol=label,
                            direction=name,
                            origin_pixel=(px, py),
                            length=len(path),
                        )
                        # The link derives its pixels from its ray; they
                        # must be the ones this walk crossed.
                        assert link.interstitial == tuple(path), (link, path)
                        found.setdefault((min(own, label), max(own, label)), []).append(
                            link
                        )
                    break
    return LinkStore(found)


def raw_union(store: LinkStore, group_a, group_b) -> tuple[set, bool]:
    """Cross-group interstitial pixel union, straight from the link tuples."""
    union: set = set()
    linked = False
    for a in group_a:
        for b in group_b:
            for link in store.links_between(a, b):
                linked = True
                union.update(link.interstitial)
    return union, linked


def brute_force_merge_sequence(isols, store: LinkStore):
    """Agglomerate by full re-scan: every iteration recomputes every
    group-pair distance from the raw links and merges the argmin.

    Ties resolve to the pair whose sorted (min member, min member) key is
    smallest.  Returns [(members_a, members_b, distance), ...] with
    members_a holding the smaller minimum id.
    """
    groups: list[frozenset[int]] = [
        frozenset({isol.id}) for isol in sorted(isols, key=lambda i: i.id)
    ]
    sequence: list[tuple[frozenset[int], frozenset[int], int]] = []
    while True:
        best_key = None
        best_pair = None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                union, linked = raw_union(store, groups[i], groups[j])
                if not linked:
                    continue
                lo, hi = sorted((min(groups[i]), min(groups[j])))
                key = (len(union), lo, hi)
                if best_key is None or key < best_key:
                    best_key = key
                    best_pair = (i, j)
        if best_pair is None:
            return sequence
        i, j = best_pair
        a, b = groups[i], groups[j]
        if min(b) < min(a):
            a, b = b, a
        sequence.append((a, b, best_key[0]))
        groups = [g for idx, g in enumerate(groups) if idx not in (i, j)]
        groups.append(a | b)


def merge_sequence_of(hierarchy: Hierarchy):
    """The package's merge sequence in the oracle's representation."""
    sequence = []
    for node_id in hierarchy.merge_node_ids():
        node = hierarchy.node(node_id)
        left, right = node.ancestors
        a = hierarchy.node(left).members
        b = hierarchy.node(right).members
        if min(b) < min(a):
            a, b = b, a
        sequence.append((a, b, node.merge_distance))
    return sequence


def strict_record_breakpoints(raw_values) -> set[int]:
    """{j >= 1 | D_j > max_{k<j} D_k} with everything spelled out."""
    lo, hi = min(raw_values), max(raw_values)
    if hi == lo:
        f = [0.0] * len(raw_values)
    else:
        f = [(v - lo) / (hi - lo) for v in raw_values]
    d = [f[j + 1] - f[j] for j in range(len(f) - 1)]
    return {j for j in range(1, len(d)) if d[j] > max(d[:j])}


#: Each named parameter stream read straight off a merge node's params.
STREAM_VALUES = {
    "a_merge": lambda p: float(p.a_merge),
    "lw_over_acum": lambda p: p.lw_ratio / p.a_cumulative if p.a_cumulative else 0.0,
    "n_pix": lambda p: float(p.n_pix),
    "n_edge": lambda p: float(p.n_edge),
    "a_cumulative": lambda p: float(p.a_cumulative),
}


def brute_force_merge_params(
    hierarchy: Hierarchy, store: LinkStore, node_id: int
) -> tuple[int, int, int]:
    """(a_merge, link count, length sum) of a merge node, rescanning every
    left x right member pair's raw links."""
    left, right = hierarchy.node(node_id).ancestors
    pixels: set = set()
    count = 0
    total = 0
    for a in hierarchy.node(left).members:
        for b in hierarchy.node(right).members:
            for link in store.links_between(a, b):
                pixels.update(link.interstitial)
                count += 1
                total += len(link.interstitial)
    return len(pixels), count, total


def brute_force_a_cumulative(hierarchy: Hierarchy, store: LinkStore, node_id: int) -> int:
    """Pixel union over the cross links of every merge in the subtree."""
    pixels: set = set()
    for h in hierarchy.ancestors_all(node_id):
        node = hierarchy.node(h)
        if node.is_singleton:
            continue
        left, right = node.ancestors
        union, _ = raw_union(
            store, hierarchy.node(left).members, hierarchy.node(right).members
        )
        pixels |= union
    return len(pixels)
