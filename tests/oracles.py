"""Slow reference implementations the package is checked against.

Everything here recomputes from first principles: text grids with one
Python ``int()`` or ``str()`` per cell, segments from one full-raster mask
per label, links by walking every ray pixel by pixel into plain row
tuples (each row's pixels, re-derived by ``ray_pixels``, are checked
against the walk), group distances from every link row's pixels, break
points by literal max-over-prefix, cumulative link areas by walking the
whole merge subtree, cluster rasters painted one pixel tuple at a time,
and ranked groups scored from their members' pixel tuples.  Nothing is
shared with the optimized code paths beyond the public types and, where
an oracle takes a store, its ``pairs`` and ``links_between`` rows.
``link_table`` builds hand-made ray tables from rows that name their
direction.  ``reference_artifacts`` chains the oracles into every file a
run writes, with stdlib writers only.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import count

import numpy as np

from crownmerge import (
    DIRECTIONS,
    DispersionStats,
    Hierarchy,
    HierarchyNode,
    Isol,
    LabeledRaster,
    LinkStore,
    NodeParams,
    RankedCandidate,
)


def parse_text_rows(text: str) -> list[list[int]]:
    """The cells of a headerless text grid, one ``int()`` per cell."""
    return [[int(c) for c in line.split()] for line in text.splitlines() if line.strip()]


def format_rows(rows) -> str:
    """Rows as text: ``str`` of each cell, one space apart, one line per row."""
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def pixel_set(pixels) -> set[tuple[int, int]]:
    """An isol's ``(n, 2)`` pixel array as a set of ``(x, y)`` int tuples:
    how every oracle reads an isol's pixels."""
    return set(map(tuple, pixels.tolist()))


def brute_force_isols(raster) -> list[Isol]:
    """Segments by one full-raster mask per positive label, ascending.

    A pixel is an edge pixel if one of its four neighbours is off the
    raster or carries another label, checked one pixel at a time.  Each
    segment is built from frozensets of pixel tuples.
    """
    rows = raster.labels.tolist()

    def on_edge(x: int, y: int) -> bool:
        for nx, ny in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if not (0 <= nx < raster.width and 0 <= ny < raster.height):
                return True
            if rows[ny][nx] != rows[y][x]:
                return True
        return False

    out: list[Isol] = []
    for isol_id in raster.positive_ids():
        ys, xs = np.nonzero(raster.labels == isol_id)
        points = list(zip(xs.tolist(), ys.tolist()))
        edges = frozenset(p for p in points if on_edge(*p))
        out.append(Isol(id=isol_id, pixels=frozenset(points), edge_pixels=edges))
    return out


def paint_clusters(raster, groups, isols) -> LabeledRaster:
    """Each group's member segments painted with the group id on ground of
    ``raster``'s shape, one ``isol.pixels`` tuple at a time.

    ``groups`` are (group_id, member ids) pairs and ``isols`` maps id to
    segment; a group id below 1, a segment in two groups or an unknown one
    raises ``ValueError``.
    """
    out = np.zeros((raster.height, raster.width), dtype=np.int64)
    seen: set[int] = set()
    for group_id, member_ids in groups:
        if group_id < 1:
            raise ValueError(f"group id must be positive, got {group_id}")
        for isol_id in member_ids:
            if isol_id in seen:
                raise ValueError(f"isol {isol_id} assigned to more than one group")
            seen.add(isol_id)
            isol = isols.get(isol_id)
            if isol is None:
                raise ValueError(f"unknown isol id {isol_id}")
            for x, y in pixel_set(isol.pixels):
                out[y, x] = group_id
    return LabeledRaster(width=raster.width, height=raster.height, labels=out)


def rank_groups(hierarchy: Hierarchy, isols, terminals, key: str) -> list[RankedCandidate]:
    """Each terminal node scored from its members' pixel tuples and sorted
    by ``(score or sum/max, node id)``; ``key`` is ``mean`` or ``sum``.

    The points are scored in sorted ``(x, y)`` order with numpy's sums,
    which fixes the low bits of every float.
    """
    scored = []
    for node_id in sorted(terminals):
        pixels: set = set()
        for isol_id in hierarchy.node(node_id).members:
            pixels |= pixel_set(isols[isol_id].pixels)
        pts = np.asarray(sorted(pixels), dtype=float)
        centroid = pts.mean(axis=0)
        devs = np.hypot(pts[:, 0] - centroid[0], pts[:, 1] - centroid[1])
        sum_dev = float(devs.sum())
        max_dev = float(devs.max())
        mean_dev = sum_dev / len(pts)
        stats = DispersionStats(
            centroid=(float(centroid[0]), float(centroid[1])),
            sum_abs_dev=sum_dev,
            mean_abs_dev=mean_dev,
            max_abs_dev=max_dev,
            score=mean_dev / max_dev if max_dev > 0 else 0.0,
            pixel_count=len(pts),
        )
        value = stats.score if key == "mean" else stats.sum_over_max
        scored.append((value, node_id, RankedCandidate(node_id, stats)))
    scored.sort(key=lambda item: item[:2])
    return [candidate for _, _, candidate in scored]


def link_table(*rows) -> np.ndarray:
    """A ray table for ``LinkStore`` from ``(origin, target, direction
    name, x, y, length)`` rows, the direction named as in ``DIRECTIONS``."""
    index = {name: d for d, (name, _, _) in enumerate(DIRECTIONS)}
    table = [(origin, target, index[name], x, y, n) for origin, target, name, x, y, n in rows]
    return np.array(table, dtype=np.int64).reshape(-1, 6)


def ray_pixels(row) -> tuple:
    """The ground pixels a ray-table row crossed: the ``length`` steps
    after its origin in its direction, as int tuples."""
    _, _, d, x, y, length = map(int, row)
    _, dx, dy = DIRECTIONS[d]
    return tuple((x + dx * k, y + dy * k) for k in range(1, length + 1))


def walk_links(raster, isols, max_ray: int | None = None) -> dict[tuple[int, int], list]:
    """Links by walking every ray pixel by pixel from every edge pixel,
    built without ``LinkStore``: per (low, high) pair, a list of ``(row,
    pixels)`` with the ray-table row as a tuple and the pixels the walk
    crossed.

    Rays go segment by segment in the given order, edge pixels sorted,
    directions in ``DIRECTIONS`` order.
    """
    width, height = raster.width, raster.height
    flat = raster.labels.ravel().tolist()
    found: dict[tuple[int, int], list] = {}

    for isol in isols:
        own = isol.id
        for px, py in sorted(pixel_set(isol.edge_pixels)):
            for d, (_, dx, dy) in enumerate(DIRECTIONS):
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
                        row = (own, label, d, px, py, len(path))
                        # A row derives its pixels from its ray; they must
                        # be the ones this walk crossed.
                        assert ray_pixels(row) == tuple(path), (row, path)
                        found.setdefault((min(own, label), max(own, label)), []).append(
                            (row, tuple(path))
                        )
                    break
    return found


def walk_rays(raster, isols, max_ray: int | None = None) -> LinkStore:
    """``walk_links`` in a store."""
    walked = walk_links(raster, isols, max_ray)
    rows = [row for links in walked.values() for row, _ in links]
    return LinkStore(np.array(rows, dtype=np.int64).reshape(-1, 6))


def raw_union(store: LinkStore, group_a, group_b) -> tuple[set, bool]:
    """Cross-group interstitial pixel union, straight from the link rows."""
    union: set = set()
    linked = False
    for a in group_a:
        for b in group_b:
            for row in store.links_between(a, b).tolist():
                linked = True
                union.update(ray_pixels(row))
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
    return _path_analysis(raw_values)[2]


def _path_analysis(raw_values) -> tuple[list, list, set[int]]:
    """The scaled values f, their differences D and the strict record
    positions of ``raw_values``."""
    lo, hi = min(raw_values), max(raw_values)
    if hi == lo:
        f = [0.0] * len(raw_values)
    else:
        f = [(v - lo) / (hi - lo) for v in raw_values]
    d = [f[j + 1] - f[j] for j in range(len(f) - 1)]
    return f, d, {j for j in range(1, len(d)) if d[j] > max(d[:j])}


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
            for row in store.links_between(a, b).tolist():
                crossed = ray_pixels(row)
                pixels.update(crossed)
                count += 1
                total += len(crossed)
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


def stream_value(choice: str, p: NodeParams) -> float:
    """A merge node's value in a named stream or a ``ratio:<numer>/<denom>``
    one (0 wherever the denominator is 0)."""
    if choice in STREAM_VALUES:
        return STREAM_VALUES[choice](p)
    numer, denom = choice[len("ratio:") :].split("/")
    bottom = float(getattr(p, denom))
    return float(getattr(p, numer)) / bottom if bottom else 0.0


def reference_hierarchy(isols, store: LinkStore) -> Hierarchy:
    """``brute_force_merge_sequence`` as a forest: singletons 0..n-1 by
    ascending id, then one node per merge in order, its ancestors by node
    id.  Only the fields ``hierarchy.json`` holds are set."""
    ids = sorted(isol.id for isol in isols)
    nodes = [HierarchyNode(id=i, members=frozenset({isol_id})) for i, isol_id in enumerate(ids)]
    node_of = {node.members: node.id for node in nodes}
    for iteration, (a, b, distance) in enumerate(brute_force_merge_sequence(isols, store), 1):
        left, right = sorted((node_of[a], node_of[b]))
        merged = HierarchyNode(
            id=len(nodes),
            members=a | b,
            ancestors=(left, right),
            merge_iteration=iteration,
            merge_distance=distance,
        )
        nodes[left].successor = nodes[right].successor = merged.id
        node_of[merged.members] = merged.id
        nodes.append(merged)
    return Hierarchy(nodes, {isol_id: i for i, isol_id in enumerate(ids)})


def reference_params(hierarchy: Hierarchy, isols, store: LinkStore) -> dict[int, NodeParams]:
    """Every node's params: member sizes summed, link quantities rescanned."""
    out = {}
    for node in hierarchy.nodes():
        sizes = dict(
            n_pix=sum(len(isols[m].pixels) for m in node.members),
            n_edge=sum(len(isols[m].edge_pixels) for m in node.members),
        )
        if node.is_singleton:
            out[node.id] = NodeParams(**sizes)
            continue
        a_merge, links, total = brute_force_merge_params(hierarchy, store, node.id)
        l_hat = total / links
        out[node.id] = NodeParams(
            **sizes,
            a_merge=a_merge,
            l_hat=l_hat,
            lw_ratio=l_hat * l_hat / a_merge if a_merge else 0.0,
            a_cumulative=brute_force_a_cumulative(hierarchy, store, node.id),
        )
    return out


def _csv(header, rows) -> bytes:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode()


def _json(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def reference_artifacts(raster, config) -> dict[str, bytes]:
    """Every file a ``run_pipeline(config)`` on ``raster`` writes, as
    ``{path relative to the output directory: bytes}``.

    Built from the oracles above and stdlib writers only.  Each singleton's
    path is scaled and differenced by ``_path_analysis``; every break is
    charged to the node it lands on.  The threshold is the smallest v with
    at most a fraction p of merge nodes counting more than v breaks; a node
    above it is dropped with every node it merges into, and the terminals
    are the kept nodes whose successor is dropped or absent.
    """
    isols = brute_force_isols(raster)
    by_id = {isol.id: isol for isol in isols}
    walked = walk_links(raster, isols, config.max_ray)
    store = LinkStore(
        np.array([row for links in walked.values() for row, _ in links], dtype=np.int64).reshape(-1, 6)
    )
    hierarchy = reference_hierarchy(isols, store)
    params = reference_params(hierarchy, by_id, store)
    merge_ids = hierarchy.merge_node_ids()
    values = {h: stream_value(config.parameter, params[h]) for h in merge_ids}

    files = {}
    breaks = {node.id: 0 for node in hierarchy.nodes()}
    for start in hierarchy.singleton_node_ids():
        path = hierarchy.path_from(start)
        f, d, records = _path_analysis([0.0] + [values[h] for h in path[1:]])
        for j in records:
            breaks[path[j + 1]] += 1
        (isol_id,) = hierarchy.node(start).members
        files[f"traces/{isol_id}.csv"] = _csv(
            ["j", "node_id", "f", "D", "Cmax", "is_break"],
            ([j, path[j + 1], f[j + 1], d[j], max(d[: j + 1]), int(j in records)] for j in range(len(d))),
        )
    p = config.significance_p
    significance = next(
        v for v in count() if not merge_ids or sum(breaks[h] > v for h in merge_ids) / len(merge_ids) <= p
    )
    removed = set()
    for node in hierarchy.nodes():
        if breaks[node.id] > significance:
            removed.update(hierarchy.path_from(node.id))
    terminals = [
        node.id
        for node in hierarchy.nodes()
        if node.id not in removed
        and (node.successor is None or node.successor in removed)
        and len(node.members) >= config.min_group_size
    ]
    candidates = rank_groups(hierarchy, by_id, terminals, config.score_key)

    files["report.json"] = _json({
        "schema": 1,
        "parameter": config.parameter,
        "significance_p": p,
        "f_significance": significance,
        "min_group_size": config.min_group_size,
        "score_key": config.score_key,
        "isol_count": len(isols),
        "candidates": [
            {
                "rank": rank,
                "node_id": c.node_id,
                "merge_iteration": hierarchy.node(c.node_id).merge_iteration,
                "member_count": len(hierarchy.node(c.node_id).members),
                "pixel_count": c.stats.pixel_count,
                "members": sorted(hierarchy.node(c.node_id).members),
                "centroid": list(c.stats.centroid),
                "mad": c.stats.mean_abs_dev,
                "max_ad": c.stats.max_abs_dev,
                "score": c.stats.score,
                "sum_over_max": c.stats.sum_over_max,
            }
            for rank, c in enumerate(candidates, start=1)
        ],
    })
    files["hierarchy.json"] = _json({
        "schema": 1,
        "nodes": [
            {
                "id": node.id,
                "members": sorted(node.members),
                "ancestors": list(node.ancestors),
                "successor": node.successor,
                "merge_iteration": node.merge_iteration,
                "merge_distance": node.merge_distance,
            }
            for node in hierarchy.nodes()
        ],
    })
    fields = ("a_merge", "l_hat", "lw_ratio", "n_pix", "n_edge", "a_cumulative")
    files["params.csv"] = _csv(
        ["node_id", "merge_iteration", *fields],
        (
            [node.id, node.merge_iteration, *(getattr(params[node.id], name) for name in fields)]
            for node in hierarchy.nodes()
        ),
    )
    tally: dict[int, int] = {}
    for h in merge_ids:
        tally[breaks[h]] = tally.get(breaks[h], 0) + 1
    files["histogram.csv"] = _csv(["count_value", "num_nodes"], sorted(tally.items()))
    groups = [
        (rank, sorted(hierarchy.node(c.node_id).members)) for rank, c in enumerate(candidates, start=1)
    ]
    painted = paint_clusters(raster, groups, by_id).labels.tolist()
    maxval = max(1, *(max(row) for row in painted))
    files["clusters.pgm"] = (
        f"P2\n{raster.width} {raster.height}\n{maxval}\n" + format_rows(painted)
    ).encode()
    if config.dump_links:
        names = [name for name, _, _ in DIRECTIONS]
        files["links.csv"] = _csv(
            ["origin_isol", "target_isol", "direction", "origin_x", "origin_y", "length"],
            (
                [origin, target, names[d], x, y, length]
                for pair in sorted(walked)
                for (origin, target, d, x, y, length), _ in walked[pair]
            ),
        )
    return files
