"""Connective links between segments, found by straight-line ray casting.

From every edge pixel of every segment a ray is cast in each of the 8
compass directions.  The ray walks pixel by pixel (diagonals move one step
in both axes, king-style) across interstitial label-0 pixels and either

* leaves the raster           -> discarded,
* returns to its own segment  -> discarded,
* reaches another segment     -> recorded as a link, one int64 row of
                                 the ray table ``_COLUMNS``.

A ``LinkStore`` is that table, sorted by segment pair, and nothing else;
``links_between`` returns a pair's rows, and a row's pixels are the
``length`` steps after its origin in its direction.  The connective
distance between two segments is the number of distinct interstitial
pixels covered by all their links together, so overlapping rays are only
counted once.  Segment pairs with no links are infinitely far apart.
Every segment id is positive and every pixel, far end included, lies in
the non-negative int64 quadrant.  ``pair_union``, ``pair_distance`` and
``group_distance`` read those pixels straight from the rows, as Python
ints; ``hac.agglomerate`` builds its own bit masks of them.
``dump_links_csv`` writes the ray table as links.csv.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import IO, Iterable, Sequence

import numpy as np

from .raster_io import Isol, LabeledRaster, PixelCoord, _format_rows

#: Compass name -> unit step, clockwise from north; y grows downward.
DIRECTIONS: tuple[tuple[str, int, int], ...] = (
    ("N", 0, -1),
    ("NE", 1, -1),
    ("E", 1, 0),
    ("SE", 1, 1),
    ("S", 0, 1),
    ("SW", -1, 1),
    ("W", -1, 0),
    ("NW", -1, -1),
)

#: The ray table's columns, ``direction`` as a ``DIRECTIONS`` index; also the links.csv header.
_COLUMNS = ("origin_isol", "target_isol", "direction", "origin_x", "origin_y", "length")
_DIRECTION = _COLUMNS.index("direction")

#: ``(dx, dy)`` of each direction index.
_STEPS = np.array([(dx, dy) for _, dx, dy in DIRECTIONS])

#: Distance value for segment pairs without any connective link.
NO_CONNECTION = math.inf


class LinkStore:
    """All links of a scene: one int64 ray table, grouped by unordered segment pair.

    ``LinkStore(table)`` takes ``(n, 6)`` rows in ``_COLUMNS`` order, with
    ``direction`` as a ``DIRECTIONS`` index, positive segment ids and every
    pixel from origin to far end in the non-negative int64 quadrant, as
    ``cast_rays`` finds them on a raster.  It keeps a read-only copy,
    stably sorted by pair so that each pair keeps its links in the order
    given, beside a pair -> row range index; ``links_between`` returns views
    of it.  Those two are all it holds, from construction on;
    ``hac.agglomerate`` builds its masks from them.
    """

    def __init__(self, table: np.ndarray):
        """Raises ``ValueError`` for a table that is not 2-D int64 with
        ``len(_COLUMNS)`` columns, or for a row that joins a segment to
        itself, has a non-positive segment id, an unknown direction index,
        a negative length or a pixel, origin or far end, outside the
        non-negative int64 quadrant."""
        table = np.asarray(table)
        if table.ndim != 2 or table.shape[1] != len(_COLUMNS):
            raise ValueError(
                f"link table must have shape (n, {len(_COLUMNS)}) for the columns "
                f"{', '.join(_COLUMNS)}; got shape {table.shape}"
            )
        if table.dtype != np.int64:
            raise ValueError(f"link table must be int64, got {table.dtype}")
        origin, target, direction, _, _, length = table.T
        if (origin == target).any():
            raise ValueError(f"link {origin[origin == target][0]} joins a segment to itself")
        if (table[:, :2] < 1).any():
            raise ValueError(f"link has non-positive segment id {table[:, :2].min()}")
        unknown = (direction < 0) | (direction >= len(DIRECTIONS))
        if unknown.any():
            raise ValueError(f"link has unknown direction index {direction[unknown][0]}")
        if (length < 0).any():
            raise ValueError(f"link has negative length {length[length < 0][0]}")
        # Each coordinate runs from the origin's to the far end's, so both
        # are checked; the far end is not computed, as that sum can wrap.
        xy, reach = table[:, 3:5], length[:, None]
        if (xy < 0).any() or ((_STEPS < 0)[direction] & (reach > xy)).any():
            raise ValueError("link pixels must have non-negative coordinates")
        if ((_STEPS > 0)[direction] & (xy > np.iinfo(np.int64).max - reach)).any():
            raise ValueError("link far ends must fit in int64")
        lo, hi = np.minimum(origin, target), np.maximum(origin, target)
        order = np.lexsort((hi, lo))
        self._table, lo, hi = table[order], lo[order], hi[order]
        self._table.setflags(write=False)
        first = np.ones(len(order), dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        starts = np.flatnonzero(first).tolist() + [len(order)]
        pairs = zip(lo[first].tolist(), hi[first].tolist())
        self._rows = dict(zip(pairs, map(slice, starts, starts[1:])))

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Linked segment pairs, sorted."""
        return tuple(self._rows)

    def links_between(self, a: int, b: int) -> np.ndarray:
        """The pair's rows of the ray table in stored order, as a read-only
        view; shape ``(0, 6)`` if the pair has no links."""
        return self._table[self._rows.get(_key(a, b), slice(0))]

    def pair_union(self, a: int, b: int) -> set[PixelCoord]:
        """Distinct interstitial pixels over the pair's links, in a new set the caller owns.

        Each row adds the ``length`` pixels after its origin in its
        direction, as Python ints.
        """
        pixels: set[PixelCoord] = set()
        for _, _, d, x, y, length in self.links_between(a, b).tolist():
            _, dx, dy = DIRECTIONS[d]
            xs = range(x + dx, x + dx * (length + 1), dx) if dx else repeat(x, length)
            ys = range(y + dy, y + dy * (length + 1), dy) if dy else repeat(y, length)
            pixels.update(zip(xs, ys))
        return pixels


def _key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


# ---------------------------------------------------------------------------
# ray casting
# ---------------------------------------------------------------------------


def cast_rays(
    raster: LabeledRaster,
    isols: Sequence[Isol],
    max_ray: int | None = None,
) -> LinkStore:
    """Cast all rays and collect the resulting links.

    Args:
        raster: the labeled scene.
        isols: its segments (from :func:`extract_isols`).
        max_ray: abandon rays crossing more than this many interstitial
            pixels; ``None`` means unlimited and 0 keeps only touching links.

    Raises:
        ValueError: ``max_ray`` is negative, or an edge pixel of a segment
            lies outside the raster or does not carry that segment's label.

    Every surviving ray is stored, one link per originating edge pixel and
    direction, even when two rays cover the same pixels; the union-based
    distance is unaffected by such duplicates.

    No ray is walked.  A ray's origin is itself a labelled pixel, so its
    first labelled pixel along a direction is the origin's neighbour in
    that axis's sorted order.  One ``searchsorted`` places every origin
    among the labelled pixels.  Then, on each of four axes (columns, ``x +
    y`` anti-diagonals, rows, ``x - y`` diagonals), every labelled pixel
    is keyed by its ``line`` and its ``position`` along the axis and
    sorted once; the next pixel in that order is the hit of the axis's
    direction, the previous one the hit of its opposite.  A hit counts
    only if it lies on the same line, and its distance follows from the
    positions.  Only rays that reach another segment within ``max_ray``
    become ray-table rows, in the order of the segments as given, their
    edge pixels (held ascending by ``(x, y)``), then ``DIRECTIONS``, so
    the link order is that of a pixel-by-pixel walk.
    """
    if max_ray is not None and max_ray < 0:
        raise ValueError(f"max_ray must be >= 0, got {max_ray}")
    width, height = raster.width, raster.height
    counts = [len(isol.edge_pixels) for isol in isols]
    if not sum(counts):
        return LinkStore(np.empty((0, len(_COLUMNS)), dtype=np.int64))

    ox, oy = np.concatenate([isol.edge_pixels for isol in isols]).T
    own = np.repeat(np.array([isol.id for isol in isols], dtype=np.int64), counts)
    flat = raster.labels.ravel()
    nonzero = np.flatnonzero(flat)
    labelled = flat[nonzero]

    # Every origin must be the labelled pixel at ``at`` and carry its own id.
    inside = (ox >= 0) & (ox < width) & (oy >= 0) & (oy < height)
    origin_flat = np.where(inside, oy * width + ox, -1)
    # A sentinel past the end stands for an origin beyond the last pixel.
    at = np.searchsorted(nonzero, origin_flat)
    placed = inside & (np.append(nonzero, -1)[at] == origin_flat)
    placed &= np.append(labelled, 0)[at] == own
    if not placed.all():
        i = int(np.argmin(placed))
        isol_id = isols[int(np.searchsorted(np.cumsum(counts), i, side="right"))].id
        raise ValueError(
            f"isol {isol_id} edge pixel ({ox[i]}, {oy[i]}) is not a pixel "
            f"labelled {isol_id} in the {width}x{height} raster"
        )

    target = np.zeros((len(own), len(DIRECTIONS)), dtype=np.int64)
    length = np.zeros_like(target)
    reached = np.zeros(target.shape, dtype=bool)
    ys, xs = np.divmod(nonzero, width)
    # Keys are line-major; |position| < width + height, so they are distinct.
    for d, (_, dx, dy) in enumerate(DIRECTIONS[:4]):
        line, position = dy * xs - dx * ys, dx * xs + dy * ys
        order = np.argsort(line * (2 * (width + height) + 1) + position)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        here = rank[at]
        for e, step in ((d, 1), (d + 4, -1)):
            neighbour = here + step
            found = (neighbour >= 0) & (neighbour < order.size)
            hit = order[neighbour.clip(0, order.size - 1)]
            found &= line[hit] == line[at]
            target[:, e] = labelled[hit]
            length[:, e] = np.abs(position[hit] - position[at]) // (abs(dx) + abs(dy)) - 1
            reached[:, e] = found & (target[:, e] != own)
    if max_ray is not None:
        reached &= length <= max_ray

    rays = np.flatnonzero(reached)
    origin, direction = np.divmod(rays, len(DIRECTIONS))
    return LinkStore(np.column_stack((
        own[origin], target.ravel()[rays], direction, ox[origin], oy[origin], length.ravel()[rays]
    )))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def pair_distance(store: LinkStore, a: int, b: int) -> int | float:
    """Connective distance between two segments.

    The count of distinct interstitial pixels over the pair's links; 0 for
    touching segments, ``NO_CONNECTION`` when no link exists.
    """
    if _key(a, b) not in store._rows:
        return NO_CONNECTION
    return len(store.pair_union(a, b))


def group_distance(
    store: LinkStore, group_a: Iterable[int], group_b: Iterable[int]
) -> int | float:
    """Connective distance between two disjoint groups of segments.

    The pixel union runs over every cross pair's ``pair_union``, so shared
    interstitial pixels are not double counted and the result can be well
    below the sum of pair distances.
    """
    set_a, set_b = frozenset(group_a), frozenset(group_b)
    if not set_a or not set_b:
        raise ValueError("groups must be non-empty")
    if set_a & set_b:
        raise ValueError(f"groups overlap: {sorted(set_a & set_b)}")
    linked = [(a, b) for a in set_a for b in set_b if _key(a, b) in store._rows]
    if not linked:
        return NO_CONNECTION
    return len(set().union(*(store.pair_union(a, b) for a, b in linked)))


def dump_links_csv(store: LinkStore, stream: IO[str]) -> None:
    """Debug dump: the ``_COLUMNS`` header, then one row per link straight
    from the ray table, with ``direction`` as its compass name: the text
    that ``csv.writer(stream, lineterminator="\\n")`` writes for them,
    formatted a block of rows at a time by ``raster_io._format_rows``, the
    writer of every decimal-text artifact, with ``b","`` as separator."""
    stream.write(",".join(_COLUMNS) + "\n")
    names = {_DIRECTION: [name for name, _, _ in DIRECTIONS]}
    for block in _format_rows(store._table, b",", names):
        stream.write(block.decode("ascii"))
