"""Connective links between segments, found by straight-line ray casting.

From every edge pixel of every segment a ray is cast in each of the 8
compass directions.  The ray walks pixel by pixel (diagonals move one step
in both axes, king-style) across interstitial label-0 pixels and either

* leaves the raster           -> discarded,
* returns to its own segment  -> discarded,
* reaches another segment     -> recorded as a link, one int64 row of
                                 the ray table ``_COLUMNS``.

A ``LinkStore`` is that table, sorted by segment pair; ``links_between``
returns a pair's rows, and a row's pixels are the ``length`` steps after
its origin in its direction.  The connective distance between two
segments is the number of distinct interstitial pixels covered by all
their links together, so overlapping rays are only counted once.  Segment
pairs with no links are infinitely far apart.  Every such pixel union is
held once, as a bit mask (``Mask``, united by ``_unite``) in one table per
store (``LinkStore._masks``, built on first use); ``agglomerate`` and the
distances read the masks' counts and unions, and only ``pair_union``
decodes a mask into pixels.  ``dump_links_csv`` writes the ray table as
links.csv.
"""

from __future__ import annotations

import math
from functools import cached_property
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

#: ``(bits, low, count)``: bit ``i`` of ``bits`` stands for ranked pixel
#: ``low + i``, and ``count`` is the number of set bits.
Mask = tuple[int, int, int]

#: The mask of no pixels.
_EMPTY: Mask = (0, 0, 0)


def _unite(a: Mask, b: Mask) -> Mask:
    """The union of two ``(bits, low, count)`` masks; an empty side returns the other."""
    if not b[2]:
        return a
    if not a[2]:
        return b
    if b[1] < a[1]:
        a, b = b, a
    bits = a[0] | b[0] << (b[1] - a[1])
    return bits, a[1], bits.bit_count()


#: Distance value for segment pairs without any connective link.
NO_CONNECTION = math.inf


class LinkStore:
    """All links of a scene: one int64 ray table, grouped by unordered segment pair.

    ``LinkStore(table)`` takes ``(n, 6)`` rows in ``_COLUMNS`` order, with
    ``direction`` as a ``DIRECTIONS`` index.  It keeps a read-only copy,
    stably sorted by pair so that each pair keeps its links in the order
    given, beside a pair -> row range index; ``links_between`` returns views
    of it.  Every pair's pixel union is one mask in the table ``_masks``,
    built from the ray table by one sort on first use (by ``agglomerate``,
    in a pipeline run) and kept, since the ray table never changes; every
    later reader gets that same table.  The union readers raise
    ``ValueError`` if a link pixel leaves the non-negative int64 quadrant,
    which only a store built by hand can do; the table then caches nothing,
    so they raise on every call.
    """

    def __init__(self, table: np.ndarray):
        """Raises ``ValueError`` for a table that is not 2-D int64 with
        ``len(_COLUMNS)`` columns, or for a row that joins a segment to
        itself, has an unknown direction index or a negative length."""
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
        unknown = (direction < 0) | (direction >= len(DIRECTIONS))
        if unknown.any():
            raise ValueError(f"link has unknown direction index {direction[unknown][0]}")
        if (length < 0).any():
            raise ValueError(f"link has negative length {length[length < 0][0]}")
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

        The one place a mask becomes pixels: its set bits are unpacked,
        offset by its lowest rank and looked up in the ranked flat indices.
        """
        span, ranked, masks = self._masks
        if _key(a, b) not in masks:
            return set()
        (bits, low, _), _, _ = masks[_key(a, b)]
        on = np.unpackbits(
            np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), np.uint8),
            bitorder="little",
        )
        ys, xs = np.divmod(ranked[low + np.flatnonzero(on)], span)
        return set(zip(xs.tolist(), ys.tolist()))

    @cached_property
    def _masks(self) -> tuple[int, np.ndarray, dict[tuple[int, int], tuple[Mask, int, int]]]:
        """``(span, ranked, {pair: (mask, link count, length sum)})`` over
        every linked pair, sorted by pair; built on first use and kept.

        ``ranked`` holds every distinct footprint pixel as a flat index
        ``y * span + x``, ascending, so a pixel's rank is its row-major
        position among them; ``span`` is one more than the largest x of any
        link's origin or far end, so it bounds every footprint x.  ``mask``
        is the pair's pixel union as ``(bits, low, count)``: bit ``i`` of
        the int ``bits`` stands for rank ``low + i``, ``low`` is the pair's
        lowest rank (0 for an empty mask) and ``count`` the number of set
        bits.

        Built in one vectorised pass over the ray table.  Each footprint
        ``origin + step * (1..length)`` is expanded for all rows at once,
        keyed pixel-major as ``flat * n_pairs + pair`` (pair ``i`` in
        ``pairs()`` order), then sorted once and deduplicated by a
        neighbour mask (``np.unique`` is far slower on wide keys).  That
        lists every distinct (pixel, pair) in pixel order, so ``ranked`` is
        the flat index where it changes and a pixel's rank is the running
        count of those changes.  Each (pixel, pair) sets its own bit in one
        packed byte buffer that every mask is read from; each temporary is
        freed after its last reader.  Every link pixel, far end included,
        must lie in the non-negative int64 quadrant, or the flat indices
        would collide or wrap.  The masks are immutable, so readers may
        share them.
        """
        pairs = self.pairs()
        if not pairs:
            return 1, np.empty(0, dtype=np.int64), {}
        n_pairs = len(pairs)
        counts = [rows.stop - rows.start for rows in self._rows.values()]
        _, _, direction, ox, oy, length = self._table.T
        dx, dy = np.array([step for _, *step in DIRECTIONS])[direction].T
        # Checked before any far end is computed, since that sum can wrap.
        if (
            min(ox.min(), oy.min()) < 0
            or ((dx < 0) & (length > ox)).any()
            or ((dy < 0) & (length > oy)).any()
        ):
            raise ValueError("link pixels must have non-negative coordinates")
        top = np.iinfo(np.int64).max
        if ((dx > 0) & (length > top - ox)).any() or ((dy > 0) & (length > top - oy)).any():
            raise ValueError("link far ends must fit in int64")
        far_x, far_y = ox + dx * length, oy + dy * length
        span = int(max(ox.max(), far_x.max())) + 1
        size = span * (int(max(oy.max(), far_y.max())) + 1)
        if n_pairs * size > top:
            raise ValueError(f"{n_pairs} pairs of {size} pixels overflow int64 keys")
        del far_x, far_y

        # Pixel k (1-based) of a link is keyed (origin + step * k) * n_pairs
        # + pair: a cumsum of each pixel's step, where a link's first step
        # jumps from the previous link's last key.
        step = (dy * span + dx) * n_pairs
        del dx, dy
        origin = (oy * span + ox) * n_pairs + np.repeat(np.arange(n_pairs), counts)
        drawn = length > 0
        first, last = (origin + step)[drawn], (origin + step * length)[drawn]
        keys = np.repeat(step, length)
        keys[(np.cumsum(length) - length)[drawn]] = first - np.append(0, last[:-1])
        del step, origin, drawn, first, last
        np.cumsum(keys, out=keys)
        keys.sort()
        distinct = np.ones(keys.size, dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        keys = keys[distinct]
        del distinct
        pair = keys % n_pairs
        flat = np.floor_divide(keys, n_pairs, out=keys)
        # Rank: the count of pixel changes up to a (pixel, pair), less one.
        # Each pair's ranks ascend along the keys, one per pixel.
        changed = np.ones(flat.size, dtype=bool)
        changed[1:] = flat[1:] != flat[:-1]
        ranked = flat[changed]
        del flat, keys
        rank = changed.astype(np.int64)
        del changed
        np.cumsum(rank, out=rank)
        rank -= 1
        npix = np.bincount(pair, minlength=n_pairs)
        low = np.full(n_pairs, ranked.size)
        np.minimum.at(low, pair, rank)
        low[npix == 0] = 0
        high = low.copy()
        np.maximum.at(high, pair, rank)
        nbytes = np.where(npix > 0, (high - low) // 8 + 1, 0)
        byte_bounds = np.append(0, np.cumsum(nbytes))
        # Bit i of a mask is bit i % 8 of its byte i // 8 (little-endian),
        # and its bytes start at byte_bounds[pair], so ``rank`` becomes, in
        # place, each bit's position in one buffer of every mask.  Every
        # (pixel, pair) is a distinct bit, so adding them sets each byte as
        # an OR would.
        rank += (8 * byte_bounds[:-1] - low)[pair]
        del pair
        bits = (rank & 7).astype(np.uint8)
        np.left_shift(1, bits, out=bits)
        rank >>= 3
        packed = np.zeros(int(byte_bounds[-1]), dtype=np.uint8)
        np.add.at(packed, rank, bits)
        del rank, bits
        buffer = memoryview(packed)
        # reduceat keeps the sums exact int64; every pair has a link.
        sums = np.add.reduceat(length, np.cumsum(counts) - counts).tolist()
        byte_bounds = byte_bounds.tolist()
        masks = {
            pair: ((int.from_bytes(buffer[b0:b1], "little"), lo, count), links, total)
            for pair, b0, b1, lo, count, links, total in zip(
                pairs, byte_bounds, byte_bounds[1:], low.tolist(), npix.tolist(), counts, sums
            )
        }
        return span, ranked, masks


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
    # An id past int64 is no pixel's label, as 0 is: the check below then
    # reports that isol's first edge pixel, under the isol's own id.
    ids = [isol.id if -(2**63) <= isol.id < 2**63 else 0 for isol in isols]
    own = np.repeat(np.array(ids, dtype=np.int64), counts)
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
    return store._masks[2][_key(a, b)][0][2]


def group_distance(
    store: LinkStore, group_a: Iterable[int], group_b: Iterable[int]
) -> int | float:
    """Connective distance between two disjoint groups of segments.

    The pixel union runs over every cross pair's mask, so shared
    interstitial pixels are not double counted and the result can be well
    below the sum of pair distances.
    """
    set_a, set_b = frozenset(group_a), frozenset(group_b)
    if not set_a or not set_b:
        raise ValueError("groups must be non-empty")
    if set_a & set_b:
        raise ValueError(f"groups overlap: {sorted(set_a & set_b)}")
    linked = [_key(a, b) for a in set_a for b in set_b if _key(a, b) in store._rows]
    if not linked:
        return NO_CONNECTION
    masks = store._masks[2]
    union = _EMPTY
    for pair in linked:
        union = _unite(union, masks[pair][0])
    return union[2]


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
