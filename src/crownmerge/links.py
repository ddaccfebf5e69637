"""Connective links between segments, found by straight-line ray casting.

From every edge pixel of every segment a ray is cast in each of the 8
compass directions.  The ray walks pixel by pixel (diagonals move one step
in both axes, king-style) across interstitial label-0 pixels and either

* leaves the raster           -> discarded,
* returns to its own segment  -> discarded,
* reaches another segment     -> recorded as a link, which is just the
                                 ray; its pixels are derived where read.

The connective distance between two segments is the number of distinct
interstitial pixels covered by all their links together, so overlapping
rays are only counted once.  Segment pairs with no links are infinitely
far apart.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .raster_io import Isol, LabeledRaster, PixelCoord

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

_STEPS = {name: (dx, dy) for name, dx, dy in DIRECTIONS}

#: Distance value for segment pairs without any connective link.
NO_CONNECTION = math.inf


@dataclass(frozen=True)
class ConnectiveLink:
    """A recorded ray to another segment: ``interstitial`` derives the
    ``length`` ground pixels it crossed after ``origin_pixel`` in ``direction``."""

    origin_isol: int
    target_isol: int
    direction: str
    origin_pixel: PixelCoord
    length: int

    @property
    def interstitial(self) -> tuple[PixelCoord, ...]:
        (px, py), (dx, dy), n = self.origin_pixel, _STEPS[self.direction], self.length
        return tuple(zip(_steps(px, dx, n), _steps(py, dy, n)))


class LinkStore:
    """All links of a scene, grouped by unordered segment pair.

    A link is its ray, so per-pair pixel unions and length sums are
    computed from the links on each call.
    """

    def __init__(self, links_by_pair: Mapping[tuple[int, int], Sequence[ConnectiveLink]]):
        self._links: dict[tuple[int, int], tuple[ConnectiveLink, ...]] = {}
        for pair, links in links_by_pair.items():
            a, b = pair
            if a >= b:
                raise ValueError(f"pair key {pair} must be (low, high) with low < high")
            if not links:
                raise ValueError(f"pair {pair} has an empty link list")
            for link in links:
                if {link.origin_isol, link.target_isol} != {a, b}:
                    raise ValueError(
                        f"link {link.origin_isol}->{link.target_isol} "
                        f"filed under pair {pair}"
                    )
                if link.direction not in _STEPS:
                    raise ValueError(f"link has unknown direction {link.direction!r}")
                if link.length < 0:
                    raise ValueError(f"link has negative length {link.length}")
            self._links[pair] = tuple(links)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Linked segment pairs, sorted."""
        return tuple(sorted(self._links))

    def has_links(self, a: int, b: int) -> bool:
        return _key(a, b) in self._links

    def links_between(self, a: int, b: int) -> tuple[ConnectiveLink, ...]:
        return self._links.get(_key(a, b), ())

    def pair_union(self, a: int, b: int) -> set[PixelCoord]:
        """Distinct interstitial pixels over the pair's links, in a new set the caller owns."""
        links = self.links_between(a, b)
        return set(chain.from_iterable(link.interstitial for link in links))

    def link_stats(self, a: int, b: int) -> tuple[int, int]:
        """(link count, summed link length) for the pair; (0, 0) if unlinked."""
        links = self.links_between(a, b)
        return len(links), sum(link.length for link in links)

    def __len__(self) -> int:
        return len(self._links)


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
            pixels; ``None`` means unlimited.

    Every surviving ray is stored, one link per originating edge pixel and
    direction, even when two rays cover the same pixels; the union-based
    distance is unaffected by such duplicates.

    No ray is walked.  Every labelled pixel gets a key ``line * span +
    position`` on each of four axes (rows, columns, ``x - y`` diagonals,
    ``x + y`` anti-diagonals), and each axis's keys are sorted once.  A
    ray's first labelled pixel is then the next key above (or below) its
    origin's key, found for all edge pixels at once with one
    ``searchsorted`` per direction; it counts only if it lies on the same
    line, and its label and distance follow from the key.  Links are built
    only for rays that reach another segment within ``max_ray``, in the
    order of the segments as given, their sorted edge pixels, then
    ``DIRECTIONS``, so the link order is that of a pixel-by-pixel walk.
    """
    width, height = raster.width, raster.height
    owners: list[int] = []
    origins: list[PixelCoord] = []
    for isol in isols:
        edge = sorted(isol.edge_pixels)
        origins.extend(edge)
        owners.extend([isol.id] * len(edge))
    flat = raster.labels.ravel()
    nonzero = np.flatnonzero(flat)
    if not origins or not nonzero.size:
        return LinkStore({})

    coords = np.fromiter(
        chain.from_iterable(origins), dtype=np.int64, count=2 * len(origins)
    )
    ox, oy = coords[0::2], coords[1::2]
    ys, xs = np.divmod(nonzero, width)
    labelled = flat[nonzero]
    own = np.array(owners, dtype=np.int64)

    # One sorted key array per axis, shared by its two opposite directions.
    axes: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    target = np.zeros((len(origins), len(DIRECTIONS)), dtype=np.int64)
    length = np.zeros_like(target)
    reached = np.zeros(target.shape, dtype=bool)
    for d, (_, dx, dy) in enumerate(DIRECTIONS):
        forward = (dx or dy) > 0
        axis = (dx, dy) if forward else (-dx, -dy)
        if axis not in axes:
            keys, _ = _line_keys(xs, ys, dx, dy, width, height)
            order = np.argsort(keys)
            axes[axis] = (keys[order], labelled[order])
        keys, key_labels = axes[axis]
        origin_key, span = _line_keys(ox, oy, dx, dy, width, height)
        if forward:
            hit = np.searchsorted(keys, origin_key, side="right")
        else:
            hit = np.searchsorted(keys, origin_key, side="left") - 1
        inside = (hit >= 0) & (hit < keys.size)
        hit = hit.clip(0, keys.size - 1)
        hit_key = keys[hit]
        inside &= hit_key // span == origin_key // span
        target[:, d] = key_labels[hit]
        length[:, d] = np.abs(hit_key - origin_key) - 1
        reached[:, d] = inside & (target[:, d] != own)
    if max_ray is not None:
        reached &= length <= max_ray

    found: dict[tuple[int, int], list[ConnectiveLink]] = {}
    rays = np.flatnonzero(reached)
    ray_origin, ray_direction = np.divmod(rays, len(DIRECTIONS))
    for e, d, label, n in zip(
        ray_origin.tolist(),
        ray_direction.tolist(),
        target.ravel()[rays].tolist(),
        length.ravel()[rays].tolist(),
    ):
        link = ConnectiveLink(
            origin_isol=owners[e],
            target_isol=label,
            direction=DIRECTIONS[d][0],
            origin_pixel=origins[e],
            length=n,
        )
        found.setdefault(_key(owners[e], label), []).append(link)
    return LinkStore(found)


def _line_keys(x, y, dx: int, dy: int, width: int, height: int):
    """``(line * span + position, span)`` of pixels on the axis of
    ``(dx, dy)``; the position grows along the axis's positive step and
    ``span`` is the number of positions per line."""
    if dy == 0:
        return y * width + x, width
    if dx == 0:
        return x * height + y, height
    if dx == dy:
        return (x - y + height - 1) * width + x, width
    return (x + y) * width + x, width


def _steps(start: int, step: int, n: int) -> Iterable[int]:
    """The ``n`` coordinates after ``start`` moving by ``step``."""
    if step:
        return range(start + step, start + step * (n + 1), step)
    return repeat(start, n)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def pair_distance(store: LinkStore, a: int, b: int) -> int | float:
    """Connective distance between two segments.

    The count of distinct interstitial pixels over the pair's links; 0 for
    touching segments, ``NO_CONNECTION`` when no link exists.
    """
    if not store.has_links(a, b):
        return NO_CONNECTION
    return len(store.pair_union(a, b))


def group_distance(
    store: LinkStore, group_a: Iterable[int], group_b: Iterable[int]
) -> int | float:
    """Connective distance between two disjoint groups of segments.

    The pixel-set union runs over every cross pair, so shared interstitial
    pixels are not double counted and the result can be well below the sum
    of pair distances.
    """
    set_a, set_b = frozenset(group_a), frozenset(group_b)
    if not set_a or not set_b:
        raise ValueError("groups must be non-empty")
    if set_a & set_b:
        raise ValueError(f"groups overlap: {sorted(set_a & set_b)}")
    union: set[PixelCoord] = set()
    linked = False
    for a in set_a:
        for b in set_b:
            if store.has_links(a, b):
                linked = True
                union |= store.pair_union(a, b)
    return len(union) if linked else NO_CONNECTION


def dump_links_csv(store: LinkStore, stream: IO[str]) -> None:
    """Debug dump: one row per link."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        ["origin_isol", "target_isol", "direction", "origin_x", "origin_y", "length"]
    )
    for pair in store.pairs():
        for link in store.links_between(*pair):
            writer.writerow(
                [
                    link.origin_isol,
                    link.target_isol,
                    link.direction,
                    link.origin_pixel[0],
                    link.origin_pixel[1],
                    link.length,
                ]
            )
