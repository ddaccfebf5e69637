"""Deterministic synthetic scenes with known ground truth.

Three generators: a ring of small blobs with narrow valleys plus far-away
outlier bars (the oversegmented-object analog), scattered random blobs
(each its own truth group), and a canopy-like Voronoi mosaic of crowns
split by 1-2 px valleys.  Every scene is derived exclusively from the
seed through one fixed RNG, so it regenerates bit-identically on any
platform.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .raster_io import LabeledRaster

Cell = tuple[int, int]

_RING_SIDE = 3
_BAR_LEN = 14
#: Corridor between the two west tandem bars; one shared row links them.
_TANDEM_GAP = 20

#: Ring stations for k=8, gap=2 (offsets from the scene center).  An
#: irregular octagon: snapping a regular one to integers leaves every
#: second blob sharing a full row/column/diagonal band with the blob
#: across the hole, which makes the final ring merge one huge step.
#: These stations stagger the bands so cross-hole corridors stay narrow
#: and the ring's merge ladder climbs gradually.
_OCT_STATIONS = ((10, 0), (5, 3), (2, 8), (-3, 4), (-10, 1), (-7, -7), (-2, -6), (7, -3))


@dataclass(frozen=True)
class SynthScene:
    raster: LabeledRaster
    truth_groups: tuple[frozenset[int], ...]
    seed: int


def _rect(x0: int, y0: int, w: int, h: int) -> set[Cell]:
    return {(x, y) for x in range(x0, x0 + w) for y in range(y0, y0 + h)}


def _plus(cx: int, cy: int, arm: int) -> set[Cell]:
    cells = {(cx, cy)}
    for t in range(1, arm + 1):
        cells |= {(cx + t, cy), (cx - t, cy), (cx, cy + t), (cx, cy - t)}
    return cells


def _chebyshev_clear(a: set[Cell], b: set[Cell], min_gap: int) -> bool:
    """True when every cell of a is more than min_gap king-moves from b."""
    for x, y in a:
        for bx, by in b:
            if max(abs(x - bx), abs(y - by)) <= min_gap:
                return False
    return True


def _paint(size: int, blobs: list[set[Cell]]) -> LabeledRaster:
    grid = np.zeros((size, size), dtype=np.int64)
    for label, cells in enumerate(blobs, start=1):
        for x, y in cells:
            if not (0 <= x < size and 0 <= y < size):
                raise ValueError(f"blob {label} leaves the {size}x{size} raster")
            if grid[y, x] != 0:
                raise ValueError(f"blob {label} overlaps blob {int(grid[y, x])}")
            grid[y, x] = label
    return LabeledRaster(width=size, height=size, labels=grid)


# ---------------------------------------------------------------------------
# ring scenes
# ---------------------------------------------------------------------------


def generate_ring(
    seed: int, k: int = 8, gap: int = 2, outliers: int = 3, size: int = 128
) -> SynthScene:
    """A ring of k small blobs (one truth group) plus outlier bars.

    The ring blobs sit on an integer circle with roughly ``gap``-pixel
    valleys between neighbours.  Outliers are flat bars, each larger
    than any ring blob and much farther from the ring than the ring
    blobs are from each other: a west tandem first, then bars near the
    northeast and southeast corners, then east/north/south spares (at
    most 8 in total).

    truth_groups lists the ring ids as one group and each outlier alone.

    Raises:
        ValueError: geometry does not fit the raster, or more than 8
            outliers are requested.
    """
    if k < 3:
        raise ValueError(f"need at least 3 ring blobs, got {k}")
    if gap < 1:
        raise ValueError(f"gap must be at least 1, got {gap}")
    if not 0 <= outliers <= 8:
        raise ValueError(f"outliers must be in 0..8, got {outliers}")
    rng = random.Random(seed)
    cx = cy = size // 2

    stations = _ring_stations(k, gap)
    if stations is None:
        raise ValueError(f"ring of {k} blobs does not fit")
    blobs = [
        _rect(cx + dx - _RING_SIDE // 2, cy + dy - _RING_SIDE // 2, _RING_SIDE, _RING_SIDE)
        for dx, dy in stations
    ]

    for index in range(outliers):
        blobs.append(_place_outlier(rng, size, cx, cy, stations, index))

    raster = _paint(size, blobs)
    truth = [frozenset(range(1, k + 1))]
    truth.extend(frozenset({k + 1 + j}) for j in range(outliers))
    return SynthScene(raster=raster, truth_groups=tuple(truth), seed=seed)


def _ring_stations(k: int, gap: int) -> list[tuple[int, int]] | None:
    if k == 8 and gap == 2:
        return list(_OCT_STATIONS)
    base = math.ceil(k * (_RING_SIDE + gap) / (2.0 * math.pi))
    for radius in range(base, base + 5):
        stations = []
        for j in range(k):
            theta = 2.0 * math.pi * j / k
            stations.append(
                (round(radius * math.cos(theta)), round(radius * math.sin(theta)))
            )
        blobs = [
            _rect(dx - _RING_SIDE // 2, dy - _RING_SIDE // 2, _RING_SIDE, _RING_SIDE)
            for dx, dy in stations
        ]
        ok = all(
            _chebyshev_clear(blobs[i], blobs[j], 1)
            for i in range(k)
            for j in range(i + 1, k)
        )
        if ok:
            return stations
    return None


def _place_outlier(
    rng: random.Random,
    size: int,
    cx: int,
    cy: int,
    stations: list[tuple[int, int]],
    index: int,
) -> set[Cell]:
    """The index-th outlier bar, in a fixed sequence of stations.

    0/1: west tandem aligned with the westmost ring blob's rows; the far
    bar offset so two of its rows still see that blob past the near bar.
    2/3: corner bars diagonal to the northeast-most and southeast-most
    ring blobs, overlapping each other in two columns.
    4..7: east, north, south, far-east spares.
    """
    half = size // 2 - 2
    jit = rng.randint(0, 2)

    if index in (0, 1):
        wx, wy = min(stations, key=lambda s: (s[0], s[1]))
        budget = half + wx - 2 * _BAR_LEN - 4 - jit
        gap = min(_TANDEM_GAP, max(6, budget - 26))
        ray = budget - gap
        if ray < 8:
            raise ValueError(f"west outlier tandem does not fit at size {size}")
        off = ray + 2
        if index == 0:
            return _rect(cx + wx - off - _BAR_LEN, cy + wy + 1, _BAR_LEN, 3)
        off += _BAR_LEN + gap
        return _rect(cx + wx - off - _BAR_LEN, cy + wy - 1, _BAR_LEN, 3)

    if index in (2, 3):
        nx, ny = max(stations, key=lambda s: (s[0] - s[1], s[0]))
        sx, sy = max(stations, key=lambda s: (s[0] + s[1], s[0]))
        u = min(half - 4 - nx, half - 4 + ny, half - 4 - sy + sx - nx) - jit
        u2 = nx - sx + u
        if u < _BAR_LEN + 10 or u2 < _BAR_LEN + 10:
            raise ValueError(f"corner outliers do not fit at size {size}")
        if index == 2:
            return _rect(cx + nx + u - 11, cy + ny - u - 2, _BAR_LEN, 3)
        return _rect(cx + sx + u2 + 1, cy + sy + u2 - 11, 3, _BAR_LEN)

    ray = half - 14 - _BAR_LEN - 4 - jit
    if ray < 8:
        raise ValueError(f"outlier {index} does not fit at size {size}")
    offset = 15 + ray
    if index == 4:
        return _rect(cx + offset, cy - 1, _BAR_LEN, 2)
    if index == 5:
        return _rect(cx - 1, cy - offset - _BAR_LEN + 1, 2, _BAR_LEN)
    if index == 6:
        return _rect(cx - 1, cy + offset, 2, _BAR_LEN)
    return _rect(cx + offset, cy + 1, _BAR_LEN, 2)


# ---------------------------------------------------------------------------
# random scatter scenes
# ---------------------------------------------------------------------------


def generate_random(seed: int, n_isols: int, size: int = 40) -> SynthScene:
    """Scatter n_isols small non-overlapping blobs; each is its own group.

    Blobs are little rectangles or plus shapes and may touch (distance 0
    is a legitimate edge case downstream) but never overlap.

    Raises:
        ValueError: the blobs cannot be placed within a retry budget.
    """
    if n_isols < 0:
        raise ValueError(f"n_isols must be non-negative, got {n_isols}")
    rng = random.Random(seed)
    occupied: set[Cell] = set()
    blobs: list[set[Cell]] = []
    for _ in range(n_isols):
        for _attempt in range(500):
            if rng.random() < 0.25:
                arm = rng.randint(1, 2)
                x = rng.randrange(arm, size - arm)
                y = rng.randrange(arm, size - arm)
                cells = _plus(x, y, arm)
            else:
                w = rng.randint(1, 3)
                h = rng.randint(1, 3)
                x = rng.randrange(0, size - w + 1)
                y = rng.randrange(0, size - h + 1)
                cells = _rect(x, y, w, h)
            if not cells & occupied:
                occupied |= cells
                blobs.append(cells)
                break
        else:
            raise ValueError(
                f"could not place {n_isols} blobs on a {size}x{size} raster"
            )
    raster = _paint(size, blobs)
    truth = tuple(frozenset({i}) for i in range(1, n_isols + 1))
    return SynthScene(raster=raster, truth_groups=truth, seed=seed)


# ---------------------------------------------------------------------------
# canopy mosaics
# ---------------------------------------------------------------------------

#: Distances computed per block of rows, at most this many (or one row).
_BLOCK_DISTANCES = 1 << 20


def generate_canopy(seed: int, n_crowns: int, size: int, valley: int = 1) -> SynthScene:
    """A Voronoi mosaic of ``n_crowns`` labels on ``size``², split by valleys.

    Each pixel takes the label (1..n_crowns) of its nearest of ``n_crowns``
    seed points drawn uniformly from ``numpy.random.default_rng(seed)``
    (ties go to the lower label); then every pixel whose right or lower
    neighbour has another label is set to 0, and with ``valley=2`` also
    every pixel whose left or upper one has, so the valleys are 1 or 2 px
    wide.  A crown can vanish into the valleys or split into fragments, as
    in a canopy scene.  Distances are taken a block of rows at a time, so
    memory stays within a few times ``size * n_crowns`` floats.

    truth_groups lists each label present as its own group.

    Raises:
        ValueError: ``n_crowns`` or ``size`` is below 1, or ``valley`` is
            not 1 or 2.
    """
    if n_crowns < 1:
        raise ValueError(f"n_crowns must be at least 1, got {n_crowns}")
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    if valley not in (1, 2):
        raise ValueError(f"valley must be 1 or 2, got {valley}")
    seeds = np.random.default_rng(seed).uniform(0, size, (n_crowns, 2))
    axis = np.arange(size)[:, None]
    dx2, dy2 = (axis - seeds[:, 0]) ** 2, (axis - seeds[:, 1]) ** 2
    cells = np.empty((size, size), dtype=np.int64)
    rows = max(1, _BLOCK_DISTANCES // (size * n_crowns))
    for y in range(0, size, rows):
        cells[y : y + rows] = (dx2 + dy2[y : y + rows, None]).argmin(-1) + 1
    ground = np.zeros(cells.shape, dtype=bool)
    ground[:, :-1] |= cells[:, :-1] != cells[:, 1:]
    ground[:-1, :] |= cells[:-1, :] != cells[1:, :]
    if valley == 2:
        ground[:, 1:] |= cells[:, 1:] != cells[:, :-1]
        ground[1:, :] |= cells[1:, :] != cells[:-1, :]
    cells[ground] = 0
    present = np.flatnonzero(np.bincount(cells.ravel(), minlength=1)[1:]) + 1
    truth = tuple(frozenset({label}) for label in present.tolist())
    return SynthScene(raster=LabeledRaster.from_array(cells), truth_groups=truth, seed=seed)
