"""Compactness ranking of candidate groups.

A candidate's pixels are reduced to absolute deviations from their
centroid; the ratio of mean to maximum deviation lands in [0, 1] and is
small for tight round shapes, large for smeared-out ones. Candidates are
reported best (smallest) first.  The sum-to-maximum ratio is kept
alongside because summary tables elsewhere use that flavour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .hac import Hierarchy, group_pixels
from .raster_io import Isol

SCORE_KEYS = ("mean", "sum")


@dataclass(frozen=True)
class DispersionStats:
    centroid: tuple[float, float]
    sum_abs_dev: float
    mean_abs_dev: float
    max_abs_dev: float
    score: float
    pixel_count: int

    @property
    def sum_over_max(self) -> float:
        return self.sum_abs_dev / self.max_abs_dev if self.max_abs_dev > 0 else 0.0


def score_cluster(pixels: np.ndarray | Iterable[tuple[float, float]]) -> DispersionStats:
    """Dispersion summary of a point set.

    Accepts an ``(n, 2)`` array of (x, y) rows or any finite collection of
    (x, y) points, integer or real, and sums them in ascending ``(x, y)``
    order, whatever order they come in.

    Raises:
        ValueError: the collection is empty.
    """
    pts = np.asarray(pixels if isinstance(pixels, np.ndarray) else list(pixels), dtype=float)
    if pts.size == 0:
        raise ValueError("cannot score an empty pixel set")
    return _score_sorted(pts[np.lexsort((pts[:, 1], pts[:, 0]))])


def _score_sorted(pts: np.ndarray) -> DispersionStats:
    """``score_cluster`` of a non-empty float array already ascending by ``(x, y)``."""
    centroid = pts.mean(axis=0)
    devs = np.hypot(pts[:, 0] - centroid[0], pts[:, 1] - centroid[1])
    sum_dev = float(devs.sum())
    max_dev = float(devs.max())
    mean_dev = sum_dev / len(pts)
    score = mean_dev / max_dev if max_dev > 0 else 0.0
    return DispersionStats(
        centroid=(float(centroid[0]), float(centroid[1])),
        sum_abs_dev=sum_dev,
        mean_abs_dev=mean_dev,
        max_abs_dev=max_dev,
        score=score,
        pixel_count=len(pts),
    )


@dataclass(frozen=True)
class RankedCandidate:
    node_id: int
    stats: DispersionStats


def rank_candidates(
    hierarchy: Hierarchy,
    isols: Mapping[int, Isol],
    terminals: Iterable[int],
    key: str = "mean",
) -> list[RankedCandidate]:
    """Score and sort candidate nodes, most compact first.

    Args:
        key: ``mean`` ranks by mean/max deviation, ``sum`` by sum/max.

    Ties sort by node id.
    """
    if key not in SCORE_KEYS:
        raise ValueError(f"score key must be one of {SCORE_KEYS}, got {key!r}")
    # group_pixels rows ascend by (x, y), and so do their float casts.
    scored = [
        RankedCandidate(node, _score_sorted(group_pixels(hierarchy, isols, node).astype(float)))
        for node in sorted(terminals)
    ]
    value = (lambda s: s.score) if key == "mean" else (lambda s: s.sum_over_max)
    scored.sort(key=lambda c: (value(c.stats), c.node_id))
    return scored
