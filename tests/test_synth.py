"""Synthetic scene generators: determinism, truth bookkeeping, geometry."""

from __future__ import annotations

import statistics

import numpy as np
import pytest

from crownmerge import (
    cast_rays,
    extract_isols,
    generate_canopy,
    generate_random,
    generate_ring,
    pair_distance,
    synth,
)


# ---------------------------------------------------------------------------
# random scenes
# ---------------------------------------------------------------------------


def test_random_scene_is_reproducible():
    a = generate_random(7, n_isols=9)
    b = generate_random(7, n_isols=9)
    assert np.array_equal(a.raster.labels, b.raster.labels)
    assert a.truth_groups == b.truth_groups
    assert a.seed == 7


def test_random_scene_seed_changes_layout():
    a = generate_random(1, n_isols=9)
    b = generate_random(2, n_isols=9)
    assert not np.array_equal(a.raster.labels, b.raster.labels)


def test_random_scene_counts_and_truth():
    scene = generate_random(3, n_isols=12)
    assert scene.raster.width == scene.raster.height == 40
    ids = scene.raster.positive_ids()
    assert ids == tuple(range(1, 13))
    assert scene.truth_groups == tuple(frozenset({i}) for i in ids)


def test_random_scene_blobs_are_small():
    scene = generate_random(11, n_isols=10)
    for isol in extract_isols(scene.raster):
        assert 1 <= len(isol.pixels) <= 9


def test_random_scene_empty_and_invalid():
    scene = generate_random(0, n_isols=0)
    assert scene.raster.positive_ids() == ()
    assert scene.truth_groups == ()
    with pytest.raises(ValueError, match="non-negative"):
        generate_random(0, n_isols=-1)


# ---------------------------------------------------------------------------
# ring scenes
# ---------------------------------------------------------------------------


def test_ring_scene_is_reproducible():
    a = generate_ring(4)
    b = generate_ring(4)
    assert np.array_equal(a.raster.labels, b.raster.labels)
    assert a.truth_groups == b.truth_groups


def test_ring_truth_structure():
    scene = generate_ring(0, k=8, gap=2, outliers=3, size=128)
    assert scene.raster.positive_ids() == tuple(range(1, 12))
    assert scene.truth_groups[0] == frozenset(range(1, 9))
    assert scene.truth_groups[1:] == tuple(frozenset({i}) for i in (9, 10, 11))


def test_ring_truth_partitions_labels():
    scene = generate_ring(2, outliers=4, size=192)
    everything = sorted(i for group in scene.truth_groups for i in group)
    assert everything == list(scene.raster.positive_ids())


def test_ring_without_outliers_fits_small_rasters():
    for size in (40, 64):
        scene = generate_ring(0, outliers=0, size=size)
        assert scene.raster.positive_ids() == tuple(range(1, 9))
        assert len(scene.truth_groups) == 1


def test_ring_other_blob_counts_use_circle_layout():
    for k in (3, 5, 6, 12):
        scene = generate_ring(0, k=k, outliers=0, size=128)
        assert scene.raster.positive_ids() == tuple(range(1, k + 1))


def test_ring_validation():
    with pytest.raises(ValueError, match="at least 3"):
        generate_ring(0, k=2)
    with pytest.raises(ValueError, match="gap"):
        generate_ring(0, gap=0)
    with pytest.raises(ValueError, match="outliers"):
        generate_ring(0, outliers=9)
    with pytest.raises(ValueError, match="outliers"):
        generate_ring(0, outliers=-1)
    with pytest.raises(ValueError):
        generate_ring(0, outliers=1, size=96)  # distractors need room


@pytest.mark.parametrize("seed", [0, 1])
def test_ring_blobs_sit_far_from_distractors(seed):
    """Grouping the ring must be much cheaper than reaching any outlier.

    Compared via medians: single stray corridors may come close, but the
    typical ring-ring linkage is at least five times tighter than the
    typical ring-outlier linkage.
    """
    scene = generate_ring(seed, k=8, gap=2, outliers=3, size=128)
    ring = scene.truth_groups[0]
    isols = extract_isols(scene.raster)
    store = cast_rays(scene.raster, isols)
    intra, cross = [], []
    for a, b in store.pairs():
        d = pair_distance(store, a, b)
        if a in ring and b in ring:
            intra.append(d)
        elif (a in ring) != (b in ring):
            cross.append(d)
    assert intra and cross
    assert statistics.median(intra) * 5 < statistics.median(cross)


# ---------------------------------------------------------------------------
# canopy mosaics
# ---------------------------------------------------------------------------


def _canopy_at_once(seed, n_crowns, size, valley):
    """The mosaic from every pixel's distance to every seed at once."""
    seeds = np.random.default_rng(seed).uniform(0, size, (n_crowns, 2))
    ys, xs = np.mgrid[0:size, 0:size]
    distance = (xs[..., None] - seeds[:, 0]) ** 2 + (ys[..., None] - seeds[:, 1]) ** 2
    cells = distance.argmin(-1).astype(np.int64) + 1
    ground = np.zeros(cells.shape, dtype=bool)
    ground[:, :-1] |= cells[:, :-1] != cells[:, 1:]
    ground[:-1, :] |= cells[:-1, :] != cells[1:, :]
    if valley == 2:
        ground[:, 1:] |= cells[:, 1:] != cells[:, :-1]
        ground[1:, :] |= cells[1:, :] != cells[:-1, :]
    cells[ground] = 0
    return cells


@pytest.mark.parametrize("block", [1, 7, synth._BLOCK_DISTANCES])
@pytest.mark.parametrize(
    "args", [(0, 40, 48, 1), (1, 40, 48, 2), (5, 1, 9, 1), (6, 30, 1, 2), (7, 60, 96, 1)]
)
def test_canopy_matches_distances_taken_at_once(monkeypatch, block, args):
    # Block-wise rows (one row, seven distances, the default) change no label.
    monkeypatch.setattr(synth, "_BLOCK_DISTANCES", block)
    labels = generate_canopy(*args).raster.labels
    assert labels.dtype == np.int64
    assert np.array_equal(labels, _canopy_at_once(*args))


def test_canopy_is_reproducible_and_truth_lists_labels_present():
    a = generate_canopy(3, 40, 48, valley=2)
    b = generate_canopy(3, 40, 48, valley=2)
    assert np.array_equal(a.raster.labels, b.raster.labels)
    assert a.seed == 3
    ids = a.raster.positive_ids()
    assert a.truth_groups == b.truth_groups == tuple(frozenset({i}) for i in ids)
    assert set(ids) <= set(range(1, 41))
    assert not np.array_equal(a.raster.labels, generate_canopy(4, 40, 48, 2).raster.labels)


def test_canopy_valleys_split_every_pair_of_crowns():
    labels = generate_canopy(0, 30, 40, valley=1).raster.labels
    right, down = labels[:, 1:], labels[1:, :]
    assert not ((labels[:, :-1] > 0) & (right > 0) & (labels[:, :-1] != right)).any()
    assert not ((labels[:-1, :] > 0) & (down > 0) & (labels[:-1, :] != down)).any()
    assert (labels == 0).any()


def test_canopy_validation():
    with pytest.raises(ValueError, match="n_crowns"):
        generate_canopy(0, 0, 10)
    with pytest.raises(ValueError, match="size"):
        generate_canopy(0, 5, 0)
    with pytest.raises(ValueError, match="valley"):
        generate_canopy(0, 5, 10, valley=3)
