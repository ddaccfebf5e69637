"""Metamorphic checks: scene changes that the links and the forest must keep.

Rays run in all 8 directions, edge pixels are 4-neighbour and merge ties
go by the smallest ids, so rotating or reflecting the scene, or padding
it with ground, moves every ray-table row and changes nothing else.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from crownmerge import DIRECTIONS, LabeledRaster, LinkStore

from conftest import (
    QUAD_GRID,
    build_bundle,
    label_rasters,
    max_rays,
    mosaic,
    mosaic_rasters,
    synth_rasters,
)

#: The 7 non-identity symmetries of the square as (transpose, flip x, flip
#: y): the labels are transposed first, then flipped along the new axes.
SYMMETRIES = [(t, x, y) for t in (False, True) for x in (False, True) for y in (False, True)][1:]

_STEP_INDEX = {(dx, dy): d for d, (_, dx, dy) in enumerate(DIRECTIONS)}


def _transform(labels: np.ndarray, symmetry) -> np.ndarray:
    transpose, flip_x, flip_y = symmetry
    out = labels.T if transpose else labels
    if flip_x:
        out = out[:, ::-1]
    if flip_y:
        out = out[::-1]
    return out.copy()


def _sorted_rows(store: LinkStore) -> list[tuple[int, ...]]:
    """Every ray-table row of the store, read pair by pair, sorted."""
    return sorted(
        tuple(row) for pair in store.pairs() for row in store.links_between(*pair).tolist()
    )


def _transformed_rows(rows, shape: tuple[int, int], symmetry) -> list[tuple[int, ...]]:
    """``rows`` of a scene of ``shape`` as the symmetry maps them: origins
    moved, direction indices rotated or reflected, all else kept; sorted."""
    transpose, flip_x, flip_y = symmetry
    height, width = shape[::-1] if transpose else shape
    out = []
    for origin, target, d, x, y, length in rows:
        _, dx, dy = DIRECTIONS[d]
        if transpose:
            x, y, dx, dy = y, x, dy, dx
        if flip_x:
            x, dx = width - 1 - x, -dx
        if flip_y:
            y, dy = height - 1 - y, -dy
        out.append((origin, target, _STEP_INDEX[dx, dy], x, y, length))
    return sorted(out)


@settings(max_examples=80, deadline=None)
@given(
    label_rasters() | synth_rasters | mosaic_rasters,
    max_rays,
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 4),
)
@example(LabeledRaster.from_array(QUAD_GRID), None, (1, 0, 2, 3))
@example(mosaic(0, n_cells=40, size=48, valley=1), 2, (0, 3, 0, 1))
@example(LabeledRaster.from_array([[1, 0, 0, 2, 0, 3]]), None, (2, 2, 0, 0))  # 1xN
def test_symmetries_and_padding_keep_the_ray_table_and_forest(raster, max_ray, pad):
    # Every node compares whole: members, ancestors, merge distance, link
    # count, length sum and a_cumulative among its fields.
    base = build_bundle(raster, max_ray=max_ray)
    rows = _sorted_rows(base.store)
    nodes = list(base.hierarchy.nodes())
    for symmetry in SYMMETRIES:
        moved = build_bundle(
            LabeledRaster.from_array(_transform(raster.labels, symmetry)), max_ray=max_ray
        )
        want = _transformed_rows(rows, raster.labels.shape, symmetry)
        assert _sorted_rows(moved.store) == want, symmetry
        assert list(moved.hierarchy.nodes()) == nodes, symmetry
    top, bottom, left, right = pad
    padded_labels = np.pad(raster.labels, ((top, bottom), (left, right)))
    padded = build_bundle(LabeledRaster.from_array(padded_labels), max_ray=max_ray)
    assert _sorted_rows(padded.store) == sorted(
        (origin, target, d, x + left, y + top, length) for origin, target, d, x, y, length in rows
    )
    assert list(padded.hierarchy.nodes()) == nodes
