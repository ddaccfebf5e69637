"""Shared fixtures: a reusable corpus of small random scenes, the frozen
hand-checked quad scene, and a terminal summary line per acceptance test.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from crownmerge import (
    Hierarchy,
    Isol,
    LabeledRaster,
    LinkStore,
    SynthScene,
    agglomerate,
    cast_rays,
    extract_isols,
    generate_canopy,
    generate_random,
)

# A failing hypothesis test imports hypothesis's patch writer, which
# imports libcst where that is installed; with some mypy_extensions
# versions that import warns of a deprecation, which ``-W error`` turns
# into an internal error ending the whole session.  Import it once here,
# that warning ignored, so a failure stays one failed test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

CORPUS_SIZE = 100


@dataclass(frozen=True)
class SceneBundle:
    """A generated scene with the pipeline stages everyone needs."""

    scene: SynthScene
    isols: list[Isol]
    store: LinkStore
    hierarchy: Hierarchy


def build_bundle(
    raster: LabeledRaster, scene: SynthScene | None = None, max_ray: int | None = None
) -> SceneBundle:
    isols = extract_isols(raster)
    store = cast_rays(raster, isols, max_ray=max_ray)
    return SceneBundle(
        scene=scene, isols=isols, store=store, hierarchy=agglomerate(isols, store)
    )


#: Rays unlimited or capped at 1..6 pixels, so that short caps drop links.
max_rays = st.none() | st.integers(min_value=1, max_value=6)

#: Random scenes of 1..20 blobs on 20..40 px squares.
synth_rasters = st.builds(
    lambda seed, n_isols, size: generate_random(seed, n_isols=n_isols, size=size).raster,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_isols=st.integers(min_value=1, max_value=20),
    size=st.integers(min_value=20, max_value=40),
)


def mosaic(seed: int, n_cells: int, size: int, valley: int) -> LabeledRaster:
    """The raster of ``generate_canopy(seed, n_cells, size, valley)``."""
    return generate_canopy(seed, n_cells, size, valley).raster


def _canopy(seed: int, n_cells: int, cell_px: int, valley: int) -> LabeledRaster:
    """A mosaic of ``n_cells`` cells of about ``cell_px`` px² each, on a
    square of side sqrt(n_cells * cell_px) clipped to 16..48."""
    size = min(max(round((n_cells * cell_px) ** 0.5), 16), 48)
    return mosaic(seed, n_cells, size, valley)


#: Canopy-shaped scenes: 8..40 cells of 32..100 px² (crowns ~6-10 px
#: across) tiling 16..48 px squares.  Both are drawn uniformly, so a third
#: of the scenes have 30-40 cells, mostly on 40-48 px.  Most rays cross a
#: valley in 0-2 px, so pair footprints overlap heavily and many merges
#: tie on distance.
mosaic_rasters = st.builds(
    _canopy,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_cells=st.sampled_from(range(8, 41)),
    cell_px=st.sampled_from(range(32, 101)),
    valley=st.sampled_from((1, 2)),
)

random_bundles = st.builds(
    lambda raster, max_ray: build_bundle(raster, max_ray=max_ray),
    synth_rasters,
    max_rays,
)

#: Label values past the uint8, uint16 and uint32 ranges up to int64 max.
LABEL_VALUES = (1, 2, 3, 255, 256, 65535, 65536, 2**32 + 1, 2**63 - 1)


@st.composite
def label_rasters(draw) -> LabeledRaster:
    """Raw label rasters, 1xN, Nx1 or up to 12x12, about half ground.

    Cells draw from a palette of 1-4 labels, so segments touch each other,
    split into disconnected patches and sit on the border at random.
    """
    height, width = draw(
        st.tuples(st.just(1), st.integers(1, 24))
        | st.tuples(st.integers(1, 24), st.just(1))
        | st.tuples(st.integers(2, 12), st.integers(2, 12))
    )
    palette = draw(
        st.lists(
            st.sampled_from(LABEL_VALUES) | st.integers(1, 2**63 - 1),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    cells = draw(
        st.lists(
            st.just(0) | st.sampled_from(palette),
            min_size=height * width,
            max_size=height * width,
        )
    )
    return LabeledRaster.from_array(
        np.array(cells, dtype=np.int64).reshape(height, width)
    )


@pytest.fixture(scope="session")
def corpus() -> list[SceneBundle]:
    """100 random 40x40 scenes with 1..12 segments each."""
    bundles = []
    for seed in range(CORPUS_SIZE):
        scene = generate_random(seed, n_isols=1 + seed % 12, size=40)
        bundles.append(build_bundle(scene.raster, scene))
    return bundles


# Hand-verified 13x7 scene: four 2x2 blocks, five linked pairs, and a
# distance tie on the first merge.  Distances were counted by hand:
# (1,2)=8  (1,3)=6  (1,4)=2  (2,3)=2  (3,4)=3, no (2,4) links at all.
QUAD_GRID = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 4, 4, 0, 0, 0, 3, 3, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 3, 3, 0, 0, 0, 0, 0],
]

QUAD_PAIR_DISTANCES = {(1, 2): 8, (1, 3): 6, (1, 4): 2, (2, 3): 2, (3, 4): 3}


@pytest.fixture(scope="session")
def quad() -> SceneBundle:
    return build_bundle(LabeledRaster.from_array(QUAD_GRID))


# ---------------------------------------------------------------------------
# acceptance summary
# ---------------------------------------------------------------------------

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows: dict[int, tuple[str, str]] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                number = int(match.group(1))
                name = match.group(2).replace("_", " ")
                # A later failed phase (teardown) overrides an earlier pass.
                if rows.get(number, ("", "passed"))[1] == "passed":
                    rows[number] = (name, status)
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(rows):
        name, status = rows[number]
        verdict = "PASS" if status == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {number} ({name}): {verdict}")
