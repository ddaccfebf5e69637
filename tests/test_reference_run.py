"""A whole run against the oracles: every artifact, byte for byte."""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from crownmerge import LabeledRaster, SCORE_KEYS, dump_text_grid, generate_ring
from crownmerge.cli import PipelineConfig, run_pipeline

from conftest import QUAD_GRID, label_rasters, max_rays, mosaic_rasters, synth_rasters
from oracles import reference_artifacts

#: Both named streams the command line documents, and one ratio stream.
PARAMETERS = ("a_merge", "lw_over_acum", "ratio:l_hat/a_merge")


@settings(max_examples=100, deadline=None)
@given(
    label_rasters() | synth_rasters | mosaic_rasters,
    max_rays,
    st.sampled_from(PARAMETERS),
    st.integers(1, 3),
    st.sampled_from(SCORE_KEYS),
)
@example(LabeledRaster.from_array(QUAD_GRID), None, "a_merge", 2, "mean")
@example(generate_ring(0, outliers=0, size=40).raster, None, "lw_over_acum", 1, "sum")
@example(LabeledRaster.from_array([[0, 0], [0, 0]]), None, "a_merge", 1, "mean")  # no regions
def test_run_pipeline_writes_the_reference_artifacts(
    raster, max_ray, parameter, min_group_size, score_key
):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scene.txt", Path(tmp) / "out"
        path.write_text(dump_text_grid(raster))
        config = PipelineConfig(
            input_path=path,
            out_dir=out,
            parameter=parameter,
            min_group_size=min_group_size,
            max_ray=max_ray,
            score_key=score_key,
            dump_links=True,
        )
        run_pipeline(config)
        got = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    want = reference_artifacts(raster, config)
    assert sorted(got) == sorted(want)
    for name, data in want.items():
        assert got[name] == data, name
