"""Pipeline orchestration and the click commands."""

from __future__ import annotations

import gc
import hashlib
import json
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crownmerge import (
    LabeledRaster,
    dump_pgm,
    dump_text_grid,
    generate_random,
    generate_ring,
    hac,
    links,
    load_raster,
    raster_io,
)
from crownmerge.cli import PipelineConfig, REPORT_SCHEMA, main, run_pipeline

from conftest import QUAD_GRID, label_rasters, mosaic, mosaic_rasters, synth_rasters
from oracles import brute_force_isols, paint_clusters


def write_quad(tmp_path: Path) -> Path:
    raster = LabeledRaster.from_array(QUAD_GRID)
    path = tmp_path / "scene.txt"
    path.write_text(dump_text_grid(raster))
    return path


def test_run_pipeline_quad_artifacts(tmp_path):
    out = tmp_path / "out"
    config = PipelineConfig(
        input_path=write_quad(tmp_path), out_dir=out, min_group_size=2
    )
    result = run_pipeline(config)

    assert result.isol_count == 4
    assert result.f_significance == 4
    assert [c.node_id for c in result.candidates] == [6]

    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == REPORT_SCHEMA
    assert report["parameter"] == "a_merge"
    assert report["isol_count"] == 4
    (candidate,) = report["candidates"]
    assert candidate["rank"] == 1
    assert candidate["node_id"] == 6
    assert candidate["members"] == [1, 2, 3, 4]
    assert candidate["pixel_count"] == 16
    assert 0.0 <= candidate["score"] <= 1.0

    nodes = json.loads((out / "hierarchy.json").read_text())["nodes"]
    assert len(nodes) == 7
    assert nodes[6]["merge_distance"] == 15

    params_lines = (out / "params.csv").read_text().splitlines()
    assert len(params_lines) == 1 + 7

    for isol_id in (1, 2, 3, 4):
        assert (out / "traces" / f"{isol_id}.csv").exists()
    assert (out / "histogram.csv").read_text().splitlines()[0] == (
        "count_value,num_nodes"
    )

    with open(out / "clusters.pgm", "rb") as fh:
        painted = load_raster(fh, "pgm")
    # Rank 1 paints every member segment with label 1.
    assert painted.label_at(1, 1) == 1
    assert painted.label_at(7, 1) == 1
    assert painted.label_at(6, 5) == 1
    assert painted.label_at(0, 0) == 0


def test_run_pipeline_default_min_size_yields_no_candidates(tmp_path):
    # Four segments cannot satisfy the default seven-member floor.
    out = tmp_path / "out"
    result = run_pipeline(PipelineConfig(input_path=write_quad(tmp_path), out_dir=out))
    assert result.candidates == []
    report = json.loads((out / "report.json").read_text())
    assert report["candidates"] == []
    with open(out / "clusters.pgm", "rb") as fh:
        painted = load_raster(fh, "pgm")
    assert int(painted.labels.max()) == 0


def test_run_pipeline_empty_scene(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n0 0\n")
    out = tmp_path / "out"
    result = run_pipeline(PipelineConfig(input_path=path, out_dir=out, dump_links=True))
    assert len(result.hierarchy) == 0
    assert result.isol_count == 0
    report = json.loads((out / "report.json").read_text())
    assert report["isol_count"] == 0
    assert report["candidates"] == []
    assert json.loads((out / "hierarchy.json").read_text())["nodes"] == []
    assert (out / "params.csv").read_text().startswith("node_id,")
    assert (out / "links.csv").read_text() == (
        "origin_isol,target_isol,direction,origin_x,origin_y,length\n"
    )
    with open(out / "clusters.pgm", "rb") as fh:
        painted = load_raster(fh, "pgm")
    assert np.array_equal(painted.labels, np.zeros((2, 2), dtype=np.int64))


def _artifact_digest(out_dir: Path) -> str:
    """SHA-256 over every file under ``out_dir`` by relative path: path,
    size, bytes (as ``perfbench/workloads.py`` ``artifact_digest``)."""
    h = hashlib.sha256()
    by_name = {p.relative_to(out_dir).as_posix(): p for p in out_dir.rglob("*") if p.is_file()}
    for rel, path in sorted(by_name.items()):
        data = path.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


@pytest.mark.parametrize(
    "args, digest",
    [
        ((0, 40, 48, 1), "2c711047dd3904c0d257ead52b49404c474547dc19e2752575b46a94345a469d"),
        ((1, 40, 48, 2), "e2548a7b4739e1885e1690839a84b587954559d5900313f8aebd329dd4f6bb7e"),
    ],
)
def test_run_pipeline_canopy_artifacts_are_pinned(tmp_path, args, digest):
    # Canopy-shaped scenes: short rays, heavily overlapping footprints and
    # many distance ties.  Any change to a merge, a parameter, a cut or a
    # byte of any artifact changes the digest.
    path = tmp_path / "scene.txt"
    path.write_text(dump_text_grid(mosaic(*args)))
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(input_path=path, out_dir=out, dump_links=True))
    assert _artifact_digest(out) == digest


@settings(max_examples=100, deadline=None)
@given(label_rasters() | synth_rasters | mosaic_rasters, st.integers(1, 3))
@example(LabeledRaster.from_array(QUAD_GRID), 2)
def test_clusters_pgm_matches_painting_oracle(raster, min_group_size):
    # Small floors leave candidates to paint, some of them single segments.
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scene.txt", Path(tmp) / "out"
        path.write_text(dump_text_grid(raster))
        result = run_pipeline(
            PipelineConfig(input_path=path, out_dir=out, min_group_size=min_group_size)
        )
        got = (out / "clusters.pgm").read_bytes()
    groups = [
        (rank, sorted(result.hierarchy.node(c.node_id).members))
        for rank, c in enumerate(result.candidates, start=1)
    ]
    isols = {isol.id: isol for isol in brute_force_isols(raster)}
    assert got == dump_pgm(paint_clusters(raster, groups, isols))


def _write_random_scene(tmp_path: Path) -> Path:
    path = tmp_path / "scene.txt"
    path.write_text(dump_text_grid(generate_random(3, n_isols=40, size=64).raster))
    return path


def _check_input_released_at_agglomerate(monkeypatch) -> list:
    """Watch the labels of every raster ``load_raster`` returns (and any
    array they view), and assert at each ``agglomerate`` call that all of
    them are gone.  Returns the weakrefs, so a test can check that the
    watch ran."""
    refs = []
    load, agglomerate = raster_io.load_raster, hac.agglomerate

    def load_and_watch(*args):
        raster = load(*args)
        array = raster.labels
        while isinstance(array, np.ndarray):
            refs.append(weakref.ref(array))
            array = array.base
        return raster

    def agglomerate_once_released(*args):
        gc.collect()
        assert refs and all(ref() is None for ref in refs)
        return agglomerate(*args)

    monkeypatch.setattr(raster_io, "load_raster", load_and_watch)
    monkeypatch.setattr(hac, "agglomerate", agglomerate_once_released)
    return refs


def test_run_pipeline_releases_the_input_raster_before_painting(tmp_path, monkeypatch):
    # Nothing after cast_rays reads the labels, so they are gone before
    # agglomerate, and so before clusters.pgm is painted on a full canvas:
    # the run holds one full-size label array at a time.
    path = _write_random_scene(tmp_path)
    refs = _check_input_released_at_agglomerate(monkeypatch)
    run_pipeline(PipelineConfig(input_path=path, out_dir=tmp_path / "out", min_group_size=2))
    assert refs and (tmp_path / "out" / "clusters.pgm").exists()


def test_trace_releases_the_input_raster_before_agglomerating(tmp_path, monkeypatch):
    path = _write_random_scene(tmp_path)
    refs = _check_input_released_at_agglomerate(monkeypatch)
    result = CliRunner().invoke(main, ["trace", "--input", str(path), "--isol", "1"])
    assert result.exit_code == 0, result.output
    assert refs


@pytest.mark.parametrize("dump_links", [False, True])
def test_link_store_is_released_before_painting(tmp_path, monkeypatch, dump_links):
    # The ray table and its mask table have no reader after agglomerate
    # (links.csv is formatted before it), so no store is alive by the time
    # clusters.pgm is painted.
    path = _write_random_scene(tmp_path)
    refs = []
    cast_rays, paint = links.cast_rays, raster_io.write_cluster_raster

    def cast_and_watch(*args, **kwargs):
        store = cast_rays(*args, **kwargs)
        refs.append(weakref.ref(store))
        return store

    def paint_once_released(*args):
        gc.collect()
        assert refs and all(ref() is None for ref in refs)
        return paint(*args)

    monkeypatch.setattr(links, "cast_rays", cast_and_watch)
    monkeypatch.setattr(raster_io, "write_cluster_raster", paint_once_released)
    out = tmp_path / "out"
    run_pipeline(
        PipelineConfig(input_path=path, out_dir=out, min_group_size=2, dump_links=dump_links)
    )
    assert (out / "clusters.pgm").exists()
    assert (out / "links.csv").exists() == dump_links


def test_run_pipeline_lw_stream(tmp_path):
    out = tmp_path / "out"
    config = PipelineConfig(
        input_path=write_quad(tmp_path),
        out_dir=out,
        parameter="lw_over_acum",
        min_group_size=2,
    )
    run_pipeline(config)
    assert json.loads((out / "report.json").read_text())["parameter"] == "lw_over_acum"


def test_config_validation(tmp_path):
    def config(**kwargs) -> PipelineConfig:
        return PipelineConfig(input_path=tmp_path / "x", out_dir=tmp_path, **kwargs)

    config().validate()
    with pytest.raises(ValueError, match="unknown format"):
        config(fmt="bmp").validate()
    with pytest.raises(ValueError, match="significance_p"):
        config(significance_p=1.5).validate()
    with pytest.raises(ValueError, match="min_group_size"):
        config(min_group_size=0).validate()
    with pytest.raises(ValueError, match="max_ray"):
        config(max_ray=0).validate()
    with pytest.raises(ValueError, match="score_key"):
        config(score_key="max").validate()
    with pytest.raises(ValueError, match="unknown parameter stream"):
        config(parameter="girth").validate()


# ---------------------------------------------------------------------------
# click commands
# ---------------------------------------------------------------------------


def test_run_command(tmp_path):
    path = write_quad(tmp_path)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        ["run", "--input", str(path), "--out", str(out), "--min-size", "2",
         "--dump-links"],
    )
    assert result.exit_code == 0, result.output
    assert "4 regions, 1 candidates, f_significance=4" in result.output
    assert (out / "links.csv").exists()


def test_run_command_missing_input(tmp_path):
    result = CliRunner().invoke(
        main, ["run", "--input", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "error:" in result.stderr


def test_run_command_rejects_label_beyond_int64(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("1 0 99999999999999999999\n")
    result = CliRunner().invoke(
        main, ["run", "--input", str(path), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2
    assert "(row 1, column 3)" in result.stderr


def test_run_command_rejects_pgm_value_beyond_int64(tmp_path):
    path = tmp_path / "huge.pgm"
    path.write_bytes(b"P2\n2 1\n255\n0 99999999999999999999\n")
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["run", "--input", str(path), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "(row 1, column 2)" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("case", ["run-input-dir", "run-out-file", "trace-input-dir"])
def test_bad_paths_exit_2(tmp_path, case):
    scene = write_quad(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    args = {
        "run-input-dir": ["run", "--input", str(tmp_path), "--out", str(tmp_path / "o")],
        "run-out-file": ["run", "--input", str(scene), "--out", str(blocker)],
        "trace-input-dir": ["trace", "--input", str(tmp_path), "--isol", "1"],
    }[case]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ")
    assert str(tmp_path) in result.stderr


@pytest.mark.parametrize(
    "formatter",
    [
        "raster_io.dump_pgm",
        "hac.hierarchy_records",
        "params.dump_params_csv",
        "termination.dump_trace_csv",
        "termination.dump_histogram_csv",
        "links.dump_links_csv",
    ],
)
def test_run_leaves_no_output_when_a_formatter_fails(tmp_path, monkeypatch, formatter):
    # Every artifact is formatted before --out is made, so a failure in any
    # of them (dump_pgm's is real: more than 65535 candidates) leaves none.
    def refuse(*args):
        raise ValueError(f"{formatter} refused")

    monkeypatch.setattr(f"crownmerge.{formatter}", refuse)
    out = tmp_path / "o"
    result = CliRunner().invoke(
        main, ["run", "--input", str(write_quad(tmp_path)), "--out", str(out), "--dump-links"]
    )
    assert result.exit_code == 2
    assert f"{formatter} refused" in result.stderr
    assert not out.exists()


def test_run_writes_into_an_existing_out(tmp_path):
    # An existing --out is written into: every artifact replaces its
    # namesake (a longer stale report.json here), and a file the run does
    # not write stays as it was.
    scene = write_quad(tmp_path)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    (out / "traces").mkdir(parents=True)
    (out / "traces" / "notes.txt").write_text("kept\n")
    (out / "report.json").write_text("stale\n" * 1000)
    for target in (fresh, out):
        run_pipeline(
            PipelineConfig(input_path=scene, out_dir=target, min_group_size=2, dump_links=True)
        )

    def files(root: Path) -> dict[str, bytes]:
        return {
            p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()
        }

    assert files(out) == {**files(fresh), "traces/notes.txt": b"kept\n"}


def test_run_command_rejects_bad_parameter(tmp_path):
    path = write_quad(tmp_path)
    result = CliRunner().invoke(
        main,
        ["run", "--input", str(path), "--out", str(tmp_path / "o"),
         "--param", "bogus"],
    )
    assert result.exit_code == 2
    assert "unknown parameter stream" in result.stderr


def test_trace_command(tmp_path):
    path = write_quad(tmp_path)
    result = CliRunner().invoke(main, ["trace", "--input", str(path), "--isol", "1"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0] == "j,node_id,f,D,Cmax,is_break"
    assert len(lines) == 3  # two merges along segment 1's path
    assert lines[1].startswith("0,4,")
    assert lines[2].startswith("1,6,")


def test_trace_command_unknown_segment(tmp_path):
    path = write_quad(tmp_path)
    result = CliRunner().invoke(main, ["trace", "--input", str(path), "--isol", "9"])
    assert result.exit_code == 2
    assert "no region with id 9" in result.stderr


@pytest.mark.parametrize("choice", ["a_merge", "lw_over_acum"])
def test_trace_command_prints_what_run_writes(tmp_path, choice):
    # trace traces one region's path only; its bytes are still those of
    # that region's traces/<id>.csv in a full run.
    scene = generate_ring(0, outliers=4, size=192)
    path = tmp_path / "scene.txt"
    path.write_text(dump_text_grid(scene.raster))
    run_pipeline(PipelineConfig(input_path=path, out_dir=tmp_path / "out", parameter=choice))
    written = sorted((tmp_path / "out" / "traces").iterdir())
    assert [p.name for p in written] == sorted(f"{i}.csv" for i in scene.raster.positive_ids())
    runner = CliRunner()
    for trace_file in written:
        args = ["trace", "--input", str(path), "--param", choice, "--isol", trace_file.stem]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.stdout_bytes == trace_file.read_bytes(), trace_file.name


@pytest.mark.parametrize("max_ray", ["0", "-5"])
def test_trace_command_rejects_bad_max_ray(tmp_path, max_ray):
    path = write_quad(tmp_path)
    result = CliRunner().invoke(
        main, ["trace", "--input", str(path), "--isol", "1", "--max-ray", max_ray]
    )
    assert result.exit_code == 2
    assert "max_ray must be >= 1" in result.stderr
    assert result.stdout == ""


def test_synth_command_ring(tmp_path):
    out = tmp_path / "scene"
    result = CliRunner().invoke(
        main,
        ["synth", "--kind", "ring", "--seed", "3", "--outliers", "2",
         "--size", "128", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    truth = json.loads((out / "truth.json").read_text())
    assert truth["seed"] == 3
    assert truth["truth_groups"][0] == list(range(1, 9))

    with open(out / "scene.txt", "rb") as fh:
        raster = load_raster(fh, "text-grid")
    expected = generate_ring(3, outliers=2, size=128)
    assert np.array_equal(raster.labels, expected.raster.labels)


def test_synth_command_rejects_impossible_geometry(tmp_path):
    result = CliRunner().invoke(
        main, ["synth", "--k", "2", "--out", str(tmp_path / "s")]
    )
    assert result.exit_code == 2
    assert "at least 3" in result.stderr


def test_synth_command_out_under_a_file_exits_2(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    result = CliRunner().invoke(
        main, ["synth", "--kind", "ring", "--out", str(blocker / "scene")]
    )
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ")
    assert str(blocker) in result.stderr


# ---------------------------------------------------------------------------
# end to end on planted scenes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("choice", ["a_merge", "lw_over_acum"])
def test_pipeline_recovers_planted_ring(tmp_path, seed, choice):
    # Other seeds jitter the distractor placement; the planted group must
    # still surface as the top candidate under either stream.
    scene = generate_ring(seed, k=8, gap=2, outliers=4, size=192)
    path = tmp_path / "scene.txt"
    path.write_text(dump_text_grid(scene.raster))
    result = run_pipeline(
        PipelineConfig(input_path=path, out_dir=tmp_path / "out", parameter=choice)
    )
    assert result.candidates, "no candidates survived"
    best = result.hierarchy.node(result.candidates[0].node_id).members
    assert best == scene.truth_groups[0]


def test_default_ring_scene_splits_the_ring_under_a_merge(tmp_path):
    # The scene `crownmerge synth --kind ring` writes by default (3
    # outliers on 128x128): a_merge cuts the ring into two halves of 4, so
    # no group reaches the default --min-size 7 and the run has no
    # candidate, while lw_over_acum keeps the ring whole and ranks it
    # first.  This pins today's outcome; the README demo uses 4 outliers
    # on 192x192, where both streams rank the ring first.
    path = tmp_path / "scene.txt"

    def run(**kwargs):
        return run_pipeline(PipelineConfig(input_path=path, out_dir=tmp_path / "out", **kwargs))

    for seed in range(20):
        scene = generate_ring(seed)
        ring = scene.truth_groups[0]
        path.write_text(dump_text_grid(scene.raster))
        assert run().candidates == [], seed
        every = run(min_group_size=1)
        terminals = [every.hierarchy.node(c.node_id).members for c in every.candidates]
        assert sorted(map(len, terminals)) == [1, 2, 4, 4], seed
        halves = [members for members in terminals if len(members) == 4]
        assert halves[0] | halves[1] == ring, seed
        lw = run(parameter="lw_over_acum")
        assert lw.hierarchy.node(lw.candidates[0].node_id).members == ring, seed
