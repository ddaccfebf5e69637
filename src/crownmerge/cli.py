"""Pipeline orchestration and the command line interface.

``run_pipeline`` wires the stages together: load a labeled raster, cast
rays, agglomerate, derive per-merge parameters, locate break points,
trim, and rank the surviving candidate groups.  Everything it writes is
deterministic: JSON keys are sorted, rows follow node-id order, and no
timestamps or absolute paths appear in any artifact.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import click

from . import hac, links, params, ranking, raster_io, synth, termination

REPORT_SCHEMA = 1


@dataclass
class PipelineConfig:
    input_path: Path
    out_dir: Path
    fmt: str = "auto"
    parameter: str = "a_merge"
    significance_p: float = 0.25
    min_group_size: int = 7
    max_ray: int | None = None
    score_key: str = "mean"
    dump_links: bool = False

    def validate(self) -> None:
        if self.fmt != "auto" and self.fmt not in raster_io.FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
        if not 0.0 <= self.significance_p <= 1.0:
            raise ValueError(f"significance_p must be in [0, 1], got {self.significance_p}")
        if self.min_group_size < 1:
            raise ValueError(f"min_group_size must be >= 1, got {self.min_group_size}")
        if self.max_ray is not None and self.max_ray < 1:
            raise ValueError(f"max_ray must be >= 1, got {self.max_ray}")
        if self.score_key not in ranking.SCORE_KEYS:
            raise ValueError(f"score_key must be one of {ranking.SCORE_KEYS}")
        params.validate_stream(self.parameter)


@dataclass
class PipelineResult:
    hierarchy: hac.Hierarchy
    candidates: list[ranking.RankedCandidate] = field(default_factory=list)
    f_significance: int = 0
    isol_count: int = 0


@dataclass
class _Analysis:
    """What the stages shared by ``run`` and ``trace`` produce."""

    hierarchy: hac.Hierarchy
    by_id: dict[int, raster_io.Isol]
    node_params: dict[int, params.NodeParams]
    stream: dict[int, float]


def _load(
    config: PipelineConfig,
) -> tuple[tuple[int, int], list[raster_io.Isol], links.LinkStore]:
    """Validate the config, read the raster, extract its regions and cast
    their rays.

    Returns the raster's (width, height), the regions and the link store.
    The file's bytes are freed once parsed, and the raster on return:
    nothing after ``cast_rays`` reads the labels, so neither is alive
    during agglomeration or when ``clusters.pgm`` is painted on a canvas
    of the raster's size.
    """
    config.validate()
    data = config.input_path.read_bytes()
    fmt = config.fmt
    if fmt == "auto":
        fmt = raster_io.sniff_format(data[:64])
    raster = raster_io.load_raster(io.BytesIO(data), fmt)
    del data
    isols = raster_io.extract_isols(raster)
    store = links.cast_rays(raster, isols, max_ray=config.max_ray)
    return (raster.width, raster.height), isols, store


def _analyse(
    config: PipelineConfig, isols: list[raster_io.Isol], hierarchy: hac.Hierarchy
) -> _Analysis:
    """Derive every merge's parameters and the configured parameter stream."""
    by_id = raster_io.by_id(isols)
    node_params = params.compute_params(hierarchy, by_id)
    stream = params.parameter_stream(hierarchy, node_params, config.parameter)
    return _Analysis(hierarchy, by_id, node_params, stream)


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Run every stage on ``config.input_path`` and write the artifacts to
    ``config.out_dir``.

    Every artifact is formatted into one ``{relative path: bytes}`` table
    before ``config.out_dir`` is made, so a run that fails (bad input, or
    more than 65535 candidates for ``clusters.pgm``) leaves no output
    directory.  An existing ``config.out_dir`` is written into: each
    artifact replaces its namesake and other files stay.  An I/O error
    while the table is written can still leave part of it on disk.

    Each large structure is freed after its last reader: the input raster
    once the rays are cast (in ``_load``), and the link store once
    ``agglomerate``, which drops its own link pixel masks on return, is
    done with it, so ``links.csv`` is formatted before agglomeration.
    """
    shape, isols, store = _load(config)
    files = {}
    if config.dump_links:
        files["links.csv"] = _text(links.dump_links_csv, store)
    hierarchy = hac.agglomerate(isols, store)
    del store
    analysis = _analyse(config, isols, hierarchy)
    by_id = analysis.by_id
    traces = termination.trace_all(hierarchy, analysis.stream)
    breaks = termination.count_breaks(hierarchy, traces, p=config.significance_p)
    trimmed = termination.trim(hierarchy, breaks)
    terminals = termination.filter_terminals(trimmed, hierarchy, config.min_group_size)
    candidates = ranking.rank_candidates(hierarchy, by_id, terminals, key=config.score_key)

    files["report.json"] = _json({
        "schema": REPORT_SCHEMA,
        "parameter": config.parameter,
        "significance_p": config.significance_p,
        "f_significance": breaks.significance,
        "min_group_size": config.min_group_size,
        "score_key": config.score_key,
        "isol_count": hierarchy.singleton_count(),
        "candidates": [
            _candidate_row(hierarchy, c, rank)
            for rank, c in enumerate(candidates, start=1)
        ],
    })
    files["hierarchy.json"] = _json(
        {"schema": REPORT_SCHEMA, "nodes": hac.hierarchy_records(hierarchy)}
    )
    files["params.csv"] = _text(params.dump_params_csv, hierarchy, analysis.node_params)
    for trace in traces:
        (isol_id,) = hierarchy.node(trace.start).members
        files[f"traces/{isol_id}.csv"] = _text(termination.dump_trace_csv, trace)
    files["histogram.csv"] = _text(termination.dump_histogram_csv, hierarchy, breaks)
    # Painted last: painting the full-size canvas before the other
    # artifacts raised the benchmark's sparse peak RSS by ~3.5 MB.
    groups = [
        (rank, sorted(hierarchy.node(c.node_id).members))
        for rank, c in enumerate(candidates, start=1)
    ]
    files["clusters.pgm"] = raster_io.dump_pgm(
        raster_io.write_cluster_raster(raster_io._ground(*shape), groups, by_id)
    )

    _write(config.out_dir, files, "traces")
    return PipelineResult(
        hierarchy=hierarchy,
        candidates=candidates,
        f_significance=breaks.significance,
        isol_count=len(isols),
    )


def _candidate_row(hierarchy: hac.Hierarchy, c: ranking.RankedCandidate, rank: int) -> dict:
    node = hierarchy.node(c.node_id)
    return {
        "rank": rank,
        "node_id": node.id,
        "merge_iteration": node.merge_iteration,
        "member_count": len(node.members),
        "pixel_count": c.stats.pixel_count,
        "members": sorted(node.members),
        "centroid": list(c.stats.centroid),
        "mad": c.stats.mean_abs_dev,
        "max_ad": c.stats.max_abs_dev,
        "score": c.stats.score,
        "sum_over_max": c.stats.sum_over_max,
    }


def _text(dump, *args) -> bytes:
    """The bytes ``dump(*args, stream)`` writes to a text stream."""
    stream = io.StringIO()
    dump(*args, stream)
    return stream.getvalue().encode()


def _json(payload: dict) -> bytes:
    """``payload`` as indented JSON with sorted keys and a final newline."""
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def _write(out_dir: Path, files: dict[str, bytes], *subdirs: str) -> None:
    """Make ``out_dir`` and its ``subdirs``, then write each
    ``{relative path: bytes}`` entry of ``files`` into it."""
    for directory in (out_dir, *(out_dir / name for name in subdirs)):
        directory.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out_dir / name).write_bytes(data)


# ---------------------------------------------------------------------------
# click commands
# ---------------------------------------------------------------------------


@click.group()
def main() -> None:
    """Group oversegmented labeled regions by connective-link clustering."""


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(path_type=Path))
@click.option("--format", "fmt", default="auto", show_default=True,
              type=click.Choice(["auto", *raster_io.FORMATS]))
@click.option("--param", "parameter", default="a_merge", show_default=True,
              help="Merge-parameter stream; a named stream or ratio:<numer>/<denom>.")
@click.option("--significance-p", default=0.25, show_default=True, type=float)
@click.option("--min-size", "min_group_size", default=7, show_default=True, type=int)
@click.option("--max-ray", default=None, type=int)
@click.option("--score", "score_key", default="mean", show_default=True,
              type=click.Choice(list(ranking.SCORE_KEYS)))
@click.option("--dump-links", is_flag=True, default=False)
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
def run(**options) -> None:
    """Run the full pipeline and write artifacts to --out."""
    try:
        result = run_pipeline(PipelineConfig(**options))
    except (OSError, ValueError) as exc:
        _fail(str(exc))
    click.echo(
        f"{result.isol_count} regions, {len(result.candidates)} candidates, "
        f"f_significance={result.f_significance}"
    )


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(path_type=Path))
@click.option("--format", "fmt", default="auto", show_default=True,
              type=click.Choice(["auto", *raster_io.FORMATS]))
@click.option("--param", "parameter", default="a_merge", show_default=True)
@click.option("--max-ray", default=None, type=int)
@click.option("--isol", "isol_id", required=True, type=int,
              help="Id of the region whose merge path to trace.")
def trace(isol_id, **options) -> None:
    """Print one region's merge-path trace as CSV on stdout."""
    # trace writes no files, so the output directory is never used.
    config = PipelineConfig(out_dir=Path(), **options)
    try:
        _, isols, store = _load(config)
        if isol_id not in {isol.id for isol in isols}:
            raise ValueError(f"no region with id {isol_id}")
        analysis = _analyse(config, isols, hac.agglomerate(isols, store))
        start = analysis.hierarchy.singleton_node_id(isol_id)
        path = termination.trace_path(analysis.hierarchy, analysis.stream, start)
        termination.dump_trace_csv(path, sys.stdout)
    except (OSError, ValueError) as exc:
        _fail(str(exc))


@main.command("synth")
@click.option("--kind", type=click.Choice(["ring", "random"]), default="ring",
              show_default=True)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--k", default=8, show_default=True, type=int)
@click.option("--gap", default=2, show_default=True, type=int)
@click.option("--outliers", default=3, show_default=True, type=int)
@click.option("--n", "n_isols", default=12, show_default=True, type=int,
              help="Blob count for --kind random.")
@click.option("--size", default=128, show_default=True, type=int)
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
def synth_cmd(kind, seed, k, gap, outliers, n_isols, size, out_dir) -> None:
    """Write a synthetic scene (scene.txt and truth.json) to --out."""
    try:
        if kind == "ring":
            scene = synth.generate_ring(seed, k=k, gap=gap, outliers=outliers, size=size)
        else:
            scene = synth.generate_random(seed, n_isols, size=size)
        truth = {
            "seed": scene.seed,
            "truth_groups": [sorted(group) for group in scene.truth_groups],
        }
        _write(out_dir, {
            "scene.txt": raster_io.dump_text_grid(scene.raster).encode(),
            "truth.json": _json(truth),
        })
    except (OSError, ValueError) as exc:
        _fail(str(exc))
    click.echo(f"wrote {kind} scene with {len(scene.truth_groups)} truth groups")


if __name__ == "__main__":
    main()
