"""The benchmark's count metrics repeat exactly and match today's values.

The first case of each workload on the default seed (``--seed 0``) runs
traced.  Its counts must equal the pinned values, every layer span must
have fired inside its root, and its artifacts must match the reference
digest, which was recorded from untraced runs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import measure, run, spans, workloads  # noqa: E402
from perfbench.measure import run_case  # noqa: E402

PINNED = {
    "dense-42": {
        "hac.merges": 999,
        "hac.roots": 1,
        "links.footprint_px": 180768,
        "links.linked_pairs": 6328,
        "links.links": 19079,
        "links.rays": 35040,
        "params.cross_pairs": 499500,
        "ranking.candidates": 23,
        "ranking.pixels_scored": 939,
        "raster_io.edge_pixels": 4380,
        "raster_io.pixels": 65536,
        "raster_io.regions": 1000,
        "termination.breaks": 6077,
        "termination.f_significance": 3,
        "termination.path_nodes": 12767,
        "termination.removed_nodes": 301,
        "cli.files_written": 1006,
        "cli.bytes_written": 1963830,
    },
    "sparse-42": {
        "hac.merges": 295,
        "hac.roots": 5,
        "links.footprint_px": 239215,
        "links.linked_pairs": 553,
        "links.links": 1765,
        "links.rays": 10832,
        "params.cross_pairs": 43660,
        "ranking.candidates": 7,
        "ranking.pixels_scored": 297,
        "raster_io.edge_pixels": 1354,
        "raster_io.pixels": 1048576,
        "raster_io.regions": 300,
        "termination.breaks": 1388,
        "termination.f_significance": 2,
        "termination.path_nodes": 4750,
        "termination.removed_nodes": 137,
        "cli.files_written": 306,
        "cli.bytes_written": 2643788,
    },
    "ring-0-a_merge": {
        "hac.merges": 11,
        "hac.roots": 1,
        "links.footprint_px": 2310,
        "links.linked_pairs": 26,
        "links.links": 136,
        "links.rays": 1472,
        "params.cross_pairs": 66,
        "ranking.candidates": 1,
        "ranking.pixels_scored": 72,
        "raster_io.edge_pixels": 184,
        "raster_io.pixels": 36864,
        "raster_io.regions": 12,
        "termination.breaks": 36,
        "termination.f_significance": 8,
        "termination.path_nodes": 72,
        "termination.removed_nodes": 3,
        "cli.files_written": 18,
        "cli.bytes_written": 85822,
    },
}


def traced(case: workloads.Case, out_dir: Path) -> tuple[dict[str, int], str]:
    outcome = run_case(case, out_dir, spans.Tracer())
    assert outcome.error is None, outcome.error
    spans.check_call(outcome.call, case.name)
    counts = dict(outcome.call.counts)
    counts["cli.files_written"] = outcome.artifacts.files
    counts["cli.bytes_written"] = outcome.artifacts.bytes
    return counts, outcome.artifacts.digest


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_are_pinned_and_artifacts_match_reference(workload, tmp_path):
    case = workloads.build_cases(workload, 0, tmp_path / "scenes")[0]
    counts, digest = traced(case, tmp_path / "out")
    assert counts == PINNED[case.name]
    reference = workloads.load_reference(workload, 0)
    assert reference is not None
    assert digest[: workloads.DIGEST_PREFIX] == reference[0]
    if case.ring is not None:
        assert workloads.ring_is_rank_one(tmp_path / "out", case.ring)


def test_counts_and_artifacts_repeat_traced_or_not(tmp_path):
    for case in workloads.build_cases("rings", 0, tmp_path / "scenes")[:4]:
        first = traced(case, tmp_path / "out")
        assert traced(case, tmp_path / "out") == first
        untraced = run_case(case, tmp_path / "out")
        assert untraced.error is None, untraced.error
        assert untraced.artifacts.digest == first[1]


def test_missing_layer_span_fails_loudly(tmp_path):
    case = workloads.build_cases("rings", 0, tmp_path / "scenes")[0]
    outcome = run_case(case, tmp_path / "out", spans.Tracer())
    call = outcome.call
    dropped = [s for s in call.spans if s.name != "hac.agglomerate"]
    call.spans[:] = dropped
    with pytest.raises(spans.SpanError, match="hac.agglomerate"):
        spans.check_call(call, case.name)


def test_instrumentation_is_removed_after_the_call(tmp_path):
    from crownmerge import hac

    original = hac.agglomerate
    case = workloads.build_cases("rings", 0, tmp_path / "scenes")[0]
    run_case(case, tmp_path / "out", spans.Tracer())
    assert hac.agglomerate is original


def test_every_listed_metric_is_reported(tmp_path):
    spec = json.loads(run.SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    cases = workloads.build_cases("rings", 0, tmp_path / "scenes")[:2]
    reference = workloads.load_reference("rings", 0)[:2]
    for trace, measure_mode in ((0, measure.end_to_end), (1, measure.per_layer)):
        tally = measure.Tally()
        check = workloads.DigestCheck(cases, reference)
        metrics, _ = measure_mode(cases, check, tally, tmp_path, 0)
        assert set(metrics) == set(run.metric_units(trace))
        assert all(value > 0 for value in metrics.values())
        assert tally.failures == []
