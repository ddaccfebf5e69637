"""Acceptance gate: one test per ship criterion.

Each test is numbered; the conftest summary hook prints a PASS/FAIL line
per criterion after the run.
"""

from __future__ import annotations

import itertools
import time

import pytest

from crownmerge import (
    compute_params,
    count_breaks,
    dump_text_grid,
    generate_ring,
    generate_random,
    group_distance,
    group_pixels,
    pair_distance,
    parameter_stream,
    rank_candidates,
    score_cluster,
    trace_all,
    trim,
)
from crownmerge.cli import PipelineConfig, main, run_pipeline
from crownmerge.raster_io import by_id

import oracles

# ---------------------------------------------------------------------------
# criterion 1: reference summary tables reproduce arithmetically
# ---------------------------------------------------------------------------

# Rows are (candidate id, summed deviation, maximum deviation, reported
# ratio); the reported column must equal col2/col3 within 0.15.
TABLE_MEAN_PARAM = (
    (161, 1887.0, 15.42, 122.3),
    (150, 4766.0, 28.00, 170.1),
    (226, 4396.0, 20.60, 213.3),
    (82, 17374.0, 48.11, 361.0),
    (72, 27809.0, 46.21, 601.7),
    (27, 27022.0, 42.35, 638.0),
)

TABLE_RATIO_PARAM = (
    (106, 1958.4, 16.09, 121.6),
    (161, 1887.7, 15.42, 122.3),
    (225, 2983.9, 20.37, 146.4),
    (23, 5886.5, 28.27, 208.1),
    (138, 6922.4, 31.00, 223.2),
    (100, 9353.1, 31.28, 299.0),
    (14, 30478.0, 51.43, 592.5),
)


def test_criterion_1_table_arithmetic():
    for table in (TABLE_MEAN_PARAM, TABLE_RATIO_PARAM):
        for _, dev_sum, dev_max, reported in table:
            assert abs(dev_sum / dev_max - reported) <= 0.15
        scores = [row[3] for row in table]
        assert scores == sorted(scores)


# ---------------------------------------------------------------------------
# criterion 2: merge sequence equals the brute-force oracle
# ---------------------------------------------------------------------------


def test_criterion_2_merge_sequence_oracle(corpus):
    assert len(corpus) >= 100
    started = time.perf_counter()
    for bundle in corpus:
        assert len(bundle.isols) <= 12
        assert bundle.scene.raster.width == bundle.scene.raster.height == 40
        expected = oracles.brute_force_merge_sequence(bundle.isols, bundle.store)
        assert oracles.merge_sequence_of(bundle.hierarchy) == expected
    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# criterion 3: break points equal the strict-record oracle
# ---------------------------------------------------------------------------


def test_criterion_3_breakpoint_oracle(corpus):
    for bundle in corpus:
        params = compute_params(bundle.hierarchy, bundle.isols)
        for choice in ("a_merge", "lw_over_acum"):
            stream = parameter_stream(bundle.hierarchy, params, choice)
            for trace in trace_all(bundle.hierarchy, stream):
                raw = [0.0] + [stream[n] for n in trace.nodes[1:]]
                assert trace.breakpoints == oracles.strict_record_breakpoints(raw)


# ---------------------------------------------------------------------------
# criterion 4: invariant suite over the corpus
# ---------------------------------------------------------------------------


def _sample_bipartitions(ids):
    """A few disjoint group pairs: all singleton pairs plus an even/odd cut."""
    pairs = [({a}, {b}) for a, b in itertools.combinations(ids, 2)]
    if len(ids) >= 3:
        evens = {i for i in ids if i % 2 == 0}
        odds = set(ids) - evens
        if evens and odds:
            pairs.append((evens, odds))
    return pairs


def test_criterion_4_invariants(corpus):
    for bundle in corpus:
        h, store = bundle.hierarchy, bundle.store
        ids = [isol.id for isol in bundle.isols]
        isol_map = by_id(bundle.isols)

        # Distance symmetry and union subadditivity.
        for group_a, group_b in _sample_bipartitions(ids):
            d = group_distance(store, group_a, group_b)
            assert d == group_distance(store, group_b, group_a)
            linked = [
                pair_distance(store, a, b)
                for a in group_a
                for b in group_b
                if len(store.links_between(a, b))
            ]
            if linked:
                assert d <= sum(linked)

        # Hierarchy well-formedness.
        m = h.singleton_count()
        assert h.singleton_node_ids() == tuple(range(m))
        for node in h.nodes():
            if node.is_singleton:
                assert len(node.members) == 1
            else:
                left, right = node.ancestors
                assert h.node(left).members | h.node(right).members == node.members
                assert not h.node(left).members & h.node(right).members
                assert h.node(left).successor == node.id
                assert h.node(right).successor == node.id
            assert h.path_from(node.id)[-1] in h.roots
        if len(h.roots) == 1:
            assert len(h) == 2 * m - 1

        # Merge-parameter invariants, including the subtree recomputation.
        params = compute_params(h, bundle.isols)
        for node_id in h.merge_node_ids():
            p = params[node_id]
            assert p.a_merge <= p.a_cumulative
            assert p.a_cumulative == oracles.brute_force_a_cumulative(
                h, store, node_id
            )
            node = h.node(node_id)
            if node.successor is not None:
                assert p.a_cumulative <= params[node.successor].a_cumulative

        # Trace invariants and count conservation.
        stream = parameter_stream(h, params, "a_merge")
        traces = trace_all(h, stream)
        for trace in traces:
            for earlier, later in zip(trace.cmax, trace.cmax[1:]):
                assert later >= earlier
            raw = [0.0] + [stream[n] for n in trace.nodes[1:]]
            scaled = [2.5 * v + 4.0 for v in raw]
            assert (
                oracles.strict_record_breakpoints(scaled) == trace.breakpoints
            )
        breaks = count_breaks(h, traces)
        assert sum(breaks.counts.values()) == sum(
            len(t.breakpoints) for t in traces
        )

        # Trim closure and terminal shape.
        trimmed = trim(h, breaks)
        for node_id in trimmed.removed:
            successor = h.node(node_id).successor
            if successor is not None:
                assert successor in trimmed.removed
        for node_id in trimmed.terminals:
            assert node_id not in trimmed.removed
            successor = h.node(node_id).successor
            assert successor is None or successor in trimmed.removed

        # Scores stay in the unit interval and ignore translation.
        for node in h.nodes():
            pixels = group_pixels(h, isol_map, node.id)
            stats = score_cluster(pixels)
            assert 0.0 <= stats.score <= 1.0
            moved = score_cluster([(x + 17, y - 23) for x, y in pixels])
            assert moved.score == pytest.approx(stats.score, abs=1e-9)


# ---------------------------------------------------------------------------
# criterion 5: the planted ring is found and ranked first by both streams
# ---------------------------------------------------------------------------


def test_criterion_5_ring_recovery(tmp_path):
    scene = generate_ring(0, k=8, gap=2, outliers=4, size=192)
    ring = scene.truth_groups[0]
    path = tmp_path / "ring.txt"
    path.write_text(dump_text_grid(scene.raster))

    for choice in ("a_merge", "lw_over_acum"):
        started = time.perf_counter()
        result = run_pipeline(
            PipelineConfig(
                input_path=path,
                out_dir=tmp_path / choice,
                parameter=choice,
                significance_p=0.25,
                min_group_size=7,
            )
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"{choice} run took {elapsed:.1f}s"
        members = [
            result.hierarchy.node(c.node_id).members for c in result.candidates
        ]
        assert ring in members, f"{choice}: ring not among candidates {members}"
        assert members[0] == ring, f"{choice}: ring not rank 1"


# ---------------------------------------------------------------------------
# criterion 6: byte-identical artifacts on repeated runs
# ---------------------------------------------------------------------------


def test_criterion_6_determinism(tmp_path):
    from click.testing import CliRunner

    scene = generate_ring(1, outliers=3, size=128)
    path = tmp_path / "scene.txt"
    path.write_text(dump_text_grid(scene.raster))

    runner = CliRunner()
    outputs = []
    for run_dir in ("first", "second"):
        out = tmp_path / run_dir
        result = runner.invoke(
            main,
            ["run", "--input", str(path), "--out", str(out), "--dump-links"],
        )
        assert result.exit_code == 0, result.output
        files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        outputs.append((out, files))

    (first, first_files), (second, second_files) = outputs
    assert first_files == second_files
    assert first_files  # something was written
    for rel in first_files:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel


# ---------------------------------------------------------------------------
# criterion 7: full pipeline over a dense 256x256 scene in budget
# ---------------------------------------------------------------------------


def test_criterion_7_scale(tmp_path):
    scene = generate_random(42, n_isols=150, size=256)
    path = tmp_path / "large.txt"
    path.write_text(dump_text_grid(scene.raster))

    started = time.perf_counter()
    result = run_pipeline(
        PipelineConfig(input_path=path, out_dir=tmp_path / "out")
    )
    elapsed = time.perf_counter() - started
    assert result.isol_count == 150
    assert elapsed < 30.0, f"pipeline took {elapsed:.1f}s"
