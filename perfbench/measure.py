"""The measurements: timed and traced ``run_pipeline`` calls over a workload.

``end_to_end`` runs untraced calls back to back (one caller, closed loop)
and the fresh-interpreter probes.  ``per_layer`` runs one untraced pass,
then instrumented calls on the same cases, then one call with the
allocation-measuring stages under ``tracemalloc``.  Both check every
run's artifacts through a ``Tally``.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from crownmerge import cli, raster_io, synth

from perfbench import spans
from perfbench.workloads import Artifacts, Case, DigestCheck, artifact_digest

#: Fresh interpreters started to measure ``setup_s``; the median is reported.
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 150
PROBE = Path(__file__).with_name("probe.py")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class Outcome:
    """Wall seconds and artifacts of one call, or why it raised."""

    seconds: float
    artifacts: Artifacts | None
    error: str | None = None
    call: spans.CallTrace | None = None


def run_case(case: Case, out_dir: Path, tracer: spans.Tracer | None = None) -> Outcome:
    """Run ``case`` into a fresh ``out_dir`` and digest what it wrote.

    With a tracer, the layer functions are instrumented for this call only
    and the call runs inside the root span.  Clearing the directory,
    collecting garbage and digesting stay outside the timed region.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    config = cli.PipelineConfig(
        input_path=case.scene, out_dir=out_dir, parameter=case.parameter, dump_links=True
    )
    gc.collect()
    call = tracer.new_call() if tracer is not None else None
    try:
        if tracer is None:
            start = time.perf_counter()
            cli.run_pipeline(config)
            seconds = time.perf_counter() - start
        else:
            with spans.instrument(tracer):
                start = time.perf_counter()
                with tracer.span(spans.ROOT):
                    cli.run_pipeline(config)
                seconds = time.perf_counter() - start
    except Exception:  # a run that raises is a failed run, not a benchmark crash
        error = f"{case.name}: run_pipeline raised\n{traceback.format_exc()}"
        return Outcome(0.0, None, error, call)
    return Outcome(seconds, artifact_digest(out_dir), None, call)


def probe(case: Case, out_dir: Path) -> Outcome:
    """Run ``case`` once in a fresh interpreter, timed from spawn to exit."""
    shutil.rmtree(out_dir, ignore_errors=True)
    src = Path(cli.__file__).resolve().parents[1]
    cmd = [sys.executable, str(PROBE), str(src), str(case.scene), str(out_dir), case.parameter]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        return Outcome(seconds, None, f"{case.name}: probe exited {proc.returncode}\n{proc.stderr}")
    return Outcome(seconds, artifact_digest(out_dir))


class Tally:
    """Attempted and failed runs, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, check: DigestCheck, index: int, outcome: Outcome, out_dir: Path) -> bool:
        """Count one run of case ``index``; True when it completed, so its
        time is a measurement, even if its artifacts are wrong."""
        self.attempted += 1
        problem = outcome.error
        if problem is None:
            problem = check.check(index, out_dir, outcome.artifacts)
        if problem is not None:
            self.failures.append(problem)
            print(f"FAILED {problem}", file=sys.stderr)
        return outcome.error is None


def round_robin(n_cases: int, seconds: float, step) -> None:
    """Call ``step(i)`` over case indexes in turn, after at least one full
    pass stopping before one more step would overrun ``seconds``."""
    start = time.perf_counter()
    steps = 0
    while True:
        step(steps % n_cases)
        steps += 1
        elapsed = time.perf_counter() - start
        if steps >= n_cases and elapsed + elapsed / steps > seconds:
            return


def median(samples: list[float]) -> float:
    """Median over every case's samples; the round-robin order gives each
    case the same number of samples, give or take the last pass."""
    if not samples:
        raise BenchError("no successful run to report")
    return statistics.median(samples)


def end_to_end(
    cases: list[Case], check: DigestCheck, tally: Tally, work: Path, seconds: float
) -> tuple[dict[str, float], dict]:
    """``run_s``, ``peak_rss_mb`` and ``setup_s``, with tracing off.

    ``peak_rss_mb`` is this process's own peak: the benchmark runs in a
    fresh interpreter and its one big allocation besides the timed calls,
    scene generation, peaks well below them.
    """
    out = work / "out"
    # A tiny fixed scene, the same for every workload and seed: fresh-
    # interpreter runs of it give setup_s.  One in-process run first warms
    # lazy first-call paths, so the timed loop does not pay for them.
    tiny_scene = work / "tiny.txt"
    tiny_scene.write_text(raster_io.dump_text_grid(synth.generate_random(7, 12, size=32).raster))
    tiny = Case("tiny", tiny_scene, "a_merge")
    tiny_check = DigestCheck([tiny], None)
    tally.record(tiny_check, 0, run_case(tiny, out), out)
    setup: list[float] = []
    samples: list[float] = []
    probes = 0
    start = time.perf_counter()

    def setup_probe() -> None:
        nonlocal probes
        probes += 1
        outcome = probe(tiny, out)
        if tally.record(tiny_check, 0, outcome, out):
            setup.append(outcome.seconds)

    def step(i: int) -> None:
        outcome = run_case(cases[i], out)
        if tally.record(check, i, outcome, out):
            samples.append(outcome.seconds)
        # The probes are spread over the loop, so that setup_s, like run_s,
        # samples the host's speed over the whole run and not a moment of it.
        elapsed = time.perf_counter() - start
        while probes < SETUP_REPEATS and probes * seconds < SETUP_REPEATS * elapsed:
            setup_probe()

    round_robin(len(cases), seconds, step)
    while probes < SETUP_REPEATS:
        setup_probe()
    if not setup:
        raise BenchError("every fresh-interpreter probe failed")

    info: dict = {"samples": len(samples)}
    if len(samples) >= 100:
        # Enough samples to leave at least ten beyond the 90th percentile.
        info["run_s_p90"] = statistics.quantiles(samples, n=10)[-1]
    metrics = {
        "run_s": median(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    return metrics, info


def per_layer(
    cases: list[Case], check: DigestCheck, tally: Tally, work: Path, seconds: float
) -> tuple[dict[str, float], dict]:
    """Per-layer times, counts and allocations, and the tracing overhead.

    One untraced pass comes first, within ``seconds``: on a seed without a
    recorded reference it sets the digests that every traced call must
    then reproduce.
    """
    out = work / "out"
    start = time.perf_counter()
    tracer = spans.Tracer()
    span_cost = spans.span_cost_s()
    overheads: list[float] = []
    times: dict[str, list[float]] = {}
    counts: list[dict[str, int] | None] = [None for _ in cases]
    gate_errors: list[str] = []

    for i, case in enumerate(cases):
        tally.record(check, i, run_case(case, out), out)

    def step(i: int) -> None:
        outcome = run_case(cases[i], out, tracer)
        if not tally.record(check, i, outcome, out):
            return
        spans.check_call(outcome.call, cases[i].name)
        overheads.append(spans.overhead_s(outcome.call, span_cost))
        for metric, value in spans.layer_times(outcome.call).items():
            times.setdefault(metric, []).append(value)
        observed = dict(outcome.call.counts)
        observed["cli.files_written"] = outcome.artifacts.files
        observed["cli.bytes_written"] = outcome.artifacts.bytes
        if counts[i] is None:
            counts[i] = observed
        elif counts[i] != observed:
            gate_errors.append(f"{cases[i].name}: counts differ between traced runs")

    round_robin(len(cases), seconds - (time.perf_counter() - start), step)
    if any(c is None for c in counts):
        raise BenchError("a case never completed a traced run")

    outcome = run_case(cases[0], out, spans.Tracer(alloc=True))
    if not tally.record(check, 0, outcome, out):
        raise BenchError("the tracemalloc run raised")
    spans.check_call(outcome.call, cases[0].name)

    metrics: dict[str, float] = {
        metric: median(values) for metric, values in times.items()
    }
    metrics.update(spans.layer_allocs(outcome.call))
    # Counts are totals over one pass of the workload's cases.
    for key in counts[0]:
        metrics[key] = sum(c[key] for c in counts)
    metrics["raster_io.input_bytes"] = sum(case.scene.stat().st_size for case in cases)
    metrics["links.link_yield"] = metrics["links.links"] / metrics["links.rays"]
    metrics["trace.overhead_s"] = median(overheads)
    return metrics, {"samples": len(overheads), "gate_errors": gate_errors}
