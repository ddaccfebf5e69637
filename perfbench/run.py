"""crownmerge benchmark: closed-loop, single-process, single-threaded.

Usage (from the repository root):

    python3 perfbench/run.py --workload {dense,sparse,rings} --seed N \\
        --seconds S --trace {0,1}

One caller runs the workload's cases back to back through the public
``crownmerge.cli.run_pipeline`` for S seconds (at least one full pass) and
checks every run's artifacts.  It prints each metric with its unit, a run
record, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics with tracing off; ``--trace 1`` the per-layer ones.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of every metric BENCHMARK.json lists for this mode."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def steal_ticks() -> tuple[int, int] | None:
    """(steal, total) clock ticks of the all-CPU line of /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    values = [int(v) for v in fields[1:]]
    return (values[7] if len(values) > 7 else 0), sum(values)


def source_digest() -> str:
    """SHA-256 of the package sources, which names the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "crownmerge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="crownmerge benchmark")
    parser.add_argument("--workload", required=True, choices=("dense", "sparse", "rings"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crownmerge" / "cli.py").is_file():
        print(f"error: crownmerge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import crownmerge
    import numpy

    if Path(crownmerge.__file__).resolve().parent != SRC / "crownmerge":
        print(f"error: imported crownmerge from {crownmerge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import measure, spans, workloads

    wall0, cpu0 = time.perf_counter(), time.process_time()
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    steal0 = steal_ticks()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    try:
        started = time.perf_counter()
        cases = workloads.build_cases(args.workload, args.seed, work / "scenes")
        build_s = time.perf_counter() - started
        check = workloads.DigestCheck(cases, workloads.load_reference(args.workload, args.seed))
        tally = measure.Tally()
        run = measure.per_layer if args.trace else measure.end_to_end
        metrics, info = run(cases, check, tally, work, args.seconds)
    except (measure.BenchError, spans.SpanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    gate_errors = info.pop("gate_errors", [])
    for problem in gate_errors:
        print(f"GATE {problem}", file=sys.stderr)
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    steal1 = steal_ticks()
    host_steal = None
    if steal0 and steal1:
        d_steal, d_total = steal1[0] - steal0[0], steal1[1] - steal0[1]
        host_steal = {
            "steal_s": d_steal / os.sysconf("SC_CLK_TCK"),
            "steal_share": d_steal / d_total if d_total else 0.0,
        }
    failed = len(tally.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cases": len(cases),
        "reference_digests": check.recorded,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0
        + (children1.ru_utime - children0.ru_utime)
        + (children1.ru_stime - children0.ru_stime),
        "scene_build_s": build_s,
        "host_steal": host_steal,
        **info,
    }

    units = metric_units(args.trace)
    print(f"# crownmerge benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} cases={len(cases)}")
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:>16.6g} {unit}")
    print(f"{'error_rate':34s} {failed / tally.attempted:>16.6g} 1"
          f"  ({failed} failed / {tally.attempted} attempted)")
    if "run_s_p90" in info:
        print(f"{'run_s_p90':34s} {info['run_s_p90']:>16.6g} s  ({info['samples']} samples)")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0 and not gate_errors,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
