"""Record the reference artifact digests that the benchmark checks against.

Usage (from the repository root):

    python3 perfbench/make_reference.py --seeds 0-24

Runs every case of every workload and seed once and stores the first
DIGEST_PREFIX hex digits of its artifact digest in reference.json, merged
into what the file already holds.  Run it only on a commit whose outputs
are known right: the benchmark counts every later mismatch as a failed run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="record reference artifact digests")
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-24")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    from perfbench.measure import run_case

    table = json.loads(workloads.REFERENCE_PATH.read_text())
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".perfbench_work"))
    try:
        for workload in workloads.WORKLOADS:
            for seed in seeds:
                cases = workloads.build_cases(workload, seed, work / "scenes")
                digests = []
                for case in cases:
                    outcome = run_case(case, work / "out")
                    if outcome.error is not None:
                        raise SystemExit(outcome.error)
                    if case.ring and not workloads.ring_is_rank_one(work / "out", case.ring):
                        raise SystemExit(f"{case.name}: planted ring is not rank 1")
                    digests.append(outcome.artifacts.digest[: workloads.DIGEST_PREFIX])
                table.setdefault(workload, {})[str(seed)] = digests
                print(f"{workload} seed {seed}: {len(digests)} digests", flush=True)
                shutil.rmtree(work / "scenes")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
