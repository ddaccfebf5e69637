"""Workload scenes, the artifact digest and the correctness checks.

A workload is a list of cases.  Each case is one generated scene file plus
the settings one ``run_pipeline`` call uses on it.  Scenes come only from
``crownmerge.synth`` and depend only on the workload seed, so the same seed
always gives byte-identical inputs.  ``--seed 0`` gives the default scenes:
random seed 42 for ``dense`` and ``sparse``, ring seeds 0-39 for ``rings``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from crownmerge import raster_io, synth

WORKLOADS = ("dense", "sparse", "rings")

#: ``dense`` and ``sparse`` run one random scene, of seed this plus the
#: workload seed, so that a run repeats the same call.
RANDOM_BASE_SEED = 42
RING_SCENES = 40
RING_PARAMETERS = ("a_merge", "lw_over_acum")

REFERENCE_PATH = Path(__file__).with_name("reference.json")
#: Hex digits kept per reference digest (64 bits).
DIGEST_PREFIX = 16


@dataclass(frozen=True)
class Case:
    """One ``run_pipeline`` call: a scene file and the settings for it."""

    name: str
    scene: Path
    parameter: str
    #: Members of the planted ring, which must be the rank-1 candidate;
    #: ``None`` where the scene has no known answer.
    ring: tuple[int, ...] | None = None


def build_cases(workload: str, seed: int, scene_dir: Path) -> list[Case]:
    """Write the workload's scenes under ``scene_dir`` and list its cases."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    scene_dir.mkdir(parents=True, exist_ok=True)
    cases: list[Case] = []
    if workload == "rings":
        for scene_seed in range(RING_SCENES * seed, RING_SCENES * (seed + 1)):
            scene = synth.generate_ring(scene_seed, outliers=4, size=192)
            path = _write_scene(scene_dir / f"ring-{scene_seed}.txt", scene)
            ring = tuple(sorted(scene.truth_groups[0]))
            for parameter in RING_PARAMETERS:
                cases.append(Case(f"ring-{scene_seed}-{parameter}", path, parameter, ring))
        return cases
    n_isols, size = (1000, 256) if workload == "dense" else (300, 1024)
    scene_seed = RANDOM_BASE_SEED + seed
    scene = synth.generate_random(scene_seed, n_isols, size=size)
    path = _write_scene(scene_dir / f"{workload}-{scene_seed}.txt", scene)
    return [Case(f"{workload}-{scene_seed}", path, "a_merge")]


def _write_scene(path: Path, scene: synth.SynthScene) -> Path:
    path.write_text(raster_io.dump_text_grid(scene.raster))
    return path


@dataclass(frozen=True)
class Artifacts:
    """What one run left in its ``--out`` directory."""

    digest: str
    files: int
    bytes: int


def artifact_digest(out_dir: Path) -> Artifacts:
    """SHA-256 over every file under ``out_dir``: relative path, size, bytes."""
    h = hashlib.sha256()
    files = total = 0
    by_name = {p.relative_to(out_dir).as_posix(): p for p in out_dir.rglob("*") if p.is_file()}
    for rel, path in sorted(by_name.items()):
        data = path.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
        files += 1
        total += len(data)
    return Artifacts(h.hexdigest(), files, total)


def ring_is_rank_one(out_dir: Path, ring: tuple[int, ...]) -> bool:
    """True when ``report.json`` ranks exactly the planted ring first."""
    report = json.loads((out_dir / "report.json").read_text())
    candidates = report["candidates"]
    return bool(candidates) and tuple(candidates[0]["members"]) == ring


def load_reference(workload: str, seed: int) -> list[str] | None:
    """Per-case digest prefixes recorded for this workload and seed, if any."""
    table = json.loads(REFERENCE_PATH.read_text())
    return table.get(workload, {}).get(str(seed))


class DigestCheck:
    """Checks each case's artifacts against a reference digest.

    With a recorded reference for the seed, every run must match it.
    Without one, the first run of a case becomes its reference, so every
    later run, traced or not, must reproduce it byte for byte.
    """

    def __init__(self, cases: list[Case], reference: list[str] | None):
        if reference is not None and len(reference) != len(cases):
            raise ValueError(
                f"reference lists {len(reference)} digests for {len(cases)} cases"
            )
        self.cases = cases
        self.recorded = reference is not None
        self._expected: list[str | None] = list(reference) if reference else [None] * len(cases)

    def check(self, index: int, out_dir: Path, artifacts: Artifacts) -> str | None:
        """Return why run ``index`` is wrong, or None when it is right."""
        prefix = artifacts.digest[:DIGEST_PREFIX]
        expected = self._expected[index]
        case = self.cases[index]
        if expected is None:
            self._expected[index] = prefix
        elif prefix != expected:
            return f"{case.name}: artifact digest {prefix} differs from reference {expected}"
        if case.ring is not None and not ring_is_rank_one(out_dir, case.ring):
            return f"{case.name}: planted ring {list(case.ring)} is not rank 1"
        return None
