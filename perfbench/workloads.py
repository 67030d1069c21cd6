"""Workload members, their seeded inputs and their output checks.

A workload is a list of studies that one child process runs in order through
``nlbiharm.cli.main``.  Inputs are made here, outside the program: a config
file per study (a copy of the shipped one, with its ``seed`` key replaced
when the workload seed is not 0) and, for the denoise demo, the noisy PGM
image.  The config format can carry a random initial state only through its
``seed`` key, so that key is how a regenerated ``u0`` reaches the program.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Tolerance of the goldens in tests/golden (see test_acceptance criterion 8).
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass(frozen=True)
class Member:
    name: str
    config: str  # relative to the checkout root
    seed_key: bool = False  # the shipped config has a ``seed`` key
    image: bool = False  # the study reads the denoise demo's noisy image


WORKLOADS = {
    # Solver-bound: three 1D nonlocal runs (K = 204/102/50 on 666 nodes) plus
    # the clamped local reference; the stiff eps = 0.1 run dominates.
    "converge_p3": [Member("converge_p3", "scripts/configs/converge_p3.cfg")],
    # Apply-bound: one implicit step of a 2D random start, K = 508 on a
    # 116 x 116 padded grid (about 16 ms per apply on the reference box).
    # Its start stays seed 404 at every workload seed: the BB iteration count
    # of this one step moves the time by up to 50% between random starts
    # (interquartile spread 0.25 over ten seeds), which would hide the
    # effect of any change to apply.
    "evolve_2d": [Member("evolve_2d", "perfbench/configs/evolve_2d.cfg")],
    # Overhead-bound: thousands of short steps on small grids (K = 24 on 116
    # nodes), state recording, CSV writing and study post-processing.
    "battery": [
        Member("dissipation_p2", "scripts/configs/dissipation_p2.cfg", seed_key=True),
        Member("decay_p2", "scripts/configs/decay_p2.cfg", seed_key=True),
        Member("decay_p3", "scripts/configs/decay_p3.cfg", seed_key=True),
        Member("contraction", "scripts/configs/contraction.cfg", seed_key=True),
        Member("consistency", "scripts/configs/consistency.cfg"),
        Member("poincare", "scripts/configs/poincare.cfg"),
        Member("denoise", "scripts/configs/denoise.cfg", image=True),
    ],
}

# Files the benchmark needs from the program's checkout.
REQUIRED = (
    "src/nlbiharm/__init__.py",
    "src/nlbiharm/cli.py",
    "tests/golden/converge_p3.csv",
) + tuple(m.config for ms in WORKLOADS.values() for m in ms)

GOLDEN_CONVERGE = "tests/golden/converge_p3.csv"
REFERENCE_EVOLVE_2D = HERE / "reference" / "evolve_2d_trajectory.csv"

# The denoise demo's defaults (scripts/denoise_demo.py).
IMAGE_SIZE = 64
IMAGE_NOISE = 0.15
IMAGE_SEED = 5


def derived_seed(workload_seed: int, shipped: int) -> int:
    """Seed 0 keeps the shipped seed; any other seed derives a new one."""
    if workload_seed == 0:
        return shipped
    import numpy as np

    # SeedSequence takes non-negative entropy; negative seeds wrap to 64 bits
    seq = np.random.SeedSequence(workload_seed % 2**64, spawn_key=(shipped,))
    return int(seq.generate_state(1)[0])


def write_noisy_gradient(path: Path, seed: int) -> None:
    """The denoise demo's test image: a horizontal ramp plus clipped noise."""
    import numpy as np

    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, IMAGE_SIZE)[:, None]
    clean = np.tile(x, (1, IMAGE_SIZE))
    noisy = np.clip(clean + IMAGE_NOISE * rng.standard_normal(clean.shape), 0.0, 1.0)
    quantized = np.rint(noisy * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{IMAGE_SIZE} {IMAGE_SIZE}\n255\n".encode("ascii"))
        fh.write(quantized.T.tobytes())


def prepare(workload: str, seed: int, root: Path, inputs: Path) -> tuple[list, dict]:
    """Write one config per member into ``inputs``.

    Returns ``[(name, config_path)]`` and the seeds actually used.
    """
    members = []
    used = {}
    for m in WORKLOADS[workload]:
        text = (root / m.config).read_text(encoding="utf-8")
        if m.seed_key:
            match = re.search(r"^seed\s*=\s*(\d+)", text, flags=re.M)
            if match is None:
                raise ValueError(f"{m.config} has no seed key")
            used[m.name] = derived_seed(seed, int(match.group(1)))
            text = text[: match.start()] + f"seed = {used[m.name]}" + text[match.end():]
        if m.image:
            image = inputs / "noisy.pgm"
            used[m.name] = derived_seed(seed, IMAGE_SEED)
            write_noisy_gradient(image, used[m.name])
            text, n = re.subn(r"^input\s*=.*$", f"input = {image}", text, flags=re.M)
            if n != 1:
                raise ValueError(f"{m.config} has no input key")
        path = inputs / f"{m.name}.cfg"
        path.write_text(text, encoding="utf-8")
        members.append((m.name, str(path)))
    return members, used


def _close(actual: str, expected: str) -> bool:
    a, e = float(actual), float(expected)
    if math.isnan(e):
        return math.isnan(a)
    return abs(a - e) <= max(REL_TOL * abs(e), ABS_TOL)


def compare_csv(actual: Path, expected: Path, exact: tuple, close: tuple) -> list[str]:
    """Compare two CSVs: ``exact`` columns as text, ``close`` ones at 1e-9."""
    if not actual.is_file():
        return [f"{actual.name} missing"]
    got = actual.read_text().splitlines()
    want = expected.read_text().splitlines()
    if not got or got[0] != want[0]:
        return [f"{actual.name} header {got[:1]} != {want[:1]}"]
    if len(got) != len(want):
        return [f"{actual.name} has {len(got) - 1} rows, expected {len(want) - 1}"]
    cols = want[0].split(",")
    problems = []
    for lineno, (g, w) in enumerate(zip(got[1:], want[1:]), start=2):
        gr, wr = g.split(","), w.split(",")
        for name in exact:
            i = cols.index(name)
            if gr[i] != wr[i]:
                problems.append(f"{actual.name}:{lineno} {name} {gr[i]} != {wr[i]}")
        for name in close:
            i = cols.index(name)
            if not _close(gr[i], wr[i]):
                problems.append(f"{actual.name}:{lineno} {name} {gr[i]} vs {wr[i]}")
    return problems


def check_member(name: str, rc: int, lines: list, out: Path, root: Path) -> list[str]:
    """Problems with one study's exit code, printed lines and files."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    bad = [ln for ln in lines if ln.startswith(("FAIL", "ERROR"))]
    problems += bad
    if not any(ln.startswith("PASS") for ln in lines):
        problems.append("no PASS line")
    if name == "converge_p3":
        problems += compare_csv(
            out / "study.csv", root / GOLDEN_CONVERGE,
            exact=("epsilon",), close=("sup_t_error",),
        )
    elif name == "evolve_2d":
        if "PASS energy_audit.all_inequalities" not in lines:
            problems.append("no PASS energy_audit.all_inequalities")
        # inner_iters and residual describe the solver's path, not the
        # solution, and are not compared
        problems += compare_csv(
            out / "trajectory.csv", REFERENCE_EVOLVE_2D,
            exact=("step", "time", "operator"),
            close=("l2_sq", "energy", "increment_sq"),
        )
    return problems


def read_csvs(out: Path) -> dict:
    """Every CSV a study wrote, by file name, as bytes."""
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
