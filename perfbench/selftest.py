#!/usr/bin/env python3
"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, in about a minute on two cores:

* BENCHMARK.json names exactly the workloads and metrics the code reports;
* at seed 0 the generated inputs are the shipped ones: each config is a
  byte-identical copy (denoise: only its ``input`` line differs) and the
  noisy image is the one ``scripts/denoise_demo.py`` writes;
* two traced repetitions of each workload report identical counts
  (``nlop.apply_calls``, ``stepper.inner_iters``, ``stepper.frozen_steps``
  and the rest of ``spans.COUNT_METRICS``);
* the ``k<K>`` keys with calls are exactly the workload's stencil sizes;
* a corrupted output makes the repetition fail, so ``pass_frac`` drops;
* a full repetition takes host-speed samples (hostspeed.py) during its
  studies, and its scaled times are positive.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = run.ROOT
EXPECTED_K = {
    "converge_p3": {50, 102, 204},
    "evolve_2d": {508},
    "battery": {24, 44, 50, 102, 204},
}
# The CSV cell a corruption scales by 1 + 1e-6, per study it applies to:
# outside the 1e-9 rule of the reference files and the byte comparison.
CORRUPT = {
    "converge_p3": ("study.csv", "sup_t_error"),
    "evolve_2d": ("trajectory.csv", "l2_sq"),
    "decay_p2": ("decay_fit.csv", "value"),
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_manifest() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads match workloads.WORKLOADS")
    check([m["name"] for m in bench["per_layer"]] == list(spans.per_layer_units()),
          "BENCHMARK.json per_layer matches spans.per_layer_units()")
    check(all(m["unit"] == spans.per_layer_units()[m["name"]] for m in bench["per_layer"]),
          "BENCHMARK.json per_layer units match")
    e2e = run.end_to_end([])
    check([m["name"] for m in bench["end_to_end"]] == list(e2e),
          "BENCHMARK.json end_to_end matches run.end_to_end()")
    check(all(m["unit"] == e2e[m["name"]][1] for m in bench["end_to_end"]),
          "BENCHMARK.json end_to_end units match")


def check_inputs(tmp: Path) -> None:
    for name in workloads.WORKLOADS:
        inputs = tmp / name
        inputs.mkdir()
        members, _ = workloads.prepare(name, 0, ROOT, inputs)
        for (member, path), spec in zip(members, workloads.WORKLOADS[name]):
            got = Path(path).read_text().splitlines()
            want = (ROOT / spec.config).read_text().splitlines()
            if spec.image:
                got = [ln for ln in got if not ln.startswith("input")]
                want = [ln for ln in want if not ln.startswith("input")]
            check(got == want, f"seed 0 config of {member} is the shipped one")
    sys.path.insert(0, str(ROOT / "src"))  # the demo imports nlbiharm
    demo_spec = importlib.util.spec_from_file_location(
        "denoise_demo", ROOT / "scripts" / "denoise_demo.py"
    )
    demo = importlib.util.module_from_spec(demo_spec)
    demo_spec.loader.exec_module(demo)
    demo.make_noisy_gradient(tmp / "demo.pgm", workloads.IMAGE_SIZE, workloads.IMAGE_NOISE)
    workloads.write_noisy_gradient(tmp / "bench.pgm", workloads.IMAGE_SEED)
    check((tmp / "demo.pgm").read_bytes() == (tmp / "bench.pgm").read_bytes(),
          "seed 0 noisy image is the denoise demo's")


def corrupt(name: str, out: Path) -> None:
    """Scale one cell of the first data row of one output CSV."""
    if name not in CORRUPT:
        return
    filename, column = CORRUPT[name]
    path = out / filename
    lines = path.read_text().splitlines()
    i = lines[0].split(",").index(column)
    cells = lines[1].split(",")
    cells[i] = repr(float(cells[i]) * (1.0 + 1e-6))
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def check_workload(name: str, tmp: Path) -> None:
    runner = run.Runner(name, 0, tmp / f"work-{name}", time.monotonic() + 600)
    traced = [runner.spawn("trace") for _ in range(2)]
    for rep in traced:
        check(rep.failed == 0 and not rep.problems,
              f"{name}: traced repetition passes its output checks {rep.problems}")
    if any(r.layers is None for r in traced):
        check(False, f"{name}: traced repetitions report layers")
        return
    a, b = traced[0].layers, traced[1].layers
    for metric in spans.COUNT_METRICS:
        check(a[metric] == b[metric], f"{name}: {metric} repeats ({a[metric]}, {b[metric]})")
    seen = {k for k in spans.STENCIL_SIZES if a[f"nlop.apply_us.k{k}"] > 0}
    check(seen == EXPECTED_K[name], f"{name}: stencil sizes {sorted(seen)}")
    check(a["nlop.apply_us.other"] == 0, f"{name}: no apply at another stencil size")
    check(set(a) | {"trace.overhead_frac"} == set(spans.per_layer_units()),
          f"{name}: traced run reports every per-layer metric")

    bad = runner.spawn("full", corrupt=corrupt)
    check(bad.failed > 0, f"{name}: corrupted output fails ({bad.failed}/{bad.attempted})")
    check(bad.samples > 0 and bad.speed > 0 and bad.wall_s > 0 and bad.cpu_s > 0,
          f"{name}: full repetition took {bad.samples} host-speed samples, speed {bad.speed}")
    frac = run.end_to_end([bad])["pass_frac"][0]
    check(frac < 1.0, f"{name}: pass_frac {frac:.3f} < 1 with a corrupted output")


def main() -> int:
    missing = [p for p in workloads.REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not an nlbiharm checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    check_manifest()
    tmp = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        check_inputs(tmp)
        for name in workloads.WORKLOADS:
            check_workload(name, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
