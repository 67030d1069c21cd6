#!/usr/bin/env python3
"""nlbiharm benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {converge_p3,evolve_2d,battery}
        [--seed N] [--seconds S] [--trace 0|1]

Each repetition is a fresh ``python3 perfbench/child.py`` process that runs
the workload's studies through ``nlbiharm.cli.main --threads 1`` with BLAS
pinned to one thread.  Repetitions run one after another, closed loop, until
the next one would end after ``--seconds``; at least one always runs.

``--trace 0`` runs full repetitions, then set-up probes (children that stop
at the first operator apply) in the time left, and reports medians:

* ``wall_s``: first study call to the return of the last study, which has
  written the last CSV;
* ``setup_s``: process spawn to the first operator apply, which each study
  makes right before its first Rothe step (probes and repetitions pooled);
* ``cpu_s``: user + system CPU of the child, all its threads included;
* ``peak_rss_mb``: peak resident memory of the child;
* ``pass_frac``: studies that passed every output check / studies attempted.

``wall_s`` and ``cpu_s`` of each repetition are scaled to the quiet
reference host by the host speed its child sampled during its studies
(hostspeed.py); the raw times are printed on ``#`` lines.  ``setup_s`` is
not scaled: it is mostly imports, which do not slow down with the probe.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see perfbench/README.md).

Every repetition's outputs are checked: exit code 0, no FAIL or ERROR line,
at least one PASS line, the workload's own reference files, and CSVs
byte-identical to the first repetition's.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Set-up probes run after the full repetitions, in the time left; at least
# MIN_SETUP_PROBES, and SETUP_RESERVE_S is kept free for them.
MIN_SETUP_PROBES = 3
SETUP_RESERVE_S = 1.5
# A run must end within 180 s; a child still running at this point is killed.
HARD_LIMIT_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass
class Rep:
    mode: str
    seconds: float  # spawn to exit, as the parent saw it
    setup_s: float | None = None
    wall_s: float | None = None  # host-probe time taken out, not scaled
    cpu_s: float | None = None  # host-probe CPU taken out, not scaled
    speed: float | None = None  # host speed over the studies
    samples: int = 0  # host-speed samples the child took
    rss_mb: float | None = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    layers: dict | None = None
    untraced: list = field(default_factory=list)


class Runner:
    """Spawns and checks the repetitions of one workload."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.work = work
        self.workload = workload
        self.probe = hostspeed.Probe(workload)
        self.hard_deadline = deadline
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        self.members, self.seeds = workloads.prepare(workload, seed, ROOT, inputs)
        self.first_csvs: dict | None = None
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
        self.count = 0

    def spawn(self, mode: str, corrupt=None) -> Rep:
        """Run one child and check its outputs.  ``corrupt(name, outdir)``,
        when given, edits each study's outputs before the checks (self-test)."""
        self.count += 1
        rep_dir = self.work / f"rep{self.count}"
        rep_dir.mkdir()
        studies = []
        for name, config in self.members:
            out = rep_dir / name
            out.mkdir()
            studies.append({"name": name, "config": config, "out": str(out)})
        job = rep_dir / "job.json"
        result_path = rep_dir / "result.json"
        job.write_text(json.dumps(
            {"mode": mode, "workload": self.workload, "studies": studies,
             "result": str(result_path)}
        ))
        with open(rep_dir / "child.log", "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(job)],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            status, usage = self._wait(proc)
            t_exit = time.monotonic()
        rep = Rep(mode=mode, seconds=t_exit - t_spawn)
        result = None
        if status == 0 and result_path.is_file():
            result = json.loads(result_path.read_text())
        else:
            tail = (rep_dir / "child.log").read_text(errors="replace")[-2000:]
            rep.problems.append(f"child exit status {status}: {tail}")
        if result is not None and result.get("first_apply") is not None:
            rep.setup_s = result["first_apply"] - t_spawn
        if mode != "setup":
            if corrupt is not None:
                for study in studies:
                    corrupt(study["name"], Path(study["out"]))
            rep.attempted = len(studies)
            self._check(rep, studies, result)
            if result is not None:
                rep.wall_s = result["wall_s"]
                rep.cpu_s = usage.ru_utime + usage.ru_stime - result.get("probe_cpu_s", 0.0)
                samples = result.get("samples")  # none in a traced repetition
                if samples:
                    rep.speed = self.probe.speed(samples)
                    rep.samples = len(samples)
                rep.rss_mb = usage.ru_maxrss / 1024.0
                rep.layers = result.get("layers")
                rep.untraced = result.get("skipped", [])
        shutil.rmtree(rep_dir)
        return rep

    def _wait(self, proc):
        """Reap the child, killing it at the hard deadline or when the wait
        is interrupted; returns its exit code and resource usage."""
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.hard_deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.005)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def _check(self, rep: Rep, studies: list, result: dict | None) -> None:
        ran = {s["name"]: s for s in (result or {}).get("studies", [])}
        csvs = {}
        for study in studies:
            name = study["name"]
            out = Path(study["out"])
            if name not in ran:
                problems = ["did not run"]
            else:
                problems = workloads.check_member(
                    name, ran[name]["rc"], ran[name]["lines"], out, ROOT
                )
            csvs[name] = workloads.read_csvs(out)
            if self.first_csvs is not None and csvs[name] != self.first_csvs.get(name):
                problems.append("CSVs differ from the first repetition")
            if problems:
                rep.failed += 1
                rep.problems += [f"{name}: {p}" for p in problems]
        if self.first_csvs is None and not rep.failed:
            self.first_csvs = csvs


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _spread(values) -> str:
    values = [v for v in values if v is not None]
    if not values:
        return "n=0"
    return f"median {statistics.median(values):.4f} min {min(values):.4f} max {max(values):.4f} n={len(values)}"


def measure(runner: Runner, seconds: float, start: float, traced: bool) -> list[Rep]:
    """Closed loop: start the next repetition (or untraced/traced pair) only
    if it is expected to end within ``seconds`` of ``start``; untraced runs
    then fill the time left with set-up probes."""
    reps: list[Rep] = []
    modes = ("full", "trace") if traced else ("full",)
    reserve = 0.0 if traced else SETUP_RESERVE_S
    durations: list[float] = []
    while not durations or (
        time.monotonic() + statistics.median(durations) <= start + seconds - reserve
    ):
        t = time.monotonic()
        reps += [runner.spawn(m) for m in modes]
        durations.append(time.monotonic() - t)
        if any(r.attempted and r.wall_s is None for r in reps):
            return reps  # a crashed child: measuring further adds nothing
    if traced:
        return reps
    probes: list[float] = []
    while len(probes) < MIN_SETUP_PROBES or (
        time.monotonic() + statistics.median(probes) <= start + seconds
    ):
        rep = runner.spawn("setup")
        reps.append(rep)
        probes.append(rep.seconds)
    return reps


def _fastest(values) -> float:
    values = [v for v in values if v is not None]
    return min(values) if values else 0.0


def _scaled(rep: Rep, value: float | None) -> float | None:
    return None if value is None or rep.speed is None else value * rep.speed


def end_to_end(reps: list[Rep]) -> dict:
    """Medians over the repetitions: speed-scaled wall and CPU time, memory,
    and (probes included) unscaled set-up time."""
    full = [r for r in reps if r.mode == "full"]
    attempted = sum(r.attempted for r in full)
    failed = sum(r.failed for r in full)
    print(f"# setup_s  {_spread([r.setup_s for r in reps])} (probes and repetitions)")
    print(f"# raw wall_s   {_spread([r.wall_s for r in full])}")
    print(f"# raw cpu_s    {_spread([r.cpu_s for r in full])}")
    print(f"# host speed   {_spread([r.speed for r in full])}")
    print(f"# scaled wall_s  {_spread([_scaled(r, r.wall_s) for r in full])}")
    print(f"# scaled cpu_s   {_spread([_scaled(r, r.cpu_s) for r in full])}")
    print(f"# rss_mb   {_spread([r.rss_mb for r in full])}")
    return {
        "wall_s": (_median(_scaled(r, r.wall_s) for r in full), "s"),
        "setup_s": (_median(r.setup_s for r in reps), "s"),
        "cpu_s": (_median(_scaled(r, r.cpu_s) for r in full), "s"),
        "peak_rss_mb": (_median(r.rss_mb for r in full), "MiB"),
        "pass_frac": ((attempted - failed) / attempted if attempted else 0.0, "frac"),
    }


def per_layer(reps: list[Rep]) -> tuple[dict, list]:
    traced = [r for r in reps if r.mode == "trace" and r.layers is not None]
    plain = [r for r in reps if r.mode == "full" and r.wall_s is not None]
    problems = []
    if not traced:
        return {}, ["no traced repetition finished"]
    first = traced[0].layers
    for r in traced[1:]:
        for name in spans.COUNT_METRICS:
            if r.layers[name] != first[name]:
                problems.append(f"count {name} changed: {first[name]} -> {r.layers[name]}")
    out = {}
    for name, unit in spans.per_layer_units().items():
        if name == "trace.overhead_frac":
            continue
        if name in spans.COUNT_METRICS:
            out[name] = (first[name], unit)
        else:
            out[name] = (_median(r.layers[name] for r in traced), unit)
    traced_wall = _fastest(r.wall_s for r in traced)
    plain_wall = _fastest(r.wall_s for r in plain)
    out["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0 if plain_wall else 0.0, "frac")
    for name in traced[0].untraced:
        print(f"# note: {name} not found in the package, not traced")
    print(f"# traced wall_s {_spread([r.wall_s for r in traced])}")
    print(f"# untraced wall_s {_spread([r.wall_s for r in plain])}")
    return out, problems


def environment(seed: int, seeds: dict) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "member_seeds": seeds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_ENV,
        "cli_threads": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 reproduces the shipped seeds; others derive new inputs")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in workloads.REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an nlbiharm checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        runner = Runner(args.workload, args.seed, work, start + HARD_LIMIT_S)
        reps = measure(runner, args.seconds, start, traced=bool(args.trace))
        print(f"# env {json.dumps(environment(args.seed, runner.seeds), sort_keys=True)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    checked = [r for r in reps if r.mode != "setup"]
    problems = [p for r in reps for p in r.problems]
    if args.trace:
        metrics, trace_problems = per_layer(reps)
        problems += trace_problems
    else:
        metrics = end_to_end(reps)
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    for p in problems:
        print(f"# problem: {p}")
    print(f"# {args.workload}: {len(checked)} repetitions, {attempted} studies, {failed} failed")
    correct = failed == 0 and not problems and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
