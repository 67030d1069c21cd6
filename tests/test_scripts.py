import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name", ["bench_apply", "compare_outputs", "denoise_demo", "run_all_studies"]
)
def test_script_imports(name):
    # importing runs the script's own imports from the package, not main()
    assert callable(load_script(name).main)


def test_bench_apply_correlations_match_the_loop():
    # the exit-1 gate of bench_apply.py on every case, without its timings
    bench = load_script("bench_apply")
    rng = np.random.default_rng(0)
    for case in bench.CASES:
        diffs = bench.check_case(case, rng)[-1]
        assert max(diffs) <= bench.MAX_DIFF, (case, diffs)


def test_bench_apply_steps_certify():
    # every row of bench_apply.py's step table, run once without its timings;
    # evolve_2d's tau-preconditioned step takes at most 21 applies (49 with
    # plain CG)
    bench = load_script("bench_apply")
    for case in bench.STEP_CASES:
        _, _, tol, step = bench.step_case(case)
        res = step()
        assert res.iters > 0 and res.residual <= tol, (case, res.residual, tol)
        if case[1:4] == (2, 64, 0.2):
            assert res.applies <= 21, res.applies


def test_compare_outputs_names_the_moved_column(tmp_path):
    compare = load_script("compare_outputs")
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        (root / "study").mkdir(parents=True)
        (root / "image.pgm").write_bytes(b"P5\n1 1\n255\n\x07")
    (old / "study" / "a.csv").write_text("step,l2_sq,energy\n0,2.0,4.0\n1,1.0,3.0\n")
    (new / "study" / "a.csv").write_text("step,l2_sq,energy\n0,2.0,4.0\n1,1.0,3.5\n")
    lines, same = compare.compare_trees(old, old)
    assert same
    assert lines == ["study/a.csv: identical", "image.pgm: byte-identical"]
    lines, same = compare.compare_trees(old, new)
    assert not same
    assert lines == [
        "study/a.csv: differs",
        "  step: 0.00e+00",
        "  l2_sq: 0.00e+00",
        "  energy: 1.25e-01",
        "image.pgm: byte-identical",
    ]


def test_denoise_demo_manifest_independent_of_outdir(tmp_path, monkeypatch):
    # the demo's config names its image relative to itself, so two runs into
    # different directories hash the same config
    demo = load_script("denoise_demo")
    manifests = []
    for name in ("a", "nested/b"):
        out = tmp_path / name
        monkeypatch.setattr("sys.argv", ["denoise_demo.py", str(out), "--size", "16"])
        assert demo.main() == 0
        manifests.append((out / "manifest.csv").read_bytes())
    assert manifests[0] == manifests[1]


def test_benchmark_tracer_finds_every_patched_name(tmp_path):
    # perfbench/run.py --trace 1 wraps package names by their strings, so a
    # rename in the package shows here as a skipped name or as no steps.  It
    # runs in its own process: Tracer.uninstall leaves some methods wrapped.
    cfg = tmp_path / "evolve.cfg"
    cfg.write_text("command = evolve\nnx = 16\nepsilon = 0.25\nT = 0.05\nh = 0.01\n")
    out = tmp_path / "out"
    out.mkdir()
    code = (
        "import spans\n"
        "from nlbiharm import cli\n"
        "tracer = spans.Tracer()\n"
        "spans.install(tracer)\n"
        "assert tracer.skipped == [], tracer.skipped\n"
        f"argv = ['--config', {str(cfg)!r}, '--out', {str(out)!r}]\n"
        "assert tracer.span('cli.study.evolve', lambda: cli.main(argv)) == 0\n"
        "tracer.uninstall()\n"
        "layers = spans.layer_metrics(tracer, 1.0)\n"
        "assert layers['stepper.steps'] > 0, layers\n"
    )
    path = os.pathsep.join(str(ROOT / d) for d in ("perfbench", "src"))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stdout + run.stderr


def test_run_all_studies_passes_every_study(tmp_path):
    # the shipped battery: each study prints at least one PASS line and none
    # prints FAIL, so a change that breaks a shipped check fails here
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_all_studies.py"), str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stdout + run.stderr
    passes, study = {}, None
    for line in run.stdout.splitlines():
        assert not line.startswith("FAIL"), line
        if line.startswith("== "):
            study = line.strip("= ")
            passes[study] = 0
        elif line.startswith("PASS "):
            passes[study] += 1
    stems = {p.stem for p in (SCRIPTS / "configs").glob("*.cfg")} - {"denoise"}
    assert set(passes) == stems
    assert all(passes.values()), passes
