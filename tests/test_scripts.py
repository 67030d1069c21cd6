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


def test_bench_apply_solves_are_backward_stable():
    # every row of bench_apply.py's solve table, run once without its
    # timings: block elimination of an SPD band is backward stable, with a
    # backward error bounded by a modest multiple of n eps_mach (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 9 and
    # 13); the rows read 1e-17 to 1e-16, n eps_mach is 1.4e-14 to 9.1e-13.
    # The substitution with the kept p = 2 factor, built from block
    # inverses, is held to the same bound.
    bench = load_script("bench_apply")
    rng = np.random.default_rng(0)
    for case in bench.SOLVE_CASES:
        op, _, _, _, err, _, sub_err = bench.solve_case(case, rng)
        bound = op.spec.n_interior * np.finfo(float).eps
        assert err <= bound, (case, err)
        assert sub_err <= bound, (case, sub_err)


def test_bench_apply_steps_certify():
    # every row of bench_apply.py's step table, run once without its timings;
    # evolve_2d's tau-preconditioned step takes at most 21 applies (49 with
    # plain CG), and decay_p2's step with the kept factor one iteration of
    # four applies
    bench = load_script("bench_apply")
    for case in bench.STEP_CASES:
        _, _, tol, step = bench.step_case(case)
        res = step()
        assert res.iters > 0 and res.residual <= tol, (case, res.residual, tol)
        if case[1:4] == (2, 64, 0.2):
            assert res.applies <= 21, res.applies
        if case[0] == "newton_factor":
            assert (res.iters, res.applies) == (1, 4)


def test_bench_apply_evolutions_run():
    # every row of bench_apply.py's evolve table, run once without its
    # timings: decay_p2 returns its certified start on most steps, decay_p3
    # on none; decay_p3's stiff first steps take the lagged factor, made
    # fewer times than it takes Newton iterations
    bench = load_script("bench_apply")
    frozen = {}
    for name in bench.EVOLVE_CASES:
        with bench.counted_work() as counts:
            traj = bench.evolve_case(name)()
        assert np.all(traj.residuals[1:] <= traj.inner_tol), name
        frozen[name] = int(np.sum(traj.inner_iters[1:] == 0))
        if name == "decay_p3":
            assert 0 < counts["factors"] < int(traj.inner_iters.sum())
    assert frozen == {"decay_p2": 1946, "decay_p3": 0}


def test_bench_apply_converge_runs_count_their_work():
    # the converge_p3 rows of bench_apply.py's evolve table, run once
    # without their timings: the local reference and the stiff eps = 0.1
    # run solve with a lagged factor, made fewer times than they take
    # Newton iterations, the eps = 0.1 run in under a third of plain CG's
    # 2,956 products; eps = 0.4 and 0.2 keep plain CG and make no factor
    bench = load_script("bench_apply")
    assert bench.CONVERGE_RUNS == [None, 0.4, 0.2, 0.1]
    for eps in bench.CONVERGE_RUNS:
        with bench.counted_work() as counts:
            traj = bench.converge_case(eps)()
        assert np.all(traj.residuals[1:] <= traj.inner_tol), eps
        iters = int(traj.inner_iters.sum())
        assert counts["products"] > 0, eps
        if eps in (None, 0.1):
            assert 0 < counts["factors"] < iters, eps
        else:
            assert counts["factors"] == 0, eps
        if eps == 0.1:
            assert counts["products"] < 2956 / 3


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
        "assert layers['analysis.states_recorded'] == layers['stepper.steps'] + 1, layers\n"
        "assert layers['analysis.state_bytes'] > 0, layers\n"
    )
    path = os.pathsep.join(str(ROOT / d) for d in ("perfbench", "src"))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stdout + run.stderr


def test_no_shipped_run_reaches_the_tracer_only_names(tmp_path, monkeypatch):
    # the names the benchmark tracer patches (the contract in grid.py) all
    # raise, and every shipped config still runs: deleting them with the
    # tracer change cannot change a run
    from nlbiharm import analysis, cli, grid, localref, stepper

    def tracer_only(*args, **kwargs):
        raise AssertionError("a run reached a tracer-only name")

    for mod, name in ((grid, "zero_extend"), (grid, "lp_norm"),
                      (stepper, "zero_extend"), (stepper, "lp_norm"),
                      (analysis, "zero_extend"), (analysis, "lp_norm"),
                      (cli, "zero_extend")):
        monkeypatch.setattr(mod, name, tracer_only)
    monkeypatch.setattr(localref.LocalOperator, "__init__", tracer_only)
    monkeypatch.setattr(stepper.Trajectory, "states", property(tracer_only))

    denoise = tmp_path / "denoise.cfg"  # reads noisy.pgm beside it
    denoise.write_text((SCRIPTS / "configs" / "denoise.cfg").read_text())
    cli.write_pgm(np.random.default_rng(0).random((16, 16)), tmp_path / "noisy.pgm")
    configs = [p for p in sorted((SCRIPTS / "configs").glob("*.cfg")) if p.stem != "denoise"]
    for cfg in configs + [ROOT / "perfbench" / "configs" / "evolve_2d.cfg", denoise]:
        out = tmp_path / cfg.stem
        out.mkdir()
        assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0, cfg.name


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
