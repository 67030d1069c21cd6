"""Acceptance gate: one test per shipped criterion, at pinned tolerances.

Each test prints a PASS line after its assertions; run with ``-s`` (or read
the captured output) for the per-criterion summary.  The heavy runs sit well
inside their stated runtime budgets on commodity hardware.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from nlbiharm import (
    NonlocalOperator,
    StepperConfig,
    consistency_study,
    contraction_study,
    decay_fit,
    default_bump,
    discretize,
    evolve,
    get_kernel,
    make_domain,
    nonlocal_to_local_study,
    poincare_constant,
)
from nlbiharm.cli import main as cli_main
from nlbiharm.grid import lq_sum_norm, zero_extend
from nlbiharm.stepper import _StepFunctional, as_operator

from oracles import dense_nonlocal_matrix, implicit_p2_trajectory, poincare_dense_matrix

GOLDEN = Path(__file__).parent / "golden"


def report(name, elapsed, budget):
    print(f"PASS {name} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget


class TestCriterion1OperatorAlgebra:
    def test_self_adjoint_negative_and_dense_equivalent(self):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        cases = [
            (1, (0.0, 1.0), 64, 0.2),
            (2, ((0.0, 1.0), (0.0, 1.0)), 32, 0.25),
        ]
        for dim, box, nx, eps in cases:
            kern = get_kernel("tent")
            spec = make_domain(dim, box, nx, eps)
            op = NonlocalOperator(discretize(kern, eps, spec), spec)
            vol = spec.cell_volume
            for _ in range(100):
                f = rng.standard_normal(spec.padded_shape)
                g = rng.standard_normal(spec.padded_shape)
                lf = op.apply(f).ravel()
                lg = op.apply(g).ravel()
                f, g = f.ravel(), g.ravel()
                lhs = vol * np.dot(lf, g)
                rhs = vol * np.dot(f, lg)
                scale = max(abs(lhs), abs(rhs), 1e-30)
                assert abs(lhs - rhs) <= 1e-12 * scale
                norm_f = vol * np.dot(f, f)
                assert vol * np.dot(lf, f) <= 1e-12 * max(norm_f, 1.0)

        for dim, box, nx, eps in [(1, (0.0, 1.0), 32, 0.25),
                                  (2, ((0.0, 1.0), (0.0, 1.0)), 16, 0.25)]:
            kern = get_kernel("tent")
            spec = make_domain(dim, box, nx, eps)
            op = NonlocalOperator(discretize(kern, eps, spec), spec)
            mat = dense_nonlocal_matrix(kern, eps, spec)
            v = rng.standard_normal(spec.padded_shape)
            ours = op.apply(v).ravel()
            theirs = mat @ v.ravel()
            assert np.max(np.abs(ours - theirs)) <= 1e-13 * np.abs(theirs).max()
        report("criterion-1 operator-algebra", time.perf_counter() - start, 10)


class TestCriterion2NormBound:
    def test_bounded_by_twice_weight_sum(self, domain64, stencil64):
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        bound = 2.0 * stencil64.diag
        op = NonlocalOperator(stencil64, domain64)
        violations = 0
        vol = domain64.cell_volume
        for _ in range(100):
            u = rng.standard_normal(64)
            lap = op.apply(zero_extend(u, domain64).values).ravel()
            for q in (1.5, 2.0, 3.0):
                if lq_sum_norm(lap, q, vol) > bound * lq_sum_norm(u, q, vol) * (1 + 1e-10):
                    violations += 1
        assert violations == 0
        report("criterion-2 operator-norm-bound", time.perf_counter() - start, 5)


class TestCriterion3GradientCorrectness:
    @pytest.mark.parametrize("p,tol", [(2.0, 1e-5), (1.5, 1e-3), (3.0, 1e-3)])
    def test_central_differences(self, domain64, stencil64, p, tol):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        op = as_operator(stencil64, domain64)
        tau = 1e-5
        for _ in range(20):
            w = rng.standard_normal(64)
            fn = _StepFunctional(op, rng.standard_normal(64), p, 1e-3)
            phi = rng.standard_normal(64)
            g = fn.gradient(w, fn.flux_term(fn.extended(w)))
            fd = (fn.energy(w + tau * phi)[0] - fn.energy(w - tau * phi)[0]) / (2 * tau)
            pairing = fn.vol * float(np.dot(g, phi))
            assert abs(fd - pairing) <= tol * max(abs(fd), abs(pairing))
        report(f"criterion-3 gradient-correctness p={p}", time.perf_counter() - start, 10)


class TestCriterion4RotheDissipation:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_per_step_and_cumulative(self, domain64, stencil64, p):
        start = time.perf_counter()
        rng = np.random.default_rng(404)
        u0 = rng.standard_normal(64)
        traj = evolve(
            u0, domain64, stencil64,
            StepperConfig(p=p, h=5e-3, T=1.0, inner_max_iters=50000),
        )
        tol = 1e-6 * traj.energies[0]
        e, inc, h = traj.energies, traj.increments_sq, traj.h
        per_step = e[:-1] - e[1:] - inc[1:] / h
        assert per_step.min() >= -tol
        cumulative = e[0] - e[-1] - float(np.sum(inc[1:])) / h
        assert cumulative >= -tol
        report(f"criterion-4 rothe-dissipation p={p}", time.perf_counter() - start, 120)


class TestCriterion5OracleTrajectory:
    def test_matches_dense_linear_solver(self, tent1d):
        start = time.perf_counter()
        rng = np.random.default_rng(505)
        spec = make_domain(1, (0.0, 1.0), 16, 0.25)
        st = discretize(tent1d, 0.25, spec)
        mat = dense_nonlocal_matrix(tent1d, 0.25, spec)
        h, m = 1e-3, 50
        u0_int = rng.standard_normal(16)
        refs = implicit_p2_trajectory(mat, spec, u0_int, h, m)
        traj = evolve(
            u0_int, spec, st,
            StepperConfig(p=2.0, h=h, T=m * h),
        )
        worst = max(
            np.sqrt(spec.cell_volume * np.sum((s - r) ** 2))
            for s, r in zip(traj.interior, refs)
        )
        assert worst <= 1e-6
        report("criterion-5 p2-oracle-trajectory", time.perf_counter() - start, 30)


class TestCriterion6DecayRates:
    def test_p2_exponential_tail(self, domain64, stencil64):
        start = time.perf_counter()
        rng = np.random.default_rng(606)
        u0 = rng.standard_normal(64)
        h = 2e-3
        traj = evolve(u0, domain64, stencil64, StepperConfig(p=2.0, h=h, T=4.0))
        # under the unit-moment rescaled kernel the slowest mode decays at
        # rate ~2 ln(1 + h*lambda_1)/h with lambda_1 of clamped-plate size,
        # so the recorded norms reach the inner-solver floor early; the fit
        # runs on the resolvable decay phase, past the multimode transient
        fit = decay_fit(traj, t_lo=10 * h, floor_ratio=1e-18)
        assert fit.n_points >= 20
        assert fit.c1 > 0
        assert fit.r_squared >= 0.99
        report(
            f"criterion-6 decay p=2 (C1={fit.c1:.1f}, r2={fit.r_squared:.6f})",
            time.perf_counter() - start, 300,
        )

    def test_p3_polynomial_tail(self, domain64, stencil64):
        start = time.perf_counter()
        rng = np.random.default_rng(606)
        u0 = rng.standard_normal(64)
        traj = evolve(
            u0, domain64, stencil64,
            StepperConfig(p=3.0, h=5e-3, T=4.0, inner_max_iters=50000),
        )
        fit = decay_fit(traj)  # default last-75% window
        assert fit.c2 > 0
        assert fit.r_squared >= 0.95
        report(
            f"criterion-6 decay p=3 (C2={fit.c2:.1f}, r2={fit.r_squared:.6f})",
            time.perf_counter() - start, 300,
        )


class TestCriterion7Consistency:
    def test_sine_order_and_quadratic_floor(self, tent1d):
        start = time.perf_counter()
        spec = make_domain(1, (0.0, 1.0), 512, 0.2)
        eps_list = [0.2, 0.1, 0.05]
        rep = consistency_study(
            lambda x: np.sin(2 * np.pi * x), tent1d, eps_list, spec, q=2.0
        )
        order = rep.metadata["fitted_order"]
        assert order >= 1.0
        rep_quad = consistency_study(lambda x: x**2, tent1d, eps_list, spec, q=2.0)
        for _, err, _ in rep_quad.rows:
            assert err <= 5.0 * spec.dx**2
        report(
            f"criterion-7 consistency (measured order {order:.2f})",
            time.perf_counter() - start, 30,
        )


class TestCriterion8NonlocalToLocal:
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_errors_halve_along_eps(self, tent1d, p):
        start = time.perf_counter()
        spec = make_domain(1, (0.0, 1.0), 256, 0.4)
        u0 = default_bump(spec)
        rep = nonlocal_to_local_study(
            u0, spec, tent1d, [0.4, 0.2, 0.1],
            StepperConfig(p=p, h=1e-4, T=0.01, inner_max_iters=50000),
        )
        errs = [row[1] for row in rep.rows]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 0.5 * errs[0]
        golden = GOLDEN / f"converge_p{p:g}.csv"
        rows = [line.split(",") for line in golden.read_text().splitlines()[1:]]
        assert len(rows) == len(rep.rows)
        for r, (eps_n, err_n, _) in zip(rows, rep.rows):
            assert float(r[0]) == eps_n
            assert err_n == pytest.approx(float(r[1]), rel=1e-9)
        report(
            f"criterion-8 nonlocal-to-local p={p} "
            f"(ratio {errs[2] / errs[0]:.3f})",
            time.perf_counter() - start, 600,
        )


class TestCriterion9Contraction:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_five_random_pairs(self, domain64, stencil64, p):
        start = time.perf_counter()
        rng = np.random.default_rng(909)
        cfg = StepperConfig(p=p, h=5e-3, T=1.0, inner_max_iters=50000)
        for _ in range(5):
            a_int = rng.standard_normal(64)
            b_int = a_int + 0.5 * rng.standard_normal(64)
            rep = contraction_study(a_int, b_int, domain64, stencil64, cfg)
            assert len(rep.rows) == 201
            assert rep.metadata["violations"] == 0
        report(f"criterion-9 contraction p={p}", time.perf_counter() - start, 180)


class TestCriterion10Poincare:
    def test_power_iteration_and_refinement_stability(self, tent1d):
        start = time.perf_counter()
        spec32 = make_domain(1, (0.0, 1.0), 32, 0.2)
        st32 = discretize(tent1d, 0.2, spec32)
        c_iter = poincare_constant(spec32, st32)
        lam = np.linalg.eigvalsh(poincare_dense_matrix(tent1d, 0.2, spec32))[0]
        assert c_iter == pytest.approx(1.0 / lam, rel=1e-6)
        consts = {}
        for nx in (64, 128):
            spec = make_domain(1, (0.0, 1.0), nx, 0.2)
            st = discretize(tent1d, 0.2, spec)
            consts[nx] = poincare_constant(spec, st)
        assert abs(consts[128] - consts[64]) <= 0.10 * consts[128]
        report(
            f"criterion-10 poincare (C={c_iter:.4f})",
            time.perf_counter() - start, 60,
        )


CRIT4_CONFIG = """\
command = evolve
u0 = random
seed = 404
nx = 64
epsilon = 0.2
p = 2
T = 1.0
h = 0.005
"""

CRIT8_CONFIG = """\
command = converge
u0 = bump
nx = 256
epsilon_list = 0.4,0.2,0.1
p = 2
T = 0.01
h = 0.0001
inner_max_iters = 50000
"""


class TestCriterion11Determinism:
    @pytest.mark.parametrize(
        "name,text,artifact",
        [("crit4", CRIT4_CONFIG, "trajectory.csv"),
         ("crit8", CRIT8_CONFIG, "study.csv")],
    )
    def test_bit_identical_across_runs_and_threads(self, tmp_path, name, text, artifact):
        start = time.perf_counter()
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        blobs = []
        for tag, threads in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / f"{name}_{tag}"
            out.mkdir()
            code = cli_main(
                ["--config", str(cfg), "--out", str(out), "--threads", str(threads)]
            )
            assert code == 0
            blobs.append((out / artifact).read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        report(f"criterion-11 determinism {name}", time.perf_counter() - start, 600)
