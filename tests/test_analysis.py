import numpy as np
import pytest

from nlbiharm import (
    DecayFitDegenerate,
    StepperConfig,
    consistency_study,
    contraction_study,
    decay_fit,
    default_bump,
    discretize,
    energy_audit,
    evolve,
    make_domain,
    nonlocal_to_local_study,
    poincare_constant,
)
from nlbiharm import analysis
from nlbiharm.analysis import poincare_form
from nlbiharm.grid import lq_sum_norm
from nlbiharm.stepper import Trajectory

from oracles import poincare_dense_matrix


def synthetic_trajectory(times, l2_sq, p=2.0):
    n = len(times)
    spec = make_domain(1, (0.0, 1.0), 4, 0.5)
    return Trajectory(
        times=np.asarray(times, dtype=float),
        l2_sq=np.asarray(l2_sq, dtype=float),
        energies=np.zeros(n),
        increments_sq=np.zeros(n),
        inner_iters=np.zeros(n, dtype=int),
        applies=np.zeros(n, dtype=int),
        residuals=np.zeros(n),
        interior=np.zeros((n,) + spec.nx),
        spec=spec,
        p=p,
        h=float(times[1] - times[0]),
        inner_tol=1e-8,
    )


class TestConsistencyStudy:
    def test_quadratic_is_exact_to_quadrature(self, tent1d):
        # the second-moment normalization makes quadratics exact up to the
        # stencil quadrature error, well below 5 dx^2
        spec = make_domain(1, (0.0, 1.0), 512, 0.2)
        report = consistency_study(
            lambda x: x**2, tent1d, [0.2, 0.1, 0.05], spec, q=2.0
        )
        for _, err, _ in report.rows:
            assert err <= 5.0 * spec.dx**2

    def test_sine_order_near_two(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 512, 0.2)
        report = consistency_study(
            lambda x: np.sin(2 * np.pi * x), tent1d, [0.2, 0.1, 0.05], spec, q=2.0
        )
        order = report.metadata["fitted_order"]
        assert order >= 1.0
        assert 1.8 <= order <= 2.2
        errors = [row[1] for row in report.rows]
        assert errors[0] > errors[1] > errors[2]

    def test_constant_gives_quadrature_zero(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 128, 0.2)
        report = consistency_study(
            lambda x: np.ones_like(x), tent1d, [0.2, 0.1], spec, q=2.0,
            lap_phi=lambda x: np.zeros_like(x),
        )
        assert all(row[1] <= 1e-12 for row in report.rows)

    def test_eps_must_decrease(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 128, 0.2)
        with pytest.raises(ValueError, match="decreasing"):
            consistency_study(lambda x: x, tent1d, [0.1, 0.2], spec, q=2.0)

    def test_resolution_guard_propagates(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 64, 0.2)
        with pytest.raises(ValueError, match="under-resolved"):
            consistency_study(lambda x: x, tent1d, [0.2, 0.01], spec, q=2.0)

    @pytest.mark.parametrize("q", [np.inf, np.nan])
    def test_q_not_finite_rejected(self, tent1d, q):
        spec = make_domain(1, (0.0, 1.0), 64, 0.2)
        with pytest.raises(ValueError, match="q must be finite"):
            consistency_study(lambda x: x, tent1d, [0.2, 0.1], spec, q=q)


class TestDecayFit:
    def test_planted_exponential(self):
        t = np.linspace(0, 2.0, 201)
        fit = decay_fit(synthetic_trajectory(t, np.exp(-3.0 * t)))
        assert fit.model == "exponential"
        assert fit.c1 == pytest.approx(3.0, abs=1e-6)
        assert fit.r_squared > 0.999999

    def test_planted_polynomial_p3(self):
        # l2_sq = (2t+1)^-2 transforms to l2_sq^(-1/2) = 2t + 1 for p = 3
        t = np.linspace(0, 2.0, 201)
        fit = decay_fit(synthetic_trajectory(t, (2 * t + 1.0) ** -2, p=3.0))
        assert fit.model == "polynomial"
        assert fit.c2 == pytest.approx(2.0, abs=1e-6)
        assert fit.c3 == pytest.approx(1.0, abs=1e-6)
        assert fit.r_squared > 0.999999

    def test_planted_polynomial_unit_slope(self):
        t = np.linspace(0, 2.0, 201)
        fit = decay_fit(synthetic_trajectory(t, (t + 1.0) ** -2, p=3.0))
        assert fit.c2 == pytest.approx(1.0, abs=1e-6)

    def test_underflow_raises_degenerate(self):
        t = np.linspace(0, 2.0, 101)
        y = np.full_like(t, 1e-310)
        with pytest.raises(DecayFitDegenerate):
            decay_fit(synthetic_trajectory(t, y))

    def test_floor_ratio_truncates_window(self):
        t = np.linspace(0, 2.0, 201)
        y = np.maximum(np.exp(-40.0 * t), 1e-17)
        fit = decay_fit(
            synthetic_trajectory(t, y), t_lo=0.05, floor_ratio=1e-16
        )
        assert fit.window[1] <= 1.0
        assert fit.c1 == pytest.approx(40.0, rel=1e-3)

    def test_needs_enough_steps(self):
        t = np.linspace(0, 1.0, 10)
        with pytest.raises(ValueError, match="20 recorded"):
            decay_fit(synthetic_trajectory(t, np.exp(-t)))

    def test_real_p2_run_tail(self, tent1d, rng):
        spec = make_domain(1, (0.0, 1.0), 64, 0.2)
        st = discretize(tent1d, 0.2, spec)
        u0 = rng.standard_normal(64)
        traj = evolve(u0, spec, st, StepperConfig(p=2.0, h=5e-3, T=2.0))
        fit = decay_fit(traj, t_lo=0.025, floor_ratio=1e-18)
        assert fit.c1 > 0
        assert fit.r_squared >= 0.99


class TestPoincare:
    def test_matches_dense_eigensolve(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 32, 0.2)
        st = discretize(tent1d, 0.2, spec)
        c_iter = poincare_constant(spec, st)
        lam = np.linalg.eigvalsh(poincare_dense_matrix(tent1d, 0.2, spec))[0]
        assert c_iter == pytest.approx(1.0 / lam, rel=1e-9)

    def test_matches_dense_eigensolve_2d(self, tent2d):
        spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), 10, 0.3)
        c = poincare_constant(spec, discretize(tent2d, 0.3, spec))
        lam = np.linalg.eigvalsh(poincare_dense_matrix(tent2d, 0.3, spec))[0]
        assert c == pytest.approx(1.0 / lam, rel=1e-9)

    def test_form_matrix_matches_independent_assembly(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 16, 0.25)
        st = discretize(tent1d, 0.25, spec)
        # the matrix of the matrix-free form, column by column
        ours = np.column_stack([poincare_form(spec, st)(e) for e in np.eye(16)])
        theirs = poincare_dense_matrix(tent1d, 0.25, spec)
        assert np.max(np.abs(ours - theirs)) <= 1e-12 * np.abs(theirs).max()

    def test_positive_and_stable_under_refinement(self, tent1d):
        consts = {}
        for nx in (32, 64):
            spec = make_domain(1, (0.0, 1.0), nx, 0.2)
            st = discretize(tent1d, 0.2, spec)
            consts[nx] = poincare_constant(spec, st)
        assert all(c > 0 and np.isfinite(c) for c in consts.values())
        assert abs(consts[64] - consts[32]) <= 0.10 * consts[64]

    def test_eigenvalue_minimality_inequality(self, tent1d, rng):
        spec = make_domain(1, (0.0, 1.0), 32, 0.2)
        st = discretize(tent1d, 0.2, spec)
        c = poincare_constant(spec, st)
        mat = poincare_dense_matrix(tent1d, 0.2, spec)
        for _ in range(10):
            u = rng.standard_normal(32)
            form = float(u @ mat @ u) * spec.cell_volume
            l2sq = spec.cell_volume * float(u @ u)
            assert form >= (1.0 / c) * l2sq * (1 - 1e-8)


class TestNonlocalToLocal:
    def test_zero_initial_state_gives_zero_error(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 64, 0.4)
        u0 = np.zeros(64)
        rep = nonlocal_to_local_study(
            u0, spec, tent1d, [0.4], StepperConfig(p=2.0, h=1e-3, T=0.01)
        )
        assert rep.rows[0][1] == 0.0

    def test_padding_must_cover_largest_eps(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 64, 0.2)
        u0 = np.zeros(64)
        with pytest.raises(ValueError, match="collar"):
            nonlocal_to_local_study(
                u0, spec, tent1d, [0.4, 0.2], StepperConfig(p=2.0, h=1e-3, T=0.01)
            )

    def test_under_resolved_eps_fails_before_any_run(self, tent1d, monkeypatch):
        # every eps is discretized before the local and nonlocal runs start
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before every eps was discretized")

        monkeypatch.setattr(analysis, "local_evolve", no_run)
        monkeypatch.setattr(analysis, "evolve", no_run)
        spec = make_domain(1, (0.0, 1.0), 64, 0.4)
        with pytest.raises(ValueError, match="under-resolved"):
            nonlocal_to_local_study(
                default_bump(spec), spec, tent1d, [0.4, 0.02],
                StepperConfig(p=2.0, h=1e-3, T=0.01),
            )

    def test_errors_decrease_small_case(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 128, 0.4)
        u0 = default_bump(spec)
        rep = nonlocal_to_local_study(
            u0, spec, tent1d, [0.4, 0.2], StepperConfig(p=2.0, h=2e-4, T=2e-3)
        )
        errs = [r[1] for r in rep.rows]
        assert errs[1] < errs[0]
        assert rep.metadata["pass_errors_decreasing"]


class TestContraction:
    def test_identical_states_stay_identical(self, domain64, stencil64):
        u = default_bump(domain64)
        rep = contraction_study(u, u, domain64, stencil64, StepperConfig(p=2.0, h=1e-3, T=0.01))
        assert all(row[1] == 0.0 for row in rep.rows)
        assert rep.metadata["pass_nonincreasing"]

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_random_pair_nonincreasing(self, domain64, stencil64, rng, p):
        a = rng.standard_normal(64)
        b = a + 0.1 * rng.standard_normal(64)
        rep = contraction_study(
            a, b, domain64, stencil64,
            StepperConfig(p=p, h=1e-3, T=0.02, inner_max_iters=30000),
        )
        assert rep.metadata["violations"] == 0

    def test_slack_is_ten_times_the_looser_step_tolerance(self, domain64, stencil64, rng):
        a = rng.standard_normal(64)
        b = 4.0 * a + 0.1 * rng.standard_normal(64)
        c = StepperConfig(p=2.0, h=1e-3, T=5e-3)
        rep = contraction_study(a, b, domain64, stencil64, c)
        tols = [evolve(u, domain64, stencil64, c).inner_tol for u in (a, b)]
        assert tols[0] < tols[1]
        assert rep.metadata["slack"] == 10.0 * max(tols)


class TestDistances:
    def test_2d_matches_the_padded_norm(self, tent2d, rng):
        # every shipped converge and contraction config is 1D, so this pins
        # the row norms on a 2D grid against the interior norm of each row
        # difference, in the order the padded layer summed it
        spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), 12, 0.25)
        st = discretize(tent2d, 0.25, spec)
        c = StepperConfig(p=2.0, h=1e-3, T=3e-3)
        traj_a = evolve(rng.standard_normal(spec.nx), spec, st, c)
        traj_b = evolve(rng.standard_normal(spec.nx), spec, st, c)
        for q in (2.0, 3.0):
            rows = [lq_sum_norm((a - b).ravel(), q, spec.cell_volume)
                    for a, b in zip(traj_a.interior, traj_b.interior)]
            assert analysis._distances(traj_a, traj_b, q) == rows


class TestEnergyAudit:
    def test_zero_trajectory_slacks(self, domain16, stencil16):
        traj = evolve(
            np.zeros(16), domain16, stencil16,
            StepperConfig(p=2.0, h=0.01, T=0.05),
        )
        rep = energy_audit(traj)
        assert rep.metadata["worst_slack"] == 0.0
        assert rep.all_passed()

    def test_implicit_run_inequalities_hold(self, domain64, stencil64, rng):
        u0 = rng.standard_normal(64)
        traj = evolve(u0, domain64, stencil64, StepperConfig(p=2.0, h=5e-3, T=0.1))
        rep = energy_audit(traj)
        assert rep.all_passed()

    def test_csv_roundtrip(self, tmp_path, domain16, stencil16):
        traj = evolve(
            np.zeros(16), domain16, stencil16,
            StepperConfig(p=2.0, h=0.01, T=0.05),
        )
        rep = energy_audit(traj)
        rep.to_csv(tmp_path / "audit.csv")
        lines = (tmp_path / "audit.csv").read_text().splitlines()
        assert lines[0] == "check,slack,tolerance"
        assert len(lines) == 1 + len(rep.rows)
