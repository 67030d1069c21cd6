import numpy as np
import pytest

from nlbiharm import (
    StabilityViolation,
    StepperConfig,
    dirichlet_energy,
    discretize,
    evolve,
    explicit_step,
    implicit_step,
    inner_product,
    lp_norm,
    make_domain,
    rescale,
    step_energy,
    step_gradient,
    trajectory_to_csv,
    zero_extend,
)
from nlbiharm.stepper import (
    InnerSolveFailed,
    _minimize_step,
    effective_inner_tol,
    explicit_stability_limit,
)
from nlbiharm.localref import LocalOperator
from nlbiharm.nlop import NonlocalOperator

from oracles import (
    dense_nonlocal_matrix,
    extension_matrix,
    implicit_p2_trajectory,
)


def cfg(p=2.0, h=1e-3, T=1.0, **kw):
    return StepperConfig(p=p, h=h, T=T, **kw)


class TestStepEnergy:
    def test_zero_pair(self, domain16, stencil16):
        z = zero_extend(np.zeros(16), domain16)
        assert step_energy(z, z, stencil16, cfg()) == 0.0

    def test_p2_matches_dense_forms(self, tent1d, rng):
        spec = make_domain(1, (0.0, 1.0), 16, tent1d, 0.25)
        rk = rescale(tent1d, 0.25)
        st_ = discretize(rk, spec)
        mat = dense_nonlocal_matrix(rk, spec)
        ext = extension_matrix(spec)
        h = 1e-3
        w_int = rng.standard_normal(16)
        u_int = rng.standard_normal(16)
        a = mat @ ext @ w_int
        vol = spec.cell_volume
        expected = (
            vol * (0.5 / h) * w_int @ w_int
            - vol / h * u_int @ w_int
            + 0.5 * vol * a @ a
        )
        got = step_energy(
            zero_extend(w_int, spec), zero_extend(u_int, spec), st_, cfg(h=h)
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_lower_bound_from_young_inequality(self, domain16, stencil16, rng):
        # E(w) >= E(0) - (1/2h) ||u_prev||^2 for every w; at w = 0 the
        # functional vanishes identically
        c = cfg(h=1e-3)
        for _ in range(5):
            u = zero_extend(rng.standard_normal(16), domain16)
            w = zero_extend(rng.standard_normal(16), domain16)
            z = zero_extend(np.zeros(16), domain16)
            e_zero = step_energy(z, u, stencil16, c)
            assert e_zero == 0.0
            floor = e_zero - (0.5 / c.h) * lp_norm(u, 2, "omega") ** 2
            e_w = step_energy(w, u, stencil16, c)
            assert e_w >= floor - 1e-12 * abs(floor)


class TestStepGradient:
    def test_zero_state(self, domain16, stencil16):
        z = zero_extend(np.zeros(16), domain16)
        g = step_gradient(z, z, stencil16, cfg())
        assert np.all(g.values == 0.0)

    @pytest.mark.parametrize("p,tol", [(1.2, 1e-3), (1.5, 1e-3), (2.0, 1e-5),
                                       (3.0, 1e-3), (4.0, 1e-3)])
    def test_matches_central_differences(self, domain16, stencil16, rng, p, tol):
        c = cfg(p=p, h=1e-3)
        for _ in range(4):
            w_int = rng.standard_normal(16)
            u_int = rng.standard_normal(16)
            phi_int = rng.standard_normal(16)
            w = zero_extend(w_int, domain16)
            u = zero_extend(u_int, domain16)
            phi = zero_extend(phi_int, domain16)
            g = step_gradient(w, u, stencil16, c)
            tau = 1e-5
            e_plus = step_energy(zero_extend(w_int + tau * phi_int, domain16), u, stencil16, c)
            e_minus = step_energy(zero_extend(w_int - tau * phi_int, domain16), u, stencil16, c)
            fd = (e_plus - e_minus) / (2 * tau)
            pairing = inner_product(g, phi, "omega")
            assert fd == pytest.approx(pairing, rel=tol)

    def test_p2_matches_dense_gradient(self, tent1d, rng):
        spec = make_domain(1, (0.0, 1.0), 16, tent1d, 0.25)
        rk = rescale(tent1d, 0.25)
        st_ = discretize(rk, spec)
        mat = dense_nonlocal_matrix(rk, spec)
        ext = extension_matrix(spec)
        h = 1e-3
        w_int = rng.standard_normal(16)
        u_int = rng.standard_normal(16)
        b = ext.T @ mat @ mat @ ext
        expected = (w_int - u_int) / h + b @ w_int
        g = step_gradient(
            zero_extend(w_int, spec), zero_extend(u_int, spec), st_, cfg(h=h)
        )
        assert np.max(np.abs(g.interior_values - expected)) <= 1e-12 * np.abs(
            expected
        ).max()


class TestImplicitStep:
    def test_zero_previous_state_is_fixed_point(self, domain16, stencil16):
        z = zero_extend(np.zeros(16), domain16)
        op = NonlocalOperator(stencil16, domain16)
        res = _minimize_step(op, domain16, np.zeros(16), 2.0, 1e-3, 1e-8, 100)
        assert res.iters == 0
        assert np.all(res.interior == 0.0)
        out = implicit_step(z, stencil16, cfg())
        assert np.all(out.values == 0.0)

    def test_matches_dense_linear_solve(self, tent1d, rng):
        spec = make_domain(1, (0.0, 1.0), 16, tent1d, 0.25)
        rk = rescale(tent1d, 0.25)
        st_ = discretize(rk, spec)
        mat = dense_nonlocal_matrix(rk, spec)
        ext = extension_matrix(spec)
        b = ext.T @ mat @ mat @ ext
        h = 1e-3
        u_int = rng.standard_normal(16)
        w_dense = np.linalg.solve(np.eye(16) + h * b, u_int)
        w = implicit_step(zero_extend(u_int, spec), st_, cfg(h=h))
        err = np.sqrt(spec.cell_volume * np.sum((w.interior_values - w_dense) ** 2))
        assert err <= 1e-8

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_per_step_dissipation(self, domain16, stencil16, rng, p):
        c = cfg(p=p, h=1e-3, inner_max_iters=30000)
        u_int = rng.standard_normal(16)
        u = zero_extend(u_int, domain16)
        w = implicit_step(u, stencil16, c)
        tol = 1e-8 * max(1.0, lp_norm(u, 2, "omega"))
        inc = lp_norm(zero_extend(w.interior_values - u_int, domain16), 2, "omega")
        e_w = dirichlet_energy(w, stencil16, p)
        e_u = dirichlet_energy(u, stencil16, p)
        assert inc**2 / c.h + e_w <= e_u + tol * inc + 1e-12 * e_u

    def test_residual_certificate(self, domain16, stencil16, rng):
        c = cfg(p=3.0, h=1e-3, inner_max_iters=30000)
        u = zero_extend(rng.standard_normal(16), domain16)
        w = implicit_step(u, stencil16, c)
        g = step_gradient(w, u, stencil16, c)
        tol = 1e-8 * max(1.0, lp_norm(u, 2, "omega"))
        assert lp_norm(g, 2, "omega") <= tol

    def test_small_eps_gradient_step_converges(self, tent1d):
        # At eps = 0.07 the rounding of an FFT-evaluated energy (5e-10 at the
        # start) is several times the Armijo roundoff allowance: trials that
        # re-evaluate the operator reject good steps and the iteration
        # stagnates; linear trials converge.
        eps = 0.07
        spec = make_domain(1, (0.0, 1.0), 128, tent1d, eps)
        st_ = discretize(rescale(tent1d, eps), spec)
        x = spec.node_coords()[0][spec.interior_slices]
        u = zero_extend(np.exp(-50 * (x - 0.5) ** 2) * np.sin(np.pi * x) ** 2, spec)
        c = cfg(p=3.0, h=1e-4, inner_max_iters=50000)
        w = implicit_step(u, st_, c)
        tol = effective_inner_tol(NonlocalOperator(st_, spec), c, lp_norm(u, 2, "omega"))
        assert lp_norm(step_gradient(w, u, st_, c), 2, "omega") <= 2.0 * tol

    @pytest.mark.parametrize(
        "p,local", [(3.0, False), (1.5, False), (3.0, True)], ids=["bb", "irls", "newton"]
    )
    def test_failure_reports_residual(self, domain16, stencil16, rng, p, local):
        c = cfg(p=p, h=1e-3, inner_max_iters=2)
        op = LocalOperator(domain16) if local else stencil16
        u = zero_extend(10.0 * rng.standard_normal(16), domain16)
        with pytest.raises(InnerSolveFailed) as info:
            implicit_step(u, op, c)
        assert info.value.residual > 0


class TestExplicitStep:
    def test_zero_field(self, domain16, stencil16):
        z = zero_extend(np.zeros(16), domain16)
        out = explicit_step(z, stencil16, cfg(h=1e-9))
        assert np.all(out.values == 0.0)

    def test_richardson_agreement_with_implicit(self, domain16, stencil16, rng):
        u = zero_extend(0.01 * rng.standard_normal(16), domain16)
        limit = explicit_stability_limit(stencil16)
        diffs = []
        for h in (limit / 8, limit / 16):
            c = cfg(h=h, T=1.0)
            a = explicit_step(u, stencil16, c)
            b = implicit_step(u, stencil16, c)
            diffs.append(
                lp_norm(
                    zero_extend(a.interior_values - b.interior_values, domain16),
                    2,
                    "omega",
                )
            )
        # halving h shrinks the gap by ~4 (both schemes are first order and
        # differ at O(h^2) per step)
        assert diffs[1] <= 0.35 * diffs[0]

    def test_stability_violation_above_limit(self, domain16, stencil16):
        limit = explicit_stability_limit(stencil16)
        spike = np.zeros(16)
        spike[8] = 1.0
        u = zero_extend(spike, domain16)
        c = cfg(h=40 * limit, T=1000 * limit)
        with pytest.raises(StabilityViolation):
            for _ in range(10):
                u = explicit_step(u, stencil16, c)


class TestEvolve:
    def test_zero_initial_state(self, domain16, stencil16):
        traj = evolve(zero_extend(np.zeros(16), domain16), stencil16, cfg(h=0.01, T=0.05))
        assert np.all(traj.l2_sq == 0.0)
        assert np.all(traj.energies == 0.0)
        assert traj.n_steps == 5

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_energies_nonincreasing(self, domain16, stencil16, rng, p):
        u0 = zero_extend(rng.standard_normal(16), domain16)
        traj = evolve(u0, stencil16, cfg(p=p, h=1e-3, T=0.05, inner_max_iters=30000))
        slack = 1e-6 * traj.energies[0]
        assert np.all(np.diff(traj.energies) <= slack)

    def test_global_dissipation_inequality(self, domain16, stencil16, rng):
        u0 = zero_extend(rng.standard_normal(16), domain16)
        c = cfg(p=2.0, h=1e-3, T=0.05)
        traj = evolve(u0, stencil16, c)
        lhs = np.sum(traj.increments_sq[1:]) / c.h + traj.energies[-1]
        assert lhs <= traj.energies[0] * (1 + 1e-6)

    def test_p2_oracle_trajectory(self, tent1d, rng):
        spec = make_domain(1, (0.0, 1.0), 16, tent1d, 0.25)
        rk = rescale(tent1d, 0.25)
        st_ = discretize(rk, spec)
        mat = dense_nonlocal_matrix(rk, spec)
        h = 1e-3
        u0_int = rng.standard_normal(16)
        m = 50
        oracle = implicit_p2_trajectory(mat, spec, u0_int, h, m)
        traj = evolve(zero_extend(u0_int, spec), st_, cfg(h=h, T=m * h, record_every=1))
        worst = 0.0
        for state, ref in zip(traj.states, oracle):
            err = np.sqrt(spec.cell_volume * np.sum((state.interior_values - ref) ** 2))
            worst = max(worst, err)
        assert worst <= 1e-6

    def test_contraction_of_nearby_trajectories(self, domain16, stencil16, rng):
        u0 = rng.standard_normal(16)
        c = cfg(p=2.0, h=1e-3, T=0.03, record_every=1)
        t1 = evolve(zero_extend(u0, domain16), stencil16, c)
        t2 = evolve(zero_extend(u0 + 0.01 * rng.standard_normal(16), domain16), stencil16, c)
        dists = [
            np.sqrt(domain16.cell_volume * np.sum((a.interior_values - b.interior_values) ** 2))
            for a, b in zip(t1.states, t2.states)
        ]
        slack = 10 * 1e-8 * max(1.0, np.sqrt(domain16.cell_volume * u0 @ u0))
        assert all(b <= a + slack for a, b in zip(dists, dists[1:]))

    def test_2d_dissipation(self, tent2d, rng):
        spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), 16, tent2d, 0.25)
        st_ = discretize(rescale(tent2d, 0.25), spec)
        u0 = zero_extend(rng.standard_normal((16, 16)), spec)
        traj = evolve(u0, st_, cfg(p=2.0, h=1e-3, T=0.01))
        assert np.all(np.diff(traj.energies) <= 1e-6 * traj.energies[0])
        assert np.all(np.diff(traj.l2_sq) <= 1e-12 * traj.l2_sq[0])
        assert traj.states[-1].exterior_max_abs() == 0.0

    def test_step_error_carries_index(self, domain16, stencil16, rng):
        u0 = zero_extend(10 * rng.standard_normal(16), domain16)
        with pytest.raises(InnerSolveFailed, match="step 1"):
            evolve(u0, stencil16, cfg(h=1e-3, T=0.01, inner_max_iters=1))

    def test_recording_schedule(self, domain16, stencil16, rng):
        u0 = zero_extend(rng.standard_normal(16), domain16)
        traj = evolve(u0, stencil16, cfg(h=1e-3, T=0.01, record_every=4))
        assert traj.state_steps == [0, 4, 8, 10]
        assert len(traj.states) == 4
        assert list(traj.state_times()) == pytest.approx([0.0, 4e-3, 8e-3, 1e-2])

    def test_csv_schema(self, tmp_path, domain16, stencil16, rng):
        u0 = zero_extend(rng.standard_normal(16), domain16)
        traj = evolve(u0, stencil16, cfg(h=1e-3, T=0.005))
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,time,l2_sq,energy,increment_sq,inner_iters,residual,operator"
        assert len(lines) == 1 + len(traj.times)
        assert lines[1].endswith("nonlocal")


class TestConfigValidation:
    def test_bad_p(self):
        with pytest.raises(ValueError, match="exponent"):
            StepperConfig(p=1.0, h=0.1, T=1.0)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            StepperConfig(p=2.0, h=0.1, T=1.0, mode="midpoint")

    def test_T_below_h(self):
        with pytest.raises(ValueError, match="final time"):
            StepperConfig(p=2.0, h=0.1, T=0.05)
