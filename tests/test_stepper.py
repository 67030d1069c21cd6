from dataclasses import replace

import numpy as np
import pytest

from nlbiharm import (
    StepperConfig,
    default_bump,
    discretize,
    evolve,
    get_kernel,
    make_domain,
    trajectory_to_csv,
)
from nlbiharm.grid import lq_sum_norm, zero_extend
from nlbiharm import stepper
from nlbiharm.stepper import (
    InnerSolveFailed,
    _minimize_step,
    _cg_solve,
    _StepFunctional,
    as_operator,
    effective_inner_tol,
)
from nlbiharm.localref import LocalOperator, local_evolve
from nlbiharm.nlop import NonlocalOperator

from oracles import (
    dense_nonlocal_matrix,
    dense_operator_matrix,
    extension_matrix,
    implicit_p2_trajectory,
    interior_mask,
)


def cfg(p=2.0, h=1e-3, T=1.0, **kw):
    return StepperConfig(p=p, h=h, T=T, **kw)


class TestStepEnergy:
    def test_zero_pair(self, domain16, stencil16):
        z = np.zeros(16)
        fn = _StepFunctional(as_operator(stencil16, domain16), z, 2.0, 1e-3)
        assert fn.energy(z)[0] == 0.0

    def test_p2_matches_dense_forms(self, tent1d, rng):
        spec = make_domain(1, (0.0, 1.0), 16, 0.25)
        st_ = discretize(tent1d, 0.25, spec)
        mat = dense_nonlocal_matrix(tent1d, 0.25, spec)
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
        fn = _StepFunctional(as_operator(st_, spec), u_int, 2.0, h)
        assert fn.energy(w_int)[0] == pytest.approx(expected, rel=1e-12)

    def test_lower_bound_from_young_inequality(self, domain16, stencil16, rng):
        # E(w) >= E(0) - (1/2h) ||u_prev||^2 for every w; at w = 0 the
        # functional vanishes identically
        h = 1e-3
        op = as_operator(stencil16, domain16)
        for _ in range(5):
            u = rng.standard_normal(16)
            w = rng.standard_normal(16)
            fn = _StepFunctional(op, u, 2.0, h)
            e_zero = fn.energy(np.zeros(16))[0]
            assert e_zero == 0.0
            floor = e_zero - (0.5 / h) * fn.l2(u) ** 2
            e_w = fn.energy(w)[0]
            assert e_w >= floor - 1e-12 * abs(floor)


class TestStepGradient:
    def test_zero_state(self, domain16, stencil16):
        z = np.zeros(16)
        fn = _StepFunctional(as_operator(stencil16, domain16), z, 2.0, 1e-3)
        assert np.all(fn.gradient(z, fn.flux_term(fn.extended(z))) == 0.0)

    @pytest.mark.parametrize("p,tol", [(1.2, 1e-3), (1.5, 1e-3), (2.0, 1e-5),
                                       (3.0, 1e-3), (4.0, 1e-3)])
    def test_matches_central_differences(self, domain16, stencil16, rng, p, tol):
        op = as_operator(stencil16, domain16)
        for _ in range(4):
            w = rng.standard_normal(16)
            fn = _StepFunctional(op, rng.standard_normal(16), p, 1e-3)
            phi = rng.standard_normal(16)
            g = fn.gradient(w, fn.flux_term(fn.extended(w)))
            tau = 1e-5
            fd = (fn.energy(w + tau * phi)[0] - fn.energy(w - tau * phi)[0]) / (2 * tau)
            pairing = fn.vol * float(np.dot(g, phi))
            assert fd == pytest.approx(pairing, rel=tol)

    def test_p2_matches_dense_gradient(self, tent1d, rng):
        spec = make_domain(1, (0.0, 1.0), 16, 0.25)
        st_ = discretize(tent1d, 0.25, spec)
        mat = dense_nonlocal_matrix(tent1d, 0.25, spec)
        ext = extension_matrix(spec)
        h = 1e-3
        w_int = rng.standard_normal(16)
        u_int = rng.standard_normal(16)
        b = ext.T @ mat @ mat @ ext
        expected = (w_int - u_int) / h + b @ w_int
        fn = _StepFunctional(as_operator(st_, spec), u_int, 2.0, h)
        g = fn.gradient(w_int, fn.flux_term(fn.extended(w_int)))
        assert np.max(np.abs(g - expected)) <= 1e-12 * np.abs(expected).max()


class _CountingOperator(NonlocalOperator):
    """Counts its own evaluations (``calls``, loop, both correlation maps
    and squared correlation; ``corr_calls``, the two maps, and
    ``squared_calls``), its direct solves and its tau solves built;
    ``order`` names each evaluation's method in turn."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = 0
        self.corr_calls = 0
        self.squared_calls = 0
        self.solves = 0
        self.tau_solves = 0
        self.order = []

    def apply(self, values):
        self.calls += 1
        self.order.append("apply")
        return super().apply(values)

    def apply_extended(self, interior):
        self.calls += 1
        self.corr_calls += 1
        self.order.append("apply_extended")
        return super().apply_extended(interior)

    def apply_restricted(self, values):
        self.calls += 1
        self.corr_calls += 1
        self.order.append("apply_restricted")
        return super().apply_restricted(values)

    def apply_squared(self, interior):
        self.calls += 1
        self.squared_calls += 1
        self.order.append("apply_squared")
        return super().apply_squared(interior)

    def normal_solve(self, *args):
        self.solves += 1
        return super().normal_solve(*args)

    def tau_solve(self, shift):
        self.tau_solves += 1
        return super().tau_solve(shift)


class TestImplicitStep:
    def test_zero_previous_state_is_fixed_point(self, domain16, stencil16):
        z = np.zeros(16)
        op = NonlocalOperator(stencil16, domain16)
        res = _minimize_step(op, np.zeros(16), 2.0, 1e-3, 1e-8, 100)
        assert res.iters == 0
        assert np.all(res.interior == 0.0)
        traj = evolve(z, domain16, stencil16, cfg(T=1e-3))
        assert np.all(traj.interior[-1] == 0.0)

    def test_matches_dense_linear_solve(self, tent1d, rng):
        spec = make_domain(1, (0.0, 1.0), 16, 0.25)
        st_ = discretize(tent1d, 0.25, spec)
        mat = dense_nonlocal_matrix(tent1d, 0.25, spec)
        ext = extension_matrix(spec)
        b = ext.T @ mat @ mat @ ext
        h = 1e-3
        u_int = rng.standard_normal(16)
        w_dense = np.linalg.solve(np.eye(16) + h * b, u_int)
        w = evolve(u_int, spec, st_, cfg(h=h, T=h)).interior[-1]
        err = np.sqrt(spec.cell_volume * np.sum((w - w_dense) ** 2))
        assert err <= 1e-8

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_per_step_dissipation(self, domain16, stencil16, rng, p):
        c = cfg(p=p, h=1e-3, T=1e-3, inner_max_iters=30000)
        u_int = rng.standard_normal(16)
        w = evolve(u_int, domain16, stencil16, c).interior[-1]
        fn = _StepFunctional(as_operator(stencil16, domain16), u_int, p, c.h)
        tol = 1e-8 * max(1.0, fn.l2(u_int))
        inc = fn.l2(w - u_int)
        e_w = fn.energy(w)[1]
        e_u = fn.energy(u_int)[1]
        assert inc**2 / c.h + e_w <= e_u + tol * inc + 1e-12 * e_u

    def test_residual_certificate(self, domain16, stencil16, rng):
        c = cfg(p=3.0, h=1e-3, T=1e-3, inner_max_iters=30000)
        u_int = rng.standard_normal(16)
        w = evolve(u_int, domain16, stencil16, c).interior[-1]
        fn = _StepFunctional(as_operator(stencil16, domain16), u_int, c.p, c.h)
        g = fn.gradient(w, fn.flux_term(fn.extended(w)))
        tol = 1e-8 * max(1.0, fn.l2(u_int))
        assert fn.l2(g) <= tol

    def test_small_eps_gradient_step_converges(self, tent1d):
        # Gradient steps stagnated here once: at eps = 0.07 the rounding of
        # their FFT-evaluated trial energies was several times the Armijo
        # roundoff allowance.  Newton-CG steps evaluate every trial with the
        # step's correlation (a direct one in 1D) and must certify the step.
        eps = 0.07
        spec = make_domain(1, (0.0, 1.0), 128, eps)
        st_ = discretize(tent1d, eps, spec)
        x = spec.node_coords()[0][spec.interior_slices]
        u_int = np.exp(-50 * (x - 0.5) ** 2) * np.sin(np.pi * x) ** 2
        c = cfg(p=3.0, h=1e-4, T=1e-4, inner_max_iters=50000)
        w = evolve(u_int, spec, st_, c).interior[-1]
        fn = _StepFunctional(as_operator(st_, spec), u_int, c.p, c.h)
        tol = effective_inner_tol(NonlocalOperator(st_, spec), fn.l2(u_int))
        assert fn.l2(fn.gradient(w, fn.flux_term(fn.extended(w)))) <= 2.0 * tol

    @pytest.mark.parametrize(
        "p,local", [(3.0, False), (1.5, False), (3.0, True)], ids=["newton_cg", "irls", "newton"]
    )
    def test_failure_reports_residual(self, domain16, stencil16, rng, p, local):
        c = cfg(p=p, h=1e-3, T=1e-3, inner_max_iters=2)
        op = LocalOperator(domain16) if local else stencil16
        u = 10.0 * rng.standard_normal(16)
        with pytest.raises(InnerSolveFailed) as info:
            evolve(u, domain16, op, c)
        assert info.value.residual > 0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0], ids=["irls", "newton_cg_p2", "newton_cg"])
    def test_applies_count_every_evaluation(self, domain16, stencil16, rng, p):
        op = _CountingOperator(stencil16, domain16)
        res = _minimize_step(op, rng.standard_normal(16), p, 1e-3, 1e-8, 30000)
        assert res.iters > 0
        assert res.applies == op.calls
        # at p = 2 each CG product is one squared correlation
        assert (op.squared_calls > 0) == (p == 2.0)
        u0 = rng.standard_normal(16)
        op.calls = 0
        traj = evolve(u0, domain16, op, cfg(p=p, h=1e-3, T=5e-3, inner_max_iters=30000))
        assert traj.applies[0] == 0
        assert np.all(traj.applies[1:] > traj.inner_iters[1:])
        # evolve evaluates A u0 once for the initial energy, outside the steps
        assert int(traj.applies.sum()) == op.calls - 1

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_certified_start_returns_before_any_solver(self, domain64, stencil64, rng,
                                                       monkeypatch, p):
        # at x = u_prev the gradient is the carried flux term: a start whose
        # residual is within tol comes back as it went in, before any step
        # functional or solver is built and with no evaluation
        op = _CountingOperator(stencil64, domain64)
        x = rng.standard_normal(64)
        fn = _StepFunctional(op, x, p, 5e-3, (op.apply_extended, op.apply_restricted))
        _, pe, a = fn.energy(x)
        flux = fn.flux_term(a)
        tol = fn.l2(fn.gradient(x, flux))  # the start certifies exactly at tol

        def unbuilt(*args):
            raise AssertionError("a certified start built a solver")
        monkeypatch.setattr(stepper, "_StepFunctional", unbuilt)
        monkeypatch.setattr(stepper, "_cg_solve", unbuilt)
        calls = op.calls
        res = _minimize_step(op, x, p, 5e-3, tol, 100, (a, flux, pe))
        assert res.iters == res.applies == 0
        assert (op.calls, op.solves, op.tau_solves) == (calls, 0, 0)
        assert res.value is a and res.flux is flux and res.p_energy == pe
        assert np.array_equal(res.interior, x)
        assert res.residual == tol

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_carried_start_matches_a_fresh_start(self, domain64, stencil64, rng, p):
        # an uncertified carried triple opens the step as its own evaluations
        # would: the same iterates bit for bit, less the two opening applies
        op = as_operator(stencil64, domain64)
        x = rng.standard_normal(64)
        fn = _StepFunctional(op, x, p, 5e-3, (op.apply_extended, op.apply_restricted))
        _, pe, a = fn.energy(x)
        flux = fn.flux_term(a)
        fresh = _minimize_step(op, x, p, 5e-3, 1e-8, 5000)
        carried = _minimize_step(op, x, p, 5e-3, 1e-8, 5000, (a, flux, pe))
        assert carried.iters == fresh.iters > 0
        assert carried.applies == fresh.applies - 2
        assert np.array_equal(carried.interior, fresh.interior)
        assert (carried.residual, carried.p_energy) == (fresh.residual, fresh.p_energy)

    @pytest.mark.parametrize(
        "nx,h,steps,start",
        [(128, 1e-4, 3, "gaussian"), (64, 1e-3, 1, "bump")],
        ids=["nx128_gaussian", "nx64_bump"],
    )
    def test_reweighted_step_certifies_at_p_1_2(self, tent1d, nx, h, steps, start):
        # A reweighted direction formed as the difference of the model's
        # minimizer and x cancelled to the residual's last digits here: both
        # runs sat at residual 4e-8 to 5e-8 against 1e-8 until the iteration
        # cap.  d = M^-1 g certifies them in a few hundred iterations.
        eps = 0.2
        spec = make_domain(1, (0.0, 1.0), nx, eps)
        st_ = discretize(tent1d, eps, spec)
        if start == "gaussian":
            x = spec.node_coords()[0][spec.interior_slices]
            u0 = np.exp(-50 * (x - 0.5) ** 2) * np.sin(np.pi * x) ** 2
        else:
            u0 = default_bump(spec)
        c = cfg(p=1.2, h=h, T=steps * h, inner_max_iters=1000)
        traj = evolve(u0, spec, st_, c)
        tol = effective_inner_tol(NonlocalOperator(st_, spec),
                                  lq_sum_norm(u0.ravel(), 2, spec.cell_volume))
        assert traj.n_steps == steps
        assert np.all(traj.residuals[1:] <= tol)
        assert np.all(traj.inner_iters[1:] > 0)

    def test_reweighted_direction_is_model_minimizer(self, tent1d, rng):
        # Below p = 2 the direct direction solves M d = g for the reweighted
        # model M = I/h + A^T diag(|A x|^(p-2)) A.  Where no weight is floored
        # M x - u_prev/h = g, so x - d is the model's minimizer w.
        p, h, eps = 1.5, 1e-3, 0.2
        spec = make_domain(1, (0.0, 1.0), 64, eps)
        op = NonlocalOperator(discretize(tent1d, eps, spec), spec)
        assert sum(bool(np.any(d)) for d in op.stencil.offsets) == 24
        u_prev = rng.standard_normal(spec.nx)
        fn = _StepFunctional(op, u_prev, p, h)
        x = rng.standard_normal(spec.nx)
        a = op.apply(zero_extend(x, spec).values)
        curv = fn.curvature(a)
        am = dense_operator_matrix(op) @ extension_matrix(spec)
        a_dense = am @ x
        # only nodes of A that see the interior carry weight, and none of
        # them is floored at this state
        seen = np.abs(am).sum(axis=1) > 0
        assert np.abs(a_dense[seen]).min() > 1e-10 * np.abs(a_dense).max()
        theta = np.zeros_like(a_dense)
        theta[seen] = np.abs(a_dense[seen]) ** (p - 2.0)
        model = np.eye(spec.n_interior) / h + am.T @ (theta[:, None] * am)
        w = np.linalg.solve(model, u_prev / h)
        g = fn.gradient(x, fn.flux_term(a))
        d = op.normal_solve(curv, 1.0 / h, g)
        assert np.max(np.abs((x - d) - w)) <= 1e-10 * np.abs(w).max()


# (dim, box, nx, eps) by stencil size K: the 1D stencil of converge_p3 at
# eps = 0.1, and the denoise stencil (eps = 4 pixels) on a 16 x 16 box so
# that the dense matrix stays small.
HESSIAN_STENCILS = {
    50: (1, (0.0, 1.0), 256, 0.1),
    44: (2, ((0.0, 16.0), (0.0, 16.0)), 16, 4.0),
}


class TestNewtonStep:
    @pytest.fixture(scope="class", params=sorted(HESSIAN_STENCILS), ids="K{}".format)
    def op(self, request):
        dim, box, nx, eps = HESSIAN_STENCILS[request.param]
        kern = get_kernel("tent")
        spec = make_domain(dim, box, nx, eps)
        op = as_operator(discretize(kern, eps, spec), spec)
        assert sum(bool(np.any(d)) for d in op.stencil.offsets) == request.param
        return op

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_hessian_product_matches_dense(self, op, rng, p):
        spec = op.spec
        # h at the scale of 1/A^2, so I/h does not swamp the operator term
        h = 1.0 / op.norm_bound() ** 2
        shape = spec.nx
        fn = _StepFunctional(op, np.zeros(shape), p, h,
                             (op.apply_extended, op.apply_restricted))
        x = rng.standard_normal(shape)
        curv = fn.curvature(op.apply(zero_extend(x, spec).values))
        v = rng.standard_normal(shape)
        hv = fn.hessian_product(v, curv)
        am = dense_operator_matrix(op) @ extension_matrix(spec)
        dense = np.eye(spec.n_interior) / h + am.T @ (curv.ravel()[:, None] * am)
        expected = dense @ v.ravel()
        assert np.max(np.abs(hv.ravel() - expected)) <= 1e-12 * np.abs(expected).max()
        # one squared correlation at p = 2, two correlations above
        assert fn.applies == (1 if p == 2.0 else 2)

    def test_cg_step_matches_dense_newton(self, tent1d):
        # The certified Newton-CG step against an independent minimizer of
        # the same step functional: plain Newton on the dense operator
        # matrix of the oracle, each system solved by numpy.
        eps = 0.2
        spec = make_domain(1, (0.0, 1.0), 128, eps)
        op = _CountingOperator(discretize(tent1d, eps, spec), spec)
        x = spec.node_coords()[0][spec.interior_slices]
        u_int = np.exp(-50 * (x - 0.5) ** 2) * np.sin(np.pi * x) ** 2
        c = cfg(p=3.0, h=1e-4)
        tol = effective_inner_tol(op, lq_sum_norm(u_int.ravel(), 2, spec.cell_volume))
        cg = _minimize_step(op, u_int, c.p, c.h, tol, c.inner_max_iters)
        assert cg.iters > 0 and cg.residual <= tol
        assert op.solves == 0 and op.corr_calls > 0

        am = dense_operator_matrix(op) @ extension_matrix(spec)
        w = u_int.copy()
        for _ in range(30):
            a = am @ w
            g = (w - u_int) / c.h + am.T @ (np.sign(a) * np.abs(a) ** (c.p - 1.0))
            res = np.sqrt(spec.cell_volume * g @ g)
            if res <= tol:
                break
            curv = (c.p - 1.0) * np.abs(a) ** (c.p - 2.0)
            w = w - np.linalg.solve(np.eye(w.size) / c.h + am.T @ (curv[:, None] * am), g)
        assert res <= tol
        gap = np.sqrt(spec.cell_volume * np.sum((cg.interior - w) ** 2))
        assert gap <= tol

    @pytest.mark.parametrize("dim,nx", [(1, 64), (2, 16)], ids=["1d_nx64", "2d_nx16"])
    def test_p2_step_certifies_in_one_iteration(self, dim, nx):
        # At p = 2 the step functional is quadratic and M its exact Hessian:
        # one CG solve to the residual floor is its minimizer.
        kern = get_kernel("tent")
        spec = make_domain(dim, [(0.0, 1.0)] * dim, nx, 0.2)
        st_ = discretize(kern, 0.2, spec)
        u0 = default_bump(spec)
        traj = evolve(u0, spec, st_, cfg(p=2.0, h=1e-3, T=3e-3))
        assert traj.inner_iters[1:].tolist() == [1, 1, 1]
        assert np.all(traj.residuals[1:] <= traj.inner_tol)
        # Outside its CG products a cold step evaluates A x and its flux,
        # then the t = 1 trial and the trial's flux, which certifies it.
        op = _CountingOperator(st_, replace(spec, pad_cells=st_.reach))
        _minimize_step(op, u0, 2.0, 1e-3, traj.inner_tol, 5000)
        assert op.calls - op.squared_calls == 4

    def test_pcg_direction_meets_the_dense_stop(self, tent2d, rng):
        # At p = 2 in 2D CG runs preconditioned with the tau solve.  Its
        # stop is the one plain CG has, on H d - g itself: the true residual
        # of the direction stays under half the step tolerance, as the
        # dense solve's does, and the two differ by at most h times it
        # (H >= I/h).
        spec = make_domain(2, [(0.0, 1.0)] * 2, 12, 0.25)
        st_ = discretize(tent2d, 0.25, spec)
        op = _CountingOperator(st_, replace(spec, pad_cells=st_.reach))
        h = 5e-3
        fn = _StepFunctional(op, np.zeros(op.spec.nx), 2.0, h,
                             (op.apply_extended, op.apply_restricted))
        g = rng.standard_normal(op.spec.nx)
        tol = 1e-8 * fn.l2(g)
        d = _cg_solve(fn, tol)(np.ones(op.spec.padded_shape), g)
        assert op.tau_solves == 1 and op.squared_calls < 20

        am = dense_operator_matrix(op) @ extension_matrix(op.spec)
        dense = np.eye(op.spec.n_interior) / h + am.T @ am
        ref = np.linalg.solve(dense, g.ravel())
        resid = fn.l2(dense @ d.ravel() - g.ravel())
        assert resid <= 0.5 * tol
        assert fn.l2(dense @ ref - g.ravel()) <= 0.5 * tol
        assert fn.l2(d.ravel() - ref) <= h * resid * (1.0 + 1e-6)

    def test_2d_p2_step_cg_products(self, tent2d):
        # the tau-preconditioned CG of one 2D p = 2 step from a random start
        # (47 squared correlations without the preconditioner)
        spec = make_domain(2, [(0.0, 1.0)] * 2, 16, 0.2)
        st_ = discretize(tent2d, 0.2, spec)
        u0 = np.random.default_rng(7).standard_normal(spec.nx)
        op = _CountingOperator(st_, replace(spec, pad_cells=st_.reach))
        tol = effective_inner_tol(op, lq_sum_norm(u0.ravel(), 2, spec.cell_volume))
        res = _minimize_step(op, u0, 2.0, 5e-3, tol, 5000)
        assert res.iters == 1 and res.residual <= tol
        assert op.tau_solves == 1
        assert op.squared_calls == 13
        assert res.applies == 17

    @pytest.mark.parametrize("p,applies", [(2.0, 24), (3.0, 469)])
    def test_1d_steps_keep_their_apply_counts(self, tent1d, p, applies):
        # in 1D CG is plain at every p: these are unpreconditioned CG's counts
        spec = make_domain(1, (0.0, 1.0), 64, 0.2)
        st_ = discretize(tent1d, 0.2, spec)
        u0 = np.random.default_rng(7).standard_normal(spec.nx)
        op = _CountingOperator(st_, replace(spec, pad_cells=st_.reach))
        tol = effective_inner_tol(op, lq_sum_norm(u0.ravel(), 2, spec.cell_volume))
        res = _minimize_step(op, u0, p, 5e-3, tol, 5000)
        assert res.residual <= tol
        assert op.tau_solves == 0
        assert res.applies == applies

    @pytest.mark.parametrize("nearest", [True, False], ids=["reach1", "reach3"])
    def test_solve_follows_from_the_stencil(self, tent1d, domain16, stencil16, nearest):
        # At p = 3 a stencil reaching only nearest neighbours, here the
        # nonlocal one at eps = 2 dx, takes the direct solve through the loop;
        # a wider one takes Newton-CG through the correlation.
        if nearest:
            spec = make_domain(1, (0.0, 1.0), 32, 2 / 32)
            op = _CountingOperator(discretize(tent1d, 2 / 32, spec), spec)
            assert op.stencil.offsets.ravel().tolist() == [-1, 0, 1]
        else:
            spec = domain16
            op = _CountingOperator(stencil16, spec)
        traj = evolve(default_bump(spec), spec, op, cfg(p=3.0, h=1e-4, T=2e-4))
        assert np.all(traj.inner_iters[1:] > 0)
        if nearest:
            assert op.solves == int(traj.inner_iters.sum())
            assert op.corr_calls == 0
        else:
            assert op.solves == 0
            assert op.corr_calls > 0
        assert np.all(traj.residuals[1:] <= traj.inner_tol)


def count_step_calls(monkeypatch):
    """Wrap stepper._minimize_step; the returned list gets each call's start."""
    calls = []

    def counted(*args):
        calls.append(args[6] if len(args) > 6 else None)
        return _minimize_step(*args)
    monkeypatch.setattr(stepper, "_minimize_step", counted)
    return calls


def stepwise_trajectory(u0, spec, st_, c, tol):
    """evolve's per-step arrays from running every one of its steps, each
    from the previous step's carried start."""
    op = as_operator(st_, spec)
    vol = spec.cell_volume
    x = np.array(u0, dtype=float)
    rows = [(x, vol * float(np.vdot(x, x)), _StepFunctional(op, x, c.p, c.h).energy(x)[1],
             0.0, 0, 0, 0.0)]
    start = None
    for _ in range(len(c.step_times()) - 1):
        res = _minimize_step(op, x, c.p, c.h, tol, c.inner_max_iters, start)
        start = res.value, res.flux, res.p_energy
        delta = res.interior - x
        x = res.interior
        rows.append((x, vol * float(np.vdot(x, x)), res.p_energy,
                     vol * float(np.vdot(delta, delta)), res.iters, res.applies, res.residual))
    names = ("interior", "l2_sq", "energies", "increments_sq", "inner_iters", "applies",
             "residuals")
    return dict(zip(names, map(np.array, zip(*rows))))


def assert_trajectory_equal(traj, expected):
    for name, values in expected.items():
        assert np.array_equal(getattr(traj, name), values), name


class TestEvolve:
    def test_rejects_other_operator_types(self, domain16):
        u0 = np.zeros(16)
        with pytest.raises(TypeError, match="Stencil or a NonlocalOperator"):
            evolve(u0, domain16, object(), cfg())

    @pytest.mark.parametrize("u0,match", [
        (np.zeros(15), "shape"),
        (np.zeros((16, 1)), "shape"),
        (np.where(np.arange(16) == 3, np.nan, 0.0), "finite"),
        (np.where(np.arange(16) == 3, np.inf, 0.0), "finite"),
    ], ids=["short", "column", "nan", "inf"])
    def test_rejects_a_bad_initial_state(self, domain16, stencil16, u0, match):
        # a start is the interior values of shape spec.nx, all finite
        with pytest.raises(ValueError, match=match):
            evolve(u0, domain16, stencil16, cfg())

    def test_zero_initial_state(self, domain16, stencil16):
        traj = evolve(np.zeros(16), domain16, stencil16, cfg(h=0.01, T=0.05))
        assert np.all(traj.l2_sq == 0.0)
        assert np.all(traj.energies == 0.0)
        assert traj.n_steps == 5

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_energies_nonincreasing(self, domain16, stencil16, rng, p):
        u0 = rng.standard_normal(16)
        traj = evolve(u0, domain16, stencil16, cfg(p=p, h=1e-3, T=0.05, inner_max_iters=30000))
        slack = 1e-6 * traj.energies[0]
        assert np.all(np.diff(traj.energies) <= slack)

    def test_global_dissipation_inequality(self, domain16, stencil16, rng):
        u0 = rng.standard_normal(16)
        c = cfg(p=2.0, h=1e-3, T=0.05)
        traj = evolve(u0, domain16, stencil16, c)
        lhs = np.sum(traj.increments_sq[1:]) / c.h + traj.energies[-1]
        assert lhs <= traj.energies[0] * (1 + 1e-6)

    @pytest.mark.parametrize("dim,nx", [(1, 16), (2, 12)], ids=["1d_nx16", "2d_nx12"])
    def test_p2_oracle_trajectory(self, dim, nx, rng):
        kern = get_kernel("tent")
        spec = make_domain(dim, [(0.0, 1.0)] * dim, nx, 0.25)
        st_ = discretize(kern, 0.25, spec)
        mat = dense_nonlocal_matrix(kern, 0.25, spec)
        h = 1e-3
        u0_int = rng.standard_normal(spec.n_interior)
        m = 50
        oracle = implicit_p2_trajectory(mat, spec, u0_int, h, m)
        u0 = u0_int.reshape(spec.nx)
        traj = evolve(u0, spec, st_, cfg(h=h, T=m * h))
        assert len(traj.interior) == m + 1  # every state is recorded
        worst = 0.0
        for state, ref in zip(traj.interior, oracle):
            err = np.sqrt(spec.cell_volume * np.sum((state.ravel() - ref) ** 2))
            worst = max(worst, err)
        assert worst <= 1e-6

    def test_contraction_of_nearby_trajectories(self, domain16, stencil16, rng):
        u0 = rng.standard_normal(16)
        c = cfg(p=2.0, h=1e-3, T=0.03)
        t1 = evolve(u0, domain16, stencil16, c)
        t2 = evolve(u0 + 0.01 * rng.standard_normal(16), domain16, stencil16, c)
        dists = [
            np.sqrt(domain16.cell_volume * np.sum((a - b) ** 2))
            for a, b in zip(t1.interior, t2.interior)
        ]
        slack = 10 * 1e-8 * max(1.0, np.sqrt(domain16.cell_volume * u0 @ u0))
        assert all(b <= a + slack for a, b in zip(dists, dists[1:]))

    def test_2d_dissipation(self, tent2d, rng):
        spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), 16, 0.25)
        st_ = discretize(tent2d, 0.25, spec)
        u0 = rng.standard_normal((16, 16))
        traj = evolve(u0, spec, st_, cfg(p=2.0, h=1e-3, T=0.01))
        assert np.all(np.diff(traj.energies) <= 1e-6 * traj.energies[0])
        assert np.all(np.diff(traj.l2_sq) <= 1e-12 * traj.l2_sq[0])
        assert traj.interior.shape[1:] == spec.nx  # nothing is stored off the interior

    def test_records_interior_values(self, tent2d, rng):
        # one interior array per run; the states view zero-extends its rows
        spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), 12, 0.25)
        st_ = discretize(tent2d, 0.25, spec)
        u0 = rng.standard_normal(spec.nx)
        traj = evolve(u0, spec, st_, cfg(p=3.0, h=1e-3, T=5e-3))
        assert traj.spec == spec
        assert traj.interior.shape == (traj.n_steps + 1,) + spec.nx
        states = traj.states
        assert len(states) == len(traj.interior)
        for u, state in zip(traj.interior, states):
            assert state.spec == spec
            assert np.array_equal(state.values[spec.interior_slices], u)
            assert not np.any(state.values[~interior_mask(spec)])

    def test_2d_p3_dissipation(self, tent2d, rng):
        # test_2d_dissipation's grid and start above p = 2, where each
        # Armijo trial is evaluated by the 2D FFT correlation
        spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), 16, 0.25)
        st_ = discretize(tent2d, 0.25, spec)
        u0 = rng.standard_normal((16, 16))
        traj = evolve(u0, spec, st_, cfg(p=3.0, h=1e-3, T=0.01))
        assert np.all(traj.residuals[1:] <= traj.inner_tol)
        assert np.all(np.diff(traj.energies) <= 0.0)
        assert np.all(np.diff(traj.l2_sq) <= 0.0)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_first_evaluation_is_the_loop_apply(self, domain16, stencil16, rng, p):
        # The benchmark ends a run's set-up at its first loop apply, which
        # must be evolve's step-0 apply, before any step's correlation.
        op = _CountingOperator(stencil16, domain16)
        evolve(rng.standard_normal(16), domain16, op, cfg(p=p, h=1e-3, T=2e-3))
        assert op.order[0] == "apply"
        assert "apply_squared" in op.order or "apply_extended" in op.order

    def test_frozen_steps_record_their_state(self, domain64, stencil64):
        # dissipation_p2's run: most steps return their carried start, and
        # every recorded norm, increment and p-energy equals its
        # recomputation from the recorded states
        u0 = np.random.default_rng(404).standard_normal(64)
        traj = evolve(u0, domain64, stencil64, cfg(p=2.0, h=0.005, T=1.0))
        assert np.sum(traj.inner_iters[1:] == 0) == 177
        op = as_operator(stencil64, domain64)
        vol = domain64.cell_volume
        x0 = traj.interior[0]
        loop = _StepFunctional(op, x0, 2.0, 0.005)  # step 0's loop apply
        energies = [loop.energy(x0)[1]] + [
            _StepFunctional(op, x, 2.0, 0.005, (op.apply_extended, op.apply_restricted))
            .energy(x)[1] for x in traj.interior[1:]]
        steps = np.diff(traj.interior, axis=0)
        assert list(traj.l2_sq) == [vol * float(np.vdot(x, x)) for x in traj.interior]
        assert list(traj.increments_sq) == [0.0] + [vol * float(np.vdot(d, d)) for d in steps]
        assert list(traj.energies) == energies

    def test_frozen_tail_matches_stepping_every_step(self, domain64, stencil64, monkeypatch):
        # dissipation_p2's run again: evolve steps until the first step that
        # returns its certified start (23 live steps and that one), then
        # fills the rest, equal to running every step
        calls = count_step_calls(monkeypatch)
        u0 = np.random.default_rng(404).standard_normal(64)
        c = cfg(p=2.0, h=0.005, T=1.0)
        traj = evolve(u0, domain64, stencil64, c)
        assert len(calls) == 24 and traj.n_steps == 200
        assert_trajectory_equal(traj, stepwise_trajectory(u0, domain64, stencil64, c,
                                                          traj.inner_tol))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_zero_start_freezes_at_step_one(self, domain64, stencil64, monkeypatch, p):
        # step 1 evaluates the zero start with its own rule, certifies it and
        # is the only step run; the rest repeat it with no apply
        calls = count_step_calls(monkeypatch)
        c = cfg(p=p, h=0.005, T=0.05)
        traj = evolve(np.zeros(64), domain64, stencil64, c)
        assert calls == [None]
        assert traj.applies[1] == 2 and not np.any(traj.applies[2:])
        assert_trajectory_equal(traj, stepwise_trajectory(np.zeros(64), domain64, stencil64,
                                                          c, traj.inner_tol))

    def test_step_error_carries_index(self, domain16, stencil16, rng):
        u0 = 10 * rng.standard_normal(16)
        with pytest.raises(InnerSolveFailed, match="step 1"):
            evolve(u0, domain16, stencil16, cfg(p=3.0, h=1e-3, T=0.01, inner_max_iters=1))

    def test_inner_tol_is_the_effective_tolerance(self, domain16, stencil16, rng):
        u0 = 5.0 * rng.standard_normal(16)
        c = cfg(p=2.0, h=1e-3, T=3e-3)
        traj = evolve(u0, domain16, stencil16, c)
        op = NonlocalOperator(stencil16, domain16)
        assert traj.inner_tol == effective_inner_tol(
            op, lq_sum_norm(u0.ravel(), 2, domain16.cell_volume))
        assert np.all(traj.residuals[1:] <= traj.inner_tol)

    def test_csv_schema(self, tmp_path, domain16, stencil16, rng):
        u0 = rng.standard_normal(16)
        traj = evolve(u0, domain16, stencil16, cfg(h=1e-3, T=0.005))
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,time,l2_sq,energy,increment_sq,inner_iters,residual,operator"
        assert len(lines) == 1 + len(traj.times)
        assert lines[1].endswith("nonlocal")


class TestStepGrid:
    """A stencil steps on the interior plus its reach (``as_operator``)."""

    def test_stencil_binds_to_interior_plus_reach(self, tent1d):
        # converge_p3's eps = 0.1 stencil on its grid padded for eps = 0.4
        spec = make_domain(1, (0.0, 1.0), 256, 0.4)
        st_ = discretize(tent1d, 0.1, spec)
        op = as_operator(st_, spec)
        assert op.spec.pad_cells == st_.reach == 25
        assert op.spec == replace(spec, pad_cells=25)
        full = NonlocalOperator(st_, spec)
        assert as_operator(full, spec) is full

    def test_collar_narrower_than_reach_rejected(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 64, 0.4)
        st_ = discretize(tent1d, 0.4, spec)
        assert st_.reach == 25
        cut = replace(spec, pad_cells=2)
        with pytest.raises(ValueError, match="collar"):
            evolve(default_bump(cut), cut, st_, cfg(h=1e-3, T=5e-3))
        bare = replace(spec, pad_cells=0)
        with pytest.raises(ValueError, match="collar"):
            local_evolve(default_bump(bare), bare, cfg(h=1e-3, T=5e-3))

    @pytest.mark.parametrize("p", [1.5, 3.0], ids=["reweighted", "newton_cg"])
    def test_evolve_matches_full_grid_operator(self, tent1d, p):
        # Two certified steps from states d apart end at most d + 2 h tol
        # apart (the step map is the resolvent of a monotone operator), so
        # after j steps the runs differ by at most 2 j h tol.
        spec = make_domain(1, (0.0, 1.0), 64, 0.4)
        st_ = discretize(tent1d, 0.1, spec)
        u0 = default_bump(spec)
        c = cfg(p=p, h=1e-4, T=5e-4)
        step = evolve(u0, spec, st_, c)
        full = evolve(u0, spec, NonlocalOperator(st_, spec), c)
        assert step.inner_tol == full.inner_tol
        tol = step.inner_tol
        assert np.all(step.residuals[1:] <= tol) and np.all(full.residuals[1:] <= tol)
        assert len(step.interior) == len(full.interior)
        assert step.spec == full.spec == spec
        for j, (a, b) in enumerate(zip(step.interior, full.interior)):
            assert lq_sum_norm((a - b).ravel(), 2, spec.cell_volume) <= 2 * j * c.h * tol


class TestConfigValidation:
    def test_bad_p(self):
        with pytest.raises(ValueError, match="exponent"):
            StepperConfig(p=1.0, h=0.1, T=1.0)

    def test_T_below_h(self):
        with pytest.raises(ValueError, match="final time"):
            StepperConfig(p=2.0, h=0.1, T=0.05)
