from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlbiharm import (
    Field,
    NonlocalOperator,
    dirichlet_energy,
    discretize,
    get_kernel,
    inner_product,
    lp_norm,
    make_domain,
    nonlocal_laplacian,
    p_biharmonic_rhs,
    p_flux,
    zero_extend,
)
from nlbiharm.localref import LocalOperator
from nlbiharm.nlop import p_flux_values
from nlbiharm.stepper import as_operator

from oracles import (
    dense_nonlocal_matrix,
    dense_operator_matrix,
    extension_matrix,
    restricted_matrix,
)


def step_window(op):
    """The step window of ``op``'s grid, the interior plus the reach per
    axis: where A E v can be nonzero, and what E^T A reads."""
    cut = op.spec.pad_cells - op.reach
    return tuple(slice(cut, cut + n + 2 * op.reach) for n in op.spec.nx)


def window_shape(op):
    return tuple(n + 2 * op.reach for n in op.spec.nx)


class TestNonlocalLaplacian:
    def test_constant_maps_to_exact_zero(self, domain64, stencil64):
        f = Field(domain64, np.full(domain64.padded_shape, 3.7))
        out = nonlocal_laplacian(f, stencil64)
        assert np.all(out.values == 0.0)

    def test_quadratic_identity(self, tent1d):
        # 0.5 * int J_eps z^2 dz = 1 makes the operator exact on x^2 up to
        # the moment quadrature error, which is O(dx) or better
        for nx in (64, 128, 256):
            spec = make_domain(1, (0.0, 1.0), nx, 0.2)
            st_ = discretize(tent1d, 0.2, spec)
            x = spec.node_coords()[0]
            out = nonlocal_laplacian(Field(spec, x**2), st_)
            err = np.max(np.abs(out.interior_values - 2.0))
            assert err <= 1.0 / nx

    def test_single_spike_reads_off_weights(self, domain16, stencil16):
        values = np.zeros(domain16.padded_shape)
        center = domain16.padded_shape[0] // 2
        values[center] = 1.0
        out = nonlocal_laplacian(Field(domain16, values), stencil16).values
        by_offset = {int(d[0]): w for d, w in zip(stencil16.offsets, stencil16.weights)}
        w0 = by_offset[0]
        assert out[center] == pytest.approx(-(stencil16.diag - w0), rel=1e-14)
        assert out[center + 2] == pytest.approx(by_offset[-2], rel=1e-14)

    def test_dense_oracle_equivalence_1d(self, tent1d, rng):
        spec = make_domain(1, (0.0, 1.0), 32, 0.25)
        st_ = discretize(tent1d, 0.25, spec)
        mat = dense_nonlocal_matrix(tent1d, 0.25, spec)
        # the loop takes any input; A E takes interior values and returns
        # the step window, and E^T A takes window values
        op = NonlocalOperator(st_, spec)
        window = step_window(op)
        v = rng.standard_normal(spec.padded_shape)
        u_int = rng.standard_normal(spec.nx)
        u = zero_extend(u_int, spec).values
        for ours, theirs in (
            (nonlocal_laplacian(Field(spec, v), st_).values, mat @ v),
            (op.apply_extended(u_int), (mat @ u)[window]),
            (op.apply_restricted(v[window]), (mat @ v)[spec.interior_slices]),
        ):
            assert np.max(np.abs(ours - theirs)) <= 1e-13 * max(1.0, np.abs(theirs).max())

    def test_dense_oracle_equivalence_2d(self, tent2d, rng):
        spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), 16, 0.25)
        st_ = discretize(tent2d, 0.25, spec)
        mat = dense_nonlocal_matrix(tent2d, 0.25, spec)
        op = NonlocalOperator(st_, spec)
        window = step_window(op)
        v = rng.standard_normal(spec.padded_shape)
        u_int = rng.standard_normal(spec.nx)
        u = zero_extend(u_int, spec).values
        interior = spec.interior_mask().ravel()
        for ours, theirs in (
            (nonlocal_laplacian(Field(spec, v), st_).values, mat @ v.ravel()),
            (op.apply_extended(u_int), (mat @ u.ravel()).reshape(u.shape)[window].ravel()),
            (op.apply_restricted(v[window]), (mat @ v.ravel())[interior]),
        ):
            err = np.max(np.abs(ours.ravel() - theirs))
            assert err <= 1e-13 * max(1.0, np.abs(theirs).max())

    def test_debug_matrix_matches_apply(self, domain16, stencil16, rng):
        op = NonlocalOperator(stencil16, domain16)
        mat = dense_operator_matrix(op)
        window = step_window(op)
        v = rng.standard_normal(domain16.padded_shape)
        u_int = rng.standard_normal(domain16.nx)
        u = zero_extend(u_int, domain16).values
        for ours, ref in ((op.apply(v), mat @ v),
                          (op.apply_extended(u_int), (mat @ u)[window]),
                          (op.apply_restricted(v[window]),
                           (mat @ v)[domain16.interior_slices])):
            assert np.max(np.abs(ref - ours)) <= 1e-13 * np.abs(ref).max()

    def test_dx_mismatch_rejected(self, stencil64):
        other = make_domain(1, (0.0, 1.0), 32, 0.2)
        with pytest.raises(ValueError, match="dx"):
            nonlocal_laplacian(zero_extend(np.zeros(32), other), stencil64)

    def test_self_adjoint_and_negative(self, domain64, stencil64, rng):
        f = Field(domain64, rng.standard_normal(domain64.padded_shape))
        g = Field(domain64, rng.standard_normal(domain64.padded_shape))
        lf = nonlocal_laplacian(f, stencil64)
        lg = nonlocal_laplacian(g, stencil64)
        lhs = inner_product(lf, g)
        rhs = inner_product(f, lg)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert inner_product(lf, f) <= 1e-12


# The stencils the shipped configs and benchmark workloads use, by their
# number K of nonzero offsets: (dim, box, nx, eps).
SHIPPED_STENCILS = {
    24: (1, (0.0, 1.0), 64, 0.2),
    50: (1, (0.0, 1.0), 256, 0.1),
    102: (1, (0.0, 1.0), 256, 0.2),
    204: (1, (0.0, 1.0), 256, 0.4),
    44: (2, ((0.0, 64.0), (0.0, 64.0)), 64, 4.0),  # denoise, pixel units
    508: (2, ((0.0, 1.0), (0.0, 1.0)), 64, 0.2),
}


class TestFftEvaluation:
    """The step maps ``apply_extended`` (A E) and ``apply_restricted``
    (E^T A), direct correlations in 1D and FFTs in 2D, against the exact
    difference loop ``apply`` on the whole padded grid, whose collar is
    wider than the reach, read on the step window."""

    @pytest.fixture(scope="class", params=sorted(SHIPPED_STENCILS), ids="K{}".format)
    def op(self, request):
        dim, box, nx, eps = SHIPPED_STENCILS[request.param]
        kern = get_kernel("tent")
        spec = make_domain(dim, box, nx, eps)
        op = NonlocalOperator(discretize(kern, eps, spec), spec)
        assert sum(bool(np.any(d)) for d in op.stencil.offsets) == request.param
        return op

    def test_matches_loop(self, op, rng):
        window = step_window(op)
        v = rng.standard_normal(op.spec.nx)
        exact = op.apply(zero_extend(v, op.spec).values)
        got = op.apply_extended(v)
        assert np.max(np.abs(got - exact[window])) <= 1e-13 * np.abs(exact).max()
        y = rng.standard_normal(op.spec.padded_shape)
        exact = op.apply(y)[op.spec.interior_slices]
        got = op.apply_restricted(y[window])
        assert np.max(np.abs(got - exact)) <= 1e-13 * np.abs(exact).max()

    def test_self_adjoint(self, op, rng):
        # <A E v, y> = <v, E^T A y>
        v = rng.standard_normal(op.spec.nx)
        y = rng.standard_normal(window_shape(op))
        lhs = float(np.vdot(op.apply_extended(v), y))
        rhs = float(np.vdot(v, op.apply_restricted(y)))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_results_do_not_alias(self, op, rng):
        for apply, shape in ((op.apply_extended, op.spec.nx),
                             (op.apply_restricted, window_shape(op))):
            first = apply(rng.standard_normal(shape))
            kept = first.copy()
            second = apply(rng.standard_normal(shape))
            assert not np.shares_memory(first, second)
            assert np.array_equal(first, kept)

    def test_collar_narrower_than_reach_rejected(self):
        # a one-cell collar: every evaluation, the loop as much as the fast
        # paths, would truncate the operator at interior nodes (K = 24 in
        # 1D, reach 12; nx = 12, eps = 0.3 in 2D)
        for dim, nx, eps in ((1, 64, 0.2), (2, 12, 0.3)):
            kern = get_kernel("tent")
            spec = make_domain(dim, [(0.0, 1.0)] * dim, nx, eps)
            st_ = discretize(kern, eps, spec)
            spec = replace(spec, pad_cells=1)
            assert st_.reach > 1
            shape = spec.padded_shape
            u = zero_extend(np.ones(spec.nx), spec)
            with pytest.raises(ValueError, match="collar"):
                nonlocal_laplacian(u, st_)
            with pytest.raises(ValueError, match="collar"):
                dirichlet_energy(u, st_, 3.0)
            for call in (
                lambda op: op.apply(np.zeros(shape)),
                lambda op: op.apply_extended(np.zeros(spec.nx)),
                lambda op: op.apply_restricted(np.zeros(shape)),
                lambda op: op.apply_squared(np.zeros(spec.nx)),
                lambda op: op.normal_solve(np.ones(shape), 1.0, np.zeros(spec.nx)),
            ):
                with pytest.raises(ValueError, match="collar"):
                    call(NonlocalOperator(st_, spec))


# (dim, box, nx, stencil eps, grid eps) by K: converge_p3's eps = 0.1 stencil
# on its grid padded for eps = 0.4, and the stencil of evolve_2d.
STEP_GRID_STENCILS = {
    50: (1, (0.0, 1.0), 256, 0.1, 0.4),
    508: (2, ((0.0, 1.0), (0.0, 1.0)), 64, 0.2, 0.2),
}


class TestStepGrid:
    """A stencil's step operator (``as_operator``: interior +- reach)
    against the operator on the whole padded grid, on zero-extended input."""

    @pytest.fixture(scope="class", params=sorted(STEP_GRID_STENCILS), ids="K{}".format)
    def ops(self, request):
        dim, box, nx, eps, grid_eps = STEP_GRID_STENCILS[request.param]
        kern = get_kernel("tent")
        spec = make_domain(dim, box, nx, grid_eps)
        st_ = discretize(kern, eps, spec)
        assert sum(bool(np.any(d)) for d in st_.offsets) == request.param
        step = as_operator(st_, spec)
        assert step.spec.pad_cells == st_.reach < spec.pad_cells
        cut = spec.pad_cells - st_.reach
        window = tuple(slice(cut, cut + n) for n in step.spec.padded_shape)
        return NonlocalOperator(st_, spec), step, window

    @staticmethod
    def values(ops, rng):
        full, step, window = ops
        u = rng.standard_normal(full.spec.nx)
        return zero_extend(u, full.spec).values, zero_extend(u, step.spec).values

    def test_loop_apply_bit_identical_on_window(self, ops, rng):
        full, step, window = ops
        wide, narrow = self.values(ops, rng)
        a_wide = full.apply(wide)
        a_narrow = step.apply(narrow)
        assert np.array_equal(a_narrow, a_wide[window])
        a_wide[window] = 0.0
        assert np.all(a_wide == 0.0)  # A v vanishes beyond reach of omega
        # the second application is read on the interior only
        interior = full.spec.interior_slices
        flux_wide = full.apply(p_flux_values(full.apply(wide), 3.0))[interior]
        flux_narrow = step.apply(p_flux_values(a_narrow, 3.0))[step.spec.interior_slices]
        assert np.array_equal(flux_narrow, flux_wide)

    def test_corr_matches_full_loop_on_window(self, ops, rng):
        full, step, window = ops
        wide, narrow = self.values(ops, rng)
        exact = full.apply(wide)[window]
        got = step.apply_extended(narrow[step.spec.interior_slices])
        assert np.max(np.abs(got - exact)) <= 1e-13 * np.abs(exact).max()

    def test_step_evaluations_ignore_the_collar(self, ops, rng):
        # the step evaluations live on the step window, so the operator on
        # the whole padded grid returns the step operator's arrays
        full, step, _ = ops
        v = rng.standard_normal(full.spec.nx)
        y = rng.standard_normal(step.spec.padded_shape)
        for name, arg in (("apply_extended", v), ("apply_restricted", y),
                          ("apply_squared", v)):
            assert np.array_equal(getattr(full, name)(arg), getattr(step, name)(arg)), name

    def test_corr_matches_loop_on_interior_for_any_values(self, ops, rng):
        # the flux term and the p > 2 Hessian products correlate values that
        # are not zero on the collar and read the result on the interior
        _, step, _ = ops
        v = rng.standard_normal(step.spec.padded_shape)
        interior = step.spec.interior_slices
        exact = step.apply(v)[interior]
        got = step.apply_restricted(v)
        assert np.max(np.abs(got - exact)) <= 1e-13 * np.abs(exact).max()


# Step grids (``as_operator``) of the step maps, (dim, box, nx, eps): the
# stencils that run them, and interiors narrower than 2 reach, where a
# too-short FFT would wrap.  The fixture adds an operator that keeps a
# collar wider than its reach, as the stepper's test doubles do: its maps
# live on the step window, and its loop on the whole grid.
STEP_MAP_GRIDS = {
    **{f"K{k}": SHIPPED_STENCILS[k] for k in (24, 50, 204, 44, 508)},
    "1d_nx8": (1, [(0.0, 1.0)], 8, 0.9),
    "2d_nx4": (2, [(0.0, 1.0)] * 2, 4, 0.9),
}


class TestStepMaps:
    """``apply_extended`` (A E) and ``apply_restricted`` (E^T A) against the
    exact difference loop ``apply``, and against each other."""

    @pytest.fixture(scope="class", params=[*STEP_MAP_GRIDS, "wide_collar"])
    def op(self, request):
        if request.param == "wide_collar":
            kern = get_kernel("tent")
            spec = make_domain(1, (0.0, 1.0), 16, 0.25)
            op = NonlocalOperator(discretize(kern, 0.25, spec), spec)
            assert spec.pad_cells > op.reach
            return op
        dim, box, nx, eps = STEP_MAP_GRIDS[request.param]
        kern = get_kernel("tent")
        spec = make_domain(dim, box, nx, eps)
        op = as_operator(discretize(kern, eps, spec), spec)
        assert op.spec.pad_cells == op.reach
        assert request.param.startswith("K") or 2 * op.reach > nx
        return op

    def test_extended_is_loop_of_zero_extension(self, op, rng):
        window = step_window(op)
        v = rng.standard_normal(op.spec.nx)
        exact = op.apply(zero_extend(v, op.spec).values)
        got = op.apply_extended(v)
        assert got.shape == window_shape(op)
        assert np.max(np.abs(got - exact[window])) <= 1e-13 * np.abs(exact).max()
        exact[window] = 0.0
        assert np.all(exact == 0.0)  # the loop vanishes beyond the window

    def test_restricted_is_loop_on_interior(self, op, rng):
        y = rng.standard_normal(op.spec.padded_shape)
        exact = op.apply(y)[op.spec.interior_slices]
        got = op.apply_restricted(y[step_window(op)])
        assert got.shape == op.spec.nx
        assert np.max(np.abs(got - exact)) <= 1e-13 * np.abs(exact).max()

    def test_adjoint_pair(self, op, rng):
        v = rng.standard_normal(op.spec.nx)
        y = rng.standard_normal(window_shape(op))
        lhs = float(np.vdot(op.apply_extended(v), y))
        rhs = float(np.vdot(v, op.apply_restricted(y)))
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))

    def test_interleaved_evaluations_keep_their_results(self, op, rng):
        # in 2D the three evaluations share one FFT plan and its work
        # arrays: each result must be its own array, equal to the same call
        # on an operator that evaluated nothing else
        v, w = rng.standard_normal((2, *op.spec.nx))
        y = rng.standard_normal(window_shape(op))
        calls = [("apply_extended", v), ("apply_squared", w), ("apply_restricted", y),
                 ("apply_squared", v), ("apply_extended", w), ("apply_restricted", y)]
        got = [getattr(op, name)(arg) for name, arg in calls]
        for i, (name, arg) in enumerate(calls):
            alone = getattr(NonlocalOperator(op.stencil, op.spec), name)(arg)
            assert np.array_equal(got[i], alone), name
            assert not any(np.shares_memory(got[i], other) for other in got[:i])


class TestSquaredCorrelation:
    """``apply_squared``, one correlation with t * t, against the exact
    difference loop ``apply`` composed twice and read on the interior, on
    the step grid (``as_operator``) of the stencils its CG products run on.
    The interior indicator is the worst case for wrap-around."""

    @pytest.fixture(scope="class", params=[24, 50, 204, 44, 508], ids="K{}".format)
    def op(self, request):
        dim, box, nx, eps = SHIPPED_STENCILS[request.param]
        kern = get_kernel("tent")
        spec = make_domain(dim, box, nx, eps)
        op = as_operator(discretize(kern, eps, spec), spec)
        assert sum(bool(np.any(d)) for d in op.stencil.offsets) == request.param
        return op

    @staticmethod
    def check(op, v):
        full = zero_extend(v, op.spec).values
        exact = op.apply(op.apply(full))[op.spec.interior_slices]
        assert np.max(np.abs(op.apply_squared(v) - exact)) <= 1e-13 * np.abs(exact).max()

    @pytest.mark.parametrize("values", ["random", "indicator"])
    def test_matches_loop_twice(self, op, rng, values):
        shape = op.spec.nx
        self.check(op, rng.standard_normal(shape) if values == "random" else np.ones(shape))

    def test_results_do_not_alias(self, op, rng):
        first = op.apply_squared(rng.standard_normal(op.spec.nx))
        kept = first.copy()
        second = op.apply_squared(rng.standard_normal(op.spec.nx))
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("dim,nx", [(1, 8), (2, 4)], ids=["1d_nx8", "2d_nx4"])
    def test_reach_beyond_half_the_interior(self, dim, nx, rng):
        # t * t reaches 2 r > nx cells: its taps share slots of the 2D FFT
        # grid, and no shared slot reaches an interior output
        kern = get_kernel("tent")
        spec = make_domain(dim, [(0.0, 1.0)] * dim, nx, 0.9)
        op = as_operator(discretize(kern, 0.9, spec), spec)
        assert 2 * op.reach > nx
        self.check(op, rng.standard_normal(op.spec.nx))
        self.check(op, np.ones(op.spec.nx))
        # A E and E^T A on the same grid, whose collar equals the reach
        v = rng.standard_normal(op.spec.nx)
        exact = op.apply(zero_extend(v, op.spec).values)
        assert np.max(np.abs(op.apply_extended(v) - exact)) <= 1e-13 * np.abs(exact).max()
        y = rng.standard_normal(op.spec.padded_shape)
        exact = op.apply(y)[op.spec.interior_slices]
        assert np.max(np.abs(op.apply_restricted(y) - exact)) <= 1e-13 * np.abs(exact).max()


# name: (dim, box, nx, stencil eps or None for the local stencil, grid eps,
# nonzero stencil offsets K).  local1d_n250 and nonlocal2d_nx8 (band 36)
# do not fill a whole number of blocks.
NORMAL_CASES = {
    "local1d_n256": (1, (0.0, 1.0), 256, None, 0.4, 2),
    "local1d_n250": (1, (0.0, 1.0), 250, None, 0.4, 2),
    "nonlocal1d_K24": (1, (0.0, 1.0), 64, 0.2, 0.2, 24),
    "nonlocal1d_K50": (1, (0.0, 1.0), 256, 0.1, 0.4, 50),
    "local2d_nx8": (2, ((0.0, 1.0), (0.0, 1.0)), 8, None, 0.3, 4),
    "nonlocal2d_nx8": (2, ((0.0, 1.0), (0.0, 1.0)), 8, 0.3, 0.3, 20),
}


class TestNormalSolve:
    """``normal_solve`` (block LDL^T on the band) against ``np.linalg.solve``
    of the dense I/h + A^T diag(c) A from the oracle's restricted matrix."""

    @pytest.fixture(scope="class", params=sorted(NORMAL_CASES))
    def op(self, request):
        dim, box, nx, eps, grid_eps, k = NORMAL_CASES[request.param]
        kern = get_kernel("tent")
        spec = make_domain(dim, box, nx, grid_eps)
        if eps is None:
            op = LocalOperator(spec)
        else:
            op = NonlocalOperator(discretize(kern, eps, spec), spec)
        assert sum(bool(np.any(d)) for d in op.stencil.offsets) == k
        return op

    @staticmethod
    def check(op, c, rng):
        # h at the scale of 1/A^2, so I/h does not swamp the operator term
        h = 1.0 / op.norm_bound() ** 2
        g = rng.standard_normal(op.spec.nx)
        d = op.normal_solve(c, 1.0 / h, g)
        am = restricted_matrix(op)
        dense = np.eye(op.spec.n_interior) / h + am.T @ (c.ravel()[:, None] * am)
        ref = np.linalg.solve(dense, g.ravel())
        assert d.shape == g.shape
        resid = np.linalg.norm(dense @ d.ravel() - g.ravel())
        assert resid <= 1e-12 * np.linalg.norm(dense, 2) * np.linalg.norm(d)
        gap = np.linalg.norm(d.ravel() - ref)
        assert gap <= 1e-12 * np.linalg.cond(dense) * np.linalg.norm(ref)

    def test_matches_dense_solve(self, op, rng):
        self.check(op, rng.uniform(0.5, 2.0, op.spec.padded_shape), rng)

    def test_reweighting_weights_over_twelve_decades(self, op, rng):
        # the reweighted step's floored |A x|^(p-2); the second assembly
        # rewrites the blocks the first one wrote
        self.check(op, rng.uniform(0.5, 2.0, op.spec.padded_shape), rng)
        self.check(op, 10.0 ** rng.uniform(-12.0, 0.0, op.spec.padded_shape), rng)


class TestTauSolve:
    """``tau_solve`` against the dense inverse of S diag(shift + lambda^2) S,
    built here from the orthonormal DST-I of each axis and the symbol
    lambda(xi) = sum_(d != 0) w_d (prod_a cos(xi_a d_a) - 1) of the stencil's
    own offsets and weights, on a 2D grid with a different n per axis."""

    def test_matches_dense_tau_inverse(self, tent2d):
        spec = make_domain(2, ((0.0, 1.0), (0.0, 1.5)), (6, 9), 0.4)
        op = as_operator(discretize(tent2d, 0.4, spec), spec)
        shift = 1.0 / 5e-3
        solve = op.tau_solve(shift)
        n = op.spec.n_interior
        p_inv = np.stack([solve(e.reshape(op.spec.nx)).ravel() for e in np.eye(n)], axis=1)

        nx = op.spec.nx
        ks = [np.arange(1, m + 1) for m in nx]
        sines = [np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
                 for m, k in zip(nx, ks)]
        xi = np.meshgrid(*[np.pi * k / (m + 1) for m, k in zip(nx, ks)], indexing="ij")
        lam = sum(w * (np.cos(xi[0] * d[0]) * np.cos(xi[1] * d[1]) - 1.0)
                  for d, w in zip(op.stencil.offsets, op.stencil.weights))
        s = np.kron(*sines)
        tau = s @ np.diag(shift + lam.ravel() ** 2) @ s

        scale = np.abs(p_inv).max()
        assert np.abs(p_inv - p_inv.T).max() <= 1e-14 * scale
        assert np.linalg.eigvalsh(0.5 * (p_inv + p_inv.T)).min() > 0.0
        assert np.abs(p_inv - np.linalg.inv(tau)).max() <= 1e-12 * scale

    def test_basis_is_built_once(self, tent2d, rng):
        spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), 8, 0.4)
        op = as_operator(discretize(tent2d, 0.4, spec), spec)
        v = rng.standard_normal(op.spec.nx)
        first = op.tau_solve(1.0)(v)
        basis = op._tau
        # a new shift rescales the same basis; the input is not written
        kept = v.copy()
        second = op.tau_solve(4.0)(v)
        assert op._tau is basis
        assert np.array_equal(v, kept)
        assert not np.shares_memory(first, second)
        assert np.linalg.norm(second) < np.linalg.norm(first)

    def test_needs_a_2d_grid(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 16, 0.25)
        op = as_operator(discretize(tent1d, 0.25, spec), spec)
        with pytest.raises(ValueError, match="2D grid"):
            op.tau_solve(1.0)


class TestPFlux:
    def test_p2_identity_bit_exact(self, domain64, rng):
        g = zero_extend(rng.standard_normal(64), domain64)
        assert np.array_equal(p_flux(g, 2.0).values, g.values)

    def test_p3_example(self, domain16):
        g = zero_extend(np.full(16, -2.0), domain16)
        out = p_flux(g, 3.0)
        assert np.all(out.interior_values == -4.0)

    def test_p15_zero_maps_to_zero(self, domain16):
        g = zero_extend(np.zeros(16), domain16)
        out = p_flux(g, 1.5)
        assert np.all(out.values == 0.0)

    def test_bad_exponent_rejected(self, domain16):
        g = zero_extend(np.zeros(16), domain16)
        with pytest.raises(ValueError, match="exponent"):
            p_flux(g, 1.0)


@given(
    a=hnp.arrays(np.float64, 32, elements=st.floats(-100, 100)),
    b=hnp.arrays(np.float64, 32, elements=st.floats(-100, 100)),
    p=st.sampled_from([1.2, 1.5, 2.0, 3.0, 4.0]),
)
@settings(max_examples=60, deadline=None)
def test_flux_monotone_property(a, b, p):
    fa = p_flux_values(a, p)
    fb = p_flux_values(b, p)
    assert np.all((fa - fb) * (a - b) >= -1e-12)


class TestPBiharmonicRhs:
    def test_zero_field(self, domain64, stencil64):
        u = zero_extend(np.zeros(64), domain64)
        out = p_biharmonic_rhs(u, stencil64, 2.0)
        assert np.all(out.values == 0.0)

    def test_spike_matches_dense_composition(self, tent1d, rng):
        spec = make_domain(1, (0.0, 1.0), 8, 0.5)
        st_ = discretize(tent1d, 0.5, spec)
        mat = dense_nonlocal_matrix(tent1d, 0.5, spec)
        spike = np.zeros(8)
        spike[4] = 1.0
        u = zero_extend(spike, spec)
        ours = p_biharmonic_rhs(u, st_, 2.0)
        dense = -(mat @ (mat @ u.values))
        dense[~spec.interior_mask()] = 0.0
        assert np.max(np.abs(ours.values - dense)) <= 1e-13 * np.abs(dense).max()

    def test_integration_by_parts_sign(self, domain64, stencil64, rng):
        u = zero_extend(rng.standard_normal(64), domain64)
        for p in (1.5, 2.0, 3.0):
            rhs = p_biharmonic_rhs(u, stencil64, p)
            lhs = inner_product(rhs, u, "omega")
            target = -lp_norm(nonlocal_laplacian(u, stencil64), p, "omega_e") ** p
            assert lhs == pytest.approx(target, rel=1e-10)

    def test_exterior_zeroed(self, domain64, stencil64, rng):
        u = zero_extend(rng.standard_normal(64), domain64)
        out = p_biharmonic_rhs(u, stencil64, 3.0)
        assert out.exterior_max_abs() == 0.0

    def test_unconstrained_input_rejected(self, domain64, stencil64):
        bad = Field(domain64, np.ones(domain64.padded_shape))
        with pytest.raises(ValueError, match="zero on exterior"):
            p_biharmonic_rhs(bad, stencil64, 2.0)


class TestDirichletEnergy:
    def test_zero_field(self, domain64, stencil64):
        u = zero_extend(np.zeros(64), domain64)
        assert dirichlet_energy(u, stencil64, 2.0) == 0.0

    def test_p2_matches_dense_quadratic_form(self, tent1d, rng):
        spec = make_domain(1, (0.0, 1.0), 16, 0.25)
        st_ = discretize(tent1d, 0.25, spec)
        mat = dense_nonlocal_matrix(tent1d, 0.25, spec)
        ext = extension_matrix(spec)
        u_int = rng.standard_normal(16)
        u = zero_extend(u_int, spec)
        a = mat @ ext @ u_int
        expected = 0.5 * spec.cell_volume * float(a @ a)
        assert dirichlet_energy(u, st_, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_p_homogeneity(self, domain64, stencil64, rng):
        u_int = rng.standard_normal(64)
        for p in (1.5, 2.0, 3.0):
            e1 = dirichlet_energy(zero_extend(u_int, domain64), stencil64, p)
            e2 = dirichlet_energy(zero_extend(2.5 * u_int, domain64), stencil64, p)
            assert e2 == pytest.approx(2.5**p * e1, rel=1e-10)


class TestBounds:
    def test_eq22a_with_explicit_constant(self, domain64, stencil64, rng):
        # || Delta_NL u ||_q <= 2 (sum w_d) ||u||_q, the discrete Young bound
        bound = 2.0 * stencil64.diag
        for _ in range(20):
            u = zero_extend(rng.standard_normal(64), domain64)
            lap = nonlocal_laplacian(u, stencil64)
            for q in (1.5, 2.0, 3.0):
                assert lp_norm(lap, q, "omega_e") <= bound * lp_norm(
                    u, q, "omega"
                ) * (1 + 1e-10)

    def test_reverse_bound_with_measured_poincare_constant(
        self, domain64, stencil64, rng
    ):
        from nlbiharm import poincare_constant

        c_grid = poincare_constant(domain64, stencil64)
        for _ in range(10):
            u_int = rng.standard_normal(64)
            u_int -= u_int.mean()
            u = zero_extend(u_int, domain64)
            lap = nonlocal_laplacian(u, stencil64)
            lhs = lp_norm(u, 2, "omega") ** 2
            rhs = c_grid * lp_norm(lap, 2, "omega_e") ** 2
            assert lhs <= 1.1 * rhs
