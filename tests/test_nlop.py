from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlbiharm import NonlocalOperator, discretize, get_kernel, make_domain
from nlbiharm.grid import lq_sum_norm
from nlbiharm.localref import local_stencil
from nlbiharm import nlop
from nlbiharm.nlop import BandedNormal, check_exponent, p_flux_values
from nlbiharm.stepper import _StepFunctional, as_operator

from oracles import (
    dense_nonlocal_matrix,
    dense_operator_matrix,
    extension_matrix,
    interior_mask,
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
        out = NonlocalOperator(stencil64, domain64).apply(np.full(domain64.padded_shape, 3.7))
        assert np.all(out == 0.0)

    def test_quadratic_identity(self, tent1d):
        # 0.5 * int J_eps z^2 dz = 1 makes the operator exact on x^2 up to
        # the moment quadrature error, which is O(dx) or better
        for nx in (64, 128, 256):
            spec = make_domain(1, (0.0, 1.0), nx, 0.2)
            st_ = discretize(tent1d, 0.2, spec)
            x = spec.node_coords()[0]
            out = NonlocalOperator(st_, spec).apply(x**2)
            err = np.max(np.abs(out[spec.interior_slices] - 2.0))
            assert err <= 1.0 / nx

    def test_single_spike_reads_off_weights(self, domain16, stencil16):
        values = np.zeros(domain16.padded_shape)
        center = domain16.padded_shape[0] // 2
        values[center] = 1.0
        out = NonlocalOperator(stencil16, domain16).apply(values)
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
        u = np.pad(u_int, spec.pad_cells)
        for ours, theirs in (
            (op.apply(v), mat @ v),
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
        u = np.pad(u_int, spec.pad_cells)
        interior = interior_mask(spec).ravel()
        for ours, theirs in (
            (op.apply(v), mat @ v.ravel()),
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
        u = np.pad(u_int, domain16.pad_cells)
        for ours, ref in ((op.apply(v), mat @ v),
                          (op.apply_extended(u_int), (mat @ u)[window]),
                          (op.apply_restricted(v[window]),
                           (mat @ v)[domain16.interior_slices])):
            assert np.max(np.abs(ref - ours)) <= 1e-13 * np.abs(ref).max()

    def test_dx_mismatch_rejected(self, stencil64):
        other = make_domain(1, (0.0, 1.0), 32, 0.2)
        with pytest.raises(ValueError, match="dx"):
            NonlocalOperator(stencil64, other)

    def test_self_adjoint_and_negative(self, domain64, stencil64, rng):
        op = NonlocalOperator(stencil64, domain64)
        vol = domain64.cell_volume
        f = rng.standard_normal(domain64.padded_shape)
        g = rng.standard_normal(domain64.padded_shape)
        lf = op.apply(f).ravel()
        lg = op.apply(g).ravel()
        f, g = f.ravel(), g.ravel()
        lhs = vol * np.dot(lf, g)
        rhs = vol * np.dot(f, lg)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert vol * np.dot(lf, f) <= 1e-12


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
        exact = op.apply(np.pad(v, op.spec.pad_cells))
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
        return np.pad(u, full.spec.pad_cells), np.pad(u, step.spec.pad_cells)

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
        exact = op.apply(np.pad(v, op.spec.pad_cells))
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
        full = np.pad(v, op.spec.pad_cells)
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
        exact = op.apply(np.pad(v, op.spec.pad_cells))
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
    "local1d_n1024": (1, (0.0, 1.0), 1024, None, 0.4, 2),
    "nonlocal1d_K24": (1, (0.0, 1.0), 64, 0.2, 0.2, 24),
    "nonlocal1d_K50": (1, (0.0, 1.0), 256, 0.1, 0.4, 50),
    "local2d_nx8": (2, ((0.0, 1.0), (0.0, 1.0)), 8, None, 0.3, 4),
    "nonlocal2d_nx8": (2, ((0.0, 1.0), (0.0, 1.0)), 8, 0.3, 0.3, 20),
}


class TestNormalSolve:
    """``normal_solve`` (partitioned block LDL^T on the band, ``BandedNormal``)
    against ``np.linalg.solve`` of the dense I/h + A^T diag(c) A from the
    oracle's restricted matrix: narrow 1D local bands in partitions of one
    block (n = 256, 250, 1024) or, with the partition count forced, of
    several padded blocks; wider bands in one chain."""

    @pytest.fixture(scope="class", params=sorted(NORMAL_CASES))
    def op(self, request):
        dim, box, nx, eps, grid_eps, k = NORMAL_CASES[request.param]
        kern = get_kernel("tent")
        spec = make_domain(dim, box, nx, grid_eps)
        if eps is None:
            op = NonlocalOperator(local_stencil(spec), spec)
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
        # M is SPD: its 2-norm and condition number from its extreme eigenvalues
        eig = np.linalg.eigvalsh(dense)[[0, -1]]
        resid = np.linalg.norm(dense @ d.ravel() - g.ravel())
        assert resid <= 1e-12 * eig[1] * np.linalg.norm(d)
        gap = np.linalg.norm(d.ravel() - ref)
        assert gap <= 1e-12 * (eig[1] / eig[0]) * np.linalg.norm(ref)

    def test_matches_dense_solve(self, op, rng):
        self.check(op, rng.uniform(0.5, 2.0, op.spec.padded_shape), rng)

    def test_reweighting_weights_over_twelve_decades(self, op, rng):
        # the reweighted step's floored |A x|^(p-2); the second assembly
        # rewrites the blocks the first one wrote
        self.check(op, rng.uniform(0.5, 2.0, op.spec.padded_shape), rng)
        self.check(op, 10.0 ** rng.uniform(-12.0, 0.0, op.spec.padded_shape), rng)

    def test_weights_with_exact_zeros(self, op, rng):
        # the p = 3 curvature 2|A x| is exactly 0 wherever A x = 0: here on
        # the left half of the interior, where x is 0, and beyond its reach
        spec = op.spec
        x = np.zeros(spec.padded_shape)
        inner = spec.interior_slices
        x[inner] = rng.standard_normal(spec.nx)
        x[inner][: spec.nx[0] // 2] = 0.0
        curv = np.abs(op.apply(x))
        assert np.count_nonzero(curv[inner] == 0.0) > 0
        self.check(op, 2.0 * curv / curv.max(), rng)

    @pytest.mark.parametrize("nx, parts", [(1024, 3), (1024, 8), (103, 3)])
    def test_partitions_of_several_blocks(self, nx, parts, rng, monkeypatch):
        # partitions of 11 and 4 blocks of 32 (n = 1024), padded past the
        # last unknown; at n = 103 the padding fills the last partition and
        # the separator before it
        monkeypatch.setattr(nlop, "_layout", lambda n, width: (parts, 32))
        spec = make_domain(1, (0.0, 1.0), nx, 0.4)
        op = NonlocalOperator(local_stencil(spec), spec)
        model = op._normal
        assert model.parts == parts and model.length > model.block
        self.check(op, rng.uniform(0.5, 2.0, op.spec.padded_shape), rng)

    def test_partition_count(self):
        # the cost rule partitions the narrow 1D local band, and keeps every
        # 2D local band (width 2 nx) in one chain, the solve of one partition
        spec = make_domain(1, (0.0, 1.0), 256, 0.4)
        local1d = BandedNormal(NonlocalOperator(local_stencil(spec), spec))
        assert local1d.width == 2 and local1d.parts > 1
        for nx in (8, 16, 32, 64):
            spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), nx, 0.3)
            model = BandedNormal(NonlocalOperator(local_stencil(spec), spec))
            assert model.width == 2 * nx and model.parts == 1


# name: (dim, box, nx, stencil eps or None for the local stencil, grid
# eps, partitions, block length) of the p = 2 factors the runs keep: the
# battery's 1D grid (one block), converge_p2's eps = 0.4 (the full band of
# n = 256, one block), its local reference and the 2D local Hessian.
P2_FACTOR_CASES = {
    "nonlocal1d_n64": (1, (0.0, 1.0), 64, 0.2, 0.2, 1, 64),
    "nonlocal1d_full": (1, (0.0, 1.0), 256, 0.4, 0.4, 1, 256),
    "local1d_n256": (1, (0.0, 1.0), 256, None, 0.4, 13, 18),
    "local2d_nx16": (2, ((0.0, 1.0), (0.0, 1.0)), 16, None, 0.25, 1, 32),
}


class TestP2Solve:
    """``p2_solve``, the substitution with ``BandedNormal``'s kept factor,
    against ``np.linalg.solve`` of the dense shift I + A^T A from the
    oracle's restricted matrix, with ``TestNormalSolve``'s bounds."""

    @pytest.fixture(scope="class", params=sorted(P2_FACTOR_CASES))
    def case(self, request):
        dim, box, nx, eps, grid_eps, parts, block = P2_FACTOR_CASES[request.param]
        spec = make_domain(dim, box, nx, grid_eps)
        st_ = local_stencil(spec) if eps is None else discretize(get_kernel("tent"), eps, spec)
        return NonlocalOperator(st_, spec), parts, block

    def test_matches_dense_solve(self, case, rng):
        op, parts, block = case
        shift = op.norm_bound() ** 2  # I/h at the scale of A^2
        g = rng.standard_normal(op.spec.nx)
        kept = g.copy()
        d = op.p2_solve(shift)(g)
        assert (op._normal.parts, op._normal.block) == (parts, block)
        assert np.array_equal(g, kept) and d.shape == g.shape
        am = restricted_matrix(op)
        dense = shift * np.eye(op.spec.n_interior) + am.T @ am
        ref = np.linalg.solve(dense, g.ravel())
        eig = np.linalg.eigvalsh(dense)[[0, -1]]
        assert np.linalg.norm(dense @ d.ravel() - g.ravel()) <= 1e-12 * eig[1] * np.linalg.norm(d)
        assert np.linalg.norm(d.ravel() - ref) <= 1e-12 * (eig[1] / eig[0]) * np.linalg.norm(ref)

    def test_factor_is_kept_per_shift(self, case, rng):
        # a solve reuses its shift's factor, and a later per-call direct
        # solve, which assembles the same blocks anew, leaves it unchanged
        op = NonlocalOperator(case[0].stencil, case[0].spec)
        g = rng.standard_normal(op.spec.nx)
        solve = op.p2_solve(1.0)
        first = solve(g)
        op.normal_solve(rng.uniform(0.5, 2.0, op.spec.padded_shape), 3.0, g)
        assert op.p2_solve(1.0) is solve
        assert op.p2_solve(2.0) is not solve
        assert np.array_equal(solve(g), first)
        assert not np.shares_memory(solve(g), first)


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
    def test_p2_identity_bit_exact(self, rng):
        g = rng.standard_normal(64)
        assert np.array_equal(p_flux_values(g, 2.0), g)

    def test_p3_example(self):
        assert np.all(p_flux_values(np.full(16, -2.0), 3.0) == -4.0)

    def test_p15_zero_maps_to_zero(self):
        assert np.all(p_flux_values(np.zeros(16), 1.5) == 0.0)

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError, match="exponent"):
            check_exponent(1.0)


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


@pytest.fixture(params=[1, 2], ids="{}d".format)
def step_op(request, tent1d, domain64, stencil64):
    """A step operator in 1D (nx = 64) and in 2D (nx = 16)."""
    if request.param == 1:
        return as_operator(stencil64, domain64)
    spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), 16, 0.25)
    return as_operator(discretize(tent1d, 0.25, spec), spec)


# The two pairs of maps a step evaluates through: the difference loop of the
# direct solves and the correlations of Newton-CG.
step_maps = pytest.mark.parametrize("corr", [False, True], ids=["loop", "corr"])


class TestPBiharmonicRhs:
    """The flux term E^T A flux(A E u) of the step functional, minus the
    p-biharmonic right-hand side on the interior."""

    def test_zero_field(self, domain64, stencil64):
        z = np.zeros(64)
        fn = _StepFunctional(as_operator(stencil64, domain64), z, 2.0, 1e-3)
        assert np.all(fn.flux_term(fn.extended(z)) == 0.0)

    def test_spike_matches_dense_composition(self, tent1d, rng):
        spec = make_domain(1, (0.0, 1.0), 8, 0.5)
        st_ = discretize(tent1d, 0.5, spec)
        mat = dense_nonlocal_matrix(tent1d, 0.5, spec)
        spike = np.zeros(8)
        spike[4] = 1.0
        fn = _StepFunctional(as_operator(st_, spec), spike, 2.0, 1e-3)
        ours = fn.flux_term(fn.extended(spike))
        dense = (mat @ (mat @ np.pad(spike, spec.pad_cells)))[spec.interior_slices]
        assert np.max(np.abs(ours - dense)) <= 1e-13 * np.abs(dense).max()

    @step_maps
    def test_integration_by_parts_sign(self, step_op, rng, corr):
        # vol <E^T A flux(A E u), u> = vol sum |A E u|^p = p times the p-term
        u = rng.standard_normal(step_op.spec.nx)
        maps = (step_op.apply_extended, step_op.apply_restricted) if corr else None
        for p in (1.5, 2.0, 3.0):
            fn = _StepFunctional(step_op, u, p, 1e-3, maps)
            a = fn.extended(u)
            lhs = fn.vol * float(np.vdot(fn.flux_term(a), u))
            assert lhs == pytest.approx(p * fn.energy(u, a)[1], rel=1e-10)


class TestDirichletEnergy:
    """The p-term 1/p vol sum |A E u|^p of the step functional."""

    def test_zero_field(self, domain64, stencil64):
        z = np.zeros(64)
        fn = _StepFunctional(as_operator(stencil64, domain64), z, 2.0, 1e-3)
        assert fn.energy(z)[1] == 0.0

    def test_p2_matches_dense_quadratic_form(self, tent1d, rng):
        spec = make_domain(1, (0.0, 1.0), 16, 0.25)
        st_ = discretize(tent1d, 0.25, spec)
        mat = dense_nonlocal_matrix(tent1d, 0.25, spec)
        ext = extension_matrix(spec)
        u_int = rng.standard_normal(16)
        a = mat @ ext @ u_int
        expected = 0.5 * spec.cell_volume * float(a @ a)
        fn = _StepFunctional(as_operator(st_, spec), u_int, 2.0, 1e-3)
        assert fn.energy(u_int)[1] == pytest.approx(expected, rel=1e-12)

    @step_maps
    def test_p_homogeneity(self, step_op, rng, corr):
        u = rng.standard_normal(step_op.spec.nx)
        maps = (step_op.apply_extended, step_op.apply_restricted) if corr else None
        for p in (1.5, 2.0, 3.0):
            fn = _StepFunctional(step_op, u, p, 1e-3, maps)
            e1 = fn.energy(u)[1]
            e2 = fn.energy(2.5 * u)[1]
            assert e2 == pytest.approx(2.5**p * e1, rel=1e-10)


class TestBounds:
    def test_eq22a_with_explicit_constant(self, domain64, stencil64, rng):
        # || Delta_NL u ||_q <= 2 (sum w_d) ||u||_q, the discrete Young bound
        bound = 2.0 * stencil64.diag
        op = NonlocalOperator(stencil64, domain64)
        vol = domain64.cell_volume
        for _ in range(20):
            u = rng.standard_normal(64)
            lap = op.apply(np.pad(u, domain64.pad_cells)).ravel()
            for q in (1.5, 2.0, 3.0):
                assert lq_sum_norm(lap, q, vol) <= bound * lq_sum_norm(u, q, vol) * (1 + 1e-10)

    def test_reverse_bound_with_measured_poincare_constant(
        self, domain64, stencil64, rng
    ):
        from nlbiharm import poincare_constant

        c_grid = poincare_constant(domain64, stencil64)
        op = NonlocalOperator(stencil64, domain64)
        vol = domain64.cell_volume
        for _ in range(10):
            u_int = rng.standard_normal(64)
            u_int -= u_int.mean()
            lap = op.apply(np.pad(u_int, domain64.pad_cells)).ravel()
            lhs = lq_sum_norm(u_int, 2, vol) ** 2
            rhs = c_grid * lq_sum_norm(lap, 2, vol) ** 2
            assert lhs <= 1.1 * rhs
