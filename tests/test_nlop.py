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
    rescale,
    zero_extend,
)
from nlbiharm.nlop import p_flux_values

from oracles import dense_nonlocal_matrix, dense_operator_matrix, extension_matrix


class TestNonlocalLaplacian:
    def test_constant_maps_to_exact_zero(self, domain64, stencil64):
        f = Field(domain64, np.full(domain64.padded_shape, 3.7))
        out = nonlocal_laplacian(f, stencil64)
        assert np.all(out.values == 0.0)

    def test_quadratic_identity(self, tent1d):
        # 0.5 * int J_eps z^2 dz = 1 makes the operator exact on x^2 up to
        # the moment quadrature error, which is O(dx) or better
        for nx in (64, 128, 256):
            spec = make_domain(1, (0.0, 1.0), nx, tent1d, 0.2)
            st_ = discretize(rescale(tent1d, 0.2), spec)
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
        spec = make_domain(1, (0.0, 1.0), 32, tent1d, 0.25)
        rk = rescale(tent1d, 0.25)
        st_ = discretize(rk, spec)
        mat = dense_nonlocal_matrix(rk, spec)
        v = rng.standard_normal(spec.padded_shape)
        theirs = mat @ v
        for ours in (
            nonlocal_laplacian(Field(spec, v), st_).values,
            NonlocalOperator(st_, spec).apply_fft(v),
        ):
            assert np.max(np.abs(ours - theirs)) <= 1e-13 * max(1.0, np.abs(theirs).max())

    def test_dense_oracle_equivalence_2d(self, tent2d, rng):
        spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), 16, tent2d, 0.25)
        rk = rescale(tent2d, 0.25)
        st_ = discretize(rk, spec)
        mat = dense_nonlocal_matrix(rk, spec)
        v = rng.standard_normal(spec.padded_shape)
        theirs = mat @ v.ravel()
        for ours in (
            nonlocal_laplacian(Field(spec, v), st_).values,
            NonlocalOperator(st_, spec).apply_fft(v),
        ):
            err = np.max(np.abs(ours.ravel() - theirs))
            assert err <= 1e-13 * max(1.0, np.abs(theirs).max())

    def test_debug_matrix_matches_apply(self, domain16, stencil16, rng):
        op = NonlocalOperator(stencil16, domain16)
        mat = dense_operator_matrix(op)
        v = rng.standard_normal(domain16.padded_shape)
        ref = mat @ v
        for ours in (op.apply(v), op.apply_fft(v)):
            assert np.max(np.abs(ref - ours)) <= 1e-13 * np.abs(ref).max()

    def test_dx_mismatch_rejected(self, tent1d, stencil64):
        other = make_domain(1, (0.0, 1.0), 32, tent1d, 0.2)
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
    """``apply_fft`` against the exact difference loop ``apply``."""

    @pytest.fixture(scope="class", params=sorted(SHIPPED_STENCILS), ids="K{}".format)
    def op(self, request):
        dim, box, nx, eps = SHIPPED_STENCILS[request.param]
        kern = get_kernel("tent", dim)
        spec = make_domain(dim, box, nx, kern, eps)
        op = NonlocalOperator(discretize(rescale(kern, eps), spec), spec)
        assert sum(bool(np.any(d)) for d in op.stencil.offsets) == request.param
        return op

    def test_matches_loop(self, op, rng):
        v = rng.standard_normal(op.spec.padded_shape)
        exact = op.apply(v)
        assert np.max(np.abs(op.apply_fft(v) - exact)) <= 1e-13 * np.abs(exact).max()

    def test_constant_gives_exact_zeros(self, op):
        out = op.apply_fft(np.full(op.spec.padded_shape, 3.7))
        assert np.all(out == 0.0)

    def test_self_adjoint(self, op, rng):
        f = rng.standard_normal(op.spec.padded_shape)
        g = rng.standard_normal(op.spec.padded_shape)
        lhs = float(np.vdot(op.apply_fft(f), g))
        rhs = float(np.vdot(f, op.apply_fft(g)))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


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

    def test_regularized_variant(self, domain16):
        g = zero_extend(np.linspace(-1, 1, 16), domain16)
        hard = p_flux(g, 1.5)
        soft = p_flux(g, 1.5, delta=1e-3)
        assert np.all(np.isfinite(soft.values))
        inz = np.abs(g.interior_values) > 0.5
        assert hard.interior_values[inz] == pytest.approx(
            soft.interior_values[inz], rel=1e-3
        )

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
        spec = make_domain(1, (0.0, 1.0), 8, tent1d, 0.5)
        rk = rescale(tent1d, 0.5)
        st_ = discretize(rk, spec)
        mat = dense_nonlocal_matrix(rk, spec)
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
        spec = make_domain(1, (0.0, 1.0), 16, tent1d, 0.25)
        rk = rescale(tent1d, 0.25)
        st_ = discretize(rk, spec)
        mat = dense_nonlocal_matrix(rk, spec)
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

        c_grid = poincare_constant(domain64, stencil64, q=2)
        for _ in range(10):
            u_int = rng.standard_normal(64)
            u_int -= u_int.mean()
            u = zero_extend(u_int, domain64)
            lap = nonlocal_laplacian(u, stencil64)
            lhs = lp_norm(u, 2, "omega") ** 2
            rhs = c_grid * lp_norm(lap, 2, "omega_e") ** 2
            assert lhs <= 1.1 * rhs
