import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlbiharm import (
    Kernel,
    discretize,
    get_kernel,
    make_domain,
    normalization_constant,
    rescale,
    stencil_to_csv,
)
from nlbiharm.kernel import kernel_is_nonincreasing

from oracles import kernel_second_moment


class TestNormalizationConstant:
    def test_tent_1d_analytic(self, tent1d):
        # 0.5 * 2 * int_0^1 (1-z) z^2 dz = 1/12
        assert normalization_constant(tent1d) == pytest.approx(12.0, abs=1e-6)

    def test_tent_2d_analytic(self, tent2d):
        # 0.5 * 2 pi * int_0^1 (1-r) r^3 dr = pi/20
        assert normalization_constant(tent2d) == pytest.approx(20 / np.pi, abs=1e-5)

    def test_quartic_1d_pinned_by_quadrature_oracle(self):
        kern = get_kernel("quartic", 1)
        oracle = 1.0 / kernel_second_moment(kern.profile, 1)
        assert oracle == pytest.approx(105 / 8, rel=1e-10)
        assert normalization_constant(kern) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("name", ["tent", "quartic", "cosine"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_all_kernels_match_adaptive_quadrature(self, name, dim):
        kern = get_kernel(name, dim)
        oracle = 1.0 / kernel_second_moment(kern.profile, dim)
        assert normalization_constant(kern) == pytest.approx(oracle, rel=1e-6)

    def test_unsupported_dim_rejected(self):
        kern = Kernel(name="tent", profile=get_kernel("tent", 1).profile, dim=3)
        with pytest.raises(ValueError, match="dim"):
            normalization_constant(kern)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel("gaussian", 1)


class TestRescale:
    def test_tent_value_at_origin(self, tent1d):
        rk = rescale(tent1d, 1.0)
        assert rk(np.array([0.0]))[0] == pytest.approx(12.0, abs=1e-6)

    def test_compact_support(self, tent1d):
        rk = rescale(tent1d, 0.25)
        r = np.array([0.25, 0.3, 5.0])
        assert np.all(rk(r) == 0.0)

    def test_radial_symmetry_through_distance(self, tent1d, rng):
        rk = rescale(tent1d, 0.3)
        x = rng.uniform(0, 0.4, size=50)
        assert np.array_equal(rk(x), rk(np.abs(-x)))

    def test_second_moment_normalized(self, tent1d):
        # 0.5 * int J_eps(|z|) z^2 dz = 1 by construction
        rk = rescale(tent1d, 0.37)
        z = (np.arange(200000) + 0.5) * (rk.support_radius / 200000)
        val = np.sum(rk(z) * z**2) * (rk.support_radius / 200000)  # one side
        assert 0.5 * 2 * val == pytest.approx(1.0, abs=1e-6)

    def test_nonpositive_eps_rejected(self, tent1d):
        with pytest.raises(ValueError, match="eps"):
            rescale(tent1d, 0.0)

    def test_monotonicity_check(self, tent1d):
        assert kernel_is_nonincreasing(tent1d)
        bad = get_kernel("tent", 1)
        object.__setattr__(bad, "profile", lambda r: r)
        assert not kernel_is_nonincreasing(bad)


class TestDiscretize:
    def test_offset_count_tent(self, tent1d, domain16):
        # eps=0.25, dx=1/16: |d| <= 3 -> 7 offsets
        st_ = discretize(rescale(tent1d, 0.25), domain16)
        assert len(st_.offsets) == 7

    def test_offset_count_31(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 64, tent1d, 0.25)
        st_ = discretize(rescale(tent1d, 0.25), spec)
        assert len(st_.offsets) == 31

    def test_weights_symmetric_bit_exact(self, tent1d, stencil64):
        by_offset = {int(d[0]): w for d, w in zip(stencil64.offsets, stencil64.weights)}
        for d, w in by_offset.items():
            assert by_offset[-d] == w

    def test_weight_sum_matches_kernel_integral(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 64, tent1d, 0.2)
        st_ = discretize(rescale(tent1d, 0.2), spec)
        # int J_eps = C_J / eps^2 for the tent in 1D (unit mass profile)
        assert st_.diag == pytest.approx(12.0 / 0.2**2, rel=0.02)

    def test_raw_second_moment_refines_to_one(self, tent1d):
        # first order or better in dx; the constant absorbs the oscillation
        # of the support-edge truncation phase
        errs = {}
        for nx in (32, 64, 128, 256, 512):
            spec = make_domain(1, (0.0, 1.0), nx, tent1d, 0.2)
            st_ = discretize(rescale(tent1d, 0.2), spec)
            errs[nx] = abs(st_.raw_half_moment - 1.0)
            assert errs[nx] <= 0.5 / nx
            assert st_.half_moment == pytest.approx(1.0, abs=1e-14)
        assert errs[512] < errs[32]

    def test_scaling_law_bit_exact(self, tent1d):
        rk1 = rescale(tent1d, 0.25)
        rk2 = rescale(tent1d, 0.5)
        spec1 = make_domain(1, (0.0, 1.0), 64, tent1d, 0.25)
        spec2 = make_domain(1, (0.0, 2.0), 64, tent1d, 0.5)
        st1 = discretize(rk1, spec1)
        st2 = discretize(rk2, spec2)
        assert np.array_equal(st1.offsets, st2.offsets)
        assert np.array_equal(st2.weights * 4.0, st1.weights)

    def test_resolution_guard(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 64, tent1d, 0.2)
        with pytest.raises(ValueError, match="under-resolved"):
            discretize(rescale(tent1d, 0.02), spec)

    def test_padding_guard(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 64, tent1d, 0.1)
        with pytest.raises(ValueError, match="padding"):
            discretize(rescale(tent1d, 0.3), spec)

    def test_2d_offsets_inside_disc(self, tent2d):
        spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), 32, tent2d, 0.125)
        st_ = discretize(rescale(tent2d, 0.125), spec)
        radii = np.hypot(*st_.offsets.T) * spec.dx
        assert np.all(radii < 0.125)
        assert st_.half_moment == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("name", ["tent", "quartic", "cosine"])
    @pytest.mark.parametrize("nx,eps", [(32, 0.125), (40, 0.125), (64, 0.2), (48, 0.3)])
    def test_2d_lattice_symmetric_bit_exact(self, name, nx, eps):
        kern = get_kernel(name, 2)
        spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), nx, kern, eps)
        st_ = discretize(rescale(kern, eps), spec)
        by_offset = {(int(a), int(b)): w for (a, b), w in zip(st_.offsets, st_.weights)}
        for (a, b), w in by_offset.items():
            for sa in (1, -1):
                for sb in (1, -1):
                    assert by_offset[(sa * a, sb * b)] == w
                    assert by_offset[(sb * b, sa * a)] == w
        # exactly the lattice points whose hypot distance is below the reach
        # eps/dx, less the 1e-12 rounding guard
        reach = eps / spec.dx
        n = int(np.ceil(reach))
        inside = {
            (a, b)
            for a in range(-n, n + 1)
            for b in range(-n, n + 1)
            if np.hypot(abs(a), abs(b)) < reach - 1e-12
        }
        assert set(by_offset) == inside
        assert len(st_.offsets) == len(inside)

    def test_csv_dump(self, tmp_path, stencil16):
        path = tmp_path / "stencil.csv"
        stencil_to_csv(stencil16, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dx_offset,weight"
        assert len(lines) == 1 + len(stencil16.offsets)


@given(eps=st.floats(0.05, 0.45), name=st.sampled_from(["tent", "quartic", "cosine"]))
@settings(max_examples=25, deadline=None)
def test_stencil_properties(eps, name):
    kern = get_kernel(name, 1)
    spec = make_domain(1, (0.0, 1.0), 64, kern, eps)
    st_ = discretize(rescale(kern, eps), spec)
    assert np.all(st_.weights >= 0)
    assert st_.weights[np.all(st_.offsets == 0, axis=1)][0] >= 0
    flipped = {tuple(-d): w for d, w in zip(st_.offsets, st_.weights)}
    for d, w in zip(st_.offsets, st_.weights):
        assert flipped[tuple(d)] == w
