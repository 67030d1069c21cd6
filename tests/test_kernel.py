import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlbiharm import (
    Stencil,
    discretize,
    get_kernel,
    make_domain,
)
from nlbiharm.kernel import kernel_is_nonincreasing

from oracles import kernel_mass, kernel_second_moment


class TestNormalizationConstant:
    def test_unsupported_dim_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            make_domain(3, (0.0, 1.0), 16, 0.25)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel("gaussian")


class TestRescale:
    def test_compact_support(self, tent1d):
        r = np.array([1.0, 1.2, 20.0])
        assert np.all(tent1d(r) == 0.0)

    def test_radial_symmetry_through_distance(self, tent1d, rng):
        x = rng.uniform(0, 1.3, size=50)
        assert np.array_equal(tent1d(x), tent1d(np.abs(-x)))

    def test_nonpositive_eps_rejected(self, tent1d, domain16):
        with pytest.raises(ValueError, match="eps"):
            discretize(tent1d, 0.0, domain16)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, tent1d, domain16, eps):
        with pytest.raises(ValueError, match="eps"):
            discretize(tent1d, eps, domain16)

    def test_monotonicity_check(self, tent1d):
        assert kernel_is_nonincreasing(tent1d)
        bad = get_kernel("tent")
        object.__setattr__(bad, "profile", lambda r: r)
        assert not kernel_is_nonincreasing(bad)


class TestDiscretize:
    def test_offset_count_tent(self, tent1d, domain16):
        # eps=0.25, dx=1/16: |d| <= 3 -> 7 offsets
        st_ = discretize(tent1d, 0.25, domain16)
        assert len(st_.offsets) == 7

    def test_offset_count_31(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 64, 0.25)
        st_ = discretize(tent1d, 0.25, spec)
        assert len(st_.offsets) == 31

    def test_weights_symmetric_bit_exact(self, tent1d, stencil64):
        by_offset = {int(d[0]): w for d, w in zip(stencil64.offsets, stencil64.weights)}
        for d, w in by_offset.items():
            assert by_offset[-d] == w

    def test_weight_sum_matches_kernel_integral(self):
        # the weight sum tracks int J_eps = C_J M0 / eps^2 with the paper's
        # C_J = 1 / ((1/2) int J |z|^2) and M0 = int J, both by adaptive
        # quadrature, at first order or better in dx; the constant absorbs
        # the oscillation of the support-edge truncation phase
        eps = 0.2
        for dim, nxs in ((1, (32, 64, 128, 256, 512)), (2, (16, 32, 64))):
            for name in ("tent", "quartic", "cosine"):
                kern = get_kernel(name)
                c_j = 1.0 / kernel_second_moment(kern.profile, dim)
                integral = c_j * kernel_mass(kern.profile, dim) / eps**2
                errs = {}
                for nx in nxs:
                    spec = make_domain(dim, [(0.0, 1.0)] * dim, nx, eps)
                    st_ = discretize(kern, eps, spec)
                    errs[nx] = abs(st_.diag / integral - 1.0)
                    assert errs[nx] <= 0.5 / nx, (name, dim, nx)
                    assert st_.half_moment == pytest.approx(1.0, abs=1e-14)
                assert errs[nxs[-1]] < errs[nxs[0]], (name, dim)

    def test_scaling_law_bit_exact(self, tent1d):
        spec1 = make_domain(1, (0.0, 1.0), 64, 0.25)
        spec2 = make_domain(1, (0.0, 2.0), 64, 0.5)
        st1 = discretize(tent1d, 0.25, spec1)
        st2 = discretize(tent1d, 0.5, spec2)
        assert np.array_equal(st1.offsets, st2.offsets)
        assert np.array_equal(st2.weights * 4.0, st1.weights)

    def test_resolution_guard(self, tent1d):
        spec = make_domain(1, (0.0, 1.0), 64, 0.2)
        with pytest.raises(ValueError, match="under-resolved"):
            discretize(tent1d, 0.02, spec)

    def test_padding_guard(self, tent1d):
        # a collar of 7 cells, a reach of 19
        spec = make_domain(1, (0.0, 1.0), 64, 0.1)
        with pytest.raises(ValueError, match="collar"):
            discretize(tent1d, 0.3, spec)

    def test_2d_offsets_inside_disc(self, tent2d):
        spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), 32, 0.125)
        st_ = discretize(tent2d, 0.125, spec)
        radii = np.hypot(*st_.offsets.T) * spec.dx
        assert np.all(radii < 0.125)
        assert st_.half_moment == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("name", ["tent", "quartic", "cosine"])
    @pytest.mark.parametrize("nx,eps", [(32, 0.125), (40, 0.125), (64, 0.2), (48, 0.3)])
    def test_2d_lattice_symmetric_bit_exact(self, name, nx, eps):
        kern = get_kernel(name)
        spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), nx, eps)
        st_ = discretize(kern, eps, spec)
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


class TestStencilPairs:
    """The operator's loop handles each offset d together with -d, so a
    stencil must hold both, with one weight."""

    @pytest.mark.parametrize("offsets", [
        [[-1], [1], [2]],
        [[0, 1], [0, -1], [1, 1]],
    ], ids=["1d", "2d"])
    def test_offsets_not_closed_under_negation_rejected(self, offsets):
        offsets = np.array(offsets, dtype=np.int64)
        with pytest.raises(ValueError, match="negation"):
            Stencil(offsets=offsets, weights=np.ones(len(offsets)), dx=0.1)

    @pytest.mark.parametrize("offsets", [
        [[-2], [-1], [0], [1], [2]],
        [[-1, 0], [0, -1], [0, 0], [0, 1], [1, 0]],
    ], ids=["1d", "2d"])
    def test_pair_weights_that_differ_rejected(self, offsets):
        offsets = np.array(offsets, dtype=np.int64)
        paired = np.ones(len(offsets))
        unpaired = paired.copy()
        unpaired[-1] += 2.0**-40
        Stencil(offsets=offsets, weights=paired, dx=0.1)
        with pytest.raises(ValueError, match="differ"):
            Stencil(offsets=offsets, weights=unpaired, dx=0.1)


@given(eps=st.floats(0.05, 0.45), name=st.sampled_from(["tent", "quartic", "cosine"]))
@settings(max_examples=25, deadline=None)
def test_stencil_properties(eps, name):
    kern = get_kernel(name)
    spec = make_domain(1, (0.0, 1.0), 64, eps)
    st_ = discretize(kern, eps, spec)
    assert np.all(st_.weights >= 0)
    assert st_.weights[np.all(st_.offsets == 0, axis=1)][0] >= 0
    flipped = {tuple(-d): w for d, w in zip(st_.offsets, st_.weights)}
    for d, w in zip(st_.offsets, st_.weights):
        assert flipped[tuple(d)] == w
