from dataclasses import replace

import numpy as np
import pytest

from nlbiharm import StepperConfig, default_bump, evolve, local_evolve, make_domain
from nlbiharm.grid import zero_extend
from nlbiharm.localref import LocalOperator, local_stencil
from oracles import restricted_matrix, weak_residual


def local_domain(nx=64, eps=0.2):
    return make_domain(1, (0.0, 1.0), nx, eps)


class TestLocalLaplacian:
    def test_constant_interior(self):
        spec = local_domain(nx=16)
        u = zero_extend(np.ones(16), spec)
        out = LocalOperator(spec).apply(u.values)[spec.interior_slices]
        inv_dx2 = 1.0 / spec.dx**2
        assert out[0] == pytest.approx(-inv_dx2, rel=1e-13)
        assert out[-1] == pytest.approx(-inv_dx2, rel=1e-13)
        assert np.all(out[1:-1] == 0.0)

    def test_sine_against_analytic(self):
        spec = local_domain(nx=128)
        x = spec.axis_coords(0)[spec.interior_slices[0]]
        u = zero_extend(np.sin(np.pi * x), spec)
        out = LocalOperator(spec).apply(u.values)[spec.interior_slices]
        target = -np.pi**2 * np.sin(np.pi * x)
        err = np.abs(out - target)[2:-2].max()
        assert err <= 5e-3

    def test_symmetry(self, rng):
        spec = local_domain(nx=32)
        op = LocalOperator(spec)
        f = zero_extend(rng.standard_normal(32), spec).values
        g = zero_extend(rng.standard_normal(32), spec).values
        lhs = spec.cell_volume * np.dot(op.apply(f), g)
        rhs = spec.cell_volume * np.dot(f, op.apply(g))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_negative_semidefinite(self, rng):
        spec = local_domain(nx=32)
        f = zero_extend(rng.standard_normal(32), spec).values
        assert spec.cell_volume * np.dot(LocalOperator(spec).apply(f), f) <= 1e-12

    def test_offsets_are_signed_unit_vectors(self):
        # apply sums the offsets in this order, so it fixes the rounding
        spec1 = local_domain(nx=16)
        spec2 = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), 16, 0.25)
        for build in (lambda spec: LocalOperator(spec).stencil, local_stencil):
            assert np.array_equal(build(spec1).offsets, [[-1], [1]])
            offsets = build(spec2).offsets
            assert offsets.dtype == np.int64
            assert np.array_equal(offsets, [[-1, 0], [1, 0], [0, -1], [0, 1]])
        for spec in (spec1, spec2):
            st = local_stencil(spec)
            assert st.half_moment == pytest.approx(spec.dim, rel=1e-15)
            assert st.diag == pytest.approx(2 * spec.dim / spec.dx**2, rel=1e-15)

    def test_needs_a_collar(self):
        spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), 8, 0.5)
        assert LocalOperator(replace(spec, pad_cells=1)).reach == 1
        with pytest.raises(ValueError, match="collar"):
            LocalOperator(replace(spec, pad_cells=0))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_cell_collar_matches_the_padded_grid(self, dim):
        # the operator reaches one cell, so the evaluations on a one-cell
        # collar equal those on make_domain's wider one bit for bit
        spec = make_domain(dim, [(0.0, 1.0)] * dim, 16, 0.25)
        cut = replace(spec, pad_cells=1)
        T = 5e-3
        traj = local_evolve(default_bump(spec), spec, StepperConfig(p=3.0, h=1e-3, T=T))
        near = tuple(slice(spec.pad_cells - 1, spec.pad_cells + n + 1) for n in spec.nx)
        for u in traj.interior:
            wide = LocalOperator(spec).apply(zero_extend(u, spec).values)
            assert np.count_nonzero(wide) == np.count_nonzero(wide[near])
            assert np.array_equal(wide[near], LocalOperator(cut).apply(zero_extend(u, cut).values))

        def phi(*args):
            *xs, t = args
            return np.prod([np.sin(np.pi * x) for x in xs], axis=0) * t * (T - t)
        wide_r = weak_residual(traj, phi)
        assert wide_r != 0.0
        assert weak_residual(replace(traj, spec=cut), phi) == wide_r

    def test_clamped_form_eigenvalue(self):
        # the padded-domain energy realizes the clamped beam: its smallest
        # eigenvalue approaches 4.7300407**4, not the hinged pi**4; the
        # wall-flux penalty converges slowly, so the proximity band is wide
        spec = local_domain(nx=256)
        op = LocalOperator(spec)
        mat = restricted_matrix(op)
        b = mat.T @ mat
        lam = np.linalg.eigvalsh(b)[0]
        assert abs(lam - 4.7300407**4) / 4.7300407**4 < 0.05
        assert lam > 2 * np.pi**4

    def test_restricted_matrix_matches_apply(self, rng):
        spec = local_domain(nx=32)
        op = LocalOperator(spec)
        x = rng.standard_normal(32)
        via_matrix = (restricted_matrix(op) @ x).reshape(spec.padded_shape)
        via_apply = op.apply(zero_extend(x, spec).values)
        assert np.max(np.abs(via_matrix - via_apply)) <= 1e-12


class TestLocalEvolve:
    def test_zero_trajectory(self):
        spec = local_domain(nx=16)
        traj = local_evolve(np.zeros(16), spec, StepperConfig(p=2, h=0.01, T=0.05))
        assert np.all(traj.l2_sq == 0.0)

    @pytest.mark.parametrize("u0,match", [
        (np.zeros(17), "shape"),
        (np.where(np.arange(16) == 3, np.nan, 0.0), "finite"),
    ], ids=["shape", "nan"])
    def test_rejects_a_bad_initial_state(self, u0, match):
        with pytest.raises(ValueError, match=match):
            local_evolve(u0, local_domain(nx=16), StepperConfig(p=2, h=0.01, T=0.05))

    def test_p2_dense_oracle_trajectory(self, rng):
        spec = local_domain(nx=16, eps=0.25)
        op = LocalOperator(spec)
        mat = restricted_matrix(op)  # padded x interior
        b = mat.T @ mat
        h = 1e-6
        m = 20
        u = rng.standard_normal(16)
        solve = np.linalg.inv(np.eye(16) + h * b)
        refs = [u.copy()]
        for _ in range(m):
            u = solve @ u
            refs.append(u.copy())
        traj = local_evolve(
            refs[0], spec,
            StepperConfig(p=2, h=h, T=m * h),
        )
        worst = max(
            np.sqrt(spec.cell_volume * np.sum((s - r) ** 2))
            for s, r in zip(traj.interior, refs)
        )
        assert worst <= 1e-6

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_energies_nonincreasing(self, rng, p):
        spec = local_domain(nx=32)
        u0 = rng.standard_normal(32)
        traj = local_evolve(u0, spec, StepperConfig(p=p, h=1e-5, T=2e-4, inner_max_iters=200))
        assert np.all(np.diff(traj.energies) <= 1e-6 * traj.energies[0])

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_stencil_path_matches_whole_grid_operator(self, dim, p):
        # the stencil steps on interior +- 1; the operator keeps the whole
        # padded grid, whose extra collar holds only zeros
        if dim == 1:  # converge_p3's grid, padded for eps = 0.4
            spec = make_domain(1, (0.0, 1.0), 256, 0.4)
        else:
            spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), 16, 0.25)
        u0 = default_bump(spec)
        c = StepperConfig(p=p, h=1e-4, T=5e-4)
        step = local_evolve(u0, spec, c)
        full = evolve(u0, spec, LocalOperator(spec), c)
        assert step.inner_tol == full.inner_tol
        assert np.array_equal(step.residuals, full.residuals)
        assert np.array_equal(step.inner_iters, full.inner_iters)
        assert np.array_equal(step.applies, full.applies)
        assert step.spec == full.spec == spec
        assert np.array_equal(step.interior, full.interior)


class TestWeakResidual:
    @staticmethod
    def phi(x, t):
        # sin^2 vanishes with its normal derivative at the wall, as the
        # clamped weak form asks of a test function
        return np.sin(np.pi * x) ** 2 * t * (0.01 - t)

    def test_zero_trajectory(self):
        spec = local_domain(nx=16)
        traj = local_evolve(
            np.zeros(16), spec,
            StepperConfig(p=2, h=1e-3, T=0.01),
        )
        assert weak_residual(traj, self.phi) == 0.0

    def test_zero_test_function_bit_exact(self, rng):
        spec = local_domain(nx=16)
        traj = local_evolve(
            rng.standard_normal(16), spec,
            StepperConfig(p=2, h=1e-3, T=0.01),
        )
        assert weak_residual(traj, lambda x, t: np.zeros_like(x)) == 0.0

    def test_shrinks_under_refinement(self):
        residuals = []
        for nx, h in ((32, 2e-4), (64, 1e-4)):
            spec = local_domain(nx=nx)
            x = spec.axis_coords(0)[spec.interior_slices[0]]
            u0 = np.sin(np.pi * x) ** 2
            traj = local_evolve(u0, spec, StepperConfig(p=2, h=h, T=0.01))
            residuals.append(abs(weak_residual(traj, self.phi)))
        assert residuals[1] < 0.6 * residuals[0]
