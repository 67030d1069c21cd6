from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlbiharm import (
    Field,
    discretize,
    get_kernel,
    inner_product,
    lp_norm,
    make_domain,
    parse_config,
    zero_extend,
)
from nlbiharm.cli import _grid
from nlbiharm.grid import write_csv

ROOT = Path(__file__).resolve().parents[1]


def shipped_grids(dim):
    """(grid, scales) of every unit-box grid of dimension ``dim`` that a
    shipped config runs on, padded for the largest of its scales; the
    denoise pixel grid is left out."""
    grids = []
    for path in sorted((ROOT / "scripts" / "configs").glob("*.cfg")) + [
            ROOT / "perfbench" / "configs" / "evolve_2d.cfg"]:
        cfg = parse_config(path)
        if cfg.command != "denoise" and cfg.dim == dim:
            scales = cfg.epsilon_list or [cfg.epsilon]
            sizes = (cfg.nx, 2 * cfg.nx) if cfg.command == "poincare" else (cfg.nx,)
            grids += [(_grid(cfg, max(scales), nx), scales) for nx in sizes]
    assert grids
    return grids


def pad_is_reach_plus_one(dim):
    for spec, scales in shipped_grids(dim):
        reach = discretize(get_kernel("tent"), max(scales), spec).reach
        assert spec.pad_cells == reach + 1, (spec.nx, scales)


class TestMakeDomain:
    def test_pad_arithmetic_1d(self):
        spec = make_domain(1, (0.0, 1.0), 64, 0.1)
        assert spec.dx == 1.0 / 64
        assert spec.pad_cells == 7
        assert spec.padded_shape == (78,)
        # converge_p3's grid: 256 cells padded for eps = 0.4
        assert make_domain(1, (0.0, 1.0), 256, 0.4).padded_shape == (462,)
        pad_is_reach_plus_one(1)

    def test_pad_arithmetic_2d(self):
        spec = make_domain(2, ((0.0, 1.0), (0.0, 1.0)), 32, 0.125)
        assert spec.padded_shape == (40, 40)
        assert spec.cell_volume == pytest.approx((1.0 / 32) ** 2)
        # evolve_2d's grid
        assert make_domain(2, [(0.0, 1.0)] * 2, 64, 0.2).padded_shape == (90, 90)
        pad_is_reach_plus_one(2)

    def test_under_resolved_kernel_rejected(self):
        with pytest.raises(ValueError, match="under-resolved"):
            make_domain(1, (0.0, 1.0), 64, 0.01)

    def test_small_nx_rejected(self):
        with pytest.raises(ValueError, match="nx"):
            make_domain(1, (0.0, 1.0), 3, 0.5)

    def test_containment_invariant(self):
        # one grid holds every scale of its config: the collar, one support
        # of the largest scale, exceeds the reach of every scale's stencil
        for dim in (1, 2):
            for spec, scales in shipped_grids(dim):
                for eps in scales:
                    reach = discretize(get_kernel("tent"), eps, spec).reach
                    assert reach < spec.pad_cells, (spec.nx, eps)

    def test_cell_centered_nodes(self, domain64):
        x = domain64.axis_coords(0)
        inside = x[domain64.interior_slices[0]]
        assert inside[0] == pytest.approx(0.5 * domain64.dx)
        assert inside[-1] == pytest.approx(1.0 - 0.5 * domain64.dx)


class TestZeroExtend:
    def test_ones_flanked_by_zeros(self):
        spec = make_domain(1, (0.0, 1.0), 4, 0.5)
        f = zero_extend(np.ones(4), spec)
        assert np.all(f.interior_values == 1.0)
        assert f.exterior_max_abs() == 0.0

    def test_empty_rejected(self, domain64):
        with pytest.raises(ValueError, match="entries"):
            zero_extend(np.ones(3), domain64)

    def test_extension_preserves_norms(self, domain64, rng):
        u = rng.standard_normal(64)
        f = zero_extend(u, domain64)
        for q in (1.0, 1.5, 2.0, 3.0):
            assert lp_norm(f, q, "omega_e") == pytest.approx(
                lp_norm(f, q, "omega"), rel=1e-14
            )

    def test_nonfinite_rejected(self, domain64):
        with pytest.raises(ValueError, match="finite"):
            zero_extend(np.full(64, np.nan), domain64)


class TestNorms:
    def test_constant_on_unit_box(self, domain64):
        f = zero_extend(np.ones(64), domain64)
        assert lp_norm(f, 2, "omega") == pytest.approx(1.0, abs=1e-12)

    def test_linear_profile_against_analytic_integral(self):
        spec = make_domain(1, (0.0, 1.0), 64, 0.2)
        x = spec.axis_coords(0)[spec.interior_slices[0]]
        f = zero_extend(x, spec)
        # int_0^1 x^2 dx = 1/3
        assert lp_norm(f, 2, "omega") == pytest.approx(1 / np.sqrt(3), abs=1e-3)

    def test_zero_field(self, domain64):
        f = zero_extend(np.zeros(64), domain64)
        assert lp_norm(f, 2) == 0.0

    def test_huge_q_tends_to_the_max_norm(self, domain64, rng):
        # sum |v|^q over- and underflows at q = 1e300: the norm rescales by
        # max|v|, and the L^q norm of a unit box tends to the max norm
        v = rng.standard_normal(64)
        f = zero_extend(v, domain64)
        assert abs(lp_norm(f, 1e300, "omega") - np.abs(v).max()) <= 1e-12

    def test_q_below_one_rejected(self, domain64):
        f = zero_extend(np.zeros(64), domain64)
        with pytest.raises(ValueError, match="q"):
            lp_norm(f, 0.5)

    @pytest.mark.parametrize("q", [np.inf, np.nan])
    def test_q_not_finite_rejected(self, domain64, q):
        f = zero_extend(np.full(64, 3.0), domain64)
        with pytest.raises(ValueError, match="q"):
            lp_norm(f, q)

    def test_inner_product_of_one_and_x(self):
        spec = make_domain(1, (0.0, 1.0), 64, 0.2)
        x = spec.axis_coords(0)[spec.interior_slices[0]]
        f = zero_extend(np.ones(64), spec)
        g = zero_extend(x, spec)
        assert inner_product(f, g, "omega") == pytest.approx(0.5, abs=1e-3)

    def test_inner_product_symmetric_bit_exact(self, domain64, rng):
        f = zero_extend(rng.standard_normal(64), domain64)
        g = zero_extend(rng.standard_normal(64), domain64)
        assert inner_product(f, g) == inner_product(g, f)

    def test_spec_mismatch_rejected(self):
        a = make_domain(1, (0.0, 1.0), 64, 0.2)
        b = make_domain(1, (0.0, 1.0), 64, 0.25)
        with pytest.raises(ValueError, match="spec"):
            inner_product(zero_extend(np.ones(64), a), zero_extend(np.ones(64), b))


interior_arrays = hnp.arrays(
    dtype=np.float64, shape=64, elements=st.floats(-50, 50, allow_nan=False)
)


@given(u=interior_arrays)
@settings(max_examples=50, deadline=None)
def test_norm_consistency_property(u):
    spec = make_domain(1, (0.0, 1.0), 64, 0.2)
    f = zero_extend(u, spec)
    ip = inner_product(f, f, "omega_e")
    nrm = lp_norm(f, 2, "omega_e")
    assert ip == pytest.approx(nrm**2, rel=1e-12, abs=1e-300)


@given(u=interior_arrays, q=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
@settings(max_examples=50, deadline=None)
def test_region_additivity_property(u, q):
    spec = make_domain(1, (0.0, 1.0), 64, 0.2)
    f = Field(spec, np.roll(zero_extend(u, spec).values, 3))  # exterior nonzero
    whole = lp_norm(f, q, "omega_e") ** q
    parts = lp_norm(f, q, "omega") ** q + lp_norm(f, q, "exterior") ** q
    assert whole == pytest.approx(parts, rel=1e-12, abs=1e-300)


@given(u=interior_arrays)
@settings(max_examples=30, deadline=None)
def test_zero_extension_exactness_property(u):
    spec = make_domain(1, (0.0, 1.0), 64, 0.2)
    assert zero_extend(u, spec).exterior_max_abs() == 0.0


class TestWriteCsv:
    def test_floats_take_17_digits_and_the_rest_str(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b", "c", "d"),
                  [(1, 1 / 3, "x", np.float64(0.1)), (np.int64(-2), float("nan"), True, 1e-300)])
        assert path.read_bytes() == (
            b"a,b,c,d\n1,0.33333333333333331,x,0.10000000000000001\n"
            b"-2,nan,True,1e-300\n"
        )

    @pytest.mark.parametrize("rows", [
        [(float("inf"), float("-inf"), -0.0), (np.float64("inf"), np.float64(-0.0), 0.0)],
        [(np.float32(0.1), 10**20, np.float32(-0.0)), (np.float32(1e30), -(10**20), 2**70)],
        [("5%", "%s", "%.17g %d"), ("100%%", "%", "")],
        [(1.0, 2, "a"), (1, 2.5, "b"), (np.int64(3), np.float64(1e-7), "c")],
    ], ids=["infinities_and_signed_zeros", "float32_and_big_ints", "percent_strings",
            "column_float_then_int"])
    def test_rows_match_the_per_cell_rule(self, tmp_path, rows):
        # each line is what rendering cell by cell gives: floats (np.float64
        # included, np.float32 not) to 17 significant digits, the rest str
        def per_cell(v):
            return format(float(v), ".17g") if isinstance(v, float) else str(v)

        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b", "c"), rows)
        expected = "a,b,c\n" + "".join(",".join(map(per_cell, row)) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode()
