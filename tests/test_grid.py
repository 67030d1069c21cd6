from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlbiharm import discretize, get_kernel, make_domain, parse_config
from nlbiharm.cli import _grid
from nlbiharm.grid import lp_norm, lq_sum_norm, write_csv, zero_extend

from oracles import interior_mask

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
        assert np.all(f.values[spec.interior_slices] == 1.0)
        assert not np.any(f.values[~interior_mask(spec)])

    def test_empty_rejected(self, domain64):
        with pytest.raises(ValueError, match="entries"):
            zero_extend(np.ones(3), domain64)

    def test_extension_preserves_norms(self, domain64, rng):
        u = rng.standard_normal(64)
        f = zero_extend(u, domain64)
        for q in (1.0, 1.5, 2.0, 3.0):
            assert lp_norm(f, q) == pytest.approx(
                lq_sum_norm(u, q, domain64.cell_volume), rel=1e-14
            )


class TestNorms:
    def test_constant_on_unit_box(self, domain64):
        assert lq_sum_norm(np.ones(64), 2, domain64.cell_volume) == pytest.approx(1.0, abs=1e-12)

    def test_linear_profile_against_analytic_integral(self):
        spec = make_domain(1, (0.0, 1.0), 64, 0.2)
        x = spec.axis_coords(0)[spec.interior_slices[0]]
        # int_0^1 x^2 dx = 1/3
        assert lq_sum_norm(x, 2, spec.cell_volume) == pytest.approx(1 / np.sqrt(3), abs=1e-3)

    def test_zero_field(self, domain64):
        f = zero_extend(np.zeros(64), domain64)
        assert lp_norm(f, 2) == 0.0

    def test_huge_q_tends_to_the_max_norm(self, domain64, rng):
        # sum |v|^q over- and underflows at q = 1e300: the norm rescales by
        # max|v|, and the L^q norm of a unit box tends to the max norm
        v = rng.standard_normal(64)
        assert abs(lq_sum_norm(v, 1e300, domain64.cell_volume) - np.abs(v).max()) <= 1e-12

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
        assert spec.cell_volume * np.dot(np.ones(64), x) == pytest.approx(0.5, abs=1e-3)


interior_arrays = hnp.arrays(
    dtype=np.float64, shape=64, elements=st.floats(-50, 50, allow_nan=False)
)


@given(u=interior_arrays)
@settings(max_examples=50, deadline=None)
def test_norm_consistency_property(u):
    spec = make_domain(1, (0.0, 1.0), 64, 0.2)
    f = zero_extend(u, spec)
    ip = spec.cell_volume * np.dot(f.values, f.values)
    nrm = lp_norm(f, 2)
    assert ip == pytest.approx(nrm**2, rel=1e-12, abs=1e-300)


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
