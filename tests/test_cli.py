import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from nlbiharm.cli import (
    ConfigError, ExperimentConfig, main, parse_config, read_pgm_pixels, write_pgm,
)

ROOT = Path(__file__).resolve().parents[1]
INT_KEYS = ("dim", "nx", "inner_max_iters", "seed")
FLOAT_KEYS = ("epsilon", "p", "T", "h", "fit_t_lo")
# P2 samples that Python's int() reads but that are not PGM decimal numbers
NOT_PGM_SAMPLES = {"minus": b"-7", "plus": b"+7", "underscore": b"1_0"}


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "command = evolve\np = 2\n"))
        assert cfg.command == "evolve"
        assert cfg.kernel == "tent"
        assert cfg.nx == 64
        assert cfg.seed == 0
        assert cfg.stepper_config().h == pytest.approx(cfg.T / 200)

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = parse_config(
            write_cfg(tmp_path, "# experiment\n\ncommand = decay  # tail fit\np = 3\n")
        )
        assert cfg.command == "decay"
        assert cfg.p == 3.0

    def test_p_at_one_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="p"):
            parse_config(write_cfg(tmp_path, "command = evolve\np = 1.0\n"))

    def test_unknown_key_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(write_cfg(tmp_path, "command = evolve\nfoo = 1\n"))

    def test_epsilon_list_decreasing_accepted(self, tmp_path):
        cfg = parse_config(
            write_cfg(tmp_path, "command = consistency\nepsilon_list = 0.4,0.2,0.1\n")
        )
        assert cfg.epsilon_list == [0.4, 0.2, 0.1]

    def test_epsilon_list_increasing_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="decreasing"):
            parse_config(
                write_cfg(tmp_path, "command = consistency\nepsilon_list = 0.1,0.2\n")
            )

    def test_bad_value_reports_key(self, tmp_path):
        with pytest.raises(ConfigError, match="nx"):
            parse_config(write_cfg(tmp_path, "command = evolve\nnx = many\n"))

    @pytest.mark.parametrize(
        "line,key",
        [("epsilon = 0.01", "epsilon"), ("box_lo = 1", "unknown key 'box_lo'"),
         ("p = nan", "p"), ("T = inf", "T"),
         ("inner_max_iters = 0", "inner_max_iters"),
         ("record_every = 0", "unknown key 'record_every'"),
         ("inner_tol = -1", "unknown key 'inner_tol'"), ("T = 0.001", "'T'"),
         ("seed = -1\nu0 = random", "seed"),
         ("command = decay\np = 1.5", "'p'"),
         ("command = decay\nfit_t_lo = 0.99", "'fit_t_lo'"),
         ("command = decay\nT = 0.1", "'T'"),
         ("command = decay\nfit_floor_ratio = 2", "unknown key 'fit_floor_ratio'"),
         ("command = decay\nfit_floor_ratio = 0", "unknown key 'fit_floor_ratio'"),
         ("command = denoise\nepsilon = 4\ninput = {tmp}/p6.pgm", "'input'"),
         ("command = denoise\nepsilon = 4\ninput = {tmp}/tiny.pgm", "'input'"),
         ("inner_tol = inf", "unknown key 'inner_tol'"),
         ("q = inf", "unknown key 'q'"), ("q = nan", "unknown key 'q'"),
         ("mode = explicit", "'mode'"),
         ("command = denoise\nepsilon = 4\ninput = {tmp}/minus.pgm", "'input'"),
         ("command = denoise\nepsilon = 4\ninput = {tmp}/plus.pgm", "'input'"),
         ("command = denoise\nepsilon = 4\ninput = {tmp}/underscore.pgm", "'input'"),
         ("u0 = zero", "'u0'"),
         ("command = decay\nu0 = zero", "'u0'"),
         ("command = converge\nepsilon_list = 0.4,0.2\nT = 0.02\nu0 = zero", "'u0'"),
         ("command = converge\nu0 = bump\nnx = 64\nepsilon_list = 0.2\np = 2\n"
          "T = 0.001\nh = 0.0001", "'epsilon_list'"),
         ("command = consistency\nnx = 64\nepsilon_list = 0.2", "'epsilon_list'"),
         ("T = 1e300\nh = 1e-300", "'T'"),
         ("command = decay\nT = 1e300\nh = 1e-300", "'T'"),
         ("dim = 3", "'dim'"),
         ("command = denoise\nepsilon = 4\ninput = {tmp}/tiny.pgm\ndim = 3", "'dim'"),
         ("nx = 64\nnx = 32", r"first on line 3 \(line 4, key 'nx'\)"),
         ("epsilon_list = 0.1,0.05", "'epsilon_list'"),
         ("command = decay\nepsilon_list = 0.1,0.05", "'epsilon_list'"),
         ("command = poincare\nepsilon_list = 0.1,0.05", "'epsilon_list'"),
         ("command = contraction\nepsilon_list = 0.1,0.05", "'epsilon_list'"),
         ("command = denoise\nepsilon_list = 0.1,0.05", "'epsilon_list'")],
        ids=["under_resolved_epsilon", "box_lo_unknown", "p_nan", "T_inf",
             "inner_max_iters_zero", "record_every_unknown", "inner_tol_unknown",
             "T_below_h", "seed_negative", "decay_p_below_two",
             "decay_window_few_steps", "decay_run_few_steps",
             "fit_floor_ratio_above_one", "fit_floor_ratio_zero",
             "denoise_p6_image", "denoise_image_below_4x4",
             "inner_tol_inf_unknown", "q_inf", "q_nan", "mode_explicit",
             "denoise_p2_negative_sample", "denoise_p2_signed_sample",
             "denoise_p2_underscore_sample", "evolve_zero_start", "decay_zero_start",
             "converge_zero_start",
             "converge_one_scale", "consistency_one_scale",
             "step_count_overflow", "decay_step_count_overflow",
             "dim_three", "denoise_dim_three", "nx_set_twice", "evolve_epsilon_list",
             "decay_epsilon_list", "poincare_epsilon_list",
             "contraction_epsilon_list", "denoise_epsilon_list"],
    )
    def test_bad_config_exits_config_error(self, tmp_path, capsys, line, key):
        # images for the denoise cases: a colour (P6) file, a 3x3 one and
        # 4x4 ASCII (P2) ones, each with one sample that is not PGM
        (tmp_path / "p6.pgm").write_bytes(b"P6\n4 4\n255\n" + bytes(48))
        (tmp_path / "tiny.pgm").write_bytes(b"P5\n3 3\n255\n" + bytes(9))
        for name, sample in NOT_PGM_SAMPLES.items():
            (tmp_path / f"{name}.pgm").write_bytes(
                b"P2\n4 4\n255\n" + sample + b" 10" * 15 + b"\n")
        # the base sets only the keys the case leaves unset: a key set
        # twice is itself a config error
        case = line.format(tmp=tmp_path)
        keys = {entry.split("=")[0].strip() for entry in case.splitlines()}
        base = {"command": "evolve", "nx": "16", "h": "0.01"}
        cfg_path = write_cfg(tmp_path, "".join(
            f"{k} = {v}\n" for k, v in base.items() if k not in keys) + case + "\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith("ERROR CONFIG")
        with pytest.raises(ConfigError, match=key):
            parse_config(cfg_path)

    @pytest.mark.parametrize(
        "text,line,key",
        [("command = converge\nepsilon_list = 0.4,0.2\nepsilon = 0.3", 3, "epsilon"),
         ("command = evolve\nphi = quadratic", 2, "phi"),
         ("command = evolve\nfit_t_lo = 0.5", 2, "fit_t_lo"),
         ("command = evolve\nu0 = bump\nseed = 3", 3, "seed"),
         ("command = decay\nseed = 3", 2, "seed"),
         ("command = converge\nepsilon_list = 0.4,0.2\nseed = -1", 3, "seed"),
         ("command = consistency\nepsilon_list = 0.4,0.2\np = 3\nu0 = random", 3, "p"),
         ("command = poincare\nT = 0.5", 2, "T"),
         ("command = contraction\nu0 = random", 2, "u0"),
         ("command = denoise\nepsilon = 4\ninput = {tmp}/img.pgm\nnx = 16", 4, "nx"),
         ("command = denoise\ndim = 2\nepsilon = 4\ninput = {tmp}/img.pgm", 2, "dim"),
         ("command = evolve\ninput = {tmp}/img.pgm", 2, "input")],
        ids=["converge_epsilon", "evolve_phi", "evolve_fit_t_lo",
             "evolve_bump_seed", "decay_bump_seed",
             "converge_negative_seed",
             "consistency_p", "poincare_T", "contraction_u0", "denoise_nx",
             "denoise_dim", "evolve_input"],
    )
    def test_unread_key_exits_config_error(self, tmp_path, capsys, text, line, key):
        # a key the command never reads is a config error naming its line
        (tmp_path / "img.pgm").write_bytes(b"P5\n8 8\n255\n" + bytes(64))
        cfg_path = write_cfg(tmp_path, text.format(tmp=tmp_path) + "\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith("ERROR CONFIG")
        with pytest.raises(ConfigError, match=f"does not read this key "
                           rf"\(line {line}, key '{key}'\)"):
            parse_config(cfg_path)

    @pytest.mark.parametrize(
        "text",
        ["command = evolve\nu0 = random\nseed = 3",
         "command = converge\nepsilon_list = 0.4,0.2\nu0 = random\nseed = 3",
         "command = contraction\nseed = 3"],
        ids=["evolve_random", "converge_random", "contraction"],
    )
    def test_seed_read_where_a_state_is_drawn(self, tmp_path, text):
        assert parse_config(write_cfg(tmp_path, text + "\n")).seed == 3

    @pytest.mark.parametrize(
        "path",
        sorted((ROOT / "scripts" / "configs").glob("*.cfg"))
        + [ROOT / "perfbench" / "configs" / "evolve_2d.cfg"],
        ids=lambda path: path.stem,
    )
    def test_shipped_config_parses_with_field_types(self, path):
        cfg = parse_config(path)
        for key in INT_KEYS:
            assert type(getattr(cfg, key)) is int, key
        for key in FLOAT_KEYS:
            assert getattr(cfg, key) is None or type(getattr(cfg, key)) is float, key
        assert type(cfg.epsilon_list) is list
        assert all(type(e) is float for e in cfg.epsilon_list)

    def test_unknown_command(self, tmp_path):
        with pytest.raises(ConfigError, match="command"):
            parse_config(write_cfg(tmp_path, "command = solve\n"))

    def test_readme_config_table_names_every_field(self):
        # the first column of the README's "Config keys" table, backticked
        # keys only, is the config schema
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        table = text.split("## Config keys", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
        documented = [key for cell in rows for key in re.findall(r"`(\w+)`", cell)]
        assert sorted(documented) == sorted(f.name for f in fields(ExperimentConfig))


class TestRun:
    def test_evolve_command_exits_zero(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path, "command = evolve\nnx = 16\nepsilon = 0.25\nT = 0.05\nh = 0.01\n",
        )
        out = tmp_path / "out"
        out.mkdir()
        code = main(["--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 7
        l2_sq = [float(row.split(",")[2]) for row in lines[1:]]
        assert all(b < a for a, b in zip(l2_sq, l2_sq[1:]))
        assert (out / "manifest.csv").exists()
        assert "PASS" in capsys.readouterr().out

    def test_missing_output_directory(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, "command = evolve\n")
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "nope")])
        assert code != 0
        assert "ERROR IO" in capsys.readouterr().out

    def test_manifest_records_config_hash(self, tmp_path):
        import hashlib

        cfg_path = write_cfg(
            tmp_path, "command = evolve\nnx = 16\nepsilon = 0.25\nT = 0.05\nh = 0.01\n",
        )
        out = tmp_path / "out"
        out.mkdir()
        assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
        digest = hashlib.sha256(cfg_path.read_bytes()).hexdigest()
        body = (out / "manifest.csv").read_text().splitlines()
        assert body[0] == "config_sha256,version,command"
        assert body[1].split(",")[0] == digest

    def test_solver_error_is_machine_readable(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path,
            "command = evolve\nu0 = random\nnx = 16\nepsilon = 0.25\np = 3\n"
            "T = 0.01\nh = 0.001\ninner_max_iters = 1\n",
        )
        out = tmp_path / "out"
        out.mkdir()
        code = main(["--config", str(cfg_path), "--out", str(out)])
        assert code == 3
        assert "ERROR SOLVER" in capsys.readouterr().out

    def test_narrow_stencil_p3_run_certifies(self, tmp_path, capsys):
        # eps = 3 dx at nx = 256 conditions like the local bi-Laplacian;
        # plain Newton-CG stagnated in step 1 ("ERROR SOLVER", exit 3), and
        # the lagged factor its modelled cost takes certifies every step
        cfg_path = write_cfg(
            tmp_path,
            "command = evolve\nnx = 256\nepsilon = 0.01171875\np = 3\n"
            "T = 0.001\nh = 0.0001\n",
        )
        out = tmp_path / "out"
        out.mkdir()
        assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
        assert "PASS energy_audit.all_inequalities" in capsys.readouterr().out
        rows = (out / "trajectory.csv").read_text().splitlines()[2:]
        assert len(rows) == 10 and all(int(row.split(",")[5]) > 0 for row in rows)

    def test_determinism_same_seed_same_bytes(self, tmp_path):
        text = (
            "command = evolve\nu0 = random\nseed = 7\nnx = 16\nepsilon = 0.25\n"
            "T = 0.02\nh = 0.002\n"
        )
        blobs = []
        for tag in ("a", "b"):
            cfg_path = write_cfg(tmp_path, text, name=f"{tag}.cfg")
            out = tmp_path / tag
            out.mkdir()
            assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
            blobs.append((out / "trajectory.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_evolve_2d_matches_golden(self, tmp_path):
        # the benchmark's 2D run against its reference, copied to
        # tests/golden/, on the columns and at the tolerance the benchmark
        # checks; inner_iters and residual describe the solver's path, not
        # the solution
        cfg_path = ROOT / "perfbench" / "configs" / "evolve_2d.cfg"
        assert main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        got = (tmp_path / "trajectory.csv").read_text().splitlines()
        want = (ROOT / "tests" / "golden" / "evolve_2d_trajectory.csv").read_text().splitlines()
        assert got[0] == want[0]
        assert len(got) == len(want)
        columns = want[0].split(",")
        for row, ref in zip(got[1:], want[1:]):
            for name, a, e in zip(columns, row.split(","), ref.split(",")):
                if name in ("step", "time", "operator"):
                    assert a == e, name
                elif name in ("l2_sq", "energy", "increment_sq"):
                    assert abs(float(a) - float(e)) <= max(1e-9 * abs(float(e)), 1e-12), name

    def test_consistency_command(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path,
            "command = consistency\nnx = 128\nepsilon_list = 0.2,0.1\n",
        )
        out = tmp_path / "out"
        out.mkdir()
        assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "study.csv").read_text().splitlines()
        assert lines[0] == "epsilon,error,pair_order"
        assert "PASS consistency.order_at_least_linear" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "dim,nx,code,line",
        [(1, 64, 0, "PASS"), (2, 32, 1, "FAIL")],
        ids=["1d_rounding_floor", "2d_half_strength"],
    )
    def test_consistency_quadratic(self, tmp_path, capsys, dim, nx, code, line):
        # In 1D both errors (about 3.0e-13) sit at the rounding floor of the
        # operator and the fd4 target, so their fitted order is noise.  In
        # 2D the operator has half the strength of the Laplacian (ROADMAP
        # item 1): an error of 2.0 at every eps, which must fail.
        cfg_path = write_cfg(
            tmp_path,
            f"command = consistency\ndim = {dim}\nnx = {nx}\nphi = quadratic\n"
            "epsilon_list = 0.2,0.1\n",
        )
        out = tmp_path / "out"
        out.mkdir()
        assert main(["--config", str(cfg_path), "--out", str(out)]) == code
        assert f"{line} consistency.order_at_least_linear" in capsys.readouterr().out


class TestPgm:
    def test_p5_round_trip(self, tmp_path, rng):
        pixels = rng.integers(0, 256, size=(7, 5)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        with open(path, "wb") as fh:
            fh.write(b"P5\n7 5\n255\n")
            fh.write(pixels.T.tobytes())
        out_path = tmp_path / "out.pgm"
        write_pgm(read_pgm_pixels(path)[0], out_path, maxval=255)
        again, maxval = read_pgm_pixels(out_path)
        assert maxval == 255
        assert np.array_equal(np.rint(again * 255).astype(np.uint8), pixels)

    def test_p2_parsing_with_comments(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n# a comment\n4 4\n255\n" + " ".join(["128"] * 16) + "\n")
        pixels, maxval = read_pgm_pixels(path)
        assert pixels.shape == (4, 4)
        assert np.all(pixels == 128 / 255)

    def test_wide_maxval_binary(self, tmp_path, rng):
        samples = rng.integers(0, 65536, size=(4, 3)).astype(">u2")
        path = tmp_path / "wide.pgm"
        with open(path, "wb") as fh:
            fh.write(b"P5\n4 3\n65535\n")
            fh.write(samples.T.tobytes())
        pixels, maxval = read_pgm_pixels(path)
        assert maxval == 65535
        assert pixels.shape == (4, 3)
        write_pgm(pixels, tmp_path / "wide_out.pgm", maxval=65535)
        again, _ = read_pgm_pixels(tmp_path / "wide_out.pgm")
        assert np.array_equal(
            np.rint(again * 65535).astype(np.uint16),
            samples.astype(np.uint16).T.T,
        )

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        with open(path, "wb") as fh:
            fh.write(b"P5\n4 4\n255\n")
            fh.write(bytes(7))
        with pytest.raises(ValueError, match="truncated"):
            read_pgm_pixels(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ValueError, match="magic"):
            read_pgm_pixels(path)

    @pytest.mark.parametrize("sample", sorted(NOT_PGM_SAMPLES.values()))
    def test_non_decimal_sample_rejected(self, tmp_path, sample):
        # int() would read these as -7, 7 and 10
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n" + sample + b" 10 20 30\n")
        with pytest.raises(ValueError, match="not a decimal number"):
            read_pgm_pixels(path)

    def test_non_decimal_header_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n+2 2\n255\n1 2 3 4\n")
        with pytest.raises(ValueError, match="header"):
            read_pgm_pixels(path)

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n1 2 3 256\n")
        with pytest.raises(ValueError, match="maxval"):
            read_pgm_pixels(path)

    def test_maxval_out_of_range(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P2\n2 2\n70000\n1 2 3 4\n")
        with pytest.raises(ValueError, match="maxval"):
            read_pgm_pixels(path)

    def test_clamping_on_write(self, tmp_path):
        pixels = np.array([[1.5, -0.2], [0.5, 1.0]])
        write_pgm(pixels, tmp_path / "c.pgm")
        again, _ = read_pgm_pixels(tmp_path / "c.pgm")
        assert again[0, 0] == 1.0
        assert again[0, 1] == 0.0

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)], ids=["1d", "3d"])
    def test_write_needs_a_2d_array(self, tmp_path, shape):
        path = tmp_path / "bad.pgm"
        with pytest.raises(ValueError, match="2D array"):
            write_pgm(np.zeros(shape), path)
        assert not path.exists()


class TestDenoise:
    def test_noisy_gradient_image(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        w = h = 24
        x = np.linspace(0, 1, w)[:, None]
        clean = np.tile(x, (1, h))
        noisy = np.clip(clean + 0.15 * rng.standard_normal((w, h)), 0, 1)
        quant = np.rint(noisy * 255).astype(np.uint8)
        img = tmp_path / "noisy.pgm"
        with open(img, "wb") as fh:
            fh.write(f"P5\n{w} {h}\n255\n".encode())
            fh.write(quant.T.tobytes())
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(
            f"command = denoise\ninput = {img}\nepsilon = 4\np = 2\nT = 2.0\nh = 0.25\n"
        )
        out = tmp_path / "out"
        out.mkdir()
        code = main(["--config", str(cfg_path), "--out", str(out)])
        captured = capsys.readouterr().out
        assert "PASS denoise.energy_decreased" in captured
        assert "PASS denoise.tv_decreased" in captured
        assert code == 0
        assert (out / "output.pgm").exists()
        rows = (out / "metrics.csv").read_text().splitlines()
        metrics = {r.split(",")[0]: (float(r.split(",")[1]), float(r.split(",")[2]))
                   for r in rows[1:]}
        assert metrics["dirichlet_energy"][1] < metrics["dirichlet_energy"][0]
        assert metrics["total_variation"][1] < metrics["total_variation"][0]


class TestImport:
    def test_cli_loads_no_scipy_linalg_or_sparse(self):
        # the package imports no scipy, so neither of these loads with the CLI
        code = (
            "import sys, nlbiharm.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.linalg', 'scipy.sparse'))))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        ).stdout
        assert out.strip() == "[]"

    def test_bump_run_loads_no_numpy_random(self, tmp_path):
        # only a run that draws a state builds its seed, so a bump start
        # never loads numpy.random
        cfg = write_cfg(tmp_path, "command = converge\nnx = 32\nu0 = bump\n"
                        "epsilon_list = 0.4,0.2\np = 3\nT = 0.0005\nh = 0.0001\n")
        out = tmp_path / "out"
        out.mkdir()
        code = (
            "import sys\n"
            "from nlbiharm.cli import main\n"
            f"assert main(['--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0\n"
            "print('numpy.random' in sys.modules)\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert run.stdout.splitlines()[-1] == "False"

    def test_module_run_writes_nothing_to_stderr(self, tmp_path):
        # the package does not import ``cli``, so runpy finds it unimported
        # and has nothing to warn about
        cfg = write_cfg(tmp_path, "command = evolve\nnx = 16\n"
                        "epsilon = 0.25\nT = 0.02\nh = 0.01\n")
        out = tmp_path / "out"
        out.mkdir()
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        run = subprocess.run(
            [sys.executable, "-m", "nlbiharm.cli", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env={**env, "PYTHONPATH": str(ROOT / "src")},
        )
        assert run.returncode == 0
        assert "PASS" in run.stdout
        assert run.stderr == ""

    def test_direct_solves_load_no_scipy(self, tmp_path):
        # the local reference's Newton steps and a reweighted (p < 2) step
        # solve their models with numpy alone
        cfg = write_cfg(tmp_path, "command = converge\nnx = 32\n"
                        "epsilon_list = 0.4,0.2\np = 3\nT = 0.0005\nh = 0.0001\n")
        out = tmp_path / "out"
        out.mkdir()
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from nlbiharm import StepperConfig, discretize, evolve, get_kernel, make_domain\n"
            "from nlbiharm.cli import main\n"
            f"assert main(['--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0\n"
            "kern = get_kernel('tent')\n"
            "spec = make_domain(1, (0.0, 1.0), 32, 0.25)\n"
            "x = spec.node_coords()[0][spec.interior_slices]\n"
            "evolve(np.sin(np.pi * x), spec, discretize(kern, 0.25, spec),\n"
            "    StepperConfig(p=1.5, h=1e-3, T=1e-3))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert "PASS nonlocal_to_local.errors_decreasing" in run.stdout
        assert run.stdout.splitlines()[-1] == "[]"
