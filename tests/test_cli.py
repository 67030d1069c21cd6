import numpy as np
import pytest

from nlbiharm import ConfigError, parse_config, read_pgm, write_pgm
from nlbiharm.cli import main, read_pgm_pixels


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
        [("epsilon = 0.01", "epsilon"), ("box_lo = 1\nbox_hi = 0", "box"),
         ("p = nan", "p"), ("T = inf", "T")],
        ids=["under_resolved_epsilon", "empty_box", "p_nan", "T_inf"],
    )
    def test_bad_config_exits_config_error(self, tmp_path, capsys, line, key):
        cfg_path = write_cfg(
            tmp_path, f"command = evolve\nu0 = zero\nnx = 16\nh = 0.01\n{line}\n"
        )
        out = tmp_path / "out"
        out.mkdir()
        assert main(["--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith("ERROR CONFIG")
        with pytest.raises(ConfigError, match=key):
            parse_config(cfg_path)

    def test_unknown_command(self, tmp_path):
        with pytest.raises(ConfigError, match="command"):
            parse_config(write_cfg(tmp_path, "command = solve\n"))


class TestRun:
    def test_evolve_zero_state_exits_zero(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path,
            "command = evolve\nu0 = zero\nnx = 16\nepsilon = 0.25\nT = 0.05\nh = 0.01\n",
        )
        out = tmp_path / "out"
        out.mkdir()
        code = main(["--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 7
        assert all(row.split(",")[2] == "0" for row in lines[1:])
        assert (out / "manifest.csv").exists()
        assert "PASS" in capsys.readouterr().out

    def test_missing_output_directory(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, "command = evolve\nu0 = zero\n")
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "nope")])
        assert code != 0
        assert "ERROR IO" in capsys.readouterr().out

    def test_manifest_records_config_hash(self, tmp_path):
        import hashlib

        cfg_path = write_cfg(
            tmp_path,
            "command = evolve\nu0 = zero\nnx = 16\nepsilon = 0.25\nT = 0.05\nh = 0.01\n",
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
            "command = evolve\nu0 = random\nnx = 16\nepsilon = 0.25\n"
            "T = 0.01\nh = 0.001\ninner_max_iters = 1\n",
        )
        out = tmp_path / "out"
        out.mkdir()
        code = main(["--config", str(cfg_path), "--out", str(out)])
        assert code == 3
        assert "ERROR SOLVER" in capsys.readouterr().out

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

    def test_consistency_command(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path,
            "command = consistency\nnx = 128\nepsilon_list = 0.2,0.1\nq = 2\n",
        )
        out = tmp_path / "out"
        out.mkdir()
        assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "study.csv").read_text().splitlines()
        assert lines[0] == "epsilon,error,pair_order"
        assert "PASS consistency.order_at_least_linear" in capsys.readouterr().out


class TestPgm:
    def make_field(self, pixels):
        from nlbiharm import zero_extend
        from nlbiharm.cli import DomainSpec

        w, h = pixels.shape
        spec = DomainSpec(
            dim=2, omega_lo=(0.0, 0.0), omega_hi=(float(w), float(h)),
            nx=(w, h), dx=1.0, pad=2.0, pad_cells=2,
        )
        return zero_extend(pixels, spec)

    def test_p5_round_trip(self, tmp_path, rng):
        pixels = rng.integers(0, 256, size=(7, 5)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        with open(path, "wb") as fh:
            fh.write(b"P5\n7 5\n255\n")
            fh.write(pixels.T.tobytes())
        f = read_pgm(path)
        out_path = tmp_path / "out.pgm"
        write_pgm(f, out_path, maxval=255)
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
        f = self.make_field(pixels)
        write_pgm(f, tmp_path / "wide_out.pgm", maxval=65535)
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

    def test_maxval_out_of_range(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P2\n2 2\n70000\n1 2 3 4\n")
        with pytest.raises(ValueError, match="maxval"):
            read_pgm_pixels(path)

    def test_clamping_on_write(self, tmp_path):
        pixels = np.array([[1.5, -0.2], [0.5, 1.0]])
        f = self.make_field(pixels)
        write_pgm(f, tmp_path / "c.pgm")
        again, _ = read_pgm_pixels(tmp_path / "c.pgm")
        assert again[0, 0] == 1.0
        assert again[0, 1] == 0.0


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
