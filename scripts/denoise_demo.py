#!/usr/bin/env python3
"""Synthesize a noisy gradient image and run the fourth-order smoothing demo.

Usage:
    python scripts/denoise_demo.py [outdir] [--size N] [--noise SIGMA]

Writes noisy.pgm, a copy of the shipped denoise.cfg (its ``input =
noisy.pgm`` resolves against the config's directory), output.pgm,
metrics.csv, trajectory.csv and manifest.csv into outdir; the manifest's
config hash does not depend on outdir.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from nlbiharm.cli import main as cli_main

CONFIG = Path(__file__).parent / "configs" / "denoise.cfg"


def make_noisy_gradient(path: Path, size: int, sigma: float, seed: int = 5) -> None:
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, size)[:, None]
    clean = np.tile(x, (1, size))
    noisy = np.clip(clean + sigma * rng.standard_normal((size, size)), 0.0, 1.0)
    quantized = np.rint(noisy * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{size} {size}\n255\n".encode("ascii"))
        fh.write(quantized.T.tobytes())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("outdir", nargs="?", default="denoise_output")
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--noise", type=float, default=0.15)
    args = parser.parse_args()

    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    image = out / "noisy.pgm"
    make_noisy_gradient(image, args.size, args.noise)

    # the shipped config, copied beside the image its ``input`` names
    cfg = out / "denoise.cfg"
    cfg.write_text(CONFIG.read_text())
    return cli_main(["--config", str(cfg), "--out", str(out)])


if __name__ == "__main__":
    sys.exit(main())
