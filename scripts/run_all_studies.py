#!/usr/bin/env python3
"""Run the full experiment battery into per-study output directories.

Usage:
    python scripts/run_all_studies.py [outdir]

Each shipped config under scripts/configs/ runs through the CLI; the script
exits nonzero if any study's assertions fail.  The denoise config is skipped
here (it needs an input image; see denoise_demo.py).
"""

import argparse
import sys
from pathlib import Path

from nlbiharm.cli import main as cli_main

CONFIG_DIR = Path(__file__).parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("outdir", nargs="?", default="study_output")
    args = parser.parse_args()

    root = Path(args.outdir)
    root.mkdir(parents=True, exist_ok=True)
    failures = []
    for cfg in sorted(CONFIG_DIR.glob("*.cfg")):
        if cfg.stem == "denoise":
            continue
        out = root / cfg.stem
        out.mkdir(exist_ok=True)
        print(f"== {cfg.stem} ==")
        code = cli_main(["--config", str(cfg), "--out", str(out)])
        if code != 0:
            failures.append(cfg.stem)
    if failures:
        print(f"FAILED studies: {', '.join(failures)}")
        return 1
    print("all studies passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
