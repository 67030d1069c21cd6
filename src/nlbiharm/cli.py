"""Configuration-driven front end.

Experiments are described by ``key = value`` files (hash comments allowed)
and dispatched by the ``command`` key; every run writes CSV reports plus a
manifest row recording the config hash and code version, and prints one
PASS/FAIL line per assertion of the chosen study.  Exit status is zero only
when every assertion passed.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    StudyReport,
    consistency_study,
    contraction_study,
    decay_fit,
    default_bump,
    energy_audit,
    nonlocal_to_local_study,
    poincare_constant,
)
from .grid import DomainSpec, Field, make_domain, zero_extend
from .kernel import discretize, get_kernel, rescale
from .stepper import StepperConfig, evolve, trajectory_to_csv


class ConfigError(ValueError):
    """Bad experiment config; carries the offending line and key."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        where = f" (line {line}" + (f", key {key!r})" if key else ")") if line else ""
        super().__init__(message + where)
        self.line = line
        self.key = key


_COMMANDS = (
    "evolve",
    "consistency",
    "converge",
    "decay",
    "poincare",
    "contraction",
    "denoise",
)


@dataclass
class ExperimentConfig:
    command: str = ""
    kernel: str = "tent"
    dim: int = 1
    nx: int = 64
    box_lo: float = 0.0
    box_hi: float = 1.0
    epsilon: float = 0.2
    epsilon_list: list[float] = field(default_factory=list)
    p: float = 2.0
    T: float = 1.0
    h: float | None = None
    mode: str = "implicit"
    inner_tol: float | None = None
    inner_max_iters: int = 5000
    record_every: int = 1
    seed: int = 0
    u0: str = "bump"
    q: float = 2.0
    phi: str = "sin2pi"
    fit_t_lo: float | None = None
    fit_t_hi: float | None = None
    fit_floor_ratio: float = 1e-18
    input: str = ""

    def stepper_config(self) -> StepperConfig:
        h = self.h if self.h is not None else self.T / 200.0
        return StepperConfig(
            p=self.p,
            h=h,
            T=self.T,
            mode=self.mode,
            inner_tol=self.inner_tol,
            inner_max_iters=self.inner_max_iters,
            record_every=self.record_every,
        )


_PARSERS = {
    "command": str,
    "kernel": str,
    "mode": str,
    "u0": str,
    "phi": str,
    "input": str,
    "dim": int,
    "nx": int,
    "inner_max_iters": int,
    "record_every": int,
    "seed": int,
    "box_lo": float,
    "box_hi": float,
    "epsilon": float,
    "p": float,
    "T": float,
    "h": float,
    "inner_tol": float,
    "q": float,
    "fit_t_lo": float,
    "fit_t_hi": float,
    "fit_floor_ratio": float,
    "epsilon_list": "list",
}


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a ``key = value`` experiment file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    cfg = ExperimentConfig()
    known = {f.name for f in fields(ExperimentConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"unknown key {key!r}", lineno, key)
        parser = _PARSERS[key]
        try:
            if parser == "list":
                parsed = [float(v) for v in value.split(",") if v.strip()]
            else:
                parsed = parser(value)
        except ValueError as err:
            raise ConfigError(f"bad value for {key!r}: {value!r}", lineno, key) from err
        setattr(cfg, key, parsed)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.command not in _COMMANDS:
        raise ConfigError(
            f"command must be one of {', '.join(_COMMANDS)}, got {cfg.command!r}",
            key="command",
        )
    if not 1.0 < cfg.p < math.inf:
        raise ConfigError(f"p must satisfy 1 < p < inf, got {cfg.p}", key="p")
    if cfg.dim not in (1, 2):
        raise ConfigError(f"dim must be 1 or 2, got {cfg.dim}", key="dim")
    if cfg.nx < 4:
        raise ConfigError(f"nx must be >= 4, got {cfg.nx}", key="nx")
    if not math.isfinite(cfg.box_lo) or not cfg.box_lo < cfg.box_hi < math.inf:
        raise ConfigError(
            f"need finite box_lo < box_hi, got {cfg.box_lo}, {cfg.box_hi}", key="box_hi"
        )
    if not 0 < cfg.epsilon < math.inf:
        raise ConfigError(f"epsilon must be positive, got {cfg.epsilon}", key="epsilon")
    if not 0 < cfg.T < math.inf:
        raise ConfigError(f"T must be positive and finite, got {cfg.T}", key="T")
    if cfg.h is not None and not 0 < cfg.h < math.inf:
        raise ConfigError(f"h must be positive and finite, got {cfg.h}", key="h")
    if cfg.q < 1:
        raise ConfigError(f"q must be >= 1, got {cfg.q}", key="q")
    if cfg.kernel not in ("tent", "quartic", "cosine"):
        raise ConfigError(f"unknown kernel {cfg.kernel!r}", key="kernel")
    if cfg.mode not in ("implicit", "explicit"):
        raise ConfigError(f"mode must be implicit or explicit", key="mode")
    if cfg.u0 not in ("bump", "random", "zero"):
        raise ConfigError(f"u0 must be bump, random, or zero, got {cfg.u0!r}", key="u0")
    if cfg.phi not in ("sin2pi", "quadratic"):
        raise ConfigError(f"phi must be sin2pi or quadratic", key="phi")
    if cfg.epsilon_list:
        if any(e <= 0 for e in cfg.epsilon_list):
            raise ConfigError("epsilon_list entries must be positive", key="epsilon_list")
        if any(
            b >= a for a, b in zip(cfg.epsilon_list, cfg.epsilon_list[1:])
        ):
            raise ConfigError(
                f"epsilon_list must be strictly decreasing, got {cfg.epsilon_list}",
                key="epsilon_list",
            )
    # the rescaled support (eps times the unit radius of every shipped
    # kernel) must span two cells; denoise works in pixel units, dx = 1
    dx = 1.0 if cfg.command == "denoise" else (cfg.box_hi - cfg.box_lo) / cfg.nx
    key = "epsilon_list" if cfg.command in ("consistency", "converge") else "epsilon"
    scales = cfg.epsilon_list if key == "epsilon_list" else [cfg.epsilon]
    if scales and min(scales) < 2.0 * dx:
        raise ConfigError(
            f"{key} {min(scales):g} under-resolved: need at least 2*dx = {2.0 * dx:g}",
            key=key,
        )


def _write_manifest(cfg_path, outdir: Path, command: str) -> None:
    digest = hashlib.sha256(Path(cfg_path).read_bytes()).hexdigest()
    with open(outdir / "manifest.csv", "w", newline="\n") as fh:
        fh.write("config_sha256,version,command\n")
        fh.write(f"{digest},{__version__},{command}\n")


def _domain_and_stencil(cfg: ExperimentConfig, eps: float | None = None):
    eps = cfg.epsilon if eps is None else eps
    kern = get_kernel(cfg.kernel, cfg.dim)
    box = [(cfg.box_lo, cfg.box_hi)] * cfg.dim
    spec = make_domain(cfg.dim, box, cfg.nx, kern, eps)
    stencil = discretize(rescale(kern, eps), spec)
    return kern, spec, stencil


def _initial_state(cfg: ExperimentConfig, spec: DomainSpec) -> Field:
    if cfg.u0 == "zero":
        return zero_extend(np.zeros(spec.nx), spec)
    if cfg.u0 == "bump":
        return default_bump(spec)
    rng = np.random.default_rng(cfg.seed)
    return zero_extend(rng.standard_normal(spec.nx), spec)


def _emit(report: StudyReport, outdir: Path, filename: str) -> bool:
    report.to_csv(outdir / filename)
    for line in report.summary_lines():
        print(line)
    return report.all_passed()


def _run_evolve(cfg, outdir) -> bool:
    _, spec, st = _domain_and_stencil(cfg)
    u0 = _initial_state(cfg, spec)
    traj = evolve(u0, st, cfg.stepper_config())
    trajectory_to_csv(traj, outdir / "trajectory.csv")
    return _emit(energy_audit(traj), outdir, "audit.csv")


def _run_decay(cfg, outdir) -> bool:
    _, spec, st = _domain_and_stencil(cfg)
    u0 = _initial_state(cfg, spec)
    scfg = cfg.stepper_config()
    traj = evolve(u0, st, scfg)
    trajectory_to_csv(traj, outdir / "trajectory.csv")
    window = None
    if cfg.fit_t_lo is not None or cfg.fit_t_hi is not None:
        window = (
            cfg.fit_t_lo if cfg.fit_t_lo is not None else traj.times[0],
            cfg.fit_t_hi if cfg.fit_t_hi is not None else traj.times[-1],
        )
    floor = cfg.fit_floor_ratio if cfg.fit_floor_ratio > 0 else None
    fit = decay_fit(traj, cfg.p, window=window, floor_ratio=floor)
    if cfg.p == 2:
        ok = fit.c1 > 0 and fit.r_squared >= 0.99
        rows = [("c1", fit.c1, fit.r_squared)]
    else:
        ok = fit.c2 > 0 and fit.r_squared >= 0.95
        rows = [("c2", fit.c2, fit.r_squared), ("c3", fit.c3, fit.r_squared)]
    report = StudyReport(
        name="decay",
        columns=("constant", "value", "r_squared"),
        rows=rows,
        metadata={
            "model": fit.model,
            "window_lo": fit.window[0],
            "window_hi": fit.window[1],
            "n_points": fit.n_points,
            "pass_decay_law": bool(ok),
        },
    )
    return _emit(report, outdir, "decay_fit.csv")


def _run_consistency(cfg, outdir) -> bool:
    if not cfg.epsilon_list:
        raise ConfigError("consistency needs epsilon_list", key="epsilon_list")
    kern = get_kernel(cfg.kernel, cfg.dim)
    box = [(cfg.box_lo, cfg.box_hi)] * cfg.dim
    spec = make_domain(cfg.dim, box, cfg.nx, kern, max(cfg.epsilon_list))
    span = cfg.box_hi - cfg.box_lo

    if cfg.phi == "sin2pi":

        def phi(*coords):
            out = np.ones_like(coords[0])
            for c in coords:
                out = out * np.sin(2 * np.pi * (c - cfg.box_lo) / span)
            return out

    else:

        def phi(*coords):
            return sum(c**2 for c in coords)

    report = consistency_study(phi, kern, cfg.epsilon_list, spec, cfg.q)
    return _emit(report, outdir, "study.csv")


def _run_converge(cfg, outdir) -> bool:
    if not cfg.epsilon_list:
        raise ConfigError("converge needs epsilon_list", key="epsilon_list")
    kern = get_kernel(cfg.kernel, cfg.dim)
    box = [(cfg.box_lo, cfg.box_hi)] * cfg.dim
    spec = make_domain(cfg.dim, box, cfg.nx, kern, max(cfg.epsilon_list))
    u0 = _initial_state(cfg, spec)
    report = nonlocal_to_local_study(u0, cfg.p, kern, cfg.epsilon_list, cfg.stepper_config())
    return _emit(report, outdir, "study.csv")


def _run_poincare(cfg, outdir) -> bool:
    kern = get_kernel(cfg.kernel, cfg.dim)
    box = [(cfg.box_lo, cfg.box_hi)] * cfg.dim
    rows = []
    constants = []
    for nx in (cfg.nx, 2 * cfg.nx):
        spec = make_domain(cfg.dim, box, nx, kern, cfg.epsilon)
        st = discretize(rescale(kern, cfg.epsilon), spec)
        c = poincare_constant(spec, st, q=2)
        rows.append((nx, c, float("nan")))
        constants.append(c)
    drift = abs(constants[1] - constants[0]) / constants[1]
    report = StudyReport(
        name="poincare",
        columns=("nx", "constant", "unused"),
        rows=rows,
        metadata={
            "kernel": cfg.kernel,
            "epsilon": cfg.epsilon,
            "refinement_drift": drift,
            "pass_positive": bool(all(c > 0 for c in constants)),
            "pass_stable_under_refinement": bool(drift <= 0.10),
        },
    )
    return _emit(report, outdir, "study.csv")


def _run_contraction(cfg, outdir) -> bool:
    _, spec, st = _domain_and_stencil(cfg)
    rng = np.random.default_rng(cfg.seed)
    u0_a = zero_extend(rng.standard_normal(spec.nx), spec)
    u0_b = zero_extend(
        u0_a.interior_values + 0.1 * rng.standard_normal(spec.nx), spec
    )
    report = contraction_study(u0_a, u0_b, st, cfg.stepper_config())
    return _emit(report, outdir, "study.csv")


def _total_variation(values: np.ndarray) -> float:
    total = 0.0
    for axis in range(values.ndim):
        total += float(np.sum(np.abs(np.diff(values, axis=axis))))
    return total


def _run_denoise(cfg, outdir) -> bool:
    if not cfg.input:
        raise ConfigError("denoise needs an input PGM path", key="input")
    kern = get_kernel(cfg.kernel, 2)
    pixels, maxval = read_pgm_pixels(cfg.input)
    w, h_px = pixels.shape
    spec = make_domain(2, ((0.0, float(w)), (0.0, float(h_px))), (w, h_px), kern, cfg.epsilon)
    st = discretize(rescale(kern, cfg.epsilon), spec)
    mean = float(pixels.mean())
    u0 = zero_extend(pixels - mean, spec)
    traj = evolve(u0, st, cfg.stepper_config())
    trajectory_to_csv(traj, outdir / "trajectory.csv")
    final = traj.states[-1]
    restored = np.clip(final.interior_values + mean, 0.0, 1.0)
    write_pgm(zero_extend(restored, spec), outdir / "output.pgm", maxval=maxval)
    e0, e1 = traj.energies[0], traj.energies[-1]
    tv0, tv1 = _total_variation(pixels), _total_variation(restored)
    report = StudyReport(
        name="denoise",
        columns=("metric", "before", "after"),
        rows=[("dirichlet_energy", float(e0), float(e1)),
              ("total_variation", float(tv0), float(tv1))],
        metadata={
            "pass_energy_decreased": bool(e1 < e0),
            "pass_tv_decreased": bool(tv1 < tv0),
        },
    )
    return _emit(report, outdir, "metrics.csv")


_RUNNERS = {
    "evolve": _run_evolve,
    "decay": _run_decay,
    "consistency": _run_consistency,
    "converge": _run_converge,
    "poincare": _run_poincare,
    "contraction": _run_contraction,
    "denoise": _run_denoise,
}


def run(cfg: ExperimentConfig, outdir, cfg_path=None) -> int:
    """Dispatch a validated config; returns the process exit code."""
    outdir = Path(outdir)
    if not outdir.is_dir():
        print(f"ERROR IO output directory {outdir} does not exist")
        return 2
    try:
        if cfg_path is not None:
            _write_manifest(cfg_path, outdir, cfg.command)
        passed = _RUNNERS[cfg.command](cfg, outdir)
    except ConfigError as err:
        print(f"ERROR CONFIG {err}")
        return 2
    except OSError as err:
        print(f"ERROR IO {err}")
        return 2
    except Exception as err:  # noqa: BLE001 - surfaced as a machine-readable line
        print(f"ERROR SOLVER {type(err).__name__}: {err}")
        return 3
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# PGM image support (Netpbm P2/P5, maxval <= 65535)


def _read_pgm_header(data: bytes):
    pos = 0
    tokens = []
    while len(tokens) < 4:
        if pos >= len(data):
            raise ValueError("malformed PGM header: unexpected end of file")
        chunk = data[pos:pos + 1]
        if chunk == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise ValueError("malformed PGM header: unterminated comment")
            pos = nl + 1
        elif chunk.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    return tokens, pos + 1  # one whitespace separates header from payload


def read_pgm_pixels(path) -> tuple[np.ndarray, int]:
    """Read a P2/P5 PGM into values in [0, 1], shaped (width, height)."""
    data = Path(path).read_bytes()
    tokens, payload_at = _read_pgm_header(data)
    magic = tokens[0]
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"not a PGM file: magic {magic!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError as err:
        raise ValueError(f"malformed PGM header fields {tokens[1:4]}") from err
    if width < 1 or height < 1:
        raise ValueError(f"bad PGM dimensions {width}x{height}")
    if not 0 < maxval <= 65535:
        raise ValueError(f"PGM maxval {maxval} out of range (1..65535)")
    n = width * height
    if magic == b"P5":
        wide = maxval > 255
        need = n * (2 if wide else 1)
        payload = data[payload_at:payload_at + need]
        if len(payload) < need:
            raise ValueError(f"truncated PGM payload: {len(payload)} of {need} bytes")
        dtype = ">u2" if wide else np.uint8
        raster = np.frombuffer(payload, dtype=dtype, count=n).astype(float)
    else:
        values = data[payload_at:].split()
        if len(values) < n:
            raise ValueError(f"truncated PGM payload: {len(values)} of {n} samples")
        raster = np.array([int(v) for v in values[:n]], dtype=float)
    if raster.max(initial=0.0) > maxval:
        raise ValueError("PGM sample exceeds declared maxval")
    grid = raster.reshape(height, width).T / maxval  # (width, height), x-major
    return grid, maxval


def read_pgm(path, kernel=None, eps: float | None = None) -> Field:
    """Load a PGM as a 2D field: pixel values scaled to [0, 1] fill the
    interior box (one unit per pixel); the collar is zero.

    With ``kernel`` and ``eps`` the collar is sized for that rescaled kernel;
    otherwise it is the two-cell minimum that the local operator needs.
    """
    pixels, _ = read_pgm_pixels(path)
    w, h = pixels.shape
    if kernel is not None and eps is not None:
        spec = make_domain(2, ((0.0, float(w)), (0.0, float(h))), (w, h), kernel, eps)
    else:
        spec = DomainSpec(
            dim=2,
            omega_lo=(0.0, 0.0),
            omega_hi=(float(w), float(h)),
            nx=(w, h),
            dx=1.0,
            pad=2.0,
            pad_cells=2,
        )
    return zero_extend(pixels, spec)


def write_pgm(f: Field, path, maxval: int = 255, binary: bool = True) -> None:
    """Write the interior of a 2D field as PGM, clamping to [0, 1] first."""
    if f.spec.dim != 2:
        raise ValueError("write_pgm needs a 2D field")
    if not 0 < maxval <= 65535:
        raise ValueError(f"maxval {maxval} out of range (1..65535)")
    vals = np.clip(f.interior_values, 0.0, 1.0)
    quantized = np.rint(vals * maxval).astype(np.uint16)
    w, h = quantized.shape
    raster = quantized.T  # rows = y
    header = f"P5\n{w} {h}\n{maxval}\n" if binary else f"P2\n{w} {h}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            dtype = ">u2" if maxval > 255 else np.uint8
            fh.write(raster.astype(dtype).tobytes())
        else:
            lines = [" ".join(str(int(v)) for v in row) for row in raster]
            fh.write(("\n".join(lines) + "\n").encode("ascii"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlbiharm",
        description="Nonlocal p-biharmonic evolution experiments",
    )
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", required=True, help="output directory (must exist)")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored: studies run serially")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as err:
        print(f"ERROR CONFIG {err}")
        return 2
    return run(cfg, args.out, cfg_path=args.config)


if __name__ == "__main__":
    sys.exit(main())
