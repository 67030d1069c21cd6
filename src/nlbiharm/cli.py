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
import re
import sys
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    StudyReport,
    _check_decreasing,
    consistency_study,
    contraction_study,
    decay_fit,
    decay_window,
    default_bump,
    energy_audit,
    nonlocal_to_local_study,
    poincare_constant,
)
from .grid import DomainSpec, Field, check_dim, make_domain, write_csv, zero_extend
from .kernel import discretize, get_kernel
from .stepper import StepperConfig, evolve, trajectory_to_csv


class ConfigError(ValueError):
    """Bad experiment config; names the offending line and key when known."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        where = ", ".join(w for w in (line and f"line {line}", key and f"key {key!r}") if w)
        super().__init__(f"{message} ({where})" if where else message)
        self.line = line
        self.key = key


@dataclass
class ExperimentConfig:
    command: str = ""
    kernel: str = "tent"
    dim: int = 1
    nx: int = 64
    epsilon: float = 0.2
    epsilon_list: list[float] = field(default_factory=list)
    p: float = 2.0
    T: float = 1.0
    h: float | None = None
    inner_max_iters: int = 5000
    seed: int = 0
    u0: str = "bump"
    q: float = 2.0
    phi: str = "sin2pi"
    fit_t_lo: float | None = None
    fit_floor_ratio: float = 1e-18
    input: str = ""

    def stepper_config(self) -> StepperConfig:
        """The stepper fields of the same names; h defaults to T/200."""
        values = {f.name: getattr(self, f.name) for f in fields(StepperConfig)}
        if self.h is None:
            values["h"] = self.T / 200.0
        return StepperConfig(**values)


# the schema of a config file: each key parses by its field's type
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)

# the keys each command's run reads besides ``command``; ``seed`` too where
# it reads ``u0 = random``
_STEPPER_KEYS = tuple(f.name for f in fields(StepperConfig))
_READS = {
    "evolve": {"kernel", "dim", "nx", "epsilon", *_STEPPER_KEYS, "u0"},
    "decay": {"kernel", "dim", "nx", "epsilon", *_STEPPER_KEYS, "u0",
              "fit_t_lo", "fit_floor_ratio"},
    "consistency": {"kernel", "dim", "nx", "epsilon_list", "q", "phi"},
    "converge": {"kernel", "dim", "nx", "epsilon_list", *_STEPPER_KEYS, "u0"},
    "poincare": {"kernel", "dim", "nx", "epsilon"},
    "contraction": {"kernel", "dim", "nx", "epsilon", *_STEPPER_KEYS, "seed"},
    "denoise": {"kernel", "epsilon", *_STEPPER_KEYS, "input"},
}


def _parse_value(hint, value: str):
    """Parse by field type: ``list[float]`` is a comma list, ``float | None``
    a float."""
    if typing.get_origin(hint) is list:
        item = typing.get_args(hint)[0]
        return [item(v) for v in value.split(",") if v.strip()]
    return (typing.get_args(hint) or (hint,))[0](value)


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a ``key = value`` experiment file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    cfg = ExperimentConfig()
    first_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key {key!r}", lineno, key)
        if key in first_line:
            raise ConfigError(f"key set twice, first on line {first_line[key]}", lineno, key)
        first_line[key] = lineno
        try:
            parsed = _parse_value(_FIELD_TYPES[key], value)
        except ValueError as err:
            raise ConfigError(f"bad value for {key!r}: {value!r}", lineno, key) from err
        setattr(cfg, key, parsed)
    if cfg.input:  # a relative image path names a file beside the config
        cfg.input = str(Path(path).parent / cfg.input)
    _validate(cfg, first_line)
    return cfg


def _build(build, *keys: str, **words: str):
    """Call a library constructor, turning its ValueError into a ConfigError
    for the first of ``keys`` that the message names, directly or through
    ``words`` (message word -> key); a message naming none is about the
    first key."""
    try:
        return build()
    except ValueError as err:
        named = {words.get(w, w) for w in re.findall(r"\w+", str(err))}
        key = next((k for k in keys if k in named), keys[0])
        raise ConfigError(str(err), key=key) from err


def _validate(cfg: ExperimentConfig, lines: dict[str, int]) -> None:
    """Build what the run builds, then reject the first key set (``lines``,
    key -> line) that the run never reads; only the checks that have no
    counterpart in the library are written out here."""
    if cfg.command not in _RUNNERS:
        raise ConfigError(
            f"command must be one of {', '.join(_RUNNERS)}, got {cfg.command!r}",
            key="command",
        )
    if cfg.u0 not in ("bump", "random", "zero"):
        raise ConfigError(f"u0 must be bump, random, or zero, got {cfg.u0!r}", key="u0")
    if cfg.phi not in ("sin2pi", "quadratic"):
        raise ConfigError(f"phi must be sin2pi or quadratic, got {cfg.phi!r}", key="phi")
    if not 1 <= cfg.q < math.inf:
        raise ConfigError(f"q must be finite and >= 1, got {cfg.q}", key="q")
    sweep = cfg.command in ("consistency", "converge")
    if sweep and len(cfg.epsilon_list) < 2:
        # one scale has no pair to compare: no order, no decrease to test
        raise ConfigError(f"{cfg.command} needs two or more scales", key="epsilon_list")
    if not sweep and cfg.epsilon_list:
        raise ConfigError(f"{cfg.command} runs at the one scale epsilon", key="epsilon_list")
    _build(lambda: _check_decreasing(cfg.epsilon_list, "epsilon_list"), "epsilon_list")
    if cfg.command == "denoise" and not cfg.input:
        raise ConfigError("denoise needs an input PGM path", key="input")

    scfg = _build(cfg.stepper_config, "p", "T", "h", "inner_max_iters")
    if cfg.command == "decay":
        win = "fit_t_lo" if cfg.fit_t_lo is not None else "T"
        _build(lambda: decay_window(scfg.step_times(), cfg.p, cfg.fit_t_lo,
                                    cfg.fit_floor_ratio),
               win, "p", "fit_floor_ratio", "T",
               window=win, floor_ratio="fit_floor_ratio", recorded="T")
    _build(lambda: (get_kernel(cfg.kernel), check_dim(cfg.dim)), "kernel", "dim")
    eps_key = "epsilon_list" if sweep else "epsilon"
    nx_key = "input" if cfg.command == "denoise" else "nx"
    sizes = (cfg.nx, 2 * cfg.nx) if cfg.command == "poincare" else (cfg.nx,)
    if cfg.command == "denoise":
        try:  # the image sizes the grid; an unreadable one is the run's ERROR IO
            sizes = [_build(lambda: read_pgm_pixels(cfg.input)[0].shape, "input")]
        except OSError:
            sizes = []
    for eps in cfg.epsilon_list if sweep else [cfg.epsilon]:
        for nx in sizes:
            _build(lambda: _grid(cfg, eps, nx), eps_key, nx_key, eps=eps_key, nx=nx_key)
    _build(lambda: np.random.SeedSequence(cfg.seed), "seed")
    if cfg.u0 == "zero" and cfg.command in ("decay", "converge"):
        # a zero start stays zero: no decay to fit, no error to shrink
        raise ConfigError(f"{cfg.command} needs a nonzero start, got u0 = zero", key="u0")
    reads = _READS[cfg.command] | {"command"}
    if "u0" in reads and cfg.u0 == "random":
        reads = reads | {"seed"}
    for key, line in lines.items():
        if key not in reads:
            raise ConfigError(f"{cfg.command} does not read this key", line, key)


def _write_manifest(cfg_path, outdir: Path, command: str) -> None:
    digest = hashlib.sha256(Path(cfg_path).read_bytes()).hexdigest()
    write_csv(outdir / "manifest.csv", ("config_sha256", "version", "command"),
              [(digest, __version__, command)])


def _grid(cfg: ExperimentConfig, eps: float, nx=None) -> DomainSpec:
    """The grid of a run at scale eps: the unit box with nx cells per axis
    (default cfg.nx), or for denoise the pixel grid of nx = (width, height),
    one unit per pixel."""
    nx = cfg.nx if nx is None else nx
    if cfg.command == "denoise":
        dim, box = 2, [(0.0, float(n)) for n in np.broadcast_to(nx, 2)]
    else:
        dim, box = cfg.dim, [(0.0, 1.0)] * cfg.dim
    return make_domain(dim, box, nx, eps)


def _grid_and_stencil(cfg: ExperimentConfig, nx=None):
    spec = _grid(cfg, cfg.epsilon, nx)
    return spec, discretize(get_kernel(cfg.kernel), cfg.epsilon, spec)


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
    spec, st = _grid_and_stencil(cfg)
    u0 = _initial_state(cfg, spec)
    traj = evolve(u0, st, cfg.stepper_config())
    trajectory_to_csv(traj, outdir / "trajectory.csv")
    return _emit(energy_audit(traj), outdir, "audit.csv")


def _run_decay(cfg, outdir) -> bool:
    spec, st = _grid_and_stencil(cfg)
    u0 = _initial_state(cfg, spec)
    scfg = cfg.stepper_config()
    traj = evolve(u0, st, scfg)
    trajectory_to_csv(traj, outdir / "trajectory.csv")
    fit = decay_fit(traj, t_lo=cfg.fit_t_lo, floor_ratio=cfg.fit_floor_ratio)
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
    spec = _grid(cfg, max(cfg.epsilon_list))

    if cfg.phi == "sin2pi":

        def phi(*coords):
            out = np.ones_like(coords[0])
            for c in coords:
                out = out * np.sin(2 * np.pi * c)
            return out

    else:

        def phi(*coords):
            return sum(c**2 for c in coords)

    report = consistency_study(phi, get_kernel(cfg.kernel), cfg.epsilon_list, spec, cfg.q)
    return _emit(report, outdir, "study.csv")


def _run_converge(cfg, outdir) -> bool:
    spec = _grid(cfg, max(cfg.epsilon_list))
    u0 = _initial_state(cfg, spec)
    report = nonlocal_to_local_study(u0, get_kernel(cfg.kernel), cfg.epsilon_list,
                                     cfg.stepper_config())
    return _emit(report, outdir, "study.csv")


def _run_poincare(cfg, outdir) -> bool:
    rows = []
    constants = []
    for nx in (cfg.nx, 2 * cfg.nx):
        spec, st = _grid_and_stencil(cfg, nx)
        c = poincare_constant(spec, st)
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
    spec, st = _grid_and_stencil(cfg)
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
    pixels, maxval = read_pgm_pixels(cfg.input)
    spec, st = _grid_and_stencil(cfg, pixels.shape)
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
    if not all(t.isdigit() for t in tokens[1:4]):  # ASCII decimal digits only
        raise ValueError(f"malformed PGM header fields {tokens[1:4]}")
    width, height, maxval = (int(t) for t in tokens[1:4])
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
        values = data[payload_at:].split()[:n]
        if len(values) < n:
            raise ValueError(f"truncated PGM payload: {len(values)} of {n} samples")
        bad = next((v for v in values if not v.isdigit()), None)
        if bad is not None:
            raise ValueError(f"PGM sample {bad!r} is not a decimal number")
        raster = np.array([int(v) for v in values], dtype=float)
    if raster.max(initial=0.0) > maxval:
        raise ValueError("PGM sample exceeds declared maxval")
    grid = raster.reshape(height, width).T / maxval  # (width, height), x-major
    return grid, maxval


def write_pgm(f: Field, path, maxval: int = 255) -> None:
    """Write the interior of a 2D field as binary PGM (P5), clamping to
    [0, 1] first."""
    if f.spec.dim != 2:
        raise ValueError("write_pgm needs a 2D field")
    if not 0 < maxval <= 65535:
        raise ValueError(f"maxval {maxval} out of range (1..65535)")
    vals = np.clip(f.interior_values, 0.0, 1.0)
    quantized = np.rint(vals * maxval).astype(np.uint16)
    w, h = quantized.shape
    raster = quantized.T  # rows = y
    dtype = ">u2" if maxval > 255 else np.uint8
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(raster.astype(dtype).tobytes())


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
