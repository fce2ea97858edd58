"""Experiment configuration (YAML) and machine-readable outputs (CSV, JSON).

One config file fully determines an experiment run; together with the seed it
makes the CSV outputs byte-identical across repeats.  Floats are written with
``repr`` so a read-back reproduces the exact double.
"""

from __future__ import annotations

import csv
import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import scipy
import yaml

from .discretization import FORMS
from .errors import ConfigError
from .kernels import KERNEL_NAMES

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "emit_csv",
    "read_csv",
    "write_manifest",
]

EXPERIMENT_KINDS = (
    "forward",
    "rate-study",
    "kernel-check",
    "gradient-check",
    "identify",
    "continuation",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration with the raw mapping kept for the manifest."""

    problem: dict
    kernel: str
    solver: dict
    experiment: dict
    output: str
    raw: dict = field(repr=False)


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return mapping[key]


def _as_mapping(value, where):
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping")
    return value


def _number(value, where, kind=float):
    """``value`` as a ``kind`` (``float`` or ``int``), or a ConfigError naming
    the field ``where``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        expected = "a real number" if kind is float else "an integer"
        raise ConfigError(f"{where}: expected {expected}, got {value!r}") from None


def _field_block(block, where, default_value, lower, upper):
    block = _as_mapping(block, where)
    value = block.get("value", default_value)
    if isinstance(value, list):
        value = [_number(v, f"{where}.value") for v in value]
    else:
        value = _number(value, f"{where}.value")
    return {
        "value": value,
        "lower": _number(block.get("lower", lower), f"{where}.lower"),
        "upper": _number(block.get("upper", upper), f"{where}.upper"),
    }


def _validate_problem(block) -> dict:
    block = _as_mapping(block, "problem")
    mesh = _as_mapping(_require(block, "mesh", "problem"), "problem.mesh")
    dimension = mesh.get("dimension")
    if dimension not in (1, 2):
        raise ConfigError("problem.mesh.dimension: must be 1 or 2")
    n = mesh.get("n")
    if not isinstance(n, int) or n < 1:
        raise ConfigError("problem.mesh.n: must be an integer >= 1")
    form = block.get("form", "grad_grad")
    if form not in FORMS:
        raise ConfigError(f"problem.form: unknown form {form!r}")
    source = _number(block.get("source", 1.0), "problem.source")

    ell = _field_block(block.get("ellipticity"), "problem.ellipticity", 1.0, 0.1, 10.0)
    if not 0 < ell["lower"] < ell["upper"]:
        raise ConfigError("problem.ellipticity: ellipticity bounds require 0 < lower < upper")
    fr = _field_block(block.get("friction"), "problem.friction", 0.25, 0.0, 5.0)
    if not 0 <= fr["lower"] < fr["upper"]:
        raise ConfigError("problem.friction: friction bounds require 0 <= lower < upper")

    out = {
        "mesh": {"dimension": dimension, "n": n},
        "form": form,
        "source": source,
        "ellipticity": ell,
        "friction": fr,
    }
    if dimension == 1:
        interval = mesh.get("interval", [0.0, 1.0])
        if not isinstance(interval, list) or len(interval) != 2:
            raise ConfigError("problem.mesh.interval: expected [a, b] with a < b")
        a, b = (_number(v, "problem.mesh.interval") for v in interval)
        if not a < b:
            raise ConfigError("problem.mesh.interval: expected [a, b] with a < b")
        out["mesh"]["interval"] = [a, b]
    return out


def _validate_solver(block) -> dict:
    block = _as_mapping(block, "solver")
    out = {
        "newton_tol": _number(block.get("newton_tol", 1e-12), "solver.newton_tol"),
        "oracle_tol": _number(block.get("oracle_tol", 1e-10), "solver.oracle_tol"),
    }
    if out["newton_tol"] <= 0 or out["oracle_tol"] <= 0:
        raise ConfigError("solver: tolerances must be positive")
    return out


def _positive_list(values, where):
    if not isinstance(values, list):
        raise ConfigError(f"{where}: expected a list of positive reals")
    out = [_number(v, f"{where} entry") for v in values]
    if not out or any(v <= 0 for v in out):
        raise ConfigError(f"{where}: expected a nonempty list of positive reals")
    return out


def _validate_experiment(block) -> dict:
    block = _as_mapping(block, "experiment")
    kind = _require(block, "kind", "experiment")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"experiment.kind: unknown kind {kind!r}; choose one of {', '.join(EXPERIMENT_KINDS)}"
        )

    def number(key, default, kind=float):
        return _number(block.get(key, default), f"experiment.{key}", kind)

    out: dict[str, Any] = {"kind": kind}
    if kind in ("rate-study", "kernel-check"):
        kernels = block.get("kernels", list(KERNEL_NAMES))
        if not isinstance(kernels, list):
            raise ConfigError("experiment.kernels: expected a list of kernel names")
        for k in kernels:
            if k not in KERNEL_NAMES:
                raise ConfigError(f"experiment.kernels: unknown kernel {k!r}")
        out["kernels"] = list(kernels)
    if kind == "forward":
        out["eps"] = number("eps", 0.0)
        if out["eps"] < 0:
            raise ConfigError("experiment.eps: must be >= 0 (0 selects the oracle)")
    elif kind == "rate-study":
        out["eps_list"] = _positive_list(
            block.get("eps_list", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]), "experiment.eps_list"
        )
    elif kind == "kernel-check":
        out["eps_list"] = _positive_list(
            block.get("eps_list", list(np.logspace(-3, 0, 25))), "experiment.eps_list"
        )
        out["t_range"] = number("t_range", 3.0)
        out["t_points"] = number("t_points", 201, int)
    elif kind == "gradient-check":
        out["eps"] = number("eps", 1e-2)
        out["n_directions"] = number("n_directions", 5, int)
        out["fd_step"] = number("fd_step", 1e-5)
        out["tolerance"] = number("tolerance", 1e-5)
        out["alpha"] = number("alpha", 1e-8)
        out["beta"] = number("beta", 1e-8)
        if out["eps"] <= 0:
            raise ConfigError("experiment.eps: must be positive for gradient checks")
    elif kind in ("identify", "continuation"):
        out["alpha"] = number("alpha", 1e-8)
        out["beta"] = number("beta", 1e-8)
        out["max_iters"] = number("max_iters", 500, int)
        out["stop_tol"] = number("stop_tol", 1e-9)
        out["noise_level"] = number("noise_level", 0.0)
        if out["noise_level"] < 0:
            raise ConfigError("experiment.noise_level: must be >= 0")
        out["free_e"] = bool(block.get("free_e", False))
        out["free_f"] = bool(block.get("free_f", True))
        out["true_ellipticity"] = number("true_ellipticity", 1.0)
        out["true_friction"] = number("true_friction", 0.25)
        out["initial_ellipticity"] = number("initial_ellipticity", 1.0)
        out["initial_friction"] = number("initial_friction", 1.0)
        if kind == "identify":
            out["eps"] = number("eps", 1e-4)
            if out["eps"] <= 0:
                raise ConfigError("experiment.eps: must be positive for identification")
        else:
            out["eps_schedule"] = _positive_list(
                block.get("eps_schedule", [1e-1, 1e-2, 1e-3, 1e-4]),
                "experiment.eps_schedule",
            )
            sched = out["eps_schedule"]
            if any(b >= a for a, b in zip(sched[:-1], sched[1:])):
                raise ConfigError("experiment.eps_schedule: must be strictly decreasing")
    return out


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a YAML experiment config.

    Raises
    ------
    ConfigError
        With the offending field named, for unparsable files or schema
        violations.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    problem = _validate_problem(_require(raw, "problem", str(path)))
    kernel = raw.get("kernel", "sqrt")
    if kernel not in KERNEL_NAMES:
        raise ConfigError(f"kernel: unknown kernel {kernel!r}; choose one of {', '.join(KERNEL_NAMES)}")
    solver = _validate_solver(raw.get("solver"))
    experiment = _validate_experiment(_require(raw, "experiment", str(path)))
    output = str(raw.get("output", "out"))
    return ExperimentConfig(
        problem=problem,
        kernel=kernel,
        solver=solver,
        experiment=experiment,
        output=output,
        raw=raw,
    )


# ---------------------------------------------------------------------------
# Output helpers.
# ---------------------------------------------------------------------------


def _format_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def emit_csv(rows, path: str | Path, header: list[str]) -> None:
    """Write rows as CSV with a header; floats keep full round-trip precision."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(x) for x in row])


def read_csv(path: str | Path):
    """Read a CSV written by :func:`emit_csv`; numeric cells become floats."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for row in reader:
            parsed = []
            for cell in row:
                try:
                    parsed.append(float(cell))
                except ValueError:
                    parsed.append(cell)
            rows.append(parsed)
    return header, rows


def write_manifest(out_dir: str | Path, config: ExperimentConfig, seed: int, results: dict, started: float) -> Path:
    """Write the run manifest (config echo, versions, wall time, results)."""
    from . import __version__

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": config.raw,
        "seed": int(seed),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "vi_ident": __version__,
        },
        "wall_time_s": time.perf_counter() - started,
        "results": results,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
