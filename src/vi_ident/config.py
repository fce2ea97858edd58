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


def _field_block(block, where, default_value, lower, upper):
    block = _as_mapping(block, where)
    out = {
        "value": block.get("value", default_value),
        "lower": float(block.get("lower", lower)),
        "upper": float(block.get("upper", upper)),
    }
    return out


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
    if form not in ("grad_grad", "grad_grad_plus_mass"):
        raise ConfigError(f"problem.form: unknown form {form!r}")
    source = block.get("source", 1.0)
    if not isinstance(source, (int, float)):
        raise ConfigError("problem.source: only constant sources are supported in configs")

    ell = _field_block(block.get("ellipticity"), "problem.ellipticity", 1.0, 0.1, 10.0)
    if not 0 < ell["lower"] < ell["upper"]:
        raise ConfigError("problem.ellipticity: ellipticity bounds require 0 < lower < upper")
    fr = _field_block(block.get("friction"), "problem.friction", 0.25, 0.0, 5.0)
    if not 0 <= fr["lower"] < fr["upper"]:
        raise ConfigError("problem.friction: friction bounds require 0 <= lower < upper")

    out = {
        "mesh": {"dimension": dimension, "n": n},
        "form": form,
        "source": float(source),
        "ellipticity": ell,
        "friction": fr,
    }
    if dimension == 1:
        interval = mesh.get("interval", [0.0, 1.0])
        if len(interval) != 2 or not float(interval[0]) < float(interval[1]):
            raise ConfigError("problem.mesh.interval: expected [a, b] with a < b")
        out["mesh"]["interval"] = [float(interval[0]), float(interval[1])]
    return out


def _validate_solver(block) -> dict:
    block = _as_mapping(block, "solver")
    out = {
        "newton_tol": float(block.get("newton_tol", 1e-12)),
        "newton_max_iter": int(block.get("newton_max_iter", 100)),
        "oracle_tol": float(block.get("oracle_tol", 1e-10)),
    }
    if out["newton_tol"] <= 0 or out["oracle_tol"] <= 0:
        raise ConfigError("solver: tolerances must be positive")
    return out


def _positive_list(values, where):
    try:
        out = [float(v) for v in values]
    except TypeError:
        raise ConfigError(f"{where}: expected a list of positive reals") from None
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
    out: dict[str, Any] = {"kind": kind}
    if kind == "forward":
        out["eps"] = float(block.get("eps", 0.0))
        if out["eps"] < 0:
            raise ConfigError("experiment.eps: must be >= 0 (0 selects the oracle)")
    elif kind == "rate-study":
        out["eps_list"] = _positive_list(
            block.get("eps_list", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]), "experiment.eps_list"
        )
        kernels = block.get("kernels", list(KERNEL_NAMES))
        for k in kernels:
            if k not in KERNEL_NAMES:
                raise ConfigError(f"experiment.kernels: unknown kernel {k!r}")
        out["kernels"] = list(kernels)
    elif kind == "kernel-check":
        out["eps_list"] = _positive_list(
            block.get("eps_list", list(np.logspace(-3, 0, 25))), "experiment.eps_list"
        )
        out["t_range"] = float(block.get("t_range", 3.0))
        out["t_points"] = int(block.get("t_points", 201))
        kernels = block.get("kernels", list(KERNEL_NAMES))
        for k in kernels:
            if k not in KERNEL_NAMES:
                raise ConfigError(f"experiment.kernels: unknown kernel {k!r}")
        out["kernels"] = list(kernels)
    elif kind == "gradient-check":
        out["eps"] = float(block.get("eps", 1e-2))
        out["n_directions"] = int(block.get("n_directions", 5))
        out["fd_step"] = float(block.get("fd_step", 1e-5))
        out["tolerance"] = float(block.get("tolerance", 1e-5))
        out["alpha"] = float(block.get("alpha", 1e-8))
        out["beta"] = float(block.get("beta", 1e-8))
        if out["eps"] <= 0:
            raise ConfigError("experiment.eps: must be positive for gradient checks")
    elif kind in ("identify", "continuation"):
        out["alpha"] = float(block.get("alpha", 1e-8))
        out["beta"] = float(block.get("beta", 1e-8))
        out["max_iters"] = int(block.get("max_iters", 500))
        out["stop_tol"] = float(block.get("stop_tol", 1e-9))
        out["noise_level"] = float(block.get("noise_level", 0.0))
        if out["noise_level"] < 0:
            raise ConfigError("experiment.noise_level: must be >= 0")
        out["free_e"] = bool(block.get("free_e", False))
        out["free_f"] = bool(block.get("free_f", True))
        out["true_ellipticity"] = float(block.get("true_ellipticity", 1.0))
        out["true_friction"] = float(block.get("true_friction", 0.25))
        out["initial_ellipticity"] = float(block.get("initial_ellipticity", 1.0))
        out["initial_friction"] = float(block.get("initial_friction", 1.0))
        if kind == "identify":
            out["eps"] = float(block.get("eps", 1e-4))
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
