"""Experiment configuration (YAML) and machine-readable outputs (CSV, JSON).

One config file fully determines an experiment run; together with the seed it
makes the CSV outputs byte-identical across repeats.  Floats are written with
``repr`` so a read-back reproduces the exact double.

Each kind's fields and defaults sit in one table, ``_EXPERIMENTS``; a field
takes its type from its default (``_coerce``).  An unknown field, a boolean
other than ``true``/``false`` or a value out of range is a ``ConfigError``.
"""

from __future__ import annotations

import csv
import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import yaml

from .discretization import FORMS
from .errors import ConfigError
from .forward import _NEWTON_TOL, _ORACLE_TOL
from .kernels import KERNEL_NAMES

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "emit_csv",
    "read_csv",
    "write_manifest",
]

_TWIN = {  # the twin experiment's fields, shared by identify and continuation
    "alpha": 1e-8,
    "beta": 1e-8,
    "max_iters": 500,
    "stop_tol": 1e-9,
    "noise_level": 0.0,
    "free_e": False,
    "free_f": True,
    "true_ellipticity": 1.0,
    "true_friction": 0.25,
    "initial_ellipticity": 1.0,
    "initial_friction": 1.0,
}
_EXPERIMENTS = {  # kind -> {field: default}
    "forward": {"eps": 0.0},
    "rate-study": {"kernels": list(KERNEL_NAMES), "eps_list": [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]},
    "kernel-check": {
        "kernels": list(KERNEL_NAMES),
        "eps_list": list(np.logspace(-3, 0, 25)),
        "t_range": 3.0,
        "t_points": 201,
    },
    "gradient-check": {
        "eps": 1e-2,
        "n_directions": 5,
        "fd_step": 1e-5,
        "tolerance": 1e-5,
        "alpha": 1e-8,
        "beta": 1e-8,
    },
    "identify": {**_TWIN, "eps": 1e-4},
    "continuation": {**_TWIN, "eps_schedule": [1e-1, 1e-2, 1e-3, 1e-4]},
}
EXPERIMENT_KINDS = tuple(_EXPERIMENTS)
_SOLVER = {"newton_tol": _NEWTON_TOL, "oracle_tol": _ORACLE_TOL}
# The lower bounds the types do not imply; eps = 0 (the oracle) is forward-only.
_MINIMA = {
    "eps": 0.0,
    "t_points": 1,
    "n_directions": 1,
    "max_iters": 0,
    "stop_tol": 0.0,
    "alpha": 0.0,
    "beta": 0.0,
    "noise_level": 0.0,
}


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


def _mapping(value, where, keys):
    """``value`` as a mapping (None reads as empty) whose fields are all in
    ``keys``, or a ConfigError naming the first that is not."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping")
    for key in value:
        if key not in keys:
            raise ConfigError(f"{where}{'.' if where else ''}{key}: unknown field")
    return value


def _coerce(value, default, where):
    """``value`` as the type of ``default``, or a ConfigError naming the field
    ``where``.  The types: bool (only ``true``/``false``), int (no fractional
    part), float (finite: not YAML's ``.inf`` or ``.nan``), a nonempty list of
    positive reals and a nonempty list of kernel names."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        if isinstance(default[0], str):
            if not value:
                raise ConfigError(f"{where}: expected a nonempty list of kernel names")
            for name in value:
                if name not in KERNEL_NAMES:
                    raise ConfigError(f"{where}: unknown kernel {name!r}")
            return list(value)
        out = [_coerce(v, 1.0, f"{where} entry") for v in value]
        if not out or min(out) <= 0:
            raise ConfigError(f"{where}: expected a nonempty list of positive reals")
        return out
    finite = not isinstance(value, float) or np.isfinite(value)
    real = "a real number" if finite else "a finite real number"
    expected = {bool: "true or false", int: "an integer", float: real}[type(default)]
    try:
        coerced = type(default)(value)
        # a bool only where a bool is expected; a number keeps its value
        if isinstance(value, bool) != isinstance(default, bool) or coerced != float(value) or not finite:
            raise ValueError
        return coerced
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected {expected}, got {value!r}") from None


def _fields(block, table, where, keys=()):
    """Each field of ``table`` from ``block``, or its default, coerced; the
    block may also hold ``keys``, which the caller reads."""
    block = _mapping(block, where, (*keys, *table))
    return {key: _coerce(block.get(key, d), d, f"{where}.{key}") for key, d in table.items()}


def _field_block(block, where, default_value, lower, upper):
    bounds = _fields(block, {"lower": lower, "upper": upper}, where, ("value",))
    value = (block or {}).get("value", default_value)
    if isinstance(value, list):
        return {"value": [_coerce(v, 0.0, f"{where}.value") for v in value], **bounds}
    return {"value": _coerce(value, 0.0, f"{where}.value"), **bounds}


def _validate_problem(block) -> dict:
    block = _mapping(block, "problem", ("mesh", "form", "source", "ellipticity", "friction"))
    mesh = _mapping(_require(block, "mesh", "problem"), "problem.mesh", ("dimension", "n", "interval"))
    dimension = _coerce(mesh.get("dimension"), 1, "problem.mesh.dimension")
    if dimension not in (1, 2):
        raise ConfigError("problem.mesh.dimension: must be 1 or 2")
    n = _coerce(mesh.get("n"), 1, "problem.mesh.n")
    if n < dimension:  # a 1 x 1 unit square has no free node and no friction node
        raise ConfigError(f"problem.mesh.n: must be an integer >= {dimension} at dimension {dimension}")
    form = block.get("form", "grad_grad")
    if form not in FORMS:
        raise ConfigError(f"problem.form: unknown form {form!r}")
    source = _coerce(block.get("source", 1.0), 1.0, "problem.source")

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
        a, b = (_coerce(v, 0.0, "problem.mesh.interval") for v in interval)
        if not a < b:
            raise ConfigError("problem.mesh.interval: expected [a, b] with a < b")
        out["mesh"]["interval"] = [a, b]
    elif "interval" in mesh:
        raise ConfigError("problem.mesh.interval: unknown field at dimension 2")
    return out


def _validate_experiment(block, problem) -> dict:
    kind = block.get("kind") if isinstance(block, dict) else None
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment.kind: expected one of {', '.join(EXPERIMENT_KINDS)}, got {kind!r}")
    out = {"kind": kind, **_fields(block, _EXPERIMENTS[kind], "experiment", ("kind",))}
    for key, minimum in _MINIMA.items():
        if out.get(key, minimum) < minimum:
            raise ConfigError(f"experiment.{key}: must be >= {minimum}")
    if kind != "forward" and out.get("eps") == 0:
        raise ConfigError(f"experiment.eps: must be positive for {kind}")
    if out.get("fd_step", 1.0) <= 0:  # the central difference divides by it
        raise ConfigError("experiment.fd_step: must be positive")
    sched = out.get("eps_schedule", [])
    if any(b >= a for a, b in zip(sched[:-1], sched[1:])):
        raise ConfigError("experiment.eps_schedule: must be strictly decreasing")
    for key in ("true_ellipticity", "initial_ellipticity", "true_friction", "initial_friction"):
        name = key.partition("_")[2]
        lower, upper = problem[name]["lower"], problem[name]["upper"]
        if not lower <= out.get(key, lower) <= upper:
            raise ConfigError(f"experiment.{key}: must lie in problem.{name}'s [{lower}, {upper}]")
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
        # libyaml's parser when PyYAML was built with it, else the Python one
        raw = yaml.load(path.read_text(), Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _mapping(raw, "", ("problem", "kernel", "solver", "experiment", "output"))

    problem = _validate_problem(_require(raw, "problem", str(path)))
    kernel = raw.get("kernel", "sqrt")
    if kernel not in KERNEL_NAMES:
        raise ConfigError(f"kernel: unknown kernel {kernel!r}; choose one of {', '.join(KERNEL_NAMES)}")
    solver = _fields(raw.get("solver"), _SOLVER, "solver")
    for key, tol in solver.items():
        if tol <= 0:
            raise ConfigError(f"solver.{key}: must be positive")
    experiment = _validate_experiment(_require(raw, "experiment", str(path)), problem)
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


_PLAIN = frozenset({float, int, str})  # the cell types csv writes as emit_csv does


def _plain(row):
    """``row`` with numpy scalars as the Python numbers they hold and bools as
    0 or 1; a row of Python floats, ints and strings is returned as it is."""
    row = tuple(row)  # a row may be an iterator, read once
    if _PLAIN.issuperset(map(type, row)):
        return row
    return [x.item() if isinstance(x, np.generic) else int(x) if isinstance(x, bool) else x for x in row]


def emit_csv(rows, path: str | Path, header: list[str]) -> None:
    """Write rows as CSV with a header; floats keep full round-trip precision
    (``repr``), integers are written in decimal."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_plain, rows))


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
