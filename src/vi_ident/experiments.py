"""Experiment orchestration behind the CLI subcommands.

Each runner takes a validated :class:`~vi_ident.config.ExperimentConfig`,
writes CSV results plus a JSON manifest into the output directory, and
returns a results dictionary whose ``checks_passed`` entry drives the CLI's
``--strict`` exit code.  Runs are deterministic given (config, seed).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from .adjoint import LinearizedMap, adjoint_solve, reduced_gradients, reduced_objective
from .config import ExperimentConfig, emit_csv, write_manifest
from .discretization import (
    ParameterField,
    build_mesh,
    ellipticity_field,
    friction_field,
    v_norm,
)
from .errors import ConfigError, SolverError
from .forward import Problem, solution_map
from .identify import (
    IdentificationConfig,
    continuation_distances,
    continuation_identify,
    identify,
    synthesize_observation,
)
from .kernels import get_kernel, modulus_smooth, plus_smooth

__all__ = [
    "make_problem",
    "run_forward",
    "run_kernel_bound_check",
    "run_rate_study",
    "run_gradient_check",
    "run_identify",
    "run_continuation",
    "run_experiment",
]


def make_problem(cfg: ExperimentConfig):
    """Build (problem, e_field, f_field) from the config's problem block."""
    pb = cfg.problem
    mesh = build_mesh(pb["mesh"])
    problem = Problem(mesh, pb["form"], pb["source"])
    fields = []
    for name, make in (("ellipticity", ellipticity_field), ("friction", friction_field)):
        block = pb[name]
        try:  # a value list of the wrong length, or values outside the bounds
            fields.append(make(mesh, block["value"], block["lower"], block["upper"]))
        except ValueError as exc:
            raise ConfigError(f"problem.{name}.value: {exc}") from None
    return problem, *fields


def _solution_rows(mesh, u):
    rows = [(i, *x, value) for i, (x, value) in enumerate(zip(mesh.nodes.tolist(), u.tolist()))]
    return rows, ["node", "x", "value"] if mesh.dimension == 1 else ["node", "x", "y", "value"]


def run_forward(cfg: ExperimentConfig, out_dir: Path, seed: int) -> dict:
    """Solve the forward problem once (oracle at eps = 0) and dump u."""
    problem, e, f = make_problem(cfg)
    eps = cfg.experiment["eps"]
    kernel = get_kernel(cfg.kernel) if eps > 0 else None
    tol = cfg.solver["newton_tol"] if eps > 0 else cfg.solver["oracle_tol"]
    state = solution_map(e, f, eps, problem, kernel, tol=tol)
    rows, header = _solution_rows(problem.mesh, state.u)
    emit_csv(rows, out_dir / "solution.csv", header)
    return {
        "eps": eps,
        "iterations": state.iterations,
        "residual": state.residual_norm,
        "max_u": float(np.abs(state.u).max()),
        "checks_passed": True,
    }


def run_kernel_bound_check(cfg: ExperimentConfig, out_dir: Path, seed: int) -> dict:
    """Worst-case ratios |P-p|/(k eps) and |M-m|/(2 k eps) per kernel."""
    exp = cfg.experiment
    t = np.linspace(-exp["t_range"], exp["t_range"], exp["t_points"])
    rows = []
    worst = {}
    for name in exp["kernels"]:
        kernel = get_kernel(name)
        k = kernel.absolute_mean_k
        ratio_p = 0.0
        ratio_m = 0.0
        for eps in exp["eps_list"]:
            P = plus_smooth(kernel, eps, t).value
            M = modulus_smooth(kernel, eps, t).value
            ratio_p = max(ratio_p, float(np.abs(P - np.maximum(t, 0.0)).max() / (k * eps)))
            ratio_m = max(ratio_m, float(np.abs(M - np.abs(t)).max() / (2.0 * k * eps)))
        passed = ratio_p <= 1.0 + 1e-9 and ratio_m <= 1.0 + 1e-9
        rows.append((name, ratio_p, ratio_m, int(passed)))
        worst[name] = {"ratio_P": ratio_p, "ratio_M": ratio_m, "passed": passed}
    emit_csv(rows, out_dir / "kernel_check.csv", ["kernel", "max_ratio_P", "max_ratio_M", "passed"])
    return {"ratios": worst, "checks_passed": all(w["passed"] for w in worst.values())}


def run_rate_study(cfg: ExperimentConfig, out_dir: Path, seed: int) -> dict:
    """Regularization error ||u_eps - u||_V per kernel and eps, with slopes."""
    problem, e, f = make_problem(cfg)
    mesh = problem.mesh
    exp = cfg.experiment
    oracle = solution_map(e, f, 0.0, problem, tol=cfg.solver["oracle_tol"])
    gram = problem.v_gram
    rows = []
    slopes = {}
    for name in exp["kernels"]:
        kernel = get_kernel(name)
        errors = []
        for eps in exp["eps_list"]:
            try:
                state = solution_map(e, f, eps, problem, kernel, tol=cfg.solver["newton_tol"])
                err = v_norm(mesh, state.u - oracle.u, gram)
                rows.append((name, eps, err, "ok"))
                errors.append((eps, err))
            except SolverError as exc:  # keep the study alive, flag the row
                rows.append((name, eps, float("nan"), f"failed: {exc}"))
        usable = [(a, b) for a, b in errors if b > 1e-14]
        if len(usable) >= 2:
            le = np.log10([a for a, _ in usable])
            lr = np.log10([b for _, b in usable])
            slopes[name] = float(np.polyfit(le, lr, 1)[0])
        else:
            slopes[name] = None  # degenerate (e.g. f = 0): fit skipped
    emit_csv(rows, out_dir / "rate_study.csv", ["kernel", "eps", "error_V", "status"])
    emit_csv(
        [(k, s if s is not None else "skipped") for k, s in slopes.items()],
        out_dir / "slopes.csv",
        ["kernel", "slope"],
    )
    passed = all(s is None or s >= 0.5 for s in slopes.values())
    return {"slopes": slopes, "checks_passed": passed}


def run_gradient_check(cfg: ExperimentConfig, out_dir: Path, seed: int) -> dict:
    """Adjoint directional derivatives of the reduced objective vs central FD."""
    problem, e, f = make_problem(cfg)
    exp = cfg.experiment
    kernel = get_kernel(cfg.kernel)
    eps = exp["eps"]
    alpha, beta = exp["alpha"], exp["beta"]
    h = exp["fd_step"]
    tol = cfg.solver["newton_tol"]

    rng = np.random.default_rng(seed)
    directions = []
    for _ in range(exp["n_directions"]):
        de = rng.standard_normal(e.values.size)
        df = rng.standard_normal(f.values.size)
        scale = np.sqrt(np.sum(de**2) + np.sum(df**2))
        directions.append((de / scale, df / scale))
        for name, field, d in zip(("ellipticity", "friction"), (e, f), directions[-1]):
            for point in (field.values + h * d, field.values - h * d):
                if not np.array_equal(field.project(point), point):
                    raise ConfigError(
                        f"experiment.fd_step: a central-difference point at step {h} leaves "
                        f"problem.{name}'s box [{field.lower_bound}, {field.upper_bound}]"
                    )

    observation = synthesize_observation(problem, e, f, noise_level=0.05, seed=seed)
    state = solution_map(e, f, eps, problem, kernel, tol=tol)
    lm = LinearizedMap(state, problem, e, f, kernel, eps)
    p = adjoint_solve(state, problem, e, f, kernel, eps, observation, linmap=lm)
    bundle = reduced_gradients(state, p, problem, e, f, kernel, eps, alpha, beta, linmap=lm)

    rows = []
    worst = 0.0
    for idx, (de, df) in enumerate(directions):
        adj = float(bundle.grad_e @ de + bundle.grad_f @ df)
        plus_v, _, _ = reduced_objective(
            e.with_values(e.values + h * de), f.with_values(f.values + h * df),
            problem, observation, kernel, eps, alpha, beta, tol=tol, u0_full=state.u,
        )
        minus_v, _, _ = reduced_objective(
            e.with_values(e.values - h * de), f.with_values(f.values - h * df),
            problem, observation, kernel, eps, alpha, beta, tol=tol, u0_full=state.u,
        )
        fd = (plus_v - minus_v) / (2.0 * h)
        rel = abs(adj - fd) / max(abs(adj), abs(fd), 1e-14)
        worst = max(worst, rel)
        rows.append((idx, adj, fd, rel))
    emit_csv(rows, out_dir / "gradient_check.csv",
             ["direction", "adjoint_gradient", "fd_gradient", "relative_error"])
    return {
        "worst_relative_error": worst,
        "tolerance": exp["tolerance"],
        "checks_passed": worst <= exp["tolerance"],
    }


def _twin_setup(cfg: ExperimentConfig, seed: int):
    problem, e, f = make_problem(cfg)  # the twin's fields keep their bounds and Grams
    exp = cfg.experiment
    e_true, e_init = (e.with_values(np.full_like(e.values, exp[k])) for k in ("true_ellipticity", "initial_ellipticity"))
    f_true, f_init = (f.with_values(np.full_like(f.values, exp[k])) for k in ("true_friction", "initial_friction"))
    observation = synthesize_observation(problem, e_true, f_true, exp["noise_level"], seed)
    return problem, observation, e_true, f_true, e_init, f_init


def _ident_config(cfg: ExperimentConfig, eps_schedule) -> IdentificationConfig:
    exp = cfg.experiment
    return IdentificationConfig(
        alpha=exp["alpha"],
        beta=exp["beta"],
        eps_schedule=tuple(eps_schedule),
        max_iters=exp["max_iters"],
        stop_tol=exp["stop_tol"],
        forward_tol=cfg.solver["newton_tol"],
    )


def _dump_parameters(out_dir: Path, e: ParameterField, f: ParameterField):
    rows = [("ellipticity", i, v) for i, v in enumerate(e.values.tolist())]
    rows += [("friction", i, v) for i, v in enumerate(f.values.tolist())]
    emit_csv(rows, out_dir / "parameters.csv", ["field", "index", "value"])


def run_identify(cfg: ExperimentConfig, out_dir: Path, seed: int) -> dict:
    """Twin-experiment identification at a single eps."""
    problem, observation, e_true, f_true, e0, f0 = _twin_setup(cfg, seed)
    exp = cfg.experiment
    kernel = get_kernel(cfg.kernel)
    icfg = _ident_config(cfg, (exp["eps"],))
    res = identify(
        icfg, problem, observation, e0, f0, kernel, exp["eps"],
        free_e=exp["free_e"], free_f=exp["free_f"],
    )
    emit_csv(
        [(i, obj, st[0], st[1]) for i, (obj, st) in
         enumerate(zip(res.objective_history, res.stationarity_history))],
        out_dir / "iterations.csv",
        ["iter", "objective", "stationarity_e", "stationarity_f"],
    )
    _dump_parameters(out_dir, res.e_hat, res.f_hat)
    st_e, st_f = res.stationarity_history[-1]
    return {
        "eps": exp["eps"],
        "iterations": len(res.objective_history) - 1,
        "objective": res.objective_history[-1],
        "misfit": res.misfit,
        "stationarity_e": st_e,
        "stationarity_f": st_f,
        "f_error_max": float(np.abs(res.f_hat.values - f_true.values).max()),
        "e_error_max": float(np.abs(res.e_hat.values - e_true.values).max()),
        "stop_reason": res.stop_reason,
        "forward_solves": res.forward_solves,
        "method": res.method,
        "checks_passed": max(st_e, st_f) <= icfg.stop_tol,
    }


def run_continuation(cfg: ExperimentConfig, out_dir: Path, seed: int) -> dict:
    """Identification over the eps schedule with warm starts and distances.

    The checks pass when the successive distances decrease and every level
    ends at a stationarity of at most ``stop_tol``.
    """
    problem, observation, e_true, f_true, e0, f0 = _twin_setup(cfg, seed)
    exp = cfg.experiment
    kernel = get_kernel(cfg.kernel)
    schedule = exp["eps_schedule"]
    icfg = _ident_config(cfg, schedule)
    results = continuation_identify(
        icfg, problem, observation, e0, f0, kernel,
        free_e=exp["free_e"], free_f=exp["free_f"],
    )
    dist = continuation_distances(results)
    rows = []
    for level, res in enumerate(results):
        st_e, st_f = res.stationarity_history[-1]
        succ = dist["successive"][level - 1] if level > 0 else float("nan")
        rows.append(
            (level, res.eps_used, res.objective_history[-1], st_e, st_f,
             dist["to_final"][level], succ)
        )
    emit_csv(rows, out_dir / "continuation.csv",
             ["level", "eps", "objective", "stationarity_e", "stationarity_f",
              "distance_to_final", "successive_distance"])
    _dump_parameters(out_dir, results[-1].e_hat, results[-1].f_hat)
    return {
        "eps_schedule": list(schedule),
        "successive_distances": dist["successive"],
        "distance_to_final": dist["to_final"],
        "successive_decreasing": dist["successive_decreasing"],
        "f_error_max": float(np.abs(results[-1].f_hat.values - f_true.values).max()),
        "stop_reasons": [res.stop_reason for res in results],
        "forward_solves": [res.forward_solves for res in results],
        "methods": [res.method for res in results],
        "checks_passed": dist["successive_decreasing"] and all(
            max(res.stationarity_history[-1]) <= icfg.stop_tol for res in results
        ),
    }


_RUNNERS = {
    "forward": run_forward,
    "kernel-check": run_kernel_bound_check,
    "rate-study": run_rate_study,
    "gradient-check": run_gradient_check,
    "identify": run_identify,
    "continuation": run_continuation,
}


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None, seed: int = 0):
    """Dispatch on the experiment kind; returns (results, manifest path)."""
    kind = cfg.experiment["kind"]
    runner = _RUNNERS.get(kind)
    if runner is None:
        raise ConfigError(f"experiment.kind: no runner for {kind!r}")
    out = Path(out_dir) if out_dir is not None else Path(cfg.output)
    started = time.perf_counter()
    results = runner(cfg, out, seed)
    manifest = write_manifest(out, cfg, seed, results, started)
    return results, manifest
