"""Acceptance gate: the nine package-level checks, one test each.

Each test prints a single summary line (visible in captured output and with
``-s``) and enforces its numeric tolerance and runtime budget.  The checks
pit the library against independent routes: direct quadrature of the
smoothing convolutions, the closed-form slip/stick solution of the 1D
benchmark, central finite differences, and the continuation manifest.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from vi_ident import (
    IdentificationConfig,
    LinearizedMap,
    Problem,
    adjoint_solve,
    assemble_operator,
    ellipticity_field,
    friction_field,
    get_kernel,
    identify,
    interval_mesh,
    modulus_smooth,
    plus_smooth,
    reduced_gradients,
    reduced_objective,
    solution_derivative,
    solution_map,
    solve_regularized,
    solve_vi_oracle,
    synthesize_observation,
    unit_square_mesh,
    v_norm,
)
from vi_ident.discretization import h1_gram
from vi_ident.kernels import KERNEL_NAMES

from .helpers import (
    DENSITIES,
    benchmark_tip,
    convolution_plus,
    quadrature_absolute_mean,
)


def report(index: int, label: str, passed: bool, detail: str, dt: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {index} ({label}): {status} — {detail} ({dt:.2f}s)")


# -----------------------------------------------------------------------------


def test_criterion_1_kernel_closed_forms_match_convolution():
    t0 = time.perf_counter()
    eps_grid = np.logspace(-2, 0, 50)
    t_grid = np.linspace(-3.0, 3.0, 50)
    worst = 0.0
    for name in KERNEL_NAMES:
        kernel = get_kernel(name)
        density, support = DENSITIES[name]
        for eps in eps_grid:
            closed = plus_smooth(kernel, eps, t_grid).value
            ref = np.array([convolution_plus(density, eps, float(t), support) for t in t_grid])
            worst = max(worst, float(np.max(np.abs(closed - ref))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 5.0
    report(1, "closed forms vs numerical convolution", ok, f"max gap {worst:.2e}", dt)
    assert worst <= 1e-8
    assert dt < 5.0


def test_criterion_2_approximation_bounds_and_constants():
    t0 = time.perf_counter()
    eps_grid = np.logspace(-3, 0, 30)
    t_grid = np.linspace(-6.0, 6.0, 601)
    worst_ratio_p = 0.0
    worst_ratio_m = 0.0
    worst_k_gap = 0.0
    for name in KERNEL_NAMES:
        kernel = get_kernel(name)
        density, support = DENSITIES[name]
        k = kernel.absolute_mean_k
        worst_k_gap = max(worst_k_gap, abs(quadrature_absolute_mean(density, support) - k))
        for eps in eps_grid:
            gap_p = np.abs(plus_smooth(kernel, eps, t_grid).value - np.maximum(t_grid, 0.0))
            gap_m = np.abs(modulus_smooth(kernel, eps, t_grid).value - np.abs(t_grid))
            worst_ratio_p = max(worst_ratio_p, float(gap_p.max()) / (k * eps))
            worst_ratio_m = max(worst_ratio_m, float(gap_m.max()) / (2.0 * k * eps))
    dt = time.perf_counter() - t0
    ok = worst_ratio_p <= 1 + 1e-9 and worst_ratio_m <= 1 + 1e-9 and worst_k_gap <= 1e-10 and dt < 5.0
    report(
        2,
        "plus/modulus bounds and absolute means",
        ok,
        f"ratios ({worst_ratio_p:.12f}, {worst_ratio_m:.12f}), k gap {worst_k_gap:.2e}",
        dt,
    )
    assert worst_ratio_p <= 1 + 1e-9
    assert worst_ratio_m <= 1 + 1e-9
    assert worst_k_gap <= 1e-10
    assert dt < 5.0


def test_criterion_3_oracle_reproduces_the_benchmark_table():
    t0 = time.perf_counter()
    mesh = interval_mesh(0.0, 1.0, 256)
    e = ellipticity_field(mesh, 1.0)
    op = assemble_operator(mesh, e)
    worst = 0.0
    for f_val in (0.0, 0.1, 0.25, 0.4, 0.5, 1.0):
        state = solve_vi_oracle(op, mesh, friction_field(mesh, f_val))
        worst = max(worst, abs(float(state.u[-1]) - benchmark_tip(f_val)))
    dt = time.perf_counter() - t0
    ok = worst <= 2e-3 and dt < 1.0
    report(3, "slip/stick table at n=256", ok, f"max |u(1) - exact| {worst:.2e}", dt)
    assert worst <= 2e-3
    assert dt < 1.0


def test_criterion_4_regularization_error_rate():
    t0 = time.perf_counter()
    mesh = interval_mesh(0.0, 1.0, 64)
    e = ellipticity_field(mesh, 1.0)
    f = friction_field(mesh, 1.0)  # stick shows the generic rate
    op = assemble_operator(mesh, e)
    exact = solve_vi_oracle(op, mesh, f, tol=1e-12)
    gram = h1_gram(mesh)
    eps_list = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    slopes = {}
    for name in KERNEL_NAMES:
        kernel = get_kernel(name)
        errors = []
        for eps in eps_list:
            state = solve_regularized(op, mesh, f, kernel, float(eps), tol=1e-11, u0_full=exact.u)
            errors.append(v_norm(mesh, state.u - exact.u, gram=gram))
        slopes[name] = float(np.polyfit(np.log(eps_list), np.log(errors), 1)[0])
    dt = time.perf_counter() - t0
    ok = all(s >= 0.5 for s in slopes.values()) and dt < 10.0
    detail = ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
    report(4, "error rate in eps", ok, f"slopes {detail}", dt)
    assert all(s >= 0.5 for s in slopes.values()), slopes
    assert dt < 10.0


def test_criterion_5_sensitivities_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    fd_step = 1e-5
    tol = 3e-13
    worst = 0.0

    def check(problem, mesh, e, f, eps, n_dirs):
        nonlocal worst
        state = solution_map(e, f, eps, problem, kernel=kernel, tol=tol)
        lin = LinearizedMap(state, problem, e, f, kernel, eps)
        for _ in range(n_dirs):
            de = rng.standard_normal(mesh.n_elements)
            df = rng.standard_normal(mesh.friction_nodes.size)
            joint = solution_derivative(state, problem, e, f, kernel, eps, np.concatenate([de, df]), linmap=lin)

            def solved(t):
                ev = e.with_values(e.values + t * de)
                fv = f.with_values(f.values + t * df)
                return solution_map(ev, fv, eps, problem, kernel=kernel, tol=tol, u0_full=state.u).u

            fd = (solved(fd_step) - solved(-fd_step)) / (2.0 * fd_step)
            rel = float(np.max(np.abs(joint - fd)) / max(np.max(np.abs(fd)), 1e-14))
            worst = max(worst, rel)

    kernel = get_kernel("sigmoid")
    mesh = interval_mesh(0.0, 1.0, 128)
    problem = Problem(mesh)
    for _ in range(10):
        e = ellipticity_field(mesh, rng.uniform(0.5, 2.0, mesh.n_elements))
        f = friction_field(mesh, rng.uniform(0.05, 1.5, 1))
        for eps in (1e-1, 1e-2):
            check(problem, mesh, e, f, eps, n_dirs=5)

    mesh2 = unit_square_mesh(8)
    problem2 = Problem(mesh2)
    e2 = ellipticity_field(mesh2, rng.uniform(0.8, 1.5, mesh2.n_elements))
    f2 = friction_field(mesh2, rng.uniform(0.02, 0.1, mesh2.friction_nodes.size))
    for eps in (1e-1, 1e-2):
        check(problem2, mesh2, e2, f2, eps, n_dirs=5)

    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 30.0
    report(5, "forward sensitivities vs central differences", ok, f"worst rel err {worst:.2e}", dt)
    assert worst <= 1e-5
    assert dt < 30.0


def test_criterion_6_reduced_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    kernel = get_kernel("sigmoid")
    mesh = interval_mesh(0.0, 1.0, 64)
    problem = Problem(mesh)
    observation = synthesize_observation(
        problem, ellipticity_field(mesh, 1.0), friction_field(mesh, 0.25)
    )
    e = ellipticity_field(mesh, 1.2)
    f = friction_field(mesh, 0.3)
    eps, alpha, beta = 1e-2, 1e-8, 1e-8
    tol = 1e-13
    state = solution_map(e, f, eps, problem, kernel=kernel, tol=tol)
    p = adjoint_solve(state, problem, e, f, kernel, eps, observation)
    bundle = reduced_gradients(state, p, problem, e, f, kernel, eps, alpha, beta)

    def objective(ev, fv):
        value, _, _ = reduced_objective(
            ev, fv, problem, observation, kernel, eps, alpha, beta, tol=tol, u0_full=state.u
        )
        return value

    worst = 0.0
    h = 1e-5
    for _ in range(5):
        de = rng.standard_normal(mesh.n_elements)
        df = rng.standard_normal(1)
        adjoint_dir = float(bundle.grad_e @ de + bundle.grad_f @ df)
        plus = objective(e.with_values(e.values + h * de), f.with_values(f.values + h * df))
        minus = objective(e.with_values(e.values - h * de), f.with_values(f.values - h * df))
        fd_dir = (plus - minus) / (2.0 * h)
        worst = max(worst, abs(adjoint_dir - fd_dir) / max(abs(fd_dir), 1e-14))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 10.0
    report(6, "reduced gradients vs central differences", ok, f"worst rel err {worst:.2e}", dt)
    assert worst <= 1e-6
    assert dt < 10.0


def test_criterion_7_adjoint_norm_bounded_across_eps():
    t0 = time.perf_counter()
    kernel = get_kernel("sigmoid")
    mesh = interval_mesh(0.0, 1.0, 64)
    problem = Problem(mesh)
    observation = synthesize_observation(
        problem, ellipticity_field(mesh, 1.0), friction_field(mesh, 0.25)
    )
    e = ellipticity_field(mesh, 1.2)
    f = friction_field(mesh, 0.3)
    norms = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        state = solution_map(e, f, eps, problem, kernel=kernel, tol=1e-12)
        p = adjoint_solve(state, problem, e, f, kernel, eps, observation)
        norms.append(v_norm(mesh, p))
    ratio = max(norms) / min(norms)
    dt = time.perf_counter() - t0
    ok = ratio <= 10.0
    report(7, "adjoint V-norms uniformly bounded", ok, f"max/min ratio {ratio:.3f}", dt)
    assert ratio <= 10.0


def test_criterion_8_twin_experiment_identification():
    t0 = time.perf_counter()
    kernel = get_kernel("sigmoid")
    mesh = interval_mesh(0.0, 1.0, 32)
    problem = Problem(mesh)
    e_true = ellipticity_field(mesh, 1.0)
    f_true = friction_field(mesh, 0.25)
    observation = synthesize_observation(problem, e_true, f_true)
    eps = 1e-4

    # friction alone, ellipticity pinned at the truth
    cfg_a = IdentificationConfig(
        alpha=1e-8, beta=1e-8, eps_schedule=(eps,), max_iters=500,
        stop_tol=1e-9, forward_tol=1e-12,
    )
    res_a = identify(cfg_a, problem, observation, e_true, friction_field(mesh, 0.1),
                     kernel, eps, free_e=False)
    st_a = max(res_a.stationarity_history[-1])
    f_err = abs(float(res_a.f_hat.values[0]) - 0.25)

    # both fields free: non-uniqueness in e is expected, so only stationarity
    # and misfit are asserted; the V-norm misfit dominates the L2 one
    cfg_b = IdentificationConfig(
        alpha=1e-8, beta=1e-8, eps_schedule=(eps,), max_iters=15000,
        stop_tol=1e-10, misfit_norm="V", forward_tol=1e-12,
    )
    res_b = identify(cfg_b, problem, observation, ellipticity_field(mesh, 1.3),
                     friction_field(mesh, 0.1), kernel, eps)
    st_b = max(res_b.stationarity_history[-1])
    misfit_b = res_b.misfit

    dt = time.perf_counter() - t0
    ok = st_a <= 1e-8 and f_err <= 1e-3 and st_b <= 1e-6 and misfit_b <= 1e-10 and dt < 60.0
    report(
        8,
        "twin-experiment recovery",
        ok,
        f"f-only: st {st_a:.2e}, |f-f*| {f_err:.2e}; joint: st {st_b:.2e}, J {misfit_b:.2e}",
        dt,
    )
    assert st_a <= 1e-8
    assert f_err <= 1e-3
    assert st_b <= 1e-6
    assert misfit_b <= 1e-10
    assert dt < 60.0


def test_criterion_9_continuation_distances_decrease():
    t0 = time.perf_counter()
    import json

    from vi_ident.config import parse_config
    from vi_ident.experiments import run_experiment

    # run through the experiment runner so the verdict lands in the manifest
    import tempfile
    from pathlib import Path

    text = (
        "problem:\n  mesh: {dimension: 1, n: 32}\n"
        "kernel: sigmoid\n"
        "experiment:\n"
        "  kind: continuation\n"
        "  eps_schedule: [1.0e-1, 1.0e-2, 1.0e-3, 1.0e-4]\n"
        "  initial_friction: 1.0\n"
        "  stop_tol: 1.0e-9\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "continuation.yaml"
        cfg_path.write_text(text)
        cfg = parse_config(cfg_path)
        results, manifest_path = run_experiment(cfg, Path(tmp) / "out", seed=0)
        manifest = json.loads(Path(manifest_path).read_text())
    successive = results["successive_distances"]
    decreasing = bool(results["checks_passed"])
    reported = manifest["results"]["checks_passed"]
    dt = time.perf_counter() - t0
    detail = "distances " + ", ".join(f"{d:.3e}" for d in successive)
    report(9, "continuation settles as eps shrinks", decreasing and bool(reported), detail, dt)
    assert decreasing
    assert reported == decreasing  # the manifest carries the verdict either way
