"""Forward-solver tests: the nonsmooth oracle and the regularized Newton path."""
from __future__ import annotations

import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import lsq_linear
from scipy.sparse.linalg import splu, spsolve_triangular

from vi_ident import (
    LinearizedMap,
    Problem,
    SolverError,
    assemble_operator,
    ellipticity_field,
    friction_field,
    from_density,
    get_kernel,
    interval_mesh,
    solution_map,
    solve_regularized,
    solve_vi_oracle,
    unit_square_mesh,
    v_norm,
)
from vi_ident import adjoint, forward
from vi_ident.discretization import free_part, full_part
from vi_ident.forward import factorize
from vi_ident.kernels import KERNEL_NAMES, modulus_smooth

from .helpers import MESHES, benchmark_solution, benchmark_tip, nonsmooth_energy, smoothed_energy

KERNEL = get_kernel("sigmoid")


def benchmark(n: int):
    """The 1D benchmark at e = 1, factorized once for every solve of a test."""
    mesh = interval_mesh(0.0, 1.0, n)
    e = ellipticity_field(mesh, 1.0)
    f_of = lambda value: friction_field(mesh, value)
    fac = factorize(assemble_operator(mesh, e), mesh)
    return mesh, e, f_of, fac


def varied_operator(mesh, form="grad_grad"):
    j = np.arange(mesh.n_elements)
    return assemble_operator(mesh, ellipticity_field(mesh, 1.0 + 0.5 * np.sin(3.0 * j)), form)


# --- oracle ---------------------------------------------------------------------


@pytest.mark.parametrize("f_val", [0.0, 0.1, 0.25, 0.4, 0.5, 1.0])
def test_oracle_reproduces_the_closed_form(f_val):
    mesh, _, f_of, fac = benchmark(64)
    state = solve_vi_oracle(fac, mesh, f_of(f_val))
    x = mesh.nodes[:, 0]
    assert abs(state.u[-1] - benchmark_tip(f_val)) < 5e-4
    assert np.max(np.abs(state.u - benchmark_solution(f_val, x))) < 5e-4


def test_oracle_minimizes_the_nonsmooth_energy():
    # u solves the VI iff it minimizes 1/2 v^T K v - l^T v + sum w_i f_i |v_i|
    mesh, _, f_of, fac = benchmark(24)
    f = f_of(0.3)
    state = solve_vi_oracle(fac, mesh, f)
    u_free = free_part(mesh, state.u)
    e_star = nonsmooth_energy(fac, mesh, f, u_free)
    rng = np.random.default_rng(0)
    for scale in (1e-1, 1e-3, 1e-6):
        for _ in range(20):
            v = u_free + scale * rng.standard_normal(u_free.size)
            assert nonsmooth_energy(fac, mesh, f, v) >= e_star - 1e-14


@pytest.mark.parametrize("mesh_name", MESHES)
@pytest.mark.parametrize("form", ["grad_grad", "grad_grad_plus_mass"])
@pytest.mark.parametrize("friction", [0.05, 0.3, 1.0, "alternating"])
def test_oracle_subdifferential_conditions(mesh_name, form, friction):
    # K u - l = -E_D mu with |mu| <= w f, mu = w f sign(u) where u slips, and
    # u exactly 0 where mu lies inside the bound; "alternating" gives every
    # other friction node f = 0 (in 1D the only node), whose multiplier is 0
    mesh = MESHES[mesh_name]()
    op = varied_operator(mesh, form)
    m = mesh.friction_nodes.size
    f = friction_field(mesh, 0.5 * (np.arange(m) % 2) if friction == "alternating" else friction)
    state = solve_vi_oracle(op, mesh, f, tol=1e-12)
    u_free = free_part(mesh, state.u)
    resid = op.load - op.matrix @ u_free
    pos = mesh.friction_free_positions
    mu = resid[pos]
    bound = mesh.friction_weights * f.values
    u_d = state.u[mesh.friction_nodes]
    slipping = u_d != 0.0
    assert np.all(np.abs(mu[slipping] - bound[slipping] * np.sign(u_d[slipping])) < 1e-9)
    assert np.all(np.abs(mu) <= bound + 1e-9)
    # the stick nodes are pinned: exactly 0, not round-off
    assert np.all(u_d[np.abs(mu) < bound - 1e-9] == 0.0)
    # non-friction equations are satisfied exactly
    rest = np.setdiff1d(np.arange(u_free.size), pos)
    assert np.max(np.abs(resid[rest])) < 1e-9


@pytest.mark.parametrize("mesh_name", MESHES)
@pytest.mark.parametrize("form", ["grad_grad", "grad_grad_plus_mass"])
def test_the_residual_step_is_the_inverse_largest_absolute_row_sum(mesh_name, form):
    # the reference reads |K| as a sparse matrix of its own
    mesh = MESHES[mesh_name]()
    fac = factorize(varied_operator(mesh, form), mesh)
    expected = abs(fac.matrix).sum(axis=1).max()
    assert abs(fac.row_sum_norm - expected) <= 1e-15 * expected
    # the step of the oracle's proximal residual is 1 / max(1, |K|_inf)
    wf = mesh.friction_weights * 0.3
    u = np.linspace(0.1, 1.0, fac.load.size)
    tau = 1.0 / max(expected, 1.0)
    z = u - tau * (fac.matrix @ u - fac.load)
    z[fac.positions] = np.sign(z[fac.positions]) * np.maximum(np.abs(z[fac.positions]) - tau * wf, 0.0)
    assert forward._prox_residual(fac, wf, u) == pytest.approx(np.linalg.norm(u - z) / tau, rel=1e-14)


def test_oracle_zero_friction_is_linear_solve():
    mesh, _, f_of, fac = benchmark(16)
    state = solve_vi_oracle(fac, mesh, f_of(0.0))
    import scipy.sparse.linalg as spla

    direct = spla.spsolve(fac.matrix.tocsc(), fac.load)
    assert np.allclose(free_part(mesh, state.u), direct, atol=1e-12)


def test_oracle_monotone_in_friction():
    # larger friction never increases the tip displacement
    mesh, _, f_of, fac = benchmark(32)
    tips = [solve_vi_oracle(fac, mesh, f_of(v)).u[-1] for v in (0.0, 0.2, 0.4, 0.6)]
    assert all(b <= a + 1e-12 for a, b in zip(tips[:-1], tips[1:]))


# --- regularized solver -----------------------------------------------------------


@pytest.mark.parametrize("kernel_name", ["sigmoid", "sqrt", "uniform_centered", "uniform_shifted"])
@pytest.mark.parametrize("f_val", [0.25, 1.0])
def test_regularized_converges_to_oracle(kernel_name, f_val):
    # stick (f=1.0) shows the generic O(eps) decay; slip (f=0.25) can saturate
    # early because compact-support kernels become exact once eps is below the
    # slip magnitude, so there we only require monotone non-increase to a tiny
    # floor
    mesh, _, f_of, fac = benchmark(48)
    f = f_of(f_val)
    kernel = get_kernel(kernel_name)
    exact = solve_vi_oracle(fac, mesh, f, tol=1e-12)
    errors = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        state = solve_regularized(fac, mesh, f, kernel, eps, tol=1e-11)
        assert state.residual_norm <= 1e-11
        errors.append(v_norm(mesh, state.u - exact.u))
    assert all(b <= a + 1e-10 for a, b in zip(errors[:-1], errors[1:]))
    if f_val == 1.0:
        assert all(b < 0.5 * a for a, b in zip(errors[:-1], errors[1:]))
        assert errors[-1] < 2e-4
    else:
        assert errors[-1] < 1e-6


def test_regularized_residual_history_reaches_tolerance():
    # stick (f = 1.0): the smoothed solution leaves the oracle's x = 0, so
    # Newton must iterate from the oracle start
    mesh, _, f_of, fac = benchmark(32)
    state = solve_regularized(fac, mesh, f_of(1.0), KERNEL, 1e-3, tol=1e-12)
    assert state.residual_history[-1] == state.residual_norm
    assert state.residual_norm <= 1e-12
    assert state.eps == 1e-3
    assert state.iterations >= 1


def test_regularized_minimizes_the_smoothed_energy():
    mesh, _, f_of, fac = benchmark(24)
    f = f_of(0.4)
    state = solve_regularized(fac, mesh, f, KERNEL, 1e-2, tol=1e-12)
    u_free = free_part(mesh, state.u)
    e_star = smoothed_energy(fac, mesh, f, KERNEL, 1e-2, u_free)
    rng = np.random.default_rng(1)
    for _ in range(30):
        v = u_free + 1e-4 * rng.standard_normal(u_free.size)
        assert smoothed_energy(fac, mesh, f, KERNEL, 1e-2, v) >= e_star - 1e-15


def test_warm_start_is_consistent_and_cheap():
    mesh, _, f_of, fac = benchmark(48)
    f = f_of(0.25)
    cold = solve_regularized(fac, mesh, f, KERNEL, 1e-4, tol=1e-12)
    warm = solve_regularized(fac, mesh, f, KERNEL, 1e-4, tol=1e-12, u0_full=cold.u)
    assert np.allclose(cold.u, warm.u, atol=1e-10)
    assert warm.iterations <= cold.iterations


def test_warm_start_from_a_bad_guess_recovers():
    # a warm start far from the solution must not leave the solver stranded
    mesh, _, f_of, fac = benchmark(32)
    f = f_of(1.0)
    bad = np.full(mesh.n_nodes, 37.0)
    bad[mesh.dirichlet_nodes] = 0.0
    state = solve_regularized(fac, mesh, f, KERNEL, 1e-4, tol=1e-11, u0_full=bad)
    assert state.residual_norm <= 1e-11


def test_a_failed_warm_start_falls_back_to_the_cold_path(monkeypatch):
    # from 1e3 on every free node M'_eps saturates and Newton fails within
    # max_iter; the solver must then restart from the oracle's x
    mesh, _, f_of, fac = benchmark(16)
    f = f_of(1.0)
    oracle_runs = []
    active_set = forward._active_set

    def counting_active_set(*args):
        oracle_runs.append(args)
        return active_set(*args)

    monkeypatch.setattr(forward, "_active_set", counting_active_set)
    far = np.full(mesh.n_nodes, 1e3)
    far[mesh.dirichlet_nodes] = 0.0
    state = solve_regularized(fac, mesh, f, KERNEL, 1e-6, max_iter=5, u0_full=far)
    assert len(oracle_runs) == 1  # only the cold path runs the oracle
    cold = solve_regularized(fac, mesh, f, KERNEL, 1e-6, max_iter=5)
    assert np.array_equal(state.u, cold.u)


def test_2d_regularized_close_to_oracle():
    mesh = unit_square_mesh(8)
    e = ellipticity_field(mesh, 1.0)
    f = friction_field(mesh, 0.05)
    fac = factorize(assemble_operator(mesh, e), mesh)
    exact = solve_vi_oracle(fac, mesh, f, tol=1e-12)
    state = solve_regularized(fac, mesh, f, KERNEL, 1e-4, tol=1e-11)
    assert v_norm(mesh, state.u - exact.u) < 1e-2 * max(v_norm(mesh, exact.u), 1.0)


def _reproducer(n: int, s: float):
    mesh = unit_square_mesh(n)
    j = np.arange(mesh.n_elements)
    e = ellipticity_field(mesh, 1.0 + 0.9 * np.sin(7.0 * j))
    x = mesh.nodes[mesh.friction_nodes, 0]
    f = friction_field(mesh, s * (0.5 + 0.5 * np.cos(5.0 * x)))
    source = lambda p: 10.0 * np.sin(3.0 * np.pi * p[:, 0]) * np.cos(2.0 * np.pi * p[:, 1])
    return mesh, e, f, source


def _a_priori_bound(kernel, eps, wf, e):
    """``|u_eps - u|_V <= sqrt(8 k eps sum(w f)) sqrt((1 + 1/pi^2) / min e)``:
    ``|M_eps - |t|| <= 2 k eps`` gives ``E(u_eps) - E(u) <= 4 k eps sum(w f)``,
    so ``|u_eps - u|_K <= sqrt(8 k eps sum(w f))``; with ``v = 0`` on x = 0 and
    x = 1, ``|v|_L2^2 <= |grad v|^2 / pi^2`` gives
    ``|v|_V^2 <= (1 + 1/pi^2) / min e |v|_K^2``."""
    return np.sqrt(8.0 * kernel.absolute_mean_k * eps * wf.sum()) * np.sqrt((1.0 + 1.0 / np.pi**2) / e.values.min())


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("s", [1.0, 5.0])
@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
def test_cold_smoothed_solve_converges_near_the_oracle(kernel_name, eps, s, n):
    # the smoothed solver must converge wherever the oracle does, from the
    # public cold path, for every built-in kernel down to eps = 1e-8
    tol = 1e-12  # the solver's default
    mesh, e, f, source = _reproducer(n, s)
    problem = Problem(mesh, source=source)
    kernel = get_kernel(kernel_name)
    exact = solution_map(e, f, 0.0, problem)
    state = solution_map(e, f, eps, problem, kernel)
    # residual recomputed from a separately assembled operator
    op = assemble_operator(mesh, e, "grad_grad", source)
    pos = mesh.friction_free_positions
    wf = mesh.friction_weights * f.values
    u = free_part(mesh, state.u)
    r = op.matrix @ u - op.load
    r[pos] += wf * modulus_smooth(kernel, eps, u[pos]).first_derivative
    assert np.linalg.norm(r) <= tol
    assert v_norm(mesh, state.u - exact.u) <= _a_priori_bound(kernel, eps, wf, e)


def _uniform_friction_input(n: int):
    mesh = unit_square_mesh(n)
    return mesh, ellipticity_field(mesh, 1.0), friction_field(mesh, 2.0), 10.0


COLD_INPUTS = {"forward_2d": lambda n: _reproducer(n, 1.0), "uniform_f2": _uniform_friction_input}


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("input_name", COLD_INPUTS)
@pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
def test_newton_from_zero_agrees_with_newton_from_the_oracle(kernel_name, input_name, n):
    # a start that reads nothing of the oracle: from x = 0 Newton takes up to
    # 115 iterations (uniform_centered at eps = 1e-6, n = 64), past the
    # library's cap of 100, which serves the start from the oracle's x
    mesh, e, f, source = COLD_INPUTS[input_name](n)
    problem = Problem(mesh, source=source)
    fac = problem.factorization(e)
    kernel = get_kernel(kernel_name)
    wf = mesh.friction_weights * f.values
    exact = solution_map(e, f, 0.0, problem)
    for eps in (1e-2, 1e-4, 1e-6):
        cold = forward._newton(fac, wf, kernel, eps, forward._NEWTON_TOL, 300, np.zeros(wf.size))
        warm = forward.solve_friction_set(fac, f, kernel, eps)
        assert np.linalg.norm(cold.x - warm.x) <= 1e-10 * np.linalg.norm(warm.x)
        assert v_norm(mesh, full_part(mesh, fac.extend(cold.x)) - exact.u) <= _a_priori_bound(kernel, eps, wf, e)


@pytest.mark.parametrize("input_name", COLD_INPUTS)
def test_the_preimage_start_cuts_the_newton_iterations_of_cold_solves(input_name):
    # a stick node of the oracle sits at x = 0, where M''_eps ~ 1/eps; the
    # cold start moves it to where w f M'_eps(x) is the oracle's multiplier
    mesh, e, f, source = COLD_INPUTS[input_name](32)
    fac = Problem(mesh, source=source).factorization(e)
    wf = mesh.friction_weights * f.values
    oracle = fac.oracle(wf)
    assert np.count_nonzero(oracle.x == 0.0) > 0
    iterations = {"oracle's x": 0, "preimage": 0}
    for kernel_name in KERNEL_NAMES:
        kernel = get_kernel(kernel_name)
        for eps in (1e-2, 1e-4, 1e-6):
            plain = forward._newton(fac, wf, kernel, eps, forward._NEWTON_TOL, 100, oracle.x)
            solution = forward.solve_friction_set(fac, f, kernel, eps)
            assert np.linalg.norm(solution.x - plain.x) <= 1e-12 * np.linalg.norm(plain.x)
            iterations["oracle's x"] += plain.iterations
            iterations["preimage"] += solution.iterations
    # measured: 49 -> 34 (forward_2d) and 40 -> 26 (uniform_f2)
    assert iterations["preimage"] <= 0.75 * iterations["oracle's x"], iterations


def test_the_cold_start_keeps_a_multiplier_on_the_bound_at_zero():
    # arctanh(+-1) is infinite: a zero x with |lam| = w f is not moved, nor is
    # a slip node or a node without friction
    wf = np.array([0.5, 0.5, 0.5, 0.5, 0.0])
    x, lam = np.array([0.0, 0.0, 0.0, 0.3, 0.0]), np.array([0.5, -0.5, 0.25, 0.5, 0.0])
    oracle = forward.OracleSolution(x, lam, 1)
    start = forward._cold_start(oracle, wf, KERNEL, 1e-3)
    assert np.array_equal(start, [0.0, 0.0, 2e-3 * np.arctanh(0.5), 0.3, 0.0])
    assert oracle.x[2] == 0.0  # the kept oracle solution is not modified


def test_a_kernel_without_an_inverse_starts_at_the_oracles_x():
    # a plug-in copy of the logistic kernel has no closed-form inverse of M_t
    mesh, e, f, source = _reproducer(16, 1.0)
    fac = Problem(mesh, source=source).factorization(e)
    wf = mesh.friction_weights * f.values
    logistic = from_density("logistic", KERNEL.density, KERNEL.absolute_mean_k)
    solution = forward.solve_friction_set(fac, f, logistic, 1e-4)
    plain = forward._newton(fac, wf, logistic, 1e-4, forward._NEWTON_TOL, 100, fac.oracle(wf).x)
    assert solution.iterations == plain.iterations > 0
    assert np.array_equal(solution.x, plain.x)
    builtin = forward.solve_friction_set(fac, f, KERNEL, 1e-4)
    assert np.linalg.norm(solution.x - builtin.x) <= 1e-12 * np.linalg.norm(builtin.x)


def test_plug_in_logistic_density_keeps_friction_at_small_eps():
    # P and P_t of a full-line plug-in density come from quadrature; far
    # beyond its window (x/eps ~ 2.5e5 here) they must still see the bulk of
    # the density, or M'_eps vanishes and friction is switched off
    mesh, _, f_of, fac = benchmark(16)
    f = f_of(0.25)
    logistic = from_density("logistic", KERNEL.density, KERNEL.absolute_mean_k)
    state = solve_regularized(fac, mesh, f, logistic, 1e-6)
    builtin = solve_regularized(fac, mesh, f, KERNEL, 1e-6)
    assert abs(state.u[-1] - benchmark_tip(0.25)) <= 2.0 * KERNEL.absolute_mean_k * 1e-6
    assert np.allclose(state.u, builtin.u, atol=1e-12)


def test_solver_error_carries_residual():
    # with |D| = 1 the gradient on D can round to exactly 0, which meets any
    # tol: from the preimage start Newton gets there within 3 iterations, so
    # the fault is a cap of 0
    mesh, _, f_of, fac = benchmark(32)
    with pytest.raises(SolverError, match="did not converge in 0 iterations") as err:
        solve_regularized(fac, mesh, f_of(1.0), KERNEL, 1e-6, tol=1e-30, max_iter=0)
    assert err.value.residual is not None and err.value.residual > 0


# --- a manufactured 2D Tresca solution ----------------------------------------------


def _manufactured(x, y):
    """``u = A(x)(1 - y) + B(x) y(1 - y)`` with ``A = 20 (x - 1/2)_+^3 (1 - x)``
    and ``B = 2 sin(pi x)``, ``-Delta u`` and ``B - A``: ``u`` is zero on
    x = 0, x = 1 and y = 1, stuck (``u = 0``) on the friction edge y = 0 for
    x <= 1/2 and slipping beyond, where the traction ``d_n u = A - B`` is
    ``-f``."""
    t = np.maximum(x - 0.5, 0.0)
    A, A_xx = 20.0 * t**3 * (1.0 - x), 120.0 * t * (1.0 - x - t)
    B, B_xx = 2.0 * np.sin(np.pi * x), -2.0 * np.pi**2 * np.sin(np.pi * x)
    return A * (1.0 - y) + B * y * (1.0 - y), -A_xx * (1.0 - y) - B_xx * y * (1.0 - y) + 2.0 * B, B - A


def _manufactured_problem(n: int):
    """The problem of :func:`_manufactured` on the n x n unit square, at
    e = 1: on the stick part f = B + 1/2 (1/2 - x) exceeds |d_n u| = B, on
    the slip part it equals it."""
    mesh = unit_square_mesh(n)
    problem = Problem(mesh, source=lambda p: _manufactured(p[:, 0], p[:, 1])[1])
    x = mesh.nodes[mesh.friction_nodes, 0]
    f = friction_field(mesh, _manufactured(x, 0.0)[2] + 0.5 * np.maximum(0.5 - x, 0.0))
    return mesh, problem, ellipticity_field(mesh, 1.0), f


def test_the_oracle_converges_to_a_manufactured_tresca_solution():
    # the discretization (lumped friction weights, one-point load rule, P1
    # friction term) against an exact solution
    errors = []
    for n in (16, 32, 64, 128):
        mesh, problem, e, f = _manufactured_problem(n)
        x = mesh.nodes[mesh.friction_nodes, 0]
        state = solution_map(e, f, 0.0, problem)
        err = free_part(mesh, state.u - _manufactured(*mesh.nodes.T)[0])
        errors.append(np.sqrt(err @ (problem.mass_gram @ err)))
        if n >= 64:  # below, one node next to the kink at x = 1/2 is read as slip
            assert np.array_equal(state.u[mesh.friction_nodes] == 0.0, x <= 0.5)
    # measured: 1.28e-3, 3.22e-4, 8.07e-5, 2.02e-5, rates 1.99, 2.00, 2.00
    assert np.all(np.log2(np.divide(errors[:-1], errors[1:])) >= 1.9)


@pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
def test_the_smoothed_manufactured_tresca_solution_is_within_the_a_priori_bound(kernel_name):
    # the paper's O(sqrt(eps)) on the manufactured problem, where half of D
    # sticks: every stick node starts off 0, at its multiplier's preimage
    mesh, problem, e, f = _manufactured_problem(64)
    exact = solution_map(e, f, 0.0, problem)
    wf = mesh.friction_weights * f.values
    kernel = get_kernel(kernel_name)
    for eps in (1e-3, 1e-5):
        state = solution_map(e, f, eps, problem, kernel)
        assert v_norm(mesh, state.u - exact.u) <= _a_priori_bound(kernel, eps, wf, e)


# --- dispatch -------------------------------------------------------------------


def test_solution_map_dispatches_on_eps():
    mesh = interval_mesh(0, 1, 32)
    problem = Problem(mesh)
    e = ellipticity_field(mesh, 1.0)
    f = friction_field(mesh, 0.25)
    exact = solution_map(e, f, 0.0, problem)
    smooth = solution_map(e, f, 1e-5, problem, kernel=KERNEL)
    assert exact.eps == 0.0
    assert smooth.eps == 1e-5
    assert np.max(np.abs(exact.u - smooth.u)) < 1e-3


def test_solution_map_rejects_negative_eps():
    mesh = interval_mesh(0, 1, 8)
    problem = Problem(mesh)
    e = ellipticity_field(mesh, 1.0)
    f = friction_field(mesh, 0.25)
    with pytest.raises(ValueError):
        solution_map(e, f, -1e-3, problem, kernel=KERNEL)


@pytest.mark.parametrize("case, message", [
    ("wrong_length", "friction field length must match the friction node count"),
    ("negative_oracle", "friction coefficient must be nonnegative"),
    ("negative_regularized", "friction coefficient must be nonnegative"),
    ("no_kernel", "a kernel is required for eps > 0"),
])
def test_the_forward_solvers_check_their_inputs(case, message):
    mesh = unit_square_mesh(8)
    problem = Problem(mesh)
    e = ellipticity_field(mesh, 1.0)
    fac = problem.factorization(e)
    negative = friction_field(mesh, -0.1, lower=-1.0)
    solves = {
        "wrong_length": lambda: solve_vi_oracle(fac, mesh, friction_field(unit_square_mesh(4), 0.1)),
        "negative_oracle": lambda: solve_vi_oracle(fac, mesh, negative),
        "negative_regularized": lambda: solve_regularized(fac, mesh, negative, KERNEL, 1e-2),
        "no_kernel": lambda: solution_map(e, friction_field(mesh, 0.1), 1e-2, problem),
    }
    with pytest.raises(ValueError, match=message):
        solves[case]()


def test_problem_operator_cache_reuses_assembly():
    mesh = interval_mesh(0, 1, 16)
    problem = Problem(mesh)
    e = ellipticity_field(mesh, 1.3)
    fac1 = problem.factorization(e)
    assert problem.factorization(ellipticity_field(mesh, 1.3)) is fac1  # equal values, one key
    # a different coefficient produces a different factorization
    fac3 = problem.factorization(ellipticity_field(mesh, 1.4))
    assert fac3 is not fac1
    assert fac3.load is fac1.load is problem.load


def test_factorize_returns_a_factorization_as_it_is():
    mesh = unit_square_mesh(8)
    op = varied_operator(mesh)
    fac = factorize(op, mesh)
    assert factorize(fac, mesh) is fac
    assert fac.matrix is op.matrix and fac.load is op.load
    # a raw operator keeps no factorization: each call makes a new one
    assert factorize(op, mesh) is not fac
    with pytest.raises(ValueError, match="another mesh"):
        factorize(fac, unit_square_mesh(8))
    with pytest.raises(ValueError, match="another mesh"):
        solve_vi_oracle(fac, unit_square_mesh(8), friction_field(mesh, 0.1))


def test_variable_coefficient_flux_balance():
    # -(e u')' = g with e piecewise constant: flux e*u' is continuous; the
    # discrete solution reproduces the exact nodal values for elementwise-
    # constant data up to the one-point quadrature error in the load
    n = 64
    mesh = interval_mesh(0, 1, n)
    vals = np.where(mesh.nodes[:-1, 0] < 0.5, 1.0, 2.0)
    e = ellipticity_field(mesh, vals)
    f = friction_field(mesh, 0.0)
    state = solve_vi_oracle(assemble_operator(mesh, e), mesh, f)
    # exact solution with sigma(x) = 1 - x (zero traction at the free end plus
    # unit load): u'(x) = (1 - x)/e(x)
    x = mesh.nodes[:, 0]
    u_exact = np.where(
        x <= 0.5,
        x - x * x / 2,
        (0.5 - 0.125) + ((x - x * x / 2) - 0.375) / 2.0,
    )
    assert np.max(np.abs(state.u - u_exact)) < 2e-3


# --- one factorization per coefficient ----------------------------------------------

@pytest.mark.parametrize("mesh_name", MESHES)
@pytest.mark.parametrize("form", ["grad_grad", "grad_grad_plus_mass"])
def test_schur_complement_matches_unit_solves(mesh_name, form):
    # S is the inverse of C = E_D^T T^{-1} E_D, built column by column
    # through an independent LU of T
    mesh = MESHES[mesh_name]()
    op = varied_operator(mesh, form)
    pos = mesh.friction_free_positions
    unit = np.zeros((op.load.size, pos.size))
    unit[pos, np.arange(pos.size)] = 1.0
    C = splu(op.matrix.tocsc()).solve(unit)[pos]
    fac = factorize(op, mesh)
    C_inv = np.linalg.inv(C)
    assert np.linalg.norm(fac.schur - C_inv) <= 1e-12 * np.linalg.norm(C_inv)


class MovedLU:
    """A SuperLU whose reported column order swaps the first and last dofs."""

    def __init__(self, lu):
        self.perm_r = lu.perm_r
        self.perm_c = lu.perm_c.copy()
        self.perm_c[[0, -1]] = self.perm_c[[-1, 0]]


def test_a_factorization_that_moves_the_friction_set_raises(monkeypatch):
    # SuperLU's perm_c composes the given order with its own postorder; if
    # that ever moves D out of the trailing block, U_DD is not C^{-1}
    monkeypatch.setattr(forward, "splu", lambda *args, **kwargs: MovedLU(splu(*args, **kwargs)))
    mesh = unit_square_mesh(8)
    with pytest.raises(SolverError, match="trailing block"):
        factorize(varied_operator(mesh), mesh)


def test_the_factorization_rejects_a_matrix_off_the_mesh_pattern():
    mesh = unit_square_mesh(8)
    op = varied_operator(mesh)
    pruned = op.matrix.copy()
    pruned.eliminate_zeros()  # the 2D stiffness stores zeros on the cell diagonals
    assert pruned.nnz < op.matrix.nnz
    with pytest.raises(ValueError, match="operator pattern"):
        factorize(replace(op, matrix=pruned), mesh)


def test_cold_smoothed_solves_reuse_the_oracle_at_the_same_friction(monkeypatch):
    runs = []
    active_set = forward._active_set

    def counting_active_set(*args, **kwargs):
        runs.append(args[1])
        return active_set(*args, **kwargs)

    monkeypatch.setattr(forward, "_active_set", counting_active_set)
    mesh = unit_square_mesh(16)
    fac = factorize(varied_operator(mesh), mesh)
    f = friction_field(mesh, 0.05)
    oracle = solve_vi_oracle(fac, mesh, f)
    kernels = itertools.cycle(KERNEL_NAMES)
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-4):
        state = solve_regularized(fac, mesh, f, get_kernel(next(kernels)), eps)
        assert v_norm(mesh, state.u - oracle.u) < 1e-2
    assert len(runs) == 1
    # the start is the oracle's: the same state as a fresh run from it; a raw
    # operator is factorized anew, with no oracle solution kept
    fresh = solve_regularized(varied_operator(mesh), mesh, f, KERNEL, 1e-6)
    assert np.array_equal(solve_regularized(fac, mesh, f, KERNEL, 1e-6).u, fresh.u)
    assert len(runs) == 2
    solve_regularized(fac, mesh, friction_field(mesh, 0.5), KERNEL, 1e-6)
    assert len(runs) == 3


@pytest.mark.parametrize("mesh_name", MESHES)
@pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
def test_shifted_solve_matches_a_direct_factorization(mesh_name, kernel_name, eps):
    mesh = MESHES[mesh_name]()
    op = varied_operator(mesh)
    fac = factorize(op, mesh)
    pos = mesh.friction_free_positions
    rng = np.random.default_rng(4)
    # friction values straddling the smoothing zone, where M'' ~ 1/eps
    u_d = eps * rng.uniform(-2.0, 2.0, pos.size)
    rhs = rng.standard_normal(op.load.size)
    for friction in (0.7, 0.0):  # 0: the zero shift, solved by T alone
        shift = mesh.friction_weights * friction * modulus_smooth(get_kernel(kernel_name), eps, u_d).second_derivative
        x = fac.solve_shifted(shift, rhs)
        J = op.matrix + sp.diags(np.bincount(pos, weights=shift, minlength=op.load.size))
        direct = splu(J.tocsc()).solve(rhs)
        assert np.linalg.norm(x - direct) <= 1e-12 * np.linalg.norm(direct)
        # the friction values are small where shift >> S and must keep their
        # own relative accuracy: the friction gradient is built from them
        assert np.abs(x[pos] - direct[pos]).max() <= 1e-12 * np.abs(direct[pos]).max()


def test_the_shifted_solve_takes_one_t_solve(monkeypatch):
    fac, shift, b, B = _schur_setup()
    solves = []
    solve = fac.solve
    monkeypatch.setattr(fac, "solve", lambda rhs: solves.append(np.shape(rhs)) or solve(rhs))
    for rhs in (np.ones(fac.load.size), np.ones((fac.load.size, 4))):
        fac.solve_shifted(shift, rhs)
    assert solves == [(fac.load.size,), (fac.load.size, 4)]


@pytest.mark.parametrize("mesh_name", ["1d", "2d"])
@pytest.mark.parametrize("f_val", [0.05, 1.0])
def test_residual_norm_is_the_full_space_residual_of_the_returned_state(mesh_name, f_val):
    # at |D| = 1 (1D) the residual on D alone can round to exactly zero
    mesh = MESHES[mesh_name]()
    fac = factorize(varied_operator(mesh), mesh)
    f = friction_field(mesh, f_val)
    K, load = fac.matrix, fac.load
    pos = mesh.friction_free_positions
    wf = mesh.friction_weights * f.values

    oracle = solve_vi_oracle(fac, mesh, f)
    u = free_part(mesh, oracle.u)
    tau = 1.0 / max(abs(K).sum(axis=1).max(), 1.0)
    z = u - tau * (K @ u - load)
    prox = z.copy()
    prox[pos] = np.sign(z[pos]) * np.maximum(np.abs(z[pos]) - tau * wf, 0.0)
    assert oracle.residual_norm == pytest.approx(np.linalg.norm(u - prox) / tau, rel=1e-9, abs=0.0)

    for kernel_name in KERNEL_NAMES:
        kernel = get_kernel(kernel_name)
        state = solve_regularized(fac, mesh, f, kernel, 1e-4)
        u = free_part(mesh, state.u)
        r = K @ u - load + np.bincount(
            pos, weights=wf * modulus_smooth(kernel, 1e-4, u[pos]).first_derivative, minlength=u.size
        )
        assert state.residual_norm == pytest.approx(np.linalg.norm(r), rel=1e-9, abs=0.0)
        assert state.residual_history[-1] == state.residual_norm


class CountingLU:
    """Wraps a SuperLU object and counts its full solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


def test_a_solve_at_a_factorized_operator_takes_one_back_substitution(monkeypatch):
    mesh = unit_square_mesh(16)
    f = friction_field(mesh, 0.05)
    fac = factorize(varied_operator(mesh), mesh)
    # build y, S and the extension's U_II once
    solve_regularized(fac, mesh, f, KERNEL, 1e-4)
    substitutions = []
    gstrs = forward.gstrs
    monkeypatch.setattr(forward, "gstrs", lambda *args: substitutions.append(args) or gstrs(*args))
    counting = fac._lu = CountingLU(fac._lu)
    for solve in (
        lambda: solve_vi_oracle(fac, mesh, f),
        lambda: solve_regularized(fac, mesh, f, KERNEL, 1e-6),
        lambda: solve_regularized(fac, mesh, friction_field(mesh, 1.0), get_kernel("sqrt"), 1e-8),
    ):
        before = len(substitutions)
        solve()
        assert (len(substitutions) - before, counting.solves) == (1, 0)


def test_one_factorization_serves_every_solve_at_one_coefficient(monkeypatch):
    factorizations = []

    def counting_splu(*args, **kwargs):
        factorizations.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(forward, "splu", counting_splu)
    mesh = unit_square_mesh(8)
    problem = Problem(mesh)
    e = ellipticity_field(mesh, 1.0)
    f = friction_field(mesh, 0.05)
    eps = 1e-3
    exact = solution_map(e, f, 0.0, problem)
    assert exact.iterations >= 1
    state = solve_regularized(problem.factorization(e), mesh, f, KERNEL, eps, tol=1e-11)
    warm = solution_map(e, f, eps, problem, KERNEL, u0_full=state.u)
    LinearizedMap(warm, problem, e, f, KERNEL, eps)
    ne = mesh.n_elements
    adjoint.solution_derivative(warm, problem, e, f, KERNEL, eps, np.repeat([1.0, 0.0], [ne, f.values.size]))
    adjoint.solution_derivative(warm, problem, e, f, KERNEL, eps, np.repeat([0.0, 1.0], [ne, f.values.size]))
    adjoint.adjoint_solve(warm, problem, e, f, KERNEL, eps, exact.u)
    assert len(factorizations) == 1


def test_only_the_operator_requested_last_keeps_its_factorization(monkeypatch):
    factorizations = []

    def counting_splu(*args, **kwargs):
        factorizations.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(forward, "splu", counting_splu)
    mesh = unit_square_mesh(8)
    problem = Problem(mesh)
    e1, e2 = ellipticity_field(mesh, 1.0), ellipticity_field(mesh, 2.0)
    f = friction_field(mesh, 0.05)
    solution_map(e1, f, 0.0, problem)
    fac1 = problem.factorization(e1)
    solution_map(e2, f, 0.0, problem)
    assert problem.factorization(e2) is not fac1
    # the problem no longer holds fac1, so its LU goes with the last reference
    fac1_ref = weakref.ref(fac1)
    del fac1
    assert fac1_ref() is None
    assert len(factorizations) == 2
    # e1 again assembles and factorizes anew
    problem.factorization(e1)
    assert len(factorizations) == 3


def test_the_problem_drops_its_factorization_before_building_the_next(monkeypatch):
    # two LUs alive at once would double the peak memory of a run that moves e
    mesh = unit_square_mesh(8)
    problem = Problem(mesh)
    last = weakref.ref(problem.factorization(ellipticity_field(mesh, 1.0)))
    alive_at_build = []

    def checking_splu(*args, **kwargs):
        alive_at_build.append(last() is not None)
        return splu(*args, **kwargs)

    monkeypatch.setattr(forward, "splu", checking_splu)
    last = weakref.ref(problem.factorization(ellipticity_field(mesh, 2.0)))
    problem.factorization(ellipticity_field(mesh, 3.0))
    assert alive_at_build == [False, False]


def test_a_friction_set_solution_records_its_point_and_not_its_factorization():
    mesh = unit_square_mesh(8)
    problem = Problem(mesh)
    e, f = ellipticity_field(mesh, 1.0), friction_field(mesh, 0.1)
    fac = problem.factorization(e)
    solution = forward.solve_friction_set(fac, f, KERNEL, 1e-3)
    assert np.array_equal(solution.wf, mesh.friction_weights * f.values)
    assert solution.kernel is KERNEL and solution.eps == 1e-3
    assert fac.oracle(solution.wf) is fac.oracle(mesh.friction_weights * f.values)  # the cold start, kept
    state = forward.friction_set_state(fac, solution)
    assert np.array_equal(state.u, solution_map(e, f, 1e-3, problem, KERNEL).u)
    # the solution keeps no reference to the LU of its T(e)
    problem.factorization(ellipticity_field(mesh, 2.0))
    fac_ref = weakref.ref(fac)
    del fac
    assert fac_ref() is None


def test_newton_raises_when_its_line_search_fails():
    # P smooths -|t| against Pt's +|t|, so the Newton direction of the
    # residual ascends the energy; with a zero density M'' = 0, the full step
    # overshoots the friction node, and the Armijo backtracking must give up
    sigmoid = get_kernel("sigmoid")
    contradictory = replace(
        sigmoid,
        kind="contradictory",
        P=lambda eps, t: -sigmoid.P(eps, t),
        density=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )
    mesh, _, f_of, fac = benchmark(16)
    with pytest.raises(SolverError, match="line search") as err:
        solve_regularized(fac, mesh, f_of(1.0), contradictory, 1e-2)
    assert err.value.residual > 0


def test_oracle_raises_when_its_active_set_is_wrong(monkeypatch):
    # a slip node reported inside its box is pinned to 0; the full-space
    # residual of the returned u must catch it
    def one_slip_node_flipped(*args, **kwargs):
        fit = lsq_linear(*args, **kwargs)
        fit.active_mask[np.flatnonzero(fit.active_mask)[0]] = 0.0
        return fit

    monkeypatch.setattr(forward, "lsq_linear", one_slip_node_flipped)
    mesh = MESHES["2d"]()
    with pytest.raises(SolverError, match="residual") as err:
        solve_vi_oracle(varied_operator(mesh), mesh, friction_field(mesh, 0.05))
    assert err.value.residual > 0


# --- non-finite values and failed Cholesky factorizations -------------------------


@pytest.mark.parametrize("solve", ["oracle", "newton", "newton_from_u0"])
def test_a_non_finite_friction_value_is_not_solved(solve):
    # min(nan) and nan > tol are both False, so a NaN in f passed every check
    # and came back as a state with residual_norm = nan
    mesh = unit_square_mesh(8)
    problem = Problem(mesh)
    e = ellipticity_field(mesh, 1.0)
    kernel = get_kernel("sqrt")
    u0 = solution_map(e, friction_field(mesh, 0.3), 1e-3, problem, kernel).u
    f = friction_field(mesh, 0.3)
    f.values[2] = np.nan  # fields reject a NaN when made, so sneak one in by mutating the array
    solves = {
        "oracle": lambda: solution_map(e, f, 0.0, problem),
        "newton": lambda: solution_map(e, f, 1e-3, problem, kernel),
        "newton_from_u0": lambda: solution_map(e, f, 1e-3, problem, kernel, u0_full=u0),
    }
    with pytest.raises(ValueError, match="friction coefficient must be finite"):
        solves[solve]()


def test_a_non_finite_start_falls_back_to_the_oracle_start():
    # a NaN start used to "converge" at once: nan > tol is False
    mesh = unit_square_mesh(8)
    problem = Problem(mesh)
    e, f = ellipticity_field(mesh, 1.0), friction_field(mesh, 0.3)
    kernel = get_kernel("sqrt")
    cold = solution_map(e, f, 1e-3, problem, kernel)
    warm = solution_map(e, f, 1e-3, problem, kernel, u0_full=np.full(mesh.n_nodes, np.nan))
    assert np.array_equal(warm.u, cold.u)
    assert warm.residual_norm <= 1e-12


def test_a_non_finite_residual_is_a_solver_error(monkeypatch):
    # an oracle whose x is not finite: its residual is NaN, and so is the
    # gradient of Newton started from it; both must fail, not return
    def non_finite_active_set(fac, wf):
        return forward.OracleSolution(np.full(wf.size, np.nan), np.full(wf.size, np.nan), 0)

    monkeypatch.setattr(forward, "_active_set", non_finite_active_set)
    mesh = unit_square_mesh(8)
    e, f = ellipticity_field(mesh, 1.0), friction_field(mesh, 0.3)
    with pytest.raises(SolverError, match="oracle residual nan") as err:
        solution_map(e, f, 0.0, Problem(mesh))
    assert np.isnan(err.value.residual)
    with pytest.raises(SolverError, match="eps 0.001") as err:
        solution_map(e, f, 1e-3, Problem(mesh), get_kernel("sqrt"))
    assert np.isnan(err.value.residual)


def _schur_setup():
    mesh = unit_square_mesh(16)
    fac = factorize(varied_operator(mesh), mesh)
    rng = np.random.default_rng(7)
    d = fac.positions.size
    return fac, rng.uniform(0.0, 50.0, d), rng.standard_normal(d), rng.standard_normal((d, 5))


def test_the_shifted_factor_and_solve_equal_scipys_cholesky_bitwise():
    from scipy.linalg import cho_factor, cho_solve

    fac, shift, b, B = _schur_setup()
    factor = fac.shifted_factor(shift)
    reference = cho_factor(fac.schur + np.diag(shift))
    assert np.array_equal(factor, reference[0])
    for rhs in (b, B):
        x = forward.cholesky_solve(factor, rhs)
        assert x.shape == rhs.shape
        assert np.array_equal(x, cho_solve(reference, rhs))
    assert np.array_equal(fac.shifted_factor(shift), factor)  # S itself is left as it was


def test_the_extension_keeps_x_on_the_friction_set_and_solves_off_it():
    fac, _, b, B = _schur_setup()
    off = np.setdiff1d(np.arange(fac.load.size), fac.positions)
    for x in (b, 100.0 * B[:, 0]):
        u = fac.extend(x)
        assert np.array_equal(u[fac.positions], x)
        r = fac.matrix @ u - fac.load
        round_off = 4.0 * np.finfo(float).eps * (fac.row_sum_norm * np.abs(u).max() + np.abs(fac.load).max())
        assert np.abs(r[off]).max() <= round_off


def test_the_extension_is_the_full_solve_with_the_multipliers_of_x():
    # lam = S (y_D - x) is the multiplier on D whose T-solve gives u_D = x
    fac, _, x, _ = _schur_setup()
    lam = fac.schur @ (fac.load_solution[fac.positions] - x)
    rhs = fac.load.copy()
    rhs[fac.positions] -= lam
    full = fac.solve(rhs)
    assert np.abs(fac.extend(x) - full).max() <= 1e-13 * np.abs(full).max()


def test_the_harmonic_extension_keeps_d_on_the_friction_set_and_solves_off_it():
    fac, _, b, B = _schur_setup()
    off = np.setdiff1d(np.arange(fac.load.size), fac.positions)
    for d in (b, 100.0 * B):
        Hd = fac.harmonic(d)
        assert Hd.shape == (fac.load.size, *d.shape[1:])
        assert np.array_equal(Hd[fac.positions], d)
        round_off = 4.0 * np.finfo(float).eps * fac.row_sum_norm * np.abs(Hd).max()
        assert np.abs((fac.matrix @ Hd)[off]).max() <= round_off


def test_the_harmonic_extension_carries_t_to_the_schur_complement():
    # H^T T H = S: the Steklov-Poincare form of the Schur complement
    fac, *_ = _schur_setup()
    S = fac.harmonic_transpose(fac.matrix @ fac.harmonic(np.eye(fac.positions.size)))
    assert np.abs(S - fac.schur).max() <= 1e-13 * np.abs(fac.schur).max()


@pytest.mark.parametrize("mesh", [interval_mesh(0.0, 1.0, 9), unit_square_mesh(16)], ids=["1d_9", "2d_16"])
def test_the_transposed_extension_solves_with_the_transpose_of_u(mesh):
    op = varied_operator(mesh)
    fac = factorize(op, mesh)
    lead = fac.load.size - fac.positions.size
    U = factorize(op, mesh)._lu.U  # an LU of its own: fac's U loses its diagonal
    gather = fac._back_substitution[2]
    rng = np.random.default_rng(6)
    for v in (rng.standard_normal(fac.load.size), rng.standard_normal((fac.load.size, 3))):
        p = np.empty_like(v)
        p[gather] = v  # the LU's column order
        z = spsolve_triangular(U[:lead, :lead].T.tocsr(), p[:lead], lower=True)
        expected = p[lead:] - U[:lead, lead:].T @ z
        assert np.abs(fac.harmonic_transpose(v) - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("mesh", [interval_mesh(0.0, 1.0, 9), unit_square_mesh(16)], ids=["1d_9", "2d_16"])
def test_the_back_substitution_solves_with_the_leading_block_of_u(mesh):
    op = varied_operator(mesh)
    fac = factorize(op, mesh)
    lead = fac.load.size - fac.positions.size
    U_II = factorize(op, mesh)._lu.U[:lead, :lead]  # an LU of its own: fac's U loses its diagonal
    b = np.random.default_rng(5).standard_normal(lead)
    x, info = forward.gstrs("N", *fac._back_substitution[1], b)
    expected = spsolve_triangular(U_II, b, lower=False)
    assert info == 0
    assert np.abs(x - expected).max() <= 1e-14 * np.abs(expected).max()


def test_the_back_substitution_runs_on_the_lus_own_u():
    # U is the largest array the factorization reads; a copy of it for the
    # extension would raise peak memory by its size
    fac, _, x, _ = _schur_setup()
    fac.schur_factor
    fac.extend(x)
    *_, data, indices, indptr = fac._back_substitution[1]
    U = fac._upper
    assert np.shares_memory(data, U.data)
    assert np.shares_memory(indices, U.indices)
    assert np.shares_memory(indptr, U.indptr)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_the_cholesky_path_checks_its_inputs_are_finite(bad):
    fac, shift, b, B = _schur_setup()
    shift[3] = bad
    with pytest.raises(ValueError, match="shift .* must be finite"):
        fac.shifted_factor(shift)
    factor = fac.shifted_factor(np.ones_like(b))
    for rhs in (b, B):
        rhs.flat[4] = bad
        with pytest.raises(ValueError, match="right-hand side .* must be finite"):
            forward.cholesky_solve(factor, rhs)


def test_an_indefinite_shifted_schur_complement_is_a_solver_error():
    fac, shift, b, _ = _schur_setup()
    indefinite = -shift - np.diag(fac.schur).max()
    with pytest.raises(SolverError, match="not positive definite"):
        fac.shifted_factor(indefinite)
    with pytest.raises(SolverError, match="not positive definite"):
        fac.solve_shifted(indefinite, np.ones(fac.load.size))


def test_newton_on_an_indefinite_hessian_raises_a_solver_error():
    # a negative density gives M'' < 0, so S + diag(w f M'') loses definiteness
    sigmoid = get_kernel("sigmoid")
    negative = replace(sigmoid, kind="negative", density=lambda s: -1e6 * np.ones_like(np.asarray(s, dtype=float)))
    mesh = unit_square_mesh(8)
    with pytest.raises(SolverError, match="eps 0.01: .* not positive definite") as err:
        solution_map(ellipticity_field(mesh, 1.0), friction_field(mesh, 1.0), 1e-2, Problem(mesh), negative)
    assert err.value.residual > 0


# --- stop tests in the problem's own scale ----------------------------------------


@pytest.mark.parametrize("n", [2048, 4096])
def test_a_1d_smoothed_solve_is_accepted_at_its_round_off(n):
    # in 1D |K| ~ e / h, so the round-off of the full-space residual grows
    # with n: at the defaults it was 1.4e-12 (n = 2048) and 5.9e-12
    # (n = 4096), and the absolute test at 1e-12 rejected these solutions
    mesh = interval_mesh(0.0, 1.0, n)
    problem = Problem(mesh)
    e, f, kernel, eps = ellipticity_field(mesh, 1.0), friction_field(mesh, 0.3), get_kernel("sqrt"), 1e-3
    state = solution_map(e, f, eps, problem, kernel)
    fac = problem.factorization(e)
    u = free_part(mesh, state.u)
    floor = 4.0 * np.finfo(float).eps * (fac.row_sum_norm * np.linalg.norm(u) + np.linalg.norm(fac.load))
    assert 1e-12 < state.residual_norm <= floor == fac.floored_tol(u, 1e-12)
    # the accepted state is the smoothed solution: within the a-priori bound
    # of the oracle, whose own test passes
    exact = solution_map(e, f, 0.0, problem)
    wf = mesh.friction_weights * f.values
    bound = np.sqrt(8.0 * kernel.absolute_mean_k * eps * wf.sum()) * np.sqrt(1.0 + 1.0 / np.pi**2)
    assert v_norm(mesh, state.u - exact.u) <= bound


@pytest.mark.parametrize("contrast", [1.0, 1e4])
def test_1d_solves_at_a_large_source_are_accepted_at_their_round_off(contrast):
    # source 100: the oracle's prox residual (contrast 1e4) and Newton's
    # full-space residual sit above their absolute tolerances at round-off
    mesh = interval_mesh(0.0, 1.0, 64)
    j = np.arange(mesh.n_elements)
    e = ellipticity_field(mesh, np.where(j % 2, 1.0, contrast), upper=2.0 * contrast)
    problem = Problem(mesh, source=100.0)
    f = friction_field(mesh, 0.3)
    exact = solution_map(e, f, 0.0, problem)
    for kernel_name in KERNEL_NAMES:
        state = solution_map(e, f, 1e-4, problem, get_kernel(kernel_name))
        assert state.residual_norm <= problem.factorization(e).floored_tol(free_part(mesh, state.u), 1e-12)
        assert abs(state.u[-1] - exact.u[-1]) <= 1e-3 * abs(exact.u[-1])


def test_the_floor_stays_below_the_default_tolerance_in_2d():
    # in 2D |K| = O(e), so the floor changes no 2D test: on the benchmark's
    # reproducer it is more than an order below 1e-12
    mesh, e, f, source = _reproducer(64, 1.0)
    problem = Problem(mesh, source=source)
    state = solution_map(e, f, 1e-4, problem, KERNEL)
    assert problem.factorization(e).floored_tol(free_part(mesh, state.u), 0.0) < 1e-13


def test_the_correction_step_runs_only_above_the_round_off_floor(monkeypatch):
    # at 1D n = 2048 the extension's residual sits between 1e-12 and the
    # floor: a full-space step (a T-solve and a Cholesky on D) cannot
    # lower it, and is not taken
    mesh = interval_mesh(0.0, 1.0, 2048)
    fac = Problem(mesh).factorization(ellipticity_field(mesh, 1.0))
    kernel, eps = get_kernel("sqrt"), 1e-3
    steps = []
    solve_shifted = fac.solve_shifted
    monkeypatch.setattr(fac, "solve_shifted", lambda *args: steps.append(args) or solve_shifted(*args))
    solution = forward.solve_friction_set(fac, friction_field(mesh, 0.3), kernel, eps)
    state = forward.friction_set_state(fac, solution)
    assert len(steps) == 0
    assert 1e-12 < state.residual_norm <= fac.floored_tol(free_part(mesh, state.u), 1e-12)
    # x moved off the solution: its residual is above the floor, and one step brings it back
    x = solution.x + 1e-8
    state = forward.friction_set_state(fac, solution._replace(x=x, modulus=modulus_smooth(kernel, eps, x)))
    assert len(steps) == 1
    assert state.residual_norm <= fac.floored_tol(free_part(mesh, state.u), 1e-12)


def test_the_floor_does_not_accept_a_wrong_state():
    mesh = interval_mesh(0.0, 1.0, 2048)
    fac = Problem(mesh).factorization(ellipticity_field(mesh, 1.0))
    solution = forward.solve_friction_set(fac, friction_field(mesh, 0.3), get_kernel("sqrt"), 1e-3)
    # one correction step through the full space does not bring it back
    moved = solution._replace(x=solution.x + 1e-6)
    with pytest.raises(SolverError, match="Newton residual .* above tol"):
        forward.friction_set_state(fac, moved)


def test_a_non_finite_friction_set_solution_has_no_state():
    # its residual is NaN, which the tolerance test used to pass
    mesh = unit_square_mesh(8)
    fac = Problem(mesh).factorization(ellipticity_field(mesh, 1.0))
    solution = forward.solve_friction_set(fac, friction_field(mesh, 0.3), get_kernel("sqrt"), 1e-3)
    broken = solution._replace(x=np.full_like(solution.x, np.nan))
    with pytest.raises(SolverError, match="Newton residual nan") as err:
        forward.friction_set_state(fac, broken)
    assert np.isnan(err.value.residual)
