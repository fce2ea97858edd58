"""Forward-solver tests: the nonsmooth oracle and the regularized Newton path."""
from __future__ import annotations

import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

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
from vi_ident.discretization import free_part
from vi_ident.forward import factorize
from vi_ident.kernels import KERNEL_NAMES, modulus_smooth

from .helpers import benchmark_solution, benchmark_tip, nonsmooth_energy, smoothed_energy

KERNEL = get_kernel("sigmoid")


def benchmark(n: int):
    mesh = interval_mesh(0.0, 1.0, n)
    e = ellipticity_field(mesh, 1.0)
    f_of = lambda value: friction_field(mesh, value)
    op = assemble_operator(mesh, e)
    return mesh, e, f_of, op


# --- oracle ---------------------------------------------------------------------


@pytest.mark.parametrize("f_val", [0.0, 0.1, 0.25, 0.4, 0.5, 1.0])
def test_oracle_reproduces_the_closed_form(f_val):
    mesh, _, f_of, op = benchmark(64)
    state = solve_vi_oracle(op, mesh, f_of(f_val))
    x = mesh.nodes[:, 0]
    assert abs(state.u[-1] - benchmark_tip(f_val)) < 5e-4
    assert np.max(np.abs(state.u - benchmark_solution(f_val, x))) < 5e-4


def test_oracle_minimizes_the_nonsmooth_energy():
    # u solves the VI iff it minimizes 1/2 v^T K v - l^T v + sum w_i f_i |v_i|
    mesh, _, f_of, op = benchmark(24)
    f = f_of(0.3)
    state = solve_vi_oracle(op, mesh, f)
    u_free = free_part(mesh, state.u)
    e_star = nonsmooth_energy(op, mesh, f, u_free)
    rng = np.random.default_rng(0)
    for scale in (1e-1, 1e-3, 1e-6):
        for _ in range(20):
            v = u_free + scale * rng.standard_normal(u_free.size)
            assert nonsmooth_energy(op, mesh, f, v) >= e_star - 1e-14


def test_oracle_subdifferential_conditions():
    # K u + gamma*(w f sign(u)) = l, with |mu| <= w f where u vanishes
    for mesh_builder, f_val in ((lambda: interval_mesh(0, 1, 32), 0.3), (lambda: unit_square_mesh(6), 0.05)):
        mesh = mesh_builder()
        e = ellipticity_field(mesh, 1.0)
        f = friction_field(mesh, f_val)
        op = assemble_operator(mesh, e)
        state = solve_vi_oracle(op, mesh, f, tol=1e-12)
        u_free = free_part(mesh, state.u)
        resid = op.load - op.matrix @ u_free
        pos = mesh.friction_free_positions
        mu = resid[pos]
        bound = mesh.friction_weights * f.values
        u_d = state.u[mesh.friction_nodes]
        slipping = np.abs(u_d) > 1e-12
        assert np.all(np.abs(mu[slipping] - bound[slipping] * np.sign(u_d[slipping])) < 1e-9)
        assert np.all(np.abs(mu[~slipping]) <= bound[~slipping] + 1e-9)
        # non-friction equations are satisfied exactly
        rest = np.setdiff1d(np.arange(u_free.size), pos)
        assert np.max(np.abs(resid[rest])) < 1e-9


def test_oracle_zero_friction_is_linear_solve():
    mesh, _, f_of, op = benchmark(16)
    state = solve_vi_oracle(op, mesh, f_of(0.0))
    import scipy.sparse.linalg as spla

    direct = spla.spsolve(op.matrix.tocsc(), op.load)
    assert np.allclose(free_part(mesh, state.u), direct, atol=1e-12)


def test_oracle_monotone_in_friction():
    # larger friction never increases the tip displacement
    mesh, _, f_of, op = benchmark(32)
    tips = [solve_vi_oracle(op, mesh, f_of(v)).u[-1] for v in (0.0, 0.2, 0.4, 0.6)]
    assert all(b <= a + 1e-12 for a, b in zip(tips[:-1], tips[1:]))


# --- regularized solver -----------------------------------------------------------


@pytest.mark.parametrize("kernel_name", ["sigmoid", "sqrt", "uniform_centered", "uniform_shifted"])
@pytest.mark.parametrize("f_val", [0.25, 1.0])
def test_regularized_converges_to_oracle(kernel_name, f_val):
    # stick (f=1.0) shows the generic O(eps) decay; slip (f=0.25) can saturate
    # early because compact-support kernels become exact once eps is below the
    # slip magnitude, so there we only require monotone non-increase to a tiny
    # floor
    mesh, _, f_of, op = benchmark(48)
    f = f_of(f_val)
    kernel = get_kernel(kernel_name)
    exact = solve_vi_oracle(op, mesh, f, tol=1e-12)
    errors = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        state = solve_regularized(op, mesh, f, kernel, eps, tol=1e-11)
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
    mesh, _, f_of, op = benchmark(32)
    state = solve_regularized(op, mesh, f_of(1.0), KERNEL, 1e-3, tol=1e-12)
    assert state.residual_history[-1] == state.residual_norm
    assert state.residual_norm <= 1e-12
    assert state.eps == 1e-3
    assert state.iterations >= 1


def test_regularized_minimizes_the_smoothed_energy():
    mesh, _, f_of, op = benchmark(24)
    f = f_of(0.4)
    state = solve_regularized(op, mesh, f, KERNEL, 1e-2, tol=1e-12)
    u_free = free_part(mesh, state.u)
    e_star = smoothed_energy(op, mesh, f, KERNEL, 1e-2, u_free)
    rng = np.random.default_rng(1)
    for _ in range(30):
        v = u_free + 1e-4 * rng.standard_normal(u_free.size)
        assert smoothed_energy(op, mesh, f, KERNEL, 1e-2, v) >= e_star - 1e-15


def test_warm_start_is_consistent_and_cheap():
    mesh, _, f_of, op = benchmark(48)
    f = f_of(0.25)
    cold = solve_regularized(op, mesh, f, KERNEL, 1e-4, tol=1e-12)
    warm = solve_regularized(op, mesh, f, KERNEL, 1e-4, tol=1e-12, u0_full=cold.u)
    assert np.allclose(cold.u, warm.u, atol=1e-10)
    assert warm.iterations <= cold.iterations


def test_warm_start_from_a_bad_guess_recovers():
    # a warm start far from the solution must not leave the solver stranded
    mesh, _, f_of, op = benchmark(32)
    f = f_of(1.0)
    bad = np.full(mesh.n_nodes, 37.0)
    bad[mesh.dirichlet_nodes] = 0.0
    state = solve_regularized(op, mesh, f, KERNEL, 1e-4, tol=1e-11, u0_full=bad)
    assert state.residual_norm <= 1e-11


def test_a_failed_warm_start_falls_back_to_the_cold_path(monkeypatch):
    # from 1e3 on every free node M'_eps saturates and Newton fails within
    # max_iter; the solver must then restart from the oracle's x
    mesh, _, f_of, op = benchmark(16)
    f = f_of(1.0)
    oracle_runs = []
    active_set = forward._active_set

    def counting_active_set(*args):
        oracle_runs.append(args)
        return active_set(*args)

    monkeypatch.setattr(forward, "_active_set", counting_active_set)
    far = np.full(mesh.n_nodes, 1e3)
    far[mesh.dirichlet_nodes] = 0.0
    state = solve_regularized(op, mesh, f, KERNEL, 1e-6, max_iter=5, u0_full=far)
    assert len(oracle_runs) == 1  # only the cold path runs the oracle
    cold = solve_regularized(op, mesh, f, KERNEL, 1e-6, max_iter=5)
    assert np.array_equal(state.u, cold.u)


def test_2d_regularized_close_to_oracle():
    mesh = unit_square_mesh(8)
    e = ellipticity_field(mesh, 1.0)
    f = friction_field(mesh, 0.05)
    op = assemble_operator(mesh, e)
    exact = solve_vi_oracle(op, mesh, f, tol=1e-12)
    state = solve_regularized(op, mesh, f, KERNEL, 1e-4, tol=1e-11)
    assert v_norm(mesh, state.u - exact.u) < 1e-2 * max(v_norm(mesh, exact.u), 1.0)


def _reproducer(n: int, s: float):
    mesh = unit_square_mesh(n)
    j = np.arange(mesh.n_elements)
    e = ellipticity_field(mesh, 1.0 + 0.9 * np.sin(7.0 * j))
    x = mesh.nodes[mesh.friction_nodes, 0]
    f = friction_field(mesh, s * (0.5 + 0.5 * np.cos(5.0 * x)))
    source = lambda p: 10.0 * np.sin(3.0 * np.pi * p[:, 0]) * np.cos(2.0 * np.pi * p[:, 1])
    return mesh, e, f, source


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
    # |M_eps - |t|| <= 2 k eps gives E(u_eps) - E(u) <= 4 k eps sum(w f), so
    # |u_eps - u|_K <= sqrt(8 k eps sum(w f)); with v = 0 on x = 0 and x = 1,
    # |v|_L2^2 <= |grad v|^2 / pi^2 gives |v|_V^2 <= (1 + 1/pi^2) / min e |v|_K^2
    bound = np.sqrt(8.0 * kernel.absolute_mean_k * eps * wf.sum()) * np.sqrt(
        (1.0 + 1.0 / np.pi**2) / e.values.min()
    )
    assert v_norm(mesh, state.u - exact.u) <= bound


def test_plug_in_logistic_density_keeps_friction_at_small_eps():
    # P and P_t of a full-line plug-in density come from quadrature; far
    # beyond its window (x/eps ~ 2.5e5 here) they must still see the bulk of
    # the density, or M'_eps vanishes and friction is switched off
    mesh, _, f_of, op = benchmark(16)
    f = f_of(0.25)
    logistic = from_density("logistic", KERNEL.density, KERNEL.absolute_mean_k)
    state = solve_regularized(op, mesh, f, logistic, 1e-6)
    builtin = solve_regularized(op, mesh, f, KERNEL, 1e-6)
    assert abs(state.u[-1] - benchmark_tip(0.25)) <= 2.0 * KERNEL.absolute_mean_k * 1e-6
    assert np.allclose(state.u, builtin.u, atol=1e-12)


def test_solver_error_carries_residual():
    mesh, _, f_of, op = benchmark(32)
    with pytest.raises(SolverError) as err:
        solve_regularized(op, mesh, f_of(1.0), KERNEL, 1e-6, tol=1e-30, max_iter=3)
    assert err.value.residual is not None and err.value.residual > 0


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


def test_problem_operator_cache_reuses_assembly():
    mesh = interval_mesh(0, 1, 16)
    problem = Problem(mesh)
    e = ellipticity_field(mesh, 1.3)
    op1 = problem.operator(e)
    op2 = problem.operator(e)
    assert op1 is op2
    # a different coefficient produces a different operator
    op3 = problem.operator(ellipticity_field(mesh, 1.4))
    assert op3 is not op1


def test_variable_coefficient_flux_balance():
    # -(e u')' = g with e piecewise constant: flux e*u' is continuous; the
    # discrete solution reproduces the exact nodal values for elementwise-
    # constant data up to the one-point quadrature error in the load
    n = 64
    mesh = interval_mesh(0, 1, n)
    vals = np.where(mesh.nodes[:-1, 0] < 0.5, 1.0, 2.0)
    e = ellipticity_field(mesh, vals)
    f = friction_field(mesh, 0.0)
    op = assemble_operator(mesh, e)
    state = solve_vi_oracle(op, mesh, f)
    # exact solution with sigma(x) = 1 - x (zero traction at the free end plus
    # unit load): u'(x) = (1 - x)/e(x)
    x = mesh.nodes[:, 0]
    u_exact = np.where(
        x <= 0.5,
        x - x * x / 2,
        (0.5 - 0.125) + ((x - x * x / 2) - 0.375) / 2.0,
    )
    assert np.max(np.abs(state.u - u_exact)) < 2e-3


# --- one factorization per operator -----------------------------------------------

# one friction node (1D), and |D| = 15 and 39 friction nodes (2D)
MESHES = {
    "1d": lambda: interval_mesh(0.0, 1.0, 32),
    "2d": lambda: unit_square_mesh(16),
    "2d_40": lambda: unit_square_mesh(40),
}


def varied_operator(mesh, form="grad_grad"):
    j = np.arange(mesh.n_elements)
    return assemble_operator(mesh, ellipticity_field(mesh, 1.0 + 0.5 * np.sin(3.0 * j)), form)


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
    op = varied_operator(mesh)
    f = friction_field(mesh, 0.05)
    oracle = solve_vi_oracle(op, mesh, f)
    kernels = itertools.cycle(KERNEL_NAMES)
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-4):
        state = solve_regularized(op, mesh, f, get_kernel(next(kernels)), eps)
        assert v_norm(mesh, state.u - oracle.u) < 1e-2
    assert len(runs) == 1
    # the start is the oracle's: the same state as a fresh run from it
    fresh = solve_regularized(varied_operator(mesh), mesh, f, KERNEL, 1e-6)
    assert np.array_equal(solve_regularized(op, mesh, f, KERNEL, 1e-6).u, fresh.u)
    assert len(runs) == 2
    solve_regularized(op, mesh, friction_field(mesh, 0.5), KERNEL, 1e-6)
    assert len(runs) == 3


@pytest.mark.parametrize("mesh_name", MESHES)
@pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
def test_shifted_solve_matches_a_direct_factorization(mesh_name, kernel_name, eps):
    mesh = MESHES[mesh_name]()
    op = varied_operator(mesh)
    pos = mesh.friction_free_positions
    rng = np.random.default_rng(4)
    # friction values straddling the smoothing zone, where M'' ~ 1/eps
    u_d = eps * rng.uniform(-2.0, 2.0, pos.size)
    rhs = rng.standard_normal(op.load.size)
    for friction in (0.7, 0.0):  # 0: the zero shift, solved by T alone
        shift = mesh.friction_weights * friction * modulus_smooth(get_kernel(kernel_name), eps, u_d).second_derivative
        x = factorize(op, mesh).solve_shifted(shift, rhs)
        J = op.matrix + sp.diags(np.bincount(pos, weights=shift, minlength=op.load.size))
        direct = splu(J.tocsc()).solve(rhs)
        assert np.linalg.norm(x - direct) <= 1e-12 * np.linalg.norm(direct)
        # the friction values are small where shift >> S and must keep their
        # own relative accuracy: the friction gradient is built from them
        assert np.abs(x[pos] - direct[pos]).max() <= 1e-12 * np.abs(direct[pos]).max()


@pytest.mark.parametrize("mesh_name", MESHES)
@pytest.mark.parametrize("pattern", ["none", "all", "mixed"])
def test_stick_subproblem_matches_the_reduced_system(mesh_name, pattern):
    # the active-set subproblem on D: slip nodes carry given multipliers, stick
    # nodes are pinned to zero; against T restricted to the unpinned dofs
    mesh = MESHES[mesh_name]()
    op = varied_operator(mesh)
    pos = mesh.friction_free_positions
    stick = {
        "none": np.zeros(pos.size, dtype=bool),
        "all": np.ones(pos.size, dtype=bool),
        "mixed": np.arange(pos.size) % 3 == 1,
    }[pattern]
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(op.load.size)
    slip = np.where(stick, 0.0, rng.standard_normal(pos.size))
    fac = factorize(op, mesh)
    S = fac.schur
    x, lam = forward._pin_stick(S, S @ fac.solve(rhs)[pos], slip, stick)
    loaded = rhs.copy()
    loaded[pos] -= slip
    keep = np.ones(rhs.size, dtype=bool)
    keep[pos[stick]] = False
    ki = np.flatnonzero(keep)
    direct = np.zeros(rhs.size)
    direct[ki] = splu(op.matrix[np.ix_(ki, ki)].tocsc()).solve(loaded[ki])
    assert np.all(x[stick] == 0.0)
    assert np.array_equal(lam[~stick], slip[~stick])
    assert np.linalg.norm(x - direct[pos]) <= 1e-12 * np.linalg.norm(direct)
    # the stick multipliers are the reactions of the pinned dofs
    reaction = (loaded - op.matrix @ direct)[pos[stick]]
    assert np.linalg.norm(lam[stick] - reaction) <= 1e-10 * max(np.linalg.norm(reaction), 1.0)


@pytest.mark.parametrize("mesh_name", ["1d", "2d"])
@pytest.mark.parametrize("f_val", [0.05, 1.0])
def test_residual_norm_is_the_full_space_residual_of_the_returned_state(mesh_name, f_val):
    # at |D| = 1 (1D) the residual on D alone can round to exactly zero
    mesh = MESHES[mesh_name]()
    op = varied_operator(mesh)
    f = friction_field(mesh, f_val)
    K, load = op.matrix, op.load
    pos = mesh.friction_free_positions
    wf = mesh.friction_weights * f.values

    oracle = solve_vi_oracle(op, mesh, f)
    u = free_part(mesh, oracle.u)
    tau = 1.0 / max(abs(K).sum(axis=1).max(), 1.0)
    z = u - tau * (K @ u - load)
    prox = z.copy()
    prox[pos] = np.sign(z[pos]) * np.maximum(np.abs(z[pos]) - tau * wf, 0.0)
    assert oracle.residual_norm == pytest.approx(np.linalg.norm(u - prox) / tau, rel=1e-9, abs=0.0)

    for kernel_name in KERNEL_NAMES:
        kernel = get_kernel(kernel_name)
        state = solve_regularized(op, mesh, f, kernel, 1e-4)
        u = free_part(mesh, state.u)
        r = K @ u - load + np.bincount(
            pos, weights=wf * modulus_smooth(kernel, 1e-4, u[pos]).first_derivative, minlength=u.size
        )
        assert state.residual_norm == pytest.approx(np.linalg.norm(r), rel=1e-9, abs=0.0)
        assert state.residual_history[-1] == state.residual_norm


class CountingLU:
    """Wraps a SuperLU object and counts its solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


def test_a_solve_at_a_factorized_operator_takes_one_T_solve():
    mesh = unit_square_mesh(16)
    op = varied_operator(mesh)
    f = friction_field(mesh, 0.05)
    fac = factorize(op, mesh)
    # build y, C and C^{-1} once
    solve_regularized(op, mesh, f, KERNEL, 1e-4)
    counting = fac._lu = CountingLU(fac._lu)
    for solve in (
        lambda: solve_vi_oracle(op, mesh, f),
        lambda: solve_regularized(op, mesh, f, KERNEL, 1e-6),
        lambda: solve_regularized(op, mesh, friction_field(mesh, 1.0), get_kernel("sqrt"), 1e-8),
    ):
        before = counting.solves
        solve()
        assert counting.solves - before == 1


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
    state = solve_regularized(problem.operator(e), mesh, f, KERNEL, eps, tol=1e-11)
    warm = solution_map(e, f, eps, problem, KERNEL, u0_full=state.u)
    lin = LinearizedMap(warm, problem, e, f, KERNEL, eps)
    ne = mesh.n_elements
    adjoint.solution_derivative(warm, problem, e, f, KERNEL, eps, np.repeat([1.0, 0.0], [ne, f.values.size]),
                                linmap=lin)
    adjoint.solution_derivative(warm, problem, e, f, KERNEL, eps, np.repeat([0.0, 1.0], [ne, f.values.size]))
    adjoint.adjoint_solve(warm, problem, e, f, KERNEL, eps, exact.u)
    assert len(factorizations) == 1


def test_only_the_operator_requested_last_keeps_its_factorization():
    mesh = unit_square_mesh(8)
    problem = Problem(mesh)
    e1, e2 = ellipticity_field(mesh, 1.0), ellipticity_field(mesh, 2.0)
    f = friction_field(mesh, 0.05)
    solution_map(e1, f, 0.0, problem)
    op1 = problem.operator(e1)
    assert op1.factorization is not None
    solution_map(e2, f, 0.0, problem)
    assert problem.operator(e2).factorization is not None
    # the problem no longer holds op1, so op1 and its LU go with the last reference
    op1_ref, lu1_ref = weakref.ref(op1), weakref.ref(op1.factorization)
    del op1
    assert op1_ref() is None and lu1_ref() is None
    # e1 again assembles a new operator, not yet factorized
    assert problem.operator(e1).factorization is None


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
    mesh, _, f_of, op = benchmark(16)
    with pytest.raises(SolverError, match="line search") as err:
        solve_regularized(op, mesh, f_of(1.0), contradictory, 1e-2)
    assert err.value.residual > 0


def test_oracle_raises_when_damping_finds_no_decrease(monkeypatch):
    energies = itertools.count()
    monkeypatch.setattr(forward, "_condensed_energy", lambda *args: float(next(energies)))
    mesh, _, f_of, op = benchmark(16)
    with pytest.raises(SolverError, match="damping") as err:
        solve_vi_oracle(op, mesh, f_of(1.0))
    assert err.value.residual > 0
