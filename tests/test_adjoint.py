"""Solution-derivative and adjoint-gradient tests.

Every derivative the library produces is cross-checked here against central
finite differences of the nonlinear forward map, which is the independent
route: the two computations share no code beyond the solver itself.
"""
from __future__ import annotations

import importlib

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
    interval_mesh,
    modulus_smooth,
    reduced_gradients,
    reduced_objective,
    solution_derivative,
    solution_map,
    synthesize_observation,
    unit_square_mesh,
)
from vi_ident.adjoint import misfit_factor
from vi_ident.discretization import free_part, h1_gram, mass_matrix

from .helpers import linearized_matrix

identify_module = importlib.import_module("vi_ident.identify")
KERNEL = get_kernel("sigmoid")
FD_STEP = 1e-6


def setup_1d(n=32, e_val=1.2, f_val=0.3):
    mesh = interval_mesh(0.0, 1.0, n)
    problem = Problem(mesh)
    e = ellipticity_field(mesh, e_val)
    f = friction_field(mesh, f_val)
    return mesh, problem, e, f


def along(mesh, de=None, df=None):
    """The direction concat(de, df) in (e, f), zero in a field not given."""
    zero_e, zero_f = np.zeros(mesh.n_elements), np.zeros(mesh.friction_nodes.size)
    return np.concatenate([zero_e if de is None else de, zero_f if df is None else df])


def fd_delta_u(problem, e, f, eps, direction_e=None, direction_f=None, h=FD_STEP):
    def at(t):
        ev = e if direction_e is None else e.with_values(e.values + t * direction_e)
        fv = f if direction_f is None else f.with_values(f.values + t * direction_f)
        return solution_map(ev, fv, eps, problem, kernel=KERNEL, tol=1e-13).u

    return (at(h) - at(-h)) / (2.0 * h)


# --- solution derivatives ----------------------------------------------------------


@pytest.mark.parametrize("eps", [1e-1, 1e-2])
def test_derivative_along_e_matches_finite_differences(eps):
    mesh, problem, e, f = setup_1d()
    state = solution_map(e, f, eps, problem, kernel=KERNEL, tol=1e-13)
    rng = np.random.default_rng(42)
    for _ in range(3):
        delta = rng.standard_normal(mesh.n_elements)
        du = solution_derivative(state, problem, e, f, KERNEL, eps, along(mesh, de=delta))
        fd = fd_delta_u(problem, e, f, eps, direction_e=delta)
        denom = max(np.max(np.abs(fd)), 1e-14)
        assert np.max(np.abs(du - fd)) / denom < 1e-5


@pytest.mark.parametrize("eps", [1e-1, 1e-2])
def test_derivative_along_f_matches_finite_differences(eps):
    mesh, problem, e, f = setup_1d()
    state = solution_map(e, f, eps, problem, kernel=KERNEL, tol=1e-13)
    rng = np.random.default_rng(43)
    for _ in range(3):
        delta = rng.standard_normal(mesh.friction_nodes.size)
        du = solution_derivative(state, problem, e, f, KERNEL, eps, along(mesh, df=delta))
        fd = fd_delta_u(problem, e, f, eps, direction_f=delta)
        denom = max(np.max(np.abs(fd)), 1e-14)
        assert np.max(np.abs(du - fd)) / denom < 1e-5


def test_sensitivities_are_linear_in_the_direction():
    mesh, problem, e, f = setup_1d()
    eps = 1e-2
    state = solution_map(e, f, eps, problem, kernel=KERNEL, tol=1e-13)
    rng = np.random.default_rng(44)
    d1 = rng.standard_normal(mesh.n_elements)
    d2 = rng.standard_normal(mesh.n_elements)
    lin = LinearizedMap(state, problem, e, f, KERNEL, eps)
    s12 = solution_derivative(state, problem, e, f, KERNEL, eps, along(mesh, de=2.0 * d1 - 3.0 * d2), linmap=lin)
    s1 = solution_derivative(state, problem, e, f, KERNEL, eps, along(mesh, de=d1), linmap=lin)
    s2 = solution_derivative(state, problem, e, f, KERNEL, eps, along(mesh, de=d2), linmap=lin)
    assert np.allclose(s12, 2.0 * s1 - 3.0 * s2, atol=1e-12)


def test_shared_linearization_equals_fresh():
    mesh, problem, e, f = setup_1d()
    eps = 1e-2
    state = solution_map(e, f, eps, problem, kernel=KERNEL, tol=1e-13)
    delta = along(mesh, de=np.ones(mesh.n_elements))
    lin = LinearizedMap(state, problem, e, f, KERNEL, eps)
    a = solution_derivative(state, problem, e, f, KERNEL, eps, delta, linmap=lin)
    b = solution_derivative(state, problem, e, f, KERNEL, eps, delta)
    assert np.allclose(a, b)


def test_friction_derivative_fades_in_the_stick_region():
    # with f far above the slip threshold the friction node is pinned and the
    # derivative w.r.t. f collapses at the O(eps) rate of the smoothing
    mesh, problem, e, f = setup_1d(f_val=3.0, e_val=1.0)
    mags = []
    for eps in (1e-3, 1e-5):
        state = solution_map(e, f, eps, problem, kernel=KERNEL, tol=1e-12)
        du = solution_derivative(state, problem, e, f, KERNEL, eps, along(mesh, df=np.ones(1)))
        mags.append(np.max(np.abs(du)))
    assert mags[0] < 1e-3
    assert mags[1] < 0.02 * mags[0]


def test_2d_sensitivity_smoke():
    mesh = unit_square_mesh(6)
    problem = Problem(mesh)
    e = ellipticity_field(mesh, 1.1)
    f = friction_field(mesh, 0.05)
    eps = 1e-2
    state = solution_map(e, f, eps, problem, kernel=KERNEL, tol=1e-13)
    rng = np.random.default_rng(7)
    delta = rng.standard_normal(mesh.n_elements)
    du = solution_derivative(state, problem, e, f, KERNEL, eps, along(mesh, de=delta))
    fd = fd_delta_u(problem, e, f, eps, direction_e=delta)
    denom = max(np.max(np.abs(fd)), 1e-14)
    assert np.max(np.abs(du - fd)) / denom < 1e-5


# --- adjoint and reduced gradients -------------------------------------------------


def reduced_value(problem, e, f, eps, observation, alpha, beta, misfit_norm="L2"):
    value, _, _ = reduced_objective(
        e, f, problem, observation, KERNEL, eps, alpha, beta, misfit_norm=misfit_norm, tol=1e-13
    )
    return value


@pytest.mark.parametrize("misfit_norm", ["L2", "V"])
def test_reduced_gradient_matches_finite_differences(misfit_norm):
    mesh, problem, e, f = setup_1d()
    eps = 1e-2
    alpha, beta = 1e-6, 1e-6
    e_true = ellipticity_field(mesh, 1.0)
    f_true = friction_field(mesh, 0.25)
    observation = synthesize_observation(problem, e_true, f_true)
    state = solution_map(e, f, eps, problem, kernel=KERNEL, tol=1e-13)
    p = adjoint_solve(state, problem, e, f, KERNEL, eps, observation, misfit_norm=misfit_norm)
    bundle = reduced_gradients(state, p, problem, e, f, KERNEL, eps, alpha, beta)
    rng = np.random.default_rng(21)
    for _ in range(3):
        de = rng.standard_normal(mesh.n_elements)
        df = rng.standard_normal(1)
        adjoint_dir = bundle.grad_e @ de + bundle.grad_f @ df

        def along(t):
            return reduced_value(
                problem,
                e.with_values(e.values + t * de),
                f.with_values(f.values + t * df),
                eps,
                observation,
                alpha,
                beta,
                misfit_norm,
            )

        fd_dir = (along(FD_STEP) - along(-FD_STEP)) / (2 * FD_STEP)
        assert abs(adjoint_dir - fd_dir) / max(abs(fd_dir), 1e-14) < 1e-6


def test_adjoint_solves_the_transposed_system():
    mesh, problem, e, f = setup_1d()
    eps = 1e-2
    e_true = ellipticity_field(mesh, 1.0)
    f_true = friction_field(mesh, 0.25)
    observation = synthesize_observation(problem, e_true, f_true)
    state = solution_map(e, f, eps, problem, kernel=KERNEL, tol=1e-13)
    lin = LinearizedMap(state, problem, e, f, KERNEL, eps)
    p = adjoint_solve(state, problem, e, f, KERNEL, eps, observation, linmap=lin)
    J = linearized_matrix(problem, e, f, KERNEL, eps, state.u)
    rhs = mass_matrix(mesh) @ (free_part(mesh, observation) - lin.u_free)
    assert np.max(np.abs(J.T @ free_part(mesh, p) - rhs)) < 1e-12


@pytest.mark.parametrize("dimension", [1, 2])
def test_block_solve_matches_column_solves(dimension):
    mesh = interval_mesh(0.0, 1.0, 16) if dimension == 1 else unit_square_mesh(6)
    problem = Problem(mesh)
    e = ellipticity_field(mesh, 1.0 + 0.5 * np.sin(np.arange(mesh.n_elements)))
    f = friction_field(mesh, 0.3)
    state = solution_map(e, f, 1e-2, problem, kernel=KERNEL, tol=1e-13)
    lin = LinearizedMap(state, problem, e, f, KERNEL, 1e-2)
    block = np.random.default_rng(7).standard_normal((lin.u_free.size, 5))
    together = lin.solve(block)
    one_by_one = np.column_stack([lin.solve(column) for column in block.T])
    assert np.abs(together - one_by_one).max() <= 1e-13 * np.abs(one_by_one).max()


def solved_pair(dimension, form):
    mesh = interval_mesh(0.0, 1.0, 12) if dimension == 1 else unit_square_mesh(5)
    problem = Problem(mesh, form)
    rng = np.random.default_rng(8)
    e = ellipticity_field(mesh, 1.0 + 0.5 * rng.random(mesh.n_elements))
    f = friction_field(mesh, 0.1 + 0.2 * rng.random(mesh.friction_nodes.size))
    state = solution_map(e, f, 1e-2, problem, kernel=KERNEL, tol=1e-13)
    return mesh, problem, e, f, state, LinearizedMap(state, problem, e, f, KERNEL, 1e-2)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("form", ["grad_grad", "grad_grad_plus_mass"])
def test_the_map_holds_the_coefficient_derivative_of_the_residual(dimension, form):
    # R(u; e, f) = T(e) u - l + E_D (w f M'_eps(u_D)) is linear in (e, f), so
    # a central difference of the assembled residual at fixed u is exact
    mesh, problem, e, f, state, lin = solved_pair(dimension, form)
    pos = mesh.friction_free_positions
    slope = modulus_smooth(KERNEL, 1e-2, lin.u_free[pos]).first_derivative

    def residual(x):
        ev, fv = e.with_values(x[: e.values.size]), f.with_values(x[e.values.size :])
        r = assemble_operator(mesh, ev, form).matrix @ lin.u_free - problem.load
        r[pos] += mesh.friction_weights * fv.values * slope
        return r

    x, h = np.concatenate([e.values, f.values]), 0.05
    fd = np.column_stack([(residual(x + h * d) - residual(x - h * d)) / (2 * h) for d in np.eye(x.size)])
    assert lin.N.shape == fd.shape == (lin.u_free.size, x.size)
    assert np.abs(lin.N.toarray() - fd).max() <= 1e-12 * np.abs(fd).max()


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("form", ["grad_grad", "grad_grad_plus_mass"])
def test_a_block_of_directions_matches_one_direction_at_a_time(dimension, form):
    mesh, problem, e, f, state, lin = solved_pair(dimension, form)
    unit = np.eye(mesh.n_elements + mesh.friction_nodes.size)
    block = solution_derivative(state, problem, e, f, KERNEL, 1e-2, unit, linmap=lin)
    assert block.shape == (mesh.n_nodes, unit.shape[1])
    columns = np.column_stack([solution_derivative(state, problem, e, f, KERNEL, 1e-2, d, linmap=lin) for d in unit])
    assert np.abs(block - columns).max() <= 1e-13 * np.abs(columns).max()
    assert not block[mesh.dirichlet_nodes].any()


@pytest.mark.parametrize("mesh", [interval_mesh(0.0, 1.0, 12), unit_square_mesh(6)], ids=["1d", "2d"])
def test_misfit_factors_square_to_the_misfit_grams(mesh):
    problem = Problem(mesh)
    for norm, G in (("L2", mass_matrix(mesh)), ("V", h1_gram(mesh))):
        B = misfit_factor(problem, norm)
        assert B.shape == (mesh.elements.size, mesh.free_nodes.size)
        assert abs(B.T @ B - G).max() <= 1e-14 * abs(G).max()
        assert misfit_factor(problem, norm) is B  # cached on the problem
    with pytest.raises(ValueError):
        misfit_factor(problem, "H2")


@pytest.mark.parametrize("misfit_norm", ["L2", "V"])
@pytest.mark.parametrize("free_e, free_f", [(True, True), (True, False), (False, True)])
def test_the_gradient_is_the_same_with_a_given_map(misfit_norm, free_e, free_f):
    mesh, problem, e, f = setup_1d(n=16)
    eps = 1e-2
    observation = synthesize_observation(problem, ellipticity_field(mesh, 1.0), friction_field(mesh, 0.25))
    cfg = IdentificationConfig(alpha=1e-6, beta=1e-6, misfit_norm=misfit_norm)
    run = identify_module._Run(cfg, problem, observation, e, f, KERNEL, eps, free_e, free_f, None)
    point = run.evaluate(run.x0)  # the driver's gradient, read off point.linmap
    p = adjoint_solve(point.state, problem, e, f, KERNEL, eps, observation, misfit_norm)
    fresh = reduced_gradients(point.state, p, problem, e, f, KERNEL, eps, 1e-6, 1e-6)
    given = reduced_gradients(point.state, p, problem, e, f, KERNEL, eps, 1e-6, 1e-6, linmap=point.linmap)
    for name in ("adjoint_p", "grad_e", "grad_f", "stationarity_e", "stationarity_f"):
        assert np.array_equal(getattr(fresh, name), getattr(given, name)), name
    assert np.array_equal(point.grad, np.where(run.free, np.concatenate([fresh.grad_e, fresh.grad_f]), 0.0))
    assert point.stationarity == (fresh.stationarity_e if free_e else 0.0, fresh.stationarity_f if free_f else 0.0)


def test_gradients_vanish_at_the_twin_optimum():
    mesh, problem, e, f = setup_1d(e_val=1.0, f_val=0.25)
    eps = 1e-3
    state = solution_map(e, f, eps, problem, kernel=KERNEL, tol=1e-13)
    observation = state.u.copy()  # observation generated by the same smoothed map
    p = adjoint_solve(state, problem, e, f, KERNEL, eps, observation)
    bundle = reduced_gradients(state, p, problem, e, f, KERNEL, eps, 0.0, 0.0)
    assert np.max(np.abs(bundle.grad_e)) < 1e-12
    assert np.max(np.abs(bundle.grad_f)) < 1e-12
    assert bundle.stationarity_e < 1e-12
    assert bundle.stationarity_f < 1e-12


def test_stationarity_is_the_projected_gradient_residual():
    mesh, problem, e, f = setup_1d()
    eps = 1e-2
    e_true = ellipticity_field(mesh, 1.0)
    f_true = friction_field(mesh, 0.25)
    observation = synthesize_observation(problem, e_true, f_true)
    state = solution_map(e, f, eps, problem, kernel=KERNEL, tol=1e-13)
    p = adjoint_solve(state, problem, e, f, KERNEL, eps, observation)
    bundle = reduced_gradients(state, p, problem, e, f, KERNEL, eps, 1e-6, 1e-6)
    for field_, grad, st in (
        (e, bundle.grad_e, bundle.stationarity_e),
        (f, bundle.grad_f, bundle.stationarity_f),
    ):
        projected = np.clip(field_.values - grad, field_.lower_bound, field_.upper_bound)
        assert np.isclose(st, np.linalg.norm(field_.values - projected))


def test_gradient_pushing_into_an_active_bound_is_stationary():
    # place f exactly at its lower bound; if the gradient points further down,
    # the projected-gradient residual must ignore that component
    mesh, problem, e, _ = setup_1d()
    f = friction_field(mesh, 0.0)
    eps = 1e-2
    # an observation above the frictionless solution cannot be matched by any
    # f >= 0: the misfit wants f negative, i.e. grad_f > 0 at the bound
    state = solution_map(e, f, eps, problem, kernel=KERNEL, tol=1e-13)
    observation = 1.1 * state.u
    p = adjoint_solve(state, problem, e, f, KERNEL, eps, observation)
    bundle = reduced_gradients(state, p, problem, e, f, KERNEL, eps, 0.0, 0.0)
    assert bundle.grad_f[0] > 0  # wants to decrease f below the bound
    assert bundle.stationarity_f < 1e-14


def test_reduced_objective_decomposition():
    mesh, problem, e, f = setup_1d()
    eps = 1e-2
    e_true = ellipticity_field(mesh, 1.0)
    f_true = friction_field(mesh, 0.25)
    observation = synthesize_observation(problem, e_true, f_true)
    value, misfit, state = reduced_objective(
        e, f, problem, observation, KERNEL, eps, 0.0, 0.0, tol=1e-12
    )
    assert np.isclose(value, misfit)
    G = mass_matrix(mesh)
    r = free_part(mesh, state.u - observation)
    assert np.isclose(misfit, 0.5 * r @ (G @ r))
    value_reg, _, _ = reduced_objective(
        e, f, problem, observation, KERNEL, eps, 1e-4, 1e-4, tol=1e-12
    )
    assert value_reg > value
