"""Identification-driver tests: descent, feasibility, recovery, continuation."""
from __future__ import annotations

import dataclasses
import importlib
import inspect

import numpy as np
import pytest
from scipy.optimize import least_squares

from vi_ident import (
    ConfigError,
    IdentificationConfig,
    Problem,
    SolverError,
    continuation_distances,
    continuation_identify,
    ellipticity_field,
    friction_field,
    get_kernel,
    identify,
    interval_mesh,
    reg_inner,
    solution_map,
    solve_vi_oracle,
    synthesize_observation,
    unit_square_mesh,
)
from vi_ident.adjoint import misfit_gram, projected_residual, reduced_objective, solution_derivative
from vi_ident.config import parse_config
from vi_ident.discretization import free_part
from vi_ident.experiments import _ident_config, _twin_setup
from vi_ident.forward import Factorization

from .helpers import cap_newton, friction_response

KERNEL = get_kernel("sigmoid")
# The package re-exports the function ``identify`` under the submodule's name.
identify_module = importlib.import_module("vi_ident.identify")


def twin(n=16, e_true_val=1.0, f_true_val=0.25, noise=0.0, seed=0):
    mesh = interval_mesh(0.0, 1.0, n)
    problem = Problem(mesh)
    e_true = ellipticity_field(mesh, e_true_val)
    f_true = friction_field(mesh, f_true_val)
    obs = synthesize_observation(problem, e_true, f_true, noise_level=noise, seed=seed)
    return mesh, problem, e_true, f_true, obs


def config(**kw):
    base = dict(alpha=0.0, beta=0.0, eps_schedule=(1e-4,), max_iters=400,
                stop_tol=1e-9, forward_tol=1e-12)
    base.update(kw)
    return IdentificationConfig(**base)


# --- config validation ------------------------------------------------------------


def test_schedule_must_be_positive_and_decreasing():
    IdentificationConfig(eps_schedule=(1e-1, 1e-2, 1e-3))  # fine
    with pytest.raises(ConfigError):
        IdentificationConfig(eps_schedule=(1e-2, 1e-1))
    with pytest.raises(ConfigError):
        IdentificationConfig(eps_schedule=(1e-2, 1e-2))
    with pytest.raises(ConfigError):
        IdentificationConfig(eps_schedule=(1e-2, -1e-3))


def test_armijo_and_weights_validated():
    with pytest.raises(ConfigError):
        IdentificationConfig(alpha=-1.0)
    IdentificationConfig(stop_tol=0.0)  # fine: the run stops on scipy's own test
    with pytest.raises(ConfigError, match="stop_tol"):
        IdentificationConfig(stop_tol=-1.0)


@pytest.mark.parametrize(
    "field,value",
    [
        ("alpha", float("nan")),
        ("beta", float("inf")),
        ("stop_tol", float("nan")),
        ("forward_tol", float("nan")),
        ("forward_tol", 0.0),
        ("forward_tol", -1e-12),
        ("max_iters", -1),
    ],
)
def test_a_non_finite_or_out_of_range_setting_is_a_config_error_naming_it(field, value):
    with pytest.raises(ConfigError, match=field):
        IdentificationConfig(**{field: value})


def test_an_unknown_misfit_norm_is_a_config_error():
    IdentificationConfig(misfit_norm="V")  # fine
    with pytest.raises(ConfigError, match="misfit_norm"):
        IdentificationConfig(misfit_norm="H2")


# --- driver basics ----------------------------------------------------------------


def test_zero_iterations_at_the_global_minimum():
    # observation produced by the same smoothed map at the start point
    mesh, problem, e_true, f_true, _ = twin()
    eps = 1e-3
    obs = solution_map(e_true, f_true, eps, problem, kernel=KERNEL, tol=1e-13).u
    res = identify(config(stop_tol=1e-8), problem, obs, e_true, f_true, KERNEL, eps)
    assert len(res.objective_history) == 1
    st = res.stationarity_history[0]
    assert max(st) <= 1e-8
    assert res.objective_history[0] < 1e-20
    assert res.stop_reason == "stationary"


def test_iteration_cap_bounds_the_history():
    mesh, problem, _, _, obs = twin()
    cfg = config(alpha=1e-8, beta=1e-8, max_iters=3)
    res = identify(cfg, problem, obs, ellipticity_field(mesh, 1.3),
                   friction_field(mesh, 0.1), KERNEL, 1e-3)
    assert len(res.objective_history) - 1 <= cfg.max_iters
    assert len(res.stationarity_history) == len(res.objective_history)
    assert res.stop_reason == "max_iters"


def test_run_stops_at_the_first_stationary_iterate():
    # a loose tolerance, met long before the optimizer itself would stop
    mesh, problem, _, _, obs = twin()
    cfg = config(alpha=1e-8, beta=1e-8, stop_tol=1e-6)
    res = identify(cfg, problem, obs, ellipticity_field(mesh, 1.3),
                   friction_field(mesh, 0.1), KERNEL, 1e-3)
    worst = [max(st) for st in res.stationarity_history]
    assert len(worst) > 1
    assert worst[-1] <= cfg.stop_tol
    assert all(w > cfg.stop_tol for w in worst[:-1])
    assert res.stop_reason == "stationary"


def test_objective_history_is_non_increasing():
    mesh, problem, _, _, obs = twin()
    e0 = ellipticity_field(mesh, 1.4)
    f0 = friction_field(mesh, 0.1)
    res = identify(config(alpha=1e-8, beta=1e-8, max_iters=120), problem, obs,
                   e0, f0, KERNEL, 1e-3)
    hist = res.objective_history
    assert all(b <= a + 1e-15 for a, b in zip(hist[:-1], hist[1:]))
    assert len(hist) > 1


def test_iterates_stay_inside_the_box():
    mesh, problem, _, _, obs = twin()
    # truth 0.25 lies below the admissible interval: the optimizer must stop
    # at the bound it is allowed to reach, exactly
    f0 = friction_field(mesh, 0.5, lower=0.3, upper=5.0)
    e0 = ellipticity_field(mesh, 1.0)
    res = identify(config(max_iters=200, stop_tol=1e-10), problem, obs,
                   e0, f0, KERNEL, 1e-4, free_e=False)
    assert res.f_hat.values[0] >= 0.3 - 1e-15
    assert np.isclose(res.f_hat.values[0], 0.3)
    # projected-gradient residual at an active bound with inward gradient
    assert res.stationarity_history[-1][1] <= 1e-10


def test_a_start_on_a_bound_keeps_the_history_non_increasing():
    mesh, problem, _, _, obs = twin()
    f0 = friction_field(mesh, 0.5, lower=0.1, upper=0.5)
    res = identify(config(alpha=1e-8, beta=1e-8, stop_tol=1e-8), problem, obs,
                   ellipticity_field(mesh, 1.0), f0, KERNEL, 1e-3, free_e=False)
    hist = res.objective_history
    assert len(hist) > 2
    assert all(b <= a for a, b in zip(hist[:-1], hist[1:]))
    assert res.stop_reason == "stationary"
    assert abs(res.f_hat.values[0] - 0.25) < 1e-3


def test_fixed_fields_do_not_move():
    mesh, problem, _, _, obs = twin()
    e0 = ellipticity_field(mesh, 1.2)
    f0 = friction_field(mesh, 0.1)
    res = identify(config(max_iters=60), problem, obs, e0, f0, KERNEL, 1e-3, free_e=False)
    assert np.array_equal(res.e_hat.values, e0.values)
    res2 = identify(config(max_iters=60), problem, obs, e0, f0, KERNEL, 1e-3, free_f=False)
    assert np.array_equal(res2.f_hat.values, f0.values)


def test_friction_recovery_on_the_twin_benchmark():
    mesh, problem, e_true, _, obs = twin(n=32)
    f0 = friction_field(mesh, 0.1)
    res = identify(config(alpha=1e-8, beta=1e-8, stop_tol=1e-9), problem, obs,
                   e_true, f0, KERNEL, 1e-4, free_e=False)
    assert abs(res.f_hat.values[0] - 0.25) < 1e-3
    assert max(res.stationarity_history[-1]) <= 1e-9
    assert res.misfit < 1e-12


def test_solver_failure_carries_the_iterate_snapshot(monkeypatch):
    mesh, problem, _, _, obs = twin()
    e0 = ellipticity_field(mesh, 1.0)
    # Newton capped at 0 iterations fails at the first forward solve
    cap_newton(monkeypatch)
    f0 = friction_field(mesh, 0.6)
    cfg = config(max_iters=5)
    with pytest.raises(SolverError) as err:
        identify(cfg, problem, obs, e0, f0, KERNEL, 1e-4, free_e=False)
    snap = err.value.iterate
    assert snap["iteration"] == 0
    assert np.array_equal(snap["f"], f0.values)


def joint_twin_failure():
    """A joint run on the 1D twin, where a failing trial moves e and f."""
    mesh, problem, _, _, obs = twin()
    e0 = ellipticity_field(mesh, 1.3)

    def run():
        return identify(config(), problem, obs, e0, friction_field(mesh, 0.1), KERNEL, 1e-3)

    return problem, e0, run, None


def friction_only_2d_failure():
    """A friction-only run on the 2D twin, where each trial before the
    failing one is accepted."""
    mesh, problem, e, obs = continuation_2d_twin(6)

    def run():
        return identify(config(alpha=1e-8, beta=1e-8), problem, obs, e, friction_field(mesh, 1.0),
                        get_kernel("sqrt"), 1e-1, free_e=False)

    return problem, e, run, 2


def test_failure_inside_the_line_search_carries_the_trial_point(monkeypatch, setting=joint_twin_failure):
    problem, e0, run, iteration = setting()
    real, calls = identify_module.solve_friction_set, []

    def failing_on_third_call(fac, f, *args, **kwargs):
        calls.append((fac, f.values.copy()))
        if len(calls) == 3:
            raise SolverError("injected failure", residual=1.0)
        return real(fac, f, *args, **kwargs)

    monkeypatch.setattr(identify_module, "solve_friction_set", failing_on_third_call)
    with pytest.raises(SolverError) as err:
        run()
    snap = err.value.iterate
    assert snap["iteration"] >= 1 if iteration is None else snap["iteration"] == iteration
    assert problem.factorization(e0.with_values(snap["e"])) is calls[-1][0]  # the trial's e
    assert np.array_equal(snap["f"], calls[-1][1])
    assert not np.array_equal(calls[-1][1], calls[0][1])  # a trial, not the start


def test_regularization_weight_shrinks_the_recovered_field():
    # heavier alpha pulls the returned ellipticity toward zero in its norm
    mesh, problem, _, _, obs = twin(n=16)
    e0 = ellipticity_field(mesh, 1.3)
    f_true = friction_field(mesh, 0.25)
    norms = []
    for alpha in (1e-6, 1e-4, 1e-2):
        res = identify(config(alpha=alpha, max_iters=600, stop_tol=1e-10),
                       problem, obs, e0, f_true, KERNEL, 1e-3, free_f=False)
        norms.append(np.sqrt(reg_inner(res.e_hat, res.e_hat.values, res.e_hat.values)))
    assert norms[0] > norms[1] > norms[2]


DRIVER_TESTS = [
    test_zero_iterations_at_the_global_minimum,
    test_iteration_cap_bounds_the_history,
    test_run_stops_at_the_first_stationary_iterate,
    test_objective_history_is_non_increasing,
    test_iterates_stay_inside_the_box,
    test_a_start_on_a_bound_keeps_the_history_non_increasing,
    test_fixed_fields_do_not_move,
    test_solver_failure_carries_the_iterate_snapshot,
    test_failure_inside_the_line_search_carries_the_trial_point,
]


def on_path(monkeypatch, path):
    """Make identify() take ``path`` whatever the problem size."""
    limit = 0 if path == "lbfgsb" else 10**12
    monkeypatch.setattr(identify_module, "_LEAST_SQUARES_MAX_ENTRIES", limit)


def count_calls(monkeypatch, name):
    """Wrap ``identify_module.<name>``; returns the list its calls append to."""
    real = getattr(identify_module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(identify_module, name, counted)
    return calls


@pytest.mark.parametrize("path", ["gauss_newton", "lbfgsb"])
@pytest.mark.parametrize("case", DRIVER_TESTS, ids=lambda case: case.__name__.removeprefix("test_"))
def test_driver_properties_hold_on_both_optimizers(monkeypatch, case, path):
    on_path(monkeypatch, path)
    if "monkeypatch" in inspect.signature(case).parameters:
        case(monkeypatch)
    else:
        case()


@pytest.mark.parametrize("path", ["gauss_newton", "lbfgsb"])
def test_forward_solves_count_every_objective_evaluation(monkeypatch, path):
    on_path(monkeypatch, path)
    mesh, problem, _, _, obs = twin()
    calls = count_calls(monkeypatch, "solve_friction_set")
    res = identify(config(alpha=1e-8, beta=1e-8, stop_tol=1e-6), problem, obs,
                   ellipticity_field(mesh, 1.3), friction_field(mesh, 0.1), KERNEL, 1e-3)
    assert res.stop_reason == "stationary"
    assert res.forward_solves == len(calls) >= len(res.objective_history)


def test_each_lbfgsb_trial_starts_newton_from_the_last_trial(monkeypatch):
    on_path(monkeypatch, "lbfgsb")
    mesh, problem, _, _, obs = twin()
    real, trials = identify_module.solve_friction_set, []

    def recording(*args, starts=(), **kwargs):
        solution = real(*args, starts=starts, **kwargs)
        trials.append((starts, solution.x))
        return solution

    monkeypatch.setattr(identify_module, "solve_friction_set", recording)
    res = identify(config(alpha=1e-8, beta=1e-8, stop_tol=1e-6), problem, obs,
                   ellipticity_field(mesh, 1.3), friction_field(mesh, 0.1), KERNEL, 1e-3)
    assert res.method == "L-BFGS-B"
    assert trials[0][0] == ()  # no u0_full
    for (starts, _), (_, previous) in zip(trials[1:], trials):
        assert len(starts) == 1 and np.array_equal(starts[0], previous)


def test_the_jacobian_size_selects_the_optimizer(monkeypatch):
    mesh, problem, _, _, obs = twin()
    calls = count_calls(monkeypatch, "least_squares")
    p = mesh.n_elements + mesh.friction_nodes.size
    entries = p * (mesh.elements.size + p)  # with e free, 2 misfit rows per element
    cases = [(True, 1.3, entries, "trf"), (True, 1.3, entries - 1, "L-BFGS-B"), (True, 1.3, 0, "L-BFGS-B"),
             (False, 1.0, 0, "trf")]  # with e fixed, trf at any size
    for free_e, e_start, limit, method in cases:
        monkeypatch.setattr(identify_module, "_LEAST_SQUARES_MAX_ENTRIES", limit)
        runs = len(calls)
        res = identify(config(alpha=1e-8, beta=1e-8, stop_tol=1e-6), problem, obs,
                       ellipticity_field(mesh, e_start), friction_field(mesh, 0.1), KERNEL, 1e-3,
                       free_e=free_e)
        assert res.stop_reason == "stationary"
        assert res.method == method
        assert len(calls) == runs + (method == "trf")


def continuation_2d_twin(n):
    """The 2D f-only twin of the CLI continuation benchmark: sqrt kernel,
    source 10, e fixed at the truth."""
    mesh = unit_square_mesh(n)
    problem = Problem(mesh, source=10.0)
    e = ellipticity_field(mesh, 1.0)
    obs = synthesize_observation(problem, e, friction_field(mesh, 0.25))
    return mesh, problem, e, obs


def test_a_2d_friction_only_run_is_gauss_newton_on_the_friction_set():
    mesh, problem, e, obs = continuation_2d_twin(40)
    nf = mesh.friction_nodes.size
    # counted with the E * m rows of B it would be L-BFGS-B
    assert nf * (mesh.elements.size + nf) > identify_module._LEAST_SQUARES_MAX_ENTRIES
    res = identify(config(alpha=1e-8, beta=1e-8), problem, obs, e, friction_field(mesh, 1.0),
                   get_kernel("sqrt"), 1e-1, free_e=False)
    assert res.method == "trf"
    assert res.stop_reason == "stationary"
    assert res.forward_solves <= 20


def test_a_run_with_no_free_field_evaluates_its_start_and_stops(monkeypatch):
    mesh, problem, e, obs = continuation_2d_twin(6)
    f0, kernel, cfg = friction_field(mesh, 1.0), get_kernel("sqrt"), config(alpha=1e-8, beta=1e-8)
    calls = {name: count_calls(monkeypatch, name) for name in ("LinearizedMap", "least_squares", "minimize")}
    res = identify(cfg, problem, obs, e, f0, kernel, 1e-1, free_e=False, free_f=False)
    assert (res.method, res.stop_reason, res.forward_solves) == ("none", "stationary", 1)
    assert res.stationarity_history == ((0.0, 0.0),)
    assert not any(calls.values())  # no optimizer and no adjoint
    assert np.array_equal(res.e_hat.values, e.values) and np.array_equal(res.f_hat.values, f0.values)
    value, misfit, state = reduced_objective(e, f0, problem, obs, kernel, 1e-1, cfg.alpha, cfg.beta,
                                             tol=cfg.forward_tol)
    assert res.objective_history == (value,) and res.misfit == misfit
    assert np.array_equal(res.final_state.u, state.u)


@pytest.mark.parametrize("setting", ["f_only_2d", "joint_1d"])
def test_a_trf_run_can_stop_on_scipys_own_test(monkeypatch, setting):
    # with stop_tol = 0 the stationarity test does not stop these runs; trf
    # ends on its gtol test, and the run returns its last accepted iterate
    accepted = []
    real_accept = identify_module._Run.accept

    def recording(run, point):
        accepted.append(point)
        return real_accept(run, point)

    monkeypatch.setattr(identify_module._Run, "accept", recording)
    if setting == "f_only_2d":
        mesh, problem, e0, obs = continuation_2d_twin(6)
        args = (e0, friction_field(mesh, 1.0), get_kernel("sqrt"), 1e-1, False)
    else:
        mesh, problem, _, _, obs = twin(n=8)
        args = (ellipticity_field(mesh, 1.3), friction_field(mesh, 0.1), KERNEL, 1e-3, True)
    res = identify(config(alpha=1e-8, beta=1e-8, stop_tol=0.0), problem, obs, *args)
    assert res.method == "trf"
    assert res.stop_reason == "`gtol` termination condition is satisfied."
    last = accepted[-1]
    assert len(res.objective_history) == len(accepted) > 1
    assert res.stationarity_history[-1] == last.stationarity and max(last.stationarity) > 0.0
    assert np.array_equal(res.e_hat.values, last.e.values) and np.array_equal(res.f_hat.values, last.f.values)
    assert res.objective_history[-1] == last.value and res.misfit == last.misfit
    assert res.final_state is last.state


def counted_method(monkeypatch, cls, name):
    """Wrap ``cls.<name>``; returns the list its calls append to."""
    real, calls = getattr(cls, name), []

    def counted(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_a_friction_only_continuation_builds_the_misfit_on_the_friction_set_once(monkeypatch):
    extensions = counted_method(monkeypatch, Factorization, "extend")
    mesh, problem, e, obs = continuation_2d_twin(6)
    assert len(extensions) == 1  # the oracle's
    builds = []  # the misfit norm of each (W, c, kappa) stored on the factorization

    class CountedBuilds(dict):
        def __setitem__(self, key, value):
            builds.append(key[0])
            super().__setitem__(key, value)

    problem.factorization(e).friction_misfits = CountedBuilds()
    for misfit_norm in ("L2", "V"):
        results = continuation_identify(
            config(alpha=1e-8, beta=1e-8, eps_schedule=(1e-1, 1e-2, 1e-3), misfit_norm=misfit_norm),
            problem, obs, e, friction_field(mesh, 1.0), get_kernel("sqrt"), free_e=False,
        )
        assert [res.method for res in results] == ["trf"] * 3
        assert [res.stop_reason for res in results] == ["stationary"] * 3
    # e and the misfit norm are the same at every level; each level extends
    # Newton's x on D to a full-space state once, where it stops
    assert builds == ["L2", "V"]
    assert len(extensions) == 1 + 2 * 3


def full_space_continuation(cfg, problem, obs, e, f0, kernel):
    """The friction-only Gauss-Newton continuation with a full-space forward
    solve at every trial: residual ``[Q^T B (u - obs); sqrt(beta) R_f f]``
    (``B^T B = G`` the misfit Gram, ``B Z = Q R`` a thin QR,
    ``Z = T^{-1} E_D``), Jacobian from
    ``solution_derivative``, and identify()'s stop test.  Per level: f-hat,
    stop reason, forward solves."""
    mesh = problem.mesh
    B = np.linalg.cholesky(misfit_gram(problem, cfg.misfit_norm).toarray()).T
    Q = np.linalg.qr(B @ friction_response(problem, e))[0]
    gram = f0.reg_inner_product
    R = np.sqrt(cfg.beta) * np.linalg.cholesky(gram.toarray() if hasattr(gram, "toarray") else gram).T
    nf = f0.values.size
    directions = np.vstack([np.zeros((mesh.n_elements, nf)), np.eye(nf)])
    bounds, tol = (f0.lower_bound, f0.upper_bound), np.finfo(float).eps
    levels, f, warm = [], f0, None
    for eps in cfg.eps_schedule:
        last, accepted, solves = {}, [], [0]

        def at(y):
            if "y" not in last or not np.array_equal(last["y"], y):
                fy = f.with_values(np.clip(y, *bounds))
                u0 = last["state"].u if last else warm
                last.update(y=y.copy(), f=fy, state=solution_map(e, fy, eps, problem, kernel, cfg.forward_tol, u0))
                solves[0] += 1
            return last

        def fun(y):
            return np.concatenate([Q.T @ (B @ free_part(mesh, at(y)["state"].u - obs)), R @ y])

        def jac(y):
            point = dict(at(y))
            du = solution_derivative(point["state"], problem, e, point["f"], kernel, eps, directions)
            J = np.vstack([Q.T @ (B @ free_part(mesh, du)), R])
            accepted.append(point)
            if projected_residual(point["f"], J.T @ fun(y)) <= cfg.stop_tol:
                raise StopIteration("stationary")
            if len(accepted) > cfg.max_iters:
                raise StopIteration("max_iters")
            return J

        try:
            reason = least_squares(fun, f.values, jac=jac, bounds=bounds, method="trf", x_scale="jac",
                                   ftol=tol, xtol=tol, gtol=tol).message
        except StopIteration as stop:
            reason = stop.args[0]
        f, warm = accepted[-1]["f"], accepted[-1]["state"].u
        levels.append((f.values, reason, solves[0]))
    return levels


CONTINUATION_YAML = """\
problem:
  mesh: {dimension: 2, n: 16}
  source: 10.0
  friction: {value: 1.0, lower: 0.0, upper: 5.0}
kernel: sqrt
experiment:
  kind: continuation
  eps_schedule: [1.0e-1, 1.0e-2, 1.0e-3, 1.0e-4]
  free_e: false
  initial_friction: 1.0
  true_friction: 0.2537
"""


def twin_6(tmp_path):
    mesh, problem, e, obs = continuation_2d_twin(6)
    cfg = config(alpha=1e-8, beta=1e-8, eps_schedule=(1e-1, 1e-2, 1e-3, 1e-4))
    return cfg, problem, obs, e, friction_field(mesh, 1.0), get_kernel("sqrt")


def cli_yaml_16(tmp_path):
    path = tmp_path / "continuation.yaml"
    path.write_text(CONTINUATION_YAML)
    cfg = parse_config(path)
    problem, obs, e, _, _, f0 = _twin_setup(cfg, 0)
    return _ident_config(cfg, cfg.experiment["eps_schedule"]), problem, obs, e, f0, get_kernel(cfg.kernel)


@pytest.mark.parametrize("setting", [twin_6, cli_yaml_16], ids=["twin_6", "cli_yaml_16"])
def test_the_friction_set_path_matches_a_full_space_reference(monkeypatch, tmp_path, setting):
    cfg, problem, obs, e, f0, kernel = setting(tmp_path)
    accepted = []
    real_accept = identify_module._Run.accept

    def recording(run, point):
        u0 = np.zeros(problem.mesh.n_nodes)
        u0[problem.mesh.friction_nodes] = point.friction.x
        accepted.append((point.f, u0))
        return real_accept(run, point)

    monkeypatch.setattr(identify_module._Run, "accept", recording)
    results = continuation_identify(cfg, problem, obs, e, f0, kernel, free_e=False)
    assert [res.method for res in results] == ["trf"] * len(cfg.eps_schedule)
    reference = full_space_continuation(cfg, problem, obs, e, f0, kernel)
    for res, (f_hat, reason, solves) in zip(results, reference):
        assert np.abs(res.f_hat.values - f_hat).max() <= 1e-10 * np.abs(f_hat).max()
        assert (res.stop_reason, res.forward_solves) == (reason, solves)
        for value in res.objective_history:
            # Newton started from the same x: the stopping test moves the
            # value of a cold start by up to 3e-10 relative at forward_tol 1e-12
            f, u0 = accepted.pop(0)
            full = reduced_objective(e, f, problem, obs, kernel, res.eps_used, cfg.alpha, cfg.beta,
                                     cfg.misfit_norm, tol=cfg.forward_tol, u0_full=u0)[0]
            assert abs(value - full) <= 1e-10 * full
    assert not accepted


def test_each_trial_starts_newton_from_the_jacobians_prediction(monkeypatch, tmp_path, free_e=False):
    cfg, problem, obs, e, f0, kernel = twin_6(tmp_path)
    if free_e:
        e = e.with_values(np.full_like(e.values, 1.3))
    real, distances = identify_module.solve_friction_set, []

    def recording(*args, starts=(), **kwargs):
        solution = real(*args, starts=starts, **kwargs)
        distances.append([np.linalg.norm(start - solution.x) for start in starts])
        return solution

    monkeypatch.setattr(identify_module, "solve_friction_set", recording)
    continuation_identify(cfg, problem, obs, e, f0, kernel, free_e=free_e)
    # a level's start has the previous level's x (the first level's none);
    # every trial has the prediction, then the x it was predicted from
    counts = [len(d) for d in distances]
    assert counts.count(1) == len(cfg.eps_schedule) - 1
    trials = [d for d in distances if len(d) == 2]
    assert len(trials) == len(distances) - len(cfg.eps_schedule)
    # with e free the first level's steps in e are long, and x is not linear
    # in e: there the prediction is only the closer of the two starts
    first = [d for d in distances[: counts.index(1)] if len(d) == 2] if free_e else []
    assert all(predicted < previous for predicted, previous in first)
    assert all(predicted <= 0.1 * previous for predicted, previous in trials[len(first) :])


def test_each_joint_trial_starts_newton_from_the_jacobians_prediction(monkeypatch, tmp_path):
    test_each_trial_starts_newton_from_the_jacobians_prediction(monkeypatch, tmp_path, free_e=True)


def test_a_failure_on_the_friction_set_carries_the_trial_point(monkeypatch):
    test_failure_inside_the_line_search_carries_the_trial_point(monkeypatch, friction_only_2d_failure)


def test_a_failed_full_space_check_carries_the_accepted_point(monkeypatch):
    mesh, problem, e, obs = continuation_2d_twin(6)
    accepted = []
    real_accept = identify_module._Run.accept

    def recording(run, point):
        accepted.append(point.f.values)
        return real_accept(run, point)

    def failing(*args, **kwargs):
        raise SolverError("injected failure", residual=1.0)

    monkeypatch.setattr(identify_module._Run, "accept", recording)
    monkeypatch.setattr(identify_module, "friction_set_state", failing)
    with pytest.raises(SolverError) as err:
        identify(config(alpha=1e-8, beta=1e-8), problem, obs, e, friction_field(mesh, 1.0),
                 get_kernel("sqrt"), 1e-1, free_e=False)
    snap = err.value.iterate
    assert snap["iteration"] == len(accepted) - 1 > 0
    assert np.array_equal(snap["f"], accepted[-1])


@pytest.mark.parametrize("misfit_norm", ["L2", "V"])
@pytest.mark.parametrize("free_e", [False, True], ids=["f_only", "joint"])
def test_the_stop_test_gradient_is_the_adjoint_gradient(free_e, misfit_norm):
    mesh, problem, e, obs = continuation_2d_twin(6)
    cfg = config(alpha=1e-6, beta=1e-6, max_iters=0, misfit_norm=misfit_norm)  # stop at trf's first point
    run = identify_module._Run(cfg, problem, obs, e.with_values(np.full_like(e.values, 1.3)),
                               friction_field(mesh, 0.6), KERNEL, 1e-2, free_e, True, None)
    assert run.least_squares() is None
    point = run.accepted  # its gradient is J^T r
    adjoint = run.adjoint_gradient(dataclasses.replace(point, grad=None, stationarity=None))
    assert np.linalg.norm(point.grad - adjoint.grad) <= 1e-10 * np.linalg.norm(adjoint.grad)
    assert np.allclose(point.stationarity, adjoint.stationarity, rtol=1e-10, atol=0.0)
    assert (point.stationarity[0] > 0) == free_e


@pytest.mark.parametrize("misfit_norm", ["L2", "V"])
@pytest.mark.parametrize("free_e", [False, True], ids=["f_only", "joint"])
def test_the_gauss_newton_rows_square_to_the_objective(monkeypatch, free_e, misfit_norm):
    # 1/2 |rows|^2 is 1/2 r^T G r + the regularization of the free fields,
    # less kappa when e is fixed: the misfit rows are read through the
    # assembled Gram G
    mesh, problem, e, obs = continuation_2d_twin(6)
    cfg = config(alpha=1e-3, beta=1e-3, misfit_norm=misfit_norm)
    run = identify_module._Run(cfg, problem, obs, e.with_values(np.full_like(e.values, 1.3)),
                               friction_field(mesh, 0.6), KERNEL, 1e-2, free_e, True, None)
    rows = []

    def first_rows(fun, y0, **kwargs):
        rows.append(fun(y0))
        raise identify_module._Stop

    monkeypatch.setattr(identify_module, "least_squares", first_rows)
    assert run.least_squares() is None
    kappa = 0.0 if free_e else run.friction_misfit[2]
    alpha = cfg.alpha if free_e else 0.0  # a fixed e adds a constant, not a row
    value = reduced_objective(run.e0, run.f0, problem, obs, KERNEL, 1e-2, alpha, cfg.beta,
                              misfit_norm, tol=cfg.forward_tol)[0]
    assert abs(0.5 * rows[0] @ rows[0] + kappa - value) <= 1e-10 * value


@pytest.mark.parametrize("n", [32, 128])
def test_joint_identification_needs_few_forward_solves(n):
    # acceptance criterion 8's joint setting, where L-BFGS-B takes 1,642
    # objective evaluations at n = 32 and more on finer meshes
    mesh, problem, _, _, obs = twin(n=n)
    cfg = config(alpha=1e-8, beta=1e-8, max_iters=15000, stop_tol=1e-10, misfit_norm="V")
    res = identify(cfg, problem, obs, ellipticity_field(mesh, 1.3), friction_field(mesh, 0.1), KERNEL, 1e-4)
    assert res.stop_reason == "stationary"
    assert res.misfit <= 1e-10
    assert res.forward_solves <= 20


# --- continuation -----------------------------------------------------------------


def test_single_level_continuation_reduces_to_identify():
    mesh, problem, e_true, _, obs = twin()
    f0 = friction_field(mesh, 0.1)
    cfg = config(eps_schedule=(1e-3,))
    runs = continuation_identify(cfg, problem, obs, e_true, f0, KERNEL, free_e=False)
    single = identify(cfg, problem, obs, e_true, f0, KERNEL, 1e-3, free_e=False)
    assert len(runs) == 1
    assert np.array_equal(runs[0].f_hat.values, single.f_hat.values)
    assert runs[0].objective_history == single.objective_history


def test_empty_schedule_is_a_config_error():
    mesh, problem, e_true, _, obs = twin()
    cfg = config(eps_schedule=(1e-3,))
    object.__setattr__(cfg, "eps_schedule", ())
    with pytest.raises(ConfigError):
        continuation_identify(cfg, problem, obs, e_true,
                              friction_field(mesh, 0.1), KERNEL)


def test_continuation_from_a_stick_start_settles():
    # f0 = 1.0 starts in the stick regime where the unsmoothed derivative
    # carries no signal; the wide first smoothing level pulls it out, and the
    # iterates settle as eps decreases
    mesh, problem, e_true, _, obs = twin(n=32)
    cfg = config(alpha=1e-8, beta=1e-8, eps_schedule=(1e-1, 1e-2, 1e-3, 1e-4),
                 max_iters=500)
    f0 = friction_field(mesh, 1.0)
    runs = continuation_identify(cfg, problem, obs, e_true, f0, KERNEL, free_e=False)
    assert abs(runs[-1].f_hat.values[0] - 0.25) < 1e-3
    dist = continuation_distances(runs)
    assert len(dist["successive"]) == 3
    assert dist["successive_decreasing"]
    assert dist["to_final"][-1] == 0.0


def test_eps_used_tracks_the_schedule():
    mesh, problem, e_true, _, obs = twin()
    cfg = config(eps_schedule=(1e-2, 1e-3), max_iters=50)
    runs = continuation_identify(cfg, problem, obs, e_true,
                                 friction_field(mesh, 0.1), KERNEL, free_e=False)
    assert [r.eps_used for r in runs] == [1e-2, 1e-3]


# --- observation synthesis ---------------------------------------------------------


def test_noiseless_observation_is_the_oracle_solution():
    mesh, problem, e_true, f_true, obs = twin()
    exact = solve_vi_oracle(problem.factorization(e_true), mesh, f_true)
    assert np.array_equal(obs, exact.u)


def test_observation_noise_amplitude_and_support():
    mesh, problem, e_true, f_true, _ = twin()
    clean = synthesize_observation(problem, e_true, f_true)
    noisy = synthesize_observation(problem, e_true, f_true, noise_level=0.01, seed=5)
    dev = np.abs(noisy - clean)
    assert dev.max() <= 0.01 * np.abs(clean).max() + 1e-15
    assert dev.max() > 0
    # Dirichlet nodes stay exact
    assert np.all(dev[mesh.dirichlet_nodes] == 0.0)


def test_observation_is_deterministic_per_seed():
    mesh, problem, e_true, f_true, _ = twin()
    a = synthesize_observation(problem, e_true, f_true, noise_level=0.02, seed=9)
    b = synthesize_observation(problem, e_true, f_true, noise_level=0.02, seed=9)
    c = synthesize_observation(problem, e_true, f_true, noise_level=0.02, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
