"""Identification-driver tests: descent, feasibility, recovery, continuation."""
from __future__ import annotations

import importlib
import inspect

import numpy as np
import pytest

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
)

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


def test_solver_failure_carries_the_iterate_snapshot():
    mesh, problem, _, _, obs = twin()
    e0 = ellipticity_field(mesh, 1.0)
    f0 = friction_field(mesh, 1.0)
    cfg = config(forward_tol=1e-30, max_iters=5)  # unattainable tolerance
    with pytest.raises(SolverError) as err:
        identify(cfg, problem, obs, e0, f0, KERNEL, 1e-4, free_e=False)
    snap = err.value.iterate
    assert snap["iteration"] == 0
    assert np.array_equal(snap["f"], f0.values)


def test_failure_inside_the_line_search_carries_the_trial_point(monkeypatch):
    mesh, problem, _, _, obs = twin()
    real = identify_module.reduced_objective
    calls = []

    def failing_on_third_call(e, f, *args, **kwargs):
        calls.append((e.values.copy(), f.values.copy()))
        if len(calls) == 3:
            raise SolverError("injected failure", residual=1.0)
        return real(e, f, *args, **kwargs)

    monkeypatch.setattr(identify_module, "reduced_objective", failing_on_third_call)
    with pytest.raises(SolverError) as err:
        identify(config(), problem, obs, ellipticity_field(mesh, 1.3),
                 friction_field(mesh, 0.1), KERNEL, 1e-3)
    snap = err.value.iterate
    assert snap["iteration"] >= 1
    assert np.array_equal(snap["e"], calls[-1][0])
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
    calls = count_calls(monkeypatch, "reduced_objective")
    res = identify(config(alpha=1e-8, beta=1e-8, stop_tol=1e-6), problem, obs,
                   ellipticity_field(mesh, 1.3), friction_field(mesh, 0.1), KERNEL, 1e-3)
    assert res.stop_reason == "stationary"
    assert res.forward_solves == len(calls) >= len(res.objective_history)


def test_the_jacobian_size_selects_the_optimizer(monkeypatch):
    mesh, problem, _, _, obs = twin()
    p = mesh.n_elements + 1  # both fields free, one friction node
    entries = p * (mesh.elements.size + p)  # the misfit factor has 2 rows per element
    calls = count_calls(monkeypatch, "least_squares")
    for limit, runs in ((entries, 1), (entries - 1, 1)):
        monkeypatch.setattr(identify_module, "_LEAST_SQUARES_MAX_ENTRIES", limit)
        res = identify(config(alpha=1e-8, beta=1e-8, stop_tol=1e-6), problem, obs,
                       ellipticity_field(mesh, 1.3), friction_field(mesh, 0.1), KERNEL, 1e-3)
        assert res.stop_reason == "stationary"
        assert len(calls) == runs


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
    op = problem.operator(e_true)
    exact = solve_vi_oracle(op, mesh, f_true)
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
