"""Regularized output-least-squares identification of (e, f).

The driver minimizes

    J_eps(e, f) + alpha/2 |e|_E^2 + beta/2 |f|_F^2,
    J_eps(e, f) = 1/2 ||S_eps(e, f) - observation||^2,

over the admissible boxes with scipy's L-BFGS-B (Byrd, Lu, Nocedal, Zhu, SIAM
J. Sci. Comput. 16, 1995); one forward and one adjoint solve give the value and
the reduced gradient.  Scipy's own stopping tests are off: a run stops on the
projected-gradient residuals of :func:`~vi_ident.adjoint.reduced_gradients`,
which vanish exactly at discrete KKT points of the box-constrained problem.
Only accepted iterates enter the histories, so the objective history is
non-increasing and every iterate stays feasible.

:func:`continuation_identify` repeats the minimization over a decreasing
epsilon schedule with warm starts, recording the parameter distances used by
the convergence report.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, minimize

from .adjoint import adjoint_solve, reduced_gradients, reduced_objective
from .discretization import ParameterField, reg_inner
from .errors import ConfigError, SolverError
from .forward import ForwardState, Problem, solution_map
from .kernels import KernelSpec

__all__ = [
    "IdentificationConfig",
    "IdentificationResult",
    "identify",
    "continuation_identify",
    "continuation_distances",
    "synthesize_observation",
]


@dataclass(frozen=True)
class IdentificationConfig:
    """Driver settings.

    ``max_iters`` caps the accepted iterates and ``stop_tol`` is the
    stationarity at which a run stops; ``eps_schedule`` is only consulted by
    :func:`continuation_identify` and must be strictly decreasing.
    """

    alpha: float = 1e-8
    beta: float = 1e-8
    eps_schedule: tuple[float, ...] = (1e-2,)
    max_iters: int = 500
    stop_tol: float = 1e-9
    misfit_norm: str = "L2"
    forward_tol: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "eps_schedule", tuple(float(x) for x in self.eps_schedule))
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be nonnegative")
        sched = self.eps_schedule
        if any(x <= 0 for x in sched) or any(later >= earlier for earlier, later in zip(sched[:-1], sched[1:])):
            raise ConfigError("eps_schedule must be positive and strictly decreasing")


@dataclass(frozen=True)
class IdentificationResult:
    e_hat: ParameterField
    f_hat: ParameterField
    objective_history: tuple[float, ...]
    stationarity_history: tuple[tuple[float, float], ...]
    final_state: ForwardState
    eps_used: float
    misfit: float = field(default=float("nan"))
    stop_reason: str = ""  # "stationary", "max_iters" or scipy's message


# One evaluation: the optimizer's variable x and what the driver needs at it.
_Point = namedtuple("_Point", "x e f value misfit state grad stationarity")


def identify(
    config: IdentificationConfig,
    problem: Problem,
    observation: np.ndarray,
    e0: ParameterField,
    f0: ParameterField,
    kernel: KernelSpec,
    eps: float,
    free_e: bool = True,
    free_f: bool = True,
    u0_full: np.ndarray | None = None,
) -> IdentificationResult:
    """L-BFGS-B minimization of the regularized objective at fixed eps.

    The variable is ``concat(e, f)``; a field held fixed (``free_e``/``free_f``
    False) gets equal bounds, zero gradient and zero stationarity residual.
    The run stops at the first accepted iterate whose stationarity is at most
    ``stop_tol`` (the start included), after ``max_iters`` accepted iterates,
    or when the line search gives up; the last accepted iterate is returned.
    A forward-solver failure raises ``SolverError`` with the point it failed at
    attached as ``err.iterate = {"iteration", "e", "f"}``.
    """
    ne, nf = e0.values.size, f0.values.size
    x0 = np.concatenate([e0.values, f0.values])
    free = np.repeat([free_e, free_f], [ne, nf])
    lower = np.where(free, np.repeat([e0.lower_bound, f0.lower_bound], [ne, nf]), x0)
    upper = np.where(free, np.repeat([e0.upper_bound, f0.upper_bound], [ne, nf]), x0)
    objective_history: list[float] = []
    stationarity_history: list[tuple[float, float]] = []
    last = accepted = None  # the last evaluated and the last accepted _Point

    def evaluate(x):
        nonlocal last
        if last is not None and np.array_equal(x, last.x):
            return last
        clipped = np.clip(x, lower, upper)
        e, f = e0.with_values(clipped[:ne]), f0.with_values(clipped[ne:])
        try:
            value, misfit, state = reduced_objective(
                e, f, problem, observation, kernel, eps,
                config.alpha, config.beta, config.misfit_norm,
                tol=config.forward_tol, u0_full=u0_full if last is None else last.state.u,
            )
            p = adjoint_solve(state, problem, e, f, kernel, eps, observation, config.misfit_norm)
            bundle = reduced_gradients(
                state, p, problem, e, f, kernel, eps, config.alpha, config.beta
            )
        except SolverError as err:
            err.iterate = {"iteration": len(objective_history),
                           "e": e.values.copy(), "f": f.values.copy()}
            raise
        grad = np.where(free, np.concatenate([bundle.grad_e, bundle.grad_f]), 0.0)
        stationarity = (bundle.stationarity_e if free_e else 0.0,
                        bundle.stationarity_f if free_f else 0.0)
        last = _Point(x.copy(), e, f, value, misfit, state, grad, stationarity)
        return last

    def fun(x):
        point = evaluate(x)
        return point.value, point.grad

    def accept(x):
        """Record an accepted iterate; True once it is stationary."""
        nonlocal accepted
        accepted = evaluate(x)
        objective_history.append(accepted.value)
        stationarity_history.append(accepted.stationarity)
        return max(accepted.stationarity) <= config.stop_tol

    def callback(intermediate_result):
        if accept(intermediate_result.x):
            raise StopIteration

    scipy_result = None
    if not accept(x0) and config.max_iters > 0:
        scipy_result = minimize(
            fun, x0, jac=True, method="L-BFGS-B", bounds=Bounds(lower, upper),
            callback=callback,
            options={"ftol": 0.0, "gtol": 0.0, "maxiter": config.max_iters, "maxfun": np.inf},
        )
    if max(accepted.stationarity) <= config.stop_tol:
        stop_reason = "stationary"
    elif len(objective_history) > config.max_iters:
        stop_reason = "max_iters"
    else:
        stop_reason = scipy_result.message

    return IdentificationResult(
        e_hat=accepted.e,
        f_hat=accepted.f,
        objective_history=tuple(objective_history),
        stationarity_history=tuple(stationarity_history),
        final_state=accepted.state,
        eps_used=float(eps),
        misfit=accepted.misfit,
        stop_reason=stop_reason,
    )


def continuation_identify(
    config: IdentificationConfig,
    problem: Problem,
    observation: np.ndarray,
    e0: ParameterField,
    f0: ParameterField,
    kernel: KernelSpec,
    free_e: bool = True,
    free_f: bool = True,
) -> list[IdentificationResult]:
    """Run identify over the decreasing eps schedule with warm starts."""
    if not config.eps_schedule:
        raise ConfigError("eps_schedule must not be empty")
    results: list[IdentificationResult] = []
    e, f = e0, f0
    warm = None
    for eps in config.eps_schedule:
        res = identify(
            config, problem, observation, e, f, kernel, eps,
            free_e=free_e, free_f=free_f, u0_full=warm,
        )
        results.append(res)
        e, f = res.e_hat, res.f_hat
        warm = res.final_state.u
    return results


def _param_distance(a: IdentificationResult, b: IdentificationResult) -> float:
    de = a.e_hat.values - b.e_hat.values
    df = a.f_hat.values - b.f_hat.values
    d2 = reg_inner(a.e_hat, de, de) + reg_inner(a.f_hat, df, df)
    return float(np.sqrt(d2))


def continuation_distances(results: list[IdentificationResult]) -> dict:
    """Distances between continuation levels, in the regularization norms.

    Returns ``successive`` (length len-1), ``to_final`` (distance of each
    level's optimum to the last one), and the flag ``successive_decreasing``
    used by the convergence report.
    """
    successive = [
        _param_distance(a, b) for a, b in zip(results[:-1], results[1:])
    ]
    to_final = [_param_distance(r, results[-1]) for r in results]
    decreasing = all(b <= a for a, b in zip(successive[:-1], successive[1:]))
    return {
        "successive": successive,
        "to_final": to_final,
        "successive_decreasing": bool(decreasing) if len(successive) > 1 else True,
    }


def synthesize_observation(
    problem: Problem,
    e_true: ParameterField,
    f_true: ParameterField,
    noise_level: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Oracle solution at the true parameters plus seeded uniform noise.

    The noise is componentwise uniform in [-a, a] with amplitude
    ``a = noise_level * max|u|``, added on the free nodes only so the
    observation keeps a zero trace on the Dirichlet set.
    """
    state = solution_map(e_true, f_true, 0.0, problem)
    u = state.u.copy()
    if noise_level > 0.0:
        rng = np.random.default_rng(seed)
        amp = noise_level * float(np.abs(u).max())
        u[problem.mesh.free_nodes] += rng.uniform(-amp, amp, size=problem.mesh.free_nodes.size)
    return u
