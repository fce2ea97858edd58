"""Regularized output-least-squares identification of (e, f).

The driver minimizes

    J_eps(e, f) + alpha/2 |e|_E^2 + beta/2 |f|_F^2,
    J_eps(e, f) = 1/2 ||S_eps(e, f) - observation||^2,

over the admissible boxes.  The objective is a sum of squares, and the
regularized solution map is smooth, so a run with few coefficients is bounded
Gauss-Newton: scipy's trust-region least squares ``trf`` (Branch, Coleman,
Li, SIAM J. Sci. Comput. 21, 1999) with the dense Jacobian of the solution map
from one block solve, about ten forward solves per run.  Where that Jacobian
is large (many free elements, or a fine 2D mesh) a run is scipy's
L-BFGS-B (Byrd, Lu, Nocedal, Zhu, SIAM J. Sci. Comput. 16, 1995), one forward
and one adjoint solve per evaluation.  Either way scipy's own stopping tests
are at most round-off: a run stops on the projected-gradient residuals of
:func:`~vi_ident.adjoint.reduced_gradients`, which vanish exactly at discrete
KKT points of the box-constrained problem.  Only accepted iterates enter the
histories, so the objective history is non-increasing and every iterate stays
feasible.

:func:`continuation_identify` repeats the minimization over a decreasing
epsilon schedule with warm starts, recording the parameter distances used by
the convergence report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import block_diag, cholesky
from scipy.optimize import Bounds, least_squares, minimize

from .adjoint import (
    MISFIT_NORMS,
    LinearizedMap,
    adjoint_solve,
    misfit_factor,
    reduced_gradients,
    reduced_objective,
    solution_derivative,
)
from .discretization import ParameterField, free_part, reg_inner
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
        if self.misfit_norm not in MISFIT_NORMS:
            raise ConfigError(f"misfit_norm must be one of {MISFIT_NORMS}, got {self.misfit_norm!r}")
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
    forward_solves: int = 0  # objective evaluations, one forward solve each


# The largest dense Jacobian (residual length x free coefficients) for which
# identify() runs Gauss-Newton (trf).  Each trf iteration takes an SVD of it,
# and each Jacobian is a block solve with one column per free coefficient; in
# 2D twin runs L-BFGS-B overtook trf between 169,000 and 348,000 entries.
_LEAST_SQUARES_MAX_ENTRIES = 250_000


class _Stop(Exception):
    """Raised from the least-squares Jacobian to end a run at an accepted
    iterate."""


@dataclass
class _Point:
    """One evaluation: the optimizer's variable x and what the driver needs at
    it.  The linearized map, the gradient and the stationarity are filled in
    when first needed."""

    x: np.ndarray
    e: ParameterField
    f: ParameterField
    value: float
    misfit: float
    state: ForwardState
    linmap: LinearizedMap | None = None
    grad: np.ndarray | None = None
    stationarity: tuple[float, float] | None = None


class _Run:
    """One :func:`identify` run: its evaluations, its accepted iterates and
    its stop test, shared by both optimizers."""

    def __init__(self, config, problem, observation, e0, f0, kernel, eps, free_e, free_f, u0_full):
        self.config, self.problem, self.observation = config, problem, observation
        self.e0, self.f0, self.kernel, self.eps = e0, f0, kernel, eps
        self.free_e, self.free_f, self.u0_full = free_e, free_f, u0_full
        ne, nf = e0.values.size, f0.values.size
        self.ne = ne
        self.x0 = np.concatenate([e0.values, f0.values])
        self.free = np.repeat([free_e, free_f], [ne, nf])
        self.lower = np.where(self.free, np.repeat([e0.lower_bound, f0.lower_bound], [ne, nf]), self.x0)
        self.upper = np.where(self.free, np.repeat([e0.upper_bound, f0.upper_bound], [ne, nf]), self.x0)
        self.objective_history: list[float] = []
        self.stationarity_history: list[tuple[float, float]] = []
        self.last = self.accepted = None  # the last evaluated and the last accepted _Point
        self.forward_solves = 0

    def evaluate(self, x, gradient=True) -> _Point:
        """The _Point at x, with its gradient unless ``gradient`` is False."""
        cfg, problem, kernel, eps = self.config, self.problem, self.kernel, self.eps
        point = self.last if self.last is not None and np.array_equal(x, self.last.x) else None
        clipped = np.clip(x, self.lower, self.upper)
        e, f = self.e0.with_values(clipped[: self.ne]), self.f0.with_values(clipped[self.ne :])
        try:
            if point is None:
                value, misfit, state = reduced_objective(
                    e, f, problem, self.observation, kernel, eps, cfg.alpha, cfg.beta, cfg.misfit_norm,
                    tol=cfg.forward_tol, u0_full=self.u0_full if self.last is None else self.last.state.u,
                )
                self.forward_solves += 1
                point = self.last = _Point(x.copy(), e, f, value, misfit, state)
            if gradient and point.grad is None:
                state = point.state
                point.linmap = LinearizedMap(state, problem, e, f, kernel, eps)
                p = adjoint_solve(state, problem, e, f, kernel, eps, self.observation, cfg.misfit_norm,
                                  linmap=point.linmap)
                bundle = reduced_gradients(state, p, problem, e, f, kernel, eps, cfg.alpha, cfg.beta,
                                           linmap=point.linmap)
                point.grad = np.where(self.free, np.concatenate([bundle.grad_e, bundle.grad_f]), 0.0)
                point.stationarity = (bundle.stationarity_e if self.free_e else 0.0,
                                      bundle.stationarity_f if self.free_f else 0.0)
        except SolverError as err:
            err.iterate = {"iteration": len(self.objective_history),
                           "e": e.values.copy(), "f": f.values.copy()}
            raise
        return point

    def accept(self, x) -> bool:
        """Record an accepted iterate; True once the run stops there."""
        self.accepted = self.evaluate(x)
        self.objective_history.append(self.accepted.value)
        self.stationarity_history.append(self.accepted.stationarity)
        return (max(self.accepted.stationarity) <= self.config.stop_tol
                or len(self.objective_history) > self.config.max_iters)

    def lbfgsb(self) -> str | None:
        """L-BFGS-B from ``x0``; scipy's message, or None when :meth:`accept`
        stopped the run."""
        if self.accept(self.x0):
            return None

        def fun(x):
            point = self.evaluate(x)
            return point.value, point.grad

        def callback(intermediate_result):
            if self.accept(intermediate_result.x):
                raise StopIteration

        result = minimize(
            fun, self.x0, jac=True, method="L-BFGS-B", bounds=Bounds(self.lower, self.upper),
            callback=callback,
            options={"ftol": 0.0, "gtol": 0.0, "maxiter": self.config.max_iters, "maxfun": np.inf},
        )
        return result.message

    def least_squares(self) -> str | None:
        """Gauss-Newton (scipy's ``trf``) on the free coefficients from
        ``x0``; scipy's message, or None when :meth:`accept` stopped the run.

        ``trf`` evaluates the Jacobian only at its start and at the points it
        accepts, each of lower cost than the one before, so the Jacobian
        records each one and runs the stop test there.  ``trf`` starts at
        ``x0`` moved off any bound it lies on by a relative 1e-10.  Scipy's
        own tests are set to round-off.
        """
        cfg, mesh, free = self.config, self.problem.mesh, self.free
        B = misfit_factor(self.problem, cfg.misfit_norm)
        data = B @ free_part(mesh, np.asarray(self.observation, dtype=float))
        # R^T R = the regularization Grams of the free fields, scaled
        R = block_diag(*(
            np.sqrt(weight) * cholesky(gram.toarray() if sp.issparse(gram) else gram)
            for weight, gram, is_free in (
                (cfg.alpha, self.e0.reg_inner_product, self.free_e),
                (cfg.beta, self.f0.reg_inner_product, self.free_f),
            )
            if is_free
        ))

        def full(y):
            x = self.x0.copy()
            x[free] = y
            return x

        p = np.count_nonzero(free)
        directions = np.zeros((free.size, p))
        directions[free] = np.eye(p)  # the free columns of the identity

        def fun(y):
            point = self.evaluate(full(y), gradient=False)
            return np.concatenate([B @ free_part(mesh, point.state.u) - data, R @ y])

        def jac(y):
            x = full(y)
            if self.accept(x):
                raise _Stop
            point = self.evaluate(x)
            du = solution_derivative(point.state, self.problem, point.e, point.f, self.kernel, self.eps,
                                     directions, linmap=point.linmap)
            return np.vstack([B @ free_part(mesh, du), R])

        tol = np.finfo(float).eps
        try:
            result = least_squares(
                fun, self.x0[free], jac=jac, bounds=(self.lower[free], self.upper[free]),
                method="trf", x_scale="jac", ftol=tol, xtol=tol, gtol=tol,
            )
        except _Stop:
            return None
        return result.message


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
    """Minimization of the regularized objective at fixed eps.

    The variable is ``concat(e, f)``; a field held fixed (``free_e``/``free_f``
    False) does not move and has zero stationarity residual.  While the
    residual ``[B (u - observation); sqrt(alpha) R_e e; sqrt(beta) R_f f]`` of
    the free fields (``B^T B`` the misfit Gram, ``R^T R`` the regularization
    Grams) has a Jacobian of at most ``_LEAST_SQUARES_MAX_ENTRIES`` entries,
    the run is scipy's bounded trust-region least squares (``trf``) on it,
    with the dense Jacobian of :func:`~vi_ident.adjoint.solution_derivative`
    (``1/2 |residual|^2`` is the objective up to the fixed fields' constant
    regularization terms); above that size, or with no field free, it is
    L-BFGS-B with the adjoint gradient.
    The run stops at the first accepted iterate whose stationarity is at most
    ``stop_tol`` (the start included), after ``max_iters`` accepted iterates,
    or when the optimizer gives up; the last accepted iterate is returned.
    A forward-solver failure raises ``SolverError`` with the point it failed at
    attached as ``err.iterate = {"iteration", "e", "f"}``.
    """
    run = _Run(config, problem, observation, e0, f0, kernel, eps, free_e, free_f, u0_full)
    p = np.count_nonzero(run.free)
    # B has m rows per element of m nodes
    gauss_newton = 0 < p and p * (problem.mesh.elements.size + p) <= _LEAST_SQUARES_MAX_ENTRIES
    message = run.least_squares() if gauss_newton else run.lbfgsb()
    accepted, n_accepted = run.accepted, len(run.objective_history)
    if max(accepted.stationarity) <= config.stop_tol:
        stop_reason = "stationary"
    elif n_accepted > config.max_iters:
        stop_reason = "max_iters"
    else:
        stop_reason = message

    return IdentificationResult(
        e_hat=accepted.e,
        f_hat=accepted.f,
        objective_history=tuple(run.objective_history),
        stationarity_history=tuple(run.stationarity_history),
        final_state=accepted.state,
        eps_used=float(eps),
        misfit=accepted.misfit,
        stop_reason=stop_reason,
        forward_solves=run.forward_solves,
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
