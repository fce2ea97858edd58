"""Regularized output-least-squares identification of (e, f).

The driver minimizes

    J_eps(e, f) + alpha/2 |e|_E^2 + beta/2 |f|_F^2,
    J_eps(e, f) = 1/2 ||S_eps(e, f) - observation||^2,

over the admissible boxes.  The objective is a sum of squares, and the
regularized solution map is smooth, so a run with few coefficients is bounded
Gauss-Newton: scipy's trust-region least squares ``trf`` (Branch, Coleman,
Li, SIAM J. Sci. Comput. 21, 1999) with a dense Jacobian, about ten forward
solves per run.  The state is the harmonic extension of its values
``x = u_D`` on the friction set D, so every trial is one Newton solve on D
(:func:`~vi_ident.forward.solve_friction_set` on the factorization of
``T(e)``, :meth:`~vi_ident.forward.Problem.factorization`), under
Gauss-Newton started from the last Jacobian's prediction
``x_at + (dx/dy)(y - y_at)`` in the free coefficients ``y``.  With ``e``
free the misfit rows are ``C (u - observation)``, ``C`` the dense upper
Cholesky factor of the misfit Gram matrix ``G`` on the free dofs
(:func:`~vi_ident.adjoint.misfit_gram`), and the Jacobian is the solution
map's, from one block solve; its rows on D are ``dx/dy``.  With only ``f``
free the state ``y + H (x - y_D)`` is affine in ``x`` (``H`` the harmonic
extension off D), so the run stays on D: the misfit rows are the |D| rows
``c + W (x - y_D)`` of :func:`~vi_ident.adjoint.friction_misfit_factor` (the
misfit up to a constant), the |D| x |D| Jacobian takes one Cholesky
factorization and no solve with ``T``, and trials are accepted on Newton's
gradient test on D, the full-space residual of the harmonic extension of
``x``; the full-space state, with its own residual check, is built once per
run, where it stops (and for the adjoint gradient, when asked).  A run with
only ``f`` free is ``trf`` at any size.  With ``e`` free it is ``trf`` while
the Jacobian (misfit rows plus one regularization row per free coefficient,
times the free coefficients) has at most ``_LEAST_SQUARES_MAX_ENTRIES``
entries, with the misfit rows counted as m per element of m nodes; above that
it is scipy's L-BFGS-B (Byrd, Lu, Nocedal, Zhu, SIAM J. Sci. Comput. 16,
1995), one forward and one adjoint solve per evaluation.  With no field free a
run (``method`` ``"none"``) evaluates its start and stops there.  Either way
scipy's own stopping tests are at most round-off: a run stops on the
projected-gradient residuals, which vanish exactly at discrete KKT points of
the box-constrained problem.
``trf`` reads the gradient ``J^T r`` off the Jacobian it has just built;
L-BFGS-B takes it from the adjoint (:func:`~vi_ident.adjoint.reduced_gradients`).
Only accepted iterates enter the histories, so the objective history is
non-increasing and every iterate stays feasible.

:func:`continuation_identify` repeats the minimization over a decreasing
epsilon schedule with warm starts, recording the parameter distances used by
the convergence report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag, cholesky
from scipy.optimize import Bounds, least_squares, minimize

from .adjoint import (
    MISFIT_NORMS,
    LinearizedMap,
    adjoint_solve,
    friction_jacobian,
    friction_misfit_factor,
    misfit_gram,
    projected_residual,
    reduced_gradients,
    regularization,
    solution_derivative,
)
from .discretization import ParameterField, free_part, reg_inner
from .errors import ConfigError, SolverError
from .forward import (
    _NEWTON_TOL,
    ForwardState,
    FrictionSetSolution,
    Problem,
    friction_set_state,
    solution_map,
    solve_friction_set,
)
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
    forward_tol: float = _NEWTON_TOL

    def __post_init__(self):
        object.__setattr__(self, "eps_schedule", tuple(float(x) for x in self.eps_schedule))
        for name, value in (("alpha", self.alpha), ("beta", self.beta), ("stop_tol", self.stop_tol)):
            if not 0 <= value < np.inf:  # a NaN fails too
                raise ConfigError(f"{name} must be finite and nonnegative, got {value}")
        if not 0 < self.forward_tol < np.inf:
            raise ConfigError(f"forward_tol must be finite and positive, got {self.forward_tol}")
        if self.max_iters < 0:
            raise ConfigError(f"max_iters must be nonnegative, got {self.max_iters}")
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
    method: str = ""  # "trf", "L-BFGS-B", or "none" with no field free


# The largest dense Jacobian (residual length x free coefficients) for which
# identify() runs Gauss-Newton (trf) with e free.  Each trf iteration takes an
# SVD of it, and each Jacobian is a block solve with one column per free
# coefficient; in 2D joint twin runs L-BFGS-B overtook trf between 169,000 and
# 348,000 entries.  The rule counts m misfit rows per element of m nodes, the
# unit of that measurement; the Jacobian itself has one misfit row per free
# dof, fewer.
_LEAST_SQUARES_MAX_ENTRIES = 250_000


class _Stop(Exception):
    """Raised from the least-squares Jacobian to end a run at an accepted
    iterate."""


@dataclass
class _Point:
    """One evaluation: the optimizer's variable x and what the driver needs at
    it.  ``friction`` holds Newton's solution on D.  With ``e`` free the
    full-space ``state`` is built with the point, for its misfit; with ``e``
    fixed ``rows`` holds the misfit rows on D and the state is built when
    first needed.  The gradient and the stationarity are filled in when
    first needed."""

    x: np.ndarray
    e: ParameterField
    f: ParameterField
    friction: FrictionSetSolution
    value: float = float("nan")
    misfit: float = float("nan")
    state: ForwardState | None = None
    rows: np.ndarray | None = None
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
        # Gauss-Newton with e fixed: (W, c, kappa) of friction_misfit_factor;
        # Gauss-Newton: (y, x, dx/dy) at the last Jacobian, y the free coefficients
        self.friction_misfit = self.prediction = None

    def evaluate(self, x) -> _Point:
        """The _Point at x: one Newton solve on D, unless x was evaluated
        last.  Newton starts from the first-order prediction of the last
        Jacobian, then from that Jacobian's ``x``; with no Jacobian yet, from
        the last trial's ``x``; before any trial, from ``u0_full`` on D.  The
        misfit is ``1/2 |rows|^2 + kappa`` on D with ``friction_misfit`` set,
        else ``1/2 r^T G r`` of the full-space state."""
        if self.last is not None and np.array_equal(x, self.last.x):
            return self.last
        cfg, mesh = self.config, self.problem.mesh
        clipped = np.clip(x, self.lower, self.upper)
        e, f = self.e0.with_values(clipped[: self.ne]), self.f0.with_values(clipped[self.ne :])
        if self.prediction is not None:
            y_at, x_at, dx_dy = self.prediction
            starts = (x_at + dx_dy @ (clipped[self.free] - y_at), x_at)
        elif self.last is not None:
            starts = (self.last.friction.x,)
        elif self.u0_full is not None:
            starts = (np.asarray(self.u0_full)[mesh.friction_nodes],)
        else:
            starts = ()
        try:
            fac = self.problem.factorization(e)
            solution = solve_friction_set(fac, f, self.kernel, self.eps, cfg.forward_tol, starts=starts)
        except SolverError as err:
            self._attach_iterate(err, e, f, len(self.objective_history))
            raise
        point = _Point(x.copy(), e, f, solution)
        if self.friction_misfit is None:
            r = free_part(mesh, self.state(point).u) - free_part(mesh, self.observation)
            point.misfit = 0.5 * float(r @ (misfit_gram(self.problem, cfg.misfit_norm) @ r))
        else:
            W, c, kappa = self.friction_misfit
            point.rows = c + W @ (solution.x - fac.load_solution[fac.positions])
            point.misfit = 0.5 * float(point.rows @ point.rows) + kappa
        point.value = point.misfit + regularization(e, f, cfg.alpha, cfg.beta)
        self.forward_solves += 1
        self.last = point
        return point

    @staticmethod
    def _attach_iterate(err, e, f, iteration):
        err.iterate = {"iteration": iteration, "e": e.values.copy(), "f": f.values.copy()}

    def state(self, point) -> ForwardState:
        """The full-space state at ``point``: the harmonic extension of
        Newton's ``x`` with its full-space residual check, built once."""
        if point.state is None:
            try:
                fac = self.problem.factorization(point.e)
                point.state = friction_set_state(fac, point.friction, self.config.forward_tol)
            except SolverError as err:
                accepted = point is self.accepted
                self._attach_iterate(err, point.e, point.f, len(self.objective_history) - accepted)
                raise
        return point.state

    def set_gradient(self, point, grad) -> _Point:
        """Give ``point`` the gradient ``grad`` in concat(e, f), zero off the
        free fields, and its projected-gradient stationarity."""
        point.grad = np.where(self.free, grad, 0.0)
        point.stationarity = (projected_residual(point.e, grad[: self.ne]) if self.free_e else 0.0,
                              projected_residual(point.f, grad[self.ne :]) if self.free_f else 0.0)
        return point

    def accept(self, point) -> bool:
        """Record an accepted iterate; True once the run stops there."""
        self.accepted = point
        self.objective_history.append(point.value)
        self.stationarity_history.append(point.stationarity)
        return (max(point.stationarity) <= self.config.stop_tol
                or len(self.objective_history) > self.config.max_iters)

    def adjoint_gradient(self, point) -> _Point:
        """Give ``point`` its gradient from one adjoint solve, unless it has
        one."""
        if point.grad is None:
            cfg = self.config
            args = (self.state(point), self.problem, point.e, point.f, self.kernel, self.eps)
            linmap = LinearizedMap(*args)
            p = adjoint_solve(*args, self.observation, cfg.misfit_norm, linmap=linmap)
            bundle = reduced_gradients(point.state, p, *args[1:], cfg.alpha, cfg.beta, linmap=linmap)
            self.set_gradient(point, np.concatenate([bundle.grad_e, bundle.grad_f]))
        return point

    def lbfgsb(self) -> str | None:
        """L-BFGS-B from ``x0`` with the adjoint gradient; scipy's message, or
        None when :meth:`accept` stopped the run."""

        def at(x):
            return self.adjoint_gradient(self.evaluate(x))

        if self.accept(at(self.x0)):
            return None

        def fun(x):
            point = at(x)
            return point.value, point.grad

        def callback(intermediate_result):
            if self.accept(at(intermediate_result.x)):
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

        The misfit rows are ``C (u - observation)`` with ``e`` free.  With
        ``e`` fixed they are the |D| rows ``c + W (x - y_D)`` of
        :func:`~vi_ident.adjoint.friction_misfit_factor`, which differ from
        the misfit by a constant, read off Newton's solution on D.  Either
        way the Jacobian's ``dx/dy`` predicts where the next trial's Newton
        starts.  ``trf`` evaluates
        the Jacobian only at its start and at the points it accepts, each of
        lower cost than the one before, so the Jacobian records each one and
        runs the stop test there, on the gradient ``J^T r`` of
        ``1/2 |r|^2``.  ``trf`` starts at ``x0`` moved off any bound it lies
        on by a relative 1e-10.  Scipy's own tests are set to round-off.
        """
        cfg, problem, mesh, free = self.config, self.problem, self.problem.mesh, self.free
        # R^T R = the regularization Grams of the free fields, scaled
        R = block_diag(*(
            np.sqrt(weight) * cholesky(gram.toarray())
            for weight, gram, is_free in (
                (cfg.alpha, self.e0.reg_inner_product, self.free_e),
                (cfg.beta, self.f0.reg_inner_product, self.free_f),
            )
            if is_free
        ))
        if self.free_e:
            # C^T C = G: N x N with N free dofs, and p >= N, so the path rule
            # bounds C as it bounds the Jacobian
            C = cholesky(misfit_gram(problem, cfg.misfit_norm).toarray())
            obs = free_part(mesh, self.observation)
            p = np.count_nonzero(free)
            directions = np.zeros((free.size, p))
            directions[free] = np.eye(p)  # the free columns of the identity

            def misfit_rows(point):
                return C @ (free_part(mesh, point.state.u) - obs)

            def misfit_jacobian(point):
                du = solution_derivative(point.state, problem, point.e, point.f, self.kernel, self.eps, directions)
                return C @ free_part(mesh, du), du[mesh.friction_nodes]
        else:
            self.friction_misfit = friction_misfit_factor(problem, self.e0, self.observation, cfg.misfit_norm)
            W = self.friction_misfit[0]

            def misfit_rows(point):
                return point.rows

            def misfit_jacobian(point):
                return friction_jacobian(problem.factorization(point.e), point.friction, W)

        def full(y):
            x = self.x0.copy()
            x[free] = y
            return x

        def fun(y):
            return np.concatenate([misfit_rows(self.evaluate(full(y))), R @ y])

        def jac(y):
            x = full(y)
            point = self.evaluate(x)
            J_misfit, dx_dy = misfit_jacobian(point)
            self.prediction = np.concatenate([point.e.values, point.f.values])[free], point.friction.x, dx_dy
            J = np.vstack([J_misfit, R])
            grad = np.zeros(x.size)
            grad[free] = J.T @ fun(y)
            if self.accept(self.set_gradient(point, grad)):
                raise _Stop
            return J

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
    False) does not move and has zero stationarity residual.  The run is
    scipy's bounded trust-region least squares (``trf``) on the residual
    ``[C (u - observation); sqrt(alpha) R_e e; sqrt(beta) R_f f]`` of the free
    fields (``C^T C`` the misfit Gram, ``R^T R`` the regularization Grams;
    ``1/2 |residual|^2`` is the objective up to a constant) while its Jacobian
    has at most ``_LEAST_SQUARES_MAX_ENTRIES`` entries, counting m misfit rows
    per element of m nodes.  With ``e`` fixed the misfit rows are the |D|
    rows of :func:`~vi_ident.adjoint.friction_misfit_factor`, and a run with
    ``f`` free is ``trf`` at any size.  Above that size with ``e`` free the
    run is L-BFGS-B with the adjoint gradient.  With no field free the start
    is evaluated once and returned, stationary, with no gradient.  The
    result's ``method`` is ``"trf"``, ``"L-BFGS-B"`` or ``"none"``.
    The run stops at the first accepted iterate whose stationarity is at most
    ``stop_tol`` (the start included), after ``max_iters`` accepted iterates,
    or when the optimizer gives up; the last accepted iterate is returned.
    A forward-solver failure raises ``SolverError`` with the point it failed at
    attached as ``err.iterate = {"iteration", "e", "f"}``.
    """
    run = _Run(config, problem, observation, e0, f0, kernel, eps, free_e, free_f, u0_full)
    p = np.count_nonzero(run.free)
    if p == 0:  # no coefficient can move: the start is stationary
        method, message = "none", "stationary"
        run.accept(run.set_gradient(run.evaluate(run.x0), np.zeros_like(run.x0)))
    else:
        fits = not free_e or p * (problem.mesh.elements.size + p) <= _LEAST_SQUARES_MAX_ENTRIES
        method = "trf" if fits else "L-BFGS-B"
        message = run.least_squares() if method == "trf" else run.lbfgsb()
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
        final_state=run.state(accepted),
        eps_used=float(eps),
        misfit=accepted.misfit,
        stop_reason=stop_reason,
        forward_solves=run.forward_solves,
        method=method,
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
