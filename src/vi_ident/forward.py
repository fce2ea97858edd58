"""Forward solvers for the friction model.

Two routes to a discrete solution:

* :func:`solve_vi_oracle` minimizes the nonsmooth energy
  ``1/2 u^T K u - l^T u + sum_i w_i f_i |u_i|`` (the convex program equivalent
  to the variational inequality of the second kind) by a primal-dual active
  set method over the three per-node subdifferential cases.  It terminates
  finitely and serves as the epsilon-independent ground truth.

* :func:`solve_regularized` solves the smoothed variational equation
  ``K u + gamma^*(f M'_eps(gamma u)) = l`` by a damped Newton method; the
  Jacobian ``K + gamma^* diag(w f M''_eps(gamma u)) gamma`` is SPD because
  M'' >= 0, so the Newton direction always descends the smoothed energy.

Every system either solver meets differs from ``K = T(e)`` only on the
friction set D: the Newton Jacobian adds a diagonal there, and the oracle's
active-set subproblem pins the stick nodes to zero.  :func:`factorize`
therefore factorizes K once per assembled operator, condenses it onto D as
the dense SPD capacitance matrix ``C = E_D^T K^{-1} E_D`` (|D| x |D|), and
solves each friction-modified system with two K-solves and one small dense
solve.  The factorization is cached on the operator, so the sensitivities and
the adjoint (:mod:`vi_ident.adjoint`) reuse it as well.

:func:`solution_map` dispatches on ``eps`` (0 means oracle); the
:class:`Problem` keeps the operator of the last coefficient vector, with its
factorization, for the next solve at the same ``e``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve_triangular

from .discretization import (
    DiscreteOperator,
    Mesh,
    ParameterField,
    assemble_operator,
    full_part,
    h1_gram,
    mass_matrix,
)
from .errors import SolverError
from .kernels import KernelSpec, modulus_smooth

__all__ = [
    "ForwardState",
    "Factorization",
    "Problem",
    "factorize",
    "solve_vi_oracle",
    "solve_regularized",
    "solution_map",
    "smoothed_energy",
    "nonsmooth_energy",
]


@dataclass(frozen=True)
class ForwardState:
    """A converged forward solution.

    ``u`` is the full nodal vector (zeros on the Dirichlet set); ``eps`` is 0
    for the unregularized oracle solution.  Histories hold one entry per
    accepted iterate for diagnostics.
    """

    u: np.ndarray
    residual_norm: float
    iterations: int
    eps: float
    residual_history: tuple = ()
    energy_history: tuple = ()


@dataclass
class Problem:
    """Mesh, bilinear form, and source, holding the operator requested last.

    Identification drivers re-solve at unchanged ``e`` (other ``f`` or
    ``eps``, sensitivities, adjoints), so :meth:`operator` keeps the last
    assembled operator, and with it its :class:`Factorization`, and none of
    those solves assembles or factorizes ``T(e)`` again.  A driver that moves
    ``e`` does not come back to an earlier one, so a new coefficient replaces
    the operator held.  The L2 and V Gram matrices of the misfit are built on
    first use.
    """

    mesh: Mesh
    form: str = "grad_grad"
    source: Callable | float = 1.0
    _last: tuple = field(default=(None, None), init=False, repr=False)

    def operator(self, e: ParameterField) -> DiscreteOperator:
        key = e.values.tobytes()
        if self._last[0] != key:
            self._last = (key, assemble_operator(self.mesh, e, self.form, self.source))
        return self._last[1]

    @cached_property
    def mass_gram(self) -> sp.csr_matrix:
        return mass_matrix(self.mesh)

    @cached_property
    def v_gram(self) -> sp.csr_matrix:
        return h1_gram(self.mesh)


# Capacitance columns solved per block: bounds the dense T^{-1} E_D block held
# at once to n x _BLOCK doubles.  Wider blocks are slower at 2D n = 128.
_BLOCK = 8
# Below this many friction nodes, |D| unit solves through the LU build C
# faster than the triangular solve restricted to the rows D reaches in L,
# whose fixed cost is about a millisecond.
_REACH_MIN = 32


class Factorization:
    """One sparse LU of ``T(e)`` on the free dofs, condensed onto D.

    :meth:`solve` applies ``T^{-1}``.  :meth:`solve_shifted` and
    :meth:`solve_pinned` solve the systems that differ from ``T`` only on the
    friction set by a capacitance correction with ``C = E_D^T T^{-1} E_D``,
    which is built on first use.  ``tau`` is the oracle's proximal step
    length ``1 / max(1, max row sum of |T|)``.
    """

    def __init__(self, op: DiscreteOperator, mesh: Mesh):
        K = op.matrix
        self.positions = mesh.friction_free_positions
        self.tau = 1.0 / max(abs(K).sum(axis=1).max(), 1.0)
        # T is SPD: a symmetric ordering with diagonal pivots never breaks
        # down, and gives P T P^T = L diag(U) L^T, which `capacitance` uses.
        self._lu = splu(
            K.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )

    @cached_property
    def capacitance(self) -> np.ndarray:
        """The dense SPD matrix ``C = E_D^T T^{-1} E_D``."""
        lu, pos = self._lu, self.positions
        if pos.size < _REACH_MIN:
            C = np.empty((pos.size, pos.size))
            for start in range(0, pos.size, _BLOCK):
                cols = pos[start : start + _BLOCK]
                unit = np.zeros((lu.shape[0], cols.size))
                unit[cols, np.arange(cols.size)] = 1.0
                C[:, start : start + cols.size] = lu.solve(unit)[pos]
            return 0.5 * (C + C.T)
        # C = W^T diag(U)^{-1} W with W = L^{-1} P E_D, whose rows vanish
        # outside the set R of rows that D reaches in the graph of L.
        pivots = lu.U.diagonal()
        L = lu.L
        start = lu.perm_r[pos]
        reached = np.zeros(lu.shape[0], dtype=bool)
        reached[start] = True
        frontier = start
        while frontier.size:
            rows = L[:, frontier].indices
            frontier = np.unique(rows[~reached[rows]])
            reached[frontier] = True
        R = np.flatnonzero(reached)
        L_RR = L[:, R][R, :]
        del L  # release the full copy of L before the solve allocates W
        W = np.zeros((R.size, pos.size))
        W[np.searchsorted(R, start), np.arange(pos.size)] = 1.0
        W = spsolve_triangular(
            L_RR, W, lower=True, unit_diagonal=True, overwrite_A=True, overwrite_b=True
        )
        return W.T @ (W / pivots[R][:, None])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``T x = rhs``."""
        return self._lu.solve(rhs)

    def solve_shifted(self, shift: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(T + E_D diag(shift) E_D^T) x = rhs``.

        With ``y = T^{-1} rhs`` the friction values solve
        ``(I + C diag(shift)) x_D = y_D``, and
        ``x = T^{-1}(rhs - E_D (shift * x_D))``.  ``x_D`` is taken from the
        small solve, not from the second ``T``-solve, where it is the
        difference of two nearly equal terms once ``shift * C >> 1``.
        """
        y = self._lu.solve(rhs)
        if not np.any(shift):
            return y
        pos = self.positions
        x_D = np.linalg.solve(np.eye(pos.size) + self.capacitance * shift, y[pos])
        corrected = np.array(rhs, dtype=float)
        corrected[pos] -= shift * x_D
        x = self._lu.solve(corrected)
        x[pos] = x_D
        return x

    def solve_pinned(self, stick: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve ``T x = rhs`` with ``x = 0`` on the friction nodes flagged in
        the boolean D-mask ``stick``, dropping their equations.

        The multipliers ``lam`` of the pinned nodes S solve
        ``C_SS lam = (T^{-1} rhs)_S``, and ``x = T^{-1}(rhs - E_S lam)``.
        """
        y = self._lu.solve(rhs)
        if not np.any(stick):
            return y
        S = self.positions[stick]
        lam = np.linalg.solve(self.capacitance[np.ix_(stick, stick)], y[S])
        corrected = np.array(rhs, dtype=float)
        corrected[S] -= lam
        x = self._lu.solve(corrected)
        x[S] = 0.0
        return x


def factorize(op: DiscreteOperator, mesh: Mesh) -> Factorization:
    """The operator's :class:`Factorization`, built on the first call and
    cached on ``op`` for every later solve."""
    if op.factorization is None:
        object.__setattr__(op, "factorization", Factorization(op, mesh))
    return op.factorization


def _check_friction(f: ParameterField, mesh: Mesh) -> np.ndarray:
    vals = f.values
    if vals.shape != (mesh.friction_nodes.size,):
        raise ValueError("friction field length must match the friction node count")
    if vals.min(initial=0.0) < 0.0:
        raise ValueError("friction coefficient must be nonnegative")
    return vals


def nonsmooth_energy(op: DiscreteOperator, mesh: Mesh, f: ParameterField, u_free: np.ndarray) -> float:
    """Discrete energy 1/2 u^T K u - l^T u + sum_i w_i f_i |u_i|."""
    wf = mesh.friction_weights * f.values
    ud = u_free[mesh.friction_free_positions]
    return float(0.5 * u_free @ (op.matrix @ u_free) - op.load @ u_free + wf @ np.abs(ud))


def smoothed_energy(
    op: DiscreteOperator,
    mesh: Mesh,
    f: ParameterField,
    kernel: KernelSpec,
    eps: float,
    u_free: np.ndarray,
) -> float:
    """Energy with |.| replaced by the smoothed modulus M_eps."""
    wf = mesh.friction_weights * f.values
    ud = u_free[mesh.friction_free_positions]
    M = modulus_smooth(kernel, eps, ud).value
    return float(0.5 * u_free @ (op.matrix @ u_free) - op.load @ u_free + wf @ M)


def _prox_residual(op, mesh, f, u_free, tau) -> float:
    """Norm of the scaled proximal-gradient step; zero exactly at the minimizer."""
    K, l = op.matrix, op.load
    wf = mesh.friction_weights * f.values
    z = u_free - tau * (K @ u_free - l)
    prox = z.copy()
    pos = mesh.friction_free_positions
    zd = z[pos]
    prox[pos] = np.sign(zd) * np.maximum(np.abs(zd) - tau * wf, 0.0)
    return float(np.linalg.norm(u_free - prox) / tau)


def solve_vi_oracle(
    op: DiscreteOperator,
    mesh: Mesh,
    f: ParameterField,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> ForwardState:
    """Solve the variational inequality by primal-dual active set.

    Each friction node is classified as slip+ (u > 0, multiplier at +w f),
    slip- (u < 0, multiplier at -w f), or stick (u = 0, multiplier free in
    the box); the classification is updated from the indicator
    ``xi = mu + c u`` until it is a fixed point; each classification is
    solved with the stick nodes pinned by :meth:`Factorization.solve_pinned`.
    A damping line search keeps the energy non-increasing.  Stops when the
    proximal-gradient residual drops below ``tol``.

    Raises
    ------
    SolverError
        If the residual has not dropped below ``tol`` within the cap
        (2 |D| + 10 by default), or if damping cannot find a step that does
        not increase the energy.
    """
    fvals = _check_friction(f, mesh)
    fac = factorize(op, mesh)
    K = op.matrix
    l = op.load
    pos = mesh.friction_free_positions
    wf = mesh.friction_weights * fvals
    cap = max_iter if max_iter is not None else 2 * pos.size + 10
    c_weight = 1.0

    # Start from the frictionless solve: exact when f = 0, a good sign
    # predictor otherwise.
    u = fac.solve(l)
    mu = l - K @ u
    status = np.sign(np.where(np.abs(mu[pos] + c_weight * u[pos]) <= wf, 0.0, mu[pos] + c_weight * u[pos]))
    energy = nonsmooth_energy(op, mesh, f, u)
    energies = [energy]
    residual = _prox_residual(op, mesh, f, u, fac.tau)
    iterations = 0

    while residual > tol:
        if iterations >= cap:
            raise SolverError(
                f"active-set solver did not converge in {cap} iterations "
                f"(residual {residual:.3e})",
                residual=residual,
            )
        iterations += 1

        rhs = l.copy()
        rhs[pos] -= wf * status
        u_trial = fac.solve_pinned(status == 0.0, rhs)

        # Energy-monotone damping between the previous and the trial point.
        theta = 1.0
        u_new = u_trial
        e_new = nonsmooth_energy(op, mesh, f, u_new)
        while e_new > energy + 1e-14 * (1.0 + abs(energy)):
            if theta <= 1e-8:
                raise SolverError(
                    f"active-set damping found no energy decrease "
                    f"(residual {residual:.3e})",
                    residual=residual,
                )
            theta *= 0.5
            u_new = (1.0 - theta) * u + theta * u_trial
            e_new = nonsmooth_energy(op, mesh, f, u_new)
        u = u_new
        energy = e_new
        energies.append(energy)

        mu = l - K @ u
        xi = mu[pos] + c_weight * u[pos]
        status = np.sign(np.where(np.abs(xi) <= wf, 0.0, xi))
        residual = _prox_residual(op, mesh, f, u, fac.tau)

    return ForwardState(
        u=full_part(mesh, u),
        residual_norm=residual,
        iterations=iterations,
        eps=0.0,
        energy_history=tuple(energies),
    )


def solve_regularized(
    op: DiscreteOperator,
    mesh: Mesh,
    f: ParameterField,
    kernel: KernelSpec,
    eps: float,
    tol: float = 1e-12,
    max_iter: int = 100,
    u0_full: np.ndarray | None = None,
) -> ForwardState:
    """Newton solve of the regularized variational equation.

    The residual is ``R(u) = K u + gamma^*(w f M'_eps(gamma u)) - l`` on the
    free dofs; an Armijo backtracking line search on the smoothed energy
    guards against the large curvature ``M'' ~ 1/eps`` far from the solution.
    Warm-starts from ``u0_full`` when given.  Cold starts use the frictionless
    linear solve, improved by a short epsilon-continuation warm-up (solving at
    a few larger epsilon levels first) so that small-epsilon stick problems
    start inside the Newton basin; the reported iteration count and residual
    history cover the target-epsilon solve only.

    Each Newton step solves with the Jacobian through
    :meth:`Factorization.solve_shifted`, so the whole solve, warm-up included,
    uses the operator's one factorization.

    Raises
    ------
    SolverError
        If Newton stalls, exhausts ``max_iter``, or its line search finds no
        sufficient energy decrease.
    """
    _check_friction(f, mesh)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")

    if u0_full is not None:
        try:
            return _newton_regularized(
                op, mesh, f, kernel, eps, tol, max_iter, np.asarray(u0_full, dtype=float)
            )
        except SolverError:
            pass  # a poor warm start: fall through to the robust cold path

    u_start = full_part(mesh, factorize(op, mesh).solve(op.load))
    if np.any(f.values > 0.0):
        level = 1e-1
        while level > 3.0 * eps:
            warm = _newton_regularized(
                op, mesh, f, kernel, level, max(tol, 1e-9), max_iter, u_start
            )
            u_start = warm.u
            level /= 10.0
    return _newton_regularized(op, mesh, f, kernel, eps, tol, max_iter, u_start)


def _newton_regularized(
    op: DiscreteOperator,
    mesh: Mesh,
    f: ParameterField,
    kernel: KernelSpec,
    eps: float,
    tol: float,
    max_iter: int,
    u0_full: np.ndarray,
) -> ForwardState:
    """One damped-Newton run at a fixed eps from the given full-vector start."""
    fvals = f.values
    fac = factorize(op, mesh)
    K = op.matrix
    l = op.load
    pos = mesh.friction_free_positions
    wf = mesh.friction_weights * fvals
    u = np.asarray(u0_full, dtype=float)[mesh.free_nodes]

    def residual_vec(u_free):
        sm = modulus_smooth(kernel, eps, u_free[pos])
        r = K @ u_free - l
        r[pos] += wf * sm.first_derivative
        return r, sm

    r, sm = residual_vec(u)
    rnorm = float(np.linalg.norm(r))
    history = [rnorm]
    energy = smoothed_energy(op, mesh, f, kernel, eps, u)
    iterations = 0
    stalled = 0

    while rnorm > tol:
        if iterations >= max_iter or stalled >= 2:
            reason = "stalled at the attainable precision" if stalled >= 2 else f"did not converge in {max_iter} iterations"
            raise SolverError(
                f"Newton {reason} (residual {rnorm:.3e}, tol {tol:.1e})",
                residual=rnorm,
            )
        iterations += 1
        rnorm_prev = rnorm
        d = fac.solve_shifted(wf * sm.second_derivative, -r)

        # Full step first: near the solution Newton contracts the residual and
        # the energy decrease underflows double precision, so the Armijo test
        # is reserved for the globalization phase.
        u_trial = u + d
        r_trial, sm_trial = residual_vec(u_trial)
        rn_trial = float(np.linalg.norm(r_trial))
        if rn_trial <= 0.9 * rnorm:
            u, r, sm, rnorm = u_trial, r_trial, sm_trial, rn_trial
            energy = smoothed_energy(op, mesh, f, kernel, eps, u)
        else:
            slope = float(r @ d)  # = grad E . d, negative since J is SPD
            step = 1.0
            while True:
                u_trial = u + step * d
                e_trial = smoothed_energy(op, mesh, f, kernel, eps, u_trial)
                if e_trial <= energy + 1e-4 * step * slope:
                    break
                if step < 1e-12:
                    raise SolverError(
                        f"Newton line search found no sufficient decrease at eps {eps:g} "
                        f"(residual {rnorm:.3e})",
                        residual=rnorm,
                    )
                step *= 0.5
            u = u_trial
            energy = e_trial
            r, sm = residual_vec(u)
            rnorm = float(np.linalg.norm(r))
        history.append(rnorm)
        # Residual no longer improving: double precision is exhausted, so
        # fail fast instead of looping to the iteration cap.
        stalled = stalled + 1 if rnorm >= 0.9999 * rnorm_prev else 0

    return ForwardState(
        u=full_part(mesh, u),
        residual_norm=rnorm,
        iterations=iterations,
        eps=float(eps),
        residual_history=tuple(history),
    )


def solution_map(
    e: ParameterField,
    f: ParameterField,
    eps: float,
    problem: Problem,
    kernel: KernelSpec | None = None,
    tol: float | None = None,
    u0_full: np.ndarray | None = None,
) -> ForwardState:
    """Evaluate S(e, f) (eps = 0) or S_eps(e, f) (eps > 0).

    The problem keeps the assembled operator and its factorization for the
    next call with the same coefficient vector.
    """
    op = problem.operator(e)
    if eps == 0:
        return solve_vi_oracle(op, problem.mesh, f, **({"tol": tol} if tol is not None else {}))
    if kernel is None:
        raise ValueError("a kernel is required for eps > 0")
    kwargs = {"tol": tol} if tol is not None else {}
    return solve_regularized(op, problem.mesh, f, kernel, eps, u0_full=u0_full, **kwargs)
