"""Forward solvers for the friction model, iterating on ``x = u_D`` alone.

With ``y = T^{-1} l`` and the dense SPD Schur complement
``S = T_DD - T_DI T_II^{-1} T_ID`` of ``T`` onto the friction set D
(|D| x |D|), minimizing the energy over the dofs off D at fixed ``x`` leaves
the condensed energy ``1/2 (x - y_D)^T S (x - y_D) + sum_i w_i f_i m(x_i)``.

* :func:`solve_vi_oracle` minimizes it with ``m = |.|`` (the convex program
  equivalent to the variational inequality of the second kind) by a
  primal-dual active set method: slip nodes carry the multiplier ``+-w f``,
  stick nodes are pinned to zero and take theirs from ``lam = S (y_D - x)``.
  It terminates finitely and is the epsilon-independent ground truth.

* :func:`solve_regularized` minimizes it with ``m = M_eps`` by damped Newton.
  The gradient ``S (x - y_D) + w f M'_eps(x)`` is the full-space residual of
  the harmonic extension of ``x``; the Hessian ``S + diag(w f M''_eps(x))``
  is SPD.  A cold start begins at the oracle's ``x``, within
  ``sqrt(8 k eps sum(w f))`` of the smoothed solution in the energy norm.

Each solver builds ``u`` with one final ``T``-solve and reports the
full-space residual of that ``u``.  :func:`factorize` factorizes ``T(e)`` once
per operator, D last, and keeps ``y`` and ``S`` (the trailing |D| x |D| block
of its LU) with it; the sensitivities and the adjoint
(:mod:`vi_ident.adjoint`) reuse it.  Every dense solve on D is a Cholesky
solve with ``S`` plus a nonnegative diagonal, or with a block of ``S``.
:func:`solution_map` dispatches on ``eps`` (0 means oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import splu

from .discretization import (
    DiscreteOperator,
    Mesh,
    ParameterField,
    free_part,
    full_part,
    gram_factor,
    load_vector,
    operator_matrix,
)
from .errors import SolverError
from .kernels import KernelSpec, modulus_smooth, modulus_value

__all__ = [
    "ForwardState",
    "Factorization",
    "Problem",
    "factorize",
    "solve_vi_oracle",
    "solve_regularized",
    "solution_map",
]


@dataclass(frozen=True)
class ForwardState:
    """A converged forward solution.

    ``u`` is the full nodal vector (zeros on the Dirichlet set); ``eps`` is 0
    for the oracle; ``residual_norm`` is the full-space residual of ``u``.
    Histories hold one entry per accepted iterate: the condensed energy
    (oracle), or the gradient norm on D (Newton) ending in ``residual_norm``.
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
    the operator held.  The load does not depend on ``e`` and is computed
    once.  The factors ``B`` of the L2 and V misfit Gram matrices
    (``B^T B = G``, :func:`~vi_ident.discretization.gram_factor`) are built
    on first use.
    """

    mesh: Mesh
    form: str = "grad_grad"
    source: Callable | float = 1.0
    _last: tuple = field(default=(None, None), init=False, repr=False)

    def operator(self, e: ParameterField) -> DiscreteOperator:
        key = e.values.tobytes()
        if self._last[0] != key:
            op = DiscreteOperator(matrix=operator_matrix(self.mesh, e, self.form), load=self.load)
            self._last = (key, op)
        return self._last[1]

    @cached_property
    def load(self) -> np.ndarray:
        return load_vector(self.mesh, self.source)

    @cached_property
    def mass_factor(self) -> sp.csr_matrix:
        return gram_factor(self.mesh, self.mesh.local_matrices[1])

    @cached_property
    def v_factor(self) -> sp.csr_matrix:
        K, M = self.mesh.local_matrices
        return gram_factor(self.mesh, K + M)


_ORACLE_TOL = 1e-10  # the oracle's default tolerance, also for cold starts


class Factorization:
    """One sparse LU of ``T(e)`` on the free dofs, with the friction set D last.

    The LU runs in the mesh's elimination order (minimum degree off D, then
    D; :attr:`OperatorPattern.elimination`) with diagonal pivots, so for SPD
    ``T`` the trailing block of ``U`` gives the Schur complement of ``T``
    onto D, ``S = U_DD^T diag(U_DD)^{-1} U_DD``.  ``load_solution``
    ``y = T^{-1} l`` and ``schur`` ``S`` (the inverse of
    ``E_D^T T^{-1} E_D``) are built on first use; the forward solvers
    iterate on these, then call :meth:`extend` once.  ``last_oracle`` holds
    the oracle's last ``(w f, x)``.  ``tau`` is the oracle's proximal step
    ``1 / max(1, max row sum of |T|)``.  Raises ``ValueError`` if ``op.matrix``
    is not stored on ``mesh.operator_pattern``, and ``SolverError`` if the
    LU's own permutations move D out of the trailing block.
    """

    def __init__(self, op: DiscreteOperator, mesh: Mesh):
        K = op.matrix
        if not mesh.operator_pattern.holds(K):
            raise ValueError("the operator matrix is not stored on the mesh's operator pattern")
        self.positions = mesh.friction_free_positions
        self.tau = 1.0 / max(abs(K).sum(axis=1).max(), 1.0)
        self._load = op.load
        self.last_oracle = (None, None)
        self._order, self._rank, indptr, indices, to_csc = mesh.operator_pattern.elimination
        self._lu = splu(
            sp.csc_matrix((K.data[to_csc], indices, indptr), shape=K.shape),
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        # SuperLU composes the given order with its elimination-tree postorder
        lead = self._lead = K.shape[0] - self.positions.size
        trailing = np.arange(lead, K.shape[0])
        if not all(np.array_equal(perm[lead:], trailing) for perm in (self._lu.perm_c, self._lu.perm_r)):
            raise SolverError("the LU of T(e) does not keep the friction set as its trailing block")

    @cached_property
    def load_solution(self) -> np.ndarray:
        """``y = T^{-1} l``, the frictionless solution."""
        return self.solve(self._load)

    @cached_property
    def schur(self) -> np.ndarray:
        """``S``, the Schur complement of ``T`` onto D."""
        U_DD = self._lu.U[self._lead :, self._lead :].toarray()
        R = U_DD / np.sqrt(np.diag(U_DD))[:, None]  # the Cholesky factor of S
        return R.T @ R

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``T x = rhs`` for a vector or an (n, k) block of right-hand sides."""
        return self._lu.solve(rhs[self._order])[self._rank]

    def shifted_factor(self, shift: np.ndarray) -> tuple:
        """``cho_factor(S + diag(shift))``, for :meth:`solve_shifted`."""
        return cho_factor(self.schur + np.diag(shift))

    def solve_shifted(self, shift: np.ndarray, rhs: np.ndarray, factor: tuple | None = None) -> np.ndarray:
        """Solve ``(T + E_D diag(shift) E_D^T) x = rhs`` for a vector or an
        (n, k) block, with two ``T``-solves of the same shape.

        With ``y = T^{-1} rhs`` the friction values solve
        ``(S + diag(shift)) x_D = S y_D``, SPD for ``shift >= 0``, and
        ``x = T^{-1}(rhs - E_D (shift * x_D))``.  ``x_D`` is taken from the
        small solve, not from the second ``T``-solve, where it is the
        difference of two nearly equal terms once ``shift >> S``.
        ``factor`` is :meth:`shifted_factor` of ``shift``, built here when
        not given.
        """
        y = self.solve(rhs)
        if not np.any(shift):
            return y
        pos, S = self.positions, self.schur
        x_D = cho_solve(self.shifted_factor(shift) if factor is None else factor, S @ y[pos])
        corrected = np.array(rhs, dtype=float)
        corrected[pos] -= (shift * x_D.T).T
        x = self.solve(corrected)
        x[pos] = x_D
        return x

    def extend(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """The ``u`` with ``u_D = x`` that solves ``T u = l - E_D lam`` off D:
        one ``T``-solve."""
        rhs = np.array(self._load, dtype=float)
        rhs[self.positions] -= lam
        u = self.solve(rhs)
        u[self.positions] = x
        return u


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


def _condensed_energy(r: np.ndarray, q: np.ndarray, wf: np.ndarray, m: np.ndarray) -> float:
    """``1/2 r^T q + wf . m`` for ``r = x - y_D``, ``q = S r``: the energy of
    the harmonic extension of ``x`` plus ``1/2 l^T y``."""
    return float(0.5 * r @ q + wf @ m)


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


def _cholesky_solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A x = rhs`` for a dense SPD ``A``."""
    return cho_solve(cho_factor(A), rhs)


def _pin_stick(S: np.ndarray, b: np.ndarray, lam: np.ndarray, stick: np.ndarray):
    """``(x, lam)`` with ``lam = b - S x``, ``lam`` given on the slip nodes F off
    the mask ``stick`` and ``x = 0`` on it: ``S_FF x_F = b_F - lam_F``."""
    lam, x, slip = lam.copy(), np.zeros_like(b), ~stick
    if np.any(slip):
        x[slip] = _cholesky_solve(S[np.ix_(slip, slip)], b[slip] - lam[slip])
    lam[stick] = b[stick] - S[np.ix_(stick, slip)] @ x[slip]
    return x, lam


def _active_set(fac: Factorization, wf: np.ndarray, tol: float):
    """Primal-dual active set on D; returns ``(x, lam, iterations, energies)``.

    Each node is slip+ (multiplier +w f), slip- (-w f) or stick (x = 0) by
    ``xi = lam + x``; damping toward each new classification's solution keeps
    the condensed energy non-increasing.  Stops when the proximal-gradient
    residual on D, where ``T u - l = -E_D lam``, is at most ``tol``.
    """
    y = fac.load_solution[fac.positions]
    S, tau = fac.schur, fac.tau
    b = S @ y
    cap = 2 * wf.size + 10

    def energy_of(x, lam):
        return _condensed_energy(x - y, -lam, wf, np.abs(x))  # S (x - y) = -lam

    def residual_of(x, lam):
        z = x + tau * lam
        return float(np.linalg.norm(x - np.sign(z) * np.maximum(np.abs(z) - tau * wf, 0.0)) / tau)

    # The frictionless solve: exact when f = 0, a good sign predictor otherwise.
    x, lam = y.copy(), np.zeros_like(y)
    energies = [energy_of(x, lam)]
    residual = residual_of(x, lam)
    iterations = 0
    while residual > tol:
        if iterations >= cap:
            raise SolverError(
                f"active-set solver did not converge in {cap} iterations "
                f"(residual {residual:.3e})",
                residual=residual,
            )
        iterations += 1
        xi = lam + x
        status = np.sign(np.where(np.abs(xi) <= wf, 0.0, xi))
        x_trial, lam_trial = _pin_stick(S, b, wf * status, status == 0.0)
        theta = 1.0
        x_new, lam_new = x_trial, lam_trial
        e_new = energy_of(x_new, lam_new)
        while e_new > energies[-1] + 1e-14 * (1.0 + abs(energies[-1])):
            if theta <= 1e-8:
                raise SolverError(
                    f"active-set damping found no energy decrease (residual {residual:.3e})",
                    residual=residual,
                )
            theta *= 0.5
            x_new = (1.0 - theta) * x + theta * x_trial
            lam_new = (1.0 - theta) * lam + theta * lam_trial
            e_new = energy_of(x_new, lam_new)
        x, lam = x_new, lam_new
        energies.append(e_new)
        residual = residual_of(x, lam)
    return x, lam, iterations, energies


def solve_vi_oracle(
    op: DiscreteOperator,
    mesh: Mesh,
    f: ParameterField,
    tol: float = _ORACLE_TOL,
) -> ForwardState:
    """Solve the variational inequality by primal-dual active set on D.

    ``u`` is built from the converged multipliers with one ``T``-solve;
    ``residual_norm`` is its full-space proximal-gradient residual.

    Raises
    ------
    SolverError
        If the residual has not dropped below ``tol`` within 2 |D| + 10
        iterations, if damping finds no step that does not increase the
        energy, or if the returned ``u`` misses ``tol``.
    """
    wf = mesh.friction_weights * _check_friction(f, mesh)
    fac = factorize(op, mesh)
    x, lam, iterations, energies = _active_set(fac, wf, tol)
    if tol <= _ORACLE_TOL:  # as accurate as the cold start's own oracle run
        fac.last_oracle = (wf, x)
    u = fac.extend(x, lam)
    residual = _prox_residual(op, mesh, f, u, fac.tau)
    if residual > tol:
        raise SolverError(f"active-set residual {residual:.3e} above tol {tol:.1e}", residual=residual)
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
    """Newton solve of the regularized variational equation on D.

    A full step is taken when it cuts the gradient norm on D by 10%, else an
    Armijo backtracking on the condensed energy guards against the curvature
    ``M'' ~ 1/eps``.  Starts from ``u0_full`` on D when given, and from the
    oracle's ``x`` (reused if the oracle has solved ``op`` at this ``f``)
    when not or when that run fails.  ``u`` is built with one ``T``-solve;
    ``residual_norm`` (the last entry of ``residual_history``)
    is its full-space residual ``|K u - l + E_D (w f M'_eps(u_D))|``.  Where
    the round-off of that solve exceeds ``tol``, one full-space Newton step
    through :meth:`Factorization.solve_shifted` removes it.

    Raises
    ------
    SolverError
        If Newton stalls on full steps, exhausts ``max_iter``, its line search
        finds no sufficient energy decrease, or the returned ``u`` misses
        ``tol``.
    """
    wf = mesh.friction_weights * _check_friction(f, mesh)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    fac = factorize(op, mesh)
    pos = fac.positions

    def residual_of(u, sm):
        r = op.matrix @ u - op.load
        r[pos] += wf * sm.first_derivative
        return r

    def run(x0):
        x, q, sm, iterations, history = _newton(fac, wf, kernel, eps, tol, max_iter, x0)
        u = fac.extend(x, -q)  # the harmonic extension of x
        r = residual_of(u, sm)
        if np.linalg.norm(r) > tol:
            # the gradient on D does not see the round-off of the T-solve
            u += fac.solve_shifted(wf * sm.second_derivative, -r)
            sm = modulus_smooth(kernel, eps, u[pos])
            r = residual_of(u, sm)
        residual = float(np.linalg.norm(r))
        if residual > tol:
            raise SolverError(f"Newton residual {residual:.3e} above tol {tol:.1e}", residual=residual)
        return ForwardState(
            u=full_part(mesh, u),
            residual_norm=residual,
            iterations=iterations,
            eps=float(eps),
            residual_history=(*history[:-1], residual),
        )

    if u0_full is not None:
        try:
            return run(free_part(mesh, np.asarray(u0_full, dtype=float))[pos])
        except SolverError:
            pass  # a poor warm start: fall through to the cold path
    last_wf, x = fac.last_oracle
    if not np.array_equal(last_wf, wf):
        x = _active_set(fac, wf, _ORACLE_TOL)[0]
        fac.last_oracle = (wf, x)
    return run(x)


def _newton(fac, wf, kernel, eps, tol, max_iter, x):
    """Damped Newton on D from ``x``; returns ``(x, S (x - y_D), modulus at x,
    iterations, gradient-norm history)``."""
    y = fac.load_solution[fac.positions]
    S = fac.schur

    def at(x):  # (x, gradient, S (x - y_D), modulus, energy) at x
        q = S @ (x - y)
        sm = modulus_smooth(kernel, eps, x)
        return x, q + wf * sm.first_derivative, q, sm, _condensed_energy(x - y, q, wf, sm.value)

    x, g, q, sm, energy = at(x)
    history = [float(np.linalg.norm(g))]
    iterations = stalled = 0
    while history[-1] > tol:
        if iterations >= max_iter or stalled >= 2:
            reason = "stalled at the attainable precision" if stalled >= 2 else f"did not converge in {max_iter} iterations"
            raise SolverError(f"Newton {reason} (residual {history[-1]:.3e}, tol {tol:.1e})", residual=history[-1])
        iterations += 1
        d = -_cholesky_solve(S + np.diag(wf * sm.second_derivative), g)
        # Full step first: near the solution Newton contracts the residual and
        # the energy decrease underflows double precision, so the Armijo test
        # is reserved for the globalization phase.
        step = 1.0
        trial = at(x + d)
        if np.linalg.norm(trial[1]) > 0.9 * history[-1]:
            slope = float(g @ d)  # negative: the Hessian is SPD
            while True:
                r = x + step * d - y
                m = modulus_value(kernel, eps, x + step * d)
                if _condensed_energy(r, S @ r, wf, m) <= energy + 1e-4 * step * slope:
                    break
                if step < 1e-12:
                    raise SolverError(
                        f"Newton line search found no sufficient decrease at eps {eps:g} "
                        f"(residual {history[-1]:.3e})",
                        residual=history[-1],
                    )
                step *= 0.5
            if step < 1.0:
                trial = at(x + step * d)
        x, g, q, sm, energy = trial
        history.append(float(np.linalg.norm(g)))
        # A full step that no longer reduces the residual: double precision is
        # exhausted, so fail fast instead of looping to the iteration cap.
        stalled = stalled + 1 if step == 1.0 and history[-1] >= 0.9999 * history[-2] else 0
    return x, q, sm, iterations, history


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
