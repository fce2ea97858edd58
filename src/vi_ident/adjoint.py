"""Solution derivatives, adjoint state, and reduced gradients.

At a converged regularized solution u the state residual

    R(u; e, f) = T(e) u - l + gamma^*(w f M'_eps(gamma u))

has the derivative J = T(e) + gamma^* diag(w f M''_eps(gamma u)) gamma in u,
symmetric positive definite, and the derivative

    N = [T'(u) | gamma^* diag(w M'_eps(gamma u))]

in the coefficients concat(e, f): column j of ``T'(u)`` is ``T(1_j) u``.
:class:`LinearizedMap` builds ``N`` once and solves with ``J`` through the
problem's :class:`~vi_ident.forward.Factorization` of ``T(e)``
(:meth:`~vi_ident.forward.Problem.factorization`, the one the forward solve
used) plus a |D| x |D| Cholesky solve with the Schur complement
S of T(e) onto D, shifted by the diagonal: Newton's Hessian.  Every derivative
reads these two objects:

    du = -J^{-1} N delta              (:func:`solution_derivative`)
    J p = G (observation - u)         (:func:`adjoint_solve`)
    grad = Tikhonov terms + N^T p     (:func:`reduced_gradients`)

where ``G`` is the assembled misfit Gram matrix (:func:`misfit_gram`).  A
block of directions gives the dense derivative in every coefficient from one
block of right-hand sides (the Gauss-Newton Jacobian with ``e`` free); the
gradient needs no further forward solve.  The adjoint serves L-BFGS-B and the
gradient check; Gauss-Newton reads its gradient off its Jacobian.

With ``e`` fixed the state ``u = y + H (x - y_D)`` is affine in ``x = u_D``
(``H`` the harmonic extension off D,
:meth:`~vi_ident.forward.Factorization.harmonic`), so the misfit is
``1/2 |rows|^2 + kappa`` with |D| rows ``c + W (x - y_D)``,
``W^T W = H^T G H`` (:func:`friction_misfit_factor`, kept on the
factorization), read off Newton's ``x`` with no solve.  Their Jacobian in
``f`` (:func:`friction_jacobian`) takes one Cholesky factorization of
Newton's Hessian on D and no ``LinearizedMap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky, solve_triangular

from .discretization import ParameterField, free_part, full_part, operator_jacobian
from .forward import Factorization, ForwardState, FrictionSetSolution, Problem, cholesky_solve, solution_map
from .kernels import KernelSpec, modulus_smooth

__all__ = [
    "OptimalityBundle",
    "LinearizedMap",
    "solution_derivative",
    "adjoint_solve",
    "reduced_gradients",
    "reduced_objective",
    "regularization",
    "misfit_gram",
    "friction_misfit_factor",
    "friction_jacobian",
    "projected_residual",
]

MISFIT_NORMS = ("L2", "V")


@dataclass(frozen=True)
class OptimalityBundle:
    """Adjoint state, reduced gradients, and projected-gradient residuals.

    The stationarity residuals are ``norm(x - clip(x - grad, box))`` in the
    Euclidean norm of the coefficient vectors; they vanish exactly at a
    discrete KKT point of the box-constrained problem.
    """

    adjoint_p: np.ndarray
    grad_e: np.ndarray
    grad_f: np.ndarray
    stationarity_e: float
    stationarity_f: float


class LinearizedMap:
    """The derivatives ``J`` (in u) and ``N`` (in concat(e, f)) of the state
    residual at a converged regularized state.

    ``N`` is a sparse (free dofs) x (elements + friction nodes) matrix.
    Solves with ``J = T(e) + E_D diag(w f M''_eps) E_D^T`` go through the
    cached factorization of ``T(e)`` with the diagonal shift applied on D by
    :meth:`~vi_ident.forward.Factorization.solve_shifted` (a Cholesky solve
    with ``S + diag(w f M''_eps)``, ``S`` the Schur complement of ``T(e)``
    onto D).  Each solve with the map factors its own |D| x |D| Cholesky, so a
    map that is never solved costs none.  A solve takes a vector or an (n, k)
    block.  Building the map twice for the same state gives results identical
    to reuse (pure function of the state).
    """

    def __init__(
        self,
        state: ForwardState,
        problem: Problem,
        e: ParameterField,
        f: ParameterField,
        kernel: KernelSpec,
        eps: float,
    ):
        mesh = problem.mesh
        self.u_free = free_part(mesh, state.u)
        pos = mesh.friction_free_positions
        sm = modulus_smooth(kernel, eps, self.u_free[pos])
        # N = [T'(u) | E_D diag(w M'_eps)]: one entry per friction column
        T_u = operator_jacobian(mesh, problem.form, state.u)
        self.N = sp.csc_matrix(
            (
                np.concatenate([T_u.data, mesh.friction_weights * sm.first_derivative]),
                np.concatenate([T_u.indices, pos], dtype=np.int32),
                np.concatenate([T_u.indptr, T_u.nnz + np.arange(1, pos.size + 1)], dtype=np.int32),
            ),
            shape=(T_u.shape[0], T_u.shape[1] + pos.size),
        )
        self._shift = mesh.friction_weights * f.values * sm.second_derivative
        self._factorization = problem.factorization(e)

    def solve(self, rhs_free: np.ndarray) -> np.ndarray:
        return self._factorization.solve_shifted(self._shift, rhs_free)


def _linmap(state, problem, e, f, kernel, eps, linmap):
    return linmap if linmap is not None else LinearizedMap(state, problem, e, f, kernel, eps)


def solution_derivative(
    state: ForwardState,
    problem: Problem,
    e: ParameterField,
    f: ParameterField,
    kernel: KernelSpec,
    eps: float,
    directions: np.ndarray,
) -> np.ndarray:
    """Derivative ``-J^{-1} N delta`` of the regularized solution map along
    ``delta`` in ``concat(e, f)``.

    ``directions`` is one direction (length ``ne + nf``) or an
    ``(ne + nf, k)`` block of them, solved together; the result is the full
    nodal vector, or an ``(n_nodes, k)`` block, zero on the Dirichlet set.
    """
    lm = LinearizedMap(state, problem, e, f, kernel, eps)
    return full_part(problem.mesh, lm.solve(-(lm.N @ np.asarray(directions, dtype=float))))


def misfit_gram(problem: Problem, misfit_norm: str = "L2") -> sp.csr_matrix:
    """The assembled misfit Gram matrix ``G`` on the free dofs (the L2 mass
    matrix or the V Gram matrix), cached on the problem, so that the misfit
    of a free-dof residual r is ``1/2 r^T G r``."""
    if misfit_norm not in MISFIT_NORMS:
        raise ValueError(f"misfit_norm must be one of {MISFIT_NORMS}, got {misfit_norm!r}")
    return problem.mass_gram if misfit_norm == "L2" else problem.v_gram


def friction_misfit_factor(
    problem: Problem, e: ParameterField, observation: np.ndarray, misfit_norm: str = "L2"
) -> tuple[np.ndarray, np.ndarray, float]:
    """The misfit on the friction set D at fixed ``e``: ``(W, c, kappa)``.

    The residual ``r = u - observation`` of ``u = y + H (x - y_D)`` is
    ``r_0 = y - observation`` moved in the range of ``H``.  With ``G`` the
    misfit Gram matrix and ``W^T W = H^T G H``, the |D| rows
    ``c + W (x - y_D)``, ``c = W^{-T} H^T G r_0``, are the coordinates of the
    G-orthogonal projection of ``r`` onto that range, and
    ``1/2 |r|_G^2 = 1/2 |rows|^2 + kappa`` with
    ``kappa = 1/2 |r_0 - H W^{-1} c|_G^2``, computed directly, not as a
    difference, so that it keeps full accuracy.  ``H^T G H`` is built about
    sqrt(|D|) columns at a time, so no (free dofs) x |D| array is held; each
    product with ``H`` or ``H^T`` is one back substitution and no
    ``T``-solve.  Kept on the factorization of ``T(e)`` per misfit norm and
    observation.
    """
    fac = problem.factorization(e)
    observation = free_part(problem.mesh, observation)
    key = (misfit_norm, observation.tobytes())
    if key not in fac.friction_misfits:
        G = misfit_gram(problem, misfit_norm)
        d = fac.positions.size
        HGH = np.empty((d, d))
        width = math.isqrt(d) + 1  # about sqrt(|D|) blocks, each of about sqrt(|D|) columns
        for b in range(0, d, width):
            E_b = np.eye(d, min(width, d - b), -b)  # a block of columns of the identity on D
            HGH[:, b : b + width] = fac.harmonic_transpose(G @ fac.harmonic(E_b))
        W = cholesky(HGH)
        r0 = fac.load_solution - observation
        c = solve_triangular(W, fac.harmonic_transpose(G @ r0), trans="T")
        r0 -= fac.harmonic(solve_triangular(W, c))
        fac.friction_misfits[key] = W, c, 0.5 * float(r0 @ (G @ r0))
    return fac.friction_misfits[key]


def friction_jacobian(
    fac: Factorization, solution: FrictionSetSolution, W: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The |D| x |D| Jacobian ``W dx/df`` of the misfit rows of
    :func:`friction_misfit_factor` in ``f`` at Newton's ``x = u_D`` on the
    factorization ``fac`` of ``T(e)``, and ``dx/df``, from the condensed
    gradient ``S (x - y_D) + w f M'_eps(x)`` that vanishes at ``x``:
    ``dx/df = -(S + diag(w f M''_eps(x)))^{-1} diag(w M'_eps(x))``, with the
    solution's own ``M'_eps`` and ``M''_eps``.  One |D| x |D| Cholesky
    factorization, no ``T``-solve.
    """
    sm = solution.modulus
    w_dM = np.diag(fac.mesh.friction_weights * sm.first_derivative)
    dx = -cholesky_solve(fac.shifted_factor(solution.wf * sm.second_derivative), w_dM)
    return W @ dx, dx


def adjoint_solve(
    state: ForwardState,
    problem: Problem,
    e: ParameterField,
    f: ParameterField,
    kernel: KernelSpec,
    eps: float,
    observation: np.ndarray,
    misfit_norm: str = "L2",
    linmap: LinearizedMap | None = None,
) -> np.ndarray:
    """Adjoint state p solving ``J p = G (observation - u)``, ``G`` the
    misfit Gram matrix of :func:`misfit_gram`.

    The system matrix is the same SPD Jacobian as for the derivatives (the
    problem is self-adjoint), so reusing a :class:`LinearizedMap` is exact.
    """
    lm = _linmap(state, problem, e, f, kernel, eps, linmap)
    resid = free_part(problem.mesh, observation) - lm.u_free
    return full_part(problem.mesh, lm.solve(misfit_gram(problem, misfit_norm) @ resid))


def reduced_gradients(
    state: ForwardState,
    adjoint_p: np.ndarray,
    problem: Problem,
    e: ParameterField,
    f: ParameterField,
    kernel: KernelSpec,
    eps: float,
    alpha: float,
    beta: float,
    linmap: LinearizedMap | None = None,
) -> OptimalityBundle:
    """Reduced gradients of the regularized output-least-squares objective:
    ``concat(alpha G_e e, beta G_f f) + N^T p``.

    Per element j that is alpha (G_e e)_j + t(1_j; u, p); per friction node
    i, beta (G_f f)_i + w_i M'_eps(u_i) p_i.  ``linmap``, the map the
    adjoint state was solved with, is reused when given.
    """
    lm = _linmap(state, problem, e, f, kernel, eps, linmap)
    adjoint_p = np.asarray(adjoint_p, dtype=float)
    grad = lm.N.T @ free_part(problem.mesh, adjoint_p)
    ne = e.values.size
    grad_e = alpha * np.asarray(e.reg_inner_product @ e.values) + grad[:ne]
    grad_f = beta * np.asarray(f.reg_inner_product @ f.values) + grad[ne:]
    return OptimalityBundle(
        adjoint_p=adjoint_p,
        grad_e=grad_e,
        grad_f=grad_f,
        stationarity_e=projected_residual(e, grad_e),
        stationarity_f=projected_residual(f, grad_f),
    )


def projected_residual(field_: ParameterField, grad: np.ndarray) -> float:
    """The stationarity residual ``norm(x - clip(x - grad, box))`` of a field
    with values x and gradient ``grad``."""
    return float(np.linalg.norm(field_.values - field_.project(field_.values - grad)))


def reduced_objective(
    e: ParameterField,
    f: ParameterField,
    problem: Problem,
    observation: np.ndarray,
    kernel: KernelSpec,
    eps: float,
    alpha: float,
    beta: float,
    misfit_norm: str = "L2",
    tol: float | None = None,
    u0_full: np.ndarray | None = None,
):
    """Evaluate the reduced objective; returns (value, misfit, state).

    value = 1/2 r^T G r + alpha/2 |e|_E^2 + beta/2 |f|_F^2, with
    ``r = u_eps - observation`` on the free dofs and the misfit Gram matrix
    ``G`` (:func:`misfit_gram`) chosen by ``misfit_norm``.
    """
    mesh = problem.mesh
    state = solution_map(e, f, eps, problem, kernel, tol=tol, u0_full=u0_full)
    r = free_part(mesh, state.u) - free_part(mesh, observation)
    misfit = 0.5 * float(r @ (misfit_gram(problem, misfit_norm) @ r))
    return misfit + regularization(e, f, alpha, beta), misfit, state


def regularization(e: ParameterField, f: ParameterField, alpha: float, beta: float) -> float:
    """The Tikhonov term ``alpha/2 |e|_E^2 + beta/2 |f|_F^2`` of the reduced
    objective."""
    reg = 0.5 * alpha * float(e.values @ (e.reg_inner_product @ e.values))
    return reg + 0.5 * beta * float(f.values @ (f.reg_inner_product @ f.values))
