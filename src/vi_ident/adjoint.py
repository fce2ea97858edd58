"""Solution derivatives, adjoint state, and reduced gradients.

At a converged regularized solution u the state residual

    R(u; e, f) = T(e) u - l + gamma^*(w f M'_eps(gamma u))

has the derivative J = T(e) + gamma^* diag(w f M''_eps(gamma u)) gamma in u,
symmetric positive definite, and the derivative

    N = [T'(u) | gamma^* diag(w M'_eps(gamma u))]

in the coefficients concat(e, f): column j of ``T'(u)`` is ``T(1_j) u``.
:class:`LinearizedMap` builds ``N`` once and solves with ``J`` through the
operator's cached :class:`~vi_ident.forward.Factorization` (the one the
forward solve used) plus a |D| x |D| Cholesky solve with the Schur complement
S of T(e) onto D, shifted by the diagonal: Newton's Hessian.  Every derivative
reads these two objects:

    du = -J^{-1} N delta              (:func:`solution_derivative`)
    J p = B^T B (observation - u)     (:func:`adjoint_solve`)
    grad = Tikhonov terms + N^T p     (:func:`reduced_gradients`)

where ``B^T B`` is the misfit Gram matrix (:func:`misfit_factor`).  A block of
directions gives the dense derivative in every coefficient from one block of
right-hand sides; the gradient needs no further forward solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .discretization import ParameterField, free_part, full_part, operator_jacobian
from .forward import ForwardState, Problem, factorize, solution_map
from .kernels import KernelSpec, modulus_smooth

__all__ = [
    "OptimalityBundle",
    "LinearizedMap",
    "solution_derivative",
    "adjoint_solve",
    "reduced_gradients",
    "reduced_objective",
    "misfit_factor",
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
    onto D), so building a map costs one |D| x |D| Cholesky factorization,
    kept for every solve with the map.  A solve takes a vector or an (n, k)
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
        self._factorization = factorize(problem.operator(e), mesh)
        self._cholesky = self._factorization.shifted_factor(self._shift) if np.any(self._shift) else None

    def solve(self, rhs_free: np.ndarray) -> np.ndarray:
        return self._factorization.solve_shifted(self._shift, rhs_free, self._cholesky)


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
    linmap: LinearizedMap | None = None,
) -> np.ndarray:
    """Derivative ``-J^{-1} N delta`` of the regularized solution map along
    ``delta`` in ``concat(e, f)``.

    ``directions`` is one direction (length ``ne + nf``) or an
    ``(ne + nf, k)`` block of them, solved together; the result is the full
    nodal vector, or an ``(n_nodes, k)`` block, zero on the Dirichlet set.
    """
    lm = _linmap(state, problem, e, f, kernel, eps, linmap)
    return full_part(problem.mesh, lm.solve(-(lm.N @ np.asarray(directions, dtype=float))))


def misfit_factor(problem: Problem, misfit_norm: str = "L2") -> sp.csr_matrix:
    """The sparse ``B`` with ``B^T B`` the misfit Gram matrix (the L2 mass
    matrix or the V Gram matrix on the free dofs), so that the misfit of a
    free-dof residual r is ``1/2 |B r|^2``."""
    if misfit_norm not in MISFIT_NORMS:
        raise ValueError(f"misfit_norm must be one of {MISFIT_NORMS}, got {misfit_norm!r}")
    return problem.mass_factor if misfit_norm == "L2" else problem.v_factor


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
    """Adjoint state p solving ``J p = B^T B (observation - u)``.

    The system matrix is the same SPD Jacobian as for the derivatives (the
    problem is self-adjoint), so reusing a :class:`LinearizedMap` is exact.
    """
    lm = _linmap(state, problem, e, f, kernel, eps, linmap)
    B = misfit_factor(problem, misfit_norm)
    resid = free_part(problem.mesh, observation) - lm.u_free
    return full_part(problem.mesh, lm.solve(B.T @ (B @ resid)))


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
    st_e = float(np.linalg.norm(e.values - e.project(e.values - grad_e)))
    st_f = float(np.linalg.norm(f.values - f.project(f.values - grad_f)))
    return OptimalityBundle(
        adjoint_p=adjoint_p,
        grad_e=grad_e,
        grad_f=grad_f,
        stationarity_e=st_e,
        stationarity_f=st_f,
    )


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

    value = 1/2 |B (u_eps - observation)|^2 + alpha/2 |e|_E^2 + beta/2 |f|_F^2
    with the misfit factor ``B`` chosen by ``misfit_norm``.
    """
    mesh = problem.mesh
    state = solution_map(e, f, eps, problem, kernel, tol=tol, u0_full=u0_full)
    r = misfit_factor(problem, misfit_norm) @ (free_part(mesh, state.u) - free_part(mesh, observation))
    misfit = 0.5 * float(r @ r)
    reg = 0.5 * alpha * float(e.values @ (e.reg_inner_product @ e.values))
    reg += 0.5 * beta * float(f.values @ (f.reg_inner_product @ f.values))
    return misfit + reg, misfit, state
