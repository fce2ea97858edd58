"""Forward sensitivities, adjoint state, and reduced gradients.

At a converged regularized solution u the linearized operator

    J = T(e) + gamma^* diag(w f M''_eps(gamma u)) gamma

is symmetric positive definite and shared by every sensitivity direction and
by the adjoint equation.  It differs from T(e) only by a diagonal on the
friction set, so :class:`LinearizedMap` factorizes nothing: it solves with the
operator's cached :class:`~vi_ident.forward.Factorization` (the one the
forward solve used) plus a |D| x |D| Cholesky solve with the Schur complement
S of T(e) onto D, shifted by that diagonal: Newton's Hessian.  Directional
derivatives of the solution map solve

    J du = -T(delta_e) u            (ellipticity direction)
    J du = -gamma^*(delta_f M'_eps(gamma u))   (friction direction)

and the adjoint state solves J p = Riesz(observation - u), from which the
reduced gradients of the output-least-squares objective follow without any
further forward solves.  :func:`solution_jacobian` solves for every
coefficient direction at once: the dense ``du/d(e, f)`` from one block of
right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .discretization import (
    Mesh,
    ParameterField,
    elementwise_energy,
    free_part,
    full_part,
    matrix_for_direction,
    operator_jacobian,
    trace_adjoint,
)
from .forward import ForwardState, Problem, factorize, solution_map
from .kernels import KernelSpec, modulus_smooth

__all__ = [
    "Sensitivity",
    "OptimalityBundle",
    "LinearizedMap",
    "sensitivity_e",
    "sensitivity_f",
    "solution_jacobian",
    "adjoint_solve",
    "reduced_gradients",
    "reduced_objective",
    "misfit_riesz_matrix",
    "misfit_factor",
]


@dataclass(frozen=True)
class Sensitivity:
    """A directional derivative of the regularized solution map."""

    direction_kind: str  # "ellipticity" or "friction"
    delta_u: np.ndarray  # full nodal vector


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
    """Newton Jacobian ``J = T(e) + E_D diag(w f M''_eps) E_D^T`` at a
    converged regularized state.

    Solves go through the cached factorization of ``T(e)`` with the diagonal
    shift applied on D by :meth:`~vi_ident.forward.Factorization.solve_shifted`
    (a Cholesky solve with ``S + diag(w f M''_eps)``, ``S`` the Schur
    complement of ``T(e)`` onto D), so building a map costs one |D| x |D|
    Cholesky factorization, kept for every solve with the map.  A solve
    takes a vector or an (n, k) block.  Reused across sensitivity and adjoint solves; building
    it twice for the same state gives results identical to reuse (pure
    function of the state).  ``matrix`` assembles ``J`` explicitly, for checks.
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
        self._op = problem.operator(e)
        self.mesh = mesh
        self.problem = problem
        self.u_free = free_part(mesh, state.u)
        pos = mesh.friction_free_positions
        self.smooth = modulus_smooth(kernel, eps, self.u_free[pos])
        self._shift = mesh.friction_weights * f.values * self.smooth.second_derivative
        self._factorization = factorize(self._op, mesh)
        self._cholesky = self._factorization.shifted_factor(self._shift) if np.any(self._shift) else None

    @property
    def matrix(self) -> sp.csc_matrix:
        diag = np.bincount(
            self.mesh.friction_free_positions, weights=self._shift, minlength=self._op.load.size
        )
        return (self._op.matrix + sp.diags(diag)).tocsc()

    def solve(self, rhs_free: np.ndarray) -> np.ndarray:
        return self._factorization.solve_shifted(self._shift, rhs_free, self._cholesky)


def _linmap(state, problem, e, f, kernel, eps, linmap):
    return linmap if linmap is not None else LinearizedMap(state, problem, e, f, kernel, eps)


def sensitivity_e(
    state: ForwardState,
    problem: Problem,
    e: ParameterField,
    f: ParameterField,
    kernel: KernelSpec,
    eps: float,
    delta_e: np.ndarray,
    linmap: LinearizedMap | None = None,
) -> Sensitivity:
    """Derivative of the solution map along an ellipticity direction."""
    lm = _linmap(state, problem, e, f, kernel, eps, linmap)
    mesh = problem.mesh
    T_dir = matrix_for_direction(mesh, delta_e, problem.form)
    rhs = -(T_dir @ lm.u_free)
    return Sensitivity("ellipticity", full_part(mesh, lm.solve(rhs)))


def sensitivity_f(
    state: ForwardState,
    problem: Problem,
    e: ParameterField,
    f: ParameterField,
    kernel: KernelSpec,
    eps: float,
    delta_f: np.ndarray,
    linmap: LinearizedMap | None = None,
) -> Sensitivity:
    """Derivative of the solution map along a friction direction."""
    lm = _linmap(state, problem, e, f, kernel, eps, linmap)
    mesh = problem.mesh
    delta_f = np.asarray(delta_f, dtype=float)
    rhs_full = -trace_adjoint(mesh, delta_f * lm.smooth.first_derivative)
    return Sensitivity("friction", full_part(mesh, lm.solve(free_part(mesh, rhs_full))))


def solution_jacobian(
    state: ForwardState,
    problem: Problem,
    e: ParameterField,
    f: ParameterField,
    kernel: KernelSpec,
    eps: float,
    free_e: bool = True,
    free_f: bool = True,
    linmap: LinearizedMap | None = None,
) -> np.ndarray:
    """The dense derivative of the solution map on the free dofs, one column
    per coefficient: every element if ``free_e``, then every friction node if
    ``free_f``.  Column j is :func:`sensitivity_e` (or :func:`sensitivity_f`)
    along the j-th unit vector; all columns come from one block solve with
    the map.
    """
    lm = _linmap(state, problem, e, f, kernel, eps, linmap)
    mesh = problem.mesh
    blocks = []
    if free_e:
        blocks.append(-operator_jacobian(mesh, problem.form, state.u).toarray())
    if free_f:
        pos = mesh.friction_free_positions
        rhs_f = np.zeros((lm.u_free.size, pos.size))
        rhs_f[pos, np.arange(pos.size)] = -mesh.friction_weights * lm.smooth.first_derivative
        blocks.append(rhs_f)
    return lm.solve(np.hstack(blocks))


def _misfit_names(misfit_norm: str) -> tuple[str, str]:
    if misfit_norm == "L2":
        return "mass_gram", "mass_factor"
    if misfit_norm == "V":
        return "v_gram", "v_factor"
    raise ValueError(f"misfit_norm must be 'L2' or 'V', got {misfit_norm!r}")


def misfit_riesz_matrix(problem: Problem, misfit_norm: str = "L2") -> sp.csr_matrix:
    """Gram matrix turning a free-dof residual into the misfit Riesz vector."""
    return getattr(problem, _misfit_names(misfit_norm)[0])


def misfit_factor(problem: Problem, misfit_norm: str = "L2") -> sp.csr_matrix:
    """The sparse ``B`` with ``B^T B`` the misfit Gram matrix, so that the
    misfit of a free-dof residual r is ``1/2 |B r|^2``."""
    return getattr(problem, _misfit_names(misfit_norm)[1])


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
    """Adjoint state p solving J p = Riesz(observation - u).

    The system matrix is the same SPD Jacobian as for the sensitivities (the
    problem is self-adjoint), so reusing a :class:`LinearizedMap` is exact.
    """
    lm = _linmap(state, problem, e, f, kernel, eps, linmap)
    mesh = problem.mesh
    G = misfit_riesz_matrix(problem, misfit_norm)
    resid = free_part(mesh, np.asarray(observation, dtype=float)) - lm.u_free
    return full_part(mesh, lm.solve(G @ resid))


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
) -> OptimalityBundle:
    """Reduced gradients of the regularized output-least-squares objective.

    grad_e per element: alpha (G_e e)_j + t(1_j; u, p);
    grad_f per friction node: beta (G_f f)_i + w_i M'_eps(u_i) p_i.
    """
    mesh = problem.mesh
    u_free = free_part(mesh, state.u)
    pos = mesh.friction_free_positions
    sm = modulus_smooth(kernel, eps, u_free[pos])
    p_free = free_part(mesh, adjoint_p)

    grad_e = alpha * np.asarray(e.reg_inner_product @ e.values) + elementwise_energy(
        mesh, problem.form, state.u, np.asarray(adjoint_p, dtype=float)
    )
    grad_f = beta * np.asarray(f.reg_inner_product @ f.values) + (
        mesh.friction_weights * sm.first_derivative * p_free[pos]
    )

    st_e = float(np.linalg.norm(e.values - e.project(e.values - grad_e)))
    st_f = float(np.linalg.norm(f.values - f.project(f.values - grad_f)))
    return OptimalityBundle(
        adjoint_p=np.asarray(adjoint_p, dtype=float),
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

    value = 1/2 ||u_eps - observation||^2 + alpha/2 |e|_E^2 + beta/2 |f|_F^2
    with the misfit norm chosen by ``misfit_norm``.
    """
    mesh = problem.mesh
    state = solution_map(e, f, eps, problem, kernel, tol=tol, u0_full=u0_full)
    G = misfit_riesz_matrix(problem, misfit_norm)
    resid = free_part(mesh, state.u) - free_part(mesh, np.asarray(observation, dtype=float))
    misfit = 0.5 * float(resid @ (G @ resid))
    reg = 0.5 * alpha * float(e.values @ (e.reg_inner_product @ e.values))
    reg += 0.5 * beta * float(f.values @ (f.reg_inner_product @ f.values))
    return misfit + reg, misfit, state
