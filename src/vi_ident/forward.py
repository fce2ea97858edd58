"""Forward solvers for the friction model, iterating on ``x = u_D`` alone.

With ``y = T^{-1} l`` and ``H`` the discrete harmonic extension off the
friction set D (``(H d)_D = d``, ``T H d = 0`` off D), the ``u`` with
``u_D = x`` that solves ``T u = l`` off D is ``y + H (x - y_D)``, and its
energy, minimized over the dofs off D, is the condensed energy
``1/2 (x - y_D)^T S (x - y_D) + sum_i w_i f_i m(x_i)``, with
``S = H^T T H`` the dense SPD Schur complement of ``T`` onto D.

* :func:`solve_vi_oracle` minimizes it with ``m = |.|`` (the convex program
  equivalent to the variational inequality of the second kind) through its
  dual: with ``S = R^T R`` the multiplier ``lam = S (y_D - x)`` solves the
  box-constrained least-squares problem ``min 1/2 |R^{-T} lam - R y_D|^2``
  over ``|lam| <= w f``, which scipy's bounded-variable least squares
  (``lsq_linear(method="bvls")``) solves in finitely many steps.  Slip nodes
  carry ``lam = +-w f``; stick nodes, whose ``lam`` lies inside the box, are
  pinned to zero.  It is the epsilon-independent ground truth.

* :func:`solve_friction_set` minimizes it with ``m = M_eps`` by damped Newton
  and returns ``x`` with what it was solved at (:class:`FrictionSetSolution`).
  The gradient ``S (x - y_D) + w f M'_eps(x)`` is the full-space residual of
  the harmonic extension of ``x``; the Hessian ``S + diag(w f M''_eps(x))``
  is SPD.  A cold start begins at the oracle's solution: its ``x`` is within
  ``sqrt(8 k eps sum(w f))`` of the smoothed solution in the energy norm,
  and as ``eps -> 0`` the smoothed friction force ``w f M'_eps(x)`` tends to
  its multiplier ``lam``.  So where the kernel inverts ``M'_eps``
  (:attr:`KernelSpec.Mt_inverse`) each stick node starts at the
  ``eps``-preimage of its multiplier, ``M'_eps(x_i) = lam_i / (w f)_i``,
  rather than at 0, where ``M''_eps ~ 1/eps``.
  :func:`solve_regularized` follows it with :func:`friction_set_state`;
  identification calls the two on its own, and with ``e`` fixed extends only
  the ``x`` it stops at.

A :class:`Factorization` of ``T(e)`` keeps one triangular factor ``U``
(``T = U^T diag(U)^{-1} U``), ``y``, ``S`` and the oracle's last solution on
D; every solve with ``T``, ``H`` or ``H^T`` is one or two sweeps of ``U``.
:meth:`Problem.factorization` keeps the one of the ``e`` requested last.
Newton's gradient test on D is floored at its round-off.  Each solver builds
``u`` from its ``x`` (:meth:`Factorization.extend`) and tests its full-space
residual against ``tol`` floored at round-off (:meth:`Factorization.floored_tol`).
Outside the oracle, every dense solve on D goes one way: LAPACK's Cholesky
``potrf`` of ``S`` plus a nonnegative diagonal
(:meth:`Factorization.shifted_factor`), then ``potrs`` (:func:`cholesky_solve`).
``S`` is checked finite once, when it is built; the diagonal and each
right-hand side are checked on every call, at O(|D|) cost per column; a
factorization that breaks down raises ``SolverError``.  Every tolerance test
is written so that a NaN residual fails it.  :func:`solution_map` dispatches
on ``eps`` (0 means oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import lsq_linear
from scipy.sparse.linalg import splu
from scipy.sparse.linalg._dsolve._superlu import gstrs  # private: the kernel behind spsolve_triangular

from .discretization import (
    DiscreteOperator,
    Mesh,
    ParameterField,
    full_part,
    h1_gram,
    load_vector,
    mass_matrix,
    operator_matrix,
)
from .errors import SolverError
from .kernels import KernelSpec, SmoothedEval, modulus_smooth

__all__ = [
    "ForwardState",
    "Factorization",
    "OracleSolution",
    "FrictionSetSolution",
    "Problem",
    "factorize",
    "cholesky_solve",
    "solve_vi_oracle",
    "solve_friction_set",
    "friction_set_state",
    "solve_regularized",
    "solution_map",
]


@dataclass(frozen=True)
class ForwardState:
    """A converged forward solution.

    ``u`` is the full nodal vector (zeros on the Dirichlet set); ``eps`` is 0
    for the oracle; ``residual_norm`` is the full-space residual of ``u``.
    ``iterations`` counts the box solver's iterations (oracle) or Newton's;
    ``residual_history`` (Newton) holds the gradient norm on D per accepted
    iterate, ending in ``residual_norm``.
    """

    u: np.ndarray
    residual_norm: float
    iterations: int
    eps: float
    residual_history: tuple = ()


@dataclass
class Problem:
    """Mesh, bilinear form, and source, holding the factorization requested last.

    Identification drivers re-solve at unchanged ``e`` (other ``f`` or
    ``eps``, sensitivities, adjoints), so :meth:`factorization` keeps the
    last :class:`Factorization`, and none of those solves assembles or
    factorizes ``T(e)`` again.  A driver that moves ``e`` does not come back
    to an earlier one, so a new coefficient replaces the factorization held.
    The load does not depend on ``e`` and is computed once.  The L2 and V
    misfit Gram matrices ``G`` on the free dofs
    (:func:`~vi_ident.adjoint.misfit_gram`) are assembled on first use.
    """

    mesh: Mesh
    form: str = "grad_grad"
    source: Callable | float = 1.0
    _last: tuple = field(default=(None, None), init=False, repr=False)

    def factorization(self, e: ParameterField) -> Factorization:
        """The :class:`Factorization` of ``T(e)``, built when ``e`` changes."""
        key = e.values.tobytes()
        if self._last[0] != key:
            matrix = operator_matrix(self.mesh, e, self.form)
            self._last = (None, None)  # so that two LUs are never alive at once
            self._last = (key, Factorization(self.mesh, matrix, self.load))
        return self._last[1]

    @cached_property
    def load(self) -> np.ndarray:
        return load_vector(self.mesh, self.source)

    @cached_property
    def mass_gram(self) -> sp.csr_matrix:
        return mass_matrix(self.mesh)

    @cached_property
    def v_gram(self) -> sp.csr_matrix:
        return h1_gram(self.mesh)


_ORACLE_TOL = 1e-10  # the oracle's default tolerance
_NEWTON_TOL = 1e-12  # the smoothed solver's default tolerance


class Factorization:
    """One sparse LU of ``T(e)`` on the free dofs, with the friction set D last,
    kept as its triangular factor ``U``.

    The LU runs in the mesh's elimination order (nested dissection off D, then
    D; :attr:`OperatorPattern.elimination`) with symmetric diagonal pivots, so
    for SPD ``T``, in the LU's order, ``T = U^T diag(U)^{-1} U``: the trailing
    block of ``U`` gives the Schur complement of ``T`` onto D, ``S = R^T R``
    with ``schur_factor`` ``R = diag(U_DD)^{-1/2} U_DD``, and every solve is
    one or two sweeps of ``U' = [U_II U_ID; 0 I]``, kept in ``U``'s own
    arrays (:meth:`_sweep`); the SuperLU object is not kept.  It keeps
    ``mesh``, ``matrix`` ``T(e)`` and ``load``; ``load_solution``
    ``y = T^{-1} l`` and ``schur`` ``S`` (checked finite) are built on first
    use.  The forward solvers iterate on these, then call :meth:`extend`
    once.  Every dense solve on D factorizes ``S`` plus a diagonal with
    LAPACK's Cholesky (:meth:`shifted_factor`; ``R`` for a zero diagonal) and
    solves with :func:`cholesky_solve`.
    ``friction_misfits`` holds identification's misfit on D at this ``e``,
    ``(W, c, kappa)`` per misfit norm and observation
    (:func:`~vi_ident.adjoint.friction_misfit_factor`).  ``matrix`` must not be
    modified in place.  Raises ``ValueError`` if ``matrix`` is not stored on
    ``mesh.operator_pattern``, and ``SolverError`` if the LU's own permutations
    move D out of the trailing block or pivot off the diagonal.
    """

    def __init__(self, mesh: Mesh, matrix: sp.csr_matrix, load: np.ndarray):
        if not mesh.operator_pattern.holds(matrix):
            raise ValueError("the operator matrix is not stored on the mesh's operator pattern")
        self.mesh, self.matrix, self.load = mesh, matrix, load
        self.positions = mesh.friction_free_positions
        self.friction_misfits = {}
        self._oracle = (None, None)  # the last (w f, oracle(w f))
        order, rank, indptr, indices, to_csc = mesh.operator_pattern.elimination
        lu = splu(
            sp.csc_matrix((matrix.data[to_csc], indices, indptr), shape=matrix.shape),
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        # SuperLU composes the given order with its elimination-tree postorder
        n = matrix.shape[0]
        lead = self._lead = n - self.positions.size
        if not np.array_equal(lu.perm_c[lead:], np.arange(lead, n)):
            raise SolverError("the LU of T(e) does not keep the friction set as its trailing block")
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise SolverError("the LU of T(e) does not pivot on the diagonal")
        self._gather = lu.perm_c[rank]  # the LU's order to free-dof order
        U = lu.U
        U_DD = U[lead:, lead:].toarray(order="F")
        self.schur_factor = U_DD / np.sqrt(np.diag(U_DD))[:, None]
        # U' in U's own arrays, as gstrs takes it: it divides by the diagonal
        # passed as L and subtracts every entry passed as U.  So the diagonal
        # off D (each column's last entry) moves into the pivots, D's pivots
        # are 1, and U_DD, which only D's columns hold, is zeroed.
        last = U.indptr[1 : lead + 1] - 1
        if not np.array_equal(U.indices[last], np.arange(lead)):
            raise SolverError("the columns of the LU's U off the friction set do not end on the diagonal")
        self._pivots = np.ones(n)
        self._pivots[:lead] = U.data[last]
        U.data[last] = 0.0
        U.data[U.indptr[lead] :][U.indices[U.indptr[lead] :] >= lead] = 0.0
        unit = np.arange(n + 1, dtype=np.intc)
        self._upper = (n, n, self._pivots, unit[:-1], unit, n, U.nnz, U.data, U.indices, U.indptr)

    @cached_property
    def load_solution(self) -> np.ndarray:
        """``y = T^{-1} l``, the frictionless solution."""
        return self.solve(self.load)

    @cached_property
    def schur(self) -> np.ndarray:
        """``S``, the Schur complement of ``T`` onto D, checked finite."""
        R = self.schur_factor
        S = R.T @ R
        if not np.isfinite(S).all():
            raise SolverError("the Schur complement of T(e) onto the friction set is not finite")
        return S

    @cached_property
    def row_sum_norm(self) -> float:
        """``|T(e)|_inf``, the largest absolute row sum (every row stores its diagonal)."""
        return float(np.add.reduceat(np.abs(self.matrix.data), self.matrix.indptr[:-1]).max())

    def floored_tol(self, u: np.ndarray, tol: float) -> float:
        """``tol``, floored at the round-off of a full-space residual at
        ``u``: ``4 eps_mach (|T(e)|_inf |u| + |l|)``."""
        scale = self.row_sum_norm * np.linalg.norm(u) + np.linalg.norm(self.load)
        return max(tol, 4.0 * np.finfo(float).eps * scale)

    @cached_property
    def _schur_columns(self) -> np.ndarray:
        """``S`` in column-major order, the layout LAPACK factorizes in place."""
        return np.asfortranarray(self.schur)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``T x = rhs`` for a vector or an (n, k) block of right-hand
        sides: :meth:`solve_shifted` at a zero shift."""
        return self._solve(self.schur_factor, rhs)

    def oracle(self, wf: np.ndarray) -> OracleSolution:
        """The oracle's :class:`OracleSolution` on D at ``wf = w f``
        (:func:`_active_set`), kept for the last ``wf`` asked."""
        if not np.array_equal(self._oracle[0], wf):
            self._oracle = (wf, _active_set(self, wf))
        return self._oracle[1]

    def shifted_factor(self, shift: np.ndarray) -> np.ndarray:
        """The upper Cholesky factor of ``S + diag(shift)``, for
        :func:`cholesky_solve`: LAPACK ``potrf`` on a copy of ``S`` with
        ``shift`` added to its diagonal.  The strict lower triangle holds
        ``S``.

        Raises ``ValueError`` if ``shift`` is not finite, and ``SolverError``
        if ``S + diag(shift)`` is not positive definite.
        """
        if not np.isfinite(shift).all():
            raise ValueError("the shift of the Schur complement must be finite")
        H = self._schur_columns.copy(order="F")
        H.flat[:: H.shape[0] + 1] += shift
        factor, info = dpotrf(H, lower=0, clean=0, overwrite_a=1)
        if info > 0:
            raise SolverError(f"the shifted Schur complement is not positive definite (leading minor {info})")
        return factor

    def solve_shifted(self, shift: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(T + E_D diag(shift) E_D^T) x = rhs`` for a vector or an
        (n, k) block: ``[T_II^{-1} 0; 0 0] rhs + H x_D`` with
        ``(S + diag(shift)) x_D = H^T rhs``, SPD for ``shift >= 0``.

        A ``"T"`` sweep gives ``U_II^{-T} rhs_I`` and ``H^T rhs``; the first
        is scaled by ``diag(U_II)``, the second solved with ``R`` (a zero
        shift) or :meth:`shifted_factor`, and an ``"N"`` sweep gives ``x``,
        with ``x_D`` as the Cholesky solve gives it.
        """
        return self._solve(self.shifted_factor(shift) if np.any(shift) else self.schur_factor, rhs)

    def harmonic(self, d: np.ndarray) -> np.ndarray:
        """``H d``, ``(H d)_D = d`` and ``T H d = 0`` off D, for a vector or a
        |D| x k block: one sweep, ``U'^{-1} [0; d]``.  ``H^T T H`` is ``S``."""
        z = np.zeros((self.load.size, *np.shape(d)[1:]))
        z[self._lead :] = d
        return self._sweep("N", z)[self._gather]

    def harmonic_transpose(self, v: np.ndarray) -> np.ndarray:
        """``H^T v``, the D part of ``U'^{-T} v`` (``v`` taken to the LU's
        order), for a vector or an (n, k) block: one sweep."""
        return self._sweep("T", self._scatter(v))[self._lead :]

    def extend(self, x: np.ndarray) -> np.ndarray:
        """The ``u`` with ``u_D = x`` that solves ``T u = l`` off D:
        ``y + H (x - y_D)`` (:meth:`harmonic`), with no ``T``-solve."""
        y = self.load_solution
        u = y + self.harmonic(x - y[self.positions])
        u[self.positions] = x
        return u

    def _solve(self, factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """:meth:`solve_shifted` with ``factor``, the Cholesky factor on D."""
        z = self._sweep("T", self._scatter(rhs))
        z.T[...] *= self._pivots
        z[self._lead :] = cholesky_solve(factor, z[self._lead :])
        return self._sweep("N", z)[self._gather]

    def _scatter(self, v: np.ndarray) -> np.ndarray:
        """``v`` (free-dof order) in the LU's order."""
        p = np.empty(np.shape(v))
        p[self._gather] = v
        return p

    def _sweep(self, trans: str, rhs: np.ndarray) -> np.ndarray:
        """``U'^{-1} rhs`` (``trans="N"``) or ``U'^{-T} rhs`` (``"T"``), in the
        LU's order, through SuperLU's ``gstrs``."""
        x, info = gstrs(trans, *self._upper, rhs)
        if info:
            raise ValueError(f"illegal value in argument {-info} of SuperLU gstrs")
        return x


def cholesky_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(S + diag(shift)) x = rhs`` for a vector or a |D| x k block,
    with ``factor`` from :meth:`Factorization.shifted_factor` (``schur_factor``
    at a zero shift): LAPACK ``potrs``.  Raises ``ValueError`` if ``rhs`` is
    not finite."""
    if not np.isfinite(rhs).all():
        raise ValueError("the right-hand side of a solve on the friction set must be finite")
    x, info = dpotrs(factor, rhs, lower=0)
    if info:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
    return x


def factorize(op: DiscreteOperator | Factorization, mesh: Mesh) -> Factorization:
    """``op`` if it is a :class:`Factorization` on ``mesh`` (a ``ValueError``
    if on another), else a new one of the assembled operator ``op``."""
    if isinstance(op, Factorization):
        if op.mesh is not mesh:
            raise ValueError("the factorization was built on another mesh")
        return op
    return Factorization(mesh, op.matrix, op.load)


def _check_friction(f: ParameterField, mesh: Mesh) -> np.ndarray:
    vals = f.values
    if vals.shape != (mesh.friction_nodes.size,):
        raise ValueError("friction field length must match the friction node count")
    if not np.isfinite(vals).all():
        raise ValueError("friction coefficient must be finite")
    if vals.min(initial=0.0) < 0.0:
        raise ValueError("friction coefficient must be nonnegative")
    return vals


def _prox_residual(fac: Factorization, wf: np.ndarray, u_free: np.ndarray) -> float:
    """Norm of the proximal-gradient step over its size
    ``tau = 1 / max(1, |K|_inf)``; zero exactly at the minimizer."""
    tau = 1.0 / max(fac.row_sum_norm, 1.0)
    z = u_free - tau * (fac.matrix @ u_free - fac.load)
    prox = z.copy()
    pos = fac.positions
    zd = z[pos]
    prox[pos] = np.sign(zd) * np.maximum(np.abs(zd) - tau * wf, 0.0)
    return float(np.linalg.norm(u_free - prox) / tau)


class OracleSolution(NamedTuple):
    """The oracle's ``x = u_D``, its multiplier ``lam = S (y_D - x)`` on D
    (``|lam| <= w f``, inside the box where ``x`` sticks at 0) and the box
    solver's iteration count."""

    x: np.ndarray
    multiplier: np.ndarray
    iterations: int


def _active_set(fac: Factorization, wf: np.ndarray) -> OracleSolution:
    """The oracle on D by its dual, a box-constrained least-squares problem.

    With ``S = R^T R``, ``lam = S (y_D - x)`` minimizes
    ``1/2 |R^{-T} lam - R y_D|^2`` over ``|lam| <= w f``, solved to round-off
    by scipy's bounded-variable least squares (the oracle checks the ``u``
    built from it), and ``x = y_D - S^{-1} lam``.  Nodes whose multiplier
    lies inside the box stick and are pinned to exactly 0.  Nodes with
    ``w f = 0`` keep ``lam = 0`` and stay out of the box problem, which
    rejects zero-width bounds.
    """
    y = fac.load_solution[fac.positions]
    R = fac.schur_factor
    lam = np.zeros(y.size)
    boxed = np.flatnonzero(wf)
    if boxed.size == 0:
        return OracleSolution(y.copy(), lam, 0)
    A = solve_triangular(R, np.eye(y.size)[:, boxed], trans="T")  # R^{-T} restricted to the boxed nodes
    fit = lsq_linear(A, R @ y, bounds=(-wf[boxed], wf[boxed]), method="bvls", tol=np.finfo(float).eps)
    x = -solve_triangular(R, fit.fun)  # fun = R^{-T} lam - R y_D = -R x
    x[boxed[fit.active_mask == 0]] = 0.0
    lam[boxed] = fit.x
    return OracleSolution(x, lam, fit.nit)


def solve_vi_oracle(
    op: DiscreteOperator | Factorization,
    mesh: Mesh,
    f: ParameterField,
    tol: float = _ORACLE_TOL,
) -> ForwardState:
    """Solve the variational inequality at :func:`factorize` ``(op, mesh)``
    by bounded-variable least squares on the dual of its condensed energy on D.

    ``u`` is the extension of the oracle's ``x`` (:meth:`Factorization.extend`);
    ``residual_norm`` is its full-space proximal-gradient residual and
    ``iterations`` counts the box solver's iterations.

    Raises
    ------
    SolverError
        If the returned ``u`` misses :meth:`Factorization.floored_tol` ``tol``.
    """
    wf = mesh.friction_weights * _check_friction(f, mesh)
    fac = factorize(op, mesh)
    oracle = fac.oracle(wf)
    u = fac.extend(oracle.x)
    residual = _prox_residual(fac, wf, u)
    tol = fac.floored_tol(u, tol)
    if not residual <= tol:
        raise SolverError(f"oracle residual {residual:.3e} above tol {tol:.1e}", residual=residual)
    return ForwardState(u=full_part(mesh, u), residual_norm=residual, iterations=oracle.iterations, eps=0.0)


class FrictionSetSolution(NamedTuple):
    """Newton's converged ``x = u_D`` on the friction set, with the smoothed
    modulus at ``x``, the iteration count, the gradient-norm history, and the
    ``wf = w f``, kernel and ``eps`` it was solved at; not its
    :class:`Factorization`, so as not to keep it alive."""

    x: np.ndarray
    modulus: SmoothedEval
    iterations: int
    history: list
    wf: np.ndarray
    kernel: KernelSpec
    eps: float


def solve_friction_set(
    fac: Factorization,
    f: ParameterField,
    kernel: KernelSpec,
    eps: float,
    tol: float = _NEWTON_TOL,
    max_iter: int = 100,
    starts: tuple = (),
) -> FrictionSetSolution:
    """Newton solve of the regularized variational equation on D alone.

    A full step is taken when it cuts the gradient norm on D by 10%, else an
    Armijo backtracking on the condensed energy guards against the curvature
    ``M'' ~ 1/eps``.  Newton runs from each of ``starts`` (vectors on D) in
    turn, and from the oracle's solution (:meth:`Factorization.oracle`) when
    none converges: its ``x``, with each stick node (``x_i = 0``,
    ``|lam_i| < (w f)_i``) at ``kernel.Mt_inverse(eps, lam_i / (w f)_i)``,
    where the smoothed friction force equals the oracle's multiplier; a
    kernel without ``Mt_inverse`` starts at the oracle's ``x`` as it is.  It
    converges when the gradient on D, the full-space residual of the
    harmonic extension of ``x``, is at most ``tol`` floored at its round-off
    (:func:`_newton`); no ``T``-solve is made.

    Raises
    ------
    SolverError
        If Newton from the oracle's solution stalls on full steps, exhausts
        ``max_iter`` or its line search finds no sufficient energy decrease.
    """
    wf = fac.mesh.friction_weights * _check_friction(f, fac.mesh)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    for x0 in starts:
        try:
            return _newton(fac, wf, kernel, eps, tol, max_iter, x0)
        except SolverError:
            pass  # a poor start: try the next one
    return _newton(fac, wf, kernel, eps, tol, max_iter, _cold_start(fac.oracle(wf), wf, kernel, eps))


def _cold_start(oracle: OracleSolution, wf: np.ndarray, kernel: KernelSpec, eps: float) -> np.ndarray:
    """The oracle's ``x``, each stick node at the ``eps``-preimage of its
    multiplier; ``|r| = 1`` (``arctanh(1)`` is infinite) keeps 0."""
    if kernel.Mt_inverse is None:
        return oracle.x
    r = np.divide(oracle.multiplier, wf, out=np.zeros_like(wf), where=wf > 0)
    stick = (oracle.x == 0.0) & (wf > 0) & (np.abs(r) < 1.0)
    x = oracle.x.copy()
    x[stick] = kernel.Mt_inverse(eps, r[stick])
    return x


def friction_set_state(
    fac: Factorization, solution: FrictionSetSolution, tol: float = _NEWTON_TOL
) -> ForwardState:
    """The :class:`ForwardState` of a :func:`solve_friction_set` solution on
    ``fac``.

    ``u`` is the harmonic extension of ``x`` (:meth:`Factorization.extend`);
    ``residual_norm`` (the last entry of ``residual_history``) is its
    full-space residual ``|K u - l + E_D (w f M'_eps(u_D))|``.  Where that
    residual exceeds :meth:`Factorization.floored_tol` ``tol``, one
    full-space Newton step through :meth:`Factorization.solve_shifted`
    removes what lies above round-off.

    Raises
    ------
    SolverError
        If the returned ``u`` misses :meth:`Factorization.floored_tol` ``tol``.
    """
    pos, wf, sm = fac.positions, solution.wf, solution.modulus

    def residual_of(u, sm):
        r = fac.matrix @ u - fac.load
        r[pos] += wf * sm.first_derivative
        return r

    u = fac.extend(solution.x)
    r = residual_of(u, sm)
    if np.linalg.norm(r) > fac.floored_tol(u, tol):  # a NaN residual takes no step and fails the check below
        # the gradient on D does not see the round-off of the extension
        u += fac.solve_shifted(wf * sm.second_derivative, -r)
        sm = modulus_smooth(solution.kernel, solution.eps, u[pos])
        r = residual_of(u, sm)
    residual = float(np.linalg.norm(r))
    tol = fac.floored_tol(u, tol)
    if not residual <= tol:
        raise SolverError(f"Newton residual {residual:.3e} above tol {tol:.1e}", residual=residual)
    return ForwardState(
        u=full_part(fac.mesh, u),
        residual_norm=residual,
        iterations=solution.iterations,
        eps=float(solution.eps),
        residual_history=(*solution.history[:-1], residual),
    )


def solve_regularized(
    op: DiscreteOperator | Factorization,
    mesh: Mesh,
    f: ParameterField,
    kernel: KernelSpec,
    eps: float,
    tol: float = _NEWTON_TOL,
    max_iter: int = 100,
    u0_full: np.ndarray | None = None,
) -> ForwardState:
    """Newton solve of the regularized variational equation at
    :func:`factorize` ``(op, mesh)``: Newton on D (:func:`solve_friction_set`),
    from ``u0_full`` on D when given, then the state of its ``x``
    (:func:`friction_set_state`).

    Raises
    ------
    SolverError
        If Newton fails from the oracle's solution, or the returned ``u`` misses
        ``tol``.
    """
    starts = () if u0_full is None else (np.asarray(u0_full)[mesh.friction_nodes],)
    fac = factorize(op, mesh)
    return friction_set_state(fac, solve_friction_set(fac, f, kernel, eps, tol, max_iter, starts), tol)


def _newton(fac, wf, kernel, eps, tol, max_iter, x):
    """Damped Newton on D from ``x``, to a gradient norm of ``tol`` floored at
    its round-off, ``4 eps_mach (|S|_inf (|x| + |y_D|) + |w f|)``."""
    y = fac.load_solution[fac.positions]
    S = fac.schur
    S_norm, y_norm, wf_norm = np.abs(S).sum(axis=1).max(initial=0.0), np.linalg.norm(y), np.linalg.norm(wf)

    def floored(x):
        return max(tol, 4.0 * np.finfo(float).eps * (S_norm * (np.linalg.norm(x) + y_norm) + wf_norm))

    def condensed(r, q, m):  # at x = y_D + r, q = S r: the energy of the extension of x, plus 1/2 l^T y
        return float(0.5 * r @ q + wf @ m)

    def at(x):  # (x, gradient, modulus, energy) at x
        q = S @ (x - y)
        sm = modulus_smooth(kernel, eps, x)
        return x, q + wf * sm.first_derivative, sm, condensed(x - y, q, sm.value)

    x, g, sm, energy = at(x)
    history = [float(np.linalg.norm(g))]
    iterations = stalled = 0
    while not history[-1] <= (floor := floored(x)):  # a NaN norm does not pass
        failure = (
            "reached a non-finite gradient" if not np.isfinite(history[-1])
            else "stalled at the attainable precision" if stalled >= 2
            else f"did not converge in {max_iter} iterations" if iterations >= max_iter
            else None
        )
        if failure:
            raise SolverError(
                f"Newton {failure} at eps {eps:g} (residual {history[-1]:.3e}, tol {floor:.1e})", residual=history[-1]
            )
        iterations += 1
        try:
            factor = fac.shifted_factor(wf * sm.second_derivative)
        except SolverError as err:
            raise SolverError(f"Newton at eps {eps:g}: {err} (residual {history[-1]:.3e})", residual=history[-1]) from None
        d = -cholesky_solve(factor, g)
        # Full step first: near the solution Newton contracts the residual and
        # the energy decrease underflows double precision, so the Armijo test
        # is reserved for the globalization phase.
        step = 1.0
        trial = at(x + d)
        if np.linalg.norm(trial[1]) > 0.9 * history[-1]:
            slope = float(g @ d)  # negative: the Hessian is SPD
            while True:
                r = x + step * d - y
                m = modulus_smooth(kernel, eps, x + step * d).value
                if condensed(r, S @ r, m) <= energy + 1e-4 * step * slope:
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
        x, g, sm, energy = trial
        history.append(float(np.linalg.norm(g)))
        # A full step that no longer reduces the residual: double precision is
        # exhausted, so fail fast instead of looping to the iteration cap.
        stalled = stalled + 1 if step == 1.0 and history[-1] >= 0.9999 * history[-2] else 0
    return FrictionSetSolution(x, sm, iterations, history, wf, kernel, eps)


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

    The problem keeps the factorization of ``T(e)`` for the next call with
    the same coefficient vector (:meth:`Problem.factorization`).
    """
    fac = problem.factorization(e)
    tol = (_ORACLE_TOL if eps == 0 else _NEWTON_TOL) if tol is None else tol
    if eps == 0:
        return solve_vi_oracle(fac, problem.mesh, f, tol)
    if kernel is None:
        raise ValueError("a kernel is required for eps > 0")
    return solve_regularized(fac, problem.mesh, f, kernel, eps, tol, u0_full=u0_full)
