"""Shared test fixtures and independent numerical oracles.

The oracles here deliberately re-derive quantities that the library computes
in closed form (smoothed plus-function values, absolute means of densities,
the slip/stick solution of the 1D benchmark) so that the tests compare two
independent routes rather than the library against itself.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.sparse.linalg import spilu, spsolve

from vi_ident import forward
from vi_ident.discretization import interval_mesh, unit_square_mesh
from vi_ident.kernels import modulus_smooth

# --- meshes -------------------------------------------------------------------

# one friction node (1D), and |D| = 15 and 39 friction nodes (2D)
MESHES = {
    "1d": lambda: interval_mesh(0.0, 1.0, 32),
    "2d": lambda: unit_square_mesh(16),
    "2d_40": lambda: unit_square_mesh(40),
}

# --- forced solver failures ---------------------------------------------------


def cap_newton(monkeypatch) -> list:
    """Cap every Newton run on the friction set at 0 iterations and return the
    list each run appends its ``eps`` to.  Newton's test on D is floored at
    round-off, so no tolerance makes a solve fail; the cap does wherever the
    start's gradient is above the floor."""
    runs = []
    newton = forward._newton

    def capped(fac, wf, kernel, eps, tol, max_iter, x):
        runs.append(eps)
        return newton(fac, wf, kernel, eps, tol, 0, x)

    monkeypatch.setattr(forward, "_newton", capped)
    return runs


# --- densities, written out independently of the library ---------------------


def density_sigmoid(s):
    e = np.exp(-np.abs(s))
    return e / (1.0 + e) ** 2


def density_sqrt(s):
    return 2.0 / (s * s + 4.0) ** 1.5


def density_uniform_centered(s):
    return np.where((s >= -0.5) & (s <= 0.5), 1.0, 0.0)


def density_uniform_shifted(s):
    return np.where((s >= 0.0) & (s <= 1.0), 1.0, 0.0)


DENSITIES = {
    "sigmoid": (density_sigmoid, None),
    "sqrt": (density_sqrt, None),
    "uniform_centered": (density_uniform_centered, (-0.5, 0.5)),
    "uniform_shifted": (density_uniform_shifted, (0.0, 1.0)),
}

# absolute means, by hand: 2*log 2, 2, 1/4, 1/2
ABSOLUTE_MEANS = {
    "sigmoid": 2.0 * np.log(2.0),
    "sqrt": 2.0,
    "uniform_centered": 0.25,
    "uniform_shifted": 0.5,
}

_TAIL = 20.0


def convolution_plus(density, eps: float, t: float, support=None) -> float:
    """Smoothed plus function by direct quadrature.

    Integrates (t - eps*s) * rho(s) over s <= t/eps.  Densities without
    compact support get the unbounded lower tail mapped onto a finite
    interval through s = -1/u, so the integrand stays smooth for quad.
    """
    upper = t / eps
    f = lambda s: (t - eps * s) * density(s)
    if support is not None:
        lo, hi = support[0], min(support[1], upper)
        if hi <= lo:
            return 0.0
        return quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    A = max(_TAIL, abs(upper) + 10.0)
    total = 0.0
    hi = min(upper, A)
    if hi > -A:
        total += quad(f, -A, hi, epsabs=1e-13, epsrel=1e-13, limit=300)[0]
    if upper > A:
        total += quad(f, A, upper, epsabs=1e-13, epsrel=1e-13, limit=300)[0]
    # lower tail: s = -1/u maps (-inf, -A] onto (0, 1/A]
    g = lambda u: (t + eps / u) * density(-1.0 / u) / (u * u)
    total += quad(g, 0.0, 1.0 / A, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return total


def quadrature_absolute_mean(density, support=None) -> float:
    """Integral of |s| rho(s), with the same tail substitution."""
    f = lambda s: abs(s) * density(s)
    if support is not None:
        return quad(f, support[0], support[1], epsabs=1e-14, epsrel=1e-14)[0]
    core = quad(f, -_TAIL, _TAIL, epsabs=1e-13, epsrel=1e-13, limit=300)[0]
    g_hi = lambda u: density(1.0 / u) / u**3
    g_lo = lambda u: density(-1.0 / u) / u**3
    tail = 1.0 / _TAIL
    return (
        core
        + quad(g_hi, 0.0, tail, epsabs=1e-14, epsrel=1e-13)[0]
        + quad(g_lo, 0.0, tail, epsabs=1e-14, epsrel=1e-13)[0]
    )


# --- 1D benchmark closed form -------------------------------------------------
#
# -(u')' = 1 on (0,1), u(0) = 0, scalar friction bound f at x = 1:
#   slip (f < 1/2):  u(x) = x - x^2/2 - f*x, so u(1) = 1/2 - f
#   stick (f >= 1/2): u(x) = x(1-x)/2, so u(1) = 0


def benchmark_solution(f: float, x):
    x = np.asarray(x, dtype=float)
    if f < 0.5:
        return x - 0.5 * x * x - f * x
    return 0.5 * x * (1.0 - x)


def benchmark_tip(f: float) -> float:
    return max(0.5 - f, 0.0)


# --- finite differences --------------------------------------------------------


def central_difference(fun, h: float) -> float:
    """(fun(h) - fun(-h)) / 2h for a scalar-argument callable."""
    return (fun(h) - fun(-h)) / (2.0 * h)


# --- energies and the Newton Jacobian, assembled explicitly --------------------


def nonsmooth_energy(op, mesh, f, u_free) -> float:
    """Discrete energy 1/2 u^T K u - l^T u + sum_i w_i f_i |u_i|."""
    wf = mesh.friction_weights * f.values
    ud = u_free[mesh.friction_free_positions]
    return float(0.5 * u_free @ (op.matrix @ u_free) - op.load @ u_free + wf @ np.abs(ud))


def smoothed_energy(op, mesh, f, kernel, eps: float, u_free) -> float:
    """Energy with |.| replaced by the smoothed modulus M_eps."""
    wf = mesh.friction_weights * f.values
    ud = u_free[mesh.friction_free_positions]
    M = modulus_smooth(kernel, eps, ud).value
    return float(0.5 * u_free @ (op.matrix @ u_free) - op.load @ u_free + wf @ M)


def linearized_matrix(problem, e, f, kernel, eps: float, u_full) -> sp.csc_matrix:
    """The Newton Jacobian J = T(e) + E_D diag(w f M''_eps(u_D)) E_D^T on the
    free dofs, assembled."""
    mesh = problem.mesh
    second = modulus_smooth(kernel, eps, np.asarray(u_full)[mesh.friction_nodes]).second_derivative
    diag = np.zeros(mesh.free_nodes.size)
    diag[mesh.friction_free_positions] = mesh.friction_weights * f.values * second
    return (problem.factorization(e).matrix + sp.diags(diag)).tocsc()


def friction_response(problem, e) -> np.ndarray:
    """``Z = T(e)^{-1} E_D``, the dense (free dofs) x |D| response of the free
    dofs to a unit load at each friction node, by ``spsolve``."""
    pos = problem.mesh.friction_free_positions
    E_D = np.zeros((problem.mesh.free_nodes.size, pos.size))
    E_D[pos, np.arange(pos.size)] = 1.0
    return spsolve(problem.factorization(e).matrix.tocsc(), E_D)


# --- elimination orders ----------------------------------------------------------


def minimum_degree_order(pattern) -> np.ndarray:
    """Reference elimination order: SuperLU's minimum-degree order of the dofs
    off the friction set D, then D in ``friction_positions`` order.

    An incomplete LU that drops every fill entry computes the order at a
    fraction of the cost of a full factorization; it runs on a strictly
    diagonally dominant matrix on the pattern, SPD, so it cannot break down.
    """
    n = pattern.shape[0]
    D = pattern.friction_positions
    rest = np.setdiff1d(np.arange(n), D)
    degree = np.diff(pattern.indptr)
    row = np.repeat(np.arange(n), degree)
    dominant = sp.csr_matrix(
        (np.where(row == pattern.indices, degree[row], -1.0), pattern.indices, pattern.indptr), shape=pattern.shape
    )
    if rest.size:
        ilu = spilu(dominant[rest][:, rest].tocsc(), drop_tol=1.0, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A")
        rest = rest[np.argsort(ilu.perm_c)]
    return np.concatenate([rest, D]).astype(np.int32)


def recursive_dissection_order(points, indptr, indices, part) -> np.ndarray:
    """Reference nested dissection of the dofs ``part``, one part at a time by
    recursion: each part is cut at the median coordinate along its longest
    extent, and ordered as the low side less the separator, the high side and
    the separator (the low-side dofs with a pattern neighbour on the high
    side).  A part of at most ``_LEAF_SIZE`` dofs, or with no proper split,
    keeps its order."""
    from vi_ident.discretization import _LEAF_SIZE

    n = indptr.size - 1
    neighbours = [set(indices[indptr[i] : indptr[i + 1]]) for i in range(n)]

    def dissect(part):
        if part.size <= _LEAF_SIZE:
            return part
        coords = points[part]
        x = coords[:, np.ptp(coords, axis=0).argmax()]
        low = x <= np.partition(x, (x.size - 1) // 2)[(x.size - 1) // 2]
        if low.all():
            return part
        high = set(part[~low].tolist())
        separator = np.array([low[k] and not neighbours[i].isdisjoint(high) for k, i in enumerate(part)])
        return np.concatenate([dissect(part[low & ~separator]), dissect(part[~low]), part[separator]])

    return dissect(np.asarray(part))


# --- CSV cells ------------------------------------------------------------------


def format_cell(x) -> str:
    """One CSV cell as text, cell by cell: floats by ``repr``, integers in
    decimal (bools as 0 or 1), anything else by ``str``."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)
