"""Smoothed replacements for the plus function and the modulus.

Convolving p(t) = max(t, 0) with a probability density rho scaled by eps gives
a convex, twice continuously differentiable approximation

    P(eps, t) = integral over s <= t/eps of (t - eps*s) * rho(s) ds,

and M(eps, t) = P(eps, t) + P(eps, -t) approximates m(t) = |t|.  If rho has a
finite absolute mean k = int |s| rho(s) ds, the approximations satisfy the
uniform bounds |P - p| <= k*eps and |M - m| <= 2*k*eps.

A kernel is its density together with P and P_t (the CDF of rho at t/eps);
P_tt = rho(t/eps)/eps is read off the density.  Four densities with closed-form
P and P_t are built in (selected by name through :func:`get_kernel`): the
logistic ("sigmoid") density, an algebraic tail density giving a square-root
form ("sqrt"), and two box densities ("uniform_centered", "uniform_shifted").
:func:`from_density` builds a kernel from a user density, with P and P_t by
quadrature; such kernels must declare their absolute mean explicitly.

All evaluations accept scalars or numpy arrays in ``t`` and are pure
functions, safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import expit

__all__ = [
    "KernelSpec",
    "SmoothedEval",
    "KERNEL_NAMES",
    "get_kernel",
    "from_density",
    "plus_smooth",
    "modulus_smooth",
    "modulus_value",
]


@dataclass(frozen=True)
class SmoothedEval:
    """Value and first two derivatives of a smoothed function at t.

    Fields are scalars or arrays matching the shape of the evaluation points.
    """

    value: np.ndarray | float
    first_derivative: np.ndarray | float
    second_derivative: np.ndarray | float


@dataclass(frozen=True)
class KernelSpec:
    """A smoothing density with its smoothed plus function and derivative.

    Parameters
    ----------
    kind:
        Name of the kernel ("sigmoid", "sqrt", "uniform_centered",
        "uniform_shifted", or a user-chosen label).
    absolute_mean_k:
        The constant k = int |s| rho(s) ds entering the approximation bounds.
    density:
        The density rho, vectorized over its argument; P_tt(eps, t) is
        ``density(t/eps) / eps``.
    P, Pt:
        Callables ``(eps, t) -> array`` for P and its t-derivative: closed
        forms for the built-ins, quadrature for :func:`from_density`.
    """

    kind: str
    absolute_mean_k: float
    density: Callable[[np.ndarray], np.ndarray]
    P: Callable
    Pt: Callable


# ---------------------------------------------------------------------------
# Built-in closed forms.
# ---------------------------------------------------------------------------


def _sigmoid_density(s):
    # e^{-s} (1+e^{-s})^{-2}, written symmetrically to avoid overflow.
    e = np.exp(-np.abs(s))
    return e / (1.0 + e) ** 2


def _sigmoid_P(eps, t):
    # eps * ln(1 + e^{t/eps}) == t + eps * ln(1 + e^{-t/eps}); the combined
    # softplus form max(x,0) + log1p(e^{-|x|}) is exact in both regimes.
    x = np.asarray(t, dtype=float) / eps
    return eps * (np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))


def _sigmoid_Pt(eps, t):
    return expit(np.asarray(t, dtype=float) / eps)


def _sqrt_density(s):
    return 2.0 / (np.asarray(s, dtype=float) ** 2 + 4.0) ** 1.5


def _sqrt_P(eps, t):
    t = np.asarray(t, dtype=float)
    return (np.sqrt(t * t + 4.0 * eps * eps) + t) / 2.0


def _sqrt_Pt(eps, t):
    t = np.asarray(t, dtype=float)
    return (t / np.sqrt(t * t + 4.0 * eps * eps) + 1.0) / 2.0


# The box densities take the half-open support [a, b), so P_tt takes its
# right limit at the breakpoints.


def _uniform_centered_density(s):
    s = np.asarray(s, dtype=float)
    return np.where((s >= -0.5) & (s < 0.5), 1.0, 0.0)


def _uniform_centered_P(eps, t):
    t = np.asarray(t, dtype=float)
    mid = (t + eps / 2.0) ** 2 / (2.0 * eps)
    return np.where(t < -eps / 2.0, 0.0, np.where(t > eps / 2.0, t, mid))


def _uniform_centered_Pt(eps, t):
    return np.clip(np.asarray(t, dtype=float) / eps + 0.5, 0.0, 1.0)


def _uniform_shifted_density(s):
    s = np.asarray(s, dtype=float)
    return np.where((s >= 0.0) & (s < 1.0), 1.0, 0.0)


def _uniform_shifted_P(eps, t):
    t = np.asarray(t, dtype=float)
    return np.where(t < 0.0, 0.0, np.where(t > eps, t - eps / 2.0, t * t / (2.0 * eps)))


def _uniform_shifted_Pt(eps, t):
    return np.clip(np.asarray(t, dtype=float) / eps, 0.0, 1.0)


_BUILTINS = {
    "sigmoid": KernelSpec(
        kind="sigmoid",
        absolute_mean_k=2.0 * np.log(2.0),
        density=_sigmoid_density,
        P=_sigmoid_P,
        Pt=_sigmoid_Pt,
    ),
    "sqrt": KernelSpec(
        kind="sqrt",
        absolute_mean_k=2.0,
        density=_sqrt_density,
        P=_sqrt_P,
        Pt=_sqrt_Pt,
    ),
    "uniform_centered": KernelSpec(
        kind="uniform_centered",
        absolute_mean_k=0.25,
        density=_uniform_centered_density,
        P=_uniform_centered_P,
        Pt=_uniform_centered_Pt,
    ),
    "uniform_shifted": KernelSpec(
        kind="uniform_shifted",
        absolute_mean_k=0.5,
        density=_uniform_shifted_density,
        P=_uniform_shifted_P,
        Pt=_uniform_shifted_Pt,
    ),
}

KERNEL_NAMES = tuple(_BUILTINS)


def get_kernel(name: str) -> KernelSpec:
    """Return a built-in kernel by name.

    Raises
    ------
    ValueError
        If ``name`` is not one of ``KERNEL_NAMES``.
    """
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; choose one of {', '.join(KERNEL_NAMES)}"
        ) from None


def from_density(
    kind: str,
    density: Callable[[np.ndarray], np.ndarray],
    absolute_mean_k: float,
    support: tuple[float, float] | None = None,
) -> KernelSpec:
    """Build a plug-in kernel from a user density.

    The density must integrate to one, vanish outside ``support`` = (a, b)
    when one is given, and have finite absolute mean ``absolute_mean_k``
    (supplied, not computed).  P and P_t go through adaptive quadrature,
    point by point, so plug-in kernels are much slower than the built-ins.
    """
    if absolute_mean_k <= 0:
        raise ValueError("absolute_mean_k must be positive")

    def by_quadrature(g):
        # (eps, t) -> the integral of g(eps, t, s) rho(s) over s <= t/eps
        def evaluate(eps, t):
            points = map(float, np.atleast_1d(np.asarray(t, dtype=float)))
            out = np.array([_quad_scalar(density, support, ti / eps, lambda s: g(eps, ti, s)) for ti in points])
            return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])

        return evaluate

    return KernelSpec(
        kind=kind,
        absolute_mean_k=float(absolute_mean_k),
        density=density,
        P=by_quadrature(lambda eps, t, s: t - eps * s),
        Pt=by_quadrature(lambda eps, t, s: 1.0),
    )


# ---------------------------------------------------------------------------
# Quadrature for plug-in kernels.
# ---------------------------------------------------------------------------

_TAIL_WINDOW = 20.0


def _quad_scalar(rho, support, upper: float, g: Callable[[float], float]) -> float:
    """The integral of g(s) rho(s) over s <= upper by adaptive quadrature.

    A full-line density is integrated over the window [-_TAIL_WINDOW,
    _TAIL_WINDOW] as it is, and over each tail beyond the window mapped by
    s = -1/u (below) or s = 1/u (above) onto a finite interval, so slowly
    decaying densities (anything with a finite absolute mean) integrate
    reliably however far ``upper`` lies outside the window.
    """
    integrand = lambda s: g(s) * rho(s)
    if support is not None:
        a, b = support
        hi = min(b, upper)
        if hi <= a:
            return 0.0
        return quad(integrand, a, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    window = _TAIL_WINDOW
    total = 0.0
    if upper > -window:
        total += quad(integrand, -window, min(upper, window), epsabs=1e-13, epsrel=1e-13, limit=300)[0]
    if upper > window:
        above = lambda u: g(1.0 / u) * rho(1.0 / u) / (u * u)
        total += quad(above, 1.0 / upper, 1.0 / window, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    below = lambda u: g(-1.0 / u) * rho(-1.0 / u) / (u * u)
    total += quad(below, 0.0, 1.0 / max(window, -upper), epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return total


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    return eps


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def plus_smooth(kernel: KernelSpec, eps: float, t) -> SmoothedEval:
    """Evaluate the smoothed plus function P and its derivatives at t.

    Parameters
    ----------
    kernel:
        Kernel specification (built-in or plug-in).
    eps:
        Smoothing parameter, strictly positive.
    t:
        Scalar or array of evaluation points.

    Returns
    -------
    SmoothedEval
        ``value`` approximates max(t, 0) within ``kernel.absolute_mean_k * eps``;
        ``first_derivative`` lies in [0, 1]; ``second_derivative`` is >= 0.
    """
    eps = _check_eps(eps)
    t = np.asarray(t, dtype=float) if np.ndim(t) else float(t)
    return SmoothedEval(
        value=kernel.P(eps, t),
        first_derivative=kernel.Pt(eps, t),
        second_derivative=kernel.density(t / eps) / eps,
    )


def modulus_smooth(kernel: KernelSpec, eps: float, t) -> SmoothedEval:
    """Evaluate the smoothed modulus M(eps, t) = P(eps, t) + P(eps, -t).

    The value approximates |t| within ``2 * kernel.absolute_mean_k * eps``; the
    first derivative M_t = P_t(t) - P_t(-t) lies in [-1, 1] and the second
    derivative is nonnegative.
    """
    eps = _check_eps(eps)
    t = np.asarray(t, dtype=float) if np.ndim(t) else float(t)
    return SmoothedEval(
        value=modulus_value(kernel, eps, t),
        first_derivative=kernel.Pt(eps, t) - kernel.Pt(eps, -t),
        second_derivative=kernel.density(t / eps) / eps + kernel.density(-t / eps) / eps,
    )


def modulus_value(kernel: KernelSpec, eps: float, t):
    """The value of :func:`modulus_smooth` alone: two evaluations of P
    instead of six, for energies that need no derivatives."""
    eps = _check_eps(eps)
    t = np.asarray(t, dtype=float) if np.ndim(t) else float(t)
    return kernel.P(eps, t) + kernel.P(eps, -t)
