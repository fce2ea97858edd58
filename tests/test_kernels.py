"""Smoothing-kernel unit tests: closed forms, derivatives, bounds."""
from __future__ import annotations

import numpy as np
import pytest

from vi_ident import (
    KERNEL_NAMES,
    from_density,
    get_kernel,
    modulus_smooth,
    plus_smooth,
)

from .helpers import (
    ABSOLUTE_MEANS,
    DENSITIES,
    convolution_plus,
    quadrature_absolute_mean,
)

EPS_SAMPLES = [1.0, 0.3, 1e-1, 1e-2]
T_SAMPLES = np.linspace(-2.5, 2.5, 21)


def test_kernel_names_cover_the_four_builtins():
    assert set(KERNEL_NAMES) == set(DENSITIES)


@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_closed_form_matches_convolution(name):
    kernel = get_kernel(name)
    density, support = DENSITIES[name]
    for eps in EPS_SAMPLES:
        for t in T_SAMPLES:
            ref = convolution_plus(density, eps, float(t), support)
            val = plus_smooth(kernel, eps, float(t)).value
            assert abs(val - ref) < 1e-10, (name, eps, t)


@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_absolute_mean_matches_quadrature(name):
    kernel = get_kernel(name)
    density, support = DENSITIES[name]
    assert abs(kernel.absolute_mean_k - ABSOLUTE_MEANS[name]) < 1e-12
    assert abs(quadrature_absolute_mean(density, support) - kernel.absolute_mean_k) < 1e-10


@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_plus_approximation_bound(name):
    # |P(eps,t) - max(t,0)| <= k*eps everywhere
    kernel = get_kernel(name)
    k = kernel.absolute_mean_k
    t = np.linspace(-10.0, 10.0, 401)
    for eps in EPS_SAMPLES:
        gap = np.abs(plus_smooth(kernel, eps, t).value - np.maximum(t, 0.0))
        assert gap.max() <= k * eps * (1.0 + 1e-12)


@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_modulus_approximation_bound(name):
    kernel = get_kernel(name)
    k = kernel.absolute_mean_k
    t = np.linspace(-10.0, 10.0, 401)
    for eps in EPS_SAMPLES:
        gap = np.abs(modulus_smooth(kernel, eps, t).value - np.abs(t))
        assert gap.max() <= 2.0 * k * eps * (1.0 + 1e-12)


@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_first_derivative_by_finite_differences(name):
    kernel = get_kernel(name)
    rng = np.random.default_rng(7)
    t = rng.uniform(-2.0, 2.0, size=40)
    h = 1e-6
    for eps in (0.5, 0.05):
        fd = (plus_smooth(kernel, eps, t + h).value - plus_smooth(kernel, eps, t - h).value) / (2 * h)
        assert np.allclose(plus_smooth(kernel, eps, t).first_derivative, fd, atol=5e-8)
        fd_m = (modulus_smooth(kernel, eps, t + h).value - modulus_smooth(kernel, eps, t - h).value) / (2 * h)
        assert np.allclose(modulus_smooth(kernel, eps, t).first_derivative, fd_m, atol=5e-8)


@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_second_derivative_is_density_rescaled(name):
    # P_tt(eps, t) = rho(t/eps)/eps wherever rho is continuous
    kernel = get_kernel(name)
    density, _ = DENSITIES[name]
    t = np.array([-1.3, -0.7, -0.2, 0.1, 0.3, 0.9, 1.7])
    for eps in (1.0, 0.25):
        expected = density(t / eps) / eps
        got = plus_smooth(kernel, eps, t).second_derivative
        mask = np.abs(expected) > 0  # skip points outside compact support
        assert np.allclose(got[mask], expected[mask], rtol=1e-12)


@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_derivative_ranges(name):
    kernel = get_kernel(name)
    t = np.linspace(-8.0, 8.0, 201)
    for eps in (1.0, 1e-3):
        p = plus_smooth(kernel, eps, t)
        m = modulus_smooth(kernel, eps, t)
        assert np.all(p.first_derivative >= -1e-15)
        assert np.all(p.first_derivative <= 1.0 + 1e-15)
        assert np.all(np.abs(m.first_derivative) <= 1.0 + 1e-15)
        assert np.all(p.second_derivative >= -1e-15)
        assert np.all(m.second_derivative >= -1e-15)


def test_modulus_is_even_for_symmetric_kernels():
    t = np.linspace(0.0, 3.0, 31)
    for name in ("sigmoid", "sqrt", "uniform_centered"):
        kernel = get_kernel(name)
        m_pos = modulus_smooth(kernel, 0.1, t).value
        m_neg = modulus_smooth(kernel, 0.1, -t).value
        assert np.allclose(m_pos, m_neg, atol=1e-14)


def test_limits_far_from_the_kink():
    # P ~ t - eps*mean(rho) for t >> eps and P ~ 0 for t << -eps
    first_moment = {"sigmoid": 0.0, "sqrt": 0.0, "uniform_centered": 0.0, "uniform_shifted": 0.5}
    for name in KERNEL_NAMES:
        kernel = get_kernel(name)
        asymptote = 50.0 - 1e-3 * first_moment[name]
        assert abs(plus_smooth(kernel, 1e-3, 50.0).value - asymptote) < 1e-6
        assert abs(plus_smooth(kernel, 1e-3, -50.0).value) < 1e-6


def test_scaling_in_eps():
    # P(eps, t) = eps * P(1, t/eps) by substitution in the defining integral
    for name in KERNEL_NAMES:
        kernel = get_kernel(name)
        for t in (-0.7, 0.0, 0.4):
            a = plus_smooth(kernel, 0.01, t).value
            b = 0.01 * plus_smooth(kernel, 1.0, t / 0.01).value
            assert abs(a - b) < 1e-12


def test_vectorized_shapes_and_scalars():
    kernel = get_kernel("sigmoid")
    out = plus_smooth(kernel, 0.1, np.zeros((3, 4)))
    assert out.value.shape == (3, 4)
    scalar = plus_smooth(kernel, 0.1, 0.0)
    assert np.ndim(scalar.value) == 0


def test_eps_must_be_positive():
    kernel = get_kernel("sqrt")
    with pytest.raises(ValueError):
        plus_smooth(kernel, 0.0, 1.0)
    with pytest.raises(ValueError):
        modulus_smooth(kernel, -1e-3, 1.0)


def test_unknown_kernel_name():
    with pytest.raises(ValueError):
        get_kernel("gaussian")


def test_from_density_quadrature_fallback():
    # a user-supplied kernel with no closed form: triangular on [-1, 1]
    density = lambda s: np.clip(1.0 - np.abs(s), 0.0, None)
    kernel = from_density("triangular", density, absolute_mean_k=1.0 / 3.0, support=(-1.0, 1.0))
    for eps in (0.5, 0.05):
        for t in (-0.8, -0.1, 0.0, 0.3, 1.2):
            ref = convolution_plus(density, eps, t, (-1.0, 1.0))
            assert abs(plus_smooth(kernel, eps, t).value - ref) < 1e-8
    # bound still holds with the user-declared constant
    t = np.linspace(-4, 4, 101)
    gap = np.abs(plus_smooth(kernel, 0.1, t).value - np.maximum(t, 0.0))
    assert gap.max() <= 0.1 / 3.0 + 1e-10


@pytest.mark.parametrize("name", ["sigmoid", "sqrt"])
def test_from_density_matches_the_full_line_closed_forms(name):
    # the same density through quadrature, including t/eps far outside the
    # quadrature window (up to 3e8)
    kernel = get_kernel(name)
    plug_in = from_density(name, kernel.density, kernel.absolute_mean_k)
    t = np.array([0.0, 1e-3, -1e-3, 0.5, -0.5, 3.0, -3.0])
    for eps in (1.0, 1e-1, 1e-2, 1e-4, 1e-6, 1e-8):
        closed, plugged = plus_smooth(kernel, eps, t), plus_smooth(plug_in, eps, t)
        assert np.max(np.abs(plugged.value - closed.value)) <= 1e-12, eps
        assert np.max(np.abs(plugged.first_derivative - closed.first_derivative)) <= 1e-12, eps
        assert np.array_equal(plugged.second_derivative, closed.second_derivative)
