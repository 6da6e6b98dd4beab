"""Special-function contracts.

Reference values frozen from an independent extended-precision
computation (mpmath at 40 digits), not from the implementation.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from zetatrap import specfun


# --- gamma ------------------------------------------------------------------


def test_gamma_trivial_values():
    assert specfun.gamma_real(1.0) == 1.0
    assert specfun.gamma_real(5.0) == 24.0
    assert abs(specfun.gamma_real(0.5) - math.sqrt(math.pi)) < 1e-14


def test_gamma_pole_rejected():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(specfun.PoleError):
            specfun.gamma_real(x)


def test_gamma_accuracy_range():
    for x in (-49.5, -10.25, -0.5, 0.1, 3.7, 25.0, 50.0):
        ref = float(mpmath.gamma(x))
        assert abs(specfun.gamma_real(x) - ref) <= 1e-13 * abs(ref)


# --- zeta, real argument ----------------------------------------------------

ZETA_REFERENCE = {
    2.0: 1.6449340668482264,
    0.5: -1.4603545088095868,
    0.0: -0.5,
    -1.0: -1.0 / 12.0,
    -0.5: -0.20788622497735457,
    -10.5: 0.011146122473942814,
    -49.5: -2.9849413203155724e23,
    30.0: 1.0000000009313274,
    -3.25: 0.006619476587222143,
}


def test_zeta_real_reference_values():
    for s, ref in ZETA_REFERENCE.items():
        assert abs(specfun.zeta_real(s) - ref) <= 1e-13 * max(abs(ref), 1.0)


def test_zeta_real_dense_accuracy():
    # trivial zeros excluded (relative error is meaningless there)
    for s in np.arange(-50.0, 50.0, 0.373):
        if abs(s - 1.0) < 0.2:
            continue
        ref = float(mpmath.zeta(s))
        if ref == 0.0:
            continue
        assert abs(specfun.zeta_real(float(s)) - ref) <= 1e-13 * abs(ref)


def test_zeta_pole():
    with pytest.raises(specfun.PoleError):
        specfun.zeta_real(1.0)
    with pytest.raises(specfun.PoleError):
        specfun.zeta_complex(1.0 + 0.0j)


def test_zeta_reflection_identity():
    # both sides computed independently through the public entry points
    for s in (-0.5, -2.5, -10.5):
        lhs = specfun.zeta_real(s)
        rhs = (
            2.0**s
            * math.pi ** (s - 1)
            * math.sin(math.pi * s / 2)
            * specfun.gamma_real(1 - s)
            * specfun.zeta_real(1 - s)
        )
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


# --- zeta, complex argument -------------------------------------------------


def test_zeta_complex_matches_real_axis():
    for s in (-30.0, -2.5, -0.3, 0.0, 2.0, 14.5):
        zr = specfun.zeta_real(s)
        zc = specfun.zeta_complex(complex(s, 0.0))
        assert abs(zc - zr) <= 1e-13 * max(abs(zr), 1.0)
        assert zc.imag == 0.0


def test_zeta_complex_strip_accuracy():
    for re in (-45.0, -20.25, -3.5, -0.5, 0.0, 1.5, 2.0):
        for im in (1e-9, 1e-6):
            s = complex(re, im)
            ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
            assert abs(specfun.zeta_complex(s) - ref) <= 1e-12 * abs(ref)


def test_zeta_complex_step_derivatives():
    delta = 1e-9
    d0 = specfun.zeta_complex(complex(0.0, delta)).imag / delta
    assert abs(d0 - (-0.918938533)) <= 1e-7
    d2 = specfun.zeta_complex(complex(-2.0, delta)).imag / delta
    assert abs(d2 - (-0.030448457)) <= 1e-7


# --- zeta derivative at negative even integers ------------------------------


def test_zeta_deriv_closed_forms():
    assert abs(specfun.zeta_deriv_neg_even(0) - (-0.9189385332046727)) <= 1e-13
    assert abs(specfun.zeta_deriv_neg_even(1) - (-0.03044845705839327)) <= 1e-13 * 0.031


def test_zeta_deriv_matches_mpmath():
    for k in (0, 1, 2, 5, 10, 20, 25):
        ref = float(mpmath.zeta(-2 * k, derivative=1))
        assert abs(specfun.zeta_deriv_neg_even(k) - ref) <= 1e-13 * abs(ref)


def test_zeta_deriv_route_consistency():
    # the op itself raises ConsistencyError if routes disagree beyond 1e-10;
    # calling for every k is the contract check
    for k in range(21):
        specfun.zeta_deriv_neg_even(k)


def test_zeta_deriv_domain():
    with pytest.raises(specfun.DomainError):
        specfun.zeta_deriv_neg_even(26)
    with pytest.raises(specfun.DomainError):
        specfun.zeta_deriv_neg_even(-1)


# --- Bessel / Hankel --------------------------------------------------------


def test_bessel_trivial():
    assert specfun.bessel_j(0, 0.0) == 1.0
    assert specfun.bessel_j(1, 0.0) == 0.0


def test_bessel_reference_values():
    assert abs(specfun.bessel_j(0, 1.0) - 0.7651976865579666) <= 1e-12
    assert abs(specfun.bessel_j(1, 2.7) - 0.4416013791182531) <= 1e-12
    assert abs(specfun.bessel_j(0, 6.25) - 0.21309005307666073) <= 1e-12


def test_bessel_real_input_is_real():
    for x in (0.1, 1.0, 17.3, 399.0):
        v = specfun.bessel_j(0, x)
        assert isinstance(v, float)


def test_bessel_domain():
    with pytest.raises(specfun.DomainError):
        specfun.bessel_j(0, 401.0)
    with pytest.raises(specfun.DomainError):
        specfun.bessel_j(2, 1.0)


def test_hankel_reference_values():
    ref = 0.7651976865579666 + 0.08825696421567696j
    assert abs(specfun.hankel1(0, 1.0) - ref) <= 1e-12 * abs(ref)
    ref = 0.21309005307666073 - 0.23693546237904966j
    assert abs(specfun.hankel1(0, 6.25) - ref) <= 1e-12 * abs(ref)
    ref = -0.22072087753923727 - 0.23258974169251221j
    assert abs(specfun.hankel1(1, 6.25) - ref) <= 1e-12 * abs(ref)


def test_hankel_decay_upper_half_plane():
    z = 10.0 + 10.0j
    ref = -7.852572202546007e-06 + 5.474632234776742e-06j
    v = specfun.hankel1(0, z)
    assert abs(v - ref) <= 1e-12 * abs(ref)
    assert abs(v) < 1e-4  # exponential decay for Im z > 0


def test_hankel_domain():
    with pytest.raises(specfun.DomainError):
        specfun.hankel1(0, 0.0)
    with pytest.raises(specfun.DomainError):
        specfun.hankel1(0, 1e-10)
    with pytest.raises(specfun.DomainError):
        specfun.hankel1(0, complex(-1.0, -1.0))


def test_bessel_wronskian():
    import scipy.special as sp

    for x in (0.5, 1.0, 5.0, 20.0):
        j0 = specfun.bessel_j(0, x)
        j1 = specfun.bessel_j(1, x)
        y0 = specfun.hankel1(0, x).imag
        y1 = specfun.hankel1(1, x).imag
        lhs = j1 * y0 - j0 * y1
        ref = 2.0 / (math.pi * x)
        assert abs(lhs - ref) <= 1e-12 * abs(ref)
    del sp


def test_hankel_derivative_identity():
    # d/dz H0(z) = -H1(z), central differences at 12 sample points
    hstep = 1e-6
    pts = [0.3 + 0.05 * i + (0.1j if i % 2 else 0.0) for i in range(12)]
    for z in pts:
        d = (specfun.hankel1(0, z + hstep) - specfun.hankel1(0, z - hstep)) / (
            2 * hstep
        )
        assert abs(d + specfun.hankel1(1, z)) <= 1e-6


def test_smooth_split_limit():
    # s_kappa(r) + (1/2pi) log(r) J0(kappa r) -> c_gamma / (2 pi) as r -> 0
    kappa = 12.5
    c_gamma = 0.5j * math.pi - (cmath.log(kappa / 2) + specfun.EULER_GAMMA)
    vals = []
    for r in (1e-3, 1e-4, 1e-5):
        s = 0.25j * specfun.hankel1(0, kappa * r)
        vals.append(s + math.log(r) * specfun.bessel_j(0, kappa * r) / (2 * math.pi))
    # Richardson in r^2 log r is overkill; the r=1e-5 value is already close
    assert abs(vals[-1] - c_gamma / (2 * math.pi)) <= 1e-8


# --- array routes -----------------------------------------------------------


def test_array_real_route_matches_complex_route():
    import scipy.special as sp

    x = np.logspace(-2, math.log10(40.0), 2001)
    for order in (0, 1):
        h = specfun.hankel1_array(order, x)
        ref = sp.hankel1(order, x.astype(complex))
        assert np.max(np.abs(h - ref) / np.abs(ref)) <= 4.5e-15
        j = specfun.bessel_j_array(order, x)
        assert np.max(np.abs(j - sp.jv(order, x.astype(complex)))) <= 7.4e-16


def test_array_real_route_accuracy_to_400():
    # Above 40 the real routines lose digits slowly (the complex route
    # stays within 1e-15 of mpmath here); the docstring states the bound.
    x = np.logspace(math.log10(40.0), math.log10(400.0), 60)
    for order in (0, 1):
        h = specfun.hankel1_array(order, x)
        ref = np.array([complex(mpmath.hankel1(order, float(t))) for t in x])
        assert np.max(np.abs(h - ref) / np.abs(ref)) <= 4e-14


def test_array_dtype_follows_argument():
    x = np.array([0.5, 3.0, 17.0])
    for order in (0, 1):
        assert specfun.bessel_j_array(order, x).dtype == np.float64
        assert specfun.hankel1_array(order, x).dtype == np.complex128
        z = x + 0.5j
        assert specfun.bessel_j_array(order, z).dtype == np.complex128
        assert specfun.hankel1_array(order, z).dtype == np.complex128
