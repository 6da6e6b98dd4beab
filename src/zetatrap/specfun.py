"""Special functions used throughout the package.

Riemann zeta for real and complex argument, zeta derivatives at the
negative even integers, the real gamma function, and Bessel/Hankel
functions J0, J1, H0, H1. The array forms used in assembly choose their
routine from the argument's dtype: a real array goes to scipy's real
``j0/j1/y0/y1``, several times cheaper than the complex ``jv`` and
``hankel1`` that a complex array goes to.

Complex scalars are plain Python ``complex``; all functions here are pure
and safe to call concurrently.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import special as _sp

EULER_GAMMA = 0.5772156649015329

__all__ = [
    "EULER_GAMMA",
    "SpecFunError",
    "PoleError",
    "DomainError",
    "ConsistencyError",
    "gamma_real",
    "zeta_real",
    "zeta_complex",
    "zeta_deriv_neg_even",
    "bessel_j",
    "hankel1",
]


class SpecFunError(ValueError):
    """Base class for special-function evaluation errors."""


class PoleError(SpecFunError):
    """Argument coincides with a pole of the function."""


class DomainError(SpecFunError):
    """Argument outside the supported domain."""


class ConsistencyError(SpecFunError):
    """Two independent evaluation routes disagree beyond tolerance."""


def gamma_real(x: float) -> float:
    """Gamma function for real x away from the nonpositive integers."""
    if x <= 0 and x == math.floor(x):
        raise PoleError(f"gamma pole at x={x}")
    return math.gamma(x)


# B_{2j} / (2j)! for j = 1..15, from the exact Bernoulli numbers.
_B2J_OVER_FACT = (
    1 / 6 / math.factorial(2),
    -1 / 30 / math.factorial(4),
    1 / 42 / math.factorial(6),
    -1 / 30 / math.factorial(8),
    5 / 66 / math.factorial(10),
    -691 / 2730 / math.factorial(12),
    7 / 6 / math.factorial(14),
    -3617 / 510 / math.factorial(16),
    43867 / 798 / math.factorial(18),
    -174611 / 330 / math.factorial(20),
    854513 / 138 / math.factorial(22),
    -236364091 / 2730 / math.factorial(24),
    8553103 / 6 / math.factorial(26),
    -23749461029 / 870 / math.factorial(28),
    8615841276005 / 14322 / math.factorial(30),
)

_EM_CUTOFF = 24  # direct-sum length in the Euler-Maclaurin tail formula


def _zeta_em(s):
    """Euler-Maclaurin evaluation of zeta, valid for Re s >= -0.25, s != 1.

    Works for float or complex s; complex arithmetic is kept free of
    real/imaginary mixing so that complex-step differentiation through
    this routine is accurate.
    """
    N = _EM_CUTOFF
    out = 0.0 if isinstance(s, float) else 0.0 + 0.0j
    for n in range(1, N):
        out += n ** (-s)
    out += N ** (1 - s) / (s - 1)
    out += 0.5 * N ** (-s)
    # Correction terms B_{2j}/(2j)! * (s)(s+1)...(s+2j-2) * N^{1-s-2j}
    rising = s  # product of (s+i), i = 0..2j-2
    npow = N ** (-s - 1.0)  # N^{1-s-2j} for current j
    inv_n2 = 1.0 / (N * N)
    for j, coeff in enumerate(_B2J_OVER_FACT, start=1):
        if j > 1:
            rising = rising * (s + (2 * j - 3)) * (s + (2 * j - 2))
            npow = npow * inv_n2
        out += coeff * rising * npow
    return out


def _sinpi_real(x: float) -> float:
    n = round(x)
    return (-1.0) ** (n % 2) * math.sin(math.pi * (x - n))


def _sinpi_complex(z: complex) -> complex:
    n = round(z.real)
    return (-1.0) ** (n % 2) * cmath.sin(cmath.pi * (z - n))


# Lanczos approximation, g = 7, 9 terms.
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _gamma_complex(z: complex) -> complex:
    """Lanczos gamma for Re z > 0."""
    z = z - 1
    x = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        x += c / (z + i)
    t = z + 7.5
    return math.sqrt(2 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


def zeta_real(s: float) -> float:
    """Riemann zeta for real s != 1.

    Euler-Maclaurin accelerated summation for s >= -0.25, the reflection
    formula zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
    otherwise.
    """
    s = float(s)
    if s == 1.0:
        raise PoleError("zeta has a pole at s=1")
    if s >= -0.25:
        return _zeta_em(s)
    return (
        2.0**s
        * math.pi ** (s - 1)
        * _sinpi_real(s / 2)
        * math.gamma(1 - s)
        * _zeta_em(1 - s)
    )


def zeta_complex(s: complex) -> complex:
    """Riemann zeta for complex s != 1.

    Accurate in a strip around the real axis (the complex-step use case);
    agrees with ``zeta_real`` on the real axis.
    """
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta has a pole at s=1")
    if s.real >= -0.25:
        return _zeta_em(s)
    return (
        2.0**s
        * cmath.pi ** (s - 1)
        * _sinpi_complex(s / 2)
        * _gamma_complex(1 - s)
        * _zeta_em(1 - s)
    )


_MACHINE_DELTA = 2.0**-53


def zeta_deriv_neg_even(k: int, delta: float = _MACHINE_DELTA) -> float:
    """zeta'(-2k) for integer 0 <= k <= 25.

    Evaluated by the closed form (k=0: -log(2 pi)/2; k>=1:
    (-1)^k (2k)! zeta(2k+1) / (2 (2 pi)^(2k))) and cross-checked against
    complex-step differentiation Im(zeta(-2k + i*delta))/delta. The two
    routes must agree to 1e-10 relative.
    """
    if k < 0 or k != int(k):
        raise DomainError("k must be a nonnegative integer")
    k = int(k)
    if k > 25:
        raise DomainError("k > 25 not supported")
    if k == 0:
        closed = -0.5 * math.log(2 * math.pi)
    else:
        closed = (
            (-1.0) ** (k % 2)
            * math.factorial(2 * k)
            * zeta_real(2 * k + 1)
            / (2 * (2 * math.pi) ** (2 * k))
        )
    step = zeta_complex(complex(-2 * k, delta)).imag / delta
    if abs(step - closed) > 1e-10 * abs(closed):
        raise ConsistencyError(
            f"zeta'(-2k) routes disagree at k={k}: closed={closed!r} step={step!r}"
        )
    return closed


_BESSEL_MAX_ABS = 400.0


def bessel_j(order: int, z):
    """Bessel J of order 0 or 1; complex argument with Re z >= 0, |z| <= 400.

    Real input returns a real result.
    """
    if order not in (0, 1):
        raise DomainError("only orders 0 and 1 are supported")
    zc = complex(z)
    if abs(zc) > _BESSEL_MAX_ABS or zc.real < -1e-12:
        raise DomainError(f"argument {z} outside supported domain")
    if zc.imag == 0.0 and not isinstance(z, complex):
        return float(_sp.j0(zc.real) if order == 0 else _sp.j1(zc.real))
    return complex(_sp.jv(order, zc))


def hankel1(order: int, z) -> complex:
    """Hankel function H^(1) of order 0 or 1 on the principal branch.

    Requires 1e-8 <= |z| <= 400 and (Im z >= 0 or Re z > 0).
    """
    if order not in (0, 1):
        raise DomainError("only orders 0 and 1 are supported")
    zc = complex(z)
    az = abs(zc)
    if az == 0.0:
        raise DomainError("hankel1 is singular at z=0")
    if az < 1e-8 or az > _BESSEL_MAX_ABS:
        raise DomainError(f"|z|={az} outside supported range")
    if zc.imag < 0 and zc.real <= 0:
        raise DomainError("lower-left half plane not supported")
    return complex(_sp.hankel1(order, zc))


_REAL_J = {0: _sp.j0, 1: _sp.j1}
_REAL_Y = {0: _sp.y0, 1: _sp.y1}


def bessel_j_array(order: int, z: np.ndarray) -> np.ndarray:
    """Vectorized Bessel J for assembly hot paths (no domain checks).

    A real array of order 0 or 1 goes to scipy's real ``j0``/``j1`` and
    returns a real array; a complex array goes to ``jv``.
    """
    z = np.asarray(z)
    if np.iscomplexobj(z) or order not in _REAL_J:
        return _sp.jv(order, z)
    return _REAL_J[order](z)


def hankel1_array(order: int, z: np.ndarray) -> np.ndarray:
    """Vectorized Hankel H^(1) for assembly hot paths (no domain checks).

    A real array of order 0 or 1 must be positive: it goes to scipy's real
    routines as H = J + iY (Y is NaN for a negative and -inf at 0). They
    agree with the complex route to about 4e-15 relative up to 40 and to
    about 3e-14 at 400. A complex array goes to ``hankel1`` on the
    principal branch.
    """
    z = np.asarray(z)
    if np.iscomplexobj(z) or order not in _REAL_J:
        return _sp.hankel1(order, z)
    out = np.empty(z.shape, dtype=complex)
    _REAL_J[order](z, out=out.real)
    _REAL_Y[order](z, out=out.imag)
    return out
