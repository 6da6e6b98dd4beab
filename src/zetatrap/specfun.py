"""Bessel and Hankel functions of orders 0 and 1 over arrays.

These are the special functions the kernels evaluate. Each array form
chooses its routine from the argument's dtype: a real array goes to
scipy's real ``j0/j1/y0/y1``, several times cheaper than the complex
``jv`` and ``hankel1`` that a complex array goes to.

``hankel01_array`` gives H0 and H1 at the same points together. Where z
is complex with Re z > 0, 0 <= Im z <= 700 and |z| >= 20 it sums
Hankel's asymptotic expansion (DLMF 10.17.5), 20 terms per order under
one shared prefactor. Against mpmath at 60 digits or more, over
|z| in [20, 60] and arg z in [0, pi/2], it is within 6.2e-16 relative,
and on a million points it takes about a quarter of the time of two
scipy ``hankel1`` calls. Every other point, and every point of a real
array, goes to ``hankel1_array``, once per order.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

EULER_GAMMA = 0.5772156649015329

__all__ = [
    "EULER_GAMMA",
    "bessel_j_array",
    "hankel1_array",
    "hankel01_array",
]


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


# Hankel's expansion of H^(1)_nu for large |z|, nu = 0 and 1:
#   H_nu(z) ~ sqrt(2/(pi z)) e^{i(z - nu pi/2 - pi/4)} sum_k a_k(nu) (i/z)^k.
# Twenty terms reach double precision from |z| = 20 on: the first term
# left out is 3.5e-16 (H0) and 3.7e-16 (H1) at z = 20. The tests pin
# both constants against mpmath.
HANKEL_ASYMPTOTIC_MIN_ABS = 20.0
HANKEL_ASYMPTOTIC_TERMS = 20
# Up to here e^{iz}, and the result, stay normal floats.
_ASYMPTOTIC_MAX_IMAG = 700.0
# Points per Horner pass: the pass's arrays then stay in cache.
_ASYMPTOTIC_CHUNK = 16384


def _hankel_coefficients(nu: int) -> tuple[float, ...]:
    """a_k(nu) = prod_{j=1..k} (4 nu^2 - (2j-1)^2) / (k! 8^k), correctly
    rounded (Python's int / int is)."""
    num, den, out = 1, 1, []
    for k in range(HANKEL_ASYMPTOTIC_TERMS):
        out.append(num / den)
        num *= 4 * nu * nu - (2 * k + 1) ** 2
        den *= 8 * (k + 1)
    return tuple(out)


_HANKEL_A = (_hankel_coefficients(0), _hankel_coefficients(1))
# e^{-i pi/4} and e^{-3i pi/4}, applied after exp(iz): rounding z - pi/4
# inside the exponent would cost about |z| eps of phase.
_HANKEL_PHASE = (
    complex(math.sqrt(0.5), -math.sqrt(0.5)),
    complex(-math.sqrt(0.5), -math.sqrt(0.5)),
)


def _hankel01_asymptotic(z: np.ndarray, h0: np.ndarray, h1: np.ndarray):
    """Fill the 1-D arrays ``h0``, ``h1`` with Hankel's expansion at ``z``."""
    for start in range(0, len(z), _ASYMPTOTIC_CHUNK):
        part = slice(start, start + _ASYMPTOTIC_CHUNK)
        zc = z[part]
        u = 1j / zc
        prefactor = np.sqrt(2 / (math.pi * zc))
        prefactor *= np.exp(1j * zc)
        for a, phase, out in zip(_HANKEL_A, _HANKEL_PHASE, (h0[part], h1[part])):
            out[:] = a[-1]
            for coeff in a[-2::-1]:
                out *= u
                out += coeff
            out *= prefactor
            out *= phase


def hankel01_array(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H0, H1) of the first kind at the same points (no domain checks).

    A complex point with Re z > 0, 0 <= Im z <= 700 and |z| >= 20 takes
    Hankel's expansion (see the module docstring). Every other point,
    and every point of a real array, goes to :func:`hankel1_array`, once
    per order.
    """
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        return hankel1_array(0, z), hankel1_array(1, z)
    far = (
        (z.real > 0)
        & (z.imag >= 0)
        & (z.imag <= _ASYMPTOTIC_MAX_IMAG)
        & (np.abs(z) >= HANKEL_ASYMPTOTIC_MIN_ABS)
    )
    if not far.any():
        return hankel1_array(0, z), hankel1_array(1, z)
    h0 = np.empty(z.shape, dtype=complex)
    h1 = np.empty(z.shape, dtype=complex)
    near = ~far
    if near.any():
        z_near = z[near]
        h0[near] = hankel1_array(0, z_near)
        h1[near] = hankel1_array(1, z_near)
    far_h0 = np.empty(np.count_nonzero(far), dtype=complex)
    far_h1 = np.empty_like(far_h0)
    _hankel01_asymptotic(z[far], far_h0, far_h1)
    h0[far], h1[far] = far_h0, far_h1
    return h0, h1
