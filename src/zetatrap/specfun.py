"""Bessel and Hankel functions of orders 0 and 1 over arrays.

These are the special functions the kernels evaluate. Each array form
chooses its routine from the argument's dtype: a real array goes to
scipy's real ``j0/j1/y0/y1``, several times cheaper than the complex
``jv`` and ``hankel1`` that a complex array goes to.

:class:`Hankel01` gives H0(kappa r) and H1(kappa r) together, for one
wavenumber kappa at an array of distances r > 0. A float kappa takes the
real route, :func:`hankel1_array` at the real kappa r. The points of a
complex kappa all lie on the ray arg z = arg kappa; with Re kappa > 0
and Im kappa >= 0, each takes one of four routes, chosen by
|z| = |kappa| r and Im z:

- |z| < 2: scipy's complex ``hankel1`` through :func:`hankel1_array`,
  once per order. Against mpmath it is within 1.3e-15 relative over
  [0.1, 2), and up to 2.9e-15 just below 2 near arg z = pi/2.
- 2 <= |z| < 20: a table of the ray, built with the object from 208
  scipy values (about 0.2 ms). On 8 panels of equal width in log|z| it
  holds a degree-12 polynomial of g_nu = H_nu(z) e^{-iz} sqrt(r),
  interpolated at 13 Chebyshev points; H_nu is that polynomial times
  e^{iz}/sqrt(r). Against mpmath it is within 1.4e-15 relative.
- |z| >= 20, up to Im z = 700: Hankel's asymptotic expansion (DLMF
  10.17.5), 20 terms per order in i/z, times the same e^{iz}/sqrt(r).
  Against mpmath it is within 5.9e-16 relative over |z| in [20, 60].
- Im z > 700: 0 for both orders, whose size is below e^{-700} there.
  scipy's complex ``hankel1`` gives -0j from |z| of about 80 to 1e10
  and NaN from about 1e100, so no point past 700 goes to it.

The accuracy figures are over arg z in [0, pi/2], against mpmath at 60
digits or more. Both of the last two routes form e^{iz}/sqrt(r) from
real functions of Re z and Im z, rounded as numpy rounds kappa * r, so
every route sees the argument scipy would. On the benchmark machine
(perfbench/README.md) the table and the expansion take about 150 and
120 ns per point for both orders, against about 940 ns for two scipy
calls (650 ns each below |z| = 2). About 60 ns of a table or expansion
point is e^{iz}: numpy's float64 ``cos`` and ``sin`` have no vector
loop there (about 29 ns each, against 1.3 to 1.9 for ``exp``, ``log``
and ``sqrt``). scipy's complex ``jv`` takes about 600 ns a point. Any
other complex kappa sends every point to scipy.

All functions here are pure and safe to call concurrently; a
:class:`Hankel01` is not changed after it is built.
"""

from __future__ import annotations

import cmath
import functools
import math

import mpmath
import numpy as np
from scipy import special as _sp

EULER_GAMMA = 0.5772156649015329

__all__ = [
    "EULER_GAMMA",
    "Hankel01",
    "bessel_j_array",
    "hankel1_array",
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
# Up to here e^{iz}, and the result, stay normal floats; beyond, |H0|
# and |H1| are below e^{-700} and taken as 0.
_ASYMPTOTIC_MAX_IMAG = 700.0

# The table of one ray: HANKEL_TABLE_PANELS panels of equal width in
# log|z| from HANKEL_TABLE_MIN_ABS to HANKEL_ASYMPTOTIC_MIN_ABS, each a
# polynomial of HANKEL_TABLE_DEGREE in a variable t in [-1, 1] linear in
# log|z|. g_nu(z) = H_nu(z) e^{-iz} sqrt(z) is analytic off z = 0 and of
# moderate size for -pi < arg z < 2pi, so g_nu(e^w) is an entire function
# of w = log z, and panels of equal width in w converge alike. The tests
# pin the three constants against mpmath.
HANKEL_TABLE_MIN_ABS = 2.0
HANKEL_TABLE_PANELS = 8
HANKEL_TABLE_DEGREE = 12
# Points per routing pass: the largest temporary, (H0, H1) of one
# route, is 512 KB, and the per-call cost of numpy is spread over many
# points (4096 took 15 % longer per decaying-wave round).
_CHUNK = 16384


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
# e^{-i pi/4} and e^{-3i pi/4}, folded into the expansion's coefficients:
# rounding z - pi/4 inside the exponent would cost about |z| eps of phase.
_HANKEL_PHASE = (
    complex(math.sqrt(0.5), -math.sqrt(0.5)),
    complex(-math.sqrt(0.5), -math.sqrt(0.5)),
)


@functools.cache
def _chebyshev_matrices(n: int):
    """The n Chebyshev points of the first kind on [-1, 1]; the matrix
    taking values there to Chebyshev coefficients; and the one taking
    Chebyshev coefficients to monomial ones. Kept apart: their product
    has entries near (1 + sqrt 2)^n and would round the values away.

    cos(j theta_k) is taken correctly rounded from mpmath, in a context
    of its own: numpy's cos of the rounded j theta_k is off by up to
    j |theta_k| eps, which costs 1.5e-15 of a table's values at its own
    nodes. Made on first use, not at import; the arrays are read-only.
    """
    ctx = mpmath.MPContext()
    ctx.dps = 30
    # cos(pi m/(2n)) for m mod 4n, the only values needed
    cos = np.array([float(ctx.cospi(ctx.mpf(m) / (2 * n))) for m in range(4 * n)])
    j, k = np.ogrid[:n, :n]
    to_chebyshev = (2 / n) * cos[j * (2 * k + 1) % (4 * n)]
    to_chebyshev[0] /= 2
    # T_0 = 1, T_1 = t, T_j = 2t T_{j-1} - T_{j-2}: integers, exact
    to_monomial = np.eye(n)
    for j in range(2, n):
        to_monomial[:, j] = -to_monomial[:, j - 2]
        to_monomial[1:, j] += 2 * to_monomial[:-1, j - 1]
    out = cos[2 * np.arange(n) + 1], to_chebyshev, to_monomial
    for a in out:
        a.setflags(write=False)
    return out


_TABLE_PANEL = (
    math.log(HANKEL_ASYMPTOTIC_MIN_ABS / HANKEL_TABLE_MIN_ABS) / HANKEL_TABLE_PANELS
)


class Hankel01:
    """H0(kappa r) and H1(kappa r) of the first kind at an array of r > 0.

    A float ``kappa`` takes the real route: both orders come from
    :func:`hankel1_array` at the real kappa r. A complex ``kappa`` with
    Re kappa > 0 and Im kappa >= 0 routes each point once, by its r:
    |kappa| r < 2 to :func:`hankel1_array`, 2 <= |kappa| r < 20 to the
    table of this ray, built here from :func:`hankel1_array` at its
    nodes, and |kappa| r >= 20 to Hankel's expansion, up to
    Im(kappa) r = 700; beyond, both orders are 0. Any other complex kappa
    sends every point to :func:`hankel1_array`. The argument is always
    z = kappa * r as numpy rounds it. See the module docstring for the
    accuracy of each route.
    """

    def __init__(self, kappa: complex | float):
        self.kappa = kappa
        # r where the table starts, where the expansion starts and where
        # it ends, past which both orders are 0; None: every point goes
        # to scipy
        self._bounds = None
        if not isinstance(kappa, complex) or kappa.real <= 0 or kappa.imag < 0:
            return
        scale = abs(kappa)
        self._bounds = (
            HANKEL_TABLE_MIN_ABS / scale,
            HANKEL_ASYMPTOTIC_MIN_ABS / scale,
            _ASYMPTOTIC_MAX_IMAG / kappa.imag if kappa.imag > 0 else math.inf,
        )
        # Both routes give H_nu as e^{iz}/sqrt(r) times a slowly varying
        # factor. Hankel's expansion, sqrt(2/(pi z)) e^{iz} e^{-i(nu pi/2 +
        # pi/4)} sum_k a_k(nu) (i/z)^k, is e^{iz}/sqrt(r) sum_k C_k(nu) (i/z)^k
        # with C_k(nu) = sqrt(2/(pi kappa)) e^{-i(nu pi/2 + pi/4)} a_k(nu).
        lead = cmath.sqrt(2 / (math.pi * kappa))
        self._far = [
            [lead * phase * c for c in a] for a, phase in zip(_HANKEL_A, _HANKEL_PHASE)
        ]
        self._i_over_kappa = 1j / kappa
        # The table: panel p spans log|z| = log(scale r) in
        # log(MIN_ABS) + PANEL [p, p + 1].
        self._s0 = math.log(HANKEL_TABLE_MIN_ABS / scale) / _TABLE_PANEL
        nodes, to_chebyshev, to_monomial = _chebyshev_matrices(HANKEL_TABLE_DEGREE + 1)
        r = np.exp(
            _TABLE_PANEL * (np.arange(HANKEL_TABLE_PANELS)[:, None] + (nodes + 1) / 2)
        ) * (HANKEL_TABLE_MIN_ABS / scale)
        z, wave = kappa * r, self._wave(r)
        g = np.stack([hankel1_array(nu, z) / wave for nu in (0, 1)])
        values = g.transpose(2, 0, 1).reshape(nodes.size, -1)
        coeffs = to_monomial @ (to_chebyshev @ values)
        # (degree + 1, order, panel): one (2, panels) slice per Horner step
        self._coeffs = coeffs.reshape(nodes.size, 2, HANKEL_TABLE_PANELS)

    def __call__(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(H0, H1) at kappa * r, each shaped like ``r``."""
        r = np.asarray(r, dtype=float)
        if self._bounds is None:
            return self._scipy(r)
        h = np.empty((2,) + r.shape, dtype=complex)
        flat, out = r.reshape(-1), h.reshape(2, -1)
        for start in range(0, flat.size, _CHUNK):
            part = slice(start, start + _CHUNK)
            self._fill(flat[part], out[:, part])
        return h[0], h[1]

    def _fill(self, r: np.ndarray, out: np.ndarray):
        """Route each point of the 1-D ``r`` once and write (H0, H1) to ``out``."""
        lo, mid, hi = self._bounds
        table = (r >= lo) & (r < mid)
        far = (r >= mid) & (r <= hi)
        beyond = r > hi
        scipy = ~(table | far | beyond)
        routes = (
            (scipy, self._scipy),
            (table, self._table),
            (far, self._expansion),
            (beyond, lambda r: (0, 0)),
        )
        for mask, evaluate in routes:
            at = mask.nonzero()[0]
            if at.size:
                h0, h1 = evaluate(r[at])
                out[0][at] = h0
                out[1][at] = h1

    def _scipy(self, r: np.ndarray):
        z = self.kappa * r
        return hankel1_array(0, z), hankel1_array(1, z)

    def _table(self, r: np.ndarray) -> np.ndarray:
        s = np.log(r)
        s *= 1 / _TABLE_PANEL
        s -= self._s0
        panel = s.astype(np.intp)
        np.minimum(panel, HANKEL_TABLE_PANELS - 1, out=panel)
        # complex t: a complex by complex product is the faster loop
        t = (s - panel).astype(complex)
        t *= 2
        t -= 1
        coeffs = self._coeffs
        out = coeffs[-1].take(panel, axis=1)
        for c in coeffs[-2::-1]:
            out *= t
            out += c.take(panel, axis=1)
        out *= self._wave(r)
        return out

    def _expansion(self, r: np.ndarray) -> np.ndarray:
        u = 1 / r  # then i/z by a product: cheaper than a complex division
        u = u * self._i_over_kappa
        wave = self._wave(r)
        out = np.empty((2, r.size), dtype=complex)
        for c, h in zip(self._far, out):
            h[:] = c[-1]
            for coeff in c[-2::-1]:
                h *= u
                h += coeff
            h *= wave
        return out

    def _wave(self, r: np.ndarray) -> np.ndarray:
        """e^{iz}/sqrt(r) from real functions of r. Re z and Im z are
        Re(kappa) r and Im(kappa) r rounded, as in numpy's kappa * r."""
        phase = self.kappa.real * r
        amplitude = np.exp(-(self.kappa.imag * r))
        amplitude /= np.sqrt(r)
        out = np.empty(r.shape, dtype=complex)
        np.multiply(amplitude, np.cos(phase), out=out.real)
        np.multiply(amplitude, np.sin(phase), out=out.imag)
        return out
