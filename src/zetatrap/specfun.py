"""Bessel and Hankel functions of orders 0 and 1 over arrays.

These are the special functions the kernels evaluate. Each array form
chooses its routine from the argument's dtype: a real array goes to
scipy's real ``j0/j1/y0/y1``, several times cheaper than the complex
``jv`` and ``hankel1`` that a complex array goes to.

:class:`Hankel01` gives H0(kappa r) and H1(kappa r) together, for one
wavenumber kappa at an array of distances r > 0. A float kappa takes the
real route, :func:`hankel1_array` at the real kappa r. The points of a
complex kappa all lie on the ray arg z = arg kappa; with Re kappa > 0
and Im kappa >= 0, each takes one of three routes, chosen by
|z| = |kappa| r:

- |z| < 2: scipy's complex ``hankel1`` through :func:`hankel1_array`,
  once per order. Against mpmath it is within 1.3e-15 relative over
  [0.1, 2), and up to 2.9e-15 just below 2 near arg z = pi/2.
- 2 <= |z| < 20: a table of the ray, built with the object from 208
  scipy values (about 0.2 ms). On 8 panels of equal width in log|z| it
  holds a degree-12 polynomial of g_nu = H_nu(z) e^{-iz} sqrt(r),
  interpolated at 13 Chebyshev points; H_nu is that polynomial times
  e^{iz}/sqrt(r). Against mpmath it is within 1.4e-15 relative.
- |z| >= 20: Hankel's asymptotic expansion (DLMF 10.17.5). Its 20
  terms per order are a polynomial in s = 20/|z|, in (0, 1] there,
  evaluated as its economization to degree 10: 11 Horner steps in s,
  times the same e^{iz}/sqrt(r). Against mpmath it is within 5.9e-16
  relative over |z| in [20, 60], and within 4.4e-16 out to |z| = 1e6
  and up to Im z = 700. Past that both orders are below e^{-700}:
  subnormal from Im z of about 708, and 0 from 745, where e^{-Im z}
  underflows. scipy's complex ``hankel1`` gives -0j or NaN out there.

The accuracy figures are over arg z in [0, pi/2], against mpmath at 60
digits or more. Both of the last two routes form e^{iz}/sqrt(r) from
real functions of Re z and Im z, rounded as numpy rounds kappa * r, so
every route sees the argument scipy would. e^{i Re z} comes from
:func:`_cis`, an exact reduction to a table of 4096 points of the unit
circle and two short Taylor polynomials, not from numpy's float64
``cos`` and ``sin``: on the benchmark machine (perfbench/README.md)
they have no vector loop and take about 30 ns a point each, against
1.3 to 1.9 for ``exp``, ``log`` and ``sqrt``. There, on the points of
a decaying-wave round, the table and the expansion take about 95 and
50 ns per point for both orders, of which about 18 is e^{iz}/sqrt(r)
(with ``cos`` and ``sin`` and the 20-term expansion: 100, 80 and 29),
against about 940 ns for two scipy calls (650 ns each below |z| = 2).
scipy's complex ``jv`` takes about 600 ns a point. Any other complex
kappa sends every point to scipy.

All functions here are pure and safe to call concurrently; a
:class:`Hankel01` is not changed after it is built.
"""

from __future__ import annotations

import cmath
import fractions
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
    """Vectorized Bessel J, orders 0 and 1, for hot paths (no domain checks).

    A real array goes to scipy's real ``j0``/``j1`` and returns a real
    array; a complex array goes to ``jv``.
    """
    z = np.asarray(z)
    if np.iscomplexobj(z):
        return _sp.jv(order, z)
    return _REAL_J[order](z)


def hankel1_array(order: int, z: np.ndarray) -> np.ndarray:
    """Vectorized Hankel H^(1), orders 0 and 1, for hot paths (no domain checks).

    A real array must be positive: it goes to scipy's real routines as
    H = J + iY (Y is NaN for a negative and -inf at 0). They agree with
    the complex route to about 4e-15 relative up to 40 and to about
    3e-14 at 400. A complex array goes to ``hankel1`` on the principal
    branch.
    """
    z = np.asarray(z)
    if np.iscomplexobj(z):
        return _sp.hankel1(order, z)
    out = np.empty(z.shape, dtype=complex)
    _REAL_J[order](z, out=out.real)
    _REAL_Y[order](z, out=out.imag)
    return out


# Hankel's expansion of H^(1)_nu for large |z|, nu = 0 and 1:
#   H_nu(z) ~ sqrt(2/(pi z)) e^{i(z - nu pi/2 - pi/4)} sum_k a_k(nu) (i/z)^k.
# Twenty terms reach double precision from |z| = 20 on: the first term
# left out is 3.5e-16 (H0) and 3.7e-16 (H1) at z = 20. In s = 20/|z|,
# which is in (0, 1] there, the twenty terms are a polynomial of degree
# 19; it is evaluated as its economization to HANKEL_ASYMPTOTIC_DEGREE,
# which moves it by at most 1.5e-17 of its leading term (the Chebyshev
# tail). The tests pin the three constants against mpmath.
HANKEL_ASYMPTOTIC_MIN_ABS = 20.0
HANKEL_ASYMPTOTIC_TERMS = 20
HANKEL_ASYMPTOTIC_DEGREE = 10

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


_HANKEL_A = np.array([_hankel_coefficients(0), _hankel_coefficients(1)])


@functools.cache
def _economization() -> np.ndarray:
    """The (HANKEL_ASYMPTOTIC_TERMS, HANKEL_ASYMPTOTIC_DEGREE + 1) matrix
    whose row k holds the monomial coefficients of the polynomial that
    interpolates s^k at the HANKEL_ASYMPTOTIC_DEGREE + 1 Chebyshev points
    of the first kind on [0, 1].

    That polynomial is s^k mod l(s), where l is the monic polynomial
    with those roots, T_{n+1}(2s - 1) / 2^{2n+1} for n the degree. The
    rows are computed exactly in rational arithmetic, then rounded. Made
    on first use, not at import; the array is read-only.
    """
    n = HANKEL_ASYMPTOTIC_DEGREE
    # T_m(2s - 1), low to high: T_{m+1} = (4s - 2) T_m - T_{m-1}
    prev, cheb = [1], [-1, 2]
    for _ in range(n):
        step = [0] + [4 * c for c in cheb]
        for j, c in enumerate(cheb):
            step[j] -= 2 * c
        for j, c in enumerate(prev):
            step[j] -= c
        prev, cheb = cheb, step
    monic = [fractions.Fraction(c, cheb[-1]) for c in cheb]
    rows = []
    for k in range(HANKEL_ASYMPTOTIC_TERMS):
        if k <= n:
            p = [fractions.Fraction(j == k) for j in range(n + 1)]
        else:
            # s p - (its leading coefficient) l
            shifted = [0, *p]
            p = [a - shifted[-1] * c for a, c in zip(shifted, monic)][:-1]
        rows.append(p)
    out = np.array([[float(c) for c in row] for row in rows])
    out.setflags(write=False)
    return out


# e^{-i pi/4} and e^{-3i pi/4}, folded into the expansion's coefficients:
# rounding z - pi/4 inside the exponent would cost about |z| eps of phase.
_HANKEL_PHASE = np.array(
    [
        complex(math.sqrt(0.5), -math.sqrt(0.5)),
        complex(-math.sqrt(0.5), -math.sqrt(0.5)),
    ]
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

# e^{i theta} is reduced to a table of _CIS_STEPS points of the circle:
# theta = k 2 pi/_CIS_STEPS + y with |y| <= pi/_CIS_STEPS (Cody-Waite).
# The step is split into three floats, the first two of _CIS_SPLIT_BITS
# significant bits, so that k times either is exact while
# |k| < 2^(53 - 22) = 2^31, and y is then off by about ulp(y), not
# ulp(theta). |theta| <= _CIS_MAX_ABS keeps |k| below 2^30.
_CIS_STEPS = 4096
_CIS_SPLIT_BITS = 22
_CIS_MAX_ABS = 2.0**20


@functools.cache
def _cis_table():
    """e^{2 pi i k/_CIS_STEPS} for k < _CIS_STEPS, each part correctly
    rounded, and the step 2 pi/_CIS_STEPS as three floats whose sum is
    the step to 100 bits or more.

    The table comes from 513 values of mpmath on the first octant: the
    circle's symmetries only exchange and negate them. Made on first use,
    not at import; the table is read-only.
    """
    ctx = mpmath.MPContext()
    ctx.dps = 40
    octant = _CIS_STEPS // 8
    turn = ctx.mpf(_CIS_STEPS // 2)  # e^{i pi k/turn} = e^{2 pi i k/_CIS_STEPS}
    values = [ctx.expjpi(k / turn) for k in range(octant + 1)]
    cos = np.array([float(v.real) for v in values])
    sin = np.array([float(v.imag) for v in values])
    # the first quadrant, k < 2 octants: cos(pi/2 - x) = sin x
    quarter = np.empty(2 * octant, dtype=complex)
    quarter.real = np.concatenate([cos, sin[-2:0:-1]])
    quarter.imag = np.concatenate([sin, cos[-2:0:-1]])
    # the others by products with i, -1 and -i, which are exact
    table = np.concatenate([quarter * 1j**q for q in range(4)])
    table.setflags(write=False)
    step = 2 * ctx.pi / _CIS_STEPS
    parts = []
    for bits in (_CIS_SPLIT_BITS, _CIS_SPLIT_BITS, 53):
        mantissa, exponent = ctx.frexp(step)
        part = float(ctx.ldexp(ctx.nint(ctx.ldexp(mantissa, bits)), exponent - bits))
        parts.append(part)
        step -= part
    return table, tuple(parts)


def _cis(theta: np.ndarray) -> np.ndarray:
    """e^{i theta} = cos(theta) + i sin(theta) for a real 1-D array.

    For |theta| <= _CIS_MAX_ABS, the reduction to the table of
    :func:`_cis_table`, then t + t w with t the table's value and
    w = (cos y - 1) + i sin y from their Taylor polynomials, whose error
    at |y| <= pi/_CIS_STEPS is below 3e-18. Against mpmath it is within
    2.5e-16 in each part. Elsewhere, and at inf and NaN, the parts are
    numpy's ``cos`` and ``sin``: k times the step's parts stops being
    exact there.
    """
    table, (step_hi, step_mid, step_lo) = _cis_table()
    given, outside = theta, None
    if theta.size and not (
        -_CIS_MAX_ABS <= theta.min() and theta.max() <= _CIS_MAX_ABS
    ):
        outside = ~(np.abs(theta) <= _CIS_MAX_ABS)  # NaN too
        theta = np.where(outside, 0.0, theta)
    k = theta * (_CIS_STEPS / (2 * math.pi))
    np.rint(k, out=k)
    y = k * step_hi
    np.subtract(theta, y, out=y)
    part = k * step_mid
    y -= part
    np.multiply(k, step_lo, out=part)
    y -= part
    index = k.astype(np.intp)
    index &= _CIS_STEPS - 1
    out = table.take(index)
    y2 = np.multiply(y, y, out=part)
    w = np.empty(theta.shape, dtype=complex)
    cos_m1, sin = w.real, w.imag
    np.multiply(y2, 1 / 24, out=cos_m1)
    cos_m1 -= 0.5
    cos_m1 *= y2
    np.multiply(y2, -1 / 6, out=sin)
    sin *= y
    sin += y
    w *= out
    out += w
    if outside is not None:
        out.real[outside] = np.cos(given[outside])
        out.imag[outside] = np.sin(given[outside])
    return out


class Hankel01:
    """H0(kappa r) and H1(kappa r) of the first kind at an array of r > 0.

    A float ``kappa`` takes the real route: both orders come from
    :func:`hankel1_array` at the real kappa r. A complex ``kappa`` with
    Re kappa > 0 and Im kappa >= 0 routes each point once, by its r:
    |kappa| r < 2 to :func:`hankel1_array`, 2 <= |kappa| r < 20 to the
    table of this ray, built here from :func:`hankel1_array` at its
    nodes, and |kappa| r >= 20 to Hankel's expansion. Any other complex kappa
    sends every point to :func:`hankel1_array`. The argument is always
    z = kappa * r as numpy rounds it. The table and the expansion both
    end in a product with e^{iz}/sqrt(r), whose e^{i Re z} is
    :func:`_cis`. See the module docstring for the accuracy and the cost
    of each route.
    """

    def __init__(self, kappa: complex | float):
        self.kappa = kappa
        # r where the table starts and where the expansion starts; None:
        # every point goes to scipy
        self._bounds = None
        if not isinstance(kappa, complex) or kappa.real <= 0 or kappa.imag < 0:
            return
        scale = abs(kappa)
        self._bounds = (HANKEL_TABLE_MIN_ABS / scale, HANKEL_ASYMPTOTIC_MIN_ABS / scale)
        # Both routes give H_nu as e^{iz}/sqrt(r) times a slowly varying
        # factor. Hankel's expansion, sqrt(2/(pi z)) e^{iz} e^{-i(nu pi/2 +
        # pi/4)} sum_k a_k(nu) (i/z)^k, is e^{iz}/sqrt(r) sum_k C_k(nu) (i/z)^k
        # with C_k(nu) = sqrt(2/(pi kappa)) e^{-i(nu pi/2 + pi/4)} a_k(nu).
        # With s = r_mid/r, r_mid = 20/|kappa|, i/z is omega s for
        # omega = i |kappa|/(20 kappa): a polynomial in s, economized.
        lead = cmath.sqrt(2 / (math.pi * kappa))
        omega = 1j * scale / (HANKEL_ASYMPTOTIC_MIN_ABS * kappa)
        far = lead * _HANKEL_PHASE[:, None] * _HANKEL_A
        far *= omega ** np.arange(HANKEL_ASYMPTOTIC_TERMS)
        # (degree + 1, order, 1): one (2, 1) slice per Horner step
        self._far = (far @ _economization()).T[:, :, None].copy()
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
        lo, mid = self._bounds
        table = (r >= lo) & (r < mid)
        far = r >= mid
        scipy = ~(table | far)  # NaN too
        routes = ((scipy, self._scipy), (table, self._table), (far, self._expansion))
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
        # s = r_mid/r in (0, 1]; complex: a complex by complex product is
        # the faster loop
        s = (self._bounds[1] / r).astype(complex)
        coeffs = self._far
        out = np.empty((2, r.size), dtype=complex)
        out[:] = coeffs[-1]
        for c in coeffs[-2::-1]:
            out *= s
            out += c
        out *= self._wave(r)
        return out

    def _wave(self, r: np.ndarray) -> np.ndarray:
        """e^{iz}/sqrt(r) from real functions of r. Re z and Im z are
        Re(kappa) r and Im(kappa) r rounded, as in numpy's kappa * r."""
        out = _cis(self.kappa.real * r)
        amplitude = np.exp(-(self.kappa.imag * r))
        amplitude /= np.sqrt(r)
        out *= amplitude
        return out
