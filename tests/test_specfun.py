"""Special-function contracts.

Reference values frozen from an independent extended-precision
computation (mpmath at 40 digits), not from the implementation. The
Bessel and Hankel checks run on both routes of the array functions: a
float64 argument takes scipy's real j0/j1/y0/y1, a complex128 argument
the complex jv/hankel1.
"""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from zetatrap import specfun
from zetatrap.zetaweights import _zeta_prime_neg_even_mp


ROUTES = (np.float64, np.complex128)  # the real route, the complex route


# --- zeta'(-2k), the moments of the log stencils ---------------------------


def test_zeta_deriv_closed_forms():
    assert abs(float(_zeta_prime_neg_even_mp(0)) - (-0.9189385332046727)) <= 1e-13
    assert (
        abs(float(_zeta_prime_neg_even_mp(1)) - (-0.03044845705839327))
        <= 1e-13 * 0.031
    )


def test_zeta_deriv_matches_mpmath():
    with mpmath.workdps(60):
        for k in (0, 1, 2, 5, 10, 20, 25):
            ref = mpmath.zeta(-2 * k, derivative=1)
            assert abs(_zeta_prime_neg_even_mp(k) - ref) <= 1e-50 * abs(ref)


def test_zeta_deriv_route_consistency():
    # the closed form against a second route, a complex step through
    # mpmath's zeta, for every k the stencils use; the step's error is
    # O(delta^2), far below the 1e-10 agreement asked for
    with mpmath.workdps(40):
        delta = mpmath.mpf(10) ** -15
        for k in range(21):
            closed = _zeta_prime_neg_even_mp(k)
            step = mpmath.zeta(mpmath.mpc(-2 * k, delta)).imag / delta
            assert abs(step - closed) <= 1e-10 * abs(closed)


# --- Bessel / Hankel, on both routes ----------------------------------------


def test_bessel_trivial():
    for route in ROUTES:
        zero = np.zeros(1, dtype=route)
        assert specfun.bessel_j_array(0, zero)[0] == 1.0
        assert specfun.bessel_j_array(1, zero)[0] == 0.0


def test_bessel_reference_values():
    x = np.array([1.0, 2.7, 6.25])
    for route in ROUTES:
        j0 = specfun.bessel_j_array(0, x.astype(route))
        j1 = specfun.bessel_j_array(1, x.astype(route))
        assert abs(j0[0] - 0.7651976865579666) <= 1e-12
        assert abs(j1[1] - 0.4416013791182531) <= 1e-12
        assert abs(j0[2] - 0.21309005307666073) <= 1e-12


def test_bessel_real_input_is_real():
    x = np.array([0.1, 1.0, 17.3, 399.0])
    for order in (0, 1):
        v = specfun.bessel_j_array(order, x)
        assert v.dtype == np.float64
        ref = specfun.bessel_j_array(order, x.astype(complex))
        assert np.max(np.abs(v - ref)) <= 1e-15


def test_hankel_reference_values():
    x = np.array([1.0, 6.25])
    for route in ROUTES:
        h0 = specfun.hankel1_array(0, x.astype(route))
        h1 = specfun.hankel1_array(1, x.astype(route))
        for h, ref in (
            (h0[0], 0.7651976865579666 + 0.08825696421567696j),
            (h0[1], 0.21309005307666073 - 0.23693546237904966j),
            (h1[1], -0.22072087753923727 - 0.23258974169251221j),
        ):
            assert abs(h - ref) <= 1e-12 * abs(ref)


def test_hankel_decay_upper_half_plane():
    z = np.array([10.0 + 10.0j])
    ref = -7.852572202546007e-06 + 5.474632234776742e-06j
    pair = specfun.Hankel01(1 + 1j)(np.array([10.0]))  # z = 10 + 10i, the table
    for v in (specfun.hankel1_array(0, z), pair[0]):
        assert abs(v[0] - ref) <= 1e-12 * abs(ref)
        assert abs(v[0]) < 1e-4  # exponential decay for Im z > 0


def test_bessel_wronskian():
    x = np.array([0.5, 1.0, 5.0, 20.0])
    ref = 2.0 / (math.pi * x)
    for route in ROUTES:
        z = x.astype(route)
        j0, j1 = specfun.bessel_j_array(0, z), specfun.bessel_j_array(1, z)
        y0, y1 = specfun.hankel1_array(0, z).imag, specfun.hankel1_array(1, z).imag
        assert np.max(np.abs(j1 * y0 - j0 * y1 - ref) / ref) <= 1e-12


def test_hankel_derivative_identity():
    # d/dz H0(z) = -H1(z), central differences at 12 sample points: the
    # real ones on both routes, the complex ones on the complex route
    hstep = 1e-6
    base = 0.3 + 0.05 * np.arange(12)
    for z in (base[::2], base[::2] + 0j, base[1::2] + 0.1j):
        h0 = specfun.hankel1_array
        d = (h0(0, z + hstep) - h0(0, z - hstep)) / (2 * hstep)
        assert np.max(np.abs(d + specfun.hankel1_array(1, z))) <= 1e-6


def test_smooth_split_limit():
    # s_kappa(r) + (1/2pi) log(r) J0(kappa r) -> c_gamma / (2 pi) as r -> 0
    kappa = 12.5
    c_gamma = 0.5j * math.pi - (cmath.log(kappa / 2) + specfun.EULER_GAMMA)
    r = np.array([1e-3, 1e-4, 1e-5])
    for route in ROUTES:
        z = (kappa * r).astype(route)
        s = 0.25j * specfun.hankel1_array(0, z)
        vals = s + np.log(r) * specfun.bessel_j_array(0, z) / (2 * math.pi)
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


# --- H0 and H1 together -----------------------------------------------------


def _mp_hankel1(order, z):
    """mpmath H^(1) with 60 correct digits. J and Y grow like e^(Im z)
    where H decays like e^(-Im z), so J + iY cancels 2 Im z / ln 10
    digits: the working precision adds them."""
    digits = 60 + math.ceil(2 * z.imag / math.log(10))
    with mpmath.workdps(digits):
        return complex(mpmath.hankel1(order, mpmath.mpc(z.real, z.imag)))


def _worst_against_mpmath(kappa, r, pair):
    """Largest relative error of ``pair`` = (H0, H1) against mpmath at
    z = kappa * r as numpy rounds it, the argument Hankel01 documents."""
    z = (kappa * np.asarray(r)).ravel()
    worst = 0.0
    for order, h in enumerate(pair):
        ref = np.array([_mp_hankel1(order, t) for t in z])
        worst = max(worst, float(np.max(np.abs(np.ravel(h) - ref) / np.abs(ref))))
    return worst


def _scipy_points(monkeypatch):
    """Record the points every later hankel1_array call receives."""
    seen = []
    hankel1 = specfun.hankel1_array

    def recorded(order, z):
        seen.append(np.asarray(z).ravel())
        return hankel1(order, z)

    monkeypatch.setattr(specfun, "hankel1_array", recorded)
    return seen


RAYS = (1e-3, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2 - 1e-3)


def test_hankel01_expansion_matches_mpmath(monkeypatch):
    assert specfun.HANKEL_ASYMPTOTIC_MIN_ABS == 20.0
    assert specfun.HANKEL_ASYMPTOTIC_TERMS == 20
    assert specfun.HANKEL_ASYMPTOTIC_DEGREE == 10
    # |z| in [20, 60] on rays with arg z in [0, pi/2], points just above
    # |z| = 20, and |z| = 20 on three rays
    rays = [(a, np.linspace(20, 60, 4)) for a in np.linspace(0, math.pi / 2, 4)]
    rays += [(a, [20 + 1e-13]) for a in np.linspace(0, math.pi / 2, 7)[1:-1]]
    rays += [(0.0, [20.0]), (math.atan2(16, 12), [20.0]), (math.atan2(12, 16), [20.0])]
    pairs = [specfun.Hankel01(complex(math.cos(a), math.sin(a))) for a, _ in rays]

    def refuse(order, z):
        raise AssertionError("a point in the expansion's region reached scipy")

    monkeypatch.setattr(specfun, "hankel1_array", refuse)
    for pair, (_, r) in zip(pairs, rays):
        assert _worst_against_mpmath(pair.kappa, r, pair(np.array(r))) <= 2e-15


def _mp_hankel1_via_k(order, z):
    """H^(1)_nu(z) = (2/pi) i^(-nu-1) K_nu(-iz) (DLMF 10.27.8) at 40
    digits. K at Re(-iz) = Im z >= 0 cancels nothing, so no digits are
    added for Im z: mpmath's hankel1 needs about 670 at Im z = 700, and
    half a minute a point."""
    with mpmath.workdps(40):
        w = mpmath.mpc(z.imag, -z.real)  # -iz
        return complex(2 / mpmath.pi * (1j) ** (-order - 1) * mpmath.besselk(order, w))


def test_hankel01_expansion_at_large_argument(monkeypatch):
    # a shallow ray out to |z| = 1e6, past which Re z leaves the range of
    # the e^{i theta} table (points on both sides of that bound), and a
    # steep ray up to Im z = 700 (past it, test_hankel01_expansion_past_imag_700)
    shallow = 16 + 1e-3j
    edge = specfun._CIS_MAX_ABS / shallow.real  # Re(shallow * edge) = the bound
    steep = cmath.exp(1j * (math.pi / 2 - 1e-3))
    rays = [
        (shallow, np.logspace(2, 6, 13) / abs(shallow)),
        (shallow, edge * np.array([1 - 1e-13, 1, 1 + 1e-13, 1.5])),
        (steep, np.linspace(20, 700, 9) / steep.imag),
    ]
    # the reference against mpmath's hankel1 where that is cheap
    for z in (shallow * 100 / abs(shallow), steep * 40):
        for order in (0, 1):
            ref = _mp_hankel1(order, z)
            assert abs(_mp_hankel1_via_k(order, z) - ref) <= 1e-30 * abs(ref)

    pairs = [specfun.Hankel01(kappa) for kappa, _ in rays]

    def refuse(order, z):
        raise AssertionError("a point in the expansion's region reached scipy")

    monkeypatch.setattr(specfun, "hankel1_array", refuse)
    for evaluate, (kappa, r) in zip(pairs, rays):
        pair = evaluate(r)
        z = kappa * r
        for order, h in enumerate(pair):
            ref = np.array([_mp_hankel1_via_k(order, t) for t in z])
            assert np.max(np.abs(h - ref) / np.abs(ref)) <= 2e-15


def test_economization_matrix_and_tail():
    # each row is the interpolant of s^k at the Chebyshev points of [0, 1],
    # against a Vandermonde solve in mpmath; dropping the series' terms
    # past the degree that way moves it by at most 1.5e-17 of a_0 on [0, 1]
    M = specfun._economization()
    n = specfun.HANKEL_ASYMPTOTIC_DEGREE + 1
    assert M.shape == (specfun.HANKEL_ASYMPTOTIC_TERMS, n)
    assert not M.flags.writeable
    with mpmath.workdps(50):
        angles = [(2 * j + 1) * mpmath.pi / (2 * n) for j in range(n)]
        nodes = [(1 + mpmath.cos(a)) / 2 for a in angles]
        V = mpmath.matrix([[x**m for m in range(n)] for x in nodes])
        for k, row in enumerate(M):
            ref = mpmath.lu_solve(V, mpmath.matrix([x**k for x in nodes]))
            ref = np.array([float(c) for c in ref])
            # the solve leaves about 1e-49 where the row is 0
            assert np.all(np.abs(row - ref) <= np.spacing(np.abs(ref)) + 1e-40)
    s = np.linspace(0, 1, 20001)
    powers = s[:, None] ** np.arange(specfun.HANKEL_ASYMPTOTIC_TERMS)
    dropped = np.max(np.abs(powers - powers[:, :n] @ M.T), axis=0)
    for nu in (0, 1):
        a = specfun._HANKEL_A[nu]
        k = np.arange(a.size)
        tail = np.sum(np.abs(a) * 20.0**-k * dropped)
        assert tail <= 1.5e-17 * abs(a[0])


def test_hankel01_builds_without_mpmath_at_a_new_kappa(monkeypatch):
    # the tables every kappa shares are made once, on first use; a kernel
    # is built every round at its own kappa, and no mpmath runs then
    r = np.linspace(0.05, 4.0, 400)
    specfun.Hankel01(12.5 + 10j)(r)

    def refuse(*args, **kwargs):
        raise AssertionError("mpmath ran")

    monkeypatch.setattr(mpmath, "MPContext", refuse)
    h0, h1 = specfun.Hankel01(7.25 + 3.5j)(r)  # all three routes
    assert np.all(np.isfinite(h0)) and np.all(np.isfinite(h1))


# --- e^{i theta} from a table ------------------------------------------------


def test_cis_table_is_correctly_rounded():
    table, parts = specfun._cis_table()
    steps = specfun._CIS_STEPS
    assert table.shape == (steps,) and not table.flags.writeable
    # each entry on its own, not by the octant symmetries the table uses
    with mpmath.workdps(60):
        for k, t in enumerate(table):
            x = mpmath.mpf(2 * k) / steps
            assert t.real == float(mpmath.cospi(x))
            assert t.imag == float(mpmath.sinpi(x))
        step = 2 * mpmath.pi / steps
        assert abs(sum(mpmath.mpf(p) for p in parts) - step) <= step * 2.0**-100
    for p in parts[:2]:  # few bits, so that k p is exact
        assert math.frexp(p)[0] * 2**specfun._CIS_SPLIT_BITS % 1 == 0


def test_cis_matches_mpmath():
    # random phases up to the bound, the midpoints between two table
    # points, where the reduction moves to the next point, with their
    # neighbours, and points at the bound; and their negatives
    bound, steps = specfun._CIS_MAX_ABS, specfun._CIS_STEPS
    rng = np.random.default_rng(5)
    middles = (rng.integers(0, bound * steps / (2 * math.pi), 100) + 0.5) * (
        2 * math.pi / steps
    )
    theta = np.concatenate(
        [
            rng.uniform(0, bound, 300),
            rng.uniform(0, 100, 100),
            np.nextafter(middles, 0),
            middles,
            np.nextafter(middles, math.inf),
            [0.0, 1e-300, np.nextafter(bound, 0), bound],
        ]
    )
    theta = np.concatenate([theta, -theta])
    out = specfun._cis(theta)
    with mpmath.workdps(40):
        cos = np.array([float(mpmath.cos(mpmath.mpf(t))) for t in theta])
        sin = np.array([float(mpmath.sin(mpmath.mpf(t))) for t in theta])
    assert np.max(np.abs(out.real - cos)) <= 2.5e-16
    assert np.max(np.abs(out.imag - sin)) <= 2.5e-16


def test_cis_outside_the_bound_is_numpys():
    # past the bound and at inf and NaN, numpy's cos and sin bit for bit,
    # with their warnings and none more (converting inf to an index warns)
    bound = specfun._CIS_MAX_ABS
    far = np.array([np.nextafter(bound, math.inf), 2 * bound, 1e10, 1e300])
    theta = np.concatenate([far, -far, [math.inf, -math.inf, math.nan, 1.0, -bound]])
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        out = specfun._cis(theta)
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        cos, sin = np.cos(theta), np.sin(theta)
    assert [(w.category, str(w.message)) for w in got] == [
        (w.category, str(w.message)) for w in want
    ]
    outside = slice(0, -2)
    assert np.array_equal(out.real[outside].view(np.int64), cos[outside].view(np.int64))
    assert np.array_equal(out.imag[outside].view(np.int64), sin[outside].view(np.int64))
    assert specfun._cis(np.array([])).shape == (0,)


def test_hankel01_table_constants_and_build():
    assert specfun.HANKEL_TABLE_MIN_ABS == 2.0
    assert specfun.HANKEL_TABLE_PANELS == 8
    assert specfun.HANKEL_TABLE_DEGREE == 12
    # the table is built from one scipy call per order at the panel nodes
    sizes = []
    hankel1 = specfun.hankel1_array

    def counted(order, z):
        sizes.append(np.size(z))
        return hankel1(order, z)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specfun, "hankel1_array", counted)
        specfun.Hankel01(12.5 + 10j)
        specfun.Hankel01(12.5)  # the real route builds nothing
    assert sizes == [8 * 13, 8 * 13]


@pytest.mark.parametrize("arg", RAYS)
def test_hankel01_table_matches_mpmath(arg, monkeypatch):
    # the whole table range of one ray: every panel edge and both cutoffs
    # approached from each side, and each panel's middle, so the
    # scipy/table and table/expansion seams are covered
    kappa = 16.0 * complex(math.cos(arg), math.sin(arg))
    pair = specfun.Hankel01(kappa)
    lo, hi = specfun.HANKEL_TABLE_MIN_ABS, specfun.HANKEL_ASYMPTOTIC_MIN_ABS
    halves = 2 * specfun.HANKEL_TABLE_PANELS
    steps = np.arange(halves + 1) / halves
    modulus = lo * (hi / lo) ** steps  # edges at even steps, middles at odd
    edges = modulus[::2]
    r = np.concatenate([edges * (1 - 1e-13), modulus, edges * (1 + 1e-13)]) / abs(kappa)
    seen = _scipy_points(monkeypatch)
    h = pair(r)
    below = np.abs(kappa * r) < lo * (1 - 1e-14)
    assert below.sum() == 1
    assert np.array_equal(np.concatenate(seen), np.tile(kappa * r[below], 2))
    # scipy itself is off by up to 2.9e-15 just below |z| = 2, so the
    # points below the table are held to being scipy's values
    assert _worst_against_mpmath(kappa, r[~below], [v[~below] for v in h]) <= 2e-15


def test_hankel01_elsewhere_is_hankel1_array(monkeypatch):
    # a float kappa (the real route), Re kappa <= 0 and Im kappa < 0
    # never reach the table or the expansion: each gives hankel1_array's
    # values at kappa * r bit for bit
    def refuse(*args):
        raise AssertionError("table or expansion reached")

    x = np.linspace(0.5, 80.0, 41)
    for kappa, r in (
        (1.0, x),
        (-1.0 + 0j, x),
        (-1.0 + 0.0625j, x),
        (1j, x),
        (1.0 - 0.0125j, x),
    ):
        pair = specfun.Hankel01(kappa)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pair, "_expansion", refuse)
            patch.setattr(pair, "_table", refuse)
            h0, h1 = pair(r)
        z = kappa * r
        np.testing.assert_array_equal(h0, specfun.hankel1_array(0, z))
        np.testing.assert_array_equal(h1, specfun.hankel1_array(1, z))


def test_hankel01_expansion_past_imag_700(monkeypatch):
    # the expansion serves every |z| >= 20: past Im z = 700 both orders
    # are finite, at most e^{-700}, with no warning, and no point reaches
    # scipy, whose complex hankel1 gives -0j or NaN out there. Where a
    # value is still a normal float it holds the bound below 700 against
    # mpmath; they are subnormal from Im z of about 708 and 0 from 745
    pairs = [specfun.Hankel01(k) for k in (1.0 + 10.0j, 1e-3 + 1j, 16 + 1e-3j)]

    def refuse(order, z):
        raise AssertionError("a point past Im z = 700 reached scipy")

    monkeypatch.setattr(specfun, "hankel1_array", refuse)
    normal = 0
    for pair in pairs:
        kappa = pair.kappa
        r = np.linspace(700, 800, 41)[1:] / kappa.imag
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h0, h1 = pair(r)
        for order, h in enumerate((h0, h1)):
            assert np.isfinite(h).all()
            assert np.all(np.abs(h) <= math.exp(-700))
            at = np.abs(h) >= np.finfo(float).tiny
            ref = np.array([_mp_hankel1_via_k(order, z) for z in kappa * r[at]])
            assert np.all(np.abs(h[at] - ref) <= 2e-15 * np.abs(ref))
            normal += at.sum()
        assert np.all(h0[r * kappa.imag > 746] == 0)
    assert normal > 0


def test_hankel01_mixed_points_keep_their_place():
    import scipy.special as sp

    # the three routes of kappa = 12.5 + 10i in one (3, 20) array: scipy
    # below |z| = 2 (bit for bit), the table up to 20, the expansion beyond
    kappa = 12.5 + 10j
    r = np.linspace(0.05, 3.4, 60).reshape(3, 20)
    z = kappa * r
    below = np.abs(z) < specfun.HANKEL_TABLE_MIN_ABS
    table = ~below & (np.abs(z) < specfun.HANKEL_ASYMPTOTIC_MIN_ABS)
    assert below.any() and table.any() and not (below | table).all()
    pair = specfun.Hankel01(kappa)(r)
    for order, h in enumerate(pair):
        ref = sp.hankel1(order, z)
        assert h.shape == z.shape
        np.testing.assert_array_equal(h[below], ref[below])
        assert np.max(np.abs(h - ref) / np.abs(ref)) <= 4e-15
    assert _worst_against_mpmath(kappa, r[table], [h[table] for h in pair]) <= 2e-15
