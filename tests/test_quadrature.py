"""Corrected-rule and Kress-baseline operator contracts."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from zetatrap import kernels
from zetatrap import quadrature as quad
from zetatrap.geometry import circle_curve, sample, star_curve
from zetatrap.kernels import helmholtz_constants
from zetatrap.zetaweights import build_log_stencil, build_pow_stencil

STAR = star_curve(1.0, 0.3, 5)


def _grid(curve, N):
    return quad.make_grid(curve.period, N)


def test_make_grid_and_ptr():
    g = quad.make_grid(2 * math.pi, 32)
    assert g.h == 2 * math.pi / 32
    assert len(g.nodes) == 32
    # PTR is exact for low trigonometric modes
    vals = np.cos(3 * g.nodes) ** 2
    assert abs(quad.ptr(vals, g.h) - math.pi) <= 1e-13
    with pytest.raises(quad.GridError):
        quad.make_grid(2 * math.pi, 8)


def test_stencil_grid_compatibility():
    g = quad.make_grid(2 * math.pi, 16)
    with pytest.raises(quad.GridError):
        quad.laplace_slp_matrix(circle_curve(1.0), g, build_log_stencil(8))
    with pytest.raises(quad.GridError):
        quad.laplace_slp_matrix(circle_curve(1.0), g, build_pow_stencil(2, 0.5))


def test_laplace_circle_exactness():
    # SLP of the unit density on a circle of radius R is -2 pi R log R
    for R, ref in ((1.0, 0.0), (2.0, -4 * math.pi * math.log(2.0))):
        curve = circle_curve(R)
        g = _grid(curve, 128)
        A = quad.laplace_slp_matrix(curve, g, build_log_stencil(2))
        vals = A @ np.ones(g.N)
        assert np.max(np.abs(vals - ref)) <= 1e-10


def test_laplace_circle_harmonic_modes():
    # SLP of cos(n theta) on the unit circle is (pi/n) cos(n theta)
    curve = circle_curve(1.0)
    g = _grid(curve, 128)
    A = quad.laplace_slp_matrix(curve, g, build_log_stencil(4))
    for n in (1, 2, 5):
        vals = A @ np.cos(n * g.nodes)
        assert np.max(np.abs(vals - (math.pi / n) * np.cos(n * g.nodes))) <= 1e-10


# Largest relative error of cos(ms) over (m/N)^(2K+3), for m <= N/8 at
# N = 64, 128, 256 and 512 where the error exceeds 1e-13 (the ratio depends
# on m/N alone): 57.5, 2.73e3 and 1.24e6 for K = 2, 4 and 7, at m/N of
# 1/128, 0.041 and 0.086. C_K doubles them.
CIRCLE_MODE_CONSTANT = {2: 120.0, 4: 5.5e3, 7: 2.5e6}
# Roundoff of A @ cos(ms) over rho: at most 4.2e-15 measured on that table.
CIRCLE_MODE_FLOOR = 2e-14


@settings(max_examples=40, deadline=None)
@given(
    rho=hst.floats(0.5, 2.0),
    N=hst.integers(64, 512),
    K=hst.sampled_from(sorted(CIRCLE_MODE_CONSTANT)),
    data=hst.data(),
)
def test_laplace_circle_property(rho, N, K, data):
    # on a circle of radius rho the corrected Laplace single layer maps 1 to
    # -2 pi rho log rho to roundoff, and cos(ms) to (pi rho/m) cos(mt) with
    # the error of the zeta expansion's leading term, (m/N)^(2K+3)
    curve = circle_curve(rho)
    g = _grid(curve, N)
    A = quad.laplace_slp_matrix(curve, g, build_log_stencil(K))
    ref = -2 * math.pi * rho * math.log(rho)
    assert np.abs(A @ np.ones(N) - ref).max() <= 1e-14 * 2 * math.pi * rho
    m = data.draw(hst.integers(1, N // 8), label="m")
    exact = math.pi * rho / m
    err = np.abs(A @ np.cos(m * g.nodes) - exact * np.cos(m * g.nodes)).max()
    bound = exact * CIRCLE_MODE_CONSTANT[K] * (m / N) ** (2 * K + 3)
    assert err <= bound + CIRCLE_MODE_FLOOR * rho


def test_band_locality():
    # off the correction band a row of the corrected matrix is the plain PTR row
    K = 3
    g = _grid(STAR, 64)
    data = sample(STAR, g.nodes)
    A = quad.laplace_slp_matrix(STAR, g, build_log_stencil(K))
    for m in (0, 10, 63):
        r = kernels.pairs(data.pos[m], data.pos).r_safe
        plain = -np.log(r) * data.speed * g.h
        band = {(m + j) % g.N for j in range(-K, K + 1)}
        for n in range(g.N):
            if n not in band:
                assert A[m, n] == plain[n]


@settings(max_examples=25, deadline=None)
@given(
    base=hst.floats(0.5, 2.0),
    amp_frac=hst.floats(0.0, 0.9),
    lobes=hst.integers(0, 7),
    K=hst.integers(0, 7),
    N=hst.integers(quad.MIN_NODES, 96),  # 2K+1 < N for every K <= 7
    slab=hst.integers(1, 40),
)
def test_corrected_matrix_is_ptr_plus_band(base, amp_frac, lobes, K, N, slab):
    # the corrected Laplace matrix is the plain PTR matrix except on the
    # diagonal and the +-j cyclic diagonals, where it adds h*w_j*speed,
    # whatever the slab height that fills it
    curve = star_curve(base, amp_frac * base, lobes)
    g = _grid(curve, N)
    stencil = build_log_stencil(K)
    with mock.patch.object(quad, "SLAB_ROWS", slab):
        A = quad.laplace_slp_matrix(curve, g, stencil)
    data = sample(curve, g.nodes)
    r = kernels.pairs(data.pos[:, None], data.pos).r_safe
    plain = -np.log(r) * data.speed * g.h
    lag = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    dist = np.minimum(lag, N - lag)
    off = dist > K
    assert np.array_equal(A[off], plain[off])
    for j in range(1, K + 1):
        band = dist == j
        corr = (g.h * stencil.weights[j] * data.speed)[None, :] * np.ones((N, 1))
        assert np.allclose(A[band] - plain[band], corr[band], rtol=1e-12, atol=1e-14)


def test_helmholtz_small_kappa_matches_laplace_split():
    # 2 pi S_kappa -> S_laplace + c_gamma * (h speed) as kappa -> 0
    kappa = 1e-4
    consts = helmholtz_constants(kappa)
    g = _grid(STAR, 64)
    st = build_log_stencil(2)
    A_h = quad.helmholtz_matrix(STAR, g, consts, st, "S")
    A_l = quad.laplace_slp_matrix(STAR, g, st)
    data = sample(STAR, g.nodes)
    mass = g.h * data.speed[None, :]
    diff = 2 * math.pi * A_h - A_l - consts.c_gamma * mass
    assert np.max(np.abs(diff)) <= 1e-6


def test_green_identity_circle_high_order():
    # interior plane wave: S[du/dn] - D[u] = u/2 on the boundary
    kappa = 12.5
    consts = helmholtz_constants(kappa)
    curve = circle_curve(1.0)
    g = _grid(curve, 512)
    st = build_log_stencil(7)
    data = sample(curve, g.nodes)
    d = np.array([math.cos(0.3), math.sin(0.3)])
    u = np.exp(1j * kappa * data.pos @ d)
    dudn = 1j * kappa * (data.normal @ d) * u
    S = quad.helmholtz_matrix(curve, g, consts, st, "S")
    D = quad.helmholtz_matrix(curve, g, consts, st, "D")
    resid = S @ dudn - D @ u - 0.5 * u
    assert np.max(np.abs(resid)) <= 1e-8


def test_exactness_transfer_monotone_in_K():
    # higher K gives smaller error against the spectral Kress reference
    kappa = 6.0
    consts = helmholtz_constants(kappa)
    g = _grid(STAR, 128)
    data = sample(STAR, g.nodes)
    f = np.exp(np.sin(g.nodes)) + 0.3 * np.cos(2 * g.nodes)
    ref = quad.kress_helmholtz_operator(STAR, g, consts, "S") @ f
    errs = []
    for K in (0, 2, 4):
        A = quad.helmholtz_matrix(STAR, g, consts, build_log_stencil(K), "S")
        errs.append(np.max(np.abs(A @ f - ref)))
    assert errs[0] > errs[1] > errs[2]


def test_zeta_kress_agreement_high_order():
    kappa = 12.5
    consts = helmholtz_constants(kappa)
    g = _grid(STAR, 512)
    st = build_log_stencil(7)
    f = np.exp(np.sin(g.nodes)) + 1j * np.cos(3 * g.nodes)
    for which in ("S", "D", "Dstar"):
        a = quad.helmholtz_matrix(STAR, g, consts, st, which) @ f
        b = quad.kress_helmholtz_operator(STAR, g, consts, which) @ f
        assert np.max(np.abs(a - b)) <= 1e-11


# --- Kress circulant --------------------------------------------------------


def test_kress_log_matrix_trigonometric_action():
    N = 64
    R = quad.kress_log_matrix(N)
    t = 2 * math.pi * np.arange(N) / N
    assert np.max(np.abs(R @ np.ones(N))) <= 1e-12
    for m in (1, 2, 7, 31):
        out = R @ np.cos(m * t)
        assert np.max(np.abs(out - (-2 * math.pi / m) * np.cos(m * t))) <= 1e-11


def test_check_grid_rules():
    # the grid rules of make_grid and the Kress rule, and check_rule's
    # stencil and Kress rules on top of them
    stencil = build_log_stencil(7)
    laplace, stokes = kernels.laplace_s(), kernels.stokes_combined()
    quad.check_grid(16)
    quad.check_grid(18, kress=True)
    quad.check_rule(laplace, 16, stencil)  # 2K+1 = 15 < 16
    quad.check_rule(stokes, 16, stencil)
    quad.check_rule(laplace, 18, None)
    for N, kw in ((15, {}), (17, {"kress": True})):
        with pytest.raises(quad.GridError):
            quad.check_grid(N, **kw)
    for kernel, N, st in (
        (laplace, 15, build_log_stencil(0)),
        (laplace, 31, build_log_stencil(15)),  # 2K+1 = N
        (laplace, 64, build_pow_stencil(2, 0.5)),
        (laplace, 15, None),
        (laplace, 17, None),
        (stokes, 64, None),  # Kress is built for one component
    ):
        with pytest.raises(quad.GridError):
            quad.check_rule(kernel, N, st)


def test_kress_log_column_matches_mpmath():
    # R_d = -(4 pi/N)(sum_{1 <= m < N/2} cos(2 pi d m/N)/m + (-1)^d/N),
    # summed in 30 digits, at lags spread over the column
    N = 1024
    col = quad._kress_log_column(N)
    lags = [0, 1, 2, 3, 17, 255, 256, 511, 512, 513, 768, 1023]
    exact = []
    with mpmath.workdps(30):
        for d in lags:
            waves = mpmath.fsum(
                mpmath.cospi(mpmath.mpf(2 * d * m) / N) / m for m in range(1, N // 2)
            )
            exact.append(-4 * mpmath.pi / N * (waves + (-1) ** d / mpmath.mpf(N)))
    err = max(abs(float(e - mpmath.mpf(col[d]))) for d, e in zip(lags, exact))
    assert err <= 5e-16 * np.abs(col).max()


def test_kress_log_matrix_requires_even_n():
    with pytest.raises(quad.GridError):
        quad.kress_log_matrix(33)


def test_kress_laplace_matches_corrected_rule():
    g = _grid(STAR, 512)
    f = np.exp(np.cos(g.nodes))
    a = quad.kress_laplace_slp_matrix(STAR, g) @ f
    b = quad.laplace_slp_matrix(STAR, g, build_log_stencil(7)) @ f
    assert np.max(np.abs(a - b)) <= 1e-10


# --- Stokes -----------------------------------------------------------------


def test_stokes_dlp_constant_identity():
    # interior identity: D[c] = -c/2 on the boundary for constant c
    g = _grid(STAR, 256)
    _, D = quad.stokes_matrices(STAR, g, build_log_stencil(3))
    c = np.array([0.8, -0.5])
    tau = np.tile(c, g.N)
    out = (D @ tau).reshape(-1, 2)
    assert np.max(np.abs(out - (-0.5) * c)) <= 1e-12


def test_stokes_matrix_operators():
    # stokes_matrices is stokes_matrix's S and D; other names are refused
    g = _grid(STAR, 32)
    st = build_log_stencil(2)
    S, D = quad.stokes_matrices(STAR, g, st)
    assert np.array_equal(S, quad.stokes_matrix(STAR, g, st, "S"))
    assert np.array_equal(D, quad.stokes_matrix(STAR, g, st, "D"))
    with pytest.raises(quad.GridError):
        quad.stokes_matrix(STAR, g, st, "Dstar")


def test_stokes_rotation_equivariance_on_circle():
    # on a circle the operator commutes with grid rotation: block (m+1, n+1)
    # is the block (m, n) conjugated by the rotation through one spacing
    curve = circle_curve(1.0)
    g = _grid(curve, 32)
    S, D = quad.stokes_matrices(curve, g, build_log_stencil(2))
    c, s = math.cos(g.h), math.sin(g.h)
    Q = np.array([[c, -s], [s, c]])

    def block(A, m, n):
        return A[2 * m : 2 * m + 2, 2 * n : 2 * n + 2]

    for A in (S, D):
        for m, n in ((0, 5), (3, 17), (10, 11)):
            lhs = block(A, (m + 1) % g.N, (n + 1) % g.N)
            rhs = Q @ block(A, m, n) @ Q.T
            assert np.max(np.abs(lhs - rhs)) <= 1e-13


# --- one tile loop ------------------------------------------------------------


def test_tile_loop_evaluates_each_pair_once(monkeypatch):
    # Hankel01 sees each unordered pair once (whole diagonal tiles
    # included): at most N(N + SLAB_ROWS)/2 points, where a row-by-row fill
    # reaches N^2. A Kress build keeps phi*speed in the same tile loop: at
    # real kappa it reads J0 and J1 off the fill's H0 and H1 and calls
    # bessel_j_array only on the N diagonal pairs, in _kress_diagonal; at
    # complex kappa it calls it for each order on each tile's pairs once,
    # the unordered pairs and the diagonal tiles' pairs in both orders,
    # and on the N diagonal pairs
    N, slab = 64, 7
    g = _grid(STAR, N)
    bound = N * (N + slab) // 2
    tiles = [min(slab, N - s) for s in range(0, N, slab)]
    tile_pairs = (N * N + sum(n * n for n in tiles)) // 2
    hankel_points, bessel_points = [], []
    bessel_j, diagonal = kernels.bessel_j_array, quad._kress_diagonal
    in_diagonal = []

    class CountedHankel01(kernels.Hankel01):
        def __call__(self, r):
            hankel_points.append(np.size(r))
            return super().__call__(r)

    def counted_bessel_j(order, z):
        bessel_points.append((order, np.size(z), bool(in_diagonal)))
        return bessel_j(order, z)

    def tracked_diagonal(*args):
        in_diagonal.append(True)
        try:
            return diagonal(*args)
        finally:
            in_diagonal.pop()

    monkeypatch.setattr(kernels, "Hankel01", CountedHankel01)
    monkeypatch.setattr(kernels, "bessel_j_array", counted_bessel_j)
    monkeypatch.setattr(quad, "_kress_diagonal", tracked_diagonal)
    monkeypatch.setattr(quad, "SLAB_ROWS", slab)
    consts = helmholtz_constants(12.5)
    quad.helmholtz_matrix(STAR, g, consts, build_log_stencil(3), "combined")
    assert 0 < sum(hankel_points) <= bound
    for kappa in (12.5, 12.5 + 10j):
        hankel_points.clear()
        bessel_points.clear()
        consts = helmholtz_constants(kappa)
        quad.kress_helmholtz_operator(STAR, g, consts, "combined")
        assert 0 < sum(hankel_points) <= bound
        off = [(n, size) for n, size, inside in bessel_points if not inside]
        on = [(n, size) for n, size, inside in bessel_points if inside]
        assert sorted(on) == [(0, N), (1, N)]
        for order in (0, 1):
            points = sum(size for n, size in off if n == order)
            assert points == (0 if kappa == 12.5 else tile_pairs)


@pytest.mark.parametrize("which", ["S", "D", "Dstar", "combined"])
def test_kress_factor_read_off_the_fill_is_phi_radial(which, monkeypatch):
    # at real kappa the fill keeps phi*speed from the real parts of its own
    # H0 and/or H1 at every pair (phi_radial given the fill's factors reads
    # them in place): the Kress matrix is bit for bit the one with J0 and J1
    # evaluated on the pairs, on whole, partial and mirrored tiles
    # (SLAB_ROWS = 7 does not divide N = 300)
    N = 300
    monkeypatch.setattr(quad, "SLAB_ROWS", 7)
    g, consts = _grid(STAR, N), helmholtz_constants(12.5)
    make = f"helmholtz_{which.lower()}"
    kernel = getattr(kernels, make)(12.5)
    p = quad._node_pairs(sample(STAR, g.nodes), np.arange(5)[:, None], np.arange(5, 9))
    f = kernel.radial(p)
    assert all(np.shares_memory(j, h) for j, h in zip(kernel.phi_radial(p, f), f))
    A = quad.kress_helmholtz_operator(STAR, g, consts, which)
    evaluated = kernel._replace(phi_radial=lambda p, f: kernel.phi_radial(p, None))
    monkeypatch.setattr(kernels, make, lambda kappa: evaluated)
    assert np.array_equal(A, quad.kress_helmholtz_operator(STAR, g, consts, which))


def test_mirror_tile_reads_its_pairs_in_place():
    # the mirror tile (J, I) comes in the (I, J) layout of tile (I, J),
    # with its distances and factors the very arrays of that tile: nothing
    # is transposed or copied before the kernel
    slab = 24
    data = sample(STAR, _grid(STAR, 64).nodes)
    with mock.patch.object(quad, "SLAB_ROWS", slab):
        tiles = list(quad._tiles(data, lambda p: (p.r * 2,)))
    blocks = 3  # 24 + 24 + 16 nodes
    assert len(tiles) == blocks * blocks
    mirrors = 0
    for (I, J, p, f, flag), (I2, J2, q, g, mirrored) in zip(tiles, tiles[1:]):
        if not mirrored:
            continue
        mirrors += 1
        assert not flag and (I2, J2) == (I, J)
        assert q.r is p.r and q.r_safe is p.r_safe and g is f
        assert np.array_equal(q.dx, -p.dx) and np.array_equal(q.dy, -p.dy)
        assert np.array_equal(q.src_normal, data.normal[I, None])
        assert np.array_equal(q.tgt_normal, data.normal[J])
    assert mirrors == blocks * (blocks - 1) // 2


def _node_pairs(data, tgt, src):
    pos, normal = data.pos, data.normal
    return kernels.pairs(pos[tgt], pos[src], normal[src], normal[tgt])


def _band_offsets(K):
    j = np.arange(1, K + 1)
    return np.concatenate([j, -j])


def _row_by_row_corrected(kernel, data, h, stencil):
    # the corrected rule one target row at a time, from kernel.full and
    # kernel.phi: plain PTR row, band correction, diagonal
    N = len(data.speed)
    w = np.asarray(stencil.weights)
    offsets = _band_offsets(stencil.K)
    band_w = np.concatenate([w[1:], w[1:]])
    rows = []
    for m in range(N):
        row = kernel.full(_node_pairs(data, m, slice(None)))
        row *= data.speed
        row *= h
        cols = (m + offsets) % N
        q = _node_pairs(data, m, cols)
        row[..., cols] += h * band_w * kernel.phi(q) * data.speed[cols]
        rows.append(row)
    A = np.stack(rows, axis=-2)
    n = np.arange(N)
    phi0 = kernel.phi(_node_pairs(data, n, n))
    A[..., n, n] = h * data.speed * (
        kernel.limit(data) + phi0 * (2 * w[0] - np.log(data.speed * h))
    )
    return A


def _row_by_row_kress(kernel, data, h):
    # the Kress rule one target row at a time, from kernel.full and
    # kernel.phi: plain PTR row, phi*speed*(h*log(4 sin^2)/2 - R/2) at
    # each lag added to it, diagonal
    N = len(data.speed)
    R = quad.kress_log_matrix(N)
    n = np.arange(N)
    d = np.minimum(n, N - n)
    logsin = np.log(4 * np.sin(d * (math.pi / N)) ** 2, where=d > 0, out=np.zeros(N))
    rows = []
    for m in range(N):
        p = _node_pairs(data, m, slice(None))
        row = kernel.full(p) * data.speed
        row *= h
        lag = (m - n) % N
        row += kernel.phi(p) * data.speed * (h * logsin[lag] / 2 - R[m] / 2)
        rows.append(row)
    A = np.stack(rows)
    phi0, sp = kernel.phi(_node_pairs(data, n, n)), data.speed
    A[n, n] = R[0, 0] * (-phi0 * sp / 2) + h * sp * (
        kernel.limit(data) - phi0 * np.log(sp)
    )
    return A


_HELMHOLTZ = {
    "S": kernels.helmholtz_s,
    "D": kernels.helmholtz_d,
    "Dstar": kernels.helmholtz_dstar,
    "combined": kernels.helmholtz_combined,
}
_STOKES = {
    "S": kernels.stokes_s,
    "D": kernels.stokes_d,
    "combined": kernels.stokes_combined,
}


@pytest.mark.parametrize("slab", [quad.SLAB_ROWS, 7, 10])
def test_tiled_matrices_equal_a_row_by_row_fill(slab):
    # every kernel the rules accept: whole and partial tiles, mirrored
    # tiles of unequal height, give the row-by-row matrices bit for bit
    N = 64
    g = _grid(STAR, N)
    data = sample(STAR, g.nodes)
    st = build_log_stencil(3)
    with mock.patch.object(quad, "SLAB_ROWS", slab):
        cases = [
            (
                quad.laplace_slp_matrix(STAR, g, st),
                _row_by_row_corrected(kernels.laplace_s(), data, g.h, st),
            ),
            (
                quad.kress_laplace_slp_matrix(STAR, g),
                _row_by_row_kress(kernels.laplace_s(), data, g.h),
            ),
        ]
        for kappa in (12.5, 12.5 + 10j, -4.0):
            consts = helmholtz_constants(kappa)
            for which, make in _HELMHOLTZ.items():
                cases.append(
                    (
                        quad.helmholtz_matrix(STAR, g, consts, st, which),
                        _row_by_row_corrected(make(kappa), data, g.h, st),
                    )
                )
                cases.append(
                    (
                        quad.kress_helmholtz_operator(STAR, g, consts, which),
                        _row_by_row_kress(make(kappa), data, g.h),
                    )
                )
        for which, make in _STOKES.items():
            A = quad.stokes_matrix(STAR, g, st, which)
            cases.append(
                (
                    A.reshape(N, 2, N, 2).transpose(1, 3, 0, 2),
                    _row_by_row_corrected(make(), data, g.h, st),
                )
            )
    for tiled, rowwise in cases:
        assert np.isfinite(tiled).all()
        assert np.array_equal(tiled, rowwise)
