"""Whole matrices of the corrected and Kress rules against a direct sum.

The reference is written here entry by entry from the formulas of each
kernel and rule, with scipy.special and math only, on a small grid. N is
not a multiple of the slab heights used, so the last slab is partial.

Errors are relative to the largest summand of an entry. At complex kappa
the Kress entries sum terms of size |J0(kappa r)| ~ exp(Im kappa r) that
cancel, so rounding in any term shows at that size, not at the size of
the matrix entries.
"""

import cmath
import math
from unittest import mock

import numpy as np
import pytest
import scipy.special as sp

from zetatrap import quadrature as quad
from zetatrap.geometry import sample, star_curve
from zetatrap.kernels import helmholtz_constants
from zetatrap.zetaweights import build_log_stencil

CURVE = star_curve(1.0, 0.3, 5)
N = 32  # even, for the Kress rule
K = 4
TOL = 1e-13
GAMMA = np.euler_gamma


@pytest.fixture(params=[quad.SLAB_ROWS, 7], ids=["one-slab", "slabs-of-7"])
def slab_rows(request):
    with mock.patch.object(quad, "SLAB_ROWS", request.param):
        yield request.param


def _nodes():
    g = quad.make_grid(CURVE.period, N)
    d = sample(CURVE, g.nodes)
    return g, [
        dict(
            x=float(d.pos[m, 0]),
            y=float(d.pos[m, 1]),
            sp=float(d.speed[m]),
            n=(float(d.normal[m, 0]), float(d.normal[m, 1])),
            tan=(float(d.tangent[m, 0]), float(d.tangent[m, 1])),
            c0=float(d.c0[m]),
            curv=float(d.curvature[m]),
        )
        for m in range(N)
    ]


def _geometry(a, b):
    """r_vec = a - b and its length."""
    rx, ry = a["x"] - b["x"], a["y"] - b["y"]
    return rx, ry, math.hypot(rx, ry)


def _cyclic(m, n):
    """Cyclic distance between nodes m and n."""
    lag = (m - n) % N
    return min(lag, N - lag)


def _helmholtz_parts(which, kappa, a, b):
    """(kernel, phi) at a distinct pair and (L, phi(0)) at coincidence."""
    c_gamma = 0.5j * math.pi - (cmath.log(kappa / 2) + GAMMA)
    if a is b:
        if which == "S":
            return c_gamma / (2 * math.pi), 1 / (2 * math.pi)
        return a["c0"], 0.0
    rx, ry, r = _geometry(a, b)
    if which == "S":
        return 0.25j * sp.hankel1(0, kappa * r), sp.jv(0, kappa * r) / (2 * math.pi)
    n = b["n"] if which == "D" else a["n"]
    sign = 1.0 if which == "D" else -1.0
    cos = (rx * n[0] + ry * n[1]) / r
    return (
        sign * 0.25j * kappa * sp.hankel1(1, kappa * r) * cos,
        sign * kappa * sp.jv(1, kappa * r) * cos / (2 * math.pi),
    )


def _laplace_parts(a, b):
    if a is b:
        return 0.0, 1.0
    return -math.log(_geometry(a, b)[2]), 1.0


def _corrected_reference(parts, h, w):
    """The corrected matrix and the largest summand of each entry."""
    _, nodes = _nodes()
    A = np.zeros((N, N), dtype=complex)
    scale = np.zeros((N, N))
    for m, a in enumerate(nodes):
        for n, b in enumerate(nodes):
            if m == n:
                L, phi0 = parts(a, a)
                terms = [L, phi0 * 2 * w[0], -phi0 * math.log(a["sp"] * h)]
                A[m, n] = h * a["sp"] * sum(terms)
                scale[m, n] = h * a["sp"] * max(abs(t) for t in terms)
                continue
            full, phi = parts(a, b)
            terms = [full * b["sp"] * h]
            j = _cyclic(m, n)
            if j <= K:
                terms.append(h * w[j] * phi * b["sp"])
            A[m, n] = sum(terms)
            scale[m, n] = max(abs(t) for t in terms)
    return A, scale


def _kress_weight(d):
    """Kress's weight R_d for log(4 sin^2((t-s)/2)) on 2n nodes, lag d."""
    n = N // 2
    t = d * math.pi / n
    return -(2 * math.pi / n) * sum(math.cos(k * t) / k for k in range(1, n)) - (
        math.pi / n**2
    ) * math.cos(n * t)


def _kress_reference(parts, h):
    """The Kress matrix and the largest summand of each entry."""
    _, nodes = _nodes()
    A = np.zeros((N, N), dtype=complex)
    scale = np.zeros((N, N))
    for m, a in enumerate(nodes):
        for n, b in enumerate(nodes):
            R = _kress_weight((m - n) % N)
            if m == n:
                L, phi0 = parts(a, a)
                terms = [
                    R * (-phi0 * a["sp"] / 2),
                    h * a["sp"] * L,
                    -h * a["sp"] * phi0 * math.log(a["sp"]),
                ]
            else:
                full, phi = parts(a, b)
                logsin = math.log(4 * math.sin(math.pi * _cyclic(m, n) / N) ** 2)
                terms = [
                    R * (-phi * b["sp"] / 2),
                    h * full * b["sp"],
                    h * phi * b["sp"] * logsin / 2,
                ]
            A[m, n] = sum(terms)
            scale[m, n] = max(abs(t) for t in terms)
    return A, scale


def _stokes_reference(h, w):
    """The Stokes S and D matrices; their summands are of the entries' size."""
    _, nodes = _nodes()
    S = np.zeros((2 * N, 2 * N))
    D = np.zeros((2 * N, 2 * N))
    eye = np.eye(2)
    for m, a in enumerate(nodes):
        for n, b in enumerate(nodes):
            blk = np.s_[2 * m : 2 * m + 2, 2 * n : 2 * n + 2]
            if m == n:
                tt = np.outer(a["tan"], a["tan"])
                S[blk] = h * a["sp"] * (
                    tt / (4 * math.pi)
                    + eye / (4 * math.pi) * (2 * w[0] - math.log(a["sp"] * h))
                )
                D[blk] = h * a["sp"] * (-a["curv"] / 2) * tt / math.pi
                continue
            rx, ry, r = _geometry(a, b)
            rr = np.outer([rx, ry], [rx, ry]) / r**2
            S[blk] = (-math.log(r) * eye + rr) / (4 * math.pi) * b["sp"] * h
            rn = rx * b["n"][0] + ry * b["n"][1]
            D[blk] = rn / r**2 * rr / math.pi * b["sp"] * h
            j = _cyclic(m, n)
            if j <= K:
                S[blk] += h * w[j] * b["sp"] * eye / (4 * math.pi)
    return S, D


def _assert_close(A, ref, scale=None):
    if scale is None:
        scale = np.abs(ref)
    err = np.abs(A - ref).max() / scale.max()
    assert err <= TOL, err


def test_laplace_slp_matrix(slab_rows):
    g, _ = _nodes()
    w = build_log_stencil(K).weights
    A = quad.laplace_slp_matrix(CURVE, g, build_log_stencil(K))
    _assert_close(A, *_corrected_reference(_laplace_parts, g.h, w))


@pytest.mark.parametrize("kappa", [12.5, 12.5 + 10j])
@pytest.mark.parametrize("which", ["S", "D", "Dstar"])
def test_helmholtz_matrix(slab_rows, kappa, which):
    g, _ = _nodes()
    w = build_log_stencil(K).weights
    A = quad.helmholtz_matrix(
        CURVE, g, helmholtz_constants(kappa), build_log_stencil(K), which
    )

    def parts(a, b):
        return _helmholtz_parts(which, complex(kappa), a, b)

    _assert_close(A, *_corrected_reference(parts, g.h, w))


def test_stokes_matrices(slab_rows):
    g, _ = _nodes()
    w = build_log_stencil(K).weights
    S, D = quad.stokes_matrices(CURVE, g, build_log_stencil(K))
    S_ref, D_ref = _stokes_reference(g.h, w)
    _assert_close(S, S_ref)
    _assert_close(D, D_ref)


@pytest.mark.parametrize("kappa", [12.5, 12.5 + 10j])
@pytest.mark.parametrize("which", ["S", "D"])
def test_kress_helmholtz_operator(slab_rows, kappa, which):
    g, _ = _nodes()
    A = quad.kress_helmholtz_operator(CURVE, g, helmholtz_constants(kappa), which)

    def parts(a, b):
        return _helmholtz_parts(which, complex(kappa), a, b)

    _assert_close(A, *_kress_reference(parts, g.h))


def test_kress_laplace_slp_matrix(slab_rows):
    g, _ = _nodes()
    A = quad.kress_laplace_slp_matrix(CURVE, g)
    _assert_close(A, *_kress_reference(_laplace_parts, g.h))
