"""Correction-stencil contracts: converged weights vs the finite-h oracle."""

import hashlib
import math
import struct

import mpmath
import numpy as np
import oracle
import pytest

from zetatrap import zetaweights as zw


# --- converged weights ------------------------------------------------------


def test_k0_log_weight_closed_form():
    st = zw.build_log_stencil(0)
    assert st.kind == "log"
    assert st.order == 2
    assert abs(st.weights[0] - 0.5 * math.log(2 * math.pi)) <= 1e-13


def test_k1_log_weights():
    # w_0 + w_1 = -zeta'(0), w_1 = -zeta'(-2); frozen from mpmath at 40 digits
    st = zw.build_log_stencil(1)
    assert abs(st.weights[0] - 0.8884900761462795) <= 1e-13
    assert abs(st.weights[1] - 0.03044845705839327) <= 1e-13


def test_pow_weights_k0():
    # single weight is -zeta(z); spot-check z = 0.5
    st = zw.build_pow_stencil(0, 0.5)
    assert st.kind == "pow"
    assert abs(st.order - 2.5) <= 1e-15
    assert abs(st.weights[0] - 1.4603545088095868) <= 1e-13


def test_weights_stay_bounded():
    for K in (5, 10, 15, 20):
        st = zw.build_log_stencil(K)
        assert max(abs(w) for w in st.weights) <= 10.0


def test_domain_errors():
    with pytest.raises(zw.StencilError):
        zw.build_log_stencil(-1)
    with pytest.raises(zw.StencilError):
        zw.build_log_stencil(zw.MAX_K + 1)
    with pytest.raises(zw.StencilError):
        zw.build_pow_stencil(2, 1.0)
    with pytest.raises(zw.StencilError):
        zw.build_pow_stencil(2, -1.5)


def test_residual_double():
    for K in (0, 3, 7):
        assert oracle.residual_double(zw.build_log_stencil(K)) <= 1e-12
    assert oracle.residual_double(zw.build_pow_stencil(4, 0.25)) <= 1e-12


def test_cache_determinism(monkeypatch):
    a = zw.build_log_stencil(6)
    b = zw.build_log_stencil(6)
    assert a is b  # cached
    assert a.weights == b.weights
    p1 = zw.build_pow_stencil(3, 0.5)
    p2 = zw.build_pow_stencil(3, -0.5)
    assert p1.weights != p2.weights  # cache keys include z
    assert zw.build_pow_stencil(3, 0.5) is p1
    # a hit runs no solve; after cache_clear the same weights are rebuilt
    solves = []
    solve = zw.hiprec.solve_dual_vandermonde

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(zw.hiprec, "solve_dual_vandermonde", counted)
    assert zw.build_log_stencil(6) is a and not solves
    zw.build_log_stencil.cache_clear()
    c = zw.build_log_stencil(6)
    assert len(solves) == 1 and c is not a and c == a
    # a K out of range raises every time: it is never cached
    for _ in range(2):
        with pytest.raises(zw.StencilError):
            zw.build_log_stencil(zw.MAX_K + 1)


# The first 16 hex digits of the SHA-1 of each stencil's weights, packed
# as little-endian doubles: build_log_stencil(K) under (K, None) and
# build_pow_stencil(K, z) under (K, z). Any change to any bit of any
# weight changes its digest, where the tolerance tests above and the
# oracle's would let a last-bit change pass.
WEIGHT_DIGESTS = {
    (0, None): "64fa2f90dc7fd806",
    (1, None): "b8f7dad5ae951013",
    (2, None): "241e6953fe78c77d",
    (3, None): "bf5758f726caf8b4",
    (4, None): "029df687e7010a8d",
    (5, None): "c585275305ff6c69",
    (6, None): "93b70b96a025b3a3",
    (7, None): "8814bdb395a8b57d",
    (8, None): "53ab7d49545cf4f4",
    (9, None): "d120290e45c77c9b",
    (10, None): "76fa6feecc3968df",
    (11, None): "57c576bffd8f1b34",
    (12, None): "46d9b0ed735df981",
    (13, None): "69e72a9fb5e1486b",
    (14, None): "bed387692f219f6f",
    (15, None): "9a9b6a7a84dd93fd",
    (16, None): "7feaf34d1b6eb5e5",
    (17, None): "541f17c3f5fbde4d",
    (18, None): "7acd0eae52d4a8ea",
    (19, None): "72168bad54f84aae",
    (20, None): "18fa717a6b72bc97",
    (0, -0.5): "2389016151783e8e",
    (0, 0.5): "5a0a13f5bf2e3278",
    (2, -0.5): "f3775d0e99697b15",
    (2, 0.5): "087a163acde1a2d5",
    (4, -0.5): "4ca0f47fc7c796ce",
    (4, 0.5): "21752fbb44ba73cc",
    (7, -0.5): "4cf33546b32bda4f",
    (7, 0.5): "c6bc453d3b5442f1",
}


def test_every_stencil_is_frozen_bit_for_bit():
    assert len(WEIGHT_DIGESTS) == zw.MAX_K + 1 + 8
    for (K, z), digest in WEIGHT_DIGESTS.items():
        st = zw.build_log_stencil(K) if z is None else zw.build_pow_stencil(K, z)
        packed = struct.pack(f"<{K + 1}d", *st.weights)
        assert hashlib.sha1(packed).hexdigest()[:16] == digest, (K, z)


# --- pow/log link -----------------------------------------------------------


def test_every_log_stencil_certifies_on_the_first_solve(monkeypatch):
    # the first solve's precision grows with K, so no K <= MAX_K retries
    zw.build_log_stencil.cache_clear()
    solve = zw.hiprec.solve_dual_vandermonde
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("digits"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(zw.hiprec, "solve_dual_vandermonde", counted)
    for K in range(zw.MAX_K + 1):
        calls.clear()
        zw.build_log_stencil(K)
        assert len(calls) == 1, (K, calls)


def test_pow_log_derivative_link():
    # d/dz [-zeta(z - 2k)] at z=0 equals -zeta'(-2k); a central difference
    # of the pow weights in z must therefore reproduce the log weights
    eps = 1e-5
    for K in (0, 1, 2):
        wl = zw.build_log_stencil(K).weights
        wp = zw.build_pow_stencil(K, eps).weights
        wm = zw.build_pow_stencil(K, -eps).weights
        for j in range(K + 1):
            assert abs((wp[j] - wm[j]) / (2 * eps) - wl[j]) <= 1e-4


# --- corrected quadrature order (pow kind) ----------------------------------


def test_pow_rule_quadrature_order():
    """K=2, z=1/2 corrected rule on int |x|^(-1/2) exp(-x^2) dx = Gamma(1/4)."""
    ref = float(mpmath.gamma(mpmath.mpf(1) / 4))
    st = zw.build_pow_stencil(2, 0.5)
    errs = []
    n_list = [8, 16, 32, 64]
    for n in n_list:
        h = 1.0 / n
        x = h * np.arange(1, int(9.0 / h) + 1)
        total = 2.0 * h * np.sum(x**-0.5 * np.exp(-x * x))
        corr = 2.0 * st.weights[0]
        for j in range(1, st.K + 1):
            corr += 2.0 * st.weights[j] * math.exp(-((j * h) ** 2))
        total += h**0.5 * corr
        errs.append(abs(total - ref))
    slope = -np.polyfit(np.log(n_list), np.log(errs), 1)[0]
    assert slope >= 6.0  # nominal order 2K+3-z = 6.5
    assert errs[-1] <= 1e-12


# --- finite-h oracle --------------------------------------------------------


def test_oracle_matches_converged_weights():
    # independent finite-h moment fitting, extrapolated to h -> 0
    for K in (0, 2, 4, 7):
        st = zw.build_log_stencil(K)
        w = oracle.oracle_weights_extrapolated(K)
        for j in range(K + 1):
            assert abs(w[j] - st.weights[j]) <= 1e-9


def test_oracle_convergence_rate():
    # raw finite-h error decays at least like h^(2K+2) in the resolved window
    windows = {0: (3, 4, 5), 1: (3, 4, 5), 2: (4, 5, 6)}
    for K, qs in windows.items():
        st = zw.build_log_stencil(K)
        cutoff = oracle.CutoffSpec(b=1.0, m=K + 1)
        errs = []
        for q in qs:
            w = oracle.oracle_stencil(K, 2.0**-q, cutoff)
            errs.append(max(abs(a - b) for a, b in zip(w, st.weights)))
        assert errs[0] > errs[1] > errs[2] > 0.0
        slope = np.polyfit([math.log(2.0**-q) for q in qs], np.log(errs), 1)[0]
        assert slope >= 2 * K + 0.5


def test_oracle_under_resolved_cutoff():
    with pytest.raises(oracle.UnderResolvedCutoffError):
        oracle.oracle_stencil(2, 0.5, oracle.CutoffSpec(b=1.0, m=3))


def test_oracle_cutoff_flatness_check():
    with pytest.raises(zw.StencilError):
        oracle.oracle_stencil(3, 0.01, oracle.CutoffSpec(b=1.0, m=2))  # 2m < 2K+2
