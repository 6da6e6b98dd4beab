"""Correction-stencil contracts: converged weights vs the finite-h oracle."""

import math

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


def test_cache_determinism():
    a = zw.build_log_stencil(6)
    b = zw.build_log_stencil(6)
    assert a is b  # cached
    assert a.weights == b.weights
    p1 = zw.build_pow_stencil(3, 0.5)
    p2 = zw.build_pow_stencil(3, -0.5)
    assert p1.weights != p2.weights  # cache keys include z
    assert zw._cache[("log", 6)] is a and zw._cache[("pow", 3, 0.5)] is p1


# --- pow/log link -----------------------------------------------------------


def test_every_log_stencil_certifies_on_the_first_solve(monkeypatch):
    # the first solve's precision grows with K, so no K <= MAX_K retries
    monkeypatch.setattr(zw, "_cache", {})
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
