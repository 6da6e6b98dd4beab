"""Correction stencils for -log|x| and |x|^-z singularities.

The converged correction weights solve the moment systems

    sum_j w_j j^(2k) = -zeta'(-2k)   (log kind)
    sum_j w_j j^(2k) = -zeta(z-2k)   (pow kind, -1 < z < 1)

with the right-hand sides evaluated in extended precision and the system
solved through :mod:`zetatrap.hiprec`. A finite-h moment-fitting oracle
(with an explicit smooth cutoff) is provided for validation only; it is
never used to build production stencils.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import mpmath

from . import hiprec

__all__ = [
    "CorrectionStencil",
    "CutoffSpec",
    "StencilError",
    "UnderResolvedCutoffError",
    "build_log_stencil",
    "build_pow_stencil",
    "oracle_stencil",
    "oracle_weights_extrapolated",
]

MAX_K = 20


class StencilError(ValueError):
    """Invalid stencil request."""


class UnderResolvedCutoffError(StencilError):
    """The finite-h oracle grid does not resolve the cutoff support."""


@dataclass(frozen=True)
class CorrectionStencil:
    """Converged correction weights w_0..w_K for one singularity kind.

    ``weights[j]`` applies symmetrically at offsets +-j*h from the
    singular node (the j=0 weight is counted twice).

    ``order`` is 2K+3-z for the pow kind, the exponent of its leading
    error term. For the log kind it is 2K+2, the nominal label shared by
    the method names (``zeta6`` ... ``zeta42``), ``zetatrap weights
    --order`` and external stencil tables. The log rule's leading error
    term is h^(2K+3), the z -> 0 limit of the pow kind: the punctured
    trapezoidal error on -log|x| phi(x) expands in h^(2k+1) zeta'(-2k)
    phi^(2k)(0), the h log h terms vanish for k >= 1 because
    zeta(-2k) = 0, and the K+1 weights cancel the terms k = 0..K.
    """

    kind: str  # "log" or "pow"
    K: int
    z: float | None
    weights: tuple[float, ...]
    order: float

    def __post_init__(self):
        if len(self.weights) != self.K + 1:
            raise StencilError("weight count must be K+1")


@dataclass(frozen=True)
class CutoffSpec:
    """Oracle-only smooth cutoff eta(x) = exp(-(x/b)^(2m)).

    ``b`` is the support half-width scale and ``m`` the flatness
    exponent; 2m >= 2K+2 is required so that enough derivatives vanish
    at the origin.
    """

    b: float
    m: int

    def eta(self, x):
        return math.exp(-((abs(x) / self.b) ** (2 * self.m)))

    def support_halfwidth(self, threshold: float = 1e-18) -> float:
        """Half-width of the region where eta exceeds ``threshold``."""
        return self.b * (-math.log(threshold)) ** (1.0 / (2 * self.m))


_cache: dict[tuple, CorrectionStencil] = {}
_cache_lock = threading.Lock()


def _zeta_prime_neg_even_mp(k: int):
    """zeta'(-2k) at the current mpmath working precision (closed form)."""
    if k == 0:
        return -mpmath.log(2 * mpmath.pi) / 2
    return (
        (-1) ** (k % 2)
        * mpmath.factorial(2 * k)
        * mpmath.zeta(2 * k + 1)
        / (2 * (2 * mpmath.pi) ** (2 * k))
    )


def _solve_with_retry(nodes, moment_fn, K: int):
    """Solve the dual Vandermonde system, doubling digits on failure.

    ``moment_fn(k)`` must evaluate moment k at the current working
    precision. The first solve runs at 40 + 2K digits, or at
    ``hiprec.working_digits()`` if that is more: the log systems certify
    their 1e-40 residual from about 33 + 1.5K digits (K = 20 needs 63),
    so every K <= MAX_K passes first time and the retry is a safety net.
    """
    digits = max(hiprec.working_digits(), 2 * K - hiprec.RESIDUAL_EXPONENT)
    last_exc = None
    for _ in range(5):
        with mpmath.workdps(digits + 10):
            moments = [moment_fn(k) for k in range(K + 1)]
        try:
            return hiprec.solve_dual_vandermonde(nodes, moments, digits=digits)
        except hiprec.PrecisionInsufficientError as exc:
            last_exc = exc
            digits *= 2
    raise last_exc


def build_log_stencil(K: int) -> CorrectionStencil:
    """Correction stencil for the -log|x| singularity.

    Labelled order 2K+2; the corrected rule's leading error term is
    h^(2K+3) (see :class:`CorrectionStencil`).
    """
    if not 0 <= K <= MAX_K:
        raise StencilError(f"K must be in [0, {MAX_K}]")
    key = ("log", K)
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None:
        return hit
    nodes = [j * j for j in range(K + 1)]
    w = _solve_with_retry(nodes, lambda k: -_zeta_prime_neg_even_mp(k), K)
    stencil = CorrectionStencil(
        kind="log", K=K, z=None, weights=tuple(float(v) for v in w), order=2 * K + 2
    )
    with _cache_lock:
        _cache[key] = stencil
    return stencil


def build_pow_stencil(K: int, z: float) -> CorrectionStencil:
    """Correction stencil for the |x|^-z singularity, -1 < z < 1."""
    if not 0 <= K <= MAX_K:
        raise StencilError(f"K must be in [0, {MAX_K}]")
    if not -1.0 < z < 1.0:
        raise StencilError("z must lie in (-1, 1)")
    key = ("pow", K, float(z))
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None:
        return hit
    nodes = [j * j for j in range(K + 1)]
    zf = float(z)
    w = _solve_with_retry(nodes, lambda k: -mpmath.zeta(mpmath.mpf(zf) - 2 * k), K)
    stencil = CorrectionStencil(
        kind="pow",
        K=K,
        z=zf,
        weights=tuple(float(v) for v in w),
        order=2 * K + 3 - zf,
    )
    with _cache_lock:
        _cache[key] = stencil
    return stencil


def residual_double(stencil: CorrectionStencil) -> float:
    """Backward-style re-substitution residual of a stencil in doubles.

    Normalized by the magnitude sum of the row terms, which is the
    meaningful scale once the row exhibits heavy cancellation.
    """
    worst = 0.0
    for k in range(stencil.K + 1):
        acc = 0.0
        mag = 1.0
        for j, w in enumerate(stencil.weights):
            term = w * float(j * j) ** k if (j or k == 0) else 0.0
            if j == 0 and k == 0:
                term = w
            acc += term
            mag += abs(term)
        if stencil.kind == "log":
            b = float(_zeta_prime_neg_even_mp(k))
            b = -b
        else:
            b = -float(mpmath.zeta(stencil.z - 2 * k))
        worst = max(worst, abs(acc - b) / mag)
    return worst


def oracle_stencil(K: int, h: float, cutoff: CutoffSpec):
    """Finite-h moment-fitted weights for the -log|x| singularity.

    Solves sum_j w_j^h j^(2k) eta(jh) = RHS_k(h) where RHS_k(h) is the
    integral-minus-sum defect of the punctured trapezoidal rule on
    -x^(2k) log x * eta. Used only to validate the converged stencils.
    """
    if K < 0:
        raise StencilError("K must be nonnegative")
    if h <= 0:
        raise StencilError("h must be positive")
    if 2 * cutoff.m < 2 * K + 2:
        raise StencilError("cutoff flatness 2m must be at least 2K+2")
    support = cutoff.support_halfwidth()
    if math.floor(support / h) < max(4 * K, K + 1):
        raise UnderResolvedCutoffError(
            f"h={h} leaves fewer than {max(4 * K, K + 1)} samples in the "
            f"cutoff support {support:.3g}"
        )
    b, m = cutoff.b, cutoff.m
    scale = b / h
    dps = int((2 * K + 1) * math.log10(max(scale, 2.0))) + 50
    with mpmath.workdps(dps):
        bh = mpmath.mpf(b) / mpmath.mpf(h)
        lbh = mpmath.log(bh)
        p = mpmath.mpf(2 * m)
        # Moments of the scaled cutoff: integrals of u^(2k) e^(-u^(2m))
        # and u^(2k) log(u) e^(-u^(2m)) over (0, inf).
        A0 = []
        B0 = []
        for k in range(K + 1):
            t = (2 * k + 1) / p
            g = mpmath.gamma(t)
            A0.append(g / p)
            B0.append(g * mpmath.digamma(t) / (p * p))
        # Sum side, truncated where the cutoff underflows the working dps.
        nmax = int(scale * (dps * math.log(10)) ** (1.0 / (2 * m))) + 2
        rhs = []
        hb = mpmath.mpf(h) / mpmath.mpf(b)
        etas = []
        logs = []
        for n in range(1, nmax + 1):
            e = mpmath.exp(-((n * hb) ** (2 * m)))
            if e == 0:
                break
            etas.append(e)
            logs.append(mpmath.log(n))
        for k in range(K + 1):
            integral = bh ** (2 * k + 1) * (B0[k] + lbh * A0[k])
            ssum = mpmath.mpf(0)
            for idx, e in enumerate(etas):
                n = idx + 1
                ssum += mpmath.mpf(n) ** (2 * k) * logs[idx] * e
            rhs.append(-integral + ssum)
        # (K+1) x (K+1) system with eta weights on the stencil nodes.
        n1 = K + 1
        A = mpmath.zeros(n1, n1)
        for k in range(n1):
            for j in range(n1):
                if j == 0:
                    A[k, j] = mpmath.mpf(1) if k == 0 else mpmath.mpf(0)
                else:
                    A[k, j] = mpmath.mpf(j) ** (2 * k) * mpmath.exp(
                        -((j * hb) ** (2 * m))
                    )
        A[0, 0] = mpmath.mpf(1)  # eta(0) = 1, 0^0 = 1
        sol = mpmath.lu_solve(A, mpmath.matrix(rhs))
        return [float(sol[j]) for j in range(n1)]


def oracle_weights_extrapolated(K: int, levels: int | None = None):
    """Richardson-extrapolated h->0 limit of the finite-h oracle weights.

    Runs the oracle on a dyadic h-sequence and extrapolates in h^2
    (Neville), which captures the even-power error expansion induced by
    the smooth cutoff.
    """
    m = K + 1
    cutoff = CutoffSpec(b=1.0, m=m)
    # The moment defects decay faster than any power of h once the cutoff
    # profile is resolved, but they are enormous on coarse grids; starting
    # the sequence at h = 1/256 keeps every level in the resolved regime
    # for all supported K.
    h0 = 2.0**-8
    if levels is None:
        levels = 3
    hs = [h0 / 2**q for q in range(levels)]
    tables = [oracle_stencil(K, h, cutoff) for h in hs]
    out = []
    for j in range(K + 1):
        ts = [h * h for h in hs]
        vals = [tab[j] for tab in tables]
        for order in range(1, levels):
            for i in range(levels - order):
                ratio = ts[i] / ts[i + order]
                vals[i] = vals[i + 1] + (vals[i + 1] - vals[i]) / (ratio - 1.0)
        out.append(vals[0])
    return out
