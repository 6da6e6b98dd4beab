"""Reference code, used only by the tests.

A finite-h moment-fitting oracle with an explicit smooth cutoff, which
builds the log-kind weights independently of the zeta moments, and a
double-precision re-substitution residual of a stencil's moment system.
Acceptance criterion 1 and ``test_zetaweights`` compare the stencils of
:mod:`zetatrap.zetaweights` against them.

:func:`full_pass`, the brute-force decision pass of the off-curve
evaluator: every target paired with all N nodes for its acceptance,
nearest node and stride. ``test_nystrom`` holds the two-level pass of
:mod:`zetatrap.nystrom` to its masks and nearest nodes bit for bit, and
to strides at most its own, equal to them at s0 = 1.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from zetatrap import kernels
from zetatrap import quadrature as quad
from zetatrap.nystrom import NEAR_FIELD_FACTOR

from zetatrap.zetaweights import (
    CorrectionStencil,
    StencilError,
    _zeta_prime_neg_even_mp,
)


class UnderResolvedCutoffError(StencilError):
    """The finite-h oracle grid does not resolve the cutoff support."""


@dataclass(frozen=True)
class CutoffSpec:
    """Oracle-only smooth cutoff eta(x) = exp(-(x/b)^(2m)).

    ``b`` is the support half-width scale and ``m`` the flatness
    exponent; 2m >= 2K+2 is required so that enough derivatives vanish
    at the origin.
    """

    b: float
    m: int

    def support_halfwidth(self, threshold: float = 1e-18) -> float:
        """Half-width of the region where eta exceeds ``threshold``."""
        return self.b * (-math.log(threshold)) ** (1.0 / (2 * self.m))


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


def _target_slabs(data, h: float, targets):
    """Yield (rows, outside, usable, pairs, nearest) per slab of targets,
    ``rows`` its slice, on the nodes ``data``: the pairs of every target
    of the slab with every node, and the index of each target's nearest
    node. A target that is not finite is neither outside nor usable."""
    # inf - x is inf and inf/inf NaN with a warning; NaN passes quietly
    targets = np.where(np.isfinite(targets), targets, np.nan)
    for rows in quad.slabs(len(targets)):
        p = kernels.pairs(targets[rows, None], data.pos, data.normal)
        nearest = p.r.argmin(axis=1)
        far = p.r[np.arange(len(nearest)), nearest] >= (
            NEAR_FIELD_FACTOR * h * data.speed[nearest]
        )
        # Winding number: the Laplace double layer integrates to -2 pi inside.
        winding = kernels.laplace_d().full(p) @ (data.speed * h) / (-2 * math.pi)
        outside = np.abs(winding) < 0.5
        yield rows, outside, outside & far, p, nearest


def _strides(bie, tol: float, alias, p, at, nearest):
    """The stride of each target of the rows ``at`` of ``p``, with its
    decay sum over all N nodes of ``p``; see ``nystrom._strides``."""
    data, N, period = bie.data, bie.grid.N, bie.grid.period
    kappa = complex(bie.kernel.wavenumber)
    d = p.r[at, nearest]
    v = data.speed[nearest]
    kd = np.maximum(data.curvature[nearest], 0.0) * d
    strip = d / v * np.where(kd > 0, np.log1p(kd) / np.where(kd > 0, kd, 1.0), 1.0)
    alpha = 2 * math.pi / period * strip
    q0 = abs(kappa.real) * v * period / (2 * math.pi)
    closest = kernels.Pairs(
        p.dx[at, nearest], p.dy[at, nearest], d, p.r_safe[at, nearest],
        data.normal[nearest],
    )
    size = np.abs(bie.kernel.full(closest)).reshape(-1, len(at)).max(axis=0)
    size = np.maximum(size, np.finfo(float).tiny)
    decay = p.r[at]  # exp(-Im kappa (r_n - d)) at each node, in place
    decay -= d[:, None]
    decay *= -kappa.imag
    np.exp(decay, out=decay)
    l1 = size * decay.sum(axis=1)
    # the squared envelope at q = 0..N/2, built in place from its log
    square = np.arange(N // 2 + 1) - q0[:, None]
    np.maximum(square, 0.0, out=square)
    square *= -2 * alpha[:, None]
    square += 2 * (np.log(N * size) + kappa.imag * d)[:, None]
    np.minimum(square, 2 * np.log(l1)[:, None], out=square)
    np.exp(square, out=square)
    stride = np.ones(len(at), dtype=int)
    s = 2
    while N % s == 0 and s < N:
        up = (stride == s // 2) & (np.sqrt(square @ alias(s)) <= tol)
        if not up.any():
            break
        stride[up] = s
        s *= 2
    return stride


def locate(data, h: float, targets):
    """(outside, usable) of each of ``targets`` on the nodes ``data``,
    every target paired with all N nodes."""
    outside = np.zeros(len(targets), dtype=bool)
    usable = np.zeros(len(targets), dtype=bool)
    for rows, out, ok, _, _ in _target_slabs(data, h, targets):
        outside[rows], usable[rows] = out, ok
    return outside, usable


def full_pass(bie, tol: float, alias, targets):
    """(outside, stride, nearest) of each of ``targets`` on the nodes of
    ``bie``, every target paired with all N nodes: stride 0 where refused,
    nearest 0 there too. ``tol`` and ``alias`` are the stride rule's."""
    outside = np.zeros(len(targets), dtype=bool)
    stride = np.zeros(len(targets), dtype=int)
    nearest = np.zeros(len(targets), dtype=int)
    for rows, out, ok, p, near in _target_slabs(bie.data, bie.grid.h, targets):
        outside[rows] = out
        at = np.flatnonzero(ok)
        if len(at):
            stride[rows.start + at] = _strides(bie, tol, alias, p, at, near[at])
            nearest[rows.start + at] = near[at]
    return outside, stride, nearest
