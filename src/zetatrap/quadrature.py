"""Trapezoidal machinery: PTR, the zeta-corrected rule, the Kress baseline.

Both rules turn a :class:`~zetatrap.kernels.Kernel` into the dense
matrix that multiplies density samples at the grid nodes; they read the
kernel's three arrays and no formula of their own.

- corrected: the punctured trapezoidal matrix kernel*speed*h, plus on
  the ±j cyclic diagonals (j = 1..K) the correction h*w_j*phi*speed,
  and on the diagonal h*speed*(L + phi(0)*(2 w_0 - log(speed*h))),
  where L is the coincident limit of the kernel's smooth part.
- Kress: the split kernel = -(phi/2) log(4 sin^2((t-s)/2)) + smooth,
  with the log part through the circulant weights R and the smooth
  part through the plain PTR with the analytic diagonal
  speed*(L - phi(0)*log speed).

Each rule fills the matrix one slab of SLAB_ROWS target rows at a time,
so that only a slab's worth of pair arrays is alive at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .geometry import CurveSamples, ParametricCurve, sample
from .kernels import HelmholtzConstants
from .zetaweights import CorrectionStencil

__all__ = [
    "TrapezoidGrid",
    "GridError",
    "check_grid",
    "make_grid",
    "ptr",
    "slabs",
    "laplace_slp_matrix",
    "helmholtz_matrix",
    "stokes_matrix",
    "stokes_matrices",
    "kress_log_matrix",
    "kress_helmholtz_operator",
    "kress_laplace_slp_matrix",
]

MIN_NODES = 16
SLAB_ROWS = 256


class GridError(ValueError):
    """Invalid grid or stencil/grid combination."""


@dataclass(frozen=True)
class TrapezoidGrid:
    """Equispaced periodic grid: nodes n*h, n = 0..N-1, h = period/N."""

    N: int
    period: float
    h: float
    nodes: np.ndarray


def check_grid(N: int, stencil: CorrectionStencil | None = None, kress: bool = False):
    """Raise GridError unless a rule can run on N nodes.

    N must reach MIN_NODES, a stencil of half-width K needs 2K+1 < N, and
    the Kress rule needs an even N.
    """
    if N < MIN_NODES:
        raise GridError(f"N={N} below the minimum {MIN_NODES}")
    if stencil is not None and 2 * stencil.K + 1 >= N:
        raise GridError(
            f"stencil half-width K={stencil.K} needs N > {2 * stencil.K + 1}, got N={N}"
        )
    if kress and N % 2 != 0:
        raise GridError(f"Kress quadrature requires even N, got N={N}")


def make_grid(period: float, N: int) -> TrapezoidGrid:
    check_grid(N)
    h = period / N
    return TrapezoidGrid(N=N, period=period, h=h, nodes=h * np.arange(N))


def ptr(samples: np.ndarray, h: float):
    """Periodic trapezoidal rule: h * sum of the samples."""
    return h * np.sum(samples, axis=0)


def slabs(n: int):
    """Row indices 0..n-1 in consecutive slabs of at most SLAB_ROWS."""
    for start in range(0, n, SLAB_ROWS):
        yield np.arange(start, min(start + SLAB_ROWS, n))


def _check_stencil(stencil: CorrectionStencil, N: int, kind: str):
    if stencil.kind != kind:
        raise GridError(f"stencil kind {stencil.kind!r}, expected {kind!r}")
    check_grid(N, stencil)


def _node_pairs(data: CurveSamples, tgt, src) -> kernels.Pairs:
    """Pairs of the nodes indexed by ``tgt`` and ``src`` (broadcast)."""
    return kernels.pairs(
        data.pos[tgt], data.pos[src], data.normal[src], data.normal[tgt]
    )


def _corrected(kernel: kernels.Kernel, data, h, stencil, out) -> np.ndarray:
    """Fill ``out`` (..., N, N) with the zeta-corrected matrix of ``kernel``."""
    N = len(data.speed)
    _check_stencil(stencil, N, "log")
    w = np.asarray(stencil.weights)
    j = np.arange(1, stencil.K + 1)
    offsets = np.concatenate([j, -j])
    band_w = np.concatenate([w[1:], w[1:]])
    limit = kernel.limit(data)
    for rows in slabs(N):
        i = rows - rows[0]
        p = _node_pairs(data, rows[:, None], slice(None))
        block = kernel.full(p)
        block *= data.speed
        block *= h
        cols = (rows[:, None] + offsets) % N
        phi = kernel.phi(_node_pairs(data, rows[:, None], cols))
        block[..., i[:, None], cols] += h * band_w * phi * data.speed[cols]
        phi0 = kernel.phi(_node_pairs(data, rows, rows))
        sp = data.speed[rows]
        block[..., i, rows] = h * sp * (
            limit[..., rows] + phi0 * (2 * w[0] - np.log(sp * h))
        )
        out[..., rows, :] = block
    return out


def _helmholtz_kernel(consts: HelmholtzConstants, which: str) -> kernels.Kernel:
    make = {
        "S": kernels.helmholtz_s,
        "D": kernels.helmholtz_d,
        "Dstar": kernels.helmholtz_dstar,
        "combined": kernels.helmholtz_combined,
    }.get(which)
    if make is None:
        raise GridError(f"unknown operator {which!r}")
    return make(consts.kappa)


def laplace_slp_matrix(
    curve: ParametricCurve, grid: TrapezoidGrid, stencil: CorrectionStencil
) -> np.ndarray:
    """Dense corrected operator for the Laplace SLP with kernel -log r."""
    data = sample(curve, grid.nodes)
    return _corrected(
        kernels.laplace_s(), data, grid.h, stencil, np.empty((grid.N, grid.N))
    )


def helmholtz_matrix(
    curve: ParametricCurve,
    grid: TrapezoidGrid,
    consts: HelmholtzConstants,
    stencil: CorrectionStencil,
    which: str,
) -> np.ndarray:
    """Dense corrected operator for 'S', 'D', 'Dstar', or 'combined'.

    'combined' is D - i eta S with eta from
    :func:`~zetatrap.kernels.combined_field_coupling`, built in one pass.
    """
    kernel = _helmholtz_kernel(consts, which)
    data = sample(curve, grid.nodes)
    return _corrected(
        kernel, data, grid.h, stencil, np.empty((grid.N, grid.N), dtype=complex)
    )


def stokes_matrix(
    curve: ParametricCurve,
    grid: TrapezoidGrid,
    stencil: CorrectionStencil,
    which: str,
) -> np.ndarray:
    """Dense 2N x 2N Stokes operator 'S', 'D', or 'combined' S + D
    (node-major [u1, u2] blocks).

    Only the -log r I part of S is singular and takes the log correction;
    the rest of S and the whole of D use the plain PTR with their
    analytic coincident limits on the diagonal. 'combined' builds S + D
    in one pass of :func:`~zetatrap.kernels.stokes_combined`.
    """
    make = {
        "S": kernels.stokes_s,
        "D": kernels.stokes_d,
        "combined": kernels.stokes_combined,
    }.get(which)
    if make is None:
        raise GridError(f"unknown operator {which!r}")
    data = sample(curve, grid.nodes)
    N = grid.N
    A = np.empty((2 * N, 2 * N))
    # Component (i, j) of node block (m, n) is A[2m + i, 2n + j].
    components = A.reshape(N, 2, N, 2).transpose(1, 3, 0, 2)
    _corrected(make(), data, grid.h, stencil, components)
    return A


def stokes_matrices(
    curve: ParametricCurve, grid: TrapezoidGrid, stencil: CorrectionStencil
):
    """The Stokes S and D operators of :func:`stokes_matrix`, one pass each."""
    return (
        stokes_matrix(curve, grid, stencil, "S"),
        stokes_matrix(curve, grid, stencil, "D"),
    )


# ---------------------------------------------------------------------------
# Kress (Martensen-Kussmaul) spectral baseline
# ---------------------------------------------------------------------------


def _kress_log_column(N: int) -> np.ndarray:
    """First column of the circulant log-kernel quadrature matrix."""
    check_grid(N, kress=True)
    h = 2 * math.pi / N
    d = np.arange(N)
    ms = np.arange(1, N // 2)
    col = np.cos(np.outer(d * h, ms)) @ (1.0 / ms)
    col += np.cos(math.pi * d) / N
    col *= -4 * math.pi / N
    return col


def kress_log_matrix(N: int) -> np.ndarray:
    """Circulant quadrature matrix for the kernel log(4 sin^2((t-s)/2)).

    Characterized by its action on the trigonometric basis:
    R @ cos(m s) = -(2 pi / m) cos(m t) for 1 <= m <= N/2-1, R @ 1 = 0,
    with the Nyquist mode integrated exactly against the truncated series.
    """
    col = _kress_log_column(N)
    d = np.arange(N)
    return col[(d[:, None] - d[None, :]) % N]


def _kress(kernel: kernels.Kernel, data, h, out) -> np.ndarray:
    """Fill ``out`` (N, N) with the Kress discretization of ``kernel``."""
    N = len(data.speed)
    R = _kress_log_column(N)
    # log(4 sin^2(pi d/N)) at lag d, from the nearer of d and N - d so that
    # lags close to N keep their relative accuracy.
    d = np.minimum(np.arange(N), N - np.arange(N))
    logsin = np.log(4 * np.sin(d * (math.pi / N)) ** 2, where=d > 0, out=np.zeros(N))
    limit = kernel.limit(data)
    for rows in slabs(N):
        i = rows - rows[0]
        lag = (rows[:, None] - np.arange(N)) % N
        p = _node_pairs(data, rows[:, None], slice(None))
        phi = kernel.phi(p)
        phi_sp = phi * data.speed
        block = R[lag] * (-phi_sp / 2) + h * (
            kernel.full(p) * data.speed + phi_sp * logsin[lag] / 2
        )
        phi0, sp = phi[i, rows], data.speed[rows]
        block[i, rows] = R[0] * (-phi0 * sp / 2) + h * sp * (
            limit[rows] - phi0 * np.log(sp)
        )
        out[rows] = block
    return out


def kress_helmholtz_operator(
    curve: ParametricCurve,
    grid: TrapezoidGrid,
    consts: HelmholtzConstants,
    which: str,
) -> np.ndarray:
    """Spectral Kress discretization of the Helmholtz S, D, D*, or 'combined'
    D - i eta S operator.

    Uses the global split K = K1*log(4 sin^2((t-s)/2)) + K2 with the
    J0/J1 smooth factors as K1; K1 goes through the circulant log rule,
    K2 through the plain PTR with analytic diagonal limits.
    """
    kernel = _helmholtz_kernel(consts, which)
    data = sample(curve, grid.nodes)
    return _kress(kernel, data, grid.h, np.empty((grid.N, grid.N), dtype=complex))


def kress_laplace_slp_matrix(curve: ParametricCurve, grid: TrapezoidGrid) -> np.ndarray:
    """Spectral Kress discretization of the Laplace SLP (reference use)."""
    data = sample(curve, grid.nodes)
    return _kress(kernels.laplace_s(), data, grid.h, np.empty((grid.N, grid.N)))
