"""Trapezoidal machinery: PTR, the zeta-corrected rule, the Kress baseline.

Both rules turn a :class:`~zetatrap.kernels.Kernel` into the dense
matrix that multiplies density samples at the grid nodes; they read the
kernel's array functions and no formula of their own. Each is the PTR
fill, the punctured trapezoidal matrix kernel*speed*h, plus a correction.

- corrected: a :class:`Correction` holds the 2K+1 entries per row that
  one stencil changes: on the +-j cyclic diagonals (j = 1..K) it adds
  h*w_j*phi*speed, and on the diagonal it writes
  h*speed*(L + phi(0)*(2 w_0 - log(speed*h))), where L is the coincident
  limit of the kernel's smooth part. ``apply`` returns the entries it
  overwrote and ``restore`` writes them back, so rules that share a grid
  can share one fill (see :func:`~zetatrap.nystrom.on_each_system`).
- Kress: the split kernel = -(phi/2) log(4 sin^2((t-s)/2)) + smooth,
  with the log part through the circulant weights R and the smooth
  part through the plain PTR with the analytic diagonal
  speed*(L - phi(0)*log speed): a dense correction of the fill that
  ``_kress`` adds in place and does not undo. It reads phi*speed at
  every pair, which the fill keeps for it.

The PTR fill allocates its matrix, of the kernel's ``dtype`` and
``components`` N squared entries, and runs the one tile loop; the
builders below allocate none. The node range is cut into slabs
of SLAB_ROWS; for each slab pair (I, J), J >= I, in row-major order of
(I, J), the loop forms the pairs once and evaluates one set of
symmetric factors once: the kernel's radial factors, and phi's when the
fill keeps the Kress factor (see :mod:`~zetatrap.kernels`). It yields
tile (I, J) and then the mirror tile (J, I), which reads the same pairs
and factors in place, in the (I, J) layout, with r_vec negated and the
two normals exchanged, since r_mn = r_nm; no transposed copy is made,
and the fill writes the mirror's block transposed. Each fill tile is
written with one slice assignment per component plane: a Stokes tile, a
contiguous (2, 2, |I|, |J|) block, goes through the four (N, N) planes
of the node-major 2N x 2N matrix. For every Helmholtz kernel at real
kappa phi's J0 and J1 are the real parts of the fill's own H0 and H1 (the
kernel's ``phi_in_radial``), so its Kress fill evaluates no Bessel
function off the diagonal. A :class:`Correction` evaluates phi on its
N x 2K band pairs and the N diagonal pairs in one pass, and the Kress
diagonal its N diagonal pairs.
At most one tile pair of pair arrays, O(SLAB_ROWS^2), is alive at once,
where a row slab held SLAB_ROWS x N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels
from .geometry import CurveSamples, ParametricCurve, sample
from .kernels import HelmholtzConstants
from .zetaweights import CorrectionStencil

__all__ = [
    "TrapezoidGrid",
    "GridError",
    "Correction",
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
# Tile edge of the matrix rules and slab height of the off-curve targets.
# On the assembly mix of the benchmark workloads 128 ran faster than 256
# (smaller diagonal tiles, tile arrays that stay in cache) and than 64
# (more tiles per Stokes matrix).
SLAB_ROWS = 128


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


def _check_stencil(stencil: CorrectionStencil, N: int):
    """Raise GridError unless ``stencil`` is a log stencil that fits N."""
    if stencil.kind != "log":
        raise GridError(f"stencil kind {stencil.kind!r}, expected 'log'")
    check_grid(N, stencil)


def _node_pairs(data: CurveSamples, tgt, src) -> kernels.Pairs:
    """Pairs of the nodes indexed by ``tgt`` and ``src`` (broadcast)."""
    return kernels.pairs(
        data.pos[tgt], data.pos[src], data.normal[src], data.normal[tgt]
    )


def _planes(a: np.ndarray, lead: int) -> list:
    """The sub-arrays of ``a`` at each index of its ``lead`` leading axes.

    A Stokes matrix is written one component plane at a time: an
    assignment to its (2, 2, N, N) view would run its innermost loop
    over the two interleaved components.
    """
    return [a[c] for c in np.ndindex(a.shape[:lead])]


def _tiles(data: CurveSamples, factors):
    """(I, J, pairs, ``factors(pairs)``, mirrored) of every tile of the
    N x N pair grid, I and J slices of at most SLAB_ROWS nodes.

    ``factors`` is evaluated for tiles with J >= I, which come unmirrored:
    targets I down the rows, sources J along the columns. The mirror tile
    (J, I) follows at once in the same (I, J) layout, ``mirrored`` set:
    targets J along the columns and sources I down the rows, with r_vec
    negated, the normals exchanged and the same factors, so they must be
    symmetric under pair reversal (a kernel's ``radial`` or
    ``phi_radial``). Its caller writes it transposed.
    """
    N = len(data.speed)
    edges = [slice(s, min(s + SLAB_ROWS, N)) for s in range(0, N, SLAB_ROWS)]
    for a, I in enumerate(edges):
        for J in edges[a:]:
            p = kernels.pairs(
                data.pos[I, None], data.pos[J], data.normal[J], data.normal[I, None]
            )
            f = factors(p)
            yield I, J, p, f, False
            if J != I:
                mirror = kernels.Pairs(
                    -p.dx, -p.dy, p.r, p.r_safe, data.normal[I, None], data.normal[J]
                )
                yield I, J, mirror, f, True


def _components(A: np.ndarray, N: int) -> np.ndarray:
    """The (..., N, N) component view of a matrix over N nodes.

    An N x N matrix is its own view. A 2N x 2N Stokes matrix is node-major:
    component (i, j) of node block (m, n) is A[2m + i, 2n + j], and the
    view is (2, 2, N, N).
    """
    if A.shape == (N, N):
        return A
    return A.reshape(N, 2, N, 2).transpose(1, 3, 0, 2)


def _ptr_fill(kernel: kernels.Kernel, data, h, kress: bool = False):
    """(A, phi_sp): the punctured trapezoidal matrix kernel*speed*h and,
    if ``kress``, the (N, N) phi*speed of every pair that :func:`_kress`
    reads, else None, both of the kernel's ``dtype``.

    The diagonal holds a finite placeholder, the kernel's factors at
    r = 1, that every :class:`Correction` overwrites. phi*speed is written
    in the same tile loop: phi's factors are read off the fill's where
    the kernel has ``phi_in_radial``, and evaluated on the tile's pairs
    otherwise. Its diagonal holds a finite placeholder too.
    """
    N = len(data.speed)
    size = kernel.components * N
    A = np.empty((size, size), dtype=kernel.dtype)
    phi_sp = np.empty((N, N), dtype=kernel.dtype) if kress else None
    out = _components(A, N)
    lead = out.ndim - 2
    planes = _planes(out, lead)

    def factors(p):
        f = kernel.radial(p)
        if phi_sp is None:
            return f, None
        if kernel.phi_in_radial is None:
            return f, kernel.phi_radial(p)
        return f, kernel.phi_in_radial(f)

    for I, J, p, (f, g), mirrored in _tiles(data, factors):
        speed = data.speed[I, None] if mirrored else data.speed[J]
        block = kernel.full_of(p, f)
        block *= speed
        block *= h
        tiles = list(zip(planes, _planes(block, lead)))
        if phi_sp is not None:
            tiles.append((phi_sp, kernel.phi_of(p, g) * speed))
        for plane, tile in tiles:
            if mirrored:
                plane[J, I] = tile.T
            else:
                plane[I, J] = tile
    return A, phi_sp


@dataclass(frozen=True)
class Correction:
    """The entries one log stencil changes in a PTR fill of N nodes.

    Row m takes ``band[..., m, :]`` added at the columns ``cols[m]``, the
    cyclic neighbours m + 1..K and m - 1..K, and ``diag[..., m]`` written
    at (m, m); the leading axes of ``band`` and ``diag`` are the component
    planes (none, or (2, 2) for Stokes). Every other entry of the
    corrected matrix is the fill's. The 2K + 1 positions of a row are
    distinct (2K + 1 < N), so the order of the writes does not matter.
    """

    cols: np.ndarray  # (N, 2K)
    band: np.ndarray  # (..., N, 2K)
    diag: np.ndarray  # (..., N)

    def _targets(self, A: np.ndarray):
        """(plane, band values, diagonal values) per component plane of A."""
        lead = self.diag.ndim - 1
        planes = _planes(_components(A, self.cols.shape[0]), lead)
        return zip(planes, _planes(self.band, lead), _planes(self.diag, lead))

    def apply(self, A: np.ndarray) -> list:
        """Add the band to ``A`` and write the diagonal, in place.

        Returns the entries it overwrote, for :meth:`restore`.
        """
        n = np.arange(self.cols.shape[0])
        rows = n[:, None]
        saved = []
        for plane, band, diag in self._targets(A):
            saved.append((plane[rows, self.cols], plane[n, n]))
            plane[rows, self.cols] += band
            plane[n, n] = diag
        return saved

    def restore(self, A: np.ndarray, saved: list):
        """Write back the entries that :meth:`apply` returned."""
        n = np.arange(self.cols.shape[0])
        for (plane, _, _), (band, diag) in zip(self._targets(A), saved):
            plane[n[:, None], self.cols] = band
            plane[n, n] = diag


def _correction(kernel: kernels.Kernel, data, h, stencil) -> Correction:
    """The :class:`Correction` of ``stencil`` for ``kernel``: h*w_j*phi*speed
    on the +-j cyclic diagonals, h*speed*(L + phi(0)*(2 w_0 - log(speed*h)))
    on the diagonal."""
    N = len(data.speed)
    _check_stencil(stencil, N)
    w = np.asarray(stencil.weights)
    j = np.arange(1, stencil.K + 1)
    n = np.arange(N)
    cols = (n[:, None] + np.concatenate([j, -j])) % N
    phi = kernel.phi(_node_pairs(data, n[:, None], cols))
    band = h * np.concatenate([w[1:], w[1:]]) * phi * data.speed[cols]
    phi0 = kernel.phi(_node_pairs(data, n, n))
    sp = data.speed
    diag = h * sp * (kernel.limit(data) + phi0 * (2 * w[0] - np.log(sp * h)))
    return Correction(cols, band, diag)


def _corrected(kernel: kernels.Kernel, curve, grid, stencil) -> np.ndarray:
    """The zeta-corrected matrix of ``kernel`` on ``grid``: the PTR fill,
    then the correction of ``stencil`` (built first, so that a stencil
    that does not fit is refused before the fill)."""
    data = sample(curve, grid.nodes)
    correction = _correction(kernel, data, grid.h, stencil)
    A, _ = _ptr_fill(kernel, data, grid.h)
    correction.apply(A)
    return A


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
    return _corrected(kernels.laplace_s(), curve, grid, stencil)


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
    return _corrected(_helmholtz_kernel(consts, which), curve, grid, stencil)


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
    return _corrected(make(), curve, grid, stencil)


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
    """First column of the circulant log-kernel quadrature matrix:
    R_d = -(4 pi/N) (sum_{1 <= m < N/2} cos(2 pi d m/N)/m + (-1)^d/N), the
    sum the real part of the FFT of the sequence 1/m."""
    check_grid(N, kress=True)
    m = np.arange(N)
    inverse = np.zeros(N)
    inverse[1 : N // 2] = 1.0 / m[1 : N // 2]
    col = np.fft.fft(inverse).real
    col += np.where(m % 2 == 0, 1.0, -1.0) / N
    col *= -4 * math.pi / N
    return col


def _by_lag(values: np.ndarray) -> np.ndarray:
    """The (N, N) circulant view of the N ``values`` whose entry (m, n) is
    values[(m - n) % N]: row m is values reversed, then rolled by m + 1,
    a window of the reversed values laid twice."""
    N = len(values)
    twice = np.concatenate([values[::-1], values[::-1]])
    return sliding_window_view(twice, N)[::-1][1:]


def kress_log_matrix(N: int) -> np.ndarray:
    """Circulant quadrature matrix for the kernel log(4 sin^2((t-s)/2)).

    Characterized by its action on the trigonometric basis:
    R @ cos(m s) = -(2 pi / m) cos(m t) for 1 <= m <= N/2-1, R @ 1 = 0,
    with the Nyquist mode integrated exactly against the truncated series.
    """
    return _by_lag(_kress_log_column(N)).copy()


def _kress_diagonal(kernel: kernels.Kernel, data, h, R, A):
    """Write the Kress diagonal of ``A``, over whatever it held."""
    n = np.arange(len(data.speed))
    phi0, sp = kernel.phi(_node_pairs(data, n, n)), data.speed
    A[n, n] = R[0] * (-phi0 * sp / 2) + h * sp * (
        kernel.limit(data) - phi0 * np.log(sp)
    )


def _kress(phi_sp, kernel: kernels.Kernel, data, h, A) -> np.ndarray:
    """Correct the PTR fill ``A`` (N, N) of ``kernel`` to its Kress matrix,
    in place, given ``phi_sp``, phi*speed at every pair as
    :func:`_ptr_fill` keeps it: add phi*speed*(h*log(4 sin^2(pi d/N))/2
    - R_d/2) at each lag d off the diagonal, and write the diagonal over
    whatever it held."""
    N = len(data.speed)
    R = _kress_log_column(N)
    n = np.arange(N)
    # log(4 sin^2(pi d/N)) at lag d, from the nearer of d and N - d so that
    # lags close to N keep their relative accuracy.
    d = np.minimum(n, N - n)
    logsin = np.log(4 * np.sin(d * (math.pi / N)) ** 2, where=d > 0, out=np.zeros(N))
    lagged = _by_lag(h * logsin / 2 - R / 2)
    for start in range(0, N, SLAB_ROWS):
        rows = slice(start, start + SLAB_ROWS)
        A[rows] += phi_sp[rows] * lagged[rows]
    _kress_diagonal(kernel, data, h, R, A)
    return A


def _kress_matrix(kernel: kernels.Kernel, curve, grid) -> np.ndarray:
    """The Kress matrix of ``kernel`` on ``grid``: the PTR fill, keeping
    phi*speed, then :func:`_kress`."""
    data = sample(curve, grid.nodes)
    A, phi_sp = _ptr_fill(kernel, data, grid.h, kress=True)
    return _kress(phi_sp, kernel, data, grid.h, A)


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
    return _kress_matrix(_helmholtz_kernel(consts, which), curve, grid)


def kress_laplace_slp_matrix(curve: ParametricCurve, grid: TrapezoidGrid) -> np.ndarray:
    """Spectral Kress discretization of the Laplace SLP (reference use)."""
    return _kress_matrix(kernels.laplace_s(), curve, grid)
