"""Nystrom systems of a layer-potential kernel on a smooth closed curve.

A system is I/2 plus the matrix of one :class:`~zetatrap.kernels.Kernel`
under one quadrature rule: the kernel's ``components`` and ``dtype``
size it (node-major unknowns, 2N for Stokes), and the off-curve
evaluators sum the kernel it was assembled from. nystrom names no
problem and no method. The experiments' two systems are exterior
Dirichlet Helmholtz, (I/2 + D - i*eta*S) tau = f of the combined-field
kernel (:func:`~zetatrap.kernels.helmholtz_combined`, whose real eta
keeps it well conditioned when Im kappa > 0), and exterior Stokes flow
past a body, (I/2 + S + D) tau = -u_inf of
:func:`~zetatrap.kernels.stokes_combined`.

Every system is the PTR fill, the plain trapezoidal matrix, with its
rule's correction applied on it. The stencil alone picks the rule: a
zeta stencil and one read from an external table add the same sparse
band and diagonal, and no stencil is Kress's spectral rule (kernels of
one component), a dense correction that reads Kress's pair factor
phi*speed, which a fill keeps beside its matrix when a rule at its N is
Kress. :func:`~zetatrap.quadrature.check_rule` is the one check of which
rule fits which kernel and N, made before anything is filled, and
:func:`~zetatrap.quadrature.correct` the one place that picks and
applies a rule's correction.
:func:`on_each_system` builds every rule's system at each N of a list
on one fill: the stencil rules in turn, each written back after use,
then the Kress system once, not undone, which every Kress rule at that
N measures. The fill at N is the fill at 2N read at every other row and
column, times 2, bit for bit, so it fills the largest N first and takes
the fill of every N below it by a power of two as one strided copy, its
curve samples as every s-th of the largest fill's (one sampling per
fill), and its factor as a strided view of the largest fill's. It holds
the largest fill and its factor, and one other system and its own
factor, at once (:func:`held_bytes`).
:func:`assemble_helmholtz` and :func:`assemble_stokes` build one system
of the two combined kernels on a fill of its own. :func:`locate` is the
one test of where a point lies; :func:`eval_field` and the harness's
config check apply it. One function decides a slab of points on every
s0-th node (:func:`_level`): most points on the coarse nodes, and those
it leaves unsure by the same code at s0 = 1, which is the test on all N
nodes (:func:`_decide`), with that test's answer either way.
:func:`eval_field` sums a far target over every s-th node, with s from
the target's distance, an upper bound on its decay sum that the pass
forms with its nearest node, and the density's spectrum
(:func:`_strides`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import kernels
from . import quadrature as quad
from .geometry import CurveSamples, ParametricCurve, sample
from .kernels import HelmholtzConstants
from .zetaweights import CorrectionStencil

__all__ = [
    "DiscretizedBIE",
    "SolveReport",
    "AssemblyError",
    "NearFieldError",
    "ConditioningBudgetError",
    "on_each_system",
    "held_bytes",
    "assemble_helmholtz",
    "assemble_stokes",
    "solve_direct",
    "solve_gmres",
    "resample_density",
    "cond_2norm",
    "locate",
    "eval_field",
    "eval_helmholtz_potential",
    "eval_stokes_velocity",
]

GMRES_TOL = 1e-14
# The stop of a warm-started solve, one decade below GMRES_TOL. A cold run
# overshoots its target and a warm one stops right at it: at GMRES_TOL the
# floor-level errors of a Stokes sweep lost up to 0.56 digits (5.3e-16 ->
# 1.9e-15 at the finest N).
GMRES_WARM_TOL = 1e-15
GMRES_MAX_ITER = 2000
COND_MAX_DIM = 4096
NEAR_FIELD_FACTOR = 5.0


class AssemblyError(ValueError):
    """Invalid assembly request."""


class NearFieldError(ValueError):
    """Evaluation target too close to the boundary for the plain PTR, or
    inside the curve."""


class ConditioningBudgetError(ValueError):
    """System too large for a dense SVD condition-number estimate."""


@dataclass(frozen=True)
class DiscretizedBIE:
    """Dense Nystrom system A tau = rhs together with its grid data and
    the kernel it was assembled from, which the off-curve evaluators sum."""

    grid: quad.TrapezoidGrid
    data: CurveSamples
    matrix: np.ndarray
    kernel: kernels.Kernel


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a linear solve.

    ``history`` is GMRES's estimated relative residual ||b - A x|| / ||b||
    after each of its ``iterations``, the value its stop reads; empty for
    LU and for a start that already met the stop.
    """

    solution: np.ndarray
    method: str  # "lu" or "gmres"
    converged: bool
    iterations: int
    residual_norm: float
    history: tuple[float, ...] = ()


def _nodes(curve: ParametricCurve, N: int):
    """The N-node trapezoidal grid of ``curve`` and the curve's samples at
    its nodes."""
    grid = quad.make_grid(curve.period, N)
    return grid, sample(curve, grid.nodes)


def _fill(kernel: kernels.Kernel, curve: ParametricCurve, N: int, kress: bool = False):
    """(system, Kress factor): the system whose matrix holds the plain
    trapezoidal (PTR) fill of ``kernel`` on N nodes (node-major
    components), and, if ``kress``, the (N, N) phi*speed that the fill
    kept for the Kress rule (see :func:`~zetatrap.quadrature._ptr_fill`),
    else None."""
    grid, data = _nodes(curve, N)
    A, phi_sp = quad._ptr_fill(kernel, data, grid.h, kress)
    return DiscretizedBIE(grid, data, A, kernel), phi_sp


def _slice(top, N: int):
    """(system, Kress factor) at N, read off the fill ``top``, a (system,
    factor) at M = s N nodes, s a power of two. The system holds the PTR
    fill at N, every s-th node's c x c block times s (c the kernel's
    ``components``, node-major), and every s-th of ``top``'s curve samples,
    each one strided copy; the factor is the view of every s-th row and
    column of ``top``'s, or None.

    h = period/M is period/N over s exactly, so node n at N is node s n
    at M, the same float, and so are its samples and every pair's kernel
    value; times s, kernel*speed*h rounds as it does at N. At any other
    s it does not: 3 * fill_384[::3, ::3] misses fill_128 by 7e-15.
    """
    bie, phi_sp = top
    M = bie.grid.N
    s = M // N
    c = bie.kernel.components
    A = (bie.matrix.reshape(M, c, M, c)[::s, :, ::s] * s).reshape(c * N, c * N)
    data = CurveSamples(**{k: v[::s].copy() for k, v in vars(bie.data).items()})
    system = DiscretizedBIE(quad.make_grid(bie.grid.period, N), data, A, bie.kernel)
    return system, None if phi_sp is None else phi_sp[::s, ::s]


def _timed(make, *args):
    t0 = time.perf_counter()
    return make(*args), time.perf_counter() - t0


def _power_of_two(x: float) -> bool:
    return math.frexp(x)[0] == 0.5


def _nested(n_list):
    """(N_max, the N of ``n_list`` whose fill is a slice of N_max's): those
    with N_max/N a power of two above 1 (see :func:`_slice`)."""
    top = max(n_list)
    return top, [N for N in n_list if N < top and _power_of_two(top / N)]


def held_bytes(kernel: kernels.Kernel, n_list, stencils) -> int:
    """The bytes of dense matrices that :func:`on_each_system` may hold at
    once on these arguments, b (c N)^2 per system of the kernel's c
    ``components`` and b-byte ``dtype`` (16 N^2 Helmholtz, 32 N^2 Stokes),
    and, when a rule is Kress, b N^2 for the factor of each fill (a slice's
    is a view of N_max's): with an N to slice, the N_max fill, and the
    largest system of another N; else the largest fill. Every rule at one
    N, Kress included, runs on that N's one fill."""
    kress = any(stencil is None for stencil in stencils)
    itemsize = np.dtype(kernel.dtype).itemsize

    def system(N):
        return itemsize * (kernel.components * N) ** 2

    def fill(N):
        return system(N) + (itemsize * N * N if kress else 0)

    top, sliced = _nested(n_list)
    if not sliced:
        return fill(top)
    coarse = max(system(N) if N in sliced else fill(N) for N in n_list if N != top)
    return fill(top) + coarse


def _rules(fill, stencils, measure) -> list:
    """(assemble seconds, ``measure(i, bie)``) for the system of each
    ``stencils[i]`` at one N, from ``fill``, a ((system, Kress factor),
    seconds). A system is the fill corrected in place by
    :func:`~zetatrap.quadrature.correct`, plus I/2: the stencil rules in
    turn, each written back after its ``measure``, even if it raises, then
    the Kress system, corrected once from the fill's factor and not undone,
    which each Kress rule measures. A stencil's correction writes every
    entry of the diagonal, so the entries it saves undo the I/2 too. A
    rule's seconds are the fill's plus its correction's."""
    (bie, phi_sp), fill_s = fill
    A = bie.matrix
    out = [None] * len(stencils)
    kress = [i for i, stencil in enumerate(stencils) if stencil is None]
    stenciled = [i for i, stencil in enumerate(stencils) if stencil is not None]
    for i in stenciled + kress[:1]:
        t0 = time.perf_counter()
        restore = quad.correct(bie.kernel, bie.data, bie.grid.h, A, phi_sp, stencils[i])
        A[np.diag_indices_from(A)] += 0.5
        seconds = fill_s + (time.perf_counter() - t0)
        try:
            for j in kress if restore is None else [i]:
                out[j] = (seconds, measure(j, bie))
        finally:
            if restore is not None:
                restore()
    return out


def on_each_system(
    kernel: kernels.Kernel, curve: ParametricCurve, n_list, stencils, measure
) -> list:
    """One list per N of ``n_list``, strictly ascending, in its order: the
    (assemble seconds, ``measure(i, bie)``) of the system ``bie`` of
    ``kernel`` plus I/2 under the rule of each ``stencils[i]`` at that N,
    in their order; None is Kress.

    Every rule is checked at every N before anything is filled. At one N
    the rules share one PTR fill: each stencil rule's correction and I/2
    are applied for the span of its ``measure`` and then written back,
    even if it raises. The Kress system comes last, corrected once on the
    same fill and not undone, and every Kress rule measures it. When a
    rule is Kress, every fill keeps phi*speed at its N in the same tile
    loop, and the Kress correction reads it.

    The N whose fill is a slice of the fill at N_max = max(``n_list``)
    (N_max/N a power of two, see :func:`_slice`) share that fill: it is
    taken first and held until N_max, the fill and curve samples of each
    are strided copies of N_max's, and its Kress factor a strided view.
    Any other N fills afresh. At most the N_max fill and the system of one
    other N, each with its factor, are alive at once (see
    :func:`held_bytes`). A rule's seconds are its fill's, or its slice's,
    plus its correction's: the N_max rows carry the whole N_max fill, and
    the Kress rules at one N the same seconds. The matrix of ``bie`` holds
    the system only during ``measure``, which must not write to it.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise AssemblyError(f"N must ascend strictly, got {n_list}")
    for N in n_list:
        for stencil in stencils:
            quad.check_rule(kernel, N, stencil)
    top, sliced = _nested(n_list)
    kress = any(stencil is None for stencil in stencils)
    # the N_max fill and its seconds, taken first when an N slices it
    held = _timed(_fill, kernel, curve, top, kress) if sliced else None

    def fill(N):
        if N in sliced:
            return _timed(_slice, held[0], N)
        if N == top and held is not None:
            return held
        return _timed(_fill, kernel, curve, N, kress)

    # each N's fill lives only for its own _rules call
    return [_rules(fill(N), stencils, measure) for N in n_list]


def _assemble(kernel, curve, N, stencil) -> DiscretizedBIE:
    """The system of ``kernel`` under the rule of ``stencil`` on a fill of
    its own: :func:`~zetatrap.quadrature._matrix`, which checks the rule
    before it fills, plus I/2."""
    grid, data = _nodes(curve, N)
    A = quad._matrix(kernel, data, grid.h, stencil)
    A[np.diag_indices_from(A)] += 0.5
    return DiscretizedBIE(grid, data, A, kernel)


def assemble_helmholtz(
    curve: ParametricCurve,
    N: int,
    consts: HelmholtzConstants,
    stencil: CorrectionStencil | None,
) -> DiscretizedBIE:
    """Combined-field system I/2 + D - i*eta*S on an N-node grid.

    D - i*eta*S is built in one pass of the combined kernel
    (:func:`~zetatrap.kernels.helmholtz_combined`), the PTR fill, which
    the correction of ``stencil`` turns into its rule's matrix, whatever
    the stencil's source; no stencil is the Kress spectral rule (even N).
    I/2 is added to the diagonal in place.
    """
    return _assemble(kernels.helmholtz_combined(consts.kappa), curve, N, stencil)


def assemble_stokes(
    curve: ParametricCurve, N: int, stencil: CorrectionStencil
) -> DiscretizedBIE:
    """Combined Stokes system I/2 + S + D (node-major 2N unknowns).

    S + D is built in one pass of the combined kernel
    (:func:`~zetatrap.kernels.stokes_combined`) into one 2N x 2N matrix,
    the PTR fill, with the correction of ``stencil`` and I/2 applied in
    place.
    """
    return _assemble(kernels.stokes_combined(), curve, N, stencil)


def solve_direct(A: np.ndarray, rhs: np.ndarray) -> SolveReport:
    """LU solve with an explicit residual report."""
    x = np.linalg.solve(A, rhs)
    res = float(np.linalg.norm(A @ x - rhs))
    return SolveReport(
        solution=x, method="lu", converged=True, iterations=0, residual_norm=res
    )


def solve_gmres(
    A: np.ndarray,
    rhs: np.ndarray,
    tol: float = GMRES_TOL,
    max_iter: int = GMRES_MAX_ITER,
    x0: np.ndarray | None = None,
) -> SolveReport:
    """Unrestarted GMRES with classical Gram-Schmidt run twice (CGS2).

    GMRES runs on the residual r0 = rhs - A x0 of the starting guess
    ``x0`` (zero by default) and returns x0 plus its correction; the
    report's ``iterations`` count from x0, so an x0 that already meets
    the stop returns itself after 0 iterations. The stop is the
    estimated relative residual ||b - A x|| / ||b|| < ``tol``, relative to
    ``rhs`` whatever x0 is. ``converged`` is the true relative residual
    below 10 ``tol``, and never stricter than 10 GMRES_TOL: a tighter
    ``tol`` moves the stop, not the verdict. A zero ``rhs`` has the zero
    solution. A nonconverged run returns a report with
    ``converged=False`` rather than raising. The report's ``history``
    holds the estimated relative residual after each iteration.
    """
    n = rhs.shape[0]
    dtype = np.result_type(A.dtype, rhs.dtype, float)
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        x0 = None
    r0 = rhs if x0 is None else rhs - A @ x0
    r0norm = float(np.linalg.norm(r0))
    if r0norm == 0.0 or r0norm / bnorm < tol:
        x = np.zeros(n, dtype=dtype) if x0 is None else np.array(x0, dtype=dtype)
        history = []
    else:
        x, history = _krylov_correction(A, r0, r0norm, bnorm, tol, min(max_iter, n))
        if x0 is not None:
            x = x0 + x
    res = float(np.linalg.norm(A @ x - rhs))
    return SolveReport(
        solution=x,
        method="gmres",
        converged=res == 0.0 or res / bnorm < 10 * max(tol, GMRES_TOL),
        iterations=len(history),
        residual_norm=res,
        history=tuple(history),
    )


def _krylov_correction(A, r0, r0norm: float, bnorm: float, tol: float, max_iter: int):
    """(d, history): the GMRES correction d of A d = r0, stopped when the
    estimated residual ||r0 - A d|| drops below ``tol`` * ``bnorm``, and that
    estimate over ``bnorm`` after each iteration.

    Each new direction is orthogonalized against the whole basis by
    classical Gram-Schmidt run twice (CGS2), two matrix-vector products
    with the basis a pass. The basis is allocated once, (max_iter + 1) x n:
    memory holds only the pages of the rows written (2 MiB pages where
    numpy asks for huge pages, on arrays of 4 MiB or more), so a short
    solve keeps no n x max_iter workspace resident. The Givens rotations
    of the Hessenberg columns run on Python scalars.
    """
    n = r0.shape[0]
    dtype = np.result_type(A.dtype, r0.dtype, float)
    V = np.empty((max_iter + 1, n), dtype=dtype)
    V[0] = r0 / r0norm
    columns = []  # the rotated columns of H, R[: k + 1, k] each
    cs, sn = [], []
    g = [r0norm]
    history = []
    for k in range(max_iter):
        w = A @ V[k]
        basis = V[: k + 1]
        h = np.conj(basis @ np.conj(w))
        w -= h @ basis
        correction = np.conj(basis @ np.conj(w))  # the second pass
        w -= correction @ basis
        h += correction
        hk1 = float(np.linalg.norm(w))
        col = h.tolist() + [hk1]
        # Apply the accumulated Givens rotations to the new column.
        for i in range(k):
            t = cs[i] * col[i] + sn[i] * col[i + 1]
            col[i + 1] = -sn[i].conjugate() * col[i] + cs[i] * col[i + 1]
            col[i] = t
        diag = col[k]
        denom = math.hypot(abs(diag), hk1)
        if denom == 0.0:
            c, s = 1.0, 0.0
        elif diag == 0.0:
            c, s = 0.0, 1.0
        else:
            c = abs(diag) / denom
            s = diag / abs(diag) * hk1 / denom
        cs.append(c)
        sn.append(s)
        col[k] = c * diag + s * hk1
        columns.append(col[: k + 1])
        g.append(-s.conjugate() * g[k])
        g[k] = c * g[k]
        history.append(abs(g[k + 1]) / bnorm)
        if history[-1] < tol or hk1 == 0.0:
            break
        V[k + 1] = w / hk1
    iters = len(columns)
    R = np.zeros((iters, iters), dtype=dtype)
    for j, col in enumerate(columns):
        R[: j + 1, j] = col
    y = np.linalg.solve(R, np.array(g[:iters], dtype=dtype))
    return V[:iters].T @ y, history


def resample_density(tau: np.ndarray, N: int) -> np.ndarray:
    """Samples on M equispaced nodes carried to N by trigonometric (FFT)
    interpolation along axis 0, so a node-major (M, 2) Stokes density
    goes through as it is.

    The modes |k| < min(M, N)/2 are kept. Going up from an even M, the
    samples' Nyquist mode is split evenly between +M/2 and -M/2; going
    down to an even N, the modes at +-N/2 are dropped. Real input gives
    real output.
    """
    tau = np.asarray(tau)
    M = tau.shape[0]
    if N == M:
        return tau.copy()
    coef = np.fft.fft(tau, axis=0)
    out = np.zeros((N,) + tau.shape[1:], dtype=complex)
    m = min(M, N)
    half = (m - 1) // 2  # the modes |k| <= half, kept whole
    out[: half + 1] = coef[: half + 1]
    out[N - half :] = coef[M - half :]
    if N > M and M % 2 == 0:
        out[M // 2] = out[N - M // 2] = coef[M // 2] / 2
    values = np.fft.ifft(out, axis=0) * (N / M)
    return values if np.iscomplexobj(tau) else values.real


def cond_2norm(A: np.ndarray) -> float:
    """2-norm condition number via dense SVD (dimension-capped)."""
    if max(A.shape) > COND_MAX_DIM:
        raise ConditioningBudgetError(
            f"matrix dimension {max(A.shape)} exceeds the SVD budget {COND_MAX_DIM}"
        )
    s = np.linalg.svd(A, compute_uv=False)
    return float(s[0] / s[-1])


def _coarse_step(N: int) -> int:
    """s0, the step of the decision pass's coarse nodes: the largest power
    of two dividing N with 16 s0^2 <= N (8 at N = 1024, 4 at N = 256 and
    300, 1 below N = 64), where a target's N/s0 coarse pairs and its
    refine over a few windows of s0 nodes cost about alike."""
    s0 = 1
    while N % (2 * s0) == 0 and 16 * (2 * s0) ** 2 <= N:
        s0 *= 2
    return s0


def _refine(data: CurveSamples, targets, r, delta: float, growth: float):
    """(nearest, d, bound) of ``targets``, each with (M, N/s0) pair
    distances ``r`` to every s0-th node: the nearest node (the first on
    ties) and the distance d to it, from the pairs with the nodes of each
    coarse node within the least coarse distance d0 plus a slack of the
    target, delta and a few ulps of its distances. Every node lies within
    ``delta`` of its coarse node (the s0 nodes from s0/2 before it), so a
    coarse node farther out holds no node nearer than d0; at s0 = 1 delta
    is 0, and the window is the nodes within those ulps of d0. And an
    upper bound on the decay sum sum_n exp(-growth (r_n - d)) over all N
    nodes: exact on those windows of nodes, and elsewhere s0 times each
    coarse node's term times exp(|growth| slack); N where growth is 0."""
    N = len(data.speed)
    s0 = N // r.shape[1]
    # the rounding of the pair distances, a few ulps of the largest
    slack = delta * (1 + 1e-12) + 16 * np.finfo(float).eps * r.max(axis=1)
    window = r <= (r.min(axis=1) + slack)[:, None]
    row, coarse = np.nonzero(window)
    node = ((coarse[:, None] * s0 + np.arange(-(s0 // 2), s0 - s0 // 2)) % N).ravel()
    row = np.repeat(row, s0)
    p = kernels.pairs(targets[row], data.pos[node])
    start = np.flatnonzero(np.diff(row, prepend=-1))
    count = np.diff(start, append=len(row))
    tied = p.r == np.repeat(np.minimum.reduceat(p.r, start), count)
    nearest = np.minimum.reduceat(np.where(tied, node, N), start)
    d = p.r[node == np.repeat(nearest, count)]
    if not growth:
        return nearest, d, np.full(len(d), float(N))
    inner = np.add.reduceat(np.exp(-growth * (p.r - np.repeat(d, count))), start)
    # outside the window r_c > d0 + slack >= d + slack, so each exponent is
    # at most 0 where growth > 0 and no term overflows; the window's terms,
    # summed exactly above, are left out as exp(-inf)
    exponent = abs(growth) * slack[:, None] - growth * (r - d[:, None])
    exponent[window] = -np.inf
    outer = s0 * np.exp(exponent).sum(axis=1)
    # room for the rounding of a sum of N such terms, and to spare
    return nearest, d, (inner + outer) * (1 + 1e-10)


def _level(data: CurveSamples, h: float, targets: np.ndarray, growth: float, s0: int):
    """(sure, outside, usable, nearest, bound) of ``targets``, finite or
    NaN, from their pairs with every s0-th of the nodes ``data``: the
    targets this level decides, and of those the ones outside and the
    usable ones; for each usable target its nearest node and an upper
    ``bound`` on its decay sum sum_n exp(-growth (r_n - d)) over all N
    nodes, d its distance to that node.

    The winding number is the trapezoidal sum of the Laplace double layer
    over the s0-th nodes. At s0 = 1 it is the rule itself: a target is
    outside when it is below 1/2, and every target is decided. Above 1,
    let delta = s0/2 times the longest chord between neighbouring nodes,
    which bounds the distance of every node to its coarse node (the half
    arc of the coarse spacing: half its chord is no bound, since the arc's
    midpoint lies farther than that from both ends), and d0 the least
    coarse distance. A target is decided when d0 - delta >=
    NEAR_FIELD_FACTOR h max(speed), so no node lies within the near field,
    and its winding number lies within 1/4 of 0 (outside) or +-1 (inside).
    The error of that sum decays like exp(-2 pi d/(s0 h speed)) with the
    distance d, that of the full sum s0 times faster in the exponent, so
    past that distance the full sum falls on the same side of 1/2.

    At any s0 an outside target takes its nearest node and bound from
    :func:`_refine`, and is usable when it lies at least NEAR_FIELD_FACTOR
    h times that node's speed from it.
    """
    pos = np.ascontiguousarray(data.pos[::s0])
    normal = np.ascontiguousarray(data.normal[::s0])
    weight = data.speed[::s0] * (h * s0)
    step = data.pos - np.roll(data.pos, 1, axis=0)
    delta = s0 // 2 * float(np.sqrt(step[:, 0] ** 2 + step[:, 1] ** 2).max())
    p = kernels.pairs(targets[:, None], pos, normal)
    # Winding number: the Laplace double layer integrates to -2 pi inside.
    winding = np.abs(kernels.laplace_d().full(p) @ weight) / (2 * math.pi)
    if s0 == 1:
        sure, outside = np.ones(len(targets), dtype=bool), winding < 0.5
    else:
        clear = p.r.min(axis=1) - delta >= NEAR_FIELD_FACTOR * h * data.speed.max()
        outside = clear & (winding <= 0.25)
        sure = outside | (clear & (np.abs(winding - 1) <= 0.25))
    at = np.flatnonzero(outside)
    nearest, d, bound = _refine(data, targets[at], p.r[at], delta, growth)
    ok = d >= NEAR_FIELD_FACTOR * h * data.speed[nearest]
    usable = np.zeros(len(targets), dtype=bool)
    usable[at[ok]] = True
    return sure, outside, usable, nearest[ok], bound[ok]


def _decide(data: CurveSamples, h: float, targets: np.ndarray, growth: float = 0.0):
    """Yield (idx, outside, usable, nearest, bound) on chunks of
    ``targets`` (NaN where not finite) and the nodes ``data``, each
    target in one chunk: the indices ``idx`` of the chunk's targets and
    :func:`_level`'s answer on them, with ``nearest`` and ``bound`` of its
    usable targets.

    Each slab of targets is first decided on every s0-th node, s0 =
    :func:`_coarse_step` (N); the targets that this level leaves unsure
    then take the same code at s0 = 1, the rule on all N nodes, in slabs
    of SLAB_ROWS. Either way a target's answer is the rule's on all N
    nodes. Its bound is the decay sum within 1e-10 where it was decided
    at s0 = 1, and within a factor exp(2 |growth| slack) on the coarse
    nodes (:func:`_refine`).
    """
    # inf - x is inf and inf/inf NaN with a warning; NaN passes quietly
    targets = np.where(np.isfinite(targets), targets, np.nan)
    s0 = _coarse_step(len(data.speed))
    # a slab of s0 SLAB_ROWS targets on the coarse nodes holds as many
    # pairs as one of SLAB_ROWS on all N
    for rows in quad.slabs(len(targets), s0):
        idx = np.arange(rows.start, rows.stop)
        sure, outside, usable, *rest = _level(data, h, targets[rows], growth, s0)
        yield idx[sure], outside[sure], usable[sure], *rest
        unsure = idx[~sure]
        for part in quad.slabs(len(unsure)):
            yield unsure[part], *_level(data, h, targets[unsure[part]], growth, 1)[1:]


def locate(curve: ParametricCurve, N: int, points) -> tuple[np.ndarray, np.ndarray]:
    """(outside, usable) for each of ``points`` on the N-node grid of
    ``curve``: outside when the winding number, the trapezoidal sum of the
    Laplace double layer over the nodes, is below 1/2, and usable when
    also at least NEAR_FIELD_FACTOR local arclength spacings from its
    closest node, where the plain PTR holds. A point that is not finite
    is neither. ``points`` are read as
    :func:`~zetatrap.kernels.as_points` reads them.

    Most points are decided on every s0-th node, the rest by the same
    code on all N nodes (:func:`_decide`), with the answer of the rule on
    all N nodes either way.
    """
    grid, data = _nodes(curve, N)
    targets = kernels.as_points(points)
    outside = np.zeros(len(targets), dtype=bool)
    usable = np.zeros(len(targets), dtype=bool)
    for idx, out, ok, *_ in _decide(data, grid.h, targets):
        outside[idx], usable[idx] = out, ok
    return outside, usable


def _alias_power(power: np.ndarray, s: int) -> np.ndarray:
    """The sources' ``power`` |w_m|^2 at each distance r = 0..N/2 from the
    frequencies j N/s, j = 1..s-1, that a sum over every s-th of the N
    nodes aliases onto the mean, summed over j (each mode once per j)."""
    N = len(power)
    r = np.arange(N // 2 + 1)
    alias = np.arange(1, s)[:, None] * (N // s)
    out = (power[(alias + r) % N] + power[(alias - r) % N]).sum(axis=0)
    out[0] /= 2
    out[-1] /= 2  # N is even: +N/2 and -N/2 are one mode
    return out


def _aliases(data: CurveSamples, density: np.ndarray):
    """``alias(s)``, :func:`_alias_power` of the power spectrum of the
    sources w, w*n_x and w*n_y, w the ``density`` at the nodes ``data``
    (tau*speed*h), from one FFT; each s is computed once, when first asked.

    The kernel is linear in the source normal n, and its other factors
    depend on the target and the node's position alone, so its sum
    multiplies those three. The normal carries the curve's own
    singularities (1/speed), which no target distance shows.
    """
    N = len(density)
    sources = np.einsum("n...,nc->n...c", density, np.column_stack([np.ones(N), data.normal]))
    power = (np.abs(np.fft.fft(sources, axis=0) / N) ** 2).reshape(N, -1).sum(axis=1)
    return lru_cache(maxsize=None)(partial(_alias_power, power))


def _strides(bie: DiscretizedBIE, tol: float, alias, closest: kernels.Pairs, nearest, bound):
    """The stride s (1, 2, 4, ... dividing N) of each target whose pair
    with its nearest node ``nearest`` is ``closest``: the largest s at
    which the sum over every s-th node, weights times s, is predicted to
    differ from the sum over all N nodes by at most ``tol``. The rule
    reads ``bound``, an upper bound on the target's decay sum (from
    :func:`_refine` at either step of the pass), where it would read the
    sum. ``alias(s)`` gives the density's power at each distance
    r = 0..N/2 from the frequencies that stride s aliases
    (:func:`_alias_power`).

    That difference is exactly the sum over j = 1..s-1 of the discrete
    Fourier coefficient at j N/s of kernel times density along the nodes:
    the convolution of their spectra. The kernel's is bounded at each
    target from its analyticity strip in the curve parameter t. A target
    at distance d from a node of speed v and curvature k > 0 (convex
    toward it) sees the kernel's singularity at |Im t| = log(1 + k d)/(k v),
    that of the osculating circle, and at d/v where k <= 0. The kernel's
    modes then decay like exp(-alpha q), alpha = 2 pi |Im t|/period,
    beyond the q0 = |Re kappa| v period/(2 pi) of its oscillation along
    the curve, and on the strip it grows by exp(Im kappa d), where it no
    longer decays with Im kappa. No mode exceeds the kernel's l1 norm
    over the nodes, its size K at the nearest node times the decay sum
    sum_n exp(-Im kappa (r_n - d)). So the envelope at q is
    min(l1, N K exp(Im kappa d - alpha (q - q0)+)), and the prediction is
    the root-sum-square over the density's modes m and the j N/s of
    |w_m| times the envelope at |j N/s - m|: the modes near j N/s are
    mostly rounding noise, of unrelated phases.

    Each step from the decay sum to s is monotone in it (a product, log,
    min, exp and a non-negative matrix product in a fixed order), so a
    bound at or above the sum gives an s no larger than the sum's, whose
    predicted error is at most ``tol`` too. Where the bound is the sum
    up to its rounding room (every target decided at s0 = 1), s is the
    sum's unless the sum's predicted error lies within that room of
    ``tol``.
    """
    data, N, period = bie.data, bie.grid.N, bie.grid.period
    kappa = complex(bie.kernel.wavenumber)
    d = closest.r
    v = data.speed[nearest]
    kd = np.maximum(data.curvature[nearest], 0.0) * d
    strip = d / v * np.where(kd > 0, np.log1p(kd) / np.where(kd > 0, kd, 1.0), 1.0)
    alpha = 2 * math.pi / period * strip
    q0 = abs(kappa.real) * v * period / (2 * math.pi)
    size = np.abs(bie.kernel.full(closest)).reshape(-1, len(d)).max(axis=0)
    size = np.maximum(size, np.finfo(float).tiny)
    # the squared envelope at q = 0..N/2, built in place from its log
    square = np.arange(N // 2 + 1) - q0[:, None]
    np.maximum(square, 0.0, out=square)
    square *= -2 * alpha[:, None]
    square += 2 * (np.log(N * size) + kappa.imag * d)[:, None]
    np.minimum(square, 2 * np.log(size * bound)[:, None], out=square)
    np.exp(square, out=square)
    stride = np.ones(len(d), dtype=int)
    s = 2
    while N % s == 0 and s < N:
        up = (stride == s // 2) & (np.sqrt(square @ alias(s)) <= tol)
        if not up.any():
            break
        stride[up] = s
        s *= 2
    return stride


def _target_strides(bie: DiscretizedBIE, tol: float, alias, targets: np.ndarray):
    """(stride, nearest) of each of ``targets``, from the chunks of
    :func:`_decide`: 0 and 0 where refused, else its stride
    (:func:`_strides`, read from the chunk's bound on its decay sum) and
    nearest node."""
    data = bie.data
    growth = complex(bie.kernel.wavenumber).imag
    stride = np.zeros(len(targets), dtype=int)
    nearest = np.zeros(len(targets), dtype=int)
    for idx, _, usable, n, bound in _decide(data, bie.grid.h, targets, growth):
        at = idx[usable]
        if not len(at):
            continue
        closest = kernels.pairs(targets[at], data.pos[n], data.normal[n])
        stride[at] = _strides(bie, tol, alias, closest, n, bound)
        nearest[at] = n
    return stride, nearest


def eval_field(
    bie: DiscretizedBIE, tau: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The representation's field at the targets, and which targets it
    accepts.

    It accepts the targets that :func:`locate` finds usable on its nodes:
    inside the curve the exterior representation is not the solution.
    The field, the system's kernel summed against tau, is an (M,) array
    for a kernel of one component (u = D[tau] - i*eta*S[tau] for the
    combined field) and (M, 2) for Stokes (the velocity S[tau] + D[tau]),
    of the kernel's dtype; NaN at a refused target, in both parts of a
    complex value. ``targets`` are read as
    :func:`~zetatrap.kernels.as_points` reads them.

    A decision pass over the targets decides acceptance and gives each
    accepted target a stride s, 1, 2, 4, ... dividing N: the largest at
    which the plain PTR over every s-th node, weights times s, is
    predicted to differ from the sum over all N by at most the rounding
    level eps * max|tau| of the density, the scale of the field on the
    curve, where it is (I/2 + ...) tau. The rule (:func:`_strides`) reads
    two things: the kernel's Fourier decay at the target, from its
    distance to the nearest node, that node's speed and curvature, the
    kernel's wavenumber kappa and its decay sum over the nodes, and the
    density's own spectrum, from one FFT per call of tau*speed*h and its
    products with the source normal. At real kappa the kernel does not
    decay away from the curve, so the density's tail near N/s, times the
    kernel's full size, keeps s at 1; where the kernel decays
    (Im kappa > 0) far targets take s = 2 or more. The tolerance is
    absolute: where the whole field is below it, far out in a decaying
    wave, s reaches N/2.

    The pass runs one level function (:func:`_level`) at two steps
    (:func:`_decide`). Every target is paired with every s0-th node
    first, s0 = 8 at N = 1024; a target that this coarse level decides
    (its coarse distance, less the half arc delta of the coarse spacing,
    at least NEAR_FIELD_FACTOR h max(speed), and its coarse winding number
    within 1/4 of 0 or +-1) is refused if inside. The rest run the same
    code at s0 = 1, the rule on all N nodes, which decides every target.
    At either step an outside target takes its nearest node from the
    exact pairs with the few windows of nodes that can hold it, and an
    upper bound on its decay sum: exact on those windows and elsewhere
    s0 times the coarse terms times exp(Im kappa slack), slack delta
    plus a few ulps (at s0 = 1, the full sum within 1e-10; at real
    kappa, N with no pairs). Its stride is read from that bound, so it
    is at most the stride of the exact sum and meets the same tolerance;
    at s0 = 1 it is that stride. The masks and nearest nodes are those
    of the rule on all N nodes, bit for bit. After the pass each
    stride's targets, 1 included, are summed on the contiguous copy of
    every s-th node.
    """
    targets = kernels.as_points(targets)
    data, N = bie.data, bie.grid.N
    weight = data.speed * bie.grid.h
    kernel = bie.kernel
    if kernel.components == 1:
        density = weight * tau
        layer_sum = np.matmul
    else:
        density = tau.reshape(N, kernel.components) * weight[:, None]
        layer_sum = partial(np.einsum, "ijmn,nj->mi")
    values = np.full((len(targets),) + density.shape[1:], np.nan, dtype=kernel.dtype)
    if np.iscomplexobj(values):
        values.imag = np.nan
    tol = np.finfo(float).eps * np.abs(tau).max()
    stride, _ = _target_strides(bie, tol, _aliases(data, density), targets)
    for s in np.unique(stride[stride > 0]):
        at = np.flatnonzero(stride == s)
        pos = np.ascontiguousarray(data.pos[::s])
        normal = np.ascontiguousarray(data.normal[::s])
        coarse = density[::s] * s
        for rows in quad.slabs(len(at)):
            p = kernels.pairs(targets[at[rows], None], pos, normal)
            values[at[rows]] = layer_sum(kernel.full(p), coarse)
    return values, stride > 0


def _accepted_field(bie: DiscretizedBIE, tau, targets, components: int) -> np.ndarray:
    """:func:`eval_field`'s values on a system of ``components`` unknowns
    per node, raising NearFieldError if it refused a target."""
    if bie.kernel.components != components:
        raise AssemblyError(f"the system has {bie.kernel.components} unknowns a node")
    targets = kernels.as_points(targets)
    values, accepted = eval_field(bie, tau, targets)
    if not accepted.all():
        raise NearFieldError(
            f"target {targets[~accepted][0]} inside the curve or within "
            f"{NEAR_FIELD_FACTOR:g} grid spacings of the boundary; refine or use "
            "a near-field scheme"
        )
    return values


def eval_helmholtz_potential(
    bie: DiscretizedBIE, tau: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Evaluate u = D[tau] - i*eta*S[tau] at well-separated exterior targets.

    The far-field integrand is smooth, so the plain PTR applies. Targets
    that :func:`eval_field` refuses raise :class:`NearFieldError`.
    """
    return _accepted_field(bie, tau, targets, components=1)


def eval_stokes_velocity(
    bie: DiscretizedBIE, tau: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Velocity of the combined representation u = S[tau] + D[tau] off-curve.

    Targets that :func:`eval_field` refuses raise :class:`NearFieldError`.
    """
    return _accepted_field(bie, tau, targets, components=2)
