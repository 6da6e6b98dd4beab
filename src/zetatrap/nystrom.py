"""Nystrom systems for the Helmholtz and Stokes boundary integral equations.

Exterior Dirichlet Helmholtz uses the combined-field representation
u = D[tau] - i*eta*S[tau], giving the second-kind system
(I/2 + D - i*eta*S) tau = f. The coupling eta must be real for the
operator to stay uniformly well conditioned when Im kappa > 0; we take
eta = Re kappa (falling back to |kappa| for purely imaginary kappa), see
:func:`~zetatrap.kernels.combined_field_coupling`.
Exterior Stokes flow past a body uses the combined single-plus-double
representation with the system (I/2 + S + D) tau = -u_inf.

Each system is assembled in one pass of its combined kernel
(:func:`~zetatrap.kernels.helmholtz_combined` or
:func:`~zetatrap.kernels.stokes_combined`) into one dense matrix, with
I/2 added to its diagonal in place; the off-curve evaluators sum the
kernel the system was assembled from. Every system is the PTR fill, the
plain trapezoidal matrix, with its rule's correction applied on it. The
stencil alone picks the rule: a zeta stencil and one read from an
external table add the same sparse band and diagonal, for either
system, and no stencil is Kress's spectral rule (Helmholtz only), a
dense correction that reads Kress's pair factor phi*speed, which a fill
keeps beside its matrix when a rule at its N is Kress. :func:`_check_rule`
is the one check of which rule fits which N, before anything is filled.
:func:`on_each_system` builds every rule's system at each N of a list
on one fill: the stencil rules in turn, each written back after use,
then the Kress system once, not undone, which every Kress rule at that
N measures. The fill at N is the fill at 2N read at
every other row and column, times 2, bit for bit, so it fills the
largest N first and takes the fill of every N below it by a power of
two as one strided copy, and its factor as a strided view of the
largest fill's. It holds the largest fill and its factor, and one other
system and its own factor, at once (:func:`held_bytes`).
:func:`assemble_helmholtz` and :func:`assemble_stokes` build one system
on a fill of its own. :func:`locate` is the one test of where a point
lies; :func:`eval_field` and the harness's config check apply it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial

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
    the combined kernel it was assembled from, which the off-curve
    evaluators sum."""

    kind: str  # "helmholtz" or "stokes"
    curve: ParametricCurve
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


def _check_rule(kind: str, N: int, stencil: CorrectionStencil | None):
    """Raise unless the rule of ``stencil`` runs on an N-node ``kind``
    system: a log stencil that fits N, or None for Kress (Helmholtz only,
    even N)."""
    if kind not in ("helmholtz", "stokes"):
        raise AssemblyError(f"unknown system {kind!r}")
    if stencil is not None:
        quad._check_stencil(stencil, N)
    elif kind != "helmholtz":
        raise AssemblyError("the Kress rule is built for Helmholtz only")
    else:
        quad.check_grid(N, kress=True)


def _nodes(curve: ParametricCurve, N: int):
    """The N-node trapezoidal grid of ``curve`` and the curve's samples at
    its nodes."""
    grid = quad.make_grid(curve.period, N)
    return grid, sample(curve, grid.nodes)


def _fill(
    kind: str,
    curve: ParametricCurve,
    N: int,
    consts: HelmholtzConstants | None,
    kress: bool = False,
):
    """(system, Kress factor): the system whose matrix holds the plain
    trapezoidal (PTR) fill of ``kind`` on N nodes, combined field (needs
    ``consts``) or Stokes S + D (node-major 2N unknowns), and, if
    ``kress``, the (N, N) phi*speed that the fill kept for the Kress rule
    (see :func:`~zetatrap.quadrature._ptr_fill`), else None."""
    if kind == "helmholtz":
        kernel = kernels.helmholtz_combined(consts.kappa)
        A = np.empty((N, N), dtype=complex)
    else:
        kernel = kernels.stokes_combined()
        A = np.empty((2 * N, 2 * N))
    phi_sp = np.empty((N, N), dtype=complex) if kress else None
    grid, data = _nodes(curve, N)
    quad._ptr_fill(kernel, data, grid.h, A, phi_sp)
    return DiscretizedBIE(kind, curve, grid, data, A, kernel), phi_sp


def _slice(top, N: int):
    """(system, Kress factor) at N, read off the fill ``top``, a (system,
    factor) at M = s N nodes, s a power of two. The system holds the PTR
    fill at N, one strided copy of every s-th node's c x c block, times s,
    c the unknowns per node (2 for node-major Stokes); the factor is the
    view of every s-th row and column of ``top``'s, or None.

    h = period/M is period/N over s exactly, so node n at N is node s n
    at M, the same float, and so are its samples and every pair's kernel
    value; times s, kernel*speed*h rounds as it does at N. At any other
    s it does not: 3 * fill_384[::3, ::3] misses fill_128 by 7e-15.
    """
    bie, phi_sp = top
    M = bie.grid.N
    s = M // N
    c = len(bie.matrix) // M
    A = (bie.matrix.reshape(M, c, M, c)[::s, :, ::s] * s).reshape(c * N, c * N)
    grid, data = _nodes(bie.curve, N)
    system = DiscretizedBIE(bie.kind, bie.curve, grid, data, A, bie.kernel)
    return system, None if phi_sp is None else phi_sp[::s, ::s]


def _correct(bie: DiscretizedBIE, stencil: CorrectionStencil | None, phi_sp):
    """Turn the PTR fill of ``bie`` into the system of the rule of
    ``stencil``, in place: its correction, then I/2 on the diagonal.
    Kress (stencil None) reads the factor ``phi_sp`` that the fill kept.

    Returns a function that writes the fill back for a stencil rule, None
    for Kress, whose dense correction is not undone. The stencil's
    correction wrote every entry of the diagonal, so the entries it saved
    undo the I/2 too.
    """
    kernel, data, h, A = bie.kernel, bie.data, bie.grid.h, bie.matrix
    if stencil is None:
        quad._kress(phi_sp, kernel, data, h, A)
        restore = None
    else:
        correction = quad._correction(kernel, data, h, stencil)
        restore = partial(correction.restore, A, correction.apply(A))
    A[np.diag_indices_from(A)] += 0.5
    return restore


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


def held_bytes(kind: str, n_list, stencils) -> int:
    """The bytes of dense matrices that :func:`on_each_system` may hold at
    once on these arguments, at 16 N^2 per Helmholtz and 32 N^2 per Stokes
    system, and, when a rule is Kress, 16 N^2 for the factor of each fill
    (a slice's factor is a view of N_max's): with an N to slice, the N_max
    fill, and the largest system of another N; else the largest fill. Every
    rule at one N, Kress included, runs on that N's one fill."""
    kress = any(stencil is None for stencil in stencils)

    def system(N):
        return (16 if kind == "helmholtz" else 32) * N * N

    def fill(N):
        return system(N) + (16 * N * N if kress else 0)

    top, sliced = _nested(n_list)
    if not sliced:
        return fill(top)
    coarse = max(system(N) if N in sliced else fill(N) for N in n_list if N != top)
    return fill(top) + coarse


def _rules(fill, stencils, measure) -> list:
    """(assemble seconds, ``measure(i, bie)``) for the system of each
    ``stencils[i]`` at one N, from ``fill``, a ((system, Kress factor),
    seconds): the stencil rules in turn, each written back after its
    ``measure``, even if it raises, then the Kress system, corrected once
    from the fill's factor, which each Kress rule measures. A rule's
    seconds are the fill's plus its correction's."""
    (bie, phi_sp), fill_s = fill
    out = [None] * len(stencils)
    for i, stencil in enumerate(stencils):
        if stencil is not None:
            restore, correct_s = _timed(_correct, bie, stencil, phi_sp)
            try:
                out[i] = (fill_s + correct_s, measure(i, bie))
            finally:
                restore()
    kress = [i for i, stencil in enumerate(stencils) if stencil is None]
    if kress:
        _, correct_s = _timed(_correct, bie, None, phi_sp)
        for i in kress:
            out[i] = (fill_s + correct_s, measure(i, bie))
    return out


def on_each_system(
    kind: str,
    curve: ParametricCurve,
    n_list,
    consts: HelmholtzConstants | None,
    stencils,
    measure,
) -> list:
    """One list per N of ``n_list``, strictly ascending, in its order: the
    (assemble seconds, ``measure(i, bie)``) of the system ``bie`` of the
    rule of each ``stencils[i]`` at that N, in their order; None is Kress.

    Every rule is checked at every N before anything is filled. At one N
    the rules share one PTR fill: each stencil rule's correction and I/2
    are applied for the span of its ``measure`` and then written back,
    even if it raises. The Kress system comes last, corrected once on the
    same fill and not undone, and every Kress rule measures it. When a
    rule is Kress, every fill keeps phi*speed at its N in the same tile
    loop, and the Kress correction reads it.

    The N whose fill is a slice of the fill at N_max = max(``n_list``)
    (N_max/N a power of two, see :func:`_slice`) share that fill: it is
    taken first and held until N_max, each of its fills is one strided
    copy, and its Kress factor a strided view of N_max's. Any other N
    fills afresh. At most the N_max fill and the system of one other N,
    each with its factor, are alive at once (see :func:`held_bytes`). A
    rule's seconds are its fill's, or its slice's, plus its correction's:
    the N_max rows carry the whole N_max fill, and the Kress rules at one
    N the same seconds. The matrix of ``bie`` holds the system only during
    ``measure``, which must not write to it.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise AssemblyError(f"N must ascend strictly, got {n_list}")
    for N in n_list:
        for stencil in stencils:
            _check_rule(kind, N, stencil)
    top, sliced = _nested(n_list)
    kress = any(stencil is None for stencil in stencils)
    # the N_max fill and its seconds, taken first when an N slices it
    held = _timed(_fill, kind, curve, top, consts, kress) if sliced else None

    def fill(N):
        if N in sliced:
            return _timed(_slice, held[0], N)
        if N == top and held is not None:
            return held
        return _timed(_fill, kind, curve, N, consts, kress)

    # each N's fill lives only for its own _rules call
    return [_rules(fill(N), stencils, measure) for N in n_list]


def _assemble(kind, curve, N, consts, stencil) -> DiscretizedBIE:
    """The system of the rule of ``stencil`` on a fill of its own."""
    _check_rule(kind, N, stencil)  # before the fill, not after
    bie, phi_sp = _fill(kind, curve, N, consts, stencil is None)
    _correct(bie, stencil, phi_sp)
    return bie


def assemble_helmholtz(
    curve: ParametricCurve,
    N: int,
    consts: HelmholtzConstants,
    stencil: CorrectionStencil | None = None,
) -> DiscretizedBIE:
    """Combined-field system I/2 + D - i*eta*S on an N-node grid.

    D - i*eta*S is built in one pass of the combined kernel
    (:func:`~zetatrap.kernels.helmholtz_combined`), the PTR fill, which
    the correction of ``stencil`` turns into its rule's matrix, whatever
    the stencil's source; no stencil is the Kress spectral rule (even N).
    I/2 is added to the diagonal in place.
    """
    return _assemble("helmholtz", curve, N, consts, stencil)


def assemble_stokes(
    curve: ParametricCurve, N: int, stencil: CorrectionStencil
) -> DiscretizedBIE:
    """Combined Stokes system I/2 + S + D (node-major 2N unknowns).

    S + D is built in one pass of the combined kernel
    (:func:`~zetatrap.kernels.stokes_combined`) into one 2N x 2N matrix,
    the PTR fill, with the correction of ``stencil`` and I/2 applied in
    place.
    """
    return _assemble("stokes", curve, N, None, stencil)


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


def _target_slabs(data: CurveSamples, h: float, targets: np.ndarray):
    """Yield (rows, outside, usable, pairs of the usable targets with every
    node) per slab of targets, on the nodes ``data``; see :func:`locate`."""
    for rows in quad.slabs(len(targets)):
        p = kernels.pairs(targets[rows, None], data.pos, data.normal)
        nearest = p.r.argmin(axis=1)
        far = p.r[np.arange(len(rows)), nearest] >= (
            NEAR_FIELD_FACTOR * h * data.speed[nearest]
        )
        # Winding number: the Laplace double layer integrates to -2 pi inside.
        winding = kernels.laplace_d().full(p) @ (data.speed * h) / (-2 * math.pi)
        outside = np.abs(winding) < 0.5
        ok = outside & far
        if not ok.all():  # rebinding p frees the whole slab's pairs before the yield
            p = replace(
                p, dx=p.dx[ok], dy=p.dy[ok], r=p.r[ok], r_safe=p.r_safe[ok]
            )
        yield rows, outside, ok, p


def locate(curve: ParametricCurve, N: int, points) -> tuple[np.ndarray, np.ndarray]:
    """(outside, usable) for each of ``points`` on the N-node grid of
    ``curve``: outside when the winding number, the trapezoidal sum of the
    Laplace double layer over the nodes, is below 1/2, and usable when
    also at least NEAR_FIELD_FACTOR local arclength spacings from its
    closest node, where the plain PTR holds."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    grid, data = _nodes(curve, N)
    outside = np.empty(len(points), dtype=bool)
    usable = np.empty(len(points), dtype=bool)
    for rows, out, ok, _ in _target_slabs(data, grid.h, points):
        outside[rows], usable[rows] = out, ok
    return outside, usable


def eval_field(
    bie: DiscretizedBIE, tau: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The representation's field at the targets, and which targets it
    accepts.

    It accepts the targets that :func:`locate` finds usable on its nodes:
    inside the curve the exterior representation is not the solution.

    One pass over the targets decides acceptance and sums the layer
    potentials with the plain PTR at the accepted targets; the value at a
    refused target is NaN, in both parts of a complex value. The field is
    u = D[tau] - i*eta*S[tau] for a Helmholtz system, an (M,) complex
    array, and the velocity S[tau] + D[tau] for a Stokes system, an
    (M, 2) array.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    weight = bie.data.speed * bie.grid.h
    combined = bie.kernel
    if bie.kind == "helmholtz":
        density = weight * tau

        def layer_sum(p):
            return combined.full(p) @ density

        values = np.full(len(targets), complex(np.nan, np.nan))
    else:
        density = tau.reshape(-1, 2) * weight[:, None]

        def layer_sum(p):
            return np.einsum("ijmn,nj->mi", combined.full(p), density)

        values = np.full((len(targets), 2), np.nan)
    accepted = np.empty(len(targets), dtype=bool)
    for rows, _, ok, p in _target_slabs(bie.data, bie.grid.h, targets):
        accepted[rows] = ok
        if ok.any():
            values[rows[ok]] = layer_sum(p)
    return values, accepted


def _accepted_field(bie: DiscretizedBIE, tau: np.ndarray, targets) -> np.ndarray:
    """:func:`eval_field`'s values, raising NearFieldError if it refused a
    target."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
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
    if bie.kind != "helmholtz":
        raise AssemblyError("eval_helmholtz_potential requires a Helmholtz system")
    return _accepted_field(bie, tau, targets)


def eval_stokes_velocity(
    bie: DiscretizedBIE, tau: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Velocity of the combined representation u = S[tau] + D[tau] off-curve.

    Targets that :func:`eval_field` refuses raise :class:`NearFieldError`.
    """
    if bie.kind != "stokes":
        raise AssemblyError("eval_stokes_velocity requires a Stokes system")
    return _accepted_field(bie, tau, targets)
