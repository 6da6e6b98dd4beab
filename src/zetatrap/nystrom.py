"""Nystrom systems for the Helmholtz and Stokes boundary integral equations.

Exterior Dirichlet Helmholtz uses the combined-field representation
u = D[tau] - i*eta*S[tau], giving the second-kind system
(I/2 + D - i*eta*S) tau = f. The coupling eta must be real for the
operator to stay uniformly well conditioned when Im kappa > 0; we take
eta = Re kappa (falling back to |kappa| for purely imaginary kappa), see
:func:`~zetatrap.kernels.combined_field_coupling`.
Exterior Stokes flow past a body uses the combined single-plus-double
representation with the system (I/2 + S + D) tau = -u_inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from . import quadrature as quad
from .geometry import CurveSamples, ParametricCurve, sample
from .kernels import HelmholtzConstants, combined_field_coupling
from .zetaweights import CorrectionStencil

__all__ = [
    "DiscretizedBIE",
    "SolveReport",
    "AssemblyError",
    "NearFieldError",
    "ConditioningBudgetError",
    "combined_field_coupling",
    "assemble_helmholtz",
    "assemble_stokes",
    "solve_direct",
    "solve_gmres",
    "cond_2norm",
    "far_exterior",
    "eval_helmholtz_potential",
    "eval_stokes_velocity",
]

GMRES_TOL = 1e-14
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
    """Dense Nystrom system A tau = rhs together with its grid data."""

    kind: str  # "helmholtz" or "stokes"
    method: str  # "zeta", "kress", or "external"
    curve: ParametricCurve
    grid: quad.TrapezoidGrid
    data: CurveSamples
    matrix: np.ndarray
    consts: HelmholtzConstants | None = None


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a linear solve."""

    solution: np.ndarray
    method: str  # "lu" or "gmres"
    converged: bool
    iterations: int
    residual_norm: float


def assemble_helmholtz(
    curve: ParametricCurve,
    N: int,
    consts: HelmholtzConstants,
    method: str = "zeta",
    stencil: CorrectionStencil | None = None,
) -> DiscretizedBIE:
    """Combined-field system I/2 + D - i*eta*S on an N-node grid.

    D - i*eta*S is built in one pass of the combined kernel
    (:func:`~zetatrap.kernels.helmholtz_combined`), and I/2 is added to
    its diagonal in place. ``method`` selects the singular quadrature:
    "zeta" (corrected trapezoidal, requires ``stencil``) or "kress"
    (spectral baseline). Externally ingested stencils go through the
    "zeta" path with their own stencil object.
    """
    grid = quad.make_grid(curve.period, N)
    data = sample(curve, grid.nodes)
    if method in ("zeta", "external"):
        if stencil is None:
            raise AssemblyError(f"method {method!r} requires a correction stencil")
        A = quad.helmholtz_matrix(curve, grid, consts, stencil, "combined")
    elif method == "kress":
        A = quad.kress_helmholtz_operator(curve, grid, consts, "combined")
    else:
        raise AssemblyError(f"unknown method {method!r}")
    A[np.diag_indices(N)] += 0.5
    return DiscretizedBIE(
        kind="helmholtz",
        method=method,
        curve=curve,
        grid=grid,
        data=data,
        matrix=A,
        consts=consts,
    )


def assemble_stokes(
    curve: ParametricCurve,
    N: int,
    stencil: CorrectionStencil,
    method: str = "zeta",
) -> DiscretizedBIE:
    """Combined Stokes system I/2 + S + D (node-major 2N unknowns)."""
    if method != "zeta":
        raise AssemblyError(f"unknown method {method!r} for the Stokes system")
    grid = quad.make_grid(curve.period, N)
    data = sample(curve, grid.nodes)
    A, D = quad.stokes_matrices(curve, grid, stencil)
    # In place: at N=2000 each 2N x 2N matrix is 128 MB.
    A += D
    A[np.diag_indices_from(A)] += 0.5
    return DiscretizedBIE(
        kind="stokes", method=method, curve=curve, grid=grid, data=data, matrix=A
    )


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
) -> SolveReport:
    """Unrestarted GMRES with modified Gram-Schmidt and one reorthogonalization.

    Convergence is declared when the preconditioner-free relative residual
    ||A x - b|| / ||b|| drops below ``tol``. A nonconverged run returns a
    report with ``converged=False`` rather than raising.
    """
    n = rhs.shape[0]
    dtype = np.result_type(A.dtype, rhs.dtype, float)
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return SolveReport(
            solution=np.zeros(n, dtype=dtype),
            method="gmres",
            converged=True,
            iterations=0,
            residual_norm=0.0,
        )
    max_iter = min(max_iter, n)
    V = np.zeros((max_iter + 1, n), dtype=dtype)
    H = np.zeros((max_iter + 1, max_iter), dtype=dtype)
    cs = np.zeros(max_iter, dtype=dtype)
    sn = np.zeros(max_iter, dtype=dtype)
    g = np.zeros(max_iter + 1, dtype=dtype)
    V[0] = rhs / bnorm
    g[0] = bnorm
    iters = 0
    for k in range(max_iter):
        w = A @ V[k]
        for i in range(k + 1):
            hik = np.vdot(V[i], w)
            H[i, k] = hik
            w -= hik * V[i]
        for i in range(k + 1):  # one reorthogonalization pass
            corr = np.vdot(V[i], w)
            H[i, k] += corr
            w -= corr * V[i]
        hk1 = np.linalg.norm(w)
        H[k + 1, k] = hk1
        # Apply the accumulated Givens rotations to the new column.
        for i in range(k):
            t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
            H[i + 1, k] = -np.conj(sn[i]) * H[i, k] + np.conj(cs[i]) * H[i + 1, k]
            H[i, k] = t
        denom = math.hypot(abs(H[k, k]), abs(H[k + 1, k]))
        if denom == 0.0:
            cs[k], sn[k] = 1.0, 0.0
        elif H[k, k] == 0.0:
            cs[k], sn[k] = 0.0, np.conj(H[k + 1, k]) / abs(H[k + 1, k])
        else:
            phase = H[k, k] / abs(H[k, k])
            cs[k] = abs(H[k, k]) / denom
            sn[k] = phase * np.conj(H[k + 1, k]) / denom
        H[k, k] = cs[k] * H[k, k] + sn[k] * H[k + 1, k]
        H[k + 1, k] = 0.0
        g[k + 1] = -np.conj(sn[k]) * g[k]
        g[k] = cs[k] * g[k]
        iters = k + 1
        if abs(g[k + 1]) / bnorm < tol:
            break
        if hk1 == 0.0:
            break
        V[k + 1] = w / hk1
    y = np.linalg.solve(H[:iters, :iters], g[:iters])
    x = V[:iters].T @ y
    res = float(np.linalg.norm(A @ x - rhs))
    return SolveReport(
        solution=x,
        method="gmres",
        converged=res / bnorm < tol * 10,
        iterations=iters,
        residual_norm=res,
    )


def cond_2norm(A: np.ndarray) -> float:
    """2-norm condition number via dense SVD (dimension-capped)."""
    if max(A.shape) > COND_MAX_DIM:
        raise ConditioningBudgetError(
            f"matrix dimension {max(A.shape)} exceeds the SVD budget {COND_MAX_DIM}"
        )
    s = np.linalg.svd(A, compute_uv=False)
    return float(s[0] / s[-1])


def _target_slabs(bie: DiscretizedBIE, targets: np.ndarray):
    """Yield (rows, pairs with every node, accepted) per slab of targets;
    see :func:`far_exterior` for which targets are accepted."""
    data, h = bie.data, bie.grid.h
    for rows in quad.slabs(len(targets)):
        p = kernels.pairs(targets[rows, None], data.pos, data.normal)
        nearest = p.r.argmin(axis=1)
        far = p.r[np.arange(len(rows)), nearest] >= (
            NEAR_FIELD_FACTOR * h * data.speed[nearest]
        )
        # Winding number: the Laplace double layer integrates to -2 pi inside.
        winding = kernels.laplace_d().full(p) @ (data.speed * h) / (-2 * math.pi)
        yield rows, p, far & (np.abs(winding) < 0.5)


def far_exterior(bie: DiscretizedBIE, targets: np.ndarray) -> np.ndarray:
    """Which targets the off-curve evaluators accept.

    True for a target that lies outside the curve and at least
    NEAR_FIELD_FACTOR local arclength spacings from its closest node.
    Nearer targets need a near-field scheme; inside the curve the
    exterior representation is not the solution. "Outside" is decided by
    the winding number, the trapezoidal sum of the Laplace double layer
    over the nodes.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    accepted = np.empty(len(targets), dtype=bool)
    for rows, _, ok in _target_slabs(bie, targets):
        accepted[rows] = ok
    return accepted


def _evaluate(bie: DiscretizedBIE, targets, layer_sum, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with ``layer_sum(pairs)`` slab by slab over the targets,
    raising NearFieldError for a target that :func:`far_exterior` refuses."""
    for rows, p, ok in _target_slabs(bie, targets):
        if not ok.all():
            bad = targets[rows][~ok][0]
            raise NearFieldError(
                f"target {bad} inside the curve or within {NEAR_FIELD_FACTOR:g} "
                "grid spacings of the boundary; refine or use a near-field scheme"
            )
        out[rows] = layer_sum(p)
    return out


def eval_helmholtz_potential(
    bie: DiscretizedBIE, tau: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Evaluate u = D[tau] - i*eta*S[tau] at well-separated exterior targets.

    The far-field integrand is smooth, so the plain PTR applies. Targets
    that :func:`far_exterior` refuses raise :class:`NearFieldError`.
    """
    if bie.kind != "helmholtz" or bie.consts is None:
        raise AssemblyError("eval_helmholtz_potential requires a Helmholtz system")
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    k = bie.consts.kappa
    combined = kernels.helmholtz_combined(k)
    density = bie.data.speed * bie.grid.h * tau

    def layer_sum(p):
        return combined.full(p) @ density

    return _evaluate(bie, targets, layer_sum, np.empty(len(targets), dtype=complex))


def eval_stokes_velocity(
    bie: DiscretizedBIE, tau: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Velocity of the combined representation u = S[tau] + D[tau] off-curve.

    Targets that :func:`far_exterior` refuses raise :class:`NearFieldError`.
    """
    if bie.kind != "stokes":
        raise AssemblyError("eval_stokes_velocity requires a Stokes system")
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    slp, dlp = kernels.stokes_s(), kernels.stokes_d()
    density = tau.reshape(-1, 2) * (bie.data.speed * bie.grid.h)[:, None]

    def layer_sum(p):
        return np.einsum("ijmn,nj->mi", slp.full(p) + dlp.full(p), density)

    return _evaluate(bie, targets, layer_sum, np.empty((len(targets), 2)))
