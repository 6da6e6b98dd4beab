"""Layer-potential kernels as arrays over target/source pairs.

This module is the only place a kernel formula is written. A
:class:`Kernel` has a log singularity, kernel = -phi log r + smooth, and
gives three things for the quadrature rules and the evaluators:

- ``full(pairs)``: the kernel at every pair;
- ``phi(pairs)``: the smooth factor phi of its log singularity, phi(0)
  where target and source coincide;
- ``limit(samples)``: the coincident limit of the smooth part at each
  node of a curve.

Conventions follow the operator normalizations used throughout the
experiments: the Laplace SLP kernel is the bare -log r, the Helmholtz
kernels carry i/4, and the Stokes S and D carry 1/(4 pi) and 1/pi. The
double-layer kernels use the source normal, the adjoint D* the target
normal; r_vec always points from source to target. Stokes kernels return
arrays with two leading component axes (i, j).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .geometry import CurveSamples
from .specfun import EULER_GAMMA, bessel_j_array, hankel1_array

__all__ = [
    "HelmholtzConstants",
    "Pairs",
    "Kernel",
    "helmholtz_constants",
    "pairs",
    "laplace_s",
    "laplace_d",
    "helmholtz_s",
    "helmholtz_d",
    "helmholtz_dstar",
    "stokes_s",
    "stokes_d",
]


@dataclass(frozen=True)
class HelmholtzConstants:
    """Wavenumber kappa and the split constant c_gamma."""

    kappa: complex
    c_gamma: complex


def helmholtz_constants(kappa: complex) -> HelmholtzConstants:
    kappa = complex(kappa)
    c_gamma = 0.5j * math.pi - (cmath.log(kappa / 2) + EULER_GAMMA)
    return HelmholtzConstants(kappa=kappa, c_gamma=c_gamma)


@dataclass(frozen=True)
class Pairs:
    """Target and source points, pair by pair.

    ``dx``, ``dy`` are the components of r_vec = target - source and ``r``
    its length, 0 where the two coincide. The normals are (..., 2)
    arrays that broadcast against them, or None where no kernel reads
    them.
    """

    dx: np.ndarray
    dy: np.ndarray
    r: np.ndarray
    src_normal: np.ndarray | None = None
    tgt_normal: np.ndarray | None = None


class Kernel(NamedTuple):
    """The three array functions of one kernel (see the module docstring)."""

    full: Callable[[Pairs], np.ndarray]
    phi: Callable[[Pairs], np.ndarray]
    limit: Callable[[CurveSamples], np.ndarray]


def pairs(targets, sources, src_normal=None, tgt_normal=None) -> Pairs:
    """Pairs of ``targets`` and ``sources``, (..., 2) arrays that broadcast."""
    dx = targets[..., 0] - sources[..., 0]
    dy = targets[..., 1] - sources[..., 1]
    return Pairs(dx, dy, np.hypot(dx, dy), src_normal, tgt_normal)


def _nonzero(r):
    """r with coincident pairs set to 1, where every kernel below is finite."""
    return np.where(r > 0, r, 1.0)


def _along(p: Pairs, normal) -> np.ndarray:
    """(r_vec . normal) / r, 0 at coincident pairs."""
    return (p.dx * normal[..., 0] + p.dy * normal[..., 1]) / _nonzero(p.r)


def _eye(p: Pairs) -> np.ndarray:
    return np.eye(2).reshape((2, 2) + (1,) * np.ndim(p.r))


def _rr(p: Pairs) -> np.ndarray:
    """r_vec r_vec^T / r^2 as a (2, 2, ...) array, 0 at coincident pairs."""
    r = _nonzero(p.r)
    u = np.stack([p.dx / r, p.dy / r])
    return u[:, None] * u[None, :]


def _tt(s: CurveSamples) -> np.ndarray:
    """t t^T of the unit tangent at each node, as a (2, 2, N) array."""
    t = s.tangent.T
    return t[:, None] * t[None, :]


def laplace_s() -> Kernel:
    """-log r: phi = 1 and the smooth part is 0.

    Speed factors are applied by the quadrature rules.
    """
    return Kernel(
        full=lambda p: -np.log(_nonzero(p.r)),
        phi=lambda p: np.ones_like(p.r),
        limit=lambda s: np.zeros_like(s.speed),
    )


def laplace_d() -> Kernel:
    """Source-normal derivative of -log r, (r.n_src)/r^2.

    Over a closed curve it integrates to -2 pi at targets inside and to 0
    at targets outside. No log singularity; the limit is -curvature/2.
    """
    return Kernel(
        full=lambda p: _along(p, p.src_normal) / _nonzero(p.r),
        phi=lambda p: np.zeros_like(p.r),
        limit=lambda s: -s.curvature / 2,
    )


def _wavenumber(kappa: complex) -> complex | float:
    """kappa as a float when it is real and positive, else as a complex.

    kappa * r is then a real array exactly when the real Bessel routines
    of :mod:`~zetatrap.specfun` apply; at Re kappa <= 0 they would miss
    the principal branch of H^(1).
    """
    k = complex(kappa)
    return k.real if k.imag == 0 and k.real > 0 else k


def helmholtz_s(kappa: complex) -> Kernel:
    """(i/4) H0(kappa r), with phi = J0(kappa r)/(2 pi).

    The smooth part tends to c_gamma/(2 pi). phi is real at real
    positive kappa.
    """
    k = _wavenumber(kappa)
    c = helmholtz_constants(kappa).c_gamma / (2 * math.pi)
    return Kernel(
        full=lambda p: 0.25j * hankel1_array(0, k * _nonzero(p.r)),
        phi=lambda p: bessel_j_array(0, k * p.r) / (2 * math.pi),
        limit=lambda s: np.full(s.speed.shape, c),
    )


def _helmholtz_normal_derivative(kappa: complex, sign: float, normal) -> Kernel:
    k = _wavenumber(kappa)

    def along(p):
        return sign * _along(p, normal(p))

    return Kernel(
        full=lambda p: 0.25j * k * hankel1_array(1, k * _nonzero(p.r)) * along(p),
        phi=lambda p: k * bessel_j_array(1, k * p.r) * along(p) / (2 * math.pi),
        limit=lambda s: s.c0,
    )


def helmholtz_d(kappa: complex) -> Kernel:
    """Source-normal derivative kernel (i kappa/4) H1(kappa r) (r.n_src)/r.

    phi = kappa J1(kappa r) (r.n_src)/(2 pi r), 0 at coincident pairs;
    the smooth part tends to c0.
    """
    return _helmholtz_normal_derivative(kappa, 1.0, lambda p: p.src_normal)


def helmholtz_dstar(kappa: complex) -> Kernel:
    """Target-normal derivative kernel -(i kappa/4) H1(kappa r) (r.n_tgt)/r.

    phi = -kappa J1(kappa r) (r.n_tgt)/(2 pi r), 0 at coincident pairs;
    the smooth part tends to c0.
    """
    return _helmholtz_normal_derivative(kappa, -1.0, lambda p: p.tgt_normal)


def stokes_s() -> Kernel:
    """Stokeslet (1/4pi)(-log r I + r r^T/r^2), with phi = I/(4 pi).

    The smooth part r r^T/(4 pi r^2) tends to t t^T/(4 pi).
    """
    return Kernel(
        full=lambda p: (-np.log(_nonzero(p.r)) * _eye(p) + _rr(p)) / (4 * math.pi),
        phi=lambda p: _eye(p) * np.ones_like(p.r) / (4 * math.pi),
        limit=lambda s: _tt(s) / (4 * math.pi),
    )


def stokes_d() -> Kernel:
    """Stresslet (1/pi)((r.n_src)/r^2) r r^T/r^2, with phi = 0.

    It tends to (1/pi)(-curvature/2) t t^T.
    """
    return Kernel(
        full=lambda p: _along(p, p.src_normal) / _nonzero(p.r) * _rr(p) / math.pi,
        phi=lambda p: np.zeros((2, 2) + np.shape(p.r)),
        limit=lambda s: (-s.curvature / 2) * _tt(s) / math.pi,
    )
