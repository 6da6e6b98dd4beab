"""Layer-potential kernels as arrays over target/source pairs.

This module is the only place a kernel formula is written. A
:class:`Kernel` has a log singularity, kernel = -phi log r + smooth, and
gives three things for the quadrature rules and the evaluators:

- ``full(pairs)``: the kernel at every pair;
- ``phi(pairs)``: the smooth factor phi of its log singularity, phi(0)
  where target and source coincide;
- ``limit(samples)``: the coincident limit of the smooth part at each
  node of a curve.

Radial-factor contract. ``full`` and ``phi`` are each formed in two
steps, so that a rule can evaluate the costly part of a pair once for
the pair (m, n) and its mirror (n, m):

- ``radial(p)`` gives the symmetric factors of ``full``: a tuple of
  arrays shaped like ``p.r`` (after any leading component axes) whose
  values at (m, n) are bit for bit those at (n, m). They are functions
  of r alone: H0 and/or H1 of kappa r for Helmholtz (H0 and H1 from one
  :class:`~zetatrap.specfun.Hankel01` call for the combined kernel),
  log r for Laplace, log r and r r^T/r^2 for Stokes (log r/(4 pi) for
  S + D). At coincident pairs r is taken as 1, where every kernel is
  finite.
- ``full_of(p, f)`` forms the kernel from those factors and the pairs'
  directions and normals; ``full(p)`` is ``full_of(p, radial(p))``.
- ``phi_radial(p)`` gives the symmetric factors of phi in the same
  sense: J0/J1 of kappa r for Helmholtz, J(0) at coincident pairs, and
  none for Laplace and Stokes.
- ``phi_of(p, g)`` forms phi from those factors; ``phi(p)`` is
  ``phi_of(p, phi_radial(p))``.
- ``phi_in_radial(f)``, where a kernel has it (else None), reads phi's
  factors off ``radial``'s: at real positive kappa the Helmholtz
  kernels' H0 and H1 are J + iY, so J0 and J1 are their real parts. They
  are ``phi_radial``'s bit for bit at every pair but the coincident
  ones, where ``radial`` takes r = 1.
- ``wavenumber``: the kappa of the kernel's radial wave e^{i kappa r}, 0
  for Laplace and Stokes. Along the curve the kernel oscillates with
  Re kappa and decays with Im kappa; the off-curve evaluator reads both
  to bound the kernel's Fourier modes at a target.
- ``components`` and ``dtype``: the unknowns per node (2 for the Stokes
  kernels, else 1) and the type of the kernel's values (complex for the
  Helmholtz kernels, else float), which size and type its matrices.

Neither ``full_of`` nor ``phi_of`` writes into its factors.

The combined-field kernel D - i eta S and the combined Stokes kernel
S + D are kernels of their own, so that a rule or an evaluator reads the
radial factors of each pair once.

Conventions follow the operator normalizations used throughout the
experiments: the Laplace SLP kernel is the bare -log r, the Helmholtz
kernels carry i/4, and the Stokes S and D carry 1/(4 pi) and 1/pi. The
double-layer kernels use the source normal, the adjoint D* the target
normal; r_vec always points from source to target. Stokes kernels return
arrays with two leading component axes (i, j).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .geometry import CurveSamples
from .specfun import EULER_GAMMA, Hankel01, bessel_j_array, hankel1_array

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
    "helmholtz_combined",
    "combined_field_coupling",
    "stokes_s",
    "stokes_d",
    "stokes_combined",
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
    its length, 0 where the two coincide; ``r_safe`` is ``r`` with those
    coincident pairs set to 1, where every kernel is finite, formed once
    for every kernel function that divides by r or takes its logarithm.
    The normals are (..., 2) arrays that broadcast against them, or None
    where no kernel reads them.
    """

    dx: np.ndarray
    dy: np.ndarray
    r: np.ndarray
    r_safe: np.ndarray
    src_normal: np.ndarray | None = None
    tgt_normal: np.ndarray | None = None


class Kernel(NamedTuple):
    """The array functions of one kernel (see the module docstring)."""

    radial: Callable[[Pairs], tuple]
    full_of: Callable[[Pairs, tuple], np.ndarray]
    phi_radial: Callable[[Pairs], tuple]
    phi_of: Callable[[Pairs, tuple], np.ndarray]
    limit: Callable[[CurveSamples], np.ndarray]
    phi_in_radial: Callable[[tuple], tuple] | None = None
    wavenumber: complex = 0.0
    components: int = 1
    dtype: type = float

    def full(self, p: Pairs) -> np.ndarray:
        """The kernel at every pair."""
        return self.full_of(p, self.radial(p))

    def phi(self, p: Pairs) -> np.ndarray:
        """phi at every pair, phi(0) at coincident ones."""
        return self.phi_of(p, self.phi_radial(p))


def pairs(targets, sources, src_normal=None, tgt_normal=None) -> Pairs:
    """Pairs of ``targets`` and ``sources``, (..., 2) arrays that broadcast.

    r is sqrt(dx*dx + dy*dy), within eps of the exact length. numpy's
    square root is a vector loop, and the whole formula takes a few ns a
    pair on the benchmark machine (perfbench/README.md), where np.hypot,
    which has no vector loop there, took about 30 ns. Where the sum of
    squares is not a normal float, r is np.hypot(dx, dy) and keeps
    hypot's range: past about 1.3e154 the sum overflows, below about
    1.5e-154 it loses digits or underflows to 0, and NaN stays NaN. One
    reduction finds whether a call has such entries; the coincident
    pairs of a fill are among them, and hypot gives them 0.
    """
    dx = targets[..., 0] - sources[..., 0]
    dy = targets[..., 1] - sources[..., 1]
    with np.errstate(over="ignore", under="ignore"):
        square = dx * dx
        square += dy * dy
    normal = square >= sys.float_info.min
    # out= an array: the square of 0-d inputs is a numpy scalar
    r = np.sqrt(square, out=np.asarray(square))
    r_safe = np.where(normal, r, np.nan)
    if not np.max(r_safe, initial=0.0) < math.inf:
        odd = ~(r_safe < math.inf)
        exact = np.hypot(dx[odd], dy[odd])
        r[odd] = exact
        r_safe[odd] = np.where(exact > 0, exact, 1.0)
    return Pairs(dx, dy, r, r_safe, src_normal, tgt_normal)


def _along(p: Pairs, normal) -> np.ndarray:
    """(r_vec . normal) / r, 0 at coincident pairs."""
    return (p.dx * normal[..., 0] + p.dy * normal[..., 1]) / p.r_safe


def _eye(p: Pairs) -> np.ndarray:
    return np.eye(2).reshape((2, 2) + (1,) * np.ndim(p.r))


def _rr(p: Pairs) -> np.ndarray:
    """r_vec r_vec^T / r^2 as a (2, 2, ...) array, 0 at coincident pairs."""
    ux, uy = p.dx / p.r_safe, p.dy / p.r_safe
    # One product per distinct component; ``...`` keeps 0-d slices views.
    out = np.empty((2, 2) + p.r_safe.shape)
    np.multiply(ux, ux, out=out[0, 0, ...])
    np.multiply(ux, uy, out=out[0, 1, ...])
    out[1, 0] = out[0, 1]
    np.multiply(uy, uy, out=out[1, 1, ...])
    return out


def _tt(s: CurveSamples) -> np.ndarray:
    """t t^T of the unit tangent at each node, as a (2, 2, N) array."""
    t = s.tangent.T
    return t[:, None] * t[None, :]




def _no_factors(p: Pairs) -> tuple:
    return ()


def laplace_s() -> Kernel:
    """-log r: phi = 1 and the smooth part is 0.

    Speed factors are applied by the quadrature rules.
    """
    return Kernel(
        radial=lambda p: (np.log(p.r_safe),),
        full_of=lambda p, f: -f[0],
        phi_radial=_no_factors,
        phi_of=lambda p, g: np.ones_like(p.r),
        limit=lambda s: np.zeros_like(s.speed),
    )


def laplace_d() -> Kernel:
    """Source-normal derivative of -log r, (r.n_src)/r^2.

    Over a closed curve it integrates to -2 pi at targets inside and to 0
    at targets outside. No log singularity; the limit is -curvature/2.
    """
    return Kernel(
        radial=_no_factors,
        full_of=lambda p, f: _along(p, p.src_normal) / p.r_safe,
        phi_radial=_no_factors,
        phi_of=lambda p, g: np.zeros_like(p.r),
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


def _real_parts(f: tuple) -> tuple:
    return tuple(x.real for x in f)


def _single_layer(h0):
    """(i/4) H0 from H0(kappa r)."""
    return 0.25j * h0


def _normal_derivative(k, h1, along):
    """(i kappa/4) H1 (r.n)/r from H1(kappa r) and ``along`` = (r.n)/r."""
    return 0.25j * k * h1 * along


def helmholtz_s(kappa: complex) -> Kernel:
    """(i/4) H0(kappa r), with phi = J0(kappa r)/(2 pi).

    The smooth part tends to c_gamma/(2 pi). phi is real at real
    positive kappa.
    """
    k = _wavenumber(kappa)
    c = helmholtz_constants(kappa).c_gamma / (2 * math.pi)
    return Kernel(
        radial=lambda p: (hankel1_array(0, k * p.r_safe),),
        full_of=lambda p, f: _single_layer(f[0]),
        phi_radial=lambda p: (bessel_j_array(0, k * p.r),),
        phi_of=lambda p, g: g[0] / (2 * math.pi),
        limit=lambda s: np.full(s.speed.shape, c),
        phi_in_radial=_real_parts if isinstance(k, float) else None,
        wavenumber=complex(kappa),
        dtype=complex,
    )


def _helmholtz_normal_derivative(kappa: complex, sign: float, normal) -> Kernel:
    k = _wavenumber(kappa)

    def along(p):
        return sign * _along(p, normal(p))

    return Kernel(
        radial=lambda p: (hankel1_array(1, k * p.r_safe),),
        full_of=lambda p, f: _normal_derivative(k, f[0], along(p)),
        phi_radial=lambda p: (bessel_j_array(1, k * p.r),),
        phi_of=lambda p, g: k * g[0] * along(p) / (2 * math.pi),
        limit=lambda s: s.c0,
        phi_in_radial=_real_parts if isinstance(k, float) else None,
        wavenumber=complex(kappa),
        dtype=complex,
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


def combined_field_coupling(kappa: complex) -> float:
    """Real coupling eta of the combined-field representation D - i eta S.

    eta = max(Re kappa, 1), or max(|kappa|, 1) for purely imaginary
    kappa: a real eta keeps the system uniformly well conditioned when
    Im kappa > 0, and the floor 1 keeps the -i eta S term as kappa -> 0,
    where I/2 + D alone has a null space on a closed curve. At
    Re kappa >= 1, eta is Re kappa. At Re kappa < 0 the floor keeps the
    sign of Re kappa, so eta is Re kappa at Re kappa <= -1.
    """
    k = complex(kappa)
    eta = k.real if k.real != 0.0 else abs(k)
    return math.copysign(max(abs(eta), 1.0), eta)


def helmholtz_combined(kappa: complex) -> Kernel:
    """Combined-field kernel D - i eta S, eta = combined_field_coupling(kappa).

    Its radial factors are H0 and H1 from one call of a
    :class:`~zetatrap.specfun.Hankel01` made at the kernel's first use (at
    complex kappa that builds the Hankel table of its ray, which a kernel
    that only checks or sizes a system never needs), and those of phi are
    J0 and J1; phi and the limit are those of :func:`helmholtz_d` and
    :func:`helmholtz_s`, combined. At real positive kappa the real route
    gives H = J + iY, and ``phi_in_radial`` takes J0 and J1 from it.
    """
    k = _wavenumber(kappa)
    hankel01 = functools.cache(lambda: Hankel01(k))
    s, d = helmholtz_s(kappa), helmholtz_d(kappa)
    coupling = -1j * combined_field_coupling(kappa)

    def full_of(p, f):
        h0, h1 = f
        out = _normal_derivative(k, h1, _along(p, p.src_normal))
        out += coupling * _single_layer(h0)
        return out

    return Kernel(
        radial=lambda p: hankel01()(p.r_safe),
        full_of=full_of,
        phi_radial=lambda p: tuple(bessel_j_array(n, k * p.r) for n in (0, 1)),
        phi_of=lambda p, g: d.phi_of(p, g[1:]) + coupling * s.phi_of(p, g[:1]),
        limit=lambda data: d.limit(data) + coupling * s.limit(data),
        phi_in_radial=_real_parts if isinstance(k, float) else None,
        wavenumber=complex(kappa),
        dtype=complex,
    )


def stokes_s() -> Kernel:
    """Stokeslet (1/4pi)(-log r I + r r^T/r^2), with phi = I/(4 pi).

    The smooth part r r^T/(4 pi r^2) tends to t t^T/(4 pi).
    """

    return Kernel(
        radial=lambda p: (np.log(p.r_safe), _rr(p)),
        full_of=lambda p, f: (-f[0] * _eye(p) + f[1]) / (4 * math.pi),
        phi_radial=_no_factors,
        phi_of=lambda p, g: _eye(p) * np.ones_like(p.r) / (4 * math.pi),
        limit=lambda s: _tt(s) / (4 * math.pi),
        components=2,
    )


def stokes_d() -> Kernel:
    """Stresslet (1/pi)((r.n_src)/r^2) r r^T/r^2, with phi = 0.

    It tends to (1/pi)(-curvature/2) t t^T.
    """

    return Kernel(
        radial=lambda p: (_rr(p),),
        full_of=lambda p, f: (
            _along(p, p.src_normal) / p.r_safe * f[0] / math.pi
        ),
        phi_radial=_no_factors,
        phi_of=lambda p, g: np.zeros((2, 2) + np.shape(p.r)),
        limit=lambda s: (-s.curvature / 2) * _tt(s) / math.pi,
        components=2,
    )


def _log_over_4pi(p: Pairs) -> np.ndarray:
    log = np.log(p.r_safe)
    log /= 4 * math.pi
    return log


def stokes_combined() -> Kernel:
    """Combined Stokes kernel S + D of :func:`stokes_s` and :func:`stokes_d`:
    -log r I/(4 pi) + r r^T/r^2 (1/(4 pi) + (r.n_src)/(pi r^2)).

    Its radial factors are log r/(4 pi) and r r^T/r^2, shared by S and D;
    ``full_of`` scales r r^T/r^2 once and subtracts the log term on the
    two diagonal components. phi is that of S, as D has none, and the
    limit is the sum of the two limits.
    """
    s, d = stokes_s(), stokes_d()

    def full_of(p, f):
        log, rr = f
        out = rr * (
            _along(p, p.src_normal) / (math.pi * p.r_safe) + 1 / (4 * math.pi)
        )
        out[0, 0] -= log
        out[1, 1] -= log
        return out

    return Kernel(
        radial=lambda p: (_log_over_4pi(p), _rr(p)),
        full_of=full_of,
        phi_radial=_no_factors,
        phi_of=s.phi_of,
        limit=lambda data: s.limit(data) + d.limit(data),
        components=2,
    )
