"""Correction stencils for -log|x| and |x|^-z singularities.

The converged correction weights solve the moment systems

    sum_j w_j j^(2k) = -zeta'(-2k)   (log kind)
    sum_j w_j j^(2k) = -zeta(z-2k)   (pow kind, -1 < z < 1)

with the right-hand sides evaluated in extended precision and the system
solved through :mod:`zetatrap.hiprec`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import mpmath

from . import hiprec

__all__ = [
    "CorrectionStencil",
    "StencilError",
    "build_log_stencil",
    "build_pow_stencil",
]

MAX_K = 20


class StencilError(ValueError):
    """Invalid stencil request."""


@dataclass(frozen=True)
class CorrectionStencil:
    """Converged correction weights w_0..w_K for one singularity kind.

    ``weights[j]`` applies symmetrically at offsets +-j*h from the
    singular node (the j=0 weight is counted twice).

    ``order`` is 2K+3-z for the pow kind, the exponent of its leading
    error term. For the log kind it is 2K+2, the nominal label shared by
    the method names (``zeta6`` ... ``zeta42``) and external stencil
    tables; configs and ``zetatrap weights`` select a rule by K. The log
    rule's leading error term is h^(2K+3), the z -> 0 limit of the pow
    kind: the punctured trapezoidal error on -log|x| phi(x) expands in
    h^(2k+1) zeta'(-2k) phi^(2k)(0), the h log h terms vanish for k >= 1
    because zeta(-2k) = 0, and the K+1 weights cancel the terms k = 0..K.
    """

    kind: str  # "log" or "pow"
    K: int
    z: float | None
    weights: tuple[float, ...]
    order: float

    def __post_init__(self):
        if len(self.weights) != self.K + 1:
            raise StencilError("weight count must be K+1")


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
    ``hiprec.DEFAULT_DIGITS`` if that is more: the log systems certify
    their 1e-40 residual from about 33 + 1.5K digits (K = 20 needs 63),
    so every K <= MAX_K passes first time and the retry is a safety net.
    """
    digits = max(hiprec.DEFAULT_DIGITS, 2 * K - hiprec.RESIDUAL_EXPONENT)
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


def _build(kind: str, K: int, z: float | None, moment_fn, order) -> CorrectionStencil:
    """The stencil of K+1 weights solving ``moment_fn``'s moment system."""
    if not 0 <= K <= MAX_K:
        raise StencilError(f"K must be in [0, {MAX_K}]")
    w = _solve_with_retry([j * j for j in range(K + 1)], moment_fn, K)
    return CorrectionStencil(
        kind=kind, K=K, z=z, weights=tuple(float(v) for v in w), order=order
    )


@functools.cache
def build_log_stencil(K: int) -> CorrectionStencil:
    """Correction stencil for the -log|x| singularity, built once per K.

    Labelled order 2K+2; the corrected rule's leading error term is
    h^(2K+3) (see :class:`CorrectionStencil`).
    """
    return _build("log", K, None, lambda k: -_zeta_prime_neg_even_mp(k), 2 * K + 2)


@functools.cache
def build_pow_stencil(K: int, z: float) -> CorrectionStencil:
    """Correction stencil for the |x|^-z singularity, -1 < z < 1, cached."""
    if not -1.0 < z < 1.0:
        raise StencilError("z must lie in (-1, 1)")
    zf = float(z)
    return _build(
        "pow", K, zf, lambda k: -mpmath.zeta(mpmath.mpf(zf) - 2 * k), 2 * K + 3 - zf
    )
