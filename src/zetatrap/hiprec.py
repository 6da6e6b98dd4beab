"""Extended-precision solve of the dual Vandermonde moment systems.

The correction-weight systems sum_j w_j x_j^k = b_k (x_j = j^2) are
severely ill-conditioned for large K and must be solved in extended
precision. mpmath provides the arbitrary-precision arithmetic; the solve
itself is LU with pivoting at a configurable number of decimal digits,
verified by an a-posteriori residual bound. Callers retry with more
digits when the bound fails. The working precision defaults to
DEFAULT_DIGITS = 60 significant digits.
"""

from __future__ import annotations

import itertools

import mpmath

DEFAULT_DIGITS = 60
RESIDUAL_EXPONENT = -40  # normalized residual bound 1e-40

__all__ = [
    "DEFAULT_DIGITS",
    "DuplicateNodesError",
    "PrecisionInsufficientError",
    "solve_dual_vandermonde",
]


class DuplicateNodesError(ValueError):
    """Two interpolation nodes coincide."""


class PrecisionInsufficientError(ArithmeticError):
    """The residual bound could not be met at the requested precision."""


def solve_dual_vandermonde(nodes, moments, digits: int = DEFAULT_DIGITS):
    """Solve sum_j w_j x_j^k = b_k, k = 0..K, for the weights w.

    ``nodes`` and ``moments`` are length-(K+1) sequences convertible to
    mpmath floats (0^0 := 1). Returns a list of mpmath floats computed at
    ``digits`` working precision. Raises PrecisionInsufficientError when
    the normalized residual max_k |sum_j w_j x_j^k - b_k| / (1 + |b_k|)
    exceeds 1e-40; the caller should retry with more digits.
    """
    if len(nodes) != len(moments):
        raise ValueError("nodes and moments must have equal length")
    n = len(nodes)
    with mpmath.workdps(digits):
        xs = [mpmath.mpf(x) for x in nodes]
        for (i, x), (j, y) in itertools.combinations(enumerate(xs), 2):
            if x == y:
                raise DuplicateNodesError(f"nodes {i} and {j} coincide")
        A = mpmath.matrix([[x**k for x in xs] for k in range(n)])  # 0^0 = 1
        b = mpmath.matrix([mpmath.mpf(v) for v in moments])
        w = mpmath.lu_solve(A, b)
        bound = mpmath.mpf(10) ** RESIDUAL_EXPONENT
        for k, resid in enumerate(A * w - b):
            if abs(resid) / (1 + abs(b[k])) > bound:
                raise PrecisionInsufficientError(
                    f"residual {mpmath.nstr(abs(resid))} at row {k} exceeds bound "
                    f"at {digits} digits"
                )
        return [+v for v in w]
