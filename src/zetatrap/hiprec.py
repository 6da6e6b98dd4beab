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
        bs = [mpmath.mpf(b) for b in moments]
        for i in range(n):
            for j in range(i + 1, n):
                if xs[i] == xs[j]:
                    raise DuplicateNodesError(f"nodes {i} and {j} coincide")
        A = mpmath.zeros(n, n)
        row = [mpmath.mpf(1)] * n  # x_j^k, built row by row; 0^0 = 1
        for k in range(n):
            for j in range(n):
                A[k, j] = row[j]
            if k < n - 1:
                row = [row[j] * xs[j] for j in range(n)]
        b = mpmath.matrix(bs)
        w = mpmath.lu_solve(A, b)
        bound = mpmath.mpf(10) ** RESIDUAL_EXPONENT
        for k in range(n):
            resid = abs(sum(w[j] * A[k, j] for j in range(n)) - bs[k])
            if resid / (1 + abs(bs[k])) > bound:
                raise PrecisionInsufficientError(
                    f"residual {mpmath.nstr(resid)} at row {k} exceeds bound "
                    f"at {digits} digits"
                )
        return [+w[j] for j in range(n)]
