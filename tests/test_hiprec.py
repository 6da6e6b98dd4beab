"""Extended-precision dual-Vandermonde solver contracts."""

from fractions import Fraction

import mpmath
import pytest

from zetatrap import hiprec


def test_trivial_1x1():
    w = hiprec.solve_dual_vandermonde([0], [mpmath.mpf("2.5")])
    assert len(w) == 1
    assert abs(float(w[0]) - 2.5) < 1e-15


def test_trivial_2x2():
    # nodes {0, 1}: w = (b0 - b1, b1)
    b0, b1 = mpmath.mpf("1.25"), mpmath.mpf("0.75")
    w = hiprec.solve_dual_vandermonde([0, 1], [b0, b1])
    assert abs(float(w[0]) - 0.5) < 1e-15
    assert abs(float(w[1]) - 0.75) < 1e-15


def test_k7_residual():
    # the residual check inside the solver is the oracle; a successful
    # return certifies the 1e-40 bound
    nodes = [j * j for j in range(8)]
    moments = [mpmath.mpf(1) / (k + 1) for k in range(8)]
    w = hiprec.solve_dual_vandermonde(nodes, moments)
    assert len(w) == 8
    assert all(mpmath.isfinite(v) for v in w)


def test_duplicate_nodes_rejected():
    with pytest.raises(hiprec.DuplicateNodesError):
        hiprec.solve_dual_vandermonde([0, 1, 1], [mpmath.mpf(1)] * 3)


def test_matches_exact_rational_elimination():
    """Random well-scaled 5x5 system vs a Fraction-arithmetic oracle."""
    import random

    rng = random.Random(20240817)
    nodes_f = [Fraction(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(5)]
    while len(set(nodes_f)) < 5:
        nodes_f = [Fraction(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(5)]
    moments_f = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(5)]
    # exact Gaussian elimination over the rationals
    n = 5
    A = [[nodes_f[j] ** k for j in range(n)] for k in range(n)]
    b = list(moments_f)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            for c in range(col, n):
                A[r][c] -= f * A[col][c]
            b[r] -= f * b[col]
    exact = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        s = b[r] - sum(A[r][c] * exact[c] for c in range(r + 1, n))
        exact[r] = s / A[r][r]

    nodes = [mpmath.mpf(f.numerator) / f.denominator for f in nodes_f]
    moments = [mpmath.mpf(f.numerator) / f.denominator for f in moments_f]
    w = hiprec.solve_dual_vandermonde(nodes, moments, digits=60)
    for wi, ei in zip(w, exact):
        ref = float(ei)
        assert abs(float(wi) - ref) <= 1e-13 * max(abs(ref), 1.0)


def test_deterministic_output():
    nodes = [j * j for j in range(6)]
    moments = [mpmath.mpf(3) / (2 * k + 1) for k in range(6)]
    w1 = hiprec.solve_dual_vandermonde(nodes, moments, digits=60)
    w2 = hiprec.solve_dual_vandermonde(nodes, moments, digits=60)
    assert [mpmath.nstr(v, 50) for v in w1] == [mpmath.nstr(v, 50) for v in w2]

