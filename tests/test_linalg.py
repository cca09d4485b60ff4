"""Elimination kernel: det and rank against sympy's DomainMatrix.

Q(i) matrices are compared with DomainMatrix over QQ_I; polynomial matrices
with DomainMatrix over QQ_I[z] (det) and its fraction field QQ_I(z) (rank, and
det of rational-function matrices).  Rank-deficient rectangular matrices and
zero columns exercise the column skip of the fraction-free kernel.
"""

import random

import pytest

from similitude import linalg
from similitude.algebra import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Poly,
    PolyMatrix,
    RationalFunction,
    generic_rank,
)

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import QQ_I  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

g = GaussianRational
Z = ("z",)
RING = QQ_I[sympy.Symbol("z")]
FIELD = RING.get_field()


def to_qqi(x: GaussianRational):
    return QQ_I.from_sympy(sympy.Rational(str(x.re)) + sympy.I * sympy.Rational(str(x.im)))


def to_ring(p: Poly, ring=RING):
    return ring.ring.from_dict({e: to_qqi(c) for e, c in p.terms.items()})


def to_field(p: Poly):
    return FIELD.convert_from(to_ring(p), RING)


def domain_matrix(grid, convert, domain):
    return DomainMatrix([[convert(x) for x in row] for row in grid], (len(grid), len(grid[0])), domain)


def rand_scalar(rng, sparsity=0.3):
    if rng.random() < sparsity:
        return GR_ZERO
    return g(rng.randint(-5, 5), rng.randint(-3, 3)) / rng.randint(1, 4)


def rand_poly(rng, degree=2, sparsity=0.3):
    if rng.random() < sparsity:
        return Poly.zero(Z)
    return Poly(Z, {(d,): rand_scalar(rng, 0.4) for d in range(degree + 1)})


def low_rank(rng, rows, cols, k, entry, zero):
    """rows x cols product of random rows x k and k x cols factors, with one column zeroed."""
    a = [[entry(rng) for _ in range(k)] for _ in range(rows)]
    b = [[entry(rng) for _ in range(cols)] for _ in range(k)]
    m = [
        [sum((a[i][t] * b[t][j] for t in range(1, k)), a[i][0] * b[0][j]) for j in range(cols)]
        for i in range(rows)
    ]
    dead = rng.randrange(cols)
    for row in m:
        row[dead] = zero
    return m


class TestGaussianRational:
    def test_rank_and_det_match_domain_matrix(self):
        rng = random.Random(2024)
        for trial in range(120):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            if trial % 3 == 0:
                cols = rows
            if trial % 2:
                m = [[rand_scalar(rng) for _ in range(cols)] for _ in range(rows)]
            else:
                k = rng.randint(1, min(rows, cols))
                m = low_rank(rng, rows, cols, k, rand_scalar, GR_ZERO)
            oracle = domain_matrix(m, to_qqi, QQ_I)
            assert linalg.rank(m) == oracle.rank()
            if rows == cols:
                assert to_qqi(linalg.det(m, GR_ONE, GR_ZERO)) == oracle.det()

    def test_edge_shapes(self):
        assert linalg.rank([]) == 0
        assert linalg.det([], GR_ONE, GR_ZERO) == GR_ONE
        assert linalg.rank([[GR_ZERO, GR_ZERO], [GR_ZERO, GR_ZERO]]) == 0
        # a zero leading column is skipped, not taken as a pivot
        m = [[GR_ZERO, g(1), g(2)], [GR_ZERO, g(3), g(6)], [GR_ZERO, g(0, 1), g(1)]]
        assert linalg.rank(m) == 2
        assert linalg.det(m, GR_ONE, GR_ZERO) == GR_ZERO
        # one row swap flips the sign
        assert linalg.det([[GR_ZERO, g(2)], [g(3), g(1)]], GR_ONE, GR_ZERO) == g(-6)
        with pytest.raises(ValueError, match="square"):
            linalg.det([[GR_ONE, GR_ZERO]], GR_ONE, GR_ZERO)


class TestPolynomial:
    def test_det_and_generic_rank_match_domain_matrix(self):
        rng = random.Random(77)
        one, zero = Poly.constant(Z, GR_ONE), Poly.zero(Z)
        for trial in range(40):
            n = rng.randint(1, 4)
            cols = n if trial % 2 else rng.randint(1, 5)
            if trial % 4 < 2:
                m = [[rand_poly(rng) for _ in range(cols)] for _ in range(n)]
            else:
                m = low_rank(rng, n, cols, rng.randint(1, min(n, cols)), rand_poly, zero)
            pm = PolyMatrix(m)
            expected = domain_matrix(m, to_ring, RING).convert_to(FIELD).rank()
            assert generic_rank(pm) == expected
            assert generic_rank(pm.to_func()) == expected
            if n == cols:
                assert to_ring(linalg.det(m, one, zero)) == domain_matrix(m, to_ring, RING).det()

    def test_rational_function_det_matches_fraction_field(self):
        rng = random.Random(78)
        one = RationalFunction.constant(Z, GR_ONE)
        zero = RationalFunction.constant(Z, GR_ZERO)
        for _ in range(12):
            n = rng.randint(2, 3)
            m = [
                [RationalFunction(rand_poly(rng, 1), rand_poly(rng, 1, 0.0) or one.numerator)
                 for _ in range(n)]
                for _ in range(n)
            ]
            d = linalg.det(m, one, zero)
            oracle = domain_matrix(m, lambda f: to_field(f.numerator) / to_field(f.denominator), FIELD).det()
            assert to_ring(d.numerator) * oracle.denom == oracle.numer * to_ring(d.denominator)

    def test_three_variable_det(self):
        xs = ("x0", "x1", "x2")
        ring = QQ_I[sympy.symbols("x0 x1 x2")]
        rng = random.Random(79)
        one, zero = Poly.constant(xs, GR_ONE), Poly.zero(xs)
        for _ in range(10):
            n = rng.randint(2, 4)
            m = [
                [Poly(xs, {(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1)): rand_scalar(rng, 0.0)
                           for _ in range(2)}) for _ in range(n)]
                for _ in range(n)
            ]
            expected = domain_matrix(m, lambda p: to_ring(p, ring), ring).det()
            assert to_ring(linalg.det(m, one, zero), ring) == expected
