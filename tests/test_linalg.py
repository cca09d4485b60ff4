"""Elimination kernels against sympy's DomainMatrix.

Q(i) matrices are compared with DomainMatrix over QQ_I; polynomial matrices
with DomainMatrix over QQ_I[z] (det) and its fraction field QQ_I(z) (rank, and
det of rational-function matrices).  Rank-deficient rectangular matrices and
zero columns exercise the column skip of the fraction-free kernel.  Sparse
Q(i) matrices with zero rows and columns exercise the zero skipping of the
reduced echelon form behind nullspace, solve, invert and reduced_basis, and
projected_nullspace is checked against the projection of the full kernel.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def sparse_qi(rng, rows, cols):
    """About 70% zeros, and now and then a whole zero row, a zero column or a repeated row."""
    m = [[rand_scalar(rng, 0.7) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.5:
        m[rng.randrange(rows)] = [GR_ZERO] * cols
    if rng.random() < 0.5:
        dead = rng.randrange(cols)
        for row in m:
            row[dead] = GR_ZERO
    if rows > 1 and rng.random() < 0.3:
        m[rng.randrange(rows)] = list(m[rng.randrange(rows)])
    return m


def qqi_rows(vectors):
    return [[to_qqi(x) for x in v] for v in vectors]


def span(vectors):
    """Nonzero rows of sympy's RREF of QQ_I vectors: a canonical form of their span."""
    if not vectors:
        return []
    rref, _ = DomainMatrix(vectors, (len(vectors), len(vectors[0])), QQ_I).rref()
    return [row for row in rref.to_list() if any(row)]


class TestSparseReducedForms:
    CASES = 200

    def instances(self, seed):
        rng = random.Random(seed)
        for _ in range(self.CASES):
            rows, cols = rng.randint(1, 8), rng.randint(1, 10)
            yield rng, sparse_qi(rng, rows, cols)

    def test_nullspace_spans_the_kernel(self):
        for _, m in self.instances(501):
            oracle = domain_matrix(m, to_qqi, QQ_I)
            basis = linalg.nullspace(m, GR_ONE, GR_ZERO)
            assert len(basis) == len(m[0]) - oracle.rank()
            assert all(not any(linalg.mat_vec(m, v, GR_ZERO)) for v in basis)
            expected = [v for v in oracle.nullspace().to_list() if any(v)]
            assert span(qqi_rows(basis)) == span(expected)

    def test_reduced_basis_is_the_rref(self):
        for _, m in self.instances(502):
            assert qqi_rows(linalg.reduced_basis(m)) == span(qqi_rows(m))

    def test_solve_is_consistent_exactly_when_sympy_says_so(self):
        for rng, m in self.instances(503):
            rows, cols = len(m), len(m[0])
            if rng.random() < 0.5:
                x0 = [rand_scalar(rng, 0.5) for _ in range(cols)]
                rhs = linalg.mat_vec(m, x0, GR_ZERO)
            else:
                rhs = [rand_scalar(rng, 0.5) for _ in range(rows)]
            augmented = [row + [b] for row, b in zip(m, rhs)]
            consistent = (
                domain_matrix(augmented, to_qqi, QQ_I).rank() == domain_matrix(m, to_qqi, QQ_I).rank()
            )
            x = linalg.solve(m, rhs, GR_ZERO)
            assert (x is not None) == consistent
            if x is not None:
                assert linalg.mat_vec(m, x, GR_ZERO) == rhs

    def test_invert_matches_domain_matrix(self):
        rng = random.Random(504)
        for _ in range(self.CASES):
            n = rng.randint(1, 8)
            m = sparse_qi(rng, n, n)
            if rng.random() < 0.5:
                # a dense enough diagonal to make most of these invertible
                for i in range(n):
                    m[i][i] = m[i][i] + g(rng.randint(1, 4), rng.randint(-1, 1))
            oracle = domain_matrix(m, to_qqi, QQ_I)
            inverse = linalg.invert(m, GR_ONE, GR_ZERO)
            if oracle.det() == QQ_I.zero:
                assert inverse is None
            else:
                assert qqi_rows(inverse) == oracle.inv().to_list()

    def test_row_order_does_not_matter(self):
        # a matrix has one reduced row echelon form, whatever order its rows come in
        for rng, m in self.instances(505):
            order = list(range(len(m)))
            rng.shuffle(order)
            shuffled = [m[i] for i in order]
            rhs = [rand_scalar(rng, 0.5) for _ in m]
            assert linalg.reduced_basis(shuffled) == linalg.reduced_basis(m)
            assert linalg.nullspace(shuffled, GR_ONE, GR_ZERO) == linalg.nullspace(m, GR_ONE, GR_ZERO)
            assert linalg.solve(shuffled, [rhs[i] for i in order], GR_ZERO) == linalg.solve(m, rhs, GR_ZERO)

    def test_rows_that_cancel_exactly(self):
        z = GR_ZERO
        # the second row reduces to (0, 0, 1): column 1 cancels and must not become a pivot
        m = [[GR_ONE, GR_ONE, z], [GR_ONE, GR_ONE, GR_ONE], [g(2), g(2), GR_ONE]]
        assert linalg.reduced_basis(m) == [[GR_ONE, GR_ONE, z], [z, z, GR_ONE]]
        assert linalg.nullspace(m, GR_ONE, z) == [[-GR_ONE, GR_ONE, z]]
        assert linalg.solve(m, [GR_ONE, g(3), g(4)], z) == [GR_ONE, z, g(2)]
        assert linalg.solve(m, [GR_ONE, g(3), g(5)], z) is None

    def test_rational_function_rows_that_cancel(self):
        rng = random.Random(506)
        one = RationalFunction.constant(Z, GR_ONE)
        zero = RationalFunction.constant(Z, GR_ZERO)

        def entry(rng):
            return RationalFunction(rand_poly(rng, 1), rand_poly(rng, 1, 0.0) or one.numerator)

        for _ in range(15):
            cols = rng.randint(2, 4)
            a, b = [entry(rng) for _ in range(cols)], [entry(rng) for _ in range(cols)]
            f, h = entry(rng), entry(rng)
            # the third row is f a + h b, so its reduction cancels to nothing
            m = [a, b, [f * x + h * y for x, y in zip(a, b)]]
            rank = linalg.rank(m)
            assert rank <= 2
            assert len(linalg.reduced_basis(m)) == rank
            basis = linalg.nullspace(m, one, zero)
            assert len(basis) == cols - rank
            assert all(not any(linalg.mat_vec(m, v, zero)) for v in basis)
            x0 = [entry(rng) for _ in range(cols)]
            rhs = linalg.mat_vec(m, x0, zero)
            assert linalg.mat_vec(m, linalg.solve(m, rhs, zero), zero) == rhs
            square = [[entry(rng) for _ in range(cols)] for _ in range(cols)]
            inverse = linalg.invert(square, one, zero)
            if linalg.det(square, one, zero):
                assert linalg.mat_mul(square, inverse, zero) == linalg.identity(cols, one, zero)
            else:
                assert inverse is None
            if cols >= 3:
                square[2] = [x + y for x, y in zip(square[0], square[1])]
                assert linalg.invert(square, one, zero) is None


SCALARS = st.sampled_from([GR_ZERO] * 7 + [GR_ONE, g(-2), g(0, 1), g(1, -1) / 3, g(5, 2)])


@st.composite
def matrix_and_k(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 8)) if rows else 0
    m = [draw(st.lists(SCALARS, min_size=cols, max_size=cols)) for _ in range(rows)]
    for r in draw(st.sets(st.integers(0, rows - 1), max_size=2)) if rows else ():
        m[r] = [GR_ZERO] * cols
    return m, draw(st.integers(0, cols))


def projected(m, k, one, zero):
    """projected_nullspace of a dense matrix; with no rows, the width is k."""
    cols = len(m[0]) if m else k
    rows = [{j: x for j, x in enumerate(row) if x} for row in m]
    return linalg.projected_nullspace(rows, cols, k, one, zero)


class TestProjectedNullspace:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(matrix_and_k())
    def test_equals_projection_of_the_full_kernel(self, case):
        m, k = case
        cols = len(m[0]) if m else 0
        full = linalg.nullspace(m, GR_ONE, GR_ZERO)
        rank, basis = projected(m, k, GR_ONE, GR_ZERO)
        assert rank == cols - len(full)
        assert basis == linalg.reduced_basis([v[cols - k:] for v in full])

    def test_explicit_zero_entries_are_ignored(self):
        rng = random.Random(507)
        for _ in range(100):
            cols = rng.randint(1, 8)
            m = sparse_qi(rng, rng.randint(1, 6), cols)
            k = rng.randint(0, cols)
            # every entry stored, zeros included, as an assembly that cancels leaves them
            dense_rows = [dict(enumerate(row)) for row in m]
            assert linalg.projected_nullspace(dense_rows, cols, k, GR_ONE, GR_ZERO) == projected(
                m, k, GR_ONE, GR_ZERO
            )

    def test_column_in_no_row_is_free(self):
        one, z = GR_ONE, GR_ZERO
        # x0 + x1 = 0 on three columns: x1 and the unused x2 are both free
        assert linalg.projected_nullspace([{0: one, 1: one}], 3, 2, one, z) == (
            1,
            linalg.identity(2, one, z),
        )
        assert linalg.projected_nullspace([{0: one, 1: one}], 3, 3, one, z) == (
            1,
            [[one, -one, z], [z, z, one]],
        )

    def test_edge_cases(self):
        z, one = GR_ZERO, GR_ONE
        assert projected([], 0, one, z) == (0, [])
        # no equations: every value of the projected coordinates is admissible
        assert projected([], 2, one, z) == (0, linalg.identity(2, one, z))
        assert projected([[z, z, z], [z, z, z]], 3, one, z) == (
            0,
            linalg.identity(3, one, z),
        )
        m = [[one, z, g(2)], [z, z, z], [z, one, one]]
        assert projected(m, 0, one, z) == (2, [])
        # the kernel is spanned by (-2, -1, 1)
        assert projected(m, 3, one, z) == (2, [[one, one / 2, -one / 2]])
        # x0 is solved for whatever x2 is; x1 + x2 = 0 ties x1 to x2
        assert projected(m, 2, one, z) == (2, [[one, -one]])
        assert projected(m, 1, one, z) == (2, [[one]])
        with pytest.raises(ValueError):
            projected(m, 4, one, z)
