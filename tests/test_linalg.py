"""Elimination kernels against sympy's DomainMatrix.

Q(i) matrices are compared with DomainMatrix over QQ_I; polynomial matrices
with DomainMatrix over QQ_I[z] (det) and its fraction field QQ_I(z) (rank, and
det of rational-function matrices).  Rank-deficient rectangular matrices and
zero columns exercise the column skip of the fraction-free kernel.  Sparse
Q(i) matrices with zero rows and columns exercise the zero skipping of the
reduced echelon form behind nullspace, invert and reduced_basis, and
projected_nullspace is checked against the projection of the full kernel,
over Q(i) and Q(i)(z), on a row whose leading entry three stored rows clear
in turn, and by the rows its forward elimination hands to `_rref`.
Over Q(i), a two-variable polynomial ring and Q(i)(z), the constants in an
answer come from the entries' ring.
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
                assert to_qqi(linalg.det(m)) == oracle.det()

    def test_edge_shapes(self):
        assert linalg.rank([]) == 0
        with pytest.raises(ValueError, match="nonempty"):
            linalg.det([])
        assert linalg.rank([[GR_ZERO, GR_ZERO], [GR_ZERO, GR_ZERO]]) == 0
        # a zero leading column is skipped, not taken as a pivot
        m = [[GR_ZERO, g(1), g(2)], [GR_ZERO, g(3), g(6)], [GR_ZERO, g(0, 1), g(1)]]
        assert linalg.rank(m) == 2
        assert linalg.det(m) == GR_ZERO
        # one row swap flips the sign
        assert linalg.det([[GR_ZERO, g(2)], [g(3), g(1)]]) == g(-6)
        with pytest.raises(ValueError, match="square"):
            linalg.det([[GR_ONE, GR_ZERO]])


class TestPolynomial:
    def test_det_and_generic_rank_match_domain_matrix(self):
        rng = random.Random(77)
        zero = Poly.zero(Z)
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
                assert to_ring(linalg.det(m)) == domain_matrix(m, to_ring, RING).det()

    def test_rational_function_det_matches_fraction_field(self):
        rng = random.Random(78)
        one = RationalFunction.constant(Z, GR_ONE)
        for _ in range(12):
            n = rng.randint(2, 3)
            m = [
                [RationalFunction(rand_poly(rng, 1), rand_poly(rng, 1, 0.0) or one.numerator)
                 for _ in range(n)]
                for _ in range(n)
            ]
            d = linalg.det(m)
            oracle = domain_matrix(m, lambda f: to_field(f.numerator) / to_field(f.denominator), FIELD).det()
            assert to_ring(d.numerator) * oracle.denom == oracle.numer * to_ring(d.denominator)

    def test_three_variable_det(self):
        xs = ("x0", "x1", "x2")
        ring = QQ_I[sympy.symbols("x0 x1 x2")]
        rng = random.Random(79)
        for _ in range(10):
            n = rng.randint(2, 4)
            m = [
                [Poly(xs, {(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1)): rand_scalar(rng, 0.0)
                           for _ in range(2)}) for _ in range(n)]
                for _ in range(n)
            ]
            expected = domain_matrix(m, lambda p: to_ring(p, ring), ring).det()
            assert to_ring(linalg.det(m), ring) == expected


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
            basis = linalg.nullspace(m)
            assert len(basis) == len(m[0]) - oracle.rank()
            assert all(not any(linalg.mat_vec(m, v)) for v in basis)
            expected = [v for v in oracle.nullspace().to_list() if any(v)]
            assert span(qqi_rows(basis)) == span(expected)

    def test_reduced_basis_is_the_rref(self):
        for _, m in self.instances(502):
            assert qqi_rows(linalg.reduced_basis(m)) == span(qqi_rows(m))

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
            inverse = linalg.invert(m)
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
            assert linalg.reduced_basis(shuffled) == linalg.reduced_basis(m)
            assert linalg.nullspace(shuffled) == linalg.nullspace(m)

    def test_rows_that_cancel_exactly(self):
        z = GR_ZERO
        # the second row reduces to (0, 0, 1): column 1 cancels and must not become a pivot
        m = [[GR_ONE, GR_ONE, z], [GR_ONE, GR_ONE, GR_ONE], [g(2), g(2), GR_ONE]]
        assert linalg.reduced_basis(m) == [[GR_ONE, GR_ONE, z], [z, z, GR_ONE]]
        assert linalg.nullspace(m) == [[-GR_ONE, GR_ONE, z]]

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
            basis = linalg.nullspace(m)
            assert len(basis) == cols - rank
            assert all(not any(linalg.mat_vec(m, v)) for v in basis)
            square = [[entry(rng) for _ in range(cols)] for _ in range(cols)]
            inverse = linalg.invert(square)
            if linalg.det(square):
                assert linalg.mat_mul(square, inverse) == linalg.identity(cols, one, zero)
            else:
                assert inverse is None
            if cols >= 3:
                square[2] = [x + y for x, y in zip(square[0], square[1])]
                assert linalg.invert(square) is None


XY = ("x", "y")
# (zero, one, a nonzero entry) of each ring
RINGS = {
    "gaussian": (GR_ZERO, GR_ONE, g(2, 1)),
    "poly-xy": (Poly.zero(XY), Poly.constant(XY, GR_ONE), Poly.variable(XY, "x") + Poly.variable(XY, "y")),
    "rational": (
        RationalFunction.constant(Z, GR_ZERO),
        RationalFunction.constant(Z, GR_ONE),
        RationalFunction(Poly.variable(Z, "z"), Poly.variable(Z, "z") + 1),
    ),
}


def same_type(grid, like):
    return all(type(x) is type(like) for row in grid for x in row)


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS)
class TestConstantsFromTheEntries:
    """`x * 0` and `x ** 0` of an entry x supply the zero and the one of an answer.

    Equality alone would not tell the rings apart (a constant Poly equals a
    GaussianRational), so the entry types are checked too; Poly equality
    compares the variable lists.
    """

    def test_nullspace_of_a_zero_matrix_is_the_unit_vectors(self, ring):
        zero, one, _ = ring
        basis = linalg.nullspace([[zero] * 3, [zero] * 3])
        assert basis == linalg.identity(3, one, zero)
        assert same_type(basis, zero)

    def test_det_of_a_singular_matrix_is_the_rings_zero(self, ring):
        zero, one, x = ring
        d = linalg.det([[x, one], [x * x, x]])
        assert d == zero
        assert same_type([[d]], zero)

    def test_invert_keeps_the_entry_type(self, ring):
        zero, one, x = ring
        inverse = linalg.invert([[one, x], [zero, one]])
        assert inverse == [[one, -x], [zero, one]]
        assert same_type(inverse, zero)


def test_mat_mul_of_polynomials_by_rational_functions():
    z = Poly.variable(Z, "z")
    f = RationalFunction(Poly.constant(Z, GR_ONE), z + 1)
    # the second column accumulates from a Poly product z * z, then adds 0 * f
    product = linalg.mat_mul([[z, Poly.zero(Z)]], [[f, z], [f, f]])
    assert product == [[RationalFunction(z, z + 1), RationalFunction(z * z)]]
    assert same_type(product, f)


def test_products_refuse_mismatched_shapes():
    # an extra column of a, a short vector and a ragged b are errors, not truncations
    with pytest.raises(ValueError):
        linalg.mat_mul([[GR_ONE, GR_ONE]], [[GR_ONE]])
    with pytest.raises(ValueError):
        linalg.mat_vec([[GR_ONE, GR_ONE]], [GR_ONE])
    with pytest.raises(ValueError):
        linalg.mat_mul([[GR_ONE, GR_ONE]], [[GR_ONE, GR_ONE], [GR_ONE]])


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
        full = linalg.nullspace(m)
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

    def test_leading_entry_cleared_by_three_pivots_in_turn(self):
        one, z = GR_ONE, GR_ZERO
        rows = [{0: one, 1: one}, {1: one, 2: one}, {2: one, 3: g(2)}]
        # x0 + x3 + x4 leads in column 0; minus the first row it leads in 1,
        # plus the second in 2, minus the third in 3: it is stored as x4 - x3
        last = {0: one, 3: one, 4: one}
        assert linalg.projected_nullspace(rows + [last], 5, 2, one, z) == (4, [[one, one]])
        # a fifth row, the sum of the first three, clears to nothing; the
        # kernel is spanned by (-2, 2, -2, 1, 1)
        total = {0: one, 1: g(2), 2: g(2), 3: g(2)}
        assert linalg.projected_nullspace(rows + [last, total], 5, 2, one, z) == (4, [[one, one]])
        assert linalg.projected_nullspace(rows + [total, last], 5, 5, one, z) == (
            4,
            [[one, -one, one, -one / 2, -one / 2]],
        )

    def test_rational_function_rows(self):
        rng = random.Random(508)
        one = RationalFunction.constant(Z, GR_ONE)
        zero = RationalFunction.constant(Z, GR_ZERO)

        def entry(rng):
            if rng.random() < 0.4:
                return zero
            return RationalFunction(rand_poly(rng, 1), rand_poly(rng, 1, 0.0) or one.numerator)

        for _ in range(12):
            rows, cols = rng.randint(1, 4), rng.randint(2, 5)
            m = [[entry(rng) for _ in range(cols)] for _ in range(rows)]
            if rows >= 3:
                # a row that the others cancel
                f, h = entry(rng), entry(rng)
                m[2] = [f * x + h * y for x, y in zip(m[0], m[1])]
            k = rng.randint(0, cols)
            full = linalg.nullspace(m)
            rank, basis = projected(m, k, one, zero)
            assert rank == cols - len(full)
            assert basis == linalg.reduced_basis([v[cols - k:] for v in full])

    def test_rref_sees_at_most_k_rows(self, monkeypatch):
        seen = []
        rref = linalg._rref

        def counted(rows):
            rows = list(rows)
            seen.append(len(rows))
            return rref(rows)

        rng = random.Random(509)
        cases = []
        for _ in range(40):
            cols = rng.randint(2, 10)
            cases.append((sparse_qi(rng, rng.randint(cols, 3 * cols), cols), rng.randint(0, cols)))
        expected = [projected(m, k, GR_ONE, GR_ZERO) for m, k in cases]
        monkeypatch.setattr(linalg, "_rref", counted)
        for (m, k), want in zip(cases, expected):
            seen.clear()
            assert projected(m, k, GR_ONE, GR_ZERO) == want
            assert seen and max(seen) <= k < len(m)
