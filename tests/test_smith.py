"""Local Smith factorization, kernel projections, invariant factors."""

import random

import pytest

import similitude.linalg as linalg
import similitude.smith as smith
from similitude.algebra import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Poly,
    PolyMatrix,
    RationalFunction,
    _u_order,
    poly_divmod_univariate,
    rat,
)
from similitude.smith import (
    SmithError,
    _local_echelon,
    holomorphic_kernel_section,
    invariant_factors,
    kernel_projection,
    local_smith,
    minor_gcd_valuation,
)
from similitude.sylvester import sylvester_matrix

g = GaussianRational


def rand_poly(rng, degree):
    return Poly(
        ("z",),
        {(d,): g(rng.randint(-3, 3), rng.randint(-2, 2)) for d in range(degree + 1)},
    )


class TestLocalSmith:
    def test_identity(self):
        m = PolyMatrix.identity(2, ("z",))
        fact = local_smith(m, GR_ZERO)
        assert fact.exponents == (0, 0)
        assert fact.E == PolyMatrix.identity(2, ("z",)).to_func()
        assert fact.F == PolyMatrix.identity(2, ("z",)).to_func()

    def test_diag_z_one(self):
        m = PolyMatrix.from_strings([["z", "0"], ["0", "1"]], ["z"])
        fact = local_smith(m, GR_ZERO)
        assert fact.exponents == (0, 1)
        assert fact.generic_rank == 2
        assert fact.reconstruct() == m.to_func()
        # oracle: minor-gcd valuations
        assert minor_gcd_valuation(m, GR_ZERO, 1) == 0
        assert minor_gcd_valuation(m, GR_ZERO, 2) == 1

    def test_rank_one_family(self):
        m = PolyMatrix.from_strings([["z", "z"], ["z", "z"]], ["z"])
        fact = local_smith(m, GR_ZERO)
        assert fact.exponents == (1,)
        assert fact.generic_rank == 1
        assert fact.reconstruct() == m.to_func()

    def test_zero_matrix(self):
        m = PolyMatrix.from_strings([["0", "0", "0"]] * 2, ["z"])
        fact = local_smith(m, GR_ZERO)
        assert fact.exponents == ()
        assert fact.generic_rank == 0

    def test_random_reconstruction_and_oracle(self):
        rng = random.Random(23)
        points = [g(0), g(1), g(-1), g(2), g(0, 1), g(1, 1), g(1, -1)]
        for _ in range(25):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            m = PolyMatrix(
                [[rand_poly(rng, rng.randint(0, 3)) for _ in range(cols)] for _ in range(rows)]
            )
            xi = rng.choice(points)
            fact = local_smith(m, xi)
            assert fact.reconstruct() == m.to_func()
            assert linalg.det(fact.E.evaluate([xi]))
            assert linalg.det(fact.F.evaluate([xi]))
            assert all(a <= b for a, b in zip(fact.exponents, fact.exponents[1:]))
            for k in range(fact.generic_rank + 1):
                assert sum(fact.exponents[:k]) == minor_gcd_valuation(m, xi, k)


def _shift(f, z_new):
    """f(z_new) for a univariate RationalFunction f, by Poly.substitute."""
    (v,) = f.variables
    return RationalFunction(
        f.numerator.substitute({v: z_new}), f.denominator.substitute({v: z_new})
    )


def _smith_at_zero(m):
    """Local Smith factorization at 0 by z-adic valuations (the reference loop)."""
    vs = m.variables
    n, cols = m.rows, m.cols
    work = [list(row) for row in m.entries]
    e = [list(row) for row in PolyMatrix.identity(n, vs).to_func().entries]
    f = [list(row) for row in PolyMatrix.identity(cols, vs).to_func().entries]
    exponents = []
    for k in range(min(n, cols)):
        cands = [
            (work[i][j].numerator.valuation(), i, j)
            for i in range(k, n)
            for j in range(k, cols)
            if work[i][j]
        ]
        if not cands:
            break
        kappa, pi, pj = min(cands)
        work[k], work[pi] = work[pi], work[k]
        for row in e:
            row[k], row[pi] = row[pi], row[k]
        for row in work:
            row[k], row[pj] = row[pj], row[k]
        f[k], f[pj] = f[pj], f[k]
        piv = work[k][k]
        unit = RationalFunction(
            Poly.from_coefficients(vs, piv.numerator.coefficients()[kappa:]), piv.denominator
        )
        inv_unit = unit.inverse()
        work[k] = work[k][:k] + [x * inv_unit for x in work[k][k:]]
        for r in range(n):
            e[r][k] = e[r][k] * unit
        pivot_inv = work[k][k].inverse()
        for i in range(k + 1, n):
            if work[i][k]:
                c = work[i][k] * pivot_inv
                work[i] = work[i][:k] + [x - c * y for x, y in zip(work[i][k:], work[k][k:])]
                for r in range(n):
                    e[r][k] = e[r][k] + c * e[r][i]
        for j in range(k + 1, cols):
            if work[k][j]:
                c = work[k][j] * pivot_inv
                for i in range(n):
                    work[i][j] = work[i][j] - c * work[i][k]
                f[k] = [x + c * y for x, y in zip(f[k], f[j])]
        exponents.append(kappa)
    return tuple(exponents), PolyMatrix(e), PolyMatrix(f)


def _smith_by_change_of_variables(m, xi):
    """Factor M(z + xi) at 0, then map E and F back by z -> z - xi."""
    vs = m.variables
    z = Poly.variable(vs, vs[0])
    forward = z + Poly.constant(vs, xi)
    back = z - Poly.constant(vs, xi)
    exponents, e, f = _smith_at_zero(m.to_func().map(lambda x: _shift(x, forward)))
    return exponents, e.map(lambda x: _shift(x, back)), f.map(lambda x: _shift(x, back))


class TestLocalSmithAtThePoint:
    """local_smith at xi equals factoring M(z + xi) at 0 and shifting E, F back.

    The reference keeps the earlier change-of-variables algorithm, so the
    factorization at the point itself must agree with it entry for entry.
    """

    POINTS = [g(1), g(-1), g(2), g(0, 1), g(1, 1), g(rat(1, 2))]

    def _family(self, rng, xi, rational):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        z = Poly.variable(("z",), "z")
        local = z - Poly.constant(("z",), xi)
        dens = [Poly.parse(d, ["z"]) for d in ("1", "z+3", "z^2+5", "2*z-7")]
        grid = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                f = RationalFunction(rand_poly(rng, rng.randint(0, 2)) * local ** rng.randint(0, 2))
                if rational and rng.random() < 0.5:
                    f = f * RationalFunction(Poly.constant(("z",), GR_ONE), rng.choice(dens))
                row.append(f)
            grid.append(row)
        return PolyMatrix(grid)

    @pytest.mark.parametrize("rational", [False, True])
    def test_matches_change_of_variables(self, rational):
        rng = random.Random(71 + rational)
        jumps = 0
        for xi in self.POINTS:
            for _ in range(3):
                m = self._family(rng, xi, rational)
                if not rational:
                    assert all(f.is_polynomial() for row in m.entries for f in row)
                    m = PolyMatrix([[f.numerator for f in row] for row in m.entries])
                fact = local_smith(m, xi)
                exponents, e, f = _smith_by_change_of_variables(m, xi)
                assert fact.exponents == exponents
                assert fact.E == e
                assert fact.F == f
                jumps += any(fact.exponents)
        assert jumps >= 3

    def test_pole_at_point_is_rejected(self):
        m = PolyMatrix(
            [[RationalFunction(Poly.parse("z", ["z"]), Poly.parse("2*z-1", ["z"]))]]
        )
        assert local_smith(m, g(1)).exponents == (0,)
        with pytest.raises(SmithError, match="local ring"):
            local_smith(m, g(rat(1, 2)))


class TestKernelProjection:
    def test_trivial_kernel(self):
        m = PolyMatrix.identity(2, ("z",))
        proj = kernel_projection(m, GR_ZERO)
        assert proj.P.is_zero()

    def test_full_kernel(self):
        m = PolyMatrix.from_strings([["0", "0"]] * 2, ["z"])
        proj = kernel_projection(m, GR_ZERO)
        assert proj.P == PolyMatrix.identity(2, ("z",)).to_func()

    def test_rank_one_family(self):
        m = PolyMatrix.from_strings([["z", "z"], ["z", "z"]], ["z"])
        proj = kernel_projection(m, GR_ZERO)
        assert proj.P * proj.P == proj.P
        assert (m.to_func() * proj.P).is_zero()
        # im P(z) = span{(1, -1)} for every z: columns proportional to (1, -1)
        for j in range(2):
            col = [proj.P.entries[i][j] for i in range(2)]
            assert col[0] + col[1] == 0 * col[0]

    def test_idempotent_and_annihilated_random(self):
        rng = random.Random(29)
        for _ in range(10):
            m = PolyMatrix(
                [[rand_poly(rng, 2) for _ in range(2)] for _ in range(2)]
            )
            proj = kernel_projection(m, GR_ZERO)
            assert proj.P * proj.P == proj.P
            assert (m.to_func() * proj.P).is_zero()

    def test_projection_splits_kernel_component(self):
        # all exponents zero: P v lies in ker M(point) and v = P v + (I - P) v
        from similitude.algebra import RationalFunction

        m = PolyMatrix.from_strings([["1", "0"], ["0", "0"]], ["z"])
        proj = kernel_projection(m, GR_ZERO)
        assert proj.constant_kernel_dimension()
        const = lambda x: RationalFunction.constant(("z",), x)
        rng = random.Random(31)
        for _ in range(10):
            v = [g(rng.randint(-4, 4)), g(rng.randint(-4, 4))]
            image = linalg.mat_vec([list(r) for r in proj.P.entries], [const(x) for x in v])
            pv = [f.evaluate([GR_ZERO]) for f in image]
            assert linalg.mat_vec(m.evaluate([GR_ZERO]), pv) == [GR_ZERO, GR_ZERO]
            # ker M = span{e2}: the projection keeps exactly the kernel component
            assert pv == [GR_ZERO, v[1]]


class TestKernelSection:
    def test_constant_kernel(self):
        m = PolyMatrix.from_strings([["1", "0"]], ["z"])
        h = holomorphic_kernel_section(m, GR_ZERO, [g(0), g(1)])
        assert [f.evaluate([g(5)]) for f in h] == [g(0), g(1)]

    def test_unit_entry_family(self):
        m = PolyMatrix.from_strings([["z-1", "0"]], ["z"])
        h = holomorphic_kernel_section(m, GR_ZERO, [g(0), g(1)])
        assert [f.evaluate([g(0)]) for f in h] == [g(0), g(1)]
        # exact identity M h = 0
        prod = linalg.mat_vec([[p for p in row] for row in m.to_func().entries], h)
        assert all(not f for f in prod)

    def test_jump_point_with_projected_vector(self):
        # kernel dimension jumps at 0, but (1, -1) spans ker M(z) off 0 and
        # the projection fixes it, so the section is still delivered
        m = PolyMatrix.from_strings([["z", "z"]], ["z"])
        h = holomorphic_kernel_section(m, GR_ZERO, [g(1), g(-1)])
        assert [f.evaluate([GR_ZERO]) for f in h] == [g(1), g(-1)]

    def test_not_in_kernel(self):
        m = PolyMatrix.from_strings([["1", "0"]], ["z"])
        with pytest.raises(SmithError, match="not in kernel"):
            holomorphic_kernel_section(m, GR_ZERO, [g(1), g(0)])

    def test_jump_error_when_unfixable(self):
        # at a genuine jump, a vector outside im P(0) cannot be extended
        m = PolyMatrix.from_strings([["z", "z"]], ["z"])
        with pytest.raises(SmithError, match="jumps"):
            holomorphic_kernel_section(m, GR_ZERO, [g(1), g(0)])


def _reference_projection(fact):
    """P = F^-1 diag(0_r, I) F from an explicit inverse and product."""
    f = [list(row) for row in fact.F.entries]
    zero = RationalFunction.constant(fact.variables, GR_ZERO)
    lower = [[zero] * len(f) for _ in range(fact.generic_rank)] + f[fact.generic_rank:]
    return linalg.mat_mul(linalg.invert(f), lower)


def _assert_permuted_unit_triangular(f, r):
    """F = U·Π with U unit upper triangular and rows r.. unit vectors.

    Column π(k) of F is column k of U, so its lowest nonzero row is k and
    holds a 1: the lowest rows of the columns are a permutation.
    """
    n = len(f)
    lowest = [max(i for i in range(n) if f[i][c]) for c in range(n)]
    assert sorted(lowest) == list(range(n))
    assert all(f[lowest[c]][c] == 1 for c in range(n))
    assert all(sum(1 for x in f[k] if x) == 1 for k in range(r, n))


def _corrupt_pivot(ech):
    ech.rows[0][0] = [*ech.rows[0][0], GR_ONE]  # p + z^(deg p + 1)


def _corrupt_schur_column(ech):
    p = ech.rows[1][0]  # B_0[1][0], left in place under the first pivot
    ech.rows[1][0] = [GR_ONE, *p[1:]]


class TestBackSubstitutionThroughF:
    """kernel_projection and holomorphic_kernel_section against the explicit
    F^-1 diag(0, I) F, on square and non-square families at constant and jump
    points."""

    @staticmethod
    def _families():
        rng = random.Random(89)
        vs = ("z",)
        z = Poly.variable(vs, "z")
        points = [g(0), g(1), g(-1), g(0, 1)]
        out = []

        def jump(grid, c, xi, local):
            # the last row (the last column, when there are more rows than
            # columns) becomes c times the first plus local times itself,
            # which agrees with c times the first at xi: the rank drops there
            if len(grid) <= len(grid[0]):
                grid = grid[:-1] + [[x * c + y * local for x, y in zip(grid[0], grid[-1])]]
            else:
                grid = [row[:-1] + [row[0] * c + row[-1] * local] for row in grid]
            m = PolyMatrix(grid)
            assert any(local_smith(m, xi).exponents), m.to_strings()
            return m, xi

        for _ in range(4):
            # square: a conjugate pair's intertwiner matrix
            a = PolyMatrix([[rand_poly(rng, 1) for _ in range(2)] for _ in range(2)])
            gamma = [[g(1), g(rng.randint(-2, 2))], [g(0), g(1)]]
            gamma_inv = [[g(1), -gamma[0][1]], [g(0), g(1)]]
            b = PolyMatrix.from_scalars(gamma_inv, vs) * a * PolyMatrix.from_scalars(gamma, vs)
            out.append((sylvester_matrix(a, b), rng.choice(points)))
        for xi in (g(0), g(2)):
            # square with a jump at xi: the eigenvalues ±(z - xi) of A meet there
            local = z - Poly.constant(vs, xi)
            a = PolyMatrix([[local, Poly.zero(vs)], [local * g(rng.randint(1, 3)), -local]])
            out.append((sylvester_matrix(a, a), xi))
        for rows, cols in ((2, 3), (3, 2), (3, 4), (2, 4)):
            xi = rng.choice(points)
            grid = [[rand_poly(rng, 1) for _ in range(cols)] for _ in range(rows)]
            out.append((PolyMatrix(grid), xi))
            out.append(jump(grid, g(rng.randint(1, 2)), xi, z - Poly.constant(vs, xi)))
        # rational entries with poles off xi: each row is scaled by the lcm of
        # its denominators, a unit at xi
        dens = [Poly.parse(d, ["z"]) for d in ("1", "z+3", "z^2+5", "2*z-7")]
        for rows, cols in ((2, 2), (2, 3), (3, 2), (3, 4)):
            xi = rng.choice(points)
            grid = [
                [RationalFunction(rand_poly(rng, 1), rng.choice(dens)) for _ in range(cols)]
                for _ in range(rows)
            ]
            out.append((PolyMatrix(grid), xi))
            out.append(jump(grid, g(rng.randint(1, 2)), xi, RationalFunction(z - Poly.constant(vs, xi))))
        # the golden pairs: a jump that a kernel vector survives, and one it does not
        jump_a = PolyMatrix.from_strings([["0", "z"], ["0", "0"]], ["z"])
        jump_b = PolyMatrix.from_strings([["0", "z^2"], ["0", "0"]], ["z"])
        out.append((sylvester_matrix(jump_a, jump_b), g(0)))
        out.append((sylvester_matrix(jump_a, jump_a), g(0)))
        return out

    def test_matches_the_explicit_idempotent(self):
        rng = random.Random(97)
        vs = ("z",)
        outcomes = set()
        for m, xi in self._families():
            fact = local_smith(m, xi)
            _assert_permuted_unit_triangular(fact.F.entries, fact.generic_rank)
            p_ref = _reference_projection(fact)
            assert kernel_projection(m, xi).P == PolyMatrix(p_ref)
            basis = linalg.nullspace(m.evaluate([xi]))
            combination = [GR_ZERO] * m.cols
            for vec in basis:
                c = g(rng.randint(-3, 3), rng.randint(-3, 3))
                combination = [x + c * y for x, y in zip(combination, vec)]
            jump = any(fact.exponents)
            for v in basis + [combination]:
                h_ref = linalg.mat_vec(p_ref, [RationalFunction.constant(vs, x) for x in v])
                if [f.evaluate([xi]) for f in h_ref] == v:
                    assert holomorphic_kernel_section(m, xi, v) == h_ref
                    outcomes.add((jump, "section"))
                else:
                    assert jump
                    with pytest.raises(SmithError, match="jumps"):
                        holomorphic_kernel_section(m, xi, v)
                    outcomes.add((jump, "raised"))
        assert outcomes == {(False, "section"), (True, "section"), (True, "raised")}

    @pytest.mark.parametrize(
        "corrupt, run, message",
        [
            pytest.param(
                _corrupt_pivot, lambda m: kernel_projection(m, GR_ZERO), "remainder", id="pivot-projection"
            ),
            pytest.param(
                _corrupt_pivot,
                lambda m: holomorphic_kernel_section(m, GR_ZERO, [g(0), g(1), g(0)]),
                "remainder",
                id="pivot-section",
            ),
            pytest.param(
                _corrupt_schur_column, lambda m: local_smith(m, GR_ZERO), "below the pivot's order", id="schur-column"
            ),
        ],
    )
    def test_a_corrupted_echelon_is_caught(self, monkeypatch, corrupt, run, message):
        # rank 2 with pivot orders (1, 2) at 0, and z in both rows of column 0;
        # (0, 1, 0) spans the limit of ker M(z) at 0, so the section exists
        m = PolyMatrix.from_strings([["z", "z^2", "z"], ["z", "0", "z^2"]], ["z"])
        ech = _local_echelon(m, GR_ZERO)
        assert ech.orders == [1, 2] and ech.rows[1][0] == [GR_ZERO, GR_ONE]
        run(m)
        corrupt(ech)
        monkeypatch.setattr(smith, "_local_echelon", lambda *_: ech)
        with pytest.raises(AssertionError, match=message):
            run(m)


class TestInvariantFactors:
    def test_jordan_vs_semisimple_pencils(self):
        jordan = PolyMatrix.from_strings([["x-1", "-1"], ["0", "x-1"]], ["x"])
        diag = PolyMatrix.from_strings([["x-1", "0"], ["0", "x-1"]], ["x"])
        fj = [str(p) for p in invariant_factors(jordan)]
        fd = [str(p) for p in invariant_factors(diag)]
        assert fj == ["1", "x^2-2*x+1"]
        assert fd == ["x-1", "x-1"]

    @pytest.mark.parametrize(
        "diagonal, expected",
        [
            (["x", "x+1"], ["1", "x^2+x"]),
            (["x^2", "x"], ["x", "x^2"]),
            # x(x-1), (x-1)(x+i), 0: gcd x-1, lcm x(x-1)(x+i)
            (["x^2-x", "x^2-1+1i*x-1i", "0"], ["x-1", "x^3-1+1i*x^2-1i*x"]),
            (["2*x+2", "x^2-1", "3*x"], ["1", "x+1", "x^3-x"]),
        ],
        ids=["coprime", "decreasing", "rank-deficient", "three"],
    )
    def test_diagonal_entries_that_do_not_divide(self, diagonal, expected):
        n = len(diagonal)
        grid = [[diagonal[i] if i == j else "0" for j in range(n)] for i in range(n)]
        m = PolyMatrix.from_strings(grid, ["x"])
        assert [str(p) for p in invariant_factors(m)] == expected

    def test_divisibility_chain(self):
        rng = random.Random(37)
        for _ in range(10):
            m = PolyMatrix(
                [[rand_poly(rng, 2) for _ in range(3)] for _ in range(3)]
            )
            factors = invariant_factors(m)
            for a, b in zip(factors, factors[1:]):
                _, rem = poly_divmod_univariate(b, a)
                assert not rem


def rand_unimodular(rng, n):
    """Product of 2n elementary matrices I + c x^k e_ij (i != j): determinant 1."""
    u = PolyMatrix.identity(n, ("x",))
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        grid = [[Poly.constant(("x",), int(r == c)) for c in range(n)] for r in range(n)]
        c = g(rng.randint(-2, 2), rng.randint(-1, 1))
        grid[i][j] = Poly.monomial(("x",), (rng.randint(0, 1),), c)
        u = u * PolyMatrix(grid)
    return u


def rand_smith_product(rng, rows, cols):
    """U D V with a divisibility chain on the diagonal of D, possibly rank-deficient."""
    grid = [[Poly.zero(("x",)) for _ in range(cols)] for _ in range(rows)]
    acc = Poly.constant(("x",), GR_ONE)
    for k in range(rng.randint(0, min(rows, cols))):
        acc = acc * Poly.parse(rng.choice(["1", "x", "x-1", "x+1i", "x^2+1"]), ["x"])
        grid[k][k] = acc * g(rng.randint(1, 3), rng.randint(-1, 1))
    return rand_unimodular(rng, rows) * PolyMatrix(grid) * rand_unimodular(rng, cols)


def rand_pencil(rng, n):
    """x I - A0 for A0 similar to an upper triangular matrix with repeated eigenvalues."""
    t = [[g(rng.choice([0, 0, 1, 2])) if c >= r else GR_ZERO for c in range(n)] for r in range(n)]
    for r in range(1, n):
        if rng.random() < 0.6:
            t[r][r] = t[r - 1][r - 1]
    p = rand_unimodular(rng, n).evaluate([GR_ZERO])
    p_inv = linalg.invert(p)
    a0 = linalg.mat_mul(linalg.mat_mul(p, t), p_inv)
    x = Poly.variable(("x",), "x")
    return PolyMatrix([[x * int(r == c) - a0[r][c] for c in range(n)] for r in range(n)])


class TestExponentsFromInvariantFactors:
    """The local Smith exponents at xi are the (x-xi)-adic valuations of the invariant factors.

    Families U diag(c (x-xi)^k (x-2)^j) V with U, V unimodular have the local
    exponents sorted(k) at xi, since x-2 is a unit there; the minor-gcd
    valuations are the independent oracle for their prefix sums.
    """

    def test_valuations_match_local_smith_and_minor_gcds(self):
        rng = random.Random(89)
        x = Poly.variable(("x",), "x")
        unit = Poly.parse("x-2", ["x"])
        points = [g(0), g(1), g(-1, 1), g(rat(1, 2))]
        jumps = 0
        for case in range(44):
            xi = points[case % len(points)]
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            grid = [[Poly.zero(("x",)) for _ in range(cols)] for _ in range(rows)]
            ks = [rng.choice([0, 1, 1, 2, 3]) for _ in range(rng.randint(1, min(rows, cols)))]
            for i, k in enumerate(ks):
                c = g(rng.randint(1, 3), rng.randint(-1, 1))
                grid[i][i] = (x - Poly.constant(("x",), xi)) ** k * unit ** rng.randint(0, 1) * c
            m = rand_unimodular(rng, rows) * PolyMatrix(grid) * rand_unimodular(rng, cols)
            valuations = tuple(_u_order(s.coefficients(), xi)[0] for s in invariant_factors(m))
            assert valuations == tuple(sorted(ks)) == local_smith(m, xi).exponents, m.to_strings()
            for j in range(len(ks) + 1):
                assert sum(valuations[:j]) == minor_gcd_valuation(m, xi, j)
            jumps += any(valuations)
        assert jumps >= 30


class TestInvariantFactorsAgainstSympy:
    """Differential oracle: sympy's Smith normal form over QQ_I[x].

    sympy lists min(rows, cols) factors, with zeros for the rank defect and
    not necessarily monic; ours lists the nonzero ones, monic.
    """

    @staticmethod
    def _oracle():
        """(to_ring, expected): our Poly into QQ_I[x], and sympy's monic nonzero factors of m."""
        sympy = pytest.importorskip("sympy")
        from sympy.polys.domains import QQ_I
        from sympy.polys.matrices import DomainMatrix
        from sympy.polys.matrices.normalforms import invariant_factors as sympy_factors

        ring = QQ_I[sympy.Symbol("x")]

        def to_qqi(c):
            return QQ_I.from_sympy(sympy.Rational(str(c.re)) + sympy.I * sympy.Rational(str(c.im)))

        def to_ring(p):
            return ring.ring.from_dict({e: to_qqi(c) for e, c in p.terms.items()})

        def expected(m):
            grid = DomainMatrix([[to_ring(p) for p in row] for row in m.entries], (m.rows, m.cols), ring)
            return [f.monic() for f in sympy_factors(grid) if f]

        return to_ring, expected

    def test_matches_sympy(self):
        to_ring, oracle = self._oracle()
        rng = random.Random(53)
        deficient = chains = 0
        for case in range(42):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            if case % 3 == 0:
                m = PolyMatrix(
                    [[rand_poly(rng, rng.randint(-1, 1)) for _ in range(cols)] for _ in range(rows)]
                )
            elif case % 3 == 1:
                m = rand_smith_product(rng, rows, cols)
            else:
                m = rand_pencil(rng, rows)
            expected = oracle(m)
            deficient += len(expected) < min(m.rows, m.cols)
            chains += sum(f.degree() > 0 for f in expected) >= 2
            assert [to_ring(p) for p in invariant_factors(m)] == expected, m.to_strings()
        # the seed covers rank defects and chains of two or more nonconstant factors
        assert deficient >= 5 and chains >= 5

    def test_non_dividing_diagonals_match_sympy(self):
        # U diag(a, b, ...) V with a not dividing b: the Euclidean reduction can
        # stop at a diagonal that is not a divisibility chain, and only the
        # gcd/lcm pass over its pairs gives the invariant factors
        to_ring, oracle = self._oracle()
        rng = random.Random(59)
        shapes = ["x", "x-1", "x^2", "x+1i", "x^2+1", "x^2-x", "x^3"]
        for _ in range(20):
            n = rng.choice([2, 3])
            while True:
                diagonal = [Poly.parse(rng.choice(shapes), ["x"]) for _ in range(n)]
                if poly_divmod_univariate(diagonal[1], diagonal[0])[1]:
                    break
            grid = [[Poly.zero(("x",)) for _ in range(n)] for _ in range(n)]
            for k, d in enumerate(diagonal):
                grid[k][k] = d * g(rng.randint(1, 3), rng.randint(-1, 1))
            m = rand_unimodular(rng, n) * PolyMatrix(grid) * rand_unimodular(rng, n)
            assert [to_ring(p) for p in invariant_factors(m)] == oracle(m), m.to_strings()

    def test_self_intertwiners_match_sympy(self):
        # the 9x9 matrices M(x) of A(x) = A0 + (x - xi) A1, with A0 similar to
        # diag(l, l, m): the commutant jumps at xi, so factors carry x - xi
        to_ring, oracle = self._oracle()
        x = Poly.variable(("x",), "x")
        for seed, xi in ((61, g(0)), (62, g(1, -1))):
            rng = random.Random(seed)
            lam, mu = (g(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(2))
            p = rand_unimodular(rng, 3).evaluate([GR_ZERO])
            d = [[(lam if i < 2 else mu) if i == j else GR_ZERO for j in range(3)] for i in range(3)]
            a0 = linalg.mat_mul(linalg.mat_mul(p, d), linalg.invert(p))
            a = PolyMatrix(
                [[(x - xi) * g(rng.randint(-1, 1), rng.randint(-1, 1)) + a0[i][j] for j in range(3)] for i in range(3)]
            )
            m = sylvester_matrix(a, a)
            factors = invariant_factors(m)
            assert [to_ring(f) for f in factors] == oracle(m), a.to_strings()
            assert factors[-1].total_degree() > 0


class TestUnivariatePreconditions:
    def test_local_smith_needs_one_variable(self):
        m = PolyMatrix.identity(2, ("z", "w"))
        with pytest.raises(SmithError, match="local_smith requires a univariate matrix"):
            local_smith(m, GR_ZERO)

    def test_minor_size_zero_and_negative(self):
        m = PolyMatrix.from_strings([["z", "0"], ["0", "z^2"]], ["z"])
        assert minor_gcd_valuation(m, GR_ZERO, 0) == 0
        with pytest.raises(SmithError, match="nonnegative"):
            minor_gcd_valuation(m, GR_ZERO, -1)

    def test_invariant_factors_needs_univariate_polynomials(self):
        with pytest.raises(SmithError, match="invariant_factors requires a univariate polynomial matrix"):
            invariant_factors(PolyMatrix.identity(2, ("z", "w")))
        with pytest.raises(SmithError, match="invariant_factors requires a univariate polynomial matrix"):
            invariant_factors(PolyMatrix.identity(2, ("z",)).to_func())
