"""The counterexample family, jet rigidity, index sets, winding, clutching."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from similitude.algebra import GR_ONE, GR_ZERO, GaussianRational, Poly, PolyMatrix
from similitude.rigidity import (
    Cusp,
    FullPlane,
    JetRigidityResult,
    Lines,
    RigidityError,
    build_family,
    clutching_invertibility,
    cusp_coefficient_support,
    default_order,
    index_sets,
    jet_rigidity,
    parse_variety,
    vandermonde_check,
    vandermonde_product,
    verify_division_identity,
    verify_smooth_similarity,
    winding_number,
)

g = GaussianRational
VARS = ("z", "w")


class TestFamily:
    def test_matrices_for_ell_zero(self):
        fam = build_family(0)
        assert fam.A == PolyMatrix.from_strings(
            [["z^2*w^2", "z^3"], ["w^3", "0"]], VARS
        )
        assert fam.B == PolyMatrix.from_strings(
            [["0", "z^3"], ["w^3", "z^2*w^2"]], VARS
        )

    def test_top_right_entry_for_ell_one(self):
        fam = build_family(1)
        assert fam.A.entries[0][1] == Poly.parse("z^4", VARS)

    def test_c_z_shape(self):
        fam = build_family(0)
        conj = ("z", "w", "u", "v")
        # c_z = -S[1][0] = u w^2 / (zu + wv), c_w = S[0][1] = v z^2 / (zu + wv)
        assert fam.S_cleared.entries[1][0] == -Poly.parse("u*w^2", conj)
        assert fam.S_cleared.entries[0][1] == Poly.parse("v*z^2", conj)
        assert fam.denominator == Poly.parse("z*u+w*v", conj)
        assert fam.S_cleared.entries[0][0] == fam.S_cleared.entries[1][1] == fam.denominator


class TestDivisionIdentity:
    def test_holds_for_small_ell(self):
        for ell in range(7):
            assert verify_division_identity(ell)

    def test_perturbed_identity_fails(self):
        # same combination with the coefficient of one numerator bumped by 1
        z, w, u, v = (Poly.variable(("z", "w", "u", "v"), n) for n in ("z", "w", "u", "v"))
        lhs = (u * w**2 + Poly.constant(("z", "w", "u", "v"), GR_ONE)) * z**3 + v * z**2 * w**3
        rhs = z**2 * w**2 * (z * u + w * v)
        assert lhs - rhs


class TestSmoothSimilarity:
    def test_exact_conjugation_small_ell(self):
        for ell in range(4):
            rep = verify_smooth_similarity(ell)
            assert rep.conjugation_exact
            assert rep.determinant_nonvanishing
            assert rep.max_abs_czcw < 1.0
            assert rep.degree_gap == ell + 1
            assert rep.smoothness_class == ell

    def test_grid_point_value(self):
        # at z = w = 1/2 (real): |c_z c_w| is far below 1
        ell = 0
        zz = ww = complex(0.5, 0.0)
        norm2 = abs(zz) ** 2 + abs(ww) ** 2
        cz = zz.conjugate() * ww ** (2 + ell) / norm2
        cw = ww.conjugate() * zz ** (2 + ell) / norm2
        assert abs(cz * cw) < 1.0

    def test_bound_is_exact_and_decides_the_determinant(self):
        for ell in range(4):
            rep = verify_smooth_similarity(ell)
            assert rep.czcw_bound == Fraction(1, 2 ** (3 + ell))
            assert rep.determinant_nonvanishing
            assert rep.max_abs_czcw <= rep.czcw_bound

    def test_bound_holds_at_gaussian_points_of_the_ball(self):
        # c_z c_w in exact Q(i) arithmetic with u = conj(z), v = conj(w), at
        # points with |z|^2 + |w|^2 <= 1; z = w = (1+i)/2 attains the bound
        rng = random.Random(37)
        half = g(1, 1) / 2
        points = [(half, half), (g(Fraction(3, 5)), g(0, Fraction(1, 2)))]
        while len(points) < 40:
            z = g(Fraction(rng.randint(-9, 9), 10), Fraction(rng.randint(-9, 9), 10))
            w = g(Fraction(rng.randint(-9, 9), 10), Fraction(rng.randint(-9, 9), 10))
            norm2 = z.re**2 + z.im**2 + w.re**2 + w.im**2
            if 0 < norm2 <= 1:
                points.append((z, w))
        for ell in range(4):
            fam = build_family(ell)
            bound = verify_smooth_similarity(ell).czcw_bound
            squares = []
            for z, w in points:
                at = [z, w, g(z.re, -z.im), g(w.re, -w.im)]
                den = fam.denominator.evaluate(at)
                cw = fam.S_cleared.entries[0][1].evaluate(at) / den
                cz = -fam.S_cleared.entries[1][0].evaluate(at) / den
                prod = cz * cw
                squares.append(prod.re**2 + prod.im**2)
            assert squares[0] == bound**2
            assert max(squares) <= bound**2, ell


class TestJetRigidityFullPlane:
    def test_relation_forces_zero(self):
        for ell in (0, 1, 2):
            fam = build_family(ell)
            order = 2 * ell + 4
            assert jet_rigidity(fam.A, fam.B, "AHeqHB", FullPlane(), order).is_zero_space()
            assert jet_rigidity(fam.A, fam.B, "HAeqBH", FullPlane(), order).is_zero_space()

    def test_commuting_relation_forces_scalar(self):
        for ell in (0, 1, 2):
            fam = build_family(ell)
            res = jet_rigidity(fam.A, fam.B, "AHeqHA", FullPlane(), 2 * ell + 4)
            assert res.is_scalar_line()

    def test_monotonicity_in_order(self):
        fam = build_family(0)
        dims = [
            jet_rigidity(fam.A, fam.B, "AHeqHA", FullPlane(), order).dimension()
            for order in (4, 6, 8)
        ]
        assert dims[0] >= dims[1] >= dims[2]

    def test_low_order_is_not_rigid(self):
        # below the isolation order the constant jet is unconstrained enough
        fam = build_family(0)
        res = jet_rigidity(fam.A, fam.B, "AHeqHB", FullPlane(), 2)
        assert not res.is_zero_space()


class TestJetRigidityCusp:
    def test_boundary_cusp_leaves_one_direction(self):
        # (p, q) = (4, 3) sits on the boundary q = ell + 3 of the exponent
        # hypothesis: z^4 - w^3 is the curve's own equation, so
        # H = [[0, 1], [z, 0]] intertwines exactly on the cusp and the
        # admissible H(0) form the line through [[0,1],[0,0]].
        fam = build_family(0)
        res = jet_rigidity(fam.A, fam.B, "AHeqHB", Cusp(4, 3), 21)
        assert [[str(x) for x in v] for v in res.solution_space] == [["0", "1", "0", "0"]]
        # det H(0) = 0 on the whole admissible space: the similarity
        # obstruction (no invertible H(0)) survives
        assert not res.contains_invertible()

    def test_explicit_intertwiner_on_boundary_cusp(self):
        fam = build_family(0)
        z = Poly.variable(VARS, "z")
        one = Poly.constant(VARS, GR_ONE)
        zero = Poly.zero(VARS)
        h = PolyMatrix([[zero, one], [z, zero]])
        residue = fam.A * h - h * fam.B
        curve = Poly.parse("z^4-w^3", VARS)
        assert residue.entries[0][0] == curve
        assert residue.entries[1][1] == -curve
        assert not residue.entries[0][1] and not residue.entries[1][0]

    def test_interior_cusp_is_rigid(self):
        # (p, q) = (5, 4) satisfies the hypothesis strictly: q >= ell + 4
        fam = build_family(0)
        res = jet_rigidity(fam.A, fam.B, "AHeqHB", Cusp(5, 4), 27)
        assert res.is_zero_space()

    def test_cusp_validation(self):
        with pytest.raises(RigidityError, match="coprime"):
            Cusp(2, 2)


class TestJetRigidityLines:
    def test_five_lines_force_zero(self):
        fam = build_family(0)
        res = jet_rigidity(
            fam.A, fam.B, "AHeqHB", Lines(tuple(g(i) for i in (1, 2, 3, 4, 5))), 4
        )
        assert res.is_zero_space()

    def test_two_lines_admit_invertible_jet(self):
        fam = build_family(0)
        res = jet_rigidity(fam.A, fam.B, "AHeqHB", Lines((g(1), g(2))), 4)
        assert res.contains_invertible()

    def test_contains_invertible_on_three_by_three_spaces(self):
        # det(sum x_t V_t) over Q(i)[x0, ...]: a 3x3 span reaches the exact
        # divisions of the fraction-free determinant, a 2x2 span does not
        def space(*mats):
            vecs = tuple(tuple(g(x) for row in m for x in row) for m in mats)
            return JetRigidityResult("AHeqHB", FullPlane(), 0, vecs, 0, 3)

        def unit(i, j):
            return [[int((r, c) == (i, j)) for c in range(3)] for r in range(3)]

        def add(*mats):
            return [[sum(m[r][c] for m in mats) for c in range(3)] for r in range(3)]

        def skew(i, j):
            return add(unit(i, j), [[-x for x in row] for row in unit(j, i)])

        assert space(add(unit(0, 0), unit(1, 1)), unit(2, 2)).contains_invertible()
        # x0*I + x1*N with N nilpotent: det = x0^3
        eye, nilpotent = add(unit(0, 0), unit(1, 1), unit(2, 2)), add(unit(0, 1), unit(1, 2))
        assert space(eye, nilpotent).contains_invertible()
        # every matrix with a zero third row
        assert not space(*(unit(i, j) for i in range(2) for j in range(3))).contains_invertible()
        # 3x3 skew-symmetric matrices: det vanishes identically, with no zero row
        assert not space(skew(0, 1), skew(0, 2), skew(1, 2)).contains_invertible()
        assert not space().contains_invertible()

    def test_repeated_slopes_rejected(self):
        with pytest.raises(RigidityError, match="distinct"):
            Lines((g(1), g(1)))

    def test_variety_parsing(self):
        assert parse_variety("full") == FullPlane()
        assert parse_variety("cusp:4,3") == Cusp(4, 3)
        assert parse_variety("lines:1,2") == Lines((g(1), g(2)))
        assert default_order(Cusp(4, 3), 0) == 21
        assert default_order(FullPlane(), 1) == 6
        for bad in ("cusp:a,b", "cusp:4", "cusp:4,2", "plane"):
            with pytest.raises(RigidityError):
                parse_variety(bad)
        # an empty slope item is refused, not dropped
        for bad in ("lines:1,,2", "lines:1,2,", "lines:"):
            with pytest.raises(RigidityError, match=f"empty line slope in '{bad}'"):
                parse_variety(bad)


class TestJetRigidityRelations:
    """What each relation asks of H, on constant pairs outside the family.

    For constant A and B each monomial of the plane, and each power of t on a
    curve, constrains its own coefficient block by L X - X R = 0, and only
    H(0) reaches the monomial 1 or t^0.  So on every variety the admissible
    H(0) are exactly the kernel of X -> L X - X R, with (L, R) = (A, B) for
    AH = HB, (B, A) for HA = BH and (A, A) for AH = HA.
    """

    OPERANDS = {"AHeqHB": "AB", "HAeqBH": "BA", "AHeqHA": "AA"}
    VARIETIES = (FullPlane(), Cusp(3, 2), Lines((g(1), g(2))))

    @staticmethod
    def matrix(grid):
        return PolyMatrix([[Poly.constant(VARS, x) for x in row] for row in grid])

    @staticmethod
    def to_sympy(grid):
        sympy = pytest.importorskip("sympy")
        return sympy.Matrix(
            [[sympy.Rational(str(x.re)) + sympy.I * sympy.Rational(str(x.im)) for x in row] for row in grid]
        )

    @staticmethod
    def span(rows):
        """Nonzero rows of the reduced echelon form of the rows of a sympy matrix, over Q(i)."""
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        if not rows:
            return []
        form, pivots = DomainMatrix.from_Matrix(rows).convert_to(sympy.QQ_I).rref()
        return form.to_Matrix()[: len(pivots), :].tolist()

    def kernel(self, left, right):
        """Kernel of X -> L X - X R, as rows X read row-major, by sympy."""
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        n = len(left)
        xs = sympy.symbols(f"x0:{n * n}")
        x = sympy.Matrix(n, n, xs)
        residue = (self.to_sympy(left) * x - x * self.to_sympy(right)).expand()
        system, _ = sympy.linear_eq_to_matrix(list(residue), xs)
        basis = DomainMatrix.from_Matrix(system).convert_to(sympy.QQ_I).nullspace()
        return self.span(basis.to_Matrix().expand())

    def jet_span(self, a, b, relation, variety, order):
        res = jet_rigidity(self.matrix(a), self.matrix(b), relation, variety, order)
        return self.span(self.to_sympy(res.solution_space))

    def test_hand_case(self):
        # A = E12, B = 0: AH = 0 kills H's second row, HA = 0 its first column
        a = [[g(0), g(1)], [g(0), g(0)]]
        b = [[g(0), g(0)], [g(0), g(0)]]
        want = {
            "AHeqHB": [[1, 0, 0, 0], [0, 1, 0, 0]],  # span(E11, E12)
            "HAeqBH": [[0, 1, 0, 0], [0, 0, 0, 1]],  # span(E12, E22)
            "AHeqHA": [[1, 0, 0, 1], [0, 1, 0, 0]],  # span(I, E12)
        }
        for relation, space in want.items():
            for variety in self.VARIETIES:
                res = jet_rigidity(self.matrix(a), self.matrix(b), relation, variety, 3)
                assert [[int(x.re) for x in v] for v in res.solution_space] == space, (relation, variety)

    @pytest.mark.parametrize("n", [2, 3])
    def test_constant_pairs_match_the_sympy_kernel(self, n):
        rng = random.Random(2200 + n)
        values = [g(0)] * 4 + [g(1), g(-1), g(2), g(0, 1), g(1, -1)]

        def draw():
            return [[rng.choice(values) for _ in range(n)] for _ in range(n)]

        distinct = 0
        for trial in range(6):
            a = draw()
            if trial % 2:
                b = draw()
            else:
                # B = P A P^-1 for P = I + c E_ij, so AH = HB has invertible solutions
                i, j = rng.sample(range(n), 2)
                c = rng.choice(values[4:])
                pa = [row[:] for row in a]
                pa[i] = [x + c * y for x, y in zip(a[i], a[j])]
                b = [row[:] for row in pa]
                for r in range(n):
                    b[r][j] = pa[r][j] - c * pa[r][i]
            pair = {"A": a, "B": b}
            kernels = {}
            for relation, (left, right) in self.OPERANDS.items():
                kernels[relation] = self.kernel(pair[left], pair[right])
                for variety in self.VARIETIES:
                    got = self.jet_span(a, b, relation, variety, 3)
                    assert got == kernels[relation], (trial, relation, variety)
            distinct += kernels["AHeqHB"] != kernels["HAeqBH"]
        # the draws tell AH = HB from HA = BH
        assert distinct


class TestJetRigidityCurveOracle:
    """Curve rows against an independent sympy build, on pairs outside the family.

    sympy substitutes each branch t -> (t^a, s t^b) into L H - H R for a
    symbolic jet H = sum h_jk z^j w^k (a j + b k <= order), collects the
    coefficients of t^e for e <= order, and takes their rank and nullspace
    over QQ_I; the admissible H(0) are that nullspace read on h_00.  The
    pairs have entries of degree <= 2 in z and w, so, unlike the family's,
    they tell the relations apart and reach every remainder of s^dw mod P.
    """

    OPERANDS = TestJetRigidityRelations.OPERANDS
    VARIETIES = (
        (Lines((g(0), g(0, 1), g(Fraction(-1, 2)))), 3),
        # more slopes than order + 1: every s^dw is its own remainder
        (Lines(tuple(g(x) for x in (1, -1, 2, 3, Fraction(1, 3)))), 3),
        (Cusp(3, 2), 9),
    )

    @staticmethod
    def to_sympy(x):
        sympy = pytest.importorskip("sympy")
        return sympy.Rational(str(x.re)) + sympy.I * sympy.Rational(str(x.im))

    @staticmethod
    def draw(rng, n):
        """n x n Poly grid over (z, w), entries of degree <= 2 with small Q(i) coefficients."""
        values = [g(1), g(-1), g(2), g(0, 1), g(1, -1), g(Fraction(1, 2))]
        monomials = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

        def entry():
            if rng.random() < 0.4:
                return Poly.zero(VARS)
            picked = rng.sample(monomials, rng.randint(1, 3))
            return Poly(VARS, {m: rng.choice(values) for m in picked})

        return [[entry() for _ in range(n)] for _ in range(n)]

    def oracle(self, left, right, variety, order):
        """(H(0) space as reduced rows, jet nullity) of L H - H R = 0 on the variety's branches."""
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix
        from sympy.polys.rings import ring

        field = sympy.QQ_I
        _, t = ring("t", field)
        n = len(left)
        a, b = (variety.q, variety.p) if isinstance(variety, Cusp) else (1, 1)
        slopes = (GR_ONE,) if isinstance(variety, Cusp) else variety.slopes
        monos = [(j, k) for j in range(order // a + 1) for k in range((order - a * j) // b + 1)]
        unknowns = [(r, c, j, k) for (j, k) in monos for r in range(n) for c in range(n)]
        columns = [[] for _ in unknowns]
        for slope in slopes:
            s = field.from_sympy(self.to_sympy(slope))

            def restrict(p):
                # p(t^a, s t^b) in QQ_I[t]
                out = t * 0
                for (x, y), c in p.terms.items():
                    out += field.from_sympy(self.to_sympy(c)) * s**y * t ** (a * x + b * y)
                return out

            lt = [[restrict(p) for p in row] for row in left]
            rt = [[restrict(p) for p in row] for row in right]
            for u, (r, c, j, k) in enumerate(unknowns):
                # h_rcjk E_rc z^j w^k on the branch, in entry (i, l) of L H - H R
                h = s**k * t ** (a * j + b * k)
                for i in range(n):
                    for l in range(n):
                        residue = (lt[i][r] * h if l == c else t * 0) - (h * rt[c][l] if i == r else t * 0)
                        columns[u].extend(residue.get((e,), field.zero) for e in range(order + 1))
        system = DomainMatrix([list(row) for row in zip(*columns)], (len(columns[0]), len(unknowns)), field)
        kernel = system.nullspace().to_Matrix()
        first = [unknowns.index((r, c, 0, 0)) for r in range(n) for c in range(n)]
        space = TestJetRigidityRelations.span(kernel[:, first]) if kernel.rows else []
        return space, kernel.rows

    @pytest.mark.parametrize("n", [2, 3])
    def test_curve_rows_match_the_sympy_build(self, n):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(3200 + n)
        distinct = 0
        for _ in range(3):
            pair = {"A": self.draw(rng, n), "B": self.draw(rng, n)}
            spaces = {}
            for relation, (left, right) in self.OPERANDS.items():
                for variety, order in self.VARIETIES:
                    res = jet_rigidity(PolyMatrix(pair["A"]), PolyMatrix(pair["B"]), relation, variety, order)
                    got = [[self.to_sympy(x) for x in v] for v in res.solution_space]
                    got = TestJetRigidityRelations.span(sympy.Matrix(got)) if got else []
                    want, nullity = self.oracle(pair[left], pair[right], variety, order)
                    assert (got, res.jet_nullity) == (want, nullity), (relation, variety)
                    spaces[relation, variety] = got
                    if isinstance(variety, Lines) and len(variety.slopes) > order + 1:
                        # no s^dw is reduced: the rows are the plane's
                        plane = jet_rigidity(PolyMatrix(pair["A"]), PolyMatrix(pair["B"]), relation, FullPlane(), order)
                        assert (plane.solution_space, plane.jet_nullity) == (res.solution_space, res.jet_nullity)
            distinct += any(spaces["AHeqHB", v] != spaces["HAeqBH", v] for v, _ in self.VARIETIES)
        # the draws tell AH = HB from HA = BH
        assert distinct


class TestIndexSets:
    def test_boundary_instances_have_one_collision(self):
        # q = ell + 3 puts (p - ell - 3, 0) into B_alpha; the other five are empty
        s = index_sets(4, 3, 0)
        assert s.B_alpha == frozenset({(1, 0)})
        assert not (s.A_beta or s.A_gamma or s.B_gamma or s.C_alpha or s.C_beta)
        s2 = index_sets(7, 5, 2)
        assert s2.B_alpha == frozenset({(2, 0)})
        assert not (s2.A_beta or s2.A_gamma or s2.B_gamma or s2.C_alpha or s2.C_beta)

    def test_interior_instances_are_empty(self):
        assert index_sets(5, 4, 0).all_empty()
        assert index_sets(7, 6, 2).all_empty()

    def test_degenerate_exponents_collide(self):
        s = index_sets(2, 2, 0)
        assert not s.all_empty()
        assert (0, 0) in s.A_beta

    def test_support_cross_check(self):
        # independent enumeration of the compared powers' Taylor support
        for (p, q, ell) in [(4, 3, 0), (7, 5, 2), (5, 4, 0), (7, 6, 2), (3, 2, 0)]:
            sets_ = index_sets(p, q, ell)
            sup = cusp_coefficient_support(p, q, ell)
            assert sup["t_alpha"]["alpha"] == frozenset({(0, 0)})
            assert sup["t_alpha"]["beta"] == sets_.A_beta
            assert sup["t_alpha"]["gamma"] == sets_.A_gamma
            assert sup["t_beta"]["beta"] == frozenset({(0, 0)})
            assert sup["t_beta"]["alpha"] == sets_.B_alpha
            assert sup["t_beta"]["gamma"] == sets_.B_gamma
            assert sup["t_gamma"]["gamma"] == frozenset({(0, 0)})
            assert sup["t_gamma"]["alpha"] == sets_.C_alpha
            assert sup["t_gamma"]["beta"] == sets_.C_beta

    def test_emptiness_matches_cusp_rigidity(self):
        # where all six sets are empty the cusp jet computation is rigid;
        # on the boundary instance the collision direction survives
        fam = build_family(0)
        assert index_sets(5, 4, 0).all_empty()
        assert jet_rigidity(fam.A, fam.B, "AHeqHB", Cusp(5, 4), 27).is_zero_space()
        assert not index_sets(4, 3, 0).all_empty()
        assert not jet_rigidity(fam.A, fam.B, "AHeqHB", Cusp(4, 3), 21).is_zero_space()


class TestVandermonde:
    def test_three_nodes(self):
        ok, det = vandermonde_check([g(1), g(2), g(3)])
        assert ok and det == g(2)

    def test_repeated_node(self):
        ok, det = vandermonde_check([g(1), g(1)])
        assert not ok and det == GR_ZERO

    def test_two_nodes(self):
        ok, det = vandermonde_check([g(0), g(1)])
        assert ok and det == GR_ONE

    def test_matches_product_form(self):
        rng = random.Random(97)
        for _ in range(10):
            nodes = []
            seen = set()
            for _k in range(rng.randint(1, 5)):
                while True:
                    t = g(rng.randint(-4, 4), rng.randint(-2, 2))
                    if (t.re, t.im) not in seen:
                        seen.add((t.re, t.im))
                        nodes.append(t)
                        break
            _, det = vandermonde_check(nodes)
            assert det == vandermonde_product(nodes)


class TestWindingNumber:
    def _circle(self, turns, count=64):
        return [
            cmath.exp(1j * turns * 2.0 * math.pi * k / count) for k in range(count)
        ]

    def test_unit_circle(self):
        assert winding_number(self._circle(1)) == 1

    def test_double_reverse(self):
        assert winding_number(self._circle(-2)) == -2

    def test_constant_curve(self):
        assert winding_number([complex(2.0, 1.0)] * 8) == 0

    def test_reversal_negates(self):
        rng = random.Random(101)
        for turns in (1, 2, -1, 3):
            curve = self._circle(turns, 96)
            # jiggle the radius so the curve is not perfectly round
            curve = [s * (1.0 + 0.2 * math.sin(5 * k)) for k, s in enumerate(curve)]
            assert winding_number(list(reversed(curve))) == -winding_number(curve)
        del rng

    def test_concatenation_adds(self):
        a = self._circle(1, 128)
        b = self._circle(2, 128)
        # traverse a, return to start, then traverse b: indices add
        combined = a + [a[0]] + b + [b[0]]
        assert winding_number(combined) == winding_number(a) + winding_number(b)

    def test_zero_sample_rejected(self):
        with pytest.raises(RigidityError, match="zero"):
            winding_number([1.0, 0.0, -1.0])

    def test_undersampled_rejected(self):
        with pytest.raises(RigidityError, match="density"):
            winding_number([1.0, -1.0, 1.0, -1.0])


class TestClutching:
    def test_equator_value(self):
        # chi = 1 at height 0 and h h* = 1: det = 1 at the equator
        eps = 0.125
        x3 = 0.0
        chi = 1.0
        det = chi * chi * (1 - x3 * x3) + (1 - chi) ** 2
        assert det == 1.0

    def test_cap_value_is_one(self):
        report = clutching_invertibility("1/8", 32)
        assert report.chi_zero_band_all_one

    def test_pinned_grid_bound(self):
        report = clutching_invertibility("1/8", 32)
        assert report.bound_holds
        assert report.min_re_det >= 0.5
        assert report.samples == 32 * 32

    def test_epsilon_validation(self):
        with pytest.raises(RigidityError):
            clutching_invertibility("1/2", 8)

    @pytest.mark.parametrize("grid", [2**k for k in range(1, 13)] + [9])
    def test_exact_bound_is_below_every_grid_minimum(self, grid):
        report = clutching_invertibility("1/8", grid)
        assert report.det_lower_bound == Fraction(15, 31)
        assert report.det_lower_bound <= Fraction(report.min_re_det_exact)
        if report.min_re_det_transition_band == report.min_re_det_transition_band:  # not nan
            assert float(report.det_lower_bound) <= report.min_re_det_transition_band
        # the chart-wide verdict does not depend on the grid; bound_holds does
        assert report.invertible_on_chart
        if grid in (9, 64):
            assert not report.bound_holds

    def test_exact_bound_tends_to_three_sevenths(self):
        for k in (3, 6, 12):
            eps = Fraction(1, 4) - Fraction(1, 10**k)
            bound = clutching_invertibility(eps, 2).det_lower_bound
            assert bound == (1 - 4 * eps * eps) / (2 - 4 * eps * eps)
            assert 0 < bound - Fraction(3, 7) < Fraction(1, 10**k)


class TestJetRigidityPreconditions:
    def test_unknown_relation(self):
        fam = build_family(0)
        with pytest.raises(RigidityError, match="unknown relation 'AHeqBA'"):
            jet_rigidity(fam.A, fam.B, "AHeqBA", FullPlane(), 4)

    def test_non_square_input(self):
        fam = build_family(0)
        wide = PolyMatrix([list(fam.A.entries[0]) + [Poly.zero(VARS)]])
        with pytest.raises(RigidityError, match="square and of equal size"):
            jet_rigidity(wide, wide, "AHeqHB", FullPlane(), 4)
        small = PolyMatrix([[Poly.zero(VARS)]])
        with pytest.raises(RigidityError, match="square and of equal size"):
            jet_rigidity(fam.A, small, "AHeqHB", FullPlane(), 4)

    @pytest.mark.parametrize(
        "a_vars,b_vars", [(("z",), ("z",)), (("z", "w", "u"), ("z", "w", "u")), (("z", "u"), VARS)]
    )
    def test_wrong_variable_list(self, a_vars, b_vars):
        a, b = PolyMatrix.identity(2, a_vars), PolyMatrix.identity(2, b_vars)
        with pytest.raises(RigidityError, match="one two-variable list"):
            jet_rigidity(a, b, "AHeqHB", FullPlane(), 4)
