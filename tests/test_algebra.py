"""Algebra layer: exact scalars, polynomials, rational functions, matrices."""

import random

import pytest

from similitude.algebra import (
    AlgebraError,
    GR_I,
    GR_ONE,
    GR_ZERO,
    FuncMatrix,
    GaussianRational,
    Poly,
    PolyMatrix,
    RationalFunction,
    _u_divmod,
    _u_gcd_monic,
    _u_mul,
    format_polynomial,
    generic_rank,
    parse_gaussian_rational,
    parse_polynomial,
)

g = GaussianRational


def rand_scalar(rng, span=6):
    return g(rng.randint(-span, span), rng.randint(-span, span))


def rand_poly(rng, variables, degree, span=4):
    terms = {}
    width = len(variables)
    for _ in range(rng.randint(1, 6)):
        expo = [0] * width
        budget = rng.randint(0, degree)
        for _ in range(budget):
            expo[rng.randrange(width)] += 1
        terms[tuple(expo)] = rand_scalar(rng, span)
    return Poly(variables, terms)


class TestGaussianRational:
    def test_exactness(self):
        rng = random.Random(0)
        for _ in range(100):
            a, b = rand_scalar(rng), rand_scalar(rng)
            assert (a + b) - b == a
            if b:
                assert (a / b) * b == a

    def test_canonical_strings(self):
        assert str(g(3, 0)) == "3"
        assert str(g(0, 1)) == "1i"
        assert str(g(0, -2)) == "-2i"
        assert str(parse_gaussian_rational("3/2+1/2i")) == "3/2+1/2i"
        assert str(parse_gaussian_rational("1-2i")) == "1-2i"
        assert parse_gaussian_rational("-i") == g(0, -1)

    def test_parse_rejects_garbage(self):
        with pytest.raises(AlgebraError):
            parse_gaussian_rational("3+")
        with pytest.raises(AlgebraError):
            parse_gaussian_rational("x")


class TestPolyEval:
    def test_square_plus_one(self):
        p = Poly.parse("z^2+1", ["z"])
        assert p.evaluate([g(2)]) == g(5)

    def test_zero_factor(self):
        p = Poly.parse("z*w", ["z", "w"])
        assert p.evaluate([g(0), g(7)]) == GR_ZERO

    def test_at_i(self):
        # z^3 + i z at z = i: i^3 = -i, so -i + i*i = -1 - i
        p = Poly.parse("z^3+1i*z", ["z"])
        assert p.evaluate([GR_I]) == g(-1, -1)

    def test_arity_mismatch(self):
        p = Poly.parse("z", ["z"])
        with pytest.raises(AlgebraError):
            p.evaluate([g(1), g(2)])


class TestPolySubstitute:
    def test_cusp_parameterization(self):
        # ell = 0: z^(l+3) with z -> t^3 gives t^9
        p = Poly.parse("z^3", ["z"])
        t3 = Poly.parse("t^3", ["t"])
        assert p.substitute({"z": t3}) == Poly.parse("t^9", ["t"])

    def test_identity(self):
        p = Poly.parse("z", ["z"])
        assert p.substitute({"z": Poly.parse("z", ["z"])}) == p

    def test_exponent_bookkeeping(self):
        p = Poly.parse("z^2*w^2", ["z", "w"])
        t3 = Poly.parse("t^3", ["t"])
        t4 = Poly.parse("t^4", ["t"])
        assert p.substitute({"z": t3, "w": t4}) == Poly.parse("t^14", ["t"])

    def test_unbound_variable(self):
        p = Poly.parse("z*w", ["z", "w"])
        with pytest.raises(AlgebraError):
            p.substitute({"z": Poly.parse("t", ["t"])})


class TestGenericRank:
    def test_examples(self):
        assert generic_rank(PolyMatrix.from_strings([["z", "0"], ["0", "1"]], ["z"])) == 2
        assert generic_rank(PolyMatrix.from_strings([["0", "0"], ["0", "0"]], ["z"])) == 0
        assert generic_rank(PolyMatrix.from_strings([["z", "z"], ["z", "z"]], ["z"])) == 1

    def test_rank_semicontinuity(self):
        import similitude.linalg as linalg

        rng = random.Random(5)
        for _ in range(20):
            m = PolyMatrix(
                [[rand_poly(rng, ("z",), 3) for _ in range(3)] for _ in range(3)]
            )
            r = generic_rank(m)
            assert generic_rank(m.to_func()) == r
            pt = rand_scalar(rng, 4)
            assert linalg.rank(m.evaluate([pt])) <= r


class TestRingLaws:
    def test_poly_ring_laws(self):
        rng = random.Random(11)
        vs = ("z", "w")
        for _ in range(100):
            a = rand_poly(rng, vs, 6)
            b = rand_poly(rng, vs, 6)
            c = rand_poly(rng, vs, 6)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)

    def test_matrix_laws_agree_over_func(self):
        # to_func is a ring homomorphism, and a FuncMatrix operand makes the
        # result a FuncMatrix
        rng = random.Random(14)
        vs = ("z",)
        for _ in range(10):
            rows, inner, cols = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            m = PolyMatrix([[rand_poly(rng, vs, 3) for _ in range(inner)] for _ in range(rows)])
            n = PolyMatrix([[rand_poly(rng, vs, 3) for _ in range(cols)] for _ in range(inner)])
            fm, fn = m.to_func(), n.to_func()
            assert type(m * n) is PolyMatrix and type(fm * fn) is FuncMatrix
            assert (m * n).to_func() == fm * fn
            assert type(m * fn) is FuncMatrix and m * fn == fm * fn
            assert m.kron(n).to_func() == fm.kron(fn)
            assert m.transpose().to_func() == fm.transpose()
            assert (-m).to_func() == -fm
            assert fm.to_strings() == m.to_strings()

    def test_eval_compose_law(self):
        rng = random.Random(13)
        for _ in range(50):
            p = rand_poly(rng, ("z", "w"), 4)
            f = rand_poly(rng, ("t",), 3)
            h = rand_poly(rng, ("t",), 3)
            point = [rand_scalar(rng, 3)]
            composed = p.substitute({"z": f, "w": h})
            assert composed.evaluate(point) == p.evaluate([f.evaluate(point), h.evaluate(point)])


def rand_rf(rng):
    z = Poly.variable(("z",), "z")
    num = z * rand_scalar(rng, 2) + rand_scalar(rng, 2)
    return RationalFunction(num, z + rng.randint(1, 3))


class TestUnivariateToolkit:
    @pytest.mark.parametrize("field", [GaussianRational, RationalFunction])
    def test_divmod_gcd_mul(self, field):
        rng = random.Random(19)
        draw = (lambda: rand_scalar(rng, 3)) if field is GaussianRational else (lambda: rand_rf(rng))

        def rand_list(length):
            out = [draw() for _ in range(length)]
            while not out[-1]:
                out[-1] = draw()
            return out

        for _ in range(6):
            common = rand_list(rng.randint(1, 2))
            a = _u_mul(common, rand_list(rng.randint(1, 3)))
            b = _u_mul(common, rand_list(rng.randint(1, 3)))
            q, r = _u_divmod(a, b)
            assert len(r) < len(b)
            if q:
                qb = _u_mul(q, b)
                r_padded = r + [a[0] - a[0]] * (len(qb) - len(r))
                assert [x + y for x, y in zip(qb, r_padded)] == a
            else:
                assert r == a
            g = _u_gcd_monic(a, b)
            assert g[-1] == 1 and len(g) >= len(common)
            assert not _u_divmod(a, g)[1] and not _u_divmod(b, g)[1]
            t = [a[0] - a[0], a[0] / a[0]]
            shifted, rest = _u_divmod(_u_mul(b, t), b)
            assert (shifted, rest) == (t, [])
            assert all(type(c) is field for c in a + b + q + r + g + shifted)
        assert _u_mul([], a) == [] and _u_mul(a, []) == []


class TestExactDivision:
    @pytest.mark.parametrize("variables", [("z",), ("x", "y", "w")])
    def test_product_over_factor(self, variables):
        rng = random.Random(23)
        for _ in range(40):
            a = rand_poly(rng, variables, 4)
            b = rand_poly(rng, variables, 3)
            if not a or not b:
                continue
            assert (a * b) / b == a and (a * b) / a == b
            assert a / g(2, -1) == a * g(2, -1).inverse()

    def test_inexact_division_raises(self):
        vs = ("x", "y", "w")
        x, y = Poly.variable(vs, "x"), Poly.variable(vs, "y")
        with pytest.raises(AlgebraError, match="not exact"):
            (x * y + 1) / x
        with pytest.raises(AlgebraError, match="not exact"):
            (x * x + y) / (x + y)
        with pytest.raises(AlgebraError, match="not exact"):
            Poly.constant(vs, 1) / x
        with pytest.raises(ZeroDivisionError):
            x / Poly.zero(vs)


class TestGrammar:
    CANONICAL = [
        "z^2*w^2",
        "z^3",
        "0",
        "-z^2+2*z-1",
        "3/2+1/2i",
        "1i*z+3",
        "1i",
        "z^2-z*w-z+w+1",
        "1-2i*z",
        "-2i*z+1",
    ]

    def test_round_trip_is_identity_on_canonical_form(self):
        for text in self.CANONICAL:
            p = parse_polynomial(text, ["z", "w"])
            printed = format_polynomial(p)
            assert parse_polynomial(printed, ["z", "w"]) == p
            assert format_polynomial(parse_polynomial(printed, ["z", "w"])) == printed

    def test_random_round_trips(self):
        rng = random.Random(17)
        for _ in range(100):
            p = rand_poly(rng, ("z", "w"), 5)
            printed = format_polynomial(p)
            assert parse_polynomial(printed, ["z", "w"]) == p

    def test_mixed_coefficient_is_unambiguous(self):
        # (1-2i)*z versus the sum 1 + (-2i)*z: distinct canonical strings
        mixed = Poly.monomial(("z",), (1,), g(1, -2))
        split = Poly.constant(("z",), g(1)) + Poly.monomial(("z",), (1,), g(0, -2))
        assert format_polynomial(mixed) != format_polynomial(split)
        for p in (mixed, split):
            assert parse_polynomial(format_polynomial(p), ["z"]) == p

    def test_zero_denominator_is_a_grammar_error(self):
        for text in ("1/0", "1/0+1i", "2+1/00i", "-3/0i"):
            with pytest.raises(AlgebraError):
                parse_gaussian_rational(text)
        with pytest.raises(AlgebraError):
            parse_polynomial("z+1/0", ["z"])
        assert parse_gaussian_rational("0/5") == GR_ZERO

    @pytest.mark.parametrize("variables", [["i"], ["2"], ["z", "z"], [""], ["z", "w-1"]])
    def test_unreadable_variable_names_are_grammar_errors(self, variables):
        with pytest.raises(AlgebraError, match="variable"):
            Poly.parse("1", variables)
        with pytest.raises(AlgebraError, match="variable"):
            PolyMatrix.from_strings([["i*i"]], variables)
