"""Algebra layer: exact scalars, polynomials, rational functions, matrices."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from similitude import linalg
from similitude.algebra import (
    AlgebraError,
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Poly,
    PolyMatrix,
    RationalFunction,
    _P,
    _S,
    _u_add,
    _u_coprime_mod_p,
    _u_deflate,
    _u_derivative,
    _u_det,
    _u_divmod,
    _u_gcd_monic,
    _u_mul,
    _u_order,
    _u_trim,
    format_gaussian_rational,
    format_polynomial,
    generic_rank,
    parse_gaussian_rational,
    parse_polynomial,
    poly_gcd_univariate,
    rat,
)

g = GaussianRational
# negative, zero and non-integer parts
RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=9)


def canonical(x):
    """(a + b*i)/d with d > 0 and gcd(a, b, d) = 1; zero is (0, 0, 1)."""
    a, b, d = x._a, x._b, x._d
    return d > 0 and math.gcd(a, b, d) == 1 and (a or b or d == 1)


# the reference: a Q(i) scalar as a pair of Fractions (re, im)
def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_pow(x, e):
    base = x if e >= 0 else ref_inverse(x)
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(e)):
        out = ref_mul(out, base)
    return out


def ref_str(x):
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


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
    def test_rat_shares_backend_rationals(self):
        x = rat(3, 4)
        assert rat(x) is x
        assert g(x).re == x and type(g(x).re) is type(x)
        # everything else is still converted to the backend type
        for value, expected in ((2, rat(4, 2)), ("1/3", rat(1, 3)), (Fraction(5, 2), rat(5, 2))):
            assert type(rat(value)) is type(x) and rat(value) == expected

    @settings(max_examples=300, deadline=None)
    @given(RATIONALS, RATIONALS, RATIONALS, RATIONALS, st.integers(-20, 20), st.integers(-4, 4))
    # equal denominators that cancel, in a sum and in a difference
    @example(Fraction(1, 2), Fraction(1, 6), Fraction(1, 2), Fraction(-1, 6), 1, 2)
    @example(Fraction(1, 3), Fraction(2, 3), Fraction(1, 3), Fraction(2, 3), 0, -2)
    def test_matches_a_pair_of_fractions(self, p, q, r, s, n, e):
        x, y, xr, yr = g(p, q), g(r, s), (p, q), (r, s)
        results = {
            "x + y": (x + y, (p + r, q + s)),
            "x - y": (x - y, (p - r, q - s)),
            "x * y": (x * y, ref_mul(xr, yr)),
            "-x": (-x, (-p, -q)),
            "x + n": (x + n, (p + n, q)),
            "n + x": (n + x, (p + n, q)),
            "x - n": (x - n, (p - n, q)),
            "n - x": (n - x, (n - p, -q)),
            "n * x": (n * x, (n * p, n * q)),
            "x constructed": (x, xr),
        }
        if y:
            results.update({
                "x / y": (x / y, ref_mul(xr, ref_inverse(yr))),
                "n / y": (n / y, ref_mul((n, 0), ref_inverse(yr))),
                "y.inverse()": (y.inverse(), ref_inverse(yr)),
            })
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
            with pytest.raises(ZeroDivisionError):
                y.inverse()
        if n:
            results["x / n"] = (x / n, (p / n, q / n))
        if x or e >= 0:
            results["x ** e"] = (x ** e, ref_pow(xr, e))
        else:
            with pytest.raises(ZeroDivisionError):
                x ** e
        for name, (got, want) in results.items():
            assert canonical(got), name
            assert (got.re, got.im) == want, name
            assert got == g(*want) and hash(got) == hash(g(*want)), name
        assert (x == y) == (xr == yr)
        assert (x != y) == (xr != yr)
        assert (x == n) == (xr == (n, 0))
        if x == y:
            assert hash(x) == hash(y)
        assert bool(x) == (p != 0 or q != 0)
        assert str(x) == ref_str(xr)
        assert x.to_complex() == complex(float(p), float(q))

    @given(st.integers(-10**30, 10**30))
    @example(3)
    def test_equal_values_hash_equal(self, n):
        assert g(n) == n and g(Fraction(n)) == n
        assert hash(g(n)) == hash(n) == hash(g(Fraction(n)))
        assert len({g(n), n}) == 1

    def test_zero_has_one_form(self):
        for zero in (g(0), g(Fraction(0, 7)), g(rat(1, 3)) - g(rat(1, 3)), g(1, 1) * 0):
            assert (zero._a, zero._b, zero._d) == (0, 0, 1)

    def test_exactness(self):
        rng = random.Random(0)
        for _ in range(100):
            a, b = rand_scalar(rng), rand_scalar(rng)
            assert (a + b) - b == a
            if b:
                assert (a / b) * b == a

    @pytest.mark.parametrize(
        "value, digits",
        [
            (g(10**400), 401),
            (g(0, -(10**400)), 401),
            (g(Fraction(10**400, 3), 1), 400),
            (g(-(10**5000), 10**5000), 5001),  # past Python's limit for printing an int
        ],
        ids=["real", "imaginary", "fraction", "unprintable"],
    )
    def test_to_complex_past_float_range(self, value, digits):
        with pytest.raises(AlgebraError, match=f"a {digits}-digit part is beyond float range") as info:
            value.to_complex()
        assert "1000000000" not in str(info.value) and "3333333333" not in str(info.value)
        assert g(10**308, -(10**308)).to_complex() == complex(1e308, -1e308)

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
        # to_func is a ring homomorphism
        rng = random.Random(14)
        vs = ("z",)
        for _ in range(10):
            rows, inner, cols = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            m = PolyMatrix([[rand_poly(rng, vs, 3) for _ in range(inner)] for _ in range(rows)])
            n = PolyMatrix([[rand_poly(rng, vs, 3) for _ in range(cols)] for _ in range(inner)])
            fm, fn = m.to_func(), n.to_func()
            assert (m * n).to_func() == fm * fn
            assert m * fn == fm * fn
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


Z = Poly.variable(("z",), "z")
# roots of the linear factors shared between operands, so that denominators
# are coprime, equal or share some factors, and numerators cancel some
HENRICI_ROOTS = [g(0), g(1), g(-2), g(0, 1), g(1, -1), g(1, 2) / 3]


def factor_product(rng, count):
    p = Poly.constant(("z",), rand_scalar(rng, 3) or GR_ONE)
    for _ in range(count):
        p = p * (Z - rng.choice(HENRICI_ROOTS))
    return p


def rand_quotient(rng):
    """A canonical quotient: zero, constant denominator, or products of shared factors."""
    den = factor_product(rng, rng.randint(0, 3))
    kind = rng.randrange(8)
    if kind == 0:
        return RationalFunction(Poly.zero(("z",)), den)
    if kind == 1:
        return RationalFunction(rand_poly(rng, ("z",), 3), den)
    return RationalFunction(factor_product(rng, rng.randint(0, 3)), den)


def same_terms(f, h):
    """Structural equality of the stored parts."""
    return f.numerator.terms == h.numerator.terms and f.denominator.terms == h.denominator.terms


def is_canonical(f):
    n, d = f.numerator, f.denominator
    one = {(0,): GR_ONE}
    if not n:
        return d.terms == one
    return poly_gcd_univariate(n, d).terms == one and d.coefficients()[-1] == GR_ONE


class TestHenriciArithmetic:
    """Arithmetic on reduced operands equals normalizing the unreduced result."""

    def pairs(self):
        rf = RationalFunction
        one = Poly.constant(("z",), 1)
        d1, d2 = (Z - 1) * (Z + 2), (Z - 1) * (Z - GR_I)
        fixed = [
            (rf(one, d1), rf(Z, d2)),  # denominators share the factor z - 1
            (rf(Z, Z - 1), rf(-one, Z - 1)),  # equal denominators, sum 1
            (rf(Z - 1, Z + 2), rf(Z + 2, Z - 1)),  # each numerator cancels the other denominator
            (rf(Z * 3, one), rf(Z * Z - 2, one)),  # constant denominators
            (rf(Z, d1), rf(Z, d1)),  # difference 0
            (rf(Z + 2, d2), rf(-(Z + 2), d2)),  # sum 0
        ]
        rng = random.Random(29)
        return fixed + [(rand_quotient(rng), rand_quotient(rng)) for _ in range(120)]

    def test_agrees_with_the_normalizing_constructor(self):
        rf = RationalFunction
        for a, b in self.pairs():
            n1, d1, n2, d2 = a.numerator, a.denominator, b.numerator, b.denominator
            assert is_canonical(a) and is_canonical(b)
            expected = [
                (a + b, rf(n1 * d2 + n2 * d1, d1 * d2)),
                (a - b, rf(n1 * d2 - n2 * d1, d1 * d2)),
                (a * b, rf(n1 * n2, d1 * d2)),
                (-a, rf(-n1, d1)),
            ]
            expected += [(a**k, rf(n1**k, d1**k)) for k in range(4)]
            if b:
                expected += [
                    (a / b, rf(n1 * d2, d1 * n2)),
                    (b.inverse(), rf(d2, n2)),
                    (b**-2, rf(d2 * d2, n2 * n2)),
                ]
            for got, want in expected:
                assert same_terms(got, want), (a, b, got, want)
                assert is_canonical(got), (a, b, got)

    def test_zero_has_denominator_one(self):
        a = RationalFunction(Z, (Z - 1) * (Z + 2))
        for zero in (a - a, a + (-a), a * 0, 0 * a, RationalFunction(Poly.zero(("z",)), Z)):
            assert not zero and zero.denominator.terms == {(0,): GR_ONE}

    def test_equality_agrees_with_cross_multiplication(self):
        pool = [f for pair in self.pairs() for f in pair]
        for a in pool[:60]:
            for b in pool:
                crossed = a.numerator * b.denominator == b.numerator * a.denominator
                assert (a == b) == crossed, (a, b)

    def test_only_one_variable(self):
        vs = ("x", "y")
        x, y = Poly.variable(vs, "x"), Poly.variable(vs, "y")
        for num, den in ((x, x + y), (Poly.constant(vs, 1), None), (Poly.constant((), 1), None)):
            with pytest.raises(AlgebraError, match="one variable"):
                RationalFunction(num, den)
        with pytest.raises(AlgebraError, match="one variable"):
            RationalFunction(Z, Poly.variable(("w",), "w"))
        in_z, in_w = RationalFunction(Z), RationalFunction(Poly.variable(("w",), "w"))
        assert in_z != in_w
        for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a / b):
            with pytest.raises(AlgebraError, match="variable lists differ"):
                op(in_z, in_w)

    def test_evaluate_agrees_with_poly_evaluate(self):
        # the points include every root of the random denominators
        points = HENRICI_ROOTS + [g(3, -1), g(-1, 2) / 5]
        for f in [f for pair in self.pairs() for f in pair]:
            for pt in points:
                den = f.denominator.evaluate([pt])
                assert f.defined_at([pt]) == bool(den), (f, pt)
                if den:
                    assert f.evaluate([pt]) == f.numerator.evaluate([pt]) / den, (f, pt)
                else:
                    with pytest.raises(AlgebraError, match="denominator vanishes"):
                        f.evaluate([pt])
        f = RationalFunction(Z * Z + 1, Z - 1)
        assert f.evaluate([3]) == g(5) and f.defined_at([2]) and not f.defined_at([1])
        for bad in ([], [g(1), g(2)]):
            with pytest.raises(AlgebraError, match="expected 1 coordinates"):
                f.evaluate(bad)
            with pytest.raises(AlgebraError, match="expected 1 coordinates"):
                f.defined_at(bad)

    def test_agrees_with_sympy_cancel(self):
        # the constructor shares _cancel and _monic with the arithmetic, so the
        # reduced quotients are also checked against an outside oracle
        pytest.importorskip("sympy")
        from sympy.polys.domains import QQ, QQ_I
        from sympy.polys.rings import ring

        ring_z, _ = ring("z", QQ_I)

        def to_ring(p):
            coeffs = [QQ_I(QQ(c.re.numerator, c.re.denominator), QQ(c.im.numerator, c.im.denominator))
                      for c in p.coefficients()]
            return ring_z.from_list(coeffs[::-1])

        def reduced(num, den):
            num, den = num.cancel(den)
            return num.quo_ground(den.LC), den.monic()

        def parts(f):
            return to_ring(f.numerator), to_ring(f.denominator)

        for a, b in self.pairs():
            (n1, d1), (n2, d2) = parts(a), parts(b)
            expected = [
                (a + b, reduced(n1 * d2 + n2 * d1, d1 * d2)),
                (a - b, reduced(n1 * d2 - n2 * d1, d1 * d2)),
                (a * b, reduced(n1 * n2, d1 * d2)),
            ]
            if b:
                expected += [(a / b, reduced(n1 * d2, d1 * n2)), (b.inverse(), reduced(d2, n2))]
            for got, want in expected:
                assert parts(got) == want, (a, b, got)


def generic(a, b):
    """The reference product: one field product and one field sum per pair of terms."""
    out = [a[0] - a[0]] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


class TestUnivariateToolkit:
    @pytest.mark.parametrize("field", [GaussianRational, RationalFunction])
    def test_divmod_gcd_mul(self, field):
        rng = random.Random(19)
        draw = (lambda: rand_scalar(rng, 3)) if field is GaussianRational else (lambda: rand_rf(rng))
        # _u_mul is Q(i)-only
        mul = _u_mul if field is GaussianRational else generic

        def rand_list(length):
            out = [draw() for _ in range(length)]
            while not out[-1]:
                out[-1] = draw()
            return out

        for _ in range(6):
            common = rand_list(rng.randint(1, 2))
            a = mul(common, rand_list(rng.randint(1, 3)))
            b = mul(common, rand_list(rng.randint(1, 3)))
            q, r = _u_divmod(a, b)
            assert len(r) < len(b)
            if q:
                qb = mul(q, b)
                r_padded = r + [a[0] - a[0]] * (len(qb) - len(r))
                assert [x + y for x, y in zip(qb, r_padded)] == a
            else:
                assert r == a
            g = _u_gcd_monic(a, b)
            assert g[-1] == 1 and len(g) >= len(common)
            assert not _u_divmod(a, g)[1] and not _u_divmod(b, g)[1]
            t = [a[0] - a[0], a[0] / a[0]]
            shifted, rest = _u_divmod(mul(b, t), b)
            assert (shifted, rest) == (t, [])
            assert all(type(c) is field for c in a + b + q + r + g + shifted)

    def test_mul_matches_the_generic_loop(self):
        rng = random.Random(47)

        def draw():
            # zeros, and denominators that are equal, coprime or share a factor
            if rng.random() < 0.2:
                return GR_ZERO
            return rand_scalar(rng, 9) / g(rng.choice([1, 1, 2, 3, 6, 35]))

        for la in range(1, 10):
            for lb in range(1, 10):
                a = [draw() for _ in range(la)]
                b = [draw() for _ in range(lb)]
                got = _u_mul(a, b)
                assert got == generic(a, b)
                assert all(type(c) is GaussianRational and canonical(c) for c in got)
        assert _u_mul([], a) == [] and _u_mul(a, []) == []

    @pytest.mark.parametrize("field", [GaussianRational, RationalFunction])
    def test_order_at_a_root(self, field):
        rng = random.Random(23)
        draw = (lambda: rand_scalar(rng, 3)) if field is GaussianRational else (lambda: rand_rf(rng))
        mul = _u_mul if field is GaussianRational else generic
        for _ in range(6):
            root = draw()
            cofactor = [draw() for _ in range(rng.randint(1, 3))]
            while not cofactor[-1] or not _u_deflate(cofactor, root)[1]:
                cofactor[-1] = draw()
            k = rng.randint(0, 3)
            a = cofactor
            for _ in range(k):
                a = mul(a, [-root, root / root])
            order, rest = _u_order(a, root)
            assert (order, rest) == (k, cofactor)
            assert all(type(c) is field for c in rest)


class TestListDeterminant:
    def test_matches_linalg_det_over_rational_functions(self):
        # per size 1-7: random matrices with entries of degree <= 3, the same
        # with a zero leading entry (the pivot search swaps rows and flips the
        # sign) and a singular one, whose last row combines the others
        rng = random.Random(53)
        vs = ("z",)

        def entry():
            if rng.random() < 0.2:
                return []
            return _u_trim([rand_scalar(rng, 3) / g(rng.randint(1, 3)) for _ in range(rng.randint(1, 4))])

        swaps = 0
        for n in range(1, 8):
            for _ in range(3):
                m = [[entry() for _ in range(n)] for _ in range(n)]
                lead = [[[] if (i, j) == (0, 0) else x for j, x in enumerate(row)] for i, row in enumerate(m)]
                combined = [[] for _ in range(n)]
                for row in m[:-1]:
                    c = entry() or [GR_ONE]
                    combined = [_u_add(x, _u_mul(c, y)) for x, y in zip(combined, row)]
                singular = m[:-1] + [combined]
                for case in (m, lead, singular):
                    want = linalg.det([[RationalFunction(Poly.from_coefficients(vs, x)) for x in row] for row in case])
                    assert want.is_polynomial()
                    assert _u_det(case) == want._num, case
                assert not _u_det(singular)
                swaps += bool(_u_det(lead))
        assert swaps >= 10


class TestSubMul:
    """x.sub_mul(c, y) equals x - c * y for every scalar class."""

    def test_gaussian_rational(self):
        rng = random.Random(61)
        # 2**70 parts pass 64 bits; denominators 1, 2, 3, 6 make x._d == c._d * y._d often
        spans = [0, 1, 9, 2**70]
        dens = [1, 1, 2, 3, 6, 3**45]

        def draw():
            span = rng.choice(spans)
            x = g(rng.randint(-span, span), rng.randint(-span, span))
            return x / rng.choice(dens)

        fixed = [
            (g(Fraction(1, 6), 5), g(Fraction(1, 2)), g(Fraction(-1, 3), 2)),  # 6 == 2 * 3
            (g(Fraction(1, 6), 5), g(Fraction(1, 2)), g(Fraction(-1, 5), 2)),  # 6 != 2 * 5
            (g(5, -7), g(2, -3), g(-4, 1)),  # all integers: d == 1 == 1 * 1
            (g(1, 1), g(3, 4), g(3, 4) ** -1),  # the difference is i
            (GR_ZERO, g(2, -1), g(-3, 5)),
            (g(-7, 2) / 9, GR_ZERO, g(1, 1)),
            (g(-7, 2) / 9, g(1, 1), GR_ZERO),
            (g(3, 3), g(3), g(1, 1)),  # cancels to zero
            (g(-(2**90), 2**65 + 1) / 3**41, g(2**64, -(2**66)) / 7, g(-(3**50), 2**71) / 2**69),
        ]
        triples = fixed + [(draw(), draw(), draw()) for _ in range(1500)]
        branches = set()
        for x, c, y in triples:
            got = x.sub_mul(c, y)
            want = x - c * y
            assert got == want and canonical(got), (x, c, y)
            branches.add(x._d == c._d * y._d)
        assert branches == {True, False}

    def test_rational_function_and_poly(self):
        rng = random.Random(67)
        for _ in range(40):
            x, c, y = rand_quotient(rng), rand_quotient(rng), rand_quotient(rng)
            got = x.sub_mul(c, y)
            assert got == x - c * y and is_canonical(got)
        vs = ("z", "w")
        for _ in range(40):
            x, c, y = (rand_poly(rng, vs, 3) for _ in range(3))
            assert x.sub_mul(c, y) == x - c * y
        assert x.sub_mul(x ** 0, x) == Poly.zero(vs)

    def test_deflate_and_order_over_rational_functions(self):
        # stable_normalization deflates char(A) in Q(i)(z)[t] by t - lambda(z)
        rf = RationalFunction
        lam, mu = rf(Z, Z + 1), rf(Z * 2 - GR_I, Z - 2)
        one = lam ** 0
        a = generic(generic([-lam, one], [-lam, one]), [-mu, one])
        assert _u_order(a, lam) == (2, [-mu, one])
        assert _u_order(a, mu) == (1, generic([-lam, one], [-lam, one]))
        q, rem = _u_deflate(a, one)
        assert rem == a[0] + a[1] + a[2] + a[3]
        # a = q * (t - 1) + rem
        qt = generic(q, [-one, one])
        assert [qt[0] + rem] + qt[1:] == a
        assert _u_deflate(a, lam * 0)[1] == a[0]


class TestFormatting:
    def test_matches_the_fraction_composition(self):
        rng = random.Random(71)
        fixed = [
            g(0), g(5), g(-5), g(0, 1), g(0, -2), g(3, -4), g(-3, 4),
            g(Fraction(1, 2), 0), g(0, Fraction(-3, 7)), g(2, 3) / 4, g(6, 4) / 9,
            g(Fraction(1, 2), Fraction(1, 3)), g(-(2**80), 2**70) / 3**30,
        ]
        assert str(g(2, 3) / 4) == "1/2+3/4i"  # the parts reduce differently
        assert str(g(6, 4) / 9) == "2/3+4/9i"
        assert str(g(Fraction(1, 2), Fraction(1, 3))) == "1/2+1/3i"
        assert str(g(3, -4)) == "3-4i" and str(g(0, -2)) == "-2i"
        randoms = [
            g(rng.randint(-12, 12) * rng.randint(0, 1), rng.randint(-12, 12) * rng.randint(0, 1))
            / rng.choice([1, 2, 4, 6, 12, 35])
            for _ in range(400)
        ]
        for x in fixed + randoms:
            assert format_gaussian_rational(x) == ref_str((x.re, x.im)), (x._a, x._b, x._d)

    @pytest.mark.parametrize(
        "value",
        [g(10**5000), g(1, 10**5000), g(Fraction(10**5000, 3), 1), g(1, 2) / 10**5000],
        ids=["real", "imaginary", "fraction", "denominator"],
    )
    def test_past_the_printing_limit(self, value):
        with pytest.raises(AlgebraError) as info:
            format_gaussian_rational(value)
        assert str(info.value) == (
            f"a result has an integer of more than {sys.get_int_max_str_digits()} digits, "
            "Python's limit for printing one"
        )


class TestCoprimeModP:
    def test_prime_and_square_root_of_minus_one(self):
        sympy = pytest.importorskip("sympy")
        assert sympy.isprime(_P) and _P % 4 == 1
        assert (_S * _S + 1) % _P == 0

    def test_agrees_with_the_euclidean_gcd(self):
        # True must mean coprime; on these small inputs no prime is unlucky,
        # so False must mean a common factor
        rng = random.Random(41)
        for _ in range(60):
            common = [rand_scalar(rng, 3) for _ in range(rng.randint(1, 3))]
            while not common[-1]:
                common[-1] = rand_scalar(rng, 3)
            f = _u_mul(common, [rand_scalar(rng, 3), GR_ONE])
            others = []
            for _ in range(rng.randint(1, 3)):
                other = [rand_scalar(rng, 3) for _ in range(rng.randint(1, 4))]
                while not other[-1]:
                    other[-1] = rand_scalar(rng, 3)
                others.append(_u_mul(common, other[:2]) if rng.random() < 0.3 else other)
            gcd = f
            for other in others:
                gcd = _u_gcd_monic(gcd, other)
            assert _u_coprime_mod_p(f, others) == (len(gcd) == 1), (f, others)

    def test_false_without_raising(self):
        p = g(_P)
        one_over_p = g(Fraction(1, _P))
        # a denominator divisible by p, in f and in another list
        assert not _u_coprime_mod_p([one_over_p, GR_ONE], [[GR_ONE]])
        assert not _u_coprime_mod_p([GR_ONE, GR_ONE], [[one_over_p, GR_ONE]])
        # f = x (p x + 1) shares p x + 1 with the other list; mod p f drops to
        # x and p x + 1 to 1, so only the degree check keeps this False
        assert not _u_coprime_mod_p([GR_ZERO, GR_ONE, p], [[GR_ONE, p]])
        # (x - 1/3)^2 has a repeated root
        square = _u_mul([g(Fraction(-1, 3)), GR_ONE], [g(Fraction(-1, 3)), GR_ONE])
        assert not _u_coprime_mod_p(square, [_u_derivative(square)])
        # the zero polynomial has no leading coefficient to be a unit
        assert not _u_coprime_mod_p([], [[GR_ONE]])

    def test_constants_and_zero_lists(self):
        assert _u_coprime_mod_p([g(3, 1)], [[]])
        assert _u_coprime_mod_p([GR_ONE, GR_ONE], [[], [g(2)]])
        assert not _u_coprime_mod_p([GR_ONE, GR_ONE], [[]])


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

    # (text, {(exponent of z, exponent of ix): coefficient}) over variables (z, ix)
    ACCEPTED = [
        ("1+2i*z", {(1, 0): g(1, 2)}),
        ("1+2*z", {(1, 0): g(2), (0, 0): g(1)}),
        ("1 + 2 i", {(0, 0): g(1, 2)}),
        ("3/2+1/2i*z", {(1, 0): g(Fraction(3, 2), Fraction(1, 2))}),
        ("-1-2i", {(0, 0): g(-1, -2)}),
        ("i*z", {(1, 0): GR_I}),
        ("-i", {(0, 0): -GR_I}),
        ("ix^2+i*ix", {(0, 2): GR_ONE, (0, 1): GR_I}),
        ("z--1", {(1, 0): GR_ONE, (0, 0): GR_ONE}),
        ("z+-1", {(1, 0): GR_ONE, (0, 0): -GR_ONE}),
        ("\u0663*z", {(1, 0): g(3)}),  # an Arabic-Indic digit three
        ("0/5", {}),
        ("z * z ^ 2", {(3, 0): GR_ONE}),
    ]
    REJECTED = [
        "1+2ix", "z+-+1", "--z", "2*i", "z^-1", "2z", "z^2^3", "1/2/3", "1/0",
        "\u00b2",  # a superscript 2 is a NAME, not a digit
    ]

    def test_grammar_table(self):
        vs = ("z", "ix")
        for text, terms in self.ACCEPTED:
            assert parse_polynomial(text, vs) == Poly(vs, terms), text
        for text in ("3/2+1/2i*z", "-1-2i"):
            assert format_polynomial(parse_polynomial(text, vs)) == text
        for text in self.REJECTED:
            with pytest.raises(AlgebraError):
                parse_polynomial(text, vs)

    @settings(max_examples=80, deadline=None)
    @given(st.builds(GaussianRational, RATIONALS, RATIONALS))
    @example(g(0, Fraction(-1, 2)))
    @example(g(Fraction(-3, 2), 0))
    @example(GR_ZERO)
    def test_gaussian_rational_round_trip(self, x):
        assert parse_gaussian_rational(format_gaussian_rational(x)) == x

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_polynomial_round_trip(self, data):
        vs = ("z", "w", "x")[: data.draw(st.integers(1, 3))]
        coeffs = st.builds(GaussianRational, RATIONALS, RATIONALS)
        terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 4)] * len(vs)), coeffs, max_size=5))
        p = Poly(vs, terms)
        assert parse_polynomial(format_polynomial(p), vs) == p

    @pytest.mark.parametrize("variables", [["i"], ["2"], ["z", "z"], [""], ["z", "w-1"]])
    def test_unreadable_variable_names_are_grammar_errors(self, variables):
        with pytest.raises(AlgebraError, match="variable"):
            Poly.parse("1", variables)
        with pytest.raises(AlgebraError, match="variable"):
            PolyMatrix.from_strings([["i*i"]], variables)


class TestMatrixShapes:
    def test_sum_and_difference_need_equal_shapes(self):
        square = PolyMatrix.identity(2, ("z",))
        wide = PolyMatrix.from_strings([["0", "0", "0"]] * 2, ["z"])
        for op in (lambda x, y: x + y, lambda x, y: x - y):
            with pytest.raises(AlgebraError, match="matrix shapes differ"):
                op(square, wide)
            with pytest.raises(AlgebraError, match="matrix shapes differ"):
                op(wide, PolyMatrix.from_strings([["0", "0", "0"]] * 3, ["z"]))

    def test_product_needs_matching_inner_dimensions(self):
        wide = PolyMatrix.from_strings([["0", "0", "0"]] * 2, ["z"])
        with pytest.raises(AlgebraError, match="inner dimensions differ"):
            wide * wide
        assert (wide * PolyMatrix.from_strings([["0"]] * 3, ["z"])).to_strings() == [["0"], ["0"]]
