"""Pointwise similarity decision and constructive local similarity."""

import random

import pytest

import similitude.linalg as linalg
from similitude.algebra import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Poly,
    PolyMatrix,
    RationalFunction,
    _u_order,
)
from similitude.similarity import (
    ConstructionError,
    SimilarityError,
    local_similarity,
    pointwise_similar,
    wasow_check,
)
from similitude.smith import SmithError, invariant_factors, local_smith, minor_gcd_valuation
from similitude.sylvester import SylvesterError, sylvester_matrix

g = GaussianRational
EYE2 = [[GR_ONE, GR_ZERO], [GR_ZERO, GR_ONE]]
EX45 = PolyMatrix.from_strings([["z", "1"], ["0", "0"]], ["z"])


def rand_const(rng, n, span=3):
    return [
        [g(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(n)]
        for _ in range(n)
    ]


def rand_invertible(rng, n):
    while True:
        m = rand_const(rng, n)
        if linalg.det(m):
            return m


def conjugate(a, gamma):
    gi = linalg.invert(gamma)
    return linalg.mat_mul(gi, linalg.mat_mul(a, gamma))


class TestPointwiseSimilar:
    def test_reflexive_with_identity_witness(self):
        rng = random.Random(61)
        a = rand_const(rng, 3)
        res = pointwise_similar(a, a, want_witness=True)
        assert res.similar and res.witness == linalg.identity(3, GR_ONE, GR_ZERO)

    def test_rank_distinguishes(self):
        nilp = [[GR_ZERO, GR_ONE], [GR_ZERO, GR_ZERO]]
        zero = [[GR_ZERO, GR_ZERO], [GR_ZERO, GR_ZERO]]
        assert not pointwise_similar(nilp, zero).similar

    def test_invariant_factors_distinguish_jordan_structure(self):
        jordan = [[g(1), g(1)], [g(0), g(1)]]
        res = pointwise_similar(jordan, EYE2)
        assert not res.similar
        assert [str(p) for p in res.invariant_factors_a] == ["1", "lambda^2-2*lambda+1"]
        assert [str(p) for p in res.invariant_factors_b] == ["lambda-1", "lambda-1"]

    def test_conjugates_are_similar_with_working_witness(self):
        rng = random.Random(67)
        for _ in range(50):
            n = rng.randint(1, 3)
            a = rand_const(rng, n)
            gamma = rand_invertible(rng, n)
            b = conjugate(a, gamma)
            res = pointwise_similar(a, b, want_witness=True)
            assert res.similar
            w = res.witness
            assert w is not None
            assert linalg.det(w)
            assert linalg.mat_mul(a, w) == linalg.mat_mul(w, b)

    def test_equivalence_relation(self):
        rng = random.Random(71)
        for _ in range(10):
            a = rand_const(rng, 2)
            b = conjugate(a, rand_invertible(rng, 2))
            c = conjugate(b, rand_invertible(rng, 2))
            assert pointwise_similar(a, a).similar
            assert pointwise_similar(a, b).similar == pointwise_similar(b, a).similar
            assert pointwise_similar(a, b).similar and pointwise_similar(b, c).similar
            assert pointwise_similar(a, c).similar

    def test_size_mismatch(self):
        with pytest.raises(SimilarityError):
            pointwise_similar(EYE2, [[GR_ONE]])


class TestWasowCheck:
    def test_commutant_of_jordan_family(self):
        report = wasow_check(EX45, EX45, GR_ZERO)
        assert report.dim_at_point == 2
        assert report.dim_generic == 2
        assert report.constant_near_point
        assert report.smith_exponents == (0, 0)

    def test_identity_family(self):
        eye = PolyMatrix.identity(2, ("z",))
        report = wasow_check(eye, eye, g(4, 1))
        assert (report.dim_at_point, report.dim_generic) == (4, 4)
        assert report.constant_near_point

    def test_nilpotent_pair_is_constant(self):
        # dim {Theta : A Theta = Theta B(z)} = 2 for every z (c = 0, d = a z),
        # so no jump at 0 despite B(0) = 0
        a = PolyMatrix.from_strings([["0", "1"], ["0", "0"]], ["z"])
        b = PolyMatrix.from_strings([["0", "z"], ["0", "0"]], ["z"])
        for pt in (GR_ZERO, GR_ONE):
            report = wasow_check(a, b, pt)
            assert (report.dim_at_point, report.dim_generic) == (2, 2)
            assert report.constant_near_point

    def test_commutant_jump_family(self):
        b = PolyMatrix.from_strings([["0", "z"], ["0", "0"]], ["z"])
        report = wasow_check(b, b, GR_ZERO)
        assert report.dim_at_point == 4
        assert report.dim_generic == 2
        assert not report.constant_near_point
        assert any(k > 0 for k in report.smith_exponents)

    def test_constancy_iff_exponents_vanish(self):
        rng = random.Random(73)
        for _ in range(10):
            a = PolyMatrix(
                [
                    [
                        Poly(("z",), {(d,): g(rng.randint(-2, 2)) for d in range(3)})
                        for _ in range(2)
                    ]
                    for _ in range(2)
                ]
            )
            report = wasow_check(a, a, GR_ZERO)
            assert report.constant_near_point == all(
                k == 0 for k in report.smith_exponents
            )
            assert report.constant_near_point == (
                report.dim_at_point == report.dim_generic
            )

    def test_exponents_match_invariant_factors_and_minor_gcds(self):
        # wasow_check reads the exponents from the local echelon; the
        # valuations at the point of the global invariant factors, and the
        # minor-gcd valuations for their prefix sums, are independent of it.
        # On even cases A(pt) = B(pt) is scalar, so M(pt) = 0 and the
        # commutant dimension jumps there.  The last family is 3I + (z-pt)^2 N,
        # whose M is (z-pt)^2 times a constant matrix: every exponent is 2
        rng = random.Random(97)
        z = Poly.variable(("z",), "z")
        families = []
        for case in range(12):
            pt = g(rng.choice([0, 1, -1]), rng.choice([0, 1]))
            c = g(rng.randint(-2, 2))
            a = PolyMatrix(
                [
                    [
                        Poly.constant(("z",), c if i == j or case % 2 else GR_ZERO)
                        + (z - pt) * g(rng.randint(-2, 2))
                        + (z - pt) ** 2 * g(rng.randint(-2, 2))
                        for j in range(2)
                    ]
                    for i in range(2)
                ]
            )
            b = a if rng.random() < 0.5 else PolyMatrix([list(col) for col in zip(*a.entries)])
            families.append((a, b, pt))
        pt = g(1, -1)
        square = (z - pt) ** 2
        three = Poly.constant(("z",), g(3))
        a = PolyMatrix([[three + square, square * g(2)], [square * g(-1), three]])
        families.append((a, a, pt))
        jumps = 0
        for a, b, pt in families:
            m = sylvester_matrix(a, b)
            report = wasow_check(a, b, pt)
            valuations = tuple(_u_order(s.coefficients(), pt)[0] for s in invariant_factors(m))
            assert report.smith_exponents == valuations, (a.to_strings(), b.to_strings(), str(pt))
            assert report.dim_generic == 4 - len(valuations)
            for j in range(len(valuations) + 1):
                assert sum(valuations[:j]) == minor_gcd_valuation(m, pt, j)
            jumps += not report.constant_near_point
        assert jumps >= 4
        assert report.smith_exponents == (2, 2)

    def test_rational_function_entries_in_the_local_ring(self):
        # dividing A and B by the unit z - 1 of the local ring at 0 scales M
        # by it, which moves no exponent and no rank; at 1 it is a pole
        one = Poly.constant(("z",), GR_ONE)
        unit = Poly.variable(("z",), "z") - one
        jump = PolyMatrix.from_strings([["0", "z"], ["0", "0"]], ["z"])
        scaled = PolyMatrix([[RationalFunction(p, unit) for p in row] for row in jump.entries])
        assert wasow_check(scaled, scaled, GR_ZERO) == wasow_check(jump, jump, GR_ZERO)
        with pytest.raises(SmithError, match="local ring"):
            wasow_check(scaled, scaled, GR_ONE)

    def test_builds_no_rational_function(self, monkeypatch):
        # both constructors: the public one and _raw, which takes lists
        # already in normal form
        calls = []
        original = RationalFunction.__init__
        original_raw = RationalFunction._raw.__func__

        def counting(self, *args, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        def counting_raw(cls, *args):
            calls.append(1)
            return original_raw(cls, *args)

        monkeypatch.setattr(RationalFunction, "__init__", counting)
        monkeypatch.setattr(RationalFunction, "_raw", classmethod(counting_raw))
        jump = PolyMatrix.from_strings([["0", "z"], ["0", "0"]], ["z"])
        for a, b, pt in ((EX45, EX45, GR_ZERO), (jump, jump, GR_ZERO), (EX45, EX45, g(1, 1))):
            wasow_check(a, b, pt)
        assert not calls
        local_smith(sylvester_matrix(jump, jump), GR_ZERO)
        assert calls  # the patch does see the local factorization


class TestLocalSimilarity:
    def test_same_family_identity_seed(self):
        sim = local_similarity(EX45, EX45, g(2), EYE2)
        assert sim.H.evaluate([g(2)]) == EYE2
        assert (EX45.to_func() * sim.H - sim.H * EX45.to_func()).is_zero()

    def test_nilpotent_pair_away_from_origin(self):
        a = PolyMatrix.from_strings([["0", "1"], ["0", "0"]], ["z"])
        b = PolyMatrix.from_strings([["0", "z"], ["0", "0"]], ["z"])
        sim = local_similarity(a, b, GR_ONE, EYE2)
        h = sim.H
        assert h.evaluate([GR_ONE]) == EYE2
        assert (a.to_func() * h - h * b.to_func()).is_zero()
        # H stays a similarity at nearby points where det H is nonzero
        rng = random.Random(107)
        checked = 0
        while checked < 5:
            pt = GR_ONE + g(rng.randint(-3, 3), rng.randint(-3, 3)) / g(10)
            if not all(f.defined_at([pt]) for row in h.entries for f in row):
                continue
            if not linalg.det(h.evaluate([pt])):
                continue
            checked += 1
            assert pointwise_similar(a.evaluate([pt]), b.evaluate([pt])).similar

    def test_phi_must_intertwine(self):
        a = PolyMatrix.from_strings([["0", "1"], ["0", "0"]], ["z"])
        b = PolyMatrix.from_strings([["0", "z"], ["0", "0"]], ["z"])
        with pytest.raises(SimilarityError, match="intertwine") as info:
            local_similarity(a, b, GR_ZERO, EYE2)
        assert not isinstance(info.value, ConstructionError)

    @pytest.mark.parametrize(
        "grid,message",
        [([["0"] * 3] * 3, "same size"), ([["0"] * 2] * 3, "square")],
        ids=["3x3", "3x2"],
    )
    def test_b_of_another_shape(self, grid, message):
        a = PolyMatrix.from_strings([["0", "1"], ["0", "0"]], ["z"])
        b = PolyMatrix.from_strings(grid, ["z"])
        with pytest.raises(SylvesterError, match=message):
            local_similarity(a, b, GR_ZERO, EYE2)

    def test_uncertified_seed_is_a_construction_error(self):
        # Phi intertwines A(0) = 0 with itself, but no holomorphic H extends it
        a = PolyMatrix.from_strings([["0", "z"], ["0", "0"]], ["z"])
        phi = [[GR_ZERO, GR_ZERO], [GR_ONE, GR_ZERO]]
        with pytest.raises(ConstructionError, match="construction fails"):
            local_similarity(a, a, GR_ZERO, phi)

    def test_random_conjugated_families(self):
        rng = random.Random(79)
        z = Poly.variable(("z",), "z")
        one = Poly.constant(("z",), GR_ONE)
        zero = Poly.zero(("z",))
        for _ in range(10):
            a = PolyMatrix(
                [
                    [
                        Poly(("z",), {(d,): g(rng.randint(-2, 2)) for d in range(2)})
                        for _ in range(2)
                    ]
                    for _ in range(2)
                ]
            )
            # unimodular H0: product of elementary transvections
            e1 = PolyMatrix([[one, z * g(rng.randint(-2, 2))], [zero, one]])
            e2 = PolyMatrix([[one, zero], [z * g(rng.randint(-2, 2)) + g(rng.randint(-1, 1)), one]])
            h0 = e1 * e2
            h0_inv = PolyMatrix(
                [[one, zero], [-(e2.entries[1][0]), one]]
            ) * PolyMatrix([[one, -(e1.entries[0][1])], [zero, one]])
            b = h0_inv * a * h0
            xi = g(rng.choice([0, 1, -1, 2]))
            report = wasow_check(a, b, xi)
            if not report.constant_near_point:
                continue
            phi = h0.evaluate([xi])
            sim = local_similarity(a, b, xi, phi)
            assert sim.H.evaluate([xi]) == phi
            assert (a.to_func() * sim.H - sim.H * b.to_func()).is_zero()
