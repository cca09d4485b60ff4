"""Jordan profiles, instability candidates, stability verdicts, normalization."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import similitude.jordan as jordan
import similitude.linalg as linalg
from similitude.algebra import (
    AlgebraError,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Poly,
    PolyMatrix,
    RationalFunction,
    _u_squarefree,
)
from similitude.jordan import (
    JordanError,
    char_poly_coeffs,
    gaussian_rational_roots,
    is_jordan_stable,
    jordan_instability_candidates,
    segre_at,
    stable_normalization,
)
from similitude.smith import _local_echelon, invariant_factors
from similitude.sylvester import intertwiner_dim_at, sylvester_matrix

g = GaussianRational
EX45 = PolyMatrix.from_strings([["z", "1"], ["0", "0"]], ["z"])


def jordan_block(size, eigenvalue):
    return [
        [
            eigenvalue if i == j else (GR_ONE if j == i + 1 else GR_ZERO)
            for j in range(size)
        ]
        for i in range(size)
    ]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[GR_ZERO] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i in range(len(b)):
            for j in range(len(b)):
                out[offset + i][offset + j] = b[i][j]
        offset += len(b)
    return out


def rand_unimodular(rng, n):
    m = linalg.identity(n, GR_ONE, GR_ZERO)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = g(rng.randint(-2, 2), rng.randint(-1, 1))
        for col in range(n):
            m[i][col] = m[i][col] + c * m[j][col]
    return m


class TestRootExtraction:
    def test_rational_roots_with_multiplicity(self):
        # (z - 1)^2 (z + 1/2) = z^3 - 3/2 z^2 + 1/2
        p = Poly.parse("z^3-3/2*z^2+1/2", ["z"])
        roots, cofactor = gaussian_rational_roots(p)
        assert [(str(r), m) for r, m in roots] == [("-1/2", 1), ("1", 2)]
        assert cofactor.total_degree() == 0

    def test_gaussian_roots(self):
        # z^2 + 1 = (z - i)(z + i)
        p = Poly.parse("z^2+1", ["z"])
        roots, _ = gaussian_rational_roots(p)
        assert [(str(r), m) for r, m in roots] == [("-1i", 1), ("1i", 1)]

    def test_snap_keeps_to_its_own_root(self):
        # (t - i)(t - 1/2 - i): the coarsest snap of the root 1/2 + i is i
        p = Poly.parse("t^2-1/2*t-2i*t-1+1/2i", ["t"])
        roots, cofactor = gaussian_rational_roots(p)
        assert [(str(r), m) for r, m in roots] == [("1i", 1), ("1/2+1i", 1)]
        assert cofactor.total_degree() == 0

    def test_irrational_cofactor(self):
        p = Poly.parse("z^2-2", ["z"])
        roots, cofactor = gaussian_rational_roots(p)
        assert roots == []
        assert cofactor.total_degree() == 2

    def test_snap_bounds_stop_at_d_squared(self, monkeypatch):
        # once a bound reaches D^2 (here 1 and 9) a failed snap is final: a
        # part that moves at a larger bound has a denominator above D^2
        snaps = []
        original = jordan._snaps

        def counting(x):
            for snap in original(x):
                snaps.append(snap)
                yield snap

        def refuse(self, *args):
            raise AssertionError("root extraction calls Fraction.limit_denominator")

        monkeypatch.setattr(jordan, "_snaps", counting)
        monkeypatch.setattr(Fraction, "limit_denominator", refuse)
        cases = (("t^2-2", [], 4), ("t^3-1/3*t^2-2*t+2/3", [("1/3", 1)], 12))
        for text, roots_wanted, snaps_wanted in cases:
            snaps.clear()
            roots, cofactor = gaussian_rational_roots(Poly.parse(text, ["t"]))
            assert [(str(r), m) for r, m in roots] == roots_wanted
            assert cofactor == Poly.parse("t^2-2", ["t"])
            assert len(snaps) == snaps_wanted

    def test_snaps_match_limit_denominator(self):
        # the one continued-fraction expansion gives limit_denominator's
        # answer at every bound of the ladder
        rng = random.Random(31)
        values = [0.0, -0.0, 1.0, -7.0, 2.0**40, 0.375, -1.1875, 3 / 64, 1e-300, -1e-300, 1e15, -1e15]
        values += [1e15 + 0.5, 123456.789, 2.0**-1074, 1 / 3, -2 / 7, 3.141592653589793]
        # a float is dyadic, so it can lie midway between the last convergent
        # and the semiconvergent only at bound 1, the one power of 2 in the
        # ladder: m + 1/2 is midway between m and m + 1, and the tie goes to m
        values += [m + 0.5 for m in range(-20, 20)]
        values += [rng.uniform(-5, 5) for _ in range(300)]
        values += [rng.randint(-10**6, 10**6) / rng.randint(1, 10**6) for _ in range(300)]
        values += [rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300) for _ in range(100)]
        for x in values:
            got = list(jordan._snaps(x))
            want = [Fraction(x).limit_denominator(bound) for bound in jordan._SNAP_BOUNDS]
            assert got == [(f.numerator, f.denominator) for f in want], x

    def test_linear_parts_are_exact(self, monkeypatch):
        # (t - v)^k (t - 2) with v = 1/(10^13 + 37): no snap up to 10^12 is
        # v, so v comes from the linear squarefree part t - v the snaps leave
        t = Poly.variable(("t",), "t")
        v = g(Fraction(1, 10**13 + 37))
        for mult in (1, 2):
            roots, cofactor = gaussian_rational_roots((t - Poly.constant(("t",), v)) ** mult * (t - 2))
            assert roots == [(v, mult), (g(2), 1)]
            assert cofactor.coefficients() == [GR_ONE]

        # a power of one linear factor is read off its squarefree part,
        # with no numeric root at all
        def refuse(*args):
            raise AssertionError("a linear squarefree part reached np.roots")

        monkeypatch.setattr("numpy.roots", refuse)
        w = g(Fraction(3, 10**30 + 1), Fraction(-1, 7))
        roots, cofactor = gaussian_rational_roots((t - Poly.constant(("t",), w)) ** 3 * g(5, 1))
        assert roots == [(w, 3)]
        assert cofactor.coefficients() == [GR_ONE]

    def test_roots_with_large_denominators(self):
        # products of linear factors whose roots have denominators up to 10^6,
        # times a cofactor with no root in Q(i): the denominator filter on the
        # snaps must keep every root, and deflation must leave the cofactor
        rng = random.Random(97)
        t = Poly.variable(("t",), "t")
        cofactors = ["t^2-2", "t^2+3", "t^2-t-1", "t^3-2", "t^2+1i*t+1"]
        for _ in range(40):
            want, count = {}, rng.randint(1, 3)
            while len(want) < count:
                re = Fraction(rng.randint(-3 * 10**6, 3 * 10**6), rng.randint(1, 10**6))
                im = Fraction(rng.randint(-3 * 10**6, 3 * 10**6), rng.randint(1, 10**6)) * rng.randint(0, 1)
                want[g(re, im)] = rng.randint(1, 2)
            cofactor = Poly.parse(rng.choice(cofactors), ["t"])
            p = cofactor * g(rng.randint(1, 5), rng.randint(-2, 2) or 1)
            for root, mult in want.items():
                p = p * (t - Poly.constant(("t",), root)) ** mult
            roots, rest = gaussian_rational_roots(p)
            assert dict(roots) == want, str(p)
            assert rest == cofactor

    def test_linear_factors_match_sympy(self):
        # repeated roots make the squarefree certificate fail, so both the
        # certified and the Euclidean squarefree part run here
        sympy = pytest.importorskip("sympy")
        rng = random.Random(61)
        t = Poly.variable(("t",), "t")
        sym_t = sympy.Symbol("t")
        pool = [g(0), g(1), g(-2), g(0, 1), g(1, -1), g(Fraction(1, 3)), g(Fraction(-1, 2), 2)]
        for _ in range(20):
            p = Poly.parse(rng.choice(["1", "t^2-2", "t^2+t+1"]), ["t"])
            p = p * g(rng.randint(1, 4), rng.randint(-2, 2))
            for root in rng.sample(pool, rng.randint(1, 3)):
                p = p * (t - Poly.constant(("t",), root)) ** rng.randint(1, 3)
            roots, _ = gaussian_rational_roots(p)
            expr = sum(
                (sympy.Rational(str(c.re)) + sympy.I * sympy.Rational(str(c.im))) * sym_t**k
                for k, c in enumerate(p.coefficients())
            )
            theirs = {}
            for factor, mult in sympy.factor_list(expr, sym_t, gaussian=True)[1]:
                poly = sympy.Poly(factor, sym_t)
                if poly.degree() == 1:
                    root = -poly.all_coeffs()[1] / poly.all_coeffs()[0]
                    key = (Fraction(str(sympy.re(root))), Fraction(str(sympy.im(root))))
                    theirs[key] = theirs.get(key, 0) + mult
            assert {(r.re, r.im): m for r, m in roots} == theirs, str(p)


class TestCharPoly:
    def test_matches_sympy_charpoly(self):
        # constant families (constant matrices with the variable z), then
        # families of sizes 1-4 with entries of degree <= 2
        sympy = pytest.importorskip("sympy")
        z, t = sympy.symbols("z t")

        def to_sympy(x):
            return sympy.Rational(str(x.re)) + sympy.I * sympy.Rational(str(x.im))

        def check(a):
            ours = char_poly_coeffs(a)
            assert len(ours) == a.rows + 1 and ours[-1] == [GR_ONE]
            got = sum(to_sympy(c) * z**e * t**k for k, p in enumerate(ours) for e, c in enumerate(p))
            oracle = sympy.Matrix(
                [[sum(to_sympy(c) * z**e for e, c in enumerate(p.coefficients())) for p in row]
                 for row in a.entries]
            )
            assert sympy.expand(got - oracle.charpoly(t).as_expr()) == 0, a.to_strings()

        rng = random.Random(97)
        for trial in range(24):
            n = 2 + trial % 4  # 2x2 to 5x5
            a0 = [
                [g(rng.randint(-4, 4), rng.randint(-2, 2)) / rng.randint(1, 3) for _ in range(n)]
                for _ in range(n)
            ]
            check(PolyMatrix.from_scalars(a0, ("z",)))
        for trial in range(24):
            n = 1 + trial % 4  # 1x1 to 4x4
            grid = [
                [
                    Poly.from_coefficients(
                        ("z",),
                        [g(rng.randint(-3, 3), rng.randint(-1, 1)) / rng.randint(1, 2)
                         for _ in range(rng.randint(0, 3))],
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            check(PolyMatrix(grid))

    def test_requires_a_univariate_family(self):
        with pytest.raises(AlgebraError, match="univariate"):
            char_poly_coeffs(PolyMatrix.from_strings([["x", "y"], ["1", "0"]], ["x", "y"]))


class TestSegreAt:
    def test_jordan_family_at_origin(self):
        profile = segre_at(EX45, GR_ZERO)
        assert len(profile.eigenvalues) == 1
        ev = profile.eigenvalues[0]
        assert ev.value == GR_ZERO and ev.multiplicity == 2
        assert ev.blocks == ((2, 1),)

    def test_jordan_family_off_origin(self):
        profile = segre_at(EX45, GR_ONE)
        assert len(profile.eigenvalues) == 2
        assert all(ev.blocks == ((1, 1),) for ev in profile.eigenvalues)
        assert sorted(str(ev.value) for ev in profile.eigenvalues) == ["0", "1"]

    def test_identity(self):
        eye = PolyMatrix.identity(3, ("z",))
        profile = segre_at(eye, g(5))
        assert profile.eigenvalues[0].blocks == ((1, 3),)

    def test_eigenvalues_half_apart(self):
        # J_2(i) + (1/2 + i): the roots the snap once confused
        a0 = block_diag([jordan_block(2, g(0, 1)), jordan_block(1, g(Fraction(1, 2), 1))])
        p = rand_unimodular(random.Random(7), 3)
        a0 = linalg.mat_mul(linalg.mat_mul(p, a0), linalg.invert(p))
        profile = segre_at(a0, mode="exact")
        assert [(str(ev.value), ev.multiplicity, ev.blocks) for ev in profile.eigenvalues] == [
            ("1i", 2, ((2, 1),)),
            ("1/2+1i", 1, ((1, 1),)),
        ]

    def test_exact_mode_requires_splitting(self):
        m = PolyMatrix.from_strings([["0", "2"], ["1", "0"]], ["z"])
        with pytest.raises(JordanError, match="split"):
            segre_at(m, GR_ZERO)
        numeric = segre_at(m, GR_ZERO, mode="numeric")
        assert len(numeric.eigenvalues) == 2

    def test_exact_mode_runs_one_local_echelon_per_eigenvalue(self, monkeypatch):
        # char by a list determinant, each eigenvalue's blocks from the local
        # echelon of tI - A(xi) there, and no global Smith form
        smith_runs, echelon_points = [], []
        monkeypatch.setattr(jordan, "invariant_factors", lambda m: smith_runs.append(1) or invariant_factors(m))
        monkeypatch.setattr(
            jordan, "_local_echelon", lambda m, pt: echelon_points.append(pt) or _local_echelon(m, pt)
        )
        a0 = block_diag([jordan_block(2, g(0, 1)), jordan_block(1, g(0, 1)), jordan_block(1, g(3))])
        profile = segre_at(a0)
        assert [(ev.value, ev.multiplicity, ev.blocks) for ev in profile.eigenvalues] == [
            (g(0, 1), 3, ((1, 1), (2, 1))),
            (g(3), 1, ((1, 1),)),
        ]
        assert segre_at(EX45, GR_ZERO).eigenvalues[0].blocks == ((2, 1),)
        assert echelon_points == [g(0, 1), g(3), GR_ZERO]
        assert not smith_runs

    def test_blocks_that_miss_the_multiplicity_are_caught(self, monkeypatch):
        # an echelon that loses the largest block of each eigenvalue
        monkeypatch.setattr(
            jordan,
            "_local_echelon",
            lambda m, pt: SimpleNamespace(exponents=lambda: _local_echelon(m, pt).exponents()[:-1]),
        )
        with pytest.raises(AssertionError, match="do not add up to its multiplicity"):
            segre_at(EX45, GR_ZERO)

    def test_block_rank_duality(self):
        rng = random.Random(83)
        for _ in range(10):
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
            lam = g(rng.randint(-2, 2))
            a0 = block_diag([jordan_block(s, lam) for s in sizes])
            u = rand_unimodular(rng, len(a0))
            ui = linalg.invert(u)
            conj = linalg.mat_mul(ui, linalg.mat_mul(a0, u))
            profile = segre_at(conj)
            n = len(a0)
            for ev in profile.eigenvalues:
                shifted = [
                    [conj[i][j] - (ev.value if i == j else GR_ZERO) for j in range(n)]
                    for i in range(n)
                ]
                power = linalg.identity(n, GR_ONE, GR_ZERO)
                ranks = [n]
                for _k in range(n):
                    power = linalg.mat_mul(power, shifted)
                    ranks.append(linalg.rank(power))
                # reconstruct ranks from reported blocks
                for k in range(1, n + 1):
                    expect = sum(
                        count * max(0, size - k) for size, count in ev.blocks
                    ) + (n - ev.multiplicity)
                    assert ranks[k] == expect

    def test_block_sizes_match_sympy_jordan_form(self):
        sympy = pytest.importorskip("sympy")

        pool = [g(0), g(1), g(-2), g(0, 1), g(1, -1), g(1, 2) / 2]
        rng = random.Random(89)
        for trial in range(18):
            n = 2 + trial % 3  # 2x2 to 4x4
            sizes = []
            while sum(sizes) < n:
                sizes.append(rng.randint(1, n - sum(sizes)))
            # eigenvalues repeat across blocks about half the time
            lams = [rng.choice(pool[:2] if rng.random() < 0.5 else pool) for _ in sizes]
            j = block_diag([jordan_block(size, lam) for size, lam in zip(sizes, lams)])
            p = linalg.identity(n, GR_ONE, GR_ZERO)  # unimodular over the integers
            for _ in range(2 * n):
                r, c = rng.sample(range(n), 2)
                k = rng.choice([-2, -1, 1, 2])
                p = [[p[i][col] + (k * p[c][col] if i == r else GR_ZERO) for col in range(n)]
                     for i in range(n)]
            pinv = linalg.invert(p)
            a0 = linalg.mat_mul(p, linalg.mat_mul(j, pinv))

            ours = {}
            for ev in segre_at(a0).eigenvalues:
                ours[(ev.value.re, ev.value.im)] = sorted(
                    size for size, count in ev.blocks for _ in range(count)
                )
            oracle = sympy.Matrix(
                [[sympy.Rational(str(x.re)) + sympy.I * sympy.Rational(str(x.im)) for x in row]
                 for row in a0]
            ).jordan_form(calc_transform=False)
            theirs, i = {}, 0
            while i < n:
                start = i
                while i + 1 < n and oracle[i, i + 1] == 1:
                    i += 1
                i += 1
                lam = oracle[start, start]
                key = (Fraction(str(sympy.re(lam))), Fraction(str(sympy.im(lam))))
                theirs.setdefault(key, []).append(i - start)
            assert ours == {k: sorted(v) for k, v in theirs.items()}, (sizes, lams)

    def test_frobenius_cross_check(self):
        for pt in (GR_ZERO, GR_ONE, g(2, 1)):
            profile = segre_at(EX45, pt)
            assert profile.commutant_dimension() == intertwiner_dim_at(EX45, EX45, pt)


class TestCandidates:
    def test_constant_family(self):
        const = PolyMatrix.from_strings([["1", "2"], ["3", "4"]], ["z"])
        assert jordan_instability_candidates(const).points == ()

    def test_jordan_family(self):
        cands = jordan_instability_candidates(EX45)
        assert [str(c.exact) for c in cands.points] == ["0"]

    def test_eigenvalue_collision_family(self):
        m = PolyMatrix.from_strings([["0", "1"], ["0", "z"]], ["z"])
        cands = jordan_instability_candidates(m)
        assert [str(c.exact) for c in cands.points] == ["0"]

    def test_commutant_jump_needs_locus_b(self):
        # [[0, z], [0, 0]]: eigenvalues never collide as functions (char is
        # lambda^2 for every z) yet the block structure jumps at 0
        m = PolyMatrix.from_strings([["0", "z"], ["0", "0"]], ["z"])
        cands = jordan_instability_candidates(m)
        assert [str(c.exact) for c in cands.points] == ["0"]

    def test_candidate_soundness_outside_locus(self):
        rng = random.Random(89)
        m = PolyMatrix.from_strings([["z", "1"], ["z^2", "z-1"]], ["z"])
        cands = jordan_instability_candidates(m)
        offset = g(1, 1) / g(997)
        checked = 0
        while checked < 20:
            pt = g(rng.randint(-6, 6), rng.randint(-6, 6))
            if cands.contains(pt):
                continue
            checked += 1
            shape_here = segre_at(m, pt, mode="numeric").shape()
            shape_near = segre_at(m, pt + offset, mode="numeric").shape()
            assert shape_here == shape_near


def reference_defining(a):
    """The candidate locus's defining polynomials by the path with no certificate.

    The discriminant is the Sylvester determinant over Poly, by `linalg.det`,
    which the locus itself does not use.
    """
    vs = a.variables
    char = [RationalFunction(Poly.from_coefficients(vs, c)) for c in char_poly_coeffs(a)]
    part = _u_squarefree(char)
    assert all(c.is_polynomial() for c in part)
    part = [c.numerator for c in part]
    deriv = [part[k] * k for k in range(1, len(part))]
    m, n = len(part) - 1, len(deriv) - 1
    rows = []
    for count, coeffs in ((n, part), (m, deriv)):
        for i in range(count):
            row = [Poly.zero(vs)] * (m + n)
            row[i : i + len(coeffs)] = coeffs[::-1]
            rows.append(row)
    disc = linalg.det(rows)
    out = [disc] if disc.total_degree() > 0 else []
    factors = invariant_factors(sylvester_matrix(a, a))
    if factors and factors[-1].total_degree() > 0:
        out.append(factors[-1])
    return out


def rand_entry(rng, degree):
    terms = [f"{rng.randint(-2, 2)}*z^{k}" for k in range(degree + 1)]
    return "+".join(terms).replace("*z^0", "")


def dense_family(rng, n):
    grid = [[rand_entry(rng, rng.randint(0, 2)) for _ in range(n)] for _ in range(n)]
    return PolyMatrix.from_strings(grid, ["z"])


def triangular_repeated_diagonal(rng, n):
    diag = [rand_entry(rng, 1) for _ in range(n - 1)]
    diag.append(diag[0])
    grid = [[diag[i] if i == j else (rand_entry(rng, 1) if j > i else "0") for j in range(n)]
            for i in range(n)]
    return PolyMatrix.from_strings(grid, ["z"])


def colliding_diagonal(rng, n):
    # distinct diagonal functions that meet at points: char is squarefree,
    # and sparse upper entries may leave A derogatory where they meet
    diag = rng.sample(["z", "-z", "z^2", "1", "2*z-1", "z^2-1"], n)
    grid = [[diag[i] if i == j else (rng.choice(["0", "0", "1", "z"]) if j > i else "0")
             for j in range(n)] for i in range(n)]
    return PolyMatrix.from_strings(grid, ["z"])


def constant_conjugate(rng, n):
    # P J(z) P^-1 with P constant and unimodular and J(z) Jordan blocks whose
    # eigenvalue functions may repeat
    z = Poly.variable(("z",), "z")
    lams = [z, z * z, Poly.constant(("z",), GR_ONE)]
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, n - sum(sizes)))
    blocks = [(size, rng.choice(lams[:1] if rng.random() < 0.4 else lams)) for size in sizes]
    zero, one = Poly.zero(("z",)), Poly.constant(("z",), GR_ONE)
    j = [[zero] * n for _ in range(n)]
    offset = 0
    for size, lam in blocks:
        for i in range(size):
            j[offset + i][offset + i] = lam
            if i + 1 < size:
                j[offset + i][offset + i + 1] = one * rng.choice([0, 1])
        offset += size
    p = rand_unimodular(rng, n)
    pinv = linalg.invert(p)
    lift = lambda m: [[Poly.constant(("z",), x) for x in row] for row in m]  # noqa: E731
    return PolyMatrix(linalg.mat_mul(lift(p), linalg.mat_mul(j, lift(pinv))))


class TestCertifiedLocus:
    FAMILIES = [dense_family, triangular_repeated_diagonal, colliding_diagonal, constant_conjugate]

    def test_matches_the_uncertified_path(self, monkeypatch):
        smith_runs = []
        monkeypatch.setattr(
            jordan, "invariant_factors", lambda m: smith_runs.append(1) or invariant_factors(m)
        )
        rng = random.Random(20)
        trials = 48
        for trial in range(trials):
            make = self.FAMILIES[trial % len(self.FAMILIES)]
            a = make(rng, 2 + (trial // len(self.FAMILIES)) % 2)
            got = jordan_instability_candidates(a).defining_polynomials
            assert [str(q) for q in got] == [str(q) for q in reference_defining(a)], a.to_strings()
        # both sides of the cyclic-vector certificate ran
        assert 0 < len(smith_runs) < trials

    @pytest.mark.parametrize(
        "grid, smith_runs",
        [
            ([["z", "1"], ["0", "-z"]], 0),  # non-derogatory everywhere
            ([["z", "-2*z"], ["0", "-z"]], 1),  # A(0) = 0 is derogatory
            ([["1", "z"], ["0", "1"]], 1),  # char has a repeated factor
        ],
    )
    def test_smith_form_runs_only_without_a_certificate(self, monkeypatch, grid, smith_runs):
        runs = []
        monkeypatch.setattr(
            jordan, "invariant_factors", lambda m: runs.append(1) or invariant_factors(m)
        )
        jordan_instability_candidates(PolyMatrix.from_strings(grid, ["z"]))
        assert len(runs) == smith_runs

    @pytest.mark.parametrize(
        "grid, squarefree",
        [
            ([["z", "1"], ["0", "0"]], True),  # the cyclic-vector certificate holds
            ([["z", "-2*z"], ["0", "-z"]], True),  # the Smith form runs
            ([["1", "z"], ["0", "1"]], False),  # eigenvalue function 1, twice
            ([["z", "1", "0"], ["0", "z", "0"], ["1", "z", "z^2"]], False),  # z, twice
        ],
    )
    def test_builds_rational_functions_only_in_the_squarefree_step(self, monkeypatch, grid, squarefree):
        # both constructors: the public one and _raw, which takes lists
        # already in normal form
        calls, after_squarefree = [], []
        original = RationalFunction.__init__
        original_raw = RationalFunction._raw.__func__

        def counting(self, *args, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        def counting_raw(cls, *args):
            calls.append(1)
            return original_raw(cls, *args)

        def squarefree_part(a):
            # root extraction takes squarefree parts over Q(i) too
            part = _u_squarefree(a)
            if isinstance(a[0], RationalFunction):
                after_squarefree.append(len(calls))
            return part

        a = PolyMatrix.from_strings(grid, ["z"])
        monkeypatch.setattr(RationalFunction, "__init__", counting)
        monkeypatch.setattr(RationalFunction, "_raw", classmethod(counting_raw))
        monkeypatch.setattr(jordan, "_u_squarefree", squarefree_part)
        jordan_instability_candidates(a)
        if squarefree:
            assert not calls and not after_squarefree
        else:
            # the lift of char to Q(i)(z) and its squarefree part, nothing after
            assert after_squarefree == [len(calls)] and calls


class TestBranchingLocusAgainstSympy:
    def test_discriminant_is_the_sympy_resultant(self):
        # an oracle that shares no code with the locus: sympy's charpoly and
        # resultant, on families whose characteristic polynomial is squarefree
        sympy = pytest.importorskip("sympy")
        z, t = sympy.symbols("z t")

        def to_sympy(p):
            return sum(
                (sympy.Rational(str(c.re)) + sympy.I * sympy.Rational(str(c.im))) * z ** e[0]
                for e, c in p.terms.items()
            )

        rng = random.Random(71)
        checked = kept = 0
        while checked < 30:
            make = (dense_family, colliding_diagonal)[checked % 2]
            a = make(rng, 2 + checked % 4 // 2)
            f = sympy.Matrix([[to_sympy(p) for p in row] for row in a.entries]).charpoly(t).as_expr()
            expected = sympy.expand(sympy.resultant(f, sympy.diff(f, t), t))
            if expected == 0:
                continue  # char has a repeated factor
            checked += 1
            defining = jordan_instability_candidates(a).defining_polynomials
            if sympy.Poly(expected, z).degree() > 0:
                kept += 1
                assert sympy.expand(to_sympy(defining[0]) - expected) == 0, a.to_strings()
            else:
                # n distinct eigenvalues everywhere: no branching and no jump
                assert defining == (), a.to_strings()
        assert 0 < kept < checked


class TestStabilityVerdicts:
    def test_constant_family_everywhere_stable(self):
        const = PolyMatrix.from_strings([["1", "1"], ["0", "1"]], ["z"])
        assert is_jordan_stable(const, g(3)).verdict == "stable"

    def test_unstable_at_origin(self):
        verdict = is_jordan_stable(EX45, GR_ZERO)
        assert verdict.verdict == "unstable"
        base = verdict.profile_at_point
        assert base is not None and base.eigenvalues[0].blocks == ((2, 1),)
        assert any(len(p.eigenvalues) == 2 for p in verdict.probe_profiles)

    def test_stable_away_from_candidates(self):
        verdict = is_jordan_stable(EX45, g(3))
        assert verdict.verdict == "stable"

    def test_scalar_family_has_no_candidates(self):
        m = PolyMatrix.from_strings([["z", "0"], ["0", "z"]], ["z"])
        assert jordan_instability_candidates(m).points == ()
        assert is_jordan_stable(m, GR_ZERO).verdict == "stable"

    def test_report_never_marks_noncandidates_unstable(self):
        candidates = jordan_instability_candidates(EX45)
        for point in [g(0), g(1), g(3), g(-2), g(0, 1)]:
            verdict = is_jordan_stable(EX45, point)
            if not candidates.contains(point):
                assert verdict.verdict == "stable"

    def test_probe_offsets_match_the_numpy_formula(self):
        np = pytest.importorskip("numpy")
        import similitude.jordan as jordan

        for count in range(1, jordan.MAX_PROBES + 1):
            expected = []
            for k in range(count):
                angle = 2.0 * np.pi * k / count
                re = Fraction(np.cos(angle) / 1000.0).limit_denominator(10**7)
                im = Fraction(np.sin(angle) / 1000.0).limit_denominator(10**7)
                expected.append(g(re, im))
            assert jordan._probe_offsets(count) == expected, count

    @pytest.mark.parametrize(
        "probes,tolerance",
        [(4, float("nan")), (4, float("inf")), (4, 0.0), (4, -1.0), (0, 1e-9), (-3, 1e-9)],
    )
    def test_nonsense_settings_raise(self, probes, tolerance):
        with pytest.raises(JordanError):
            is_jordan_stable(EX45, GR_ZERO, probes=probes, tolerance=tolerance)
        if probes > 0:
            with pytest.raises(JordanError, match="tolerance"):
                segre_at(EX45, GR_ZERO, mode="numeric", tolerance=tolerance)


class TestStableNormalization:
    def test_model_family_accepts_identity_like_output(self):
        m = PolyMatrix.from_strings([["z", "0"], ["0", "z+1"]], ["z"])
        lam1 = RationalFunction(Poly.parse("z", ["z"]))
        lam2 = RationalFunction(Poly.parse("z+1", ["z"]))
        h = stable_normalization(m, GR_ZERO, [lam1, lam2])
        assert linalg.det(h.evaluate([GR_ZERO]))

    def test_jordan_family_at_stable_point(self):
        lam1 = RationalFunction(Poly.parse("z", ["z"]))
        lam2 = RationalFunction(Poly.parse("0", ["z"]))
        h = stable_normalization(EX45, g(3), [lam1, lam2])
        assert linalg.det(h.evaluate([g(3)]))

    def test_wrong_eigenfunctions_rejected(self):
        lam1 = RationalFunction(Poly.parse("z", ["z"]))
        lam2 = RationalFunction(Poly.parse("1", ["z"]))
        with pytest.raises(JordanError):
            stable_normalization(EX45, g(3), [lam1, lam2])

    def test_undeclared_eigenvalue_rejected(self):
        lam1 = RationalFunction(Poly.parse("z", ["z"]))
        with pytest.raises(JordanError):
            stable_normalization(EX45, g(3), [lam1])

    @pytest.mark.parametrize(
        "grid, eigenfunctions",
        [([["z", "0"], ["0", "0"]], ["z^2", "0"]), ([["z", "1"], ["0", "z"]], ["z^2"])],
        ids=["simple", "double"],
    )
    def test_eigenfunction_check_rejects_a_wrong_function(self, grid, eigenfunctions):
        # z^2 takes the eigenvalue 1 of A(1) at 1, but t - z^2 does not divide char(A)
        m = PolyMatrix.from_strings(grid, ["z"])
        lams = [RationalFunction(Poly.parse(f, ["z"])) for f in eigenfunctions]
        with pytest.raises(JordanError, match="eigenfunction verification fails"):
            stable_normalization(m, GR_ONE, lams)

    @pytest.mark.parametrize("h", [[["1", "0"], ["0", "1"]], [["1", "z"], ["0", "1"]]], ids=["identity", "shear"])
    def test_certificate_rejects_a_wrong_normalization(self, h):
        # Com A(3) is spanned by I and A(3); the generic commutant of A(z) holds
        # A(z), and H^-1 A(z) H commutes with A(3) only at z = 3 for these H
        with pytest.raises(JordanError, match="certification fails"):
            jordan._certify_commutant_conjugation(EX45, g(3), PolyMatrix.from_strings(h, ["z"]))
