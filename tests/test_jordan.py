"""Jordan profiles, instability candidates, stability verdicts, normalization."""

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
)
from similitude.jordan import (
    JordanError,
    char_poly_at,
    gaussian_rational_roots,
    is_jordan_stable,
    jordan_instability_candidates,
    segre_at,
    stable_normalization,
)
from similitude.sylvester import intertwiner_dim_at

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

    def test_irrational_cofactor(self):
        p = Poly.parse("z^2-2", ["z"])
        roots, cofactor = gaussian_rational_roots(p)
        assert roots == []
        assert cofactor.total_degree() == 2


class TestCharPoly:
    def test_matches_sympy_charpoly(self):
        sympy = pytest.importorskip("sympy")

        def to_sympy(x):
            return sympy.Rational(str(x.re)) + sympy.I * sympy.Rational(str(x.im))

        rng = random.Random(97)
        for trial in range(24):
            n = 2 + trial % 4  # 2x2 to 5x5
            a0 = [
                [g(rng.randint(-4, 4), rng.randint(-2, 2)) / rng.randint(1, 3) for _ in range(n)]
                for _ in range(n)
            ]
            ours = char_poly_at(a0)
            assert ours.variables == ("t",) and ours.total_degree() == n
            oracle = sympy.Matrix([[to_sympy(x) for x in row] for row in a0])
            expected = oracle.charpoly(sympy.Symbol("t")).all_coeffs()
            got = [to_sympy(c) for c in reversed(ours.coefficients())]
            assert len(got) == len(expected)
            assert all(sympy.expand(x - y) == 0 for x, y in zip(got, expected))


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

    def test_exact_mode_requires_splitting(self):
        m = PolyMatrix.from_strings([["0", "2"], ["1", "0"]], ["z"])
        with pytest.raises(JordanError, match="split"):
            segre_at(m, GR_ZERO)
        numeric = segre_at(m, GR_ZERO, mode="numeric")
        assert len(numeric.eigenvalues) == 2

    def test_block_rank_duality(self):
        rng = random.Random(83)
        for _ in range(10):
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
            lam = g(rng.randint(-2, 2))
            a0 = block_diag([jordan_block(s, lam) for s in sizes])
            u = rand_unimodular(rng, len(a0))
            ui = linalg.invert(u, GR_ONE, GR_ZERO)
            conj = linalg.mat_mul(ui, linalg.mat_mul(a0, u, GR_ZERO), GR_ZERO)
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
                    power = linalg.mat_mul(power, shifted, GR_ZERO)
                    ranks.append(linalg.rank(power))
                # reconstruct ranks from reported blocks
                for k in range(1, n + 1):
                    expect = sum(
                        count * max(0, size - k) for size, count in ev.blocks
                    ) + (n - ev.multiplicity)
                    assert ranks[k] == expect

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
        from similitude.jordan import stability_report

        points = [g(0), g(1), g(3), g(-2), g(0, 1)]
        rep = stability_report(EX45, points)
        candidate_keys = {
            (c.exact.re, c.exact.im) for c in rep.candidate_points if c.exact is not None
        }
        for verdict in rep.verdicts:
            key = (verdict.point.re, verdict.point.im)
            if key not in candidate_keys:
                assert verdict.verdict != "unstable"

    def test_report_computes_the_locus_once(self, monkeypatch):
        import similitude.jordan as jordan

        points = [g(0), g(3), g(0, 1)]
        singly = [is_jordan_stable(EX45, p) for p in points]
        calls = []

        def counted(a):
            calls.append(a)
            return jordan_instability_candidates(a)

        monkeypatch.setattr(jordan, "jordan_instability_candidates", counted)
        rep = jordan.stability_report(EX45, points)
        assert len(calls) == 1
        assert [v.verdict for v in rep.verdicts] == [v.verdict for v in singly]
        assert [v.candidates for v in rep.verdicts] == [v.candidates for v in singly]

    @pytest.mark.parametrize(
        "probes,tolerance",
        [(4, float("nan")), (4, float("inf")), (4, 0.0), (4, -1.0), (0, 1e-9), (-3, 1e-9)],
    )
    def test_nonsense_settings_raise(self, probes, tolerance):
        from similitude.jordan import stability_report

        with pytest.raises(JordanError):
            is_jordan_stable(EX45, GR_ZERO, probes=probes, tolerance=tolerance)
        with pytest.raises(JordanError):
            stability_report(EX45, [GR_ZERO], probes=probes, tolerance=tolerance)
        if probes > 0:
            with pytest.raises(JordanError, match="tolerance"):
                segre_at(EX45, GR_ZERO, mode="numeric", tolerance=tolerance)


class TestStableNormalization:
    def test_model_family_accepts_identity_like_output(self):
        m = PolyMatrix.from_strings([["z", "0"], ["0", "z+1"]], ["z"])
        lam1 = RationalFunction(Poly.parse("z", ["z"]))
        lam2 = RationalFunction(Poly.parse("z+1", ["z"]))
        h = stable_normalization(m, GR_ZERO, [lam1, lam2])
        assert linalg.det(h.evaluate([GR_ZERO]), GR_ONE, GR_ZERO)

    def test_jordan_family_at_stable_point(self):
        lam1 = RationalFunction(Poly.parse("z", ["z"]))
        lam2 = RationalFunction(Poly.parse("0", ["z"]))
        h = stable_normalization(EX45, g(3), [lam1, lam2])
        assert linalg.det(h.evaluate([g(3)]), GR_ONE, GR_ZERO)

    def test_wrong_eigenfunctions_rejected(self):
        lam1 = RationalFunction(Poly.parse("z", ["z"]))
        lam2 = RationalFunction(Poly.parse("1", ["z"]))
        with pytest.raises(JordanError):
            stable_normalization(EX45, g(3), [lam1, lam2])

    def test_undeclared_eigenvalue_rejected(self):
        lam1 = RationalFunction(Poly.parse("z", ["z"]))
        with pytest.raises(JordanError):
            stable_normalization(EX45, g(3), [lam1])
