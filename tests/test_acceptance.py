"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Criteria 4a, 5 and 9b sit on the boundary instances of README "Boundary
cases", where the values first pinned (a zero solution space on the cusp
z^4 = w^3, all six index sets empty at q = ell + 3, a dimension jump at 0 for
A = [[0,1],[0,0]], B = [[0,z],[0,0]]) are refuted by hand-checkable
identities.  They assert the proven values, together with the README's wider
claims about those instances that no unit test covers: the singular cusp line
at every jet order from 14 on, the index sets over the whole hypothesis range,
and the holomorphic extension of every intertwiner at the point 0.  Their
PASS lines name the refuted value.  Criterion 12 still expects
`verify-paper --ell 0` to certify and fails: at ell = 0 that command checks
the two refuted statements on the boundary pair (4, 3).
"""

import json
import math
import random
import time

import similitude.linalg as linalg
from similitude.algebra import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Poly,
    PolyMatrix,
)
from similitude.cli import run
from similitude.jordan import is_jordan_stable, jordan_instability_candidates, segre_at
from similitude.rigidity import (
    Cusp,
    FullPlane,
    Lines,
    build_family,
    clutching_invertibility,
    index_sets,
    jet_rigidity,
    vandermonde_check,
    vandermonde_product,
    verify_division_identity,
    verify_smooth_similarity,
    winding_number,
)
from similitude.similarity import local_similarity, wasow_check
from similitude.smith import local_smith, minor_gcd_valuation
from similitude.sylvester import generic_intertwiner_dim, intertwiner_dim_at

g = GaussianRational


def report(criterion: str, ok: bool, note: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f"  [{note}]"
    print(line)
    assert ok, line


def test_criterion_01_division_identity():
    start = time.perf_counter()
    ok = all(verify_division_identity(ell) for ell in range(7))
    elapsed = time.perf_counter() - start
    report("1", ok and elapsed < 1.0, f"ell=0..6 exact, {elapsed:.3f}s < 1s")


def test_criterion_02_smooth_similarity():
    start = time.perf_counter()
    ok = all(verify_smooth_similarity(ell).conjugation_exact for ell in range(4))
    elapsed = time.perf_counter() - start
    report("2", ok and elapsed < 1.0, f"S*B - A*S cleared, ell=0..3, {elapsed:.3f}s < 1s")


def test_criterion_03_full_plane_rigidity():
    ok = True
    notes = []
    for ell in (0, 1, 2):
        start = time.perf_counter()
        fam = build_family(ell)
        order = 2 * ell + 4
        rigid = jet_rigidity(fam.A, fam.B, "AHeqHB", FullPlane(), order).is_zero_space()
        scalar = jet_rigidity(fam.A, fam.B, "AHeqHA", FullPlane(), order).is_scalar_line()
        elapsed = time.perf_counter() - start
        ok = ok and rigid and scalar and elapsed < 30.0
        notes.append(f"ell={ell} {elapsed:.2f}s")
    report("3", ok, "; ".join(notes))


def test_criterion_04a_cusp_rigidity():
    # A zero solution space, the value first pinned here, is false on the
    # boundary cusp q = ell + 3: H = [[0,1],[z,0]] intertwines modulo
    # z^4 - w^3 (README: Boundary cases; test_rigidity.py checks the
    # identity).  The obstruction that survives is that every admissible H(0)
    # is singular; the README places it at every order from 14 on.
    fam = build_family(0)
    start = time.perf_counter()
    res = jet_rigidity(fam.A, fam.B, "AHeqHB", Cusp(4, 3), 21)
    elapsed = time.perf_counter() - start
    line = [["0", "1", "0", "0"]]
    space = [[str(x) for x in v] for v in res.solution_space]
    ok = space == line and not res.contains_invertible()
    off_line = []
    for order in range(14, 21):
        lower = jet_rigidity(fam.A, fam.B, "AHeqHB", Cusp(4, 3), order)
        if [[str(x) for x in v] for v in lower.solution_space] != line:
            off_line.append(order)
    report(
        "4a",
        ok and not off_line and elapsed < 60.0,
        f"solution space {space} at order 21, no invertible H(0), orders off the line "
        f"from 14: {off_line}; not the pinned zero space: A*H-H*B=(z^4-w^3)*diag(1,-1) "
        f"for H=[[0,1],[z,0]] (README: Boundary cases); {elapsed:.2f}s < 60s",
    )


def test_criterion_04b_lines_rigidity_and_control():
    fam = build_family(0)
    start = time.perf_counter()
    five = jet_rigidity(
        fam.A, fam.B, "AHeqHB", Lines(tuple(g(i) for i in (1, 2, 3, 4, 5))), 4
    )
    two = jet_rigidity(fam.A, fam.B, "AHeqHB", Lines((g(1), g(2))), 4)
    elapsed = time.perf_counter() - start
    ok = five.is_zero_space() and two.contains_invertible() and elapsed < 30.0
    report("4b", ok, f"5 lines rigid, 2-line control invertible, {elapsed:.2f}s")


def test_criterion_05_index_sets():
    # All six sets empty, the value first pinned for (4,3,0) and (7,5,2), is
    # false: both have q = ell + 3, where (p - ell - 3, 0) solves the B_alpha
    # equation (README: Boundary cases).  Checked instead is the README's
    # statement over the hypothesis range ell + 2 < q < p, p and q coprime:
    # five sets always empty, B_alpha = {(p - ell - 3, 0)} at q = ell + 3
    # and empty otherwise.
    start = time.perf_counter()
    main1 = index_sets(4, 3, 0)
    main2 = index_sets(7, 5, 2)
    control = index_sets(2, 2, 0)
    sweep = [
        index_sets(p, q, ell)
        for ell in range(4)
        for q in range(ell + 3, ell + 8)
        for p in range(q + 1, q + 9)
        if math.gcd(p, q) == 1
    ]
    elapsed = time.perf_counter() - start
    wrong = []
    for s in [main1, main2] + sweep:
        others = s.as_dict()
        alpha = [(s.p - s.ell - 3, 0)] if s.q == s.ell + 3 else []
        if sorted(others.pop("B_alpha")) != alpha or any(others.values()):
            wrong.append((s.p, s.q, s.ell))
    ok = not wrong and not control.all_empty()
    report(
        "5",
        ok and elapsed < 1.0,
        f"B_alpha(4,3,0)={sorted(main1.B_alpha)}, B_alpha(7,5,2)={sorted(main2.B_alpha)}, "
        f"other sets empty; {len(sweep)} instances of the hypothesis range, wrong: {wrong}; "
        f"not the pinned all-empty: q=ell+3 puts (p-ell-3,0) in B_alpha (README: Boundary "
        f"cases); control nonempty={not control.all_empty()}; {elapsed:.3f}s < 1s",
    )


def test_criterion_06_vandermonde():
    start = time.perf_counter()
    nodes = [g(i) for i in (1, 2, 3, 4, 5)]
    nonzero, det = vandermonde_check(nodes)
    elapsed = time.perf_counter() - start
    ok = nonzero and det == vandermonde_product(nodes) and elapsed < 1.0
    report("6", ok, f"det={det}, product form matches, {elapsed:.3f}s < 1s")


def test_criterion_07_commutant_dimension_of_example_family():
    start = time.perf_counter()
    a = PolyMatrix.from_strings([["z", "1"], ["0", "0"]], ["z"])
    rng = random.Random(2024)
    ok = generic_intertwiner_dim(a, a) == 2
    for _ in range(20):
        pt = g(
            f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}",
            f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}",
        )
        ok = ok and intertwiner_dim_at(a, a, pt) == 2
    elapsed = time.perf_counter() - start
    report("7", ok and elapsed < 5.0, f"dim Com A(z) = 2 at 20 points + generic, {elapsed:.2f}s")


def test_criterion_08_smith_suite():
    start = time.perf_counter()
    rng = random.Random(88)
    points = [g(0), g(1), g(-1), g(2), g(0, 1), g(1, 1), g("1/2")]
    ok = True
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = PolyMatrix(
            [
                [
                    Poly(
                        ("z",),
                        {
                            (d,): g(rng.randint(-3, 3), rng.randint(-2, 2))
                            for d in range(rng.randint(0, 4) + 1)
                            if rng.random() < 0.8
                        },
                    )
                    for _ in range(cols)
                ]
                for _ in range(rows)
            ]
        )
        xi = rng.choice(points)
        fact = local_smith(m, xi)
        ok = ok and fact.reconstruct() == m.to_func()
        ok = ok and bool(linalg.det(fact.E.evaluate([xi])))
        ok = ok and bool(linalg.det(fact.F.evaluate([xi])))
        for k in range(1, fact.generic_rank + 1):
            ok = ok and sum(fact.exponents[:k]) == minor_gcd_valuation(m, xi, k)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report("8", ok and elapsed < 120.0, f"100 matrices <=4x4 deg<=4, {elapsed:.1f}s < 120s")


def _random_conjugated_pair(rng):
    z = Poly.variable(("z",), "z")
    one = Poly.constant(("z",), GR_ONE)
    zero = Poly.zero(("z",))
    a = PolyMatrix(
        [
            [
                Poly(
                    ("z",),
                    {(d,): g(rng.randint(-2, 2), rng.randint(-1, 1)) for d in range(3)},
                )
                for _ in range(2)
            ]
            for _ in range(2)
        ]
    )
    top = z * g(rng.randint(-2, 2)) + g(rng.randint(-1, 1))
    bot = z * g(rng.randint(-2, 2)) + g(rng.randint(-1, 1))
    e1 = PolyMatrix([[one, top], [zero, one]])
    e2 = PolyMatrix([[one, zero], [bot, one]])
    h0 = e1 * e2
    h0_inv = PolyMatrix([[one, zero], [-bot, one]]) * PolyMatrix(
        [[one, -top], [zero, one]]
    )
    return a, h0_inv * a * h0, h0


def test_criterion_09a_wasow_local_similarity_suite():
    start = time.perf_counter()
    rng = random.Random(99)
    candidates = [g(0), g(1), g(-1), g(2), g(-2), g(3), g(0, 1), g(1, 1)]
    done = 0
    ok = True
    while done < 25:
        a, b, h0 = _random_conjugated_pair(rng)
        xi = None
        for point in candidates:
            if wasow_check(a, b, point).constant_near_point:
                xi = point
                break
        if xi is None:
            continue
        phi = h0.evaluate([xi])
        sim = local_similarity(a, b, xi, phi)
        ok = ok and sim.H.evaluate([xi]) == phi
        ok = ok and (a.to_func() * sim.H - sim.H * b.to_func()).is_zero()
        done += 1
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report("9a", ok and elapsed < 120.0, f"25 conjugated pairs, {elapsed:.1f}s < 120s")


def test_criterion_09b_stated_jump_example():
    # A jump at 0, the value first pinned here, is false: A Theta = Theta B(z)
    # reads c = 0, d = a z at every point, so the dimension is 2 everywhere
    # (README: Boundary cases).  Constancy at 0 promises that every
    # intertwiner at 0 extends to a holomorphic solution (README: Wasow's
    # constancy criterion); a jump would leave one of the two below without one.
    a = PolyMatrix.from_strings([["0", "1"], ["0", "0"]], ["z"])
    b = PolyMatrix.from_strings([["0", "z"], ["0", "0"]], ["z"])
    at0 = wasow_check(a, b, GR_ZERO)
    at1 = wasow_check(a, b, GR_ONE)
    ok = all(
        (rep.dim_at_point, rep.dim_generic) == (2, 2) and rep.constant_near_point
        for rep in (at0, at1)
    )
    kernel_at_0 = (
        [[GR_ONE, GR_ZERO], [GR_ZERO, GR_ZERO]],
        [[GR_ZERO, GR_ONE], [GR_ZERO, GR_ZERO]],
    )
    extended = []
    if ok:
        for phi in kernel_at_0:
            h = local_similarity(a, b, GR_ZERO, phi).H
            if h.evaluate([GR_ZERO]) == phi and (a.to_func() * h - h * b.to_func()).is_zero():
                extended.append(str(h))
    report(
        "9b",
        ok and len(extended) == 2,
        f"dim_at_0={at0.dim_at_point}, generic={at0.dim_generic}, constant at 0 and 1, "
        f"intertwiners at 0 extend to {extended}; not the pinned jump at 0: "
        f"A*Theta=Theta*B reads c=0, d=a*z at every point (README: Boundary cases)",
    )


def test_criterion_10_jordan_suite():
    start = time.perf_counter()
    ex45 = PolyMatrix.from_strings([["z", "1"], ["0", "0"]], ["z"])
    cands = jordan_instability_candidates(ex45)
    ok = [str(c.exact) for c in cands.points] == ["0"]
    ok = ok and is_jordan_stable(ex45, GR_ZERO).verdict == "unstable"
    ok = ok and is_jordan_stable(ex45, g(3)).verdict == "stable"

    rng = random.Random(1010)
    eigen_pool = [g(0), g(1), g(-1), g(2), g(0, 1), g("1/2")]
    for _ in range(20):
        n = rng.randint(2, 4)
        a0 = [[GR_ZERO] * n for _ in range(n)]
        offset = 0
        while offset < n:
            size = rng.randint(1, n - offset)
            lam = rng.choice(eigen_pool)
            for i in range(size):
                a0[offset + i][offset + i] = lam
                if i + 1 < size:
                    a0[offset + i][offset + i + 1] = GR_ONE
            offset += size
        u = linalg.identity(n, GR_ONE, GR_ZERO)
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = g(rng.randint(-2, 2))
                for col in range(n):
                    u[i][col] = u[i][col] + c * u[j][col]
        ui = linalg.invert(u)
        conj = linalg.mat_mul(ui, linalg.mat_mul(a0, u))
        profile = segre_at(conj)
        poly_m = PolyMatrix.from_scalars(conj, ("z",))
        ok = ok and profile.commutant_dimension() == intertwiner_dim_at(
            poly_m, poly_m, GR_ZERO
        )
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report("10", ok and elapsed < 60.0, f"candidates/verdicts/Frobenius, {elapsed:.1f}s < 60s")


def test_criterion_11_winding_and_clutching():
    import cmath
    import math

    start = time.perf_counter()
    circle = [cmath.exp(1j * 2 * math.pi * k / 64) for k in range(64)]
    double_rev = [cmath.exp(-2j * 2 * math.pi * k / 64) for k in range(64)]
    ok = winding_number(circle) == 1
    ok = ok and winding_number(double_rev) == -2
    ok = ok and winding_number([complex(1.5, 0.5)] * 64) == 0
    rep = clutching_invertibility("1/8", 32)
    ok = ok and rep.bound_holds and rep.chi_zero_band_all_one
    ok = ok and rep.min_re_det_transition_band >= 0.5
    elapsed = time.perf_counter() - start
    report(
        "11",
        ok and elapsed < 10.0,
        f"indices 1/-2/0; min Re det {rep.min_re_det_exact} >= 1/2, {elapsed:.2f}s",
    )


def test_criterion_12_verify_paper_certificate(capsys):
    start = time.perf_counter()
    code = run(["verify-paper", "--ell", "0"])
    captured = capsys.readouterr()
    elapsed = time.perf_counter() - start
    cert = json.loads(captured.out)
    names = [c["check"] for c in cert["result"]["checks"]]
    enumerated = names == [
        "1-division-identity",
        "2-smooth-similarity",
        "3-full-plane-rigidity",
        "4-variety-rigidity",
        "5-index-sets",
        "6-vandermonde",
    ]
    failing = [c["check"] for c in cert["result"]["checks"] if not c["passed"]]
    with capsys.disabled():
        report(
            "12",
            code == 0 and enumerated and elapsed < 180.0,
            f"exit={code}, failing checks {failing} inherit the criterion 4a/5 "
            f"boundary defect (README: Boundary cases); {elapsed:.1f}s < 180s",
        )
