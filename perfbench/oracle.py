"""Output oracle: checks every CLI report against answers computed here.

Runs after the timed region.  Every check uses the benchmark's own exact
arithmetic (`exact`) or an answer fixed by construction of the input or by the
README's "Boundary cases" analysis, never a value produced by the package.

`check(op, code, report)` returns None when the output is right, KNOWN_DEFECT
when it shows the documented numeric `segre_at` defect (ROADMAP D5: a probe
profile whose blocks overrun their multiplicity), or a one-line reason.
"""

from __future__ import annotations

from exact import (
    GQ,
    ONE,
    ZERO,
    det,
    mat_mul,
    parse_poly,
    parse_rf,
    parse_scalar,
    pdet,
    pderiv,
    pdivmod,
    peval,
    pgcd,
    pmat_eval,
    pmul,
    pshift,
    psub,
    rank,
    sylvester_at,
    valuation,
)

KNOWN_DEFECT = "known-defect"
# points where a generic rank or count is sampled; a polynomial condition
# fails at all three only on a measure-zero set
SAMPLE_POINTS = [GQ("7/3", "5/11"), GQ("-13/7", "2/9"), GQ("17/5", "-3/4")]


def check(op, code: int, report: dict | None) -> str | None:
    if report is None:
        return f"exit {code} without a report"
    try:
        return CHECKS[op.kind](op.expect, code, report["result"], report["verdict"])
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def _grid(strings, var="z"):
    return [[parse_rf(s, var) for s in row] for row in strings]


def _rf_eval(rf, x):
    den = peval(rf[1], x)
    if not den:
        raise ZeroDivisionError("denominator vanishes at the point")
    return peval(rf[0], x) / den


def _rf_sum_is(terms, target) -> bool:
    """Whether sum of (num, den) terms equals the polynomial `target` exactly."""
    dens = []
    for _, d in terms:
        if d not in dens and d != [ONE]:
            dens.append(d)
    common = [ONE]
    for d in dens:
        common = pmul(common, d)
    total = pmul(target, common)
    for num, d in terms:
        rest = common if d == [ONE] else pdivmod(common, d)[0]
        total = psub(total, pmul(num, rest))
    return not total


def _minor_valuations(m, point, k):
    """Smallest valuation at `point` over all k x k minors (None if all vanish)."""
    from itertools import combinations

    shifted = [[pshift(p, point) for p in row] for row in m]
    best = None
    for rs in combinations(range(len(m)), k):
        for cs in combinations(range(len(m[0])), k):
            v = valuation(pdet([[shifted[i][j] for j in cs] for i in rs]))
            if v is not None and (best is None or v < best):
                best = v
    return best


# ---------------------------------------------------------------------------
# smith-wasow


def check_smith(ex, code, res, verdict):
    m, xi = ex["matrix"], ex["point"]
    if code != 0 or verdict != "factored":
        return f"smith exit {code} verdict {verdict}"
    if parse_scalar(res["point"]) != xi:
        return "point echo differs"
    expo = res["exponents"]
    r = len(expo)
    if res["generic_rank"] != r:
        return "generic_rank differs from the exponent count"
    for k in range(1, r + 1):
        if _minor_valuations(m, xi, k) != sum(expo[:k]):
            return f"exponent prefix sum {k} differs from the minor-gcd valuation"
    if r < min(len(m), len(m[0])) and _minor_valuations(m, xi, r + 1) is not None:
        return "generic rank too small: a larger minor is nonzero"
    e, f = _grid(res["E"]), _grid(res["F"])
    rows, cols = len(m), len(m[0])
    shift = [-xi, ONE]
    diag = [[[] for _ in range(cols)] for _ in range(rows)]
    for k, kappa in enumerate(expo):
        p = [ONE]
        for _ in range(kappa):
            p = pmul(p, shift)
        diag[k][k] = p
    if [[parse_poly(s) for s in row] for row in res["diagonal"]] != diag:
        return "diagonal is not diag((z-xi)^k)"
    for i in range(rows):
        for j in range(cols):
            terms = [
                (pmul(pmul(e[i][k][0], diag[k][k]), f[k][j][0]), pmul(e[i][k][1], f[k][j][1]))
                for k in range(r)
            ]
            if not _rf_sum_is(terms, m[i][j]):
                return f"E*D*F differs from M at ({i},{j})"
    for name, factor in (("E", e), ("F", f)):
        if not det([[_rf_eval(x, xi) for x in row] for row in factor]):
            return f"{name}(xi) is singular"
    return None


def _wasow_truth(ex):
    """(dim at point, generic dim) of the intertwiner kernel, from ranks here."""
    a, b, xi, n = ex["a"], ex["b"], ex["point"], ex["n"]
    at = rank(sylvester_at(pmat_eval(a, xi), pmat_eval(b, xi)))
    generic = max(rank(sylvester_at(pmat_eval(a, s), pmat_eval(b, s))) for s in SAMPLE_POINTS)
    return n * n - at, n * n - generic


def _truth(ex):
    if "truth" not in ex:
        ex["truth"] = _wasow_truth(ex)
    return ex["truth"]


def check_wasow(ex, code, res, verdict):
    dim_at, dim_generic = _truth(ex)
    constant = dim_at == dim_generic
    if res["dim_at_point"] != dim_at or res["dim_generic"] != dim_generic:
        return "intertwiner dimensions differ from the exact ranks"
    if res["constant_near_point"] != constant or verdict != ("constant" if constant else "jump"):
        return "constancy verdict is wrong"
    if code != (0 if constant else 1):
        return f"exit {code} does not match the verdict"
    expo = res["smith_exponents"]
    if len(expo) != ex["n"] ** 2 - dim_generic or (not any(expo)) != constant:
        return "Smith exponents disagree with the constancy verdict"
    return None


def check_local_similarity(ex, code, res, verdict):
    dim_at, dim_generic = _truth(ex)
    if verdict == "not-certified":
        return "no H although the dimension is constant" if dim_at == dim_generic else None
    if code != 0 or verdict != "constructed":
        return f"local-similarity exit {code} verdict {verdict}"
    a, b, xi, phi = ex["a"], ex["b"], ex["point"], ex["phi"]
    h = _grid(res["H"])
    if [[_rf_eval(x, xi) for x in row] for row in h] != phi:
        return "H(point) differs from Phi"
    n = len(a)
    for i in range(n):
        for j in range(n):
            terms = [(pmul(a[i][k], h[k][j][0]), h[k][j][1]) for k in range(n)]
            terms += [(pmul(h[i][k][0], [-c for c in b[k][j]]), h[i][k][1]) for k in range(n)]
            if not _rf_sum_is(terms, []):
                return f"A*H - H*B is nonzero at ({i},{j})"
    return None


# ---------------------------------------------------------------------------
# jet-rigidity


def _contains_invertible(space) -> bool:
    """Whether det(sum x_t V_t) is a nonzero polynomial, for 2x2 vectors V_t."""
    k = len(space)
    for s in range(k):
        for t in range(s, k):
            u, v = space[s], space[t]
            # coefficient of x_s x_t in (a d - b c) for row-major [a, b, c, d]
            c = u[0] * v[3] - u[1] * v[2]
            if s != t:
                c = c + v[0] * u[3] - v[1] * u[2]
            if c:
                return True
    return False


def check_rigidity(ex, code, res, verdict):
    space = [[parse_scalar(x) for x in v] for v in res["solution_space"]]
    dim = len(space)
    scalar = dim == 1 and bool(space[0][0]) and space[0][0] == space[0][3] and not (space[0][1] or space[0][2])
    if res["dimension"] != dim or res["jet_nullity"] < dim:
        return "dimension or jet nullity inconsistent with the solution space"
    if res["scalar_line"] != scalar or res["contains_invertible"] != _contains_invertible(space):
        return "scalar_line or contains_invertible inconsistent with the solution space"
    if (dim, scalar, res["contains_invertible"]) != (
        ex["dimension"], ex["scalar_line"], ex["contains_invertible"]
    ):
        return f"solution space of dimension {dim} differs from the README answer"
    if "space" in ex and res["solution_space"] != ex["space"]:
        return "solution space is not the line through [[0,1],[0,0]]"
    expected = "rigid" if dim == 0 else ("scalar-line" if ex["relation"] == "AHeqHA" and scalar else "nontrivial")
    if verdict != expected or code != (1 if expected == "nontrivial" else 0):
        return f"verdict {verdict} exit {code}, expected {expected}"
    return None


def check_verify_paper(ex, code, res, verdict):
    failing = [c["check"] for c in res["checks"] if not c["passed"]]
    if len(res["checks"]) != 6 or failing != ex["failing"]:
        return f"failing checks {failing}, expected {ex['failing']}"
    if code != (1 if failing else 0) or verdict != ("failed" if failing else "certified"):
        return f"verdict {verdict} exit {code} inconsistent"
    return None


# ---------------------------------------------------------------------------
# jordan-locus


def _char_poly(a0):
    n = len(a0)
    pencil = [[[-a0[i][j], ONE] if i == j else ([-a0[i][j]] if a0[i][j] else []) for j in range(n)]
              for i in range(n)]
    return pdet(pencil)


def _distinct_eigenvalues(a0) -> int:
    p = _char_poly(a0)
    return len(p) - len(pgcd(p, pderiv(p)))


def _commutant_dim(a0) -> int:
    return len(a0) ** 2 - rank(sylvester_at(a0, a0))


def _degenerate(fam, c) -> bool:
    """A(c) has fewer distinct eigenvalues or a larger commutant than A generically."""
    distinct = max(_distinct_eigenvalues(pmat_eval(fam, s)) for s in SAMPLE_POINTS)
    commutant = min(_commutant_dim(pmat_eval(fam, s)) for s in SAMPLE_POINTS)
    at = pmat_eval(fam, c)
    return _distinct_eigenvalues(at) < distinct or _commutant_dim(at) > commutant


def check_candidates(ex, code, res, verdict):
    if code != 0 or verdict != "computed":
        return f"candidates exit {code} verdict {verdict}"
    exact = [parse_scalar(c["exact"]) for c in res["candidates"] if "exact" in c]
    if "jump" in ex:
        if exact != [ex["jump"]] or len(res["candidates"]) != 1:
            return f"candidates {res['candidates']} are not exactly the jump point"
        return None
    defining = [parse_poly(q) for q in res["defining_polynomials"]]
    for c in exact:
        if all(peval(q, c) for q in defining):
            return f"candidate {c} is not a root of a defining polynomial"
        if not _degenerate(ex["family"], c):
            return f"candidate {c} is not a degenerate point"
    return None


def _profile_problem(profile) -> str | None:
    total = 0
    for ev in profile["eigenvalues"]:
        sizes = sum(size * count for size, count in ev["blocks"])
        if sizes != ev["multiplicity"]:
            return f"blocks {ev['blocks']} overrun multiplicity {ev['multiplicity']}"
        total += ev["multiplicity"]
    return None if total == profile["size"] else "multiplicities do not add up to the size"


def _profile_commutant(profile) -> int:
    total = 0
    for ev in profile["eigenvalues"]:
        sizes = [s for s, count in ev["blocks"] for _ in range(count)]
        total += sum(min(s, t) for s in sizes for t in sizes)
    return total


def check_jordan(ex, code, res, verdict):
    fam = ex["family"]
    expected = ("unstable", "undetermined") if ex["at_jump"] else ("stable",)
    if verdict not in expected or code != (1 if verdict == "unstable" else 0):
        return f"verdict {verdict} exit {code}, expected one of {expected}"
    if [parse_scalar(c) for c in res["candidate_points"]] != [ex["jump"]]:
        return "candidate points are not exactly the jump point"
    points = [ex["point"]] if res["profile_at_point"] else []
    profiles = [res["profile_at_point"]] if res["profile_at_point"] else []
    points += [parse_scalar(p) for p in res["probe_points"]]
    profiles += res["probe_profiles"]
    defect = None
    for point, profile in zip(points, profiles):
        problem = _profile_problem(profile)
        if problem and profile["mode"] == "numeric":
            defect = KNOWN_DEFECT
            continue
        if problem:
            return f"exact profile at {point}: {problem}"
        if _profile_commutant(profile) != _commutant_dim(pmat_eval(fam, point)):
            return f"profile at {point} disagrees with the commutant dimension"
    return defect


def check_commutant(ex, code, res, verdict):
    a0 = pmat_eval(ex["family"], ex["point"])
    basis = [[[parse_scalar(x) for x in row] for row in theta] for theta in res["basis"]]
    if code != 0 or res["dimension"] != _commutant_dim(a0) or len(basis) != res["dimension"]:
        return "commutant dimension differs from n^2 - rank of the Sylvester matrix"
    for theta in basis:
        if mat_mul(a0, theta) != mat_mul(theta, a0):
            return "a basis element does not commute"
    if rank([[x for row in theta for x in row] for theta in basis]) != len(basis):
        return "basis is linearly dependent"
    return None


def check_pointwise(ex, code, res, verdict):
    similar = ex["similar"]
    if res["similar"] != similar or verdict != ("similar" if similar else "not-similar"):
        return f"verdict {verdict}, expected similar={similar}"
    if code != (0 if similar else 1):
        return f"exit {code} does not match the verdict"
    n = len(ex["a"])
    for key in ("invariant_factors_a", "invariant_factors_b"):
        factors = [parse_poly(p, "lambda") for p in res[key]]
        if sum(len(p) - 1 for p in factors) != n:
            return f"{key} degrees do not add up to {n}"
        if any(pdivmod(q, p)[1] for p, q in zip(factors, factors[1:])):
            return f"{key} do not divide each other"
    if (res["invariant_factors_a"] == res["invariant_factors_b"]) != similar:
        return "invariant factors contradict the construction"
    if similar:
        w = [[parse_scalar(x) for x in row] for row in res["witness"]]
        if not det(w) or mat_mul(ex["a"], w) != mat_mul(w, ex["b"]):
            return "witness does not conjugate"
    return None


CHECKS = {
    "smith": check_smith,
    "wasow": check_wasow,
    "local-similarity": check_local_similarity,
    "rigidity": check_rigidity,
    "verify-paper": check_verify_paper,
    "jordan-candidates": check_candidates,
    "jordan-check": check_jordan,
    "commutant": check_commutant,
    "pointwise": check_pointwise,
}
