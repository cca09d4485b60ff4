"""Command-line surface: one analysis per invocation, JSON report on stdout.

Exit codes: 0 when the analysis completed with an affirmative verdict (or has
no verdict to give), 1 for a completed analysis with a negative verdict (not
similar, unstable, nontrivial rigidity space, failed certificate), 2 for
usage or input errors (diagnostics go to stderr).

Reports are deterministic for fixed argv and input files, except for the
wall-clock "timings" object.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .algebra import (
    AlgebraError,
    GaussianRational,
    PolyMatrix,
    SimilitudeError,
    format_polynomial,
    parse_gaussian_rational,
)
from . import jordan as jordan_mod
from . import rigidity as rigidity_mod
from . import similarity as similarity_mod
from . import smith as smith_mod
from . import sylvester as sylvester_mod

SCHEMA_VERSION = 1


class InputError(SimilitudeError):
    """Malformed files or argument values; mapped to exit code 2."""


# ---------------------------------------------------------------------------
# Serialization helpers


def _scalar_grid(grid) -> list[list[str]]:
    return [[str(x) for x in row] for row in grid]


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also an integer literal past Python's digit limit
        raise InputError(f"{path}: not valid JSON: {exc}") from exc


def load_matrix_file(path: str) -> PolyMatrix:
    data = _read_json(path)
    if not isinstance(data, dict) or "variables" not in data or "matrix" not in data:
        raise InputError(f"{path}: expected an object with 'variables' and 'matrix'")
    variables = data["variables"]
    grid = data["matrix"]
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise InputError(f"{path}: 'variables' must be a list of names")
    if not isinstance(grid, list) or not grid or not all(isinstance(r, list) for r in grid):
        raise InputError(f"{path}: 'matrix' must be a nonempty list of rows")
    if not all(isinstance(x, str) for r in grid for x in r):
        raise InputError(f"{path}: every matrix entry must be a string")
    try:
        return PolyMatrix.from_strings(grid, variables)
    except AlgebraError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_constant_matrix(path: str) -> list[list[GaussianRational]]:
    m = load_matrix_file(path)
    try:
        return [[p.constant_value() for p in row] for row in m.entries]
    except AlgebraError as exc:
        raise InputError(f"{path}: expected constant entries: {exc}") from exc


def load_curve_file(path: str) -> list[complex]:
    data = _read_json(path)
    if not isinstance(data, dict) or "samples" not in data:
        raise InputError(f"{path}: expected an object with 'samples'")
    samples = data["samples"]
    if not isinstance(samples, list):
        raise InputError(f"{path}: 'samples' must be a list of [re, im] pairs")
    out = []
    for entry in samples:
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in entry)
        ):
            raise InputError(f"{path}: each sample must be a finite numeric pair [re, im]")
        out.append(complex(float(entry[0]), float(entry[1])))
    return out


def parse_point(text: str, what: str = "point") -> GaussianRational:
    try:
        return parse_gaussian_rational(text)
    except AlgebraError as exc:
        raise InputError(f"bad {what} {text!r}: {exc}") from exc


def _profile_dict(profile: jordan_mod.JordanProfile) -> dict:
    eigenvalues = []
    for ev in profile.eigenvalues:
        value = (
            str(ev.value)
            if isinstance(ev.value, GaussianRational)
            else [ev.value.real, ev.value.imag]
        )
        eigenvalues.append(
            {
                "value": value,
                "multiplicity": ev.multiplicity,
                "blocks": [list(b) for b in ev.blocks],
                "radius": ev.radius,
            }
        )
    return {"size": profile.size, "mode": profile.mode, "eigenvalues": eigenvalues}


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns (result dict, verdict string, exit code)


def cmd_smith(args) -> tuple[dict, str, int]:
    m = load_matrix_file(args.matrix)
    point = parse_point(args.point)
    fact = smith_mod.local_smith(m, point)
    result = {
        "point": str(fact.point),
        "exponents": list(fact.exponents),
        "generic_rank": fact.generic_rank,
        "E": fact.E.to_strings(),
        "diagonal": fact.diagonal().to_strings(),
        "F": fact.F.to_strings(),
    }
    return result, "factored", 0


def cmd_commutant(args) -> tuple[dict, str, int]:
    m = load_matrix_file(args.matrix)
    point = parse_point(args.point)
    basis = sylvester_mod.commutant_basis_at(m, point)
    result = {
        "point": str(basis.point),
        "dimension": basis.dimension,
        "basis": [_scalar_grid(theta) for theta in basis.basis],
    }
    return result, "computed", 0


def cmd_wasow(args) -> tuple[dict, str, int]:
    a = load_matrix_file(args.a)
    b = load_matrix_file(args.b)
    point = parse_point(args.point)
    report = similarity_mod.wasow_check(a, b, point)
    result = {
        "point": str(report.point),
        "dim_at_point": report.dim_at_point,
        "dim_generic": report.dim_generic,
        "constant_near_point": report.constant_near_point,
        "smith_exponents": list(report.smith_exponents),
    }
    verdict = "constant" if report.constant_near_point else "jump"
    return result, verdict, 0 if report.constant_near_point else 1


def cmd_local_similarity(args) -> tuple[dict, str, int]:
    a = load_matrix_file(args.a)
    b = load_matrix_file(args.b)
    point = parse_point(args.point)
    phi = load_constant_matrix(args.phi)
    try:
        sim = similarity_mod.local_similarity(a, b, point, phi)
    except similarity_mod.ConstructionError as exc:
        return {"error": str(exc)}, "not-certified", 1
    result = {
        "point": str(sim.point),
        "H": sim.H.to_strings(),
        "phi": _scalar_grid(sim.seed),
    }
    return result, "constructed", 0


def cmd_pointwise(args) -> tuple[dict, str, int]:
    a0 = load_constant_matrix(args.a)
    b0 = load_constant_matrix(args.b)
    verdict = similarity_mod.pointwise_similar(a0, b0, want_witness=args.witness)
    result = {
        "similar": verdict.similar,
        "invariant_factors_a": [format_polynomial(p) for p in verdict.invariant_factors_a],
        "invariant_factors_b": [format_polynomial(p) for p in verdict.invariant_factors_b],
    }
    if args.witness:
        result["witness"] = (
            _scalar_grid(verdict.witness) if verdict.witness is not None else None
        )
    return result, "similar" if verdict.similar else "not-similar", 0 if verdict.similar else 1


def cmd_jordan_candidates(args) -> tuple[dict, str, int]:
    m = load_matrix_file(args.matrix)
    cands = jordan_mod.jordan_instability_candidates(m)
    points = []
    for c in cands.points:
        if c.exact is not None:
            points.append({"exact": str(c.exact)})
        else:
            points.append(
                {
                    "approx": [c.approx.real, c.approx.imag],
                    "radius": c.radius,
                    "min_poly": format_polynomial(c.min_poly),
                }
            )
    result = {
        "candidates": points,
        "defining_polynomials": [format_polynomial(q) for q in cands.defining_polynomials],
    }
    return result, "computed", 0


def cmd_jordan_check(args) -> tuple[dict, str, int]:
    m = load_matrix_file(args.matrix)
    point = parse_point(args.point)
    verdict = jordan_mod.is_jordan_stable(m, point)
    result = {
        "point": str(verdict.point),
        "verdict": verdict.verdict,
        "profile_at_point": (
            _profile_dict(verdict.profile_at_point)
            if verdict.profile_at_point is not None
            else None
        ),
        "probe_points": [str(p) for p in verdict.probe_points],
        "probe_profiles": [_profile_dict(p) for p in verdict.probe_profiles],
        "candidate_points": [
            str(c.exact) for c in verdict.candidates.points if c.exact is not None
        ],
    }
    code = 1 if verdict.verdict == "unstable" else 0
    return result, verdict.verdict, code


def _rigidity_result_dict(res: rigidity_mod.JetRigidityResult) -> dict:
    return {
        "relation": res.relation,
        "variety": res.variety.describe(),
        "order": res.order,
        "solution_space": [[str(x) for x in v] for v in res.solution_space],
        "dimension": res.dimension(),
        "jet_nullity": res.jet_nullity,
        "scalar_line": res.is_scalar_line(),
        "contains_invertible": res.contains_invertible(),
    }


def cmd_rigidity(args) -> tuple[dict, str, int]:
    variety = rigidity_mod.parse_variety(args.variety)
    fam = rigidity_mod.build_family(args.ell)
    order = args.order if args.order is not None else rigidity_mod.default_order(variety, args.ell)
    res = rigidity_mod.jet_rigidity(fam.A, fam.B, args.relation, variety, order)
    result = _rigidity_result_dict(res)
    if res.is_zero_space():
        return result, "rigid", 0
    if args.relation == "AHeqHA" and res.is_scalar_line():
        return result, "scalar-line", 0
    return result, "nontrivial", 1


def cmd_verify_paper(args) -> tuple[dict, str, int]:
    ell = args.ell
    checks: list[dict] = []

    def record(name: str, passed: bool, detail: dict):
        checks.append({"check": name, "passed": bool(passed), "detail": detail})

    ok1 = rigidity_mod.verify_division_identity(ell)
    record("1-division-identity", ok1, {"ell": ell})

    rep2 = rigidity_mod.verify_smooth_similarity(ell)
    record(
        "2-smooth-similarity",
        rep2.conjugation_exact and rep2.determinant_nonvanishing,
        {
            "conjugation_exact": rep2.conjugation_exact,
            "max_abs_czcw": rep2.max_abs_czcw,
            "degree_gap": rep2.degree_gap,
        },
    )

    fam = rigidity_mod.build_family(ell)
    full = rigidity_mod.FullPlane()
    order = 2 * ell + 4
    r_ab = rigidity_mod.jet_rigidity(fam.A, fam.B, "AHeqHB", full, order)
    r_ba = rigidity_mod.jet_rigidity(fam.A, fam.B, "HAeqBH", full, order)
    r_aa = rigidity_mod.jet_rigidity(fam.A, fam.B, "AHeqHA", full, order)
    record(
        "3-full-plane-rigidity",
        r_ab.is_zero_space() and r_ba.is_zero_space() and r_aa.is_scalar_line(),
        {
            "order": order,
            "AHeqHB_dim": r_ab.dimension(),
            "HAeqBH_dim": r_ba.dimension(),
            "AHeqHA_scalar_line": r_aa.is_scalar_line(),
        },
    )

    detail4: dict = {}
    ok4 = True
    if ell == 0:
        cusp = rigidity_mod.Cusp(4, 3)
        r_cusp = rigidity_mod.jet_rigidity(fam.A, fam.B, "AHeqHB", cusp, 21)
        detail4["cusp(4,3)_order21_dim"] = r_cusp.dimension()
        detail4["cusp(4,3)_solution_space"] = [
            [str(x) for x in v] for v in r_cusp.solution_space
        ]
        ok4 = ok4 and r_cusp.is_zero_space()
    slopes = tuple(GaussianRational(i) for i in range(1, 2 * ell + 6))
    lines = rigidity_mod.Lines(slopes)
    r_lines = rigidity_mod.jet_rigidity(fam.A, fam.B, "AHeqHB", lines, order)
    detail4["lines_count"] = len(slopes)
    detail4["lines_dim"] = r_lines.dimension()
    ok4 = ok4 and r_lines.is_zero_space()
    control = rigidity_mod.Lines((GaussianRational(1), GaussianRational(2)))
    r_ctrl = rigidity_mod.jet_rigidity(fam.A, fam.B, "AHeqHB", control, order)
    ctrl_invertible = detail4["two_line_control_contains_invertible"] = r_ctrl.contains_invertible()
    ok4 = ok4 and ctrl_invertible
    record("4-variety-rigidity", ok4, detail4)

    # ell = 0 is pinned to the minimal pair (4, 3); other levels use the
    # interior pair (ell+5, ell+4), clear of the q = ell+3 boundary
    p_exp, q_exp = (4, 3) if ell == 0 else (ell + 5, ell + 4)
    sets_main = rigidity_mod.index_sets(p_exp, q_exp, ell)
    sets_ctrl = rigidity_mod.index_sets(2, 2, 0)
    record(
        "5-index-sets",
        sets_main.all_empty() and not sets_ctrl.all_empty(),
        {
            "p": p_exp,
            "q": q_exp,
            "sets": {k: [list(t) for t in v] for k, v in sets_main.as_dict().items()},
            "degenerate_control_nonempty": not sets_ctrl.all_empty(),
        },
    )

    nodes = [GaussianRational(i) for i in range(1, 2 * ell + 6)]
    nonzero, detval = rigidity_mod.vandermonde_check(nodes)
    product = rigidity_mod.vandermonde_product(nodes)
    record(
        "6-vandermonde",
        nonzero and detval == product,
        {"nodes": [str(t) for t in nodes], "determinant": str(detval)},
    )

    all_pass = all(c["passed"] for c in checks)
    result = {"ell": ell, "checks": checks, "all_passed": all_pass}
    return result, "certified" if all_pass else "failed", 0 if all_pass else 1


def cmd_winding(args) -> tuple[dict, str, int]:
    samples = load_curve_file(args.curve)
    index = rigidity_mod.winding_number(samples)
    return {"samples": len(samples), "winding_number": index}, "computed", 0


def cmd_clutching(args) -> tuple[dict, str, int]:
    eps = parse_point(args.epsilon, "epsilon")
    if eps.im:
        raise InputError(f"bad epsilon {args.epsilon!r}: must be real")
    report = rigidity_mod.clutching_invertibility(eps.re, args.grid)
    result = {
        "epsilon": str(report.epsilon),
        "grid": report.grid,
        "samples": report.samples,
        "min_re_det": report.min_re_det,
        "min_re_det_exact": report.min_re_det_exact,
        "min_re_det_transition_band": report.min_re_det_transition_band,
        "chi_zero_band_all_one": report.chi_zero_band_all_one,
        "bound_holds": report.bound_holds,
        "det_lower_bound": str(report.det_lower_bound),
        "invertible_on_chart": report.invertible_on_chart,
    }
    return result, "bounded" if report.bound_holds else "unbounded", 0 if report.bound_holds else 1


# ---------------------------------------------------------------------------
# Argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="similitude",
        description="Exact decision procedures for local holomorphic similarity of polynomial matrix families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("smith", help="local Smith factorization at a point")
    p.add_argument("--matrix", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(handler=cmd_smith)

    p = sub.add_parser("commutant", help="commutant basis of A(point)")
    p.add_argument("--matrix", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(handler=cmd_commutant)

    p = sub.add_parser("wasow", help="intertwiner-dimension constancy report")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(handler=cmd_wasow)

    p = sub.add_parser("local-similarity", help="holomorphic H with AH=HB, H(point)=Phi")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--phi", required=True)
    p.set_defaults(handler=cmd_local_similarity)

    p = sub.add_parser("pointwise", help="similarity of two constant matrices")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--witness", action="store_true")
    p.set_defaults(handler=cmd_pointwise)

    p = sub.add_parser("jordan", help="Jordan stability analyses")
    jsub = p.add_subparsers(dest="jordan_command", required=True)
    pc = jsub.add_parser("candidates", help="finite instability candidate locus")
    pc.add_argument("--matrix", required=True)
    pc.set_defaults(handler=cmd_jordan_candidates)
    pk = jsub.add_parser("check", help="stability verdict at a point")
    pk.add_argument("--matrix", required=True)
    pk.add_argument("--point", required=True)
    pk.set_defaults(handler=cmd_jordan_check)

    p = sub.add_parser("rigidity", help="jet rigidity of the counterexample family")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--relation", choices=list(rigidity_mod.RELATIONS), required=True)
    p.add_argument("--variety", required=True, help="full | cusp:P,Q | lines:t1,t2,...")
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(handler=cmd_rigidity)

    p = sub.add_parser("verify-paper", help="consolidated certificate of the explicit checks")
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(handler=cmd_verify_paper)

    p = sub.add_parser("winding", help="winding number of a sampled closed curve")
    p.add_argument("--curve", required=True)
    p.set_defaults(handler=cmd_winding)

    p = sub.add_parser("clutching", help="invertibility of the clutching matrix on a grid")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--grid", type=int, required=True)
    p.set_defaults(handler=cmd_clutching)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.perf_counter()
    arg_echo = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("handler",) and v is not None
    }
    try:
        result, verdict, code = args.handler(args)
    except SimilitudeError as exc:
        print(f"similitude: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = {
        "schema": SCHEMA_VERSION,
        "command": args.command if args.command != "jordan" else f"jordan {args.jordan_command}",
        "arguments": arg_echo,
        "result": result,
        "verdict": verdict,
        "timings": {"total_ms": round(elapsed_ms, 3)},
    }
    print(json.dumps(report, indent=2))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
