"""Golden CLI reports: `result`, `verdict` and exit code on a fixed corpus.

Each case runs `cli.run` on inline input files and compares with the stored
`tests/golden/<name>.json`.  Floats (numeric eigenvalues, radii) are compared
rounded to 9 decimal places; everything else must match exactly.

The corpus leaves out the two known defects, `verify-paper --ell 0` (ROADMAP
D6) and numeric `segre_at` on the D5 family: a golden file must not pin a
value already shown to be wrong.

To record a new case, add it to CASES and run
`PYTHONPATH=src python tests/test_golden_reports.py NAME`; never re-record an
existing case to make the test pass.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from similitude.cli import run

GOLDEN = Path(__file__).parent / "golden"

SMITH_4X4 = [
    ["z", "1", "0", "z^2"],
    ["z^2", "z", "z", "z^3+z"],
    ["1", "0", "z^2-z", "1i"],
    ["0", "z", "z^3", "z^2"],
]
# A = [[z, 1], [0, 0]] and B = P A P^-1 with P = [[1, z], [0, 1]]
PAIR_A = [["z", "1"], ["0", "0"]]
PAIR_B = [["z", "1-z^2"], ["0", "0"]]
PAIR_PHI = [["1", "-1"], ["0", "1"]]
# the kernel dimension jumps at 0 (nonzero Smith exponents), yet
# H = [[1, 0], [0, z]] extends PHI
JUMP_A = [["0", "z"], ["0", "0"]]
JUMP_B = [["0", "z^2"], ["0", "0"]]
JUMP_PHI = [["1", "0"], ["0", "0"]]
# Phi intertwines A(0) = B(0) = 0, but every holomorphic H with A H = H B has
# H(0) upper triangular, so the kernel projection cannot fix Phi at 0
UNCERTIFIED_PHI = [["0", "0"], ["1", "0"]]
# B = U^-1 A U with U = [[1, z, 0], [0, 1, 0], [0, 0, 1]] and PHI_3X3 = U(2):
# M is 9 x 9 of generic rank 6, so the kernel section is read from F with
# six rows above the unit rows
CONJUGATE_A = [["z", "1", "0"], ["0", "2*z", "z"], ["1", "0", "-z"]]
CONJUGATE_B = [["z", "1-z^2", "-z^2"], ["0", "2*z", "z"], ["1", "z", "-z"]]
PHI_3X3 = [["1", "2", "0"], ["0", "1", "0"], ["0", "0", "1"]]
# the middle row is z times the first: rank 2, so F has two unit rows below r
RANK_2_3X4 = [["z", "z^2", "1", "z"], ["z^2", "z^3", "z", "z^2"], ["1", "z", "0", "1+z"]]
# local Smith exponents of mixed sizes at 0: six nonzero invariant factors,
# four of them units there and two vanishing to order 3
MIXED = [["z", "1", "0"], ["0", "z^2", "0"], ["0", "0", "0"]]
FAMILY_3X3 = [["z", "1", "0"], ["0", "z^2", "1"], ["1", "0", "0"]]
POINTWISE_A = [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "2i"]]
POINTWISE_B = [["2i", "0", "0"], ["1", "1", "1"], ["0", "0", "1"]]
BRANCH = [["0", "1"], ["z", "0"]]
# squarefree characteristic polynomial, but A(0) = 0 is derogatory: the
# commutant jumps at 0, so the self-intertwiner Smith form must run
DEROGATORY_ROOT = [["z", "-2*z"], ["0", "-z"]]
# a repeated eigenvalue for every z: char is not squarefree
REPEATED_EIGENVALUE = [["1", "z"], ["0", "1"]]
# distinct eigenvalues off 0 and a cyclic vector at 0: non-derogatory everywhere
NONDEROGATORY = [["z", "1"], ["0", "-z"]]


def _matrix(grid, variables=("z",)):
    return {"variables": list(variables), "matrix": grid}


# name -> (argv with @file placeholders, {file name: payload})
CASES = {
    "smith-4x4": (
        ["smith", "--matrix", "@m.json", "--point", "0"],
        {"m.json": _matrix(SMITH_4X4)},
    ),
    # E and F carry rational-function entries here
    "smith-4x4-at-1": (
        ["smith", "--matrix", "@m.json", "--point", "1"],
        {"m.json": _matrix(SMITH_4X4)},
    ),
    "smith-3x4-rank-2": (
        ["smith", "--matrix", "@m.json", "--point", "0"],
        {"m.json": _matrix(RANK_2_3X4)},
    ),
    "wasow-conjugate": (
        ["wasow", "--a", "@a.json", "--b", "@b.json", "--point", "1"],
        {"a.json": _matrix(PAIR_A), "b.json": _matrix(PAIR_B)},
    ),
    "local-similarity-conjugate": (
        ["local-similarity", "--a", "@a.json", "--b", "@b.json", "--point", "1", "--phi", "@phi.json"],
        {"a.json": _matrix(PAIR_A), "b.json": _matrix(PAIR_B), "phi.json": _matrix(PAIR_PHI, ())},
    ),
    "local-similarity-3x3-polynomial-conjugator": (
        ["local-similarity", "--a", "@a.json", "--b", "@b.json", "--point", "2", "--phi", "@phi.json"],
        {"a.json": _matrix(CONJUGATE_A), "b.json": _matrix(CONJUGATE_B), "phi.json": _matrix(PHI_3X3, ())},
    ),
    "wasow-jump": (
        ["wasow", "--a", "@a.json", "--b", "@b.json", "--point", "0"],
        {"a.json": _matrix(JUMP_A), "b.json": _matrix(JUMP_B)},
    ),
    "wasow-mixed-exponents": (
        ["wasow", "--a", "@a.json", "--b", "@a.json", "--point", "0"],
        {"a.json": _matrix(MIXED)},
    ),
    "local-similarity-jump": (
        ["local-similarity", "--a", "@a.json", "--b", "@b.json", "--point", "0", "--phi", "@phi.json"],
        {"a.json": _matrix(JUMP_A), "b.json": _matrix(JUMP_B), "phi.json": _matrix(JUMP_PHI, ())},
    ),
    "local-similarity-not-certified": (
        ["local-similarity", "--a", "@a.json", "--b", "@a.json", "--point", "0", "--phi", "@phi.json"],
        {"a.json": _matrix(JUMP_A), "phi.json": _matrix(UNCERTIFIED_PHI, ())},
    ),
    "commutant": (
        ["commutant", "--matrix", "@m.json", "--point", "0"],
        {"m.json": _matrix(FAMILY_3X3)},
    ),
    "pointwise": (
        ["pointwise", "--a", "@a.json", "--b", "@b.json", "--witness"],
        {"a.json": _matrix(POINTWISE_A, ()), "b.json": _matrix(POINTWISE_B, ())},
    ),
    "jordan-candidates": (
        ["jordan", "candidates", "--matrix", "@m.json"],
        {"m.json": _matrix(FAMILY_3X3)},
    ),
    "jordan-candidates-derogatory-root": (
        ["jordan", "candidates", "--matrix", "@m.json"],
        {"m.json": _matrix(DEROGATORY_ROOT)},
    ),
    "jordan-candidates-repeated-eigenvalue": (
        ["jordan", "candidates", "--matrix", "@m.json"],
        {"m.json": _matrix(REPEATED_EIGENVALUE)},
    ),
    "jordan-candidates-nonderogatory": (
        ["jordan", "candidates", "--matrix", "@m.json"],
        {"m.json": _matrix(NONDEROGATORY)},
    ),
    "jordan-check-exact": (
        ["jordan", "check", "--matrix", "@m.json", "--point", "0"],
        {"m.json": _matrix(BRANCH)},
    ),
    "rigidity-cusp-5-4": (
        ["rigidity", "--ell", "0", "--relation", "AHeqHB", "--variety", "cusp:5,4", "--order", "20"],
        {},
    ),
    "verify-paper-ell-1": (["verify-paper", "--ell", "1"], {}),
    # jet nullity 362: the largest jet system in the corpus
    "rigidity-full-16": (
        ["rigidity", "--ell", "0", "--relation", "AHeqHB", "--variety", "full", "--order", "16"],
        {},
    ),
    "rigidity-lines-7": (
        ["rigidity", "--ell", "0", "--relation", "AHeqHB", "--variety", "lines:1,2,3,4,5", "--order", "7"],
        {},
    ),
    "rigidity-scalar-line": (
        ["rigidity", "--ell", "1", "--relation", "AHeqHA", "--variety", "full", "--order", "10"],
        {},
    ),
    # a zero slope, a complex slope and a relation other than AHeqHB on lines
    "rigidity-lines-mixed-slopes": (
        ["rigidity", "--ell", "1", "--relation", "HAeqBH", "--variety", "lines:0,1i,-1/2", "--order", "6"],
        {},
    ),
    # a cusp whose admissible H(0) are exactly the multiples of I
    "rigidity-cusp-7-5-scalar-line": (
        ["rigidity", "--ell", "1", "--relation", "AHeqHA", "--variety", "cusp:7,5", "--order", "30"],
        {},
    ),
    # the line w = z written as a cusp and as a line: each keeps its own name
    # and default order
    "rigidity-cusp-1-1": (
        ["rigidity", "--ell", "0", "--relation", "AHeqHB", "--variety", "cusp:1,1"],
        {},
    ),
    "rigidity-lines-1": (
        ["rigidity", "--ell", "0", "--relation", "AHeqHB", "--variety", "lines:1"],
        {},
    ),
}


def _rounded(value):
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def _report(name, workdir):
    argv, files = CASES[name]
    for file_name, payload in files.items():
        (workdir / file_name).write_text(json.dumps(payload))
    argv = [str(workdir / a[1:]) if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    report = json.loads(out.getvalue())
    return {"exit_code": code, "verdict": report["verdict"], "result": _rounded(report["result"])}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _report(name, tmp_path) == expected


if __name__ == "__main__":
    for case in sys.argv[1:]:
        with tempfile.TemporaryDirectory() as tmp:
            got = _report(case, Path(tmp))
        (GOLDEN / f"{case}.json").write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"recorded {case}: {got['verdict']} (exit {got['exit_code']})")
