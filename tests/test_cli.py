"""CLI surface: file formats, report schema, exit codes, determinism."""

import json

import pytest

from similitude.cli import run

EX45 = {"variables": ["z"], "matrix": [["z", "1"], ["0", "0"]]}
NILP = {"variables": [], "matrix": [["0", "1"], ["0", "0"]]}
ZERO = {"variables": [], "matrix": [["0", "0"], ["0", "0"]]}
EYE = {"variables": [], "matrix": [["1", "0"], ["0", "1"]]}
PAIR_A = {"variables": ["z"], "matrix": [["0", "1"], ["0", "0"]]}
PAIR_B = {"variables": ["z"], "matrix": [["0", "z"], ["0", "0"]]}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestReports:
    def test_schema_and_echo(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", EX45)
        code, report, _ = invoke(capsys, ["wasow", "--a", a, "--b", a, "--point", "0"])
        assert code == 0
        assert report["schema"] == 1
        assert report["command"] == "wasow"
        assert report["verdict"] == "constant"
        assert report["result"]["dim_at_point"] == 2
        assert "timings" in report

    def test_determinism_modulo_timings(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", EX45)
        outputs = []
        for _ in range(2):
            _, report, _ = invoke(capsys, ["wasow", "--a", a, "--b", a, "--point", "0"])
            report.pop("timings")
            outputs.append(json.dumps(report, sort_keys=True))
        assert outputs[0] == outputs[1]

    def test_matrix_round_trip(self, tmp_path, capsys):
        from similitude.algebra import PolyMatrix

        for fixture in (EX45, PAIR_A, PAIR_B):
            m = PolyMatrix.from_strings(fixture["matrix"], fixture["variables"])
            assert m.to_strings() == fixture["matrix"]


class TestExitCodes:
    def test_pointwise_not_similar_is_one(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", NILP)
        b = write(tmp_path, "b.json", ZERO)
        code, report, _ = invoke(capsys, ["pointwise", "--a", a, "--b", b])
        assert code == 1
        assert report["verdict"] == "not-similar"

    def test_pointwise_similar_with_witness(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", NILP)
        code, report, _ = invoke(capsys, ["pointwise", "--a", a, "--b", a, "--witness"])
        assert code == 0
        assert report["result"]["witness"] == [["1", "0"], ["0", "1"]]

    def test_malformed_file_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, report, err = invoke(capsys, ["pointwise", "--a", str(bad), "--b", str(bad)])
        assert code == 2
        assert report is None
        assert "similitude:" in err

    def test_bad_polynomial_is_two(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", {"variables": ["z"], "matrix": [["z+"]]})
        code, _, err = invoke(capsys, ["smith", "--matrix", bad, "--point", "0"])
        assert code == 2 and err

    def test_imaginary_unit_as_variable_is_two(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", {"variables": ["i"], "matrix": [["i"]]})
        code, report, err = invoke(capsys, ["smith", "--matrix", bad, "--point", "0"])
        assert (code, report) == (2, None)
        assert "'i'" in err

    def test_bad_variety_is_two(self, capsys):
        code, report, err = invoke(
            capsys, ["rigidity", "--ell", "0", "--relation", "AHeqHB", "--variety", "cusp:a,b"]
        )
        assert code == 2
        assert report is None
        assert "cusp" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["smith", "--matrix", "{a}", "--point", "1/0"],
            ["smith", "--matrix", "{a}", "--point=1/0+1i"],
            ["smith", "--matrix", "{bad}", "--point", "0"],
            ["rigidity", "--ell", "0", "--relation", "AHeqHB", "--variety", "lines:1/0"],
            ["clutching", "--epsilon", "1/0", "--grid", "4"],
        ],
    )
    def test_zero_denominator_is_two(self, tmp_path, capsys, argv):
        a = write(tmp_path, "a.json", EX45)
        bad = write(tmp_path, "bad.json", {"variables": ["z"], "matrix": [["z", "1/0"]]})
        code, report, err = invoke(capsys, [x.format(a=a, bad=bad) for x in argv])
        assert (code, report) == (2, None)
        assert err.startswith("similitude:")

    def test_non_string_matrix_entry_is_two(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", {"variables": ["z"], "matrix": [[1, "z"]]})
        code, report, err = invoke(capsys, ["smith", "--matrix", bad, "--point", "0"])
        assert (code, report) == (2, None)
        assert "string" in err

    @pytest.mark.parametrize(
        "payload",
        [
            {"samples": 5},
            {"samples": [["x", 0]]},
            {"samples": [[0, None]]},
            {"samples": [[float("nan"), 0]]},
            {"samples": [[10**400, 0]]},
        ],
    )
    def test_malformed_curve_is_two(self, tmp_path, capsys, payload):
        curve = write(tmp_path, "curve.json", payload)
        code, report, err = invoke(capsys, ["winding", "--curve", curve])
        assert (code, report) == (2, None)
        assert "sample" in err

    @pytest.mark.parametrize(
        "epsilon,message",
        [("1/0", "zero denominator"), ("0.125", "malformed"), ("1+1i", "real")],
    )
    def test_epsilon_outside_the_grammar_is_two(self, capsys, epsilon, message):
        code, report, err = invoke(capsys, ["clutching", "--epsilon", epsilon, "--grid", "4"])
        assert (code, report) == (2, None)
        assert err.startswith(f"similitude: bad epsilon {epsilon!r}") and message in err

    @pytest.mark.parametrize(
        "argv", [["jordan", "candidates"], ["jordan", "check", "--point", "0"]]
    )
    def test_non_square_jordan_family_is_two(self, tmp_path, capsys, argv):
        wide = write(tmp_path, "wide.json", {"variables": ["z"], "matrix": [["z", "1"]]})
        code, report, err = invoke(capsys, argv + ["--matrix", wide])
        assert (code, report) == (2, None)
        assert "square" in err and "1x2" in err

    @pytest.mark.parametrize(
        "grid,shape", [([["1"]], "1x1"), ([["1", "0", "0"], ["0", "1", "0"]], "2x3")]
    )
    def test_phi_of_the_wrong_shape_is_two(self, tmp_path, capsys, grid, shape):
        a = write(tmp_path, "a.json", PAIR_A)
        phi = write(tmp_path, "phi.json", {"variables": [], "matrix": grid})
        code, report, err = invoke(
            capsys, ["local-similarity", "--a", a, "--b", a, "--point", "0", "--phi", phi]
        )
        assert (code, report) == (2, None)
        assert err.startswith("similitude: Phi must be 2x2") and shape in err

    def test_non_integer_seed_is_two(self, tmp_path, capsys, monkeypatch):
        a = write(tmp_path, "a.json", NILP)
        monkeypatch.setenv("SIMILITUDE_SEED", "x")
        code, report, err = invoke(capsys, ["pointwise", "--a", a, "--b", a, "--witness"])
        assert (code, report) == (2, None)
        assert err.startswith("similitude: bad SIMILITUDE_SEED 'x'")

    def test_unknown_subcommand_is_two(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_jordan_check_unstable_is_one(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", EX45)
        code, report, _ = invoke(
            capsys, ["jordan", "check", "--matrix", a, "--point", "0"]
        )
        assert code == 1
        assert report["verdict"] == "unstable"

    @pytest.mark.parametrize(
        "option,value",
        [
            ("--tolerance", "nan"),
            ("--tolerance", "inf"),
            ("--tolerance", "0"),
            ("--tolerance", "-1"),
            ("--probes", "0"),
            ("--probes", "-3"),
        ],
    )
    def test_jordan_check_nonsense_settings_are_two(self, tmp_path, capsys, option, value):
        a = write(tmp_path, "a.json", {"variables": ["z"], "matrix": [["0", "1"], ["z", "0"]]})
        code, report, err = invoke(
            capsys, ["jordan", "check", "--matrix", a, "--point", "0", f"{option}={value}"]
        )
        assert (code, report) == (2, None)
        assert err.startswith("similitude: ") and option[2:] in err

    def test_jordan_check_stable_is_zero(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", EX45)
        code, report, _ = invoke(
            capsys, ["jordan", "check", "--matrix", a, "--point", "3"]
        )
        assert code == 0
        assert report["verdict"] == "stable"

    def test_witness_seed_env_override(self, tmp_path, capsys, monkeypatch):
        a = write(tmp_path, "a.json", {"variables": [], "matrix": [["2", "1"], ["0", "3"]]})
        b = write(
            tmp_path, "b.json", {"variables": [], "matrix": [["2", "0"], ["1", "3"]]}
        )
        monkeypatch.setenv("SIMILITUDE_SEED", "7")
        code, report, _ = invoke(capsys, ["pointwise", "--a", a, "--b", b, "--witness"])
        assert code == 0
        assert report["result"]["witness"] is not None


class TestSubcommands:
    def test_smith(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", EX45)
        code, report, _ = invoke(capsys, ["smith", "--matrix", a, "--point", "0"])
        assert code == 0
        assert report["result"]["exponents"] == [0]
        assert report["result"]["generic_rank"] == 1

    def test_commutant(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", EX45)
        code, report, _ = invoke(capsys, ["commutant", "--matrix", a, "--point", "0"])
        assert code == 0
        assert report["result"]["dimension"] == 2

    def test_local_similarity(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", PAIR_A)
        b = write(tmp_path, "b.json", PAIR_B)
        phi = write(tmp_path, "phi.json", EYE)
        code, report, _ = invoke(
            capsys,
            ["local-similarity", "--a", a, "--b", b, "--point", "1", "--phi", phi],
        )
        assert code == 0
        assert report["verdict"] == "constructed"

    def test_local_similarity_bad_seed_is_input_error(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", PAIR_A)
        b = write(tmp_path, "b.json", PAIR_B)
        phi = write(tmp_path, "phi.json", EYE)
        code, _, err = invoke(
            capsys,
            ["local-similarity", "--a", a, "--b", b, "--point", "0", "--phi", phi],
        )
        assert code == 2 and "intertwine" in err

    def test_jordan_candidates(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", EX45)
        code, report, _ = invoke(capsys, ["jordan", "candidates", "--matrix", a])
        assert code == 0
        assert report["result"]["candidates"] == [{"exact": "0"}]

    def test_rigidity_lines(self, capsys):
        code, report, _ = invoke(
            capsys,
            [
                "rigidity",
                "--ell",
                "0",
                "--relation",
                "AHeqHB",
                "--variety",
                "lines:1,2,3,4,5",
                "--order",
                "4",
            ],
        )
        assert code == 0
        assert report["verdict"] == "rigid"

    def test_rigidity_default_order(self, capsys):
        code, report, _ = invoke(
            capsys,
            ["rigidity", "--ell", "0", "--relation", "AHeqHA", "--variety", "full"],
        )
        assert code == 0
        assert report["result"]["order"] == 4
        assert report["verdict"] == "scalar-line"

    def test_winding(self, tmp_path, capsys):
        import cmath
        import math

        samples = [
            [math.cos(2 * math.pi * k / 64), math.sin(2 * math.pi * k / 64)]
            for k in range(64)
        ]
        curve = write(tmp_path, "curve.json", {"samples": samples})
        code, report, _ = invoke(capsys, ["winding", "--curve", curve])
        assert code == 0
        assert report["result"]["winding_number"] == 1
        del cmath

    def test_clutching(self, capsys):
        code, report, _ = invoke(capsys, ["clutching", "--epsilon", "1/8", "--grid", "32"])
        assert code == 0
        assert report["verdict"] == "bounded"
        assert report["result"]["epsilon"] == "1/8"
        assert report["result"]["min_re_det_exact"] == "550513183/1073741824"

    def test_verify_paper_enumerates_checks(self, capsys):
        code, report, _ = invoke(capsys, ["verify-paper", "--ell", "0"])
        names = [c["check"] for c in report["result"]["checks"]]
        assert names == [
            "1-division-identity",
            "2-smooth-similarity",
            "3-full-plane-rigidity",
            "4-variety-rigidity",
            "5-index-sets",
            "6-vandermonde",
        ]
        # checks 4 and 5 fail on the boundary instances (README: Boundary
        # cases); the certificate reports them honestly and the exit follows
        failing = {c["check"] for c in report["result"]["checks"] if not c["passed"]}
        assert failing == {"4-variety-rigidity", "5-index-sets"}
        assert code == 1
