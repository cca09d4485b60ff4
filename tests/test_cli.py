"""CLI surface: file formats, report schema, exit codes, determinism."""

import json
import re
import sys

import pytest

import similitude.algebra as algebra
import similitude.rigidity as rigidity_mod
from similitude.cli import build_parser, run

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

    def test_result_integer_too_long_to_print_is_two(self, tmp_path, capsys):
        # every input integer is under MAX_DIGITS, but the invariant factor
        # (x - N)^2 holds N^2, past Python's limit for printing an int
        n = "7" * 3000
        assert algebra.MAX_DIGITS >= len(n)
        big = write(tmp_path, "big.json", {"variables": [], "matrix": [[n, "1"], ["0", n]]})
        code, report, err = invoke(capsys, ["pointwise", "--a", big, "--b", big])
        assert (code, report) == (2, None)
        assert err.count("similitude: ") == 1 and err.endswith("\n") and err.count("\n") == 1
        assert str(sys.get_int_max_str_digits()) in err

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

    @pytest.mark.parametrize("variety", ["lines:1,,2", "lines:1,2,"])
    def test_empty_line_slope_is_two(self, capsys, variety):
        code, report, err = invoke(
            capsys, ["rigidity", "--ell", "0", "--relation", "AHeqHB", "--variety", variety]
        )
        assert (code, report) == (2, None)
        assert "empty line slope" in err and variety in err

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
            {"samples": [[True, 0]]},
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

    def test_non_square_commutant_is_two(self, tmp_path, capsys):
        # M(point) is built from A(point), so the shape check runs before any evaluation
        wide = write(tmp_path, "wide.json", {"variables": ["z"], "matrix": [["z", "1"]]})
        code, report, err = invoke(capsys, ["commutant", "--matrix", wide, "--point", "0"])
        assert (code, report) == (2, None)
        assert "square" in err

    def test_parser_is_built_once(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        # a parse failure leaves the shared parser fit for the next run
        code, report, _ = invoke(capsys, ["wasow", "--point", "0"])
        assert (code, report) == (2, None)
        a = write(tmp_path, "a.json", EX45)
        code, report, _ = invoke(capsys, ["wasow", "--a", a, "--b", a, "--point", "0"])
        assert code == 0 and report["result"]["dim_at_point"] == 2

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

    @pytest.mark.parametrize(
        "b_grid,message",
        [
            ([["0", "0", "0"]] * 3, "A and B must have the same size"),
            ([["0", "0"]] * 3, "A and B must be square"),
        ],
        ids=["3x3", "3x2"],
    )
    def test_b_of_another_shape_is_two(self, tmp_path, capsys, b_grid, message):
        # B's shape is checked before A(point) Phi = Phi B(point) multiplies them
        a = write(tmp_path, "a.json", PAIR_A)
        b = write(tmp_path, "b.json", {"variables": ["z"], "matrix": b_grid})
        phi = write(tmp_path, "phi.json", EYE)
        code, report, err = invoke(
            capsys, ["local-similarity", "--a", a, "--b", b, "--point", "0", "--phi", phi]
        )
        assert (code, report) == (2, None)
        assert err == f"similitude: {message}\n"

    @pytest.mark.parametrize("value", ["x", "7"])
    def test_seed_variable_leaves_the_witness_alone(self, tmp_path, capsys, monkeypatch, value):
        # the witness search has no seed to set: SIMILITUDE_SEED is not read
        a = write(tmp_path, "a.json", {"variables": [], "matrix": [["2", "1"], ["0", "3"]]})
        b = write(tmp_path, "b.json", {"variables": [], "matrix": [["2", "0"], ["1", "3"]]})

        def report():
            code, out, _ = invoke(capsys, ["pointwise", "--a", a, "--b", b, "--witness"])
            del out["timings"]
            return code, out

        monkeypatch.delenv("SIMILITUDE_SEED", raising=False)
        code, unset = report()
        monkeypatch.setenv("SIMILITUDE_SEED", value)
        assert report() == (code, unset) and code == 0
        assert unset["result"]["witness"] is not None

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
        # the probe offsets and the numeric tolerance are constants of the jordan
        # module, so the parser refuses either option whatever its value
        a = write(tmp_path, "a.json", {"variables": ["z"], "matrix": [["0", "1"], ["z", "0"]]})
        code, report, err = invoke(
            capsys, ["jordan", "check", "--matrix", a, "--point", "0", f"{option}={value}"]
        )
        assert (code, report) == (2, None)
        assert "unrecognized arguments" in err and option[2:] in err

    def test_jordan_check_takes_no_probe_settings(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", EX45)
        _, report, _ = invoke(capsys, ["jordan", "check", "--matrix", a, "--point", "0"])
        assert sorted(report["arguments"]) == ["command", "jordan_command", "matrix", "point"]

    def test_jordan_check_profile_is_exact_for_eigenvalues_half_apart(self, tmp_path, capsys):
        # at 0 the eigenvalues are 0 and 1/2, and the coarsest snap of 1/2 is 0
        a = write(tmp_path, "a.json", {"variables": ["z"],
                                       "matrix": [["0", "z", "0"], ["0", "0", "0"], ["0", "0", "1/2"]]})
        code, report, _ = invoke(capsys, ["jordan", "check", "--matrix", a, "--point", "0"])
        assert (code, report["verdict"]) == (1, "unstable")
        profile = report["result"]["profile_at_point"]
        assert profile["mode"] == "exact"
        assert [(e["value"], e["blocks"]) for e in profile["eigenvalues"]] == [
            ("0", [[1, 2]]),
            ("1/2", [[1, 1]]),
        ]

    def test_jordan_check_stable_is_zero(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", EX45)
        code, report, _ = invoke(
            capsys, ["jordan", "check", "--matrix", a, "--point", "3"]
        )
        assert code == 0
        assert report["verdict"] == "stable"

    BIG = "1" + "0" * 400

    @pytest.mark.parametrize(
        "matrix, argv, digits",
        [
            # the float screen for the roots of the discriminant 4(10^400 + z^2)
            ([["0", "1"], [BIG + "+z^2", "0"]], ["candidates"], "401"),
            ([["0", "1"], [BIG + "+z^2", "0"]], ["check", "--point", "1"], "401"),
            # the numeric profiles at the probes near 0
            ([[BIG + "*z", "1"], ["z", "0"]], ["check", "--point", "0"], r"\d+"),
        ],
        ids=["candidates", "check-roots", "check-probes"],
    )
    def test_jordan_past_float_range_is_two(self, tmp_path, capsys, matrix, argv, digits):
        a = write(tmp_path, "a.json", {"variables": ["z"], "matrix": matrix})
        code, report, err = invoke(capsys, ["jordan", argv[0], "--matrix", a] + argv[1:])
        assert (code, report) == (2, None)
        assert err.startswith("similitude: ") and err.count("\n") == 1
        assert re.search(f"a {digits}-digit part is beyond float range", err) and self.BIG not in err

    def test_jordan_linear_discriminant_past_float_range(self, tmp_path, capsys):
        # the root of the linear discriminant 4(10^400 + z) is read exactly
        a = write(tmp_path, "a.json", {"variables": ["z"], "matrix": [["0", "1"], [self.BIG + "+z", "0"]]})
        code, report, _ = invoke(capsys, ["jordan", "candidates", "--matrix", a])
        assert code == 0
        assert report["result"]["candidates"] == [{"exact": "-" + self.BIG}]


class TestInputCaps:
    """Each cap admits its own value and turns the next one into exit 2.

    The caps are shrunk for the test, so no large input is ever run.
    """

    RIGID = ["rigidity", "--relation", "AHeqHB", "--variety", "full"]

    def check(self, capsys, argv, word):
        code, report, err = invoke(capsys, argv)
        assert (code, report) == (2, None)
        assert err.startswith("similitude: ") and word in err

    def test_order(self, capsys, monkeypatch):
        monkeypatch.setattr(rigidity_mod, "MAX_ORDER", 4)
        assert run(self.RIGID + ["--ell", "0", "--order", "4"]) != 2
        capsys.readouterr()
        self.check(capsys, self.RIGID + ["--ell", "0", "--order", "5"], "order")
        # a default order over the cap is refused the same way: (0+3)(5+4) = 27
        self.check(capsys, ["rigidity", "--ell", "0", "--relation", "AHeqHB",
                            "--variety", "cusp:5,4"], "order")

    def test_ell(self, capsys, monkeypatch):
        monkeypatch.setattr(rigidity_mod, "MAX_ELL", 1)
        assert run(self.RIGID + ["--ell", "1", "--order", "2"]) != 2
        capsys.readouterr()
        self.check(capsys, self.RIGID + ["--ell", "2", "--order", "2"], "ell")
        self.check(capsys, ["verify-paper", "--ell", "2"], "ell")

    def test_grid(self, capsys, monkeypatch):
        monkeypatch.setattr(rigidity_mod, "MAX_GRID", 4)
        assert run(["clutching", "--epsilon", "1/8", "--grid", "4"]) != 2
        capsys.readouterr()
        self.check(capsys, ["clutching", "--epsilon", "1/8", "--grid", "5"], "grid")

    def test_probes(self, tmp_path, capsys):
        # the probe count is fixed at four, so no --probes value is admitted
        a = write(tmp_path, "a.json", EX45)
        argv = ["jordan", "check", "--matrix", a, "--point", "3"]
        assert run(argv) != 2
        capsys.readouterr()
        for count in ("1", "4", "5"):
            code, report, err = invoke(capsys, argv + ["--probes", count])
            assert (code, report) == (2, None)
            assert "unrecognized arguments" in err and "probes" in err

    @pytest.mark.parametrize(
        "entry",
        ["z^4", "z^2*z^2", "z^0004", "z^1" + "0" * 5000],
        ids=["over", "summed", "leading-zeros", "5001-digits"],
    )
    def test_exponent(self, tmp_path, capsys, monkeypatch, entry):
        monkeypatch.setattr(algebra, "MAX_EXPONENT", 3)
        ok = write(tmp_path, "ok.json", {"variables": ["z"], "matrix": [["z^3", "z*z^0002"]]})
        assert run(["smith", "--matrix", ok, "--point", "0"]) != 2
        capsys.readouterr()
        big = write(tmp_path, "big.json", {"variables": ["z"], "matrix": [[entry, "1"]]})
        self.check(capsys, ["smith", "--matrix", big, "--point", "0"], "exponent")


    @pytest.mark.parametrize("where", ["entry", "point"])
    def test_digits(self, tmp_path, capsys, monkeypatch, where):
        assert algebra.MAX_DIGITS < sys.int_info.default_max_str_digits
        monkeypatch.setattr(algebra, "MAX_DIGITS", 3)
        ok = write(tmp_path, "ok.json", {"variables": ["z"], "matrix": [["999/100*z", "1"]]})
        assert run(["smith", "--matrix", ok, "--point", "100"]) != 2
        capsys.readouterr()
        big = write(tmp_path, "big.json", {"variables": ["z"], "matrix": [["z", "1000"]]})
        argv = {
            "entry": ["smith", "--matrix", big, "--point", "0"],
            "point": ["smith", "--matrix", ok, "--point", "1/1000"],
        }[where]
        self.check(capsys, argv, "digits")

    HUGE = "1" + "0" * sys.int_info.default_max_str_digits

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("smith", ('{"variables": ["z"], "matrix": [["z"]], "note": ' + HUGE + "}").encode()),
            ("winding", ('{"samples": [[' + HUGE + ", 0]]}").encode()),
            ("smith", b'\xff{"variables": ["z"], "matrix": [["z"]]}'),
        ],
        ids=["matrix-integer-past-the-limit", "curve-integer-past-the-limit", "not-utf-8"],
    )
    def test_json_the_decoder_refuses(self, tmp_path, capsys, command, payload):
        path = tmp_path / "in.json"
        path.write_bytes(payload)
        flag = "--matrix" if command == "smith" else "--curve"
        argv = [command, flag, str(path)] + (["--point", "0"] if command == "smith" else [])
        self.check(capsys, argv, "not valid JSON")

    @pytest.mark.parametrize("entry", ["z^\u00b2", "\u00b2*z"], ids=["exponent", "coefficient"])
    def test_superscript_digit_is_a_grammar_error(self, tmp_path, capsys, entry):
        # str.isdigit accepts a superscript 2, which int() refuses
        bad = write(tmp_path, "bad.json", {"variables": ["z"], "matrix": [[entry]]})
        code, report, err = invoke(capsys, ["smith", "--matrix", bad, "--point", "0"])
        assert (code, report) == (2, None) and err.startswith("similitude: ")


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
        assert report["result"]["det_lower_bound"] == "15/31"
        assert report["result"]["invertible_on_chart"] is True
        # at grid 9 the grid misses the bound 1/2; the chart-wide verdict stands
        code, report, _ = invoke(capsys, ["clutching", "--epsilon", "1/8", "--grid", "9"])
        assert (code, report["verdict"]) == (1, "unbounded")
        assert report["result"]["det_lower_bound"] == "15/31"
        assert report["result"]["invertible_on_chart"] is True

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


BIVARIATE = {"variables": ["z", "w"], "matrix": [["z", "w"], ["0", "0"]]}


class TestInputChecks:
    """Input checks that the other tests do not reach: exit 2 and the message on stderr."""

    def test_library_errors_share_the_class_that_maps_to_exit_two(self):
        import similitude

        for cls in (
            similitude.AlgebraError,
            similitude.SmithError,
            similitude.SylvesterError,
            similitude.SimilarityError,
            similitude.JordanError,
            similitude.RigidityError,
        ):
            assert issubclass(cls, similitude.SimilitudeError)

    @pytest.mark.parametrize(
        "payload,message",
        [
            ([["1"]], "expected an object with 'variables' and 'matrix'"),
            ({"matrix": [["1"]]}, "expected an object with 'variables' and 'matrix'"),
            ({"variables": "z", "matrix": [["z"]]}, "'variables' must be a list of names"),
            ({"variables": [1], "matrix": [["1"]]}, "'variables' must be a list of names"),
            ({"variables": [], "matrix": []}, "'matrix' must be a nonempty list of rows"),
            ({"variables": [], "matrix": ["1"]}, "'matrix' must be a nonempty list of rows"),
        ],
    )
    def test_malformed_matrix_file(self, tmp_path, capsys, payload, message):
        bad = write(tmp_path, "bad.json", payload)
        code, report, err = invoke(capsys, ["commutant", "--matrix", bad, "--point", "0"])
        assert (code, report) == (2, None)
        assert message in err

    def test_unreadable_path(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        code, report, err = invoke(capsys, ["commutant", "--matrix", missing, "--point", "0"])
        assert (code, report) == (2, None)
        assert f"cannot read {missing}" in err

    def test_non_constant_entries(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", EX45)
        code, report, err = invoke(capsys, ["pointwise", "--a", a, "--b", a])
        assert (code, report) == (2, None)
        assert "expected constant entries: polynomial is not constant" in err

    @pytest.mark.parametrize("payload", [{"points": [[1, 0]]}, [[1, 0]]])
    def test_curve_without_samples(self, tmp_path, capsys, payload):
        curve = write(tmp_path, "curve.json", payload)
        code, report, err = invoke(capsys, ["winding", "--curve", curve])
        assert (code, report) == (2, None)
        assert "expected an object with 'samples'" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["smith", "--matrix", "{m}", "--point", "0"], "local_smith requires a univariate matrix"),
            (["wasow", "--a", "{m}", "--b", "{m}", "--point", "0"], "wasow_check requires univariate families"),
            (
                ["local-similarity", "--a", "{m}", "--b", "{m}", "--point", "0", "--phi", "{phi}"],
                "local_similarity requires univariate families",
            ),
            (["jordan", "candidates", "--matrix", "{m}"], "candidates require a univariate family"),
        ],
    )
    def test_univariate_preconditions(self, tmp_path, capsys, argv, message):
        m = write(tmp_path, "m.json", BIVARIATE)
        phi = write(tmp_path, "phi.json", EYE)
        code, report, err = invoke(capsys, [x.format(m=m, phi=phi) for x in argv])
        assert (code, report) == (2, None)
        assert message in err
