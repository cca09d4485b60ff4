"""Tests of the benchmark itself: inputs, oracle, spans, per-layer report.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from exact import ONE, format_poly, padd, parse_rf, pmul  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

cli, _ = run.import_package()


def _files(ops, directory: Path) -> dict:
    directory.mkdir()
    gen.write_inputs(ops, str(directory))
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_seed_regenerates_identical_inputs(workload, tmp_path):
    first, second = gen.generate(workload, 7), gen.generate(workload, 7)
    assert [op.argv for op in first] == [op.argv for op in second]
    assert _files(first, tmp_path / "a") == _files(second, tmp_path / "b")
    other = gen.generate(workload, 8)
    assert [op.argv for op in other] != [op.argv for op in first] or _files(
        other, tmp_path / "c") != _files(first, tmp_path / "d")


def _report(op, tmp_path):
    gen.write_inputs([op], str(tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(op.resolved_argv(str(tmp_path)))
    return code, json.loads(out.getvalue())


def _first(ops, kind):
    return next(op for op in ops if op.kind == kind)


def test_oracle_accepts_real_and_rejects_corrupted_reports(tmp_path):
    ops = gen.generate("smith-wasow", 3)
    wasow, local = _first(ops, "wasow"), _first(ops, "local-similarity")

    code, report = _report(wasow, tmp_path)
    assert oracle.check(wasow, code, report) is None
    flipped = copy.deepcopy(report)
    flipped["verdict"] = "jump" if report["verdict"] == "constant" else "constant"
    flipped["result"]["constant_near_point"] = not report["result"]["constant_near_point"]
    assert oracle.check(wasow, code, flipped) is not None

    code, report = _report(local, tmp_path)
    assert report["verdict"] == "constructed"
    assert oracle.check(local, code, report) is None
    # H + (z - xi) E_01 keeps H(xi) = Phi but breaks A H = H B
    num, den = parse_rf(report["result"]["H"][0][1])
    shifted = padd(num, pmul([-local.expect["point"], ONE], den))
    perturbed = copy.deepcopy(report)
    perturbed["result"]["H"][0][1] = f"({format_poly(shifted)})/({format_poly(den)})"
    assert oracle.check(local, code, perturbed) is not None
    # H + E_11 moves H(xi) off Phi
    num, den = parse_rf(report["result"]["H"][1][1])
    moved = copy.deepcopy(report)
    moved["result"]["H"][1][1] = f"({format_poly(padd(num, den))})/({format_poly(den)})"
    assert oracle.check(local, code, moved) is not None

    smith = _first(ops, "smith")
    code, report = _report(smith, tmp_path)
    assert oracle.check(smith, code, report) is None
    bumped = copy.deepcopy(report)
    bumped["result"]["exponents"][-1] += 1
    assert oracle.check(smith, code, bumped) is not None


def test_oracle_rejects_wrong_similarity_and_rigidity_answers(tmp_path):
    point = _first(gen.generate("jordan-locus", 3), "pointwise")
    code, report = _report(point, tmp_path)
    assert oracle.check(point, code, report) is None
    wrong = copy.deepcopy(report)
    wrong["result"]["similar"] = not report["result"]["similar"]
    assert oracle.check(point, code, wrong) is not None

    cusp = gen.Op(0, "rigidity", ["rigidity", "--ell", "0", "--relation", "AHeqHB",
                                  "--variety", "cusp:4,3", "--order", "21"],
                  expect=dict(gen.rigidity_expectation("AHeqHB", "cusp:4,3"), relation="AHeqHB"))
    code, report = _report(cusp, tmp_path)
    assert oracle.check(cusp, code, report) is None
    wrong = copy.deepcopy(report)
    wrong["result"]["contains_invertible"] = True
    assert oracle.check(cusp, code, wrong) is not None


def test_d5_family_is_a_known_defect_not_a_pass(tmp_path):
    fam, c = gen.d5_family()
    op = gen.Op(0, "jordan-check", ["jordan", "check", "--matrix", "@d5.json", "--point=0"],
                {"d5.json": gen.matrix_payload(fam)},
                {"family": fam, "jump": c, "point": c, "at_jump": True})
    code, report = _report(op, tmp_path)
    assert oracle.check(op, code, report) == oracle.KNOWN_DEFECT


def test_span_self_times_fit_in_op_wall_time(tmp_path):
    ops = gen.generate("jordan-locus", 5)
    gen.write_inputs(ops, str(tmp_path))
    tracer = spans.Tracer()
    tracer.install()
    try:
        records, _ = run.measure(cli, ops, tmp_path, 1.0, tracer)
    finally:
        tracer.uninstall()
    assert cli.run.__name__ == "run" and not hasattr(cli.run, "__wrapped__")
    self_by_op = [0.0] * len(records)
    for op_id, t in zip(tracer.op, tracer.self_times()):
        assert t >= -1e-9
        self_by_op[op_id] += t
    for rec, total in zip(records, self_by_op):
        assert 0 < total <= rec.seconds


def test_traced_run_emits_every_per_layer_metric():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "jordan-locus", "--seed", "1", "--seconds", "2", "--trace", "1"]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0
