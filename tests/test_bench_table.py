"""tools/bench_table.py: median end-to-end metrics of the committed BENCH_<n>.json files."""

import importlib.util
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_table", ROOT / "tools" / "bench_table.py")
bench_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_table)


def test_prints_every_committed_file_with_its_medians(capsys):
    files = bench_table.bench_files()
    numbers = [int(p.stem.split("_")[1]) for p in files]
    assert numbers == sorted(numbers) and 19 in numbers
    assert bench_table.main([]) == 0
    out = capsys.readouterr().out
    for path in files:
        data = json.loads(path.read_text())
        assert f"{path.name} set {len(data['sets']) - 1}:" in out
        runs = data["sets"][0]["runs"]
        first = runs[0]
        same = [
            r["result"]["metrics"]["ops_per_s"]["value"]
            for r in runs
            if (r["workload"], r["side"]) == (first["workload"], first["side"])
        ]
        # the first row under the first set's header
        row = bench_table.table(path)[2].split()
        assert row[:3] == [first["workload"], first["side"], str(len(same))]
        assert float(row[3]) == float(f"{statistics.median(same):.4g}")


def test_known_medians_of_one_file():
    # the jordan-locus medians recorded in the change log for BENCH_19.json
    data = json.loads((ROOT / "BENCH_19.json").read_text())
    medians = bench_table.medians(data["sets"][0]["runs"])
    count, parent = medians[("jordan-locus", "parent")]
    assert count == 5
    assert round(parent["ops_per_s"], 1) == 130.6
    assert round(medians[("jordan-locus", "change")][1]["ops_per_s"], 1) == 129.9
