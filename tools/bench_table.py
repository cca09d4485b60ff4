"""Performance trajectory: median end-to-end metrics from the BENCH_<n>.json files.

    python3 tools/bench_table.py [FILE ...]

With no arguments it reads every BENCH_<n>.json at the repository root, in
the order of n.  For each file, each set of runs in it and each workload and
side (parent or change) it prints the number of runs and the median of every
end-to-end metric of `perfbench/run.py`'s result line.  It only reads files.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ["ops_per_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb"]


def bench_files() -> list[Path]:
    """BENCH_<n>.json at the repository root, by n."""
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if m:
            found.append((int(m.group(1)), path))
    return [path for _, path in sorted(found)]


def medians(runs: list[dict]) -> dict[tuple[str, str], tuple[int, dict[str, float]]]:
    """(workload, side) -> (run count, {metric: median}), in first-seen order."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for run in runs:
        groups.setdefault((run["workload"], run["side"]), []).append(run["result"]["metrics"])
    return {
        key: (len(group), {m: statistics.median(g[m]["value"] for g in group) for m in METRICS})
        for key, group in groups.items()
    }


def table(path: Path) -> list[str]:
    data = json.loads(path.read_text())
    lines = []
    for index, bench_set in enumerate(data["sets"]):
        lines.append(f"{path.name} set {index}: {bench_set.get('tree', '')}")
        lines.append(f"  {'workload':<14}{'side':<8}{'runs':>5}" + "".join(f"{m:>13}" for m in METRICS))
        for (workload, side), (count, values) in medians(bench_set["runs"]).items():
            cells = "".join(f"{values[m]:>13.4g}" for m in METRICS)
            lines.append(f"  {workload:<14}{side:<8}{count:>5}{cells}")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    paths = [Path(a) for a in args] or bench_files()
    for path in paths:
        print("\n".join(table(path)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
