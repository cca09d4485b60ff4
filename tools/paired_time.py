"""Paired timing: every benchmark operation through two `src/` trees in one process.

    python3 tools/paired_time.py OLD/src NEW/src --workload smith-wasow --seed 501 --rounds 3

Both trees are imported side by side under distinct package names, which
works because the package uses only relative imports.  The inputs of the
workload's operations (from `perfbench/gen.py`, imported, never modified)
are written once.  Before the first round both trees run the workload's
warm-up calls (`gen.warmup`), untimed, as `perfbench/run.py` does at set-up:
the trees share `sys.modules`, so a one-time cost such as a lazy import of
numpy would otherwise fall on whichever side runs the first operation that
needs it.  Each round runs every operation on both sides; the side that goes
first alternates from one operation to the next and from one round to the
next, so a drift in the host's speed falls on both sides alike.  Each call is
timed by the process's CPU time, after an untimed `gc.collect()`: without
it, the garbage one call leaves is collected inside whichever call comes
next, and because the sides alternate in a fixed pattern, that cost lands
on one side: two copies of one tree read 0.87 and 0.90 old/new on the
light `commutant` ops of `jordan-locus` seed 301 (2 and 3 rounds), and
0.99-1.01 on every kind with the collection.

Output: one line per operation kind with its count, each side's total CPU
seconds over all rounds and their ratio old/new (above 1: the new tree is
faster), a total line, and whether the two trees wrote identical reports, as
`tools/report_parity.py` writes them, for every operation.  Exits 1 when
some report differs, after printing the ids of those operations.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import report_parity  # noqa: E402  (the parity tool's runner and report lines)

gen = report_parity.gen


def import_tree(src_dir: str, name: str):
    """The `cli` module of the similitude package in src_dir, imported as package `name`."""
    package = Path(src_dir).resolve() / "similitude"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def warm_up(clis, workload: str) -> None:
    """Run the workload's warm-up operations on every tree in clis, untimed."""
    warm = gen.warmup(workload)
    with tempfile.TemporaryDirectory() as workdir:
        gen.write_inputs(warm, workdir)
        for op in warm:
            for cli in clis:
                report_parity.run_op(cli, op, workdir)


def paired_times(old_cli, new_cli, ops, rounds: int) -> tuple[dict, list[int]]:
    """({kind: [ops, old seconds, new seconds]}, ids of the ops whose reports differ)."""
    totals: dict[str, list] = {}
    differing = []
    with tempfile.TemporaryDirectory() as workdir:
        gen.write_inputs(ops, workdir)
        for r in range(rounds):
            for k, op in enumerate(ops):
                seconds, lines = [0.0, 0.0], [None, None]
                first = (k + r) % 2
                for side in (first, 1 - first):
                    cli = (old_cli, new_cli)[side]
                    gc.collect()
                    start = time.process_time()
                    code, stdout = report_parity.run_op(cli, op, workdir)
                    seconds[side] = time.process_time() - start
                    lines[side] = report_parity.report_line(op, code, stdout, workdir)
                entry = totals.setdefault(op.kind, [0, 0.0, 0.0])
                entry[1] += seconds[0]
                entry[2] += seconds[1]
                if r == 0:
                    entry[0] += 1
                    if lines[0] != lines[1]:
                        differing.append(op.op_id)
    return totals, differing


def format_table(totals: dict) -> list[str]:
    """One line per kind, then the total: kind, ops, old s, new s, old/new."""
    rows = sorted(totals.items())
    rows.append(("total", [sum(v[i] for _, v in rows) for i in range(3)]))
    out = [f"{'kind':<22} {'ops':>5} {'old_s':>9} {'new_s':>9} {'old/new':>8}"]
    for kind, (count, old, new) in rows:
        ratio = f"{old / new:8.3f}" if new else f"{'-':>8}"
        out.append(f"{kind:<22} {count:>5} {old:9.4f} {new:9.4f} {ratio}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the src/ directory of the old tree")
    parser.add_argument("new", help="the src/ directory of the new tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    old_cli = import_tree(args.old, "similitude_old")
    new_cli = import_tree(args.new, "similitude_new")
    warm_up((old_cli, new_cli), args.workload)
    ops = gen.generate(args.workload, args.seed)
    totals, differing = paired_times(old_cli, new_cli, ops, args.rounds)
    for line in format_table(totals):
        print(line)
    print(f"reports identical: {'yes' if not differing else 'no'} ({len(ops) - len(differing)} of {len(ops)} ops)")
    for op_id in differing:
        print(op_id)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
