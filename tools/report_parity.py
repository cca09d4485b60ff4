"""Report parity: run a benchmark workload's operations through one `src/` tree.

    python3 tools/report_parity.py SRC_DIR --workload jordan-locus --seed 301 > new.txt
    python3 tools/report_parity.py --diff old.txt new.txt

The first form generates the operations of a workload from `perfbench/gen.py`
(imported, never modified), runs each one in-process through
`similitude.cli.run` imported from SRC_DIR, and writes one JSON line per
operation: its id, its exit code and its report.  The report drops the
wall-clock `timings` and every argument that names an input file, so two
source trees that give the same answers write the same lines.

The second form prints the ids of the operations whose lines differ between
two such files, and exits 1 when there is any.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (the benchmark's generator, from perfbench/)


def import_cli(src_dir: str):
    """`similitude.cli` from src_dir, or ImportError if another copy is loaded."""
    src = Path(src_dir).resolve()
    sys.path.insert(0, str(src))
    import similitude
    from similitude import cli

    if not Path(similitude.__file__).resolve().is_relative_to(src):
        raise ImportError(f"similitude imported from {similitude.__file__}, not {src}")
    return cli


def run_op(cli, op, workdir: str) -> tuple[int, str]:
    """(exit code, standard output) of one operation whose inputs are in workdir."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(op.resolved_argv(workdir))
    return code, out.getvalue()


def report_line(op, code: int, stdout: str, workdir: str) -> str:
    """The sorted-key JSON line {"op", "code", "report"} of one operation's output."""
    report = json.loads(stdout) if stdout else None
    if report is not None:
        report.pop("timings", None)
        report["arguments"] = {
            k: v for k, v in report["arguments"].items()
            if not (isinstance(v, str) and v.startswith(workdir))
        }
    return json.dumps({"op": op.op_id, "code": code, "report": report}, sort_keys=True)


def report_lines(cli, ops) -> list[str]:
    """One line per operation, by `report_line`."""
    with tempfile.TemporaryDirectory() as workdir:
        gen.write_inputs(ops, workdir)
        return [report_line(op, *run_op(cli, op, workdir), workdir) for op in ops]


def differing_ops(old: list[str], new: list[str]) -> list[int]:
    """Ids of the operations whose lines differ, or that only one side has."""
    def by_op(lines):
        return {json.loads(line)["op"]: line for line in lines}

    a, b = by_op(old), by_op(new)
    return sorted(op for op in a.keys() | b.keys() if a.get(op) != b.get(op))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", help="the src/ directory to import similitude from")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (Path(p).read_text().splitlines() for p in args.diff)
        ops = differing_ops(old, new)
        for op in ops:
            print(op)
        return 1 if ops else 0
    if args.src is None or args.workload is None or args.seed is None:
        parser.error("give SRC_DIR, --workload and --seed, or --diff A B")
    cli = import_cli(args.src)
    for line in report_lines(cli, gen.generate(args.workload, args.seed)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
