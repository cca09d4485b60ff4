"""Closed-loop benchmark of the similitude command line.

    python3 perfbench/run.py --workload smith-wasow --seed 1 --seconds 30 --trace 0

One client, one process, no threads: each operation is one in-process
`similitude.cli.run(argv)` call on matrix files written at set-up, issued as
soon as the previous one returns.  The package is imported from `src/` next
to this directory.  After the timed loop every report is checked by
`oracle.py`.

Times are reported at a fixed reference speed.  On a shared virtual host the
CPU's speed can move by up to a factor of two within seconds, for user time as
much as for wall time, and no run length averages that away.  So a fixed piece
of reference work (`reference_work`: pure-Python Fraction arithmetic, the
package's own kind of work, not calling the package) is timed between every
two operations and around every set-up step, and each measured time t is
reported as t * REF_NOMINAL_S / r, where r is the mean of the reference times
taken just before and just after it (for the import in a fresh interpreter,
the reference time in that interpreter): the time the step would take on a
host where the reference work takes REF_NOMINAL_S.  --seconds counts op time
at that speed too, and so do the per-layer self times.  Raw wall-clock
figures are printed in the details line.

Standard output: one JSON line with the run's details (environment, per-kind
counts, tail percentile, raw wall-clock figures, failures), then, as the last
line, the result object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run
measures half its time untraced and half traced, and reports per-layer
metrics from the spans (written to .perfbench-out/).
"""

import sys

# every run compiles the package from source, so set-up time does not depend
# on whether an earlier run left bytecode behind
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = ROOT / ".perfbench-out"
# reported times are scaled to a host on which reference_work takes this long;
# it sits at the slow end of what a shared 2-vCPU host showed (5-12 ms), so a
# run rarely measures for longer than --seconds on the clock
REF_NOMINAL_S = 0.010
# on a host slower than that a run stops at this many times --seconds
WALL_CAP = 1.1


class Record:
    __slots__ = ("op", "code", "stdout", "error", "seconds", "ref_s", "outcome")

    def __init__(self, op, code, stdout, error, seconds, ref_s):
        self.op, self.code, self.stdout, self.error, self.seconds = op, code, stdout, error, seconds
        self.ref_s = ref_s  # reference time around the op
        self.outcome = None

    @property
    def scaled(self) -> float:
        """The op's wall time at reference speed."""
        return self.seconds * REF_NOMINAL_S / self.ref_s


def reference_work() -> Fraction:
    """Fixed exact arithmetic (big-integer Fractions), independent of the package and the seed."""
    x, s = Fraction(1, 3), Fraction(0)
    for k in range(1, 700):
        s += x * Fraction(k, k + 7)
        x *= Fraction(k + 1, k + 2)
    return s


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def import_package():
    """Import similitude from this checkout's src/, or fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import similitude
    from similitude import algebra, cli

    if not Path(similitude.__file__).resolve().is_relative_to(src):
        raise ImportError(f"similitude imported from {similitude.__file__}, not {src}")
    return cli, algebra


def import_seconds() -> tuple[float, float]:
    """Time to import the package in a fresh interpreter, as a user pays it,
    and the reference time in that interpreter just after (the child may run
    on another CPU than this process, at another speed)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import similitude.cli; d = time.perf_counter() - t; "
        "sys.path.insert(0, sys.argv[2]); from run import reference_seconds; "
        "print(d, min(reference_seconds() for _ in range(3)))"
    )
    done = subprocess.run([sys.executable, "-B", "-c", code, str(ROOT / "src"), str(HERE)],
                          capture_output=True, text=True, check=True, timeout=60)
    import_s, ref_s = map(float, done.stdout.split())
    return import_s, ref_s


def setup_once(workload: str, seed: int, workdir: Path, cli):
    """Generate the inputs, write them, and run the warm-up calls."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = gen.generate(workload, seed)
    gen.write_inputs(ops, str(workdir))
    warm = gen.warmup(workload)
    gen.write_inputs(warm, str(workdir))
    for op in warm:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.run(op.resolved_argv(str(workdir)))
    return ops


def measure(cli, ops, workdir: Path, seconds: float, tracer=None):
    """Issue ops round-robin, with the reference work between every two, until
    the ops have taken `seconds` at reference speed (or WALL_CAP times that on
    the clock); returns (records, wall).

    Stopping on time at reference speed makes the number of ops, and so the
    mix the median and tail are taken over, a function of the seed and not of
    how fast the host happened to run."""
    records: list[Record] = []
    ref_before = reference_seconds()
    start = time.perf_counter()
    deadline = start + WALL_CAP * seconds
    scaled_total = 0.0
    while not records or (scaled_total < seconds and time.perf_counter() < deadline):
        op = ops[len(records) % len(ops)]
        argv = op.resolved_argv(str(workdir))
        if tracer is not None:
            tracer.op_id = len(records)
        out = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv)
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            code, error = None, f"{type(exc).__name__}: {exc}"
        op_s = time.perf_counter() - t0
        ref_after = reference_seconds()
        records.append(Record(op, code, out.getvalue(), error, op_s, (ref_before + ref_after) / 2))
        scaled_total += records[-1].scaled
        ref_before = ref_after
    return records, time.perf_counter() - start


def verify(records) -> None:
    """Set each record's outcome; an output equal to a checked one reuses its outcome."""
    checked: dict[int, tuple] = {}
    for rec in records:
        if rec.error is not None:
            rec.outcome = rec.error
            continue
        report = json.loads(rec.stdout) if rec.stdout.strip() else None
        if report is not None:
            report.pop("timings", None)
        seen = checked.get(rec.op.op_id)
        if seen is not None and seen[0] == (rec.code, report):
            rec.outcome = seen[1]
            continue
        rec.outcome = oracle.check(rec.op, rec.code, report)
        checked[rec.op.op_id] = ((rec.code, report), rec.outcome)


def failed(records) -> int:
    return sum(1 for r in records if r.outcome not in (None, oracle.KNOWN_DEFECT))


def end_to_end(records, scaled: bool = True) -> dict:
    """Throughput over the ops' summed time, median and tail; at reference speed or raw."""
    times = sorted(r.scaled if scaled else r.seconds for r in records)
    n = len(times)
    # highest percentile with at least ten samples above it
    k = max(0, n - 11)
    return {
        "ops_per_s": (n - failed(records)) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": times[k],
        "tail": {"percentile": round(100.0 * (k + 1) / n, 2), "samples": n, "beyond": n - k - 1},
    }


def per_kind(records) -> dict:
    out: dict = {}
    for r in records:
        entry = out.setdefault(r.op.kind, {"ops": 0, "seconds": 0.0, "known_defects": 0, "failed": 0})
        entry["ops"] += 1
        entry["seconds"] += r.seconds
        entry["known_defects"] += r.outcome == oracle.KNOWN_DEFECT
        entry["failed"] += r.outcome not in (None, oracle.KNOWN_DEFECT)
    return out


def environment(algebra, seed: int) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    backend = type(algebra.rat(1))
    return {
        "python": platform.python_version(),
        "backend": f"{backend.__module__}.{backend.__qualname__}",
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def layer_metrics(tracer, records, untraced_rate: float, traced_rate: float) -> dict:
    """Per-layer figures of the traced phase, per op so runs of any length compare;
    self times at reference speed, like the ops'."""
    n = len(records)
    totals = tracer.totals([REF_NOMINAL_S / r.ref_s for r in records])
    out = {}
    for name in spans.REPORTED:
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = {"value": calls / n, "unit": "count/op"}
        out[f"{name}.self_s"] = {"value": self_s / n, "unit": "s/op"}
    local = [r for r in records if r.op.kind == "local-similarity"]
    checks = [r for r in records if r.op.kind == "jordan-check"]
    out["linalg.nullspace_qi.cells"] = {"value": tracer.nullspace_cells / n, "unit": "count/op"}
    out["rigidity.jet_nullity"] = {"value": tracer.jet_nullity / n, "unit": "count/op"}
    out["similarity.constructed_share"] = {
        "value": sum(1 for r in local if r.code == 0) / len(local) if local else 0.0, "unit": "ratio"}
    out["jordan.inconsistent_profile_share"] = {
        "value": sum(1 for r in checks if r.outcome == oracle.KNOWN_DEFECT) / len(checks) if checks else 0.0,
        "unit": "ratio"}
    out["trace.overhead_ratio"] = {"value": traced_rate / untraced_rate if untraced_rate else 0.0, "unit": "ratio"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        cli, algebra = import_package()
        os.environ["SIMILITUDE_SEED"] = "0"
        setups = []
        for _ in range(SETUP_REPEATS):
            import_s, import_ref_s = import_seconds()
            r1 = reference_seconds()
            t0 = time.perf_counter()
            ops = setup_once(args.workload, args.seed, workdir, cli)
            rest_s = time.perf_counter() - t0
            r2 = reference_seconds()
            scaled = import_s * REF_NOMINAL_S / import_ref_s + rest_s * 2 * REF_NOMINAL_S / (r1 + r2)
            setups.append((import_s, rest_s, scaled))
        setup_s = statistics.median(c for _, _, c in setups)

        if args.trace:
            untraced, _ = measure(cli, ops, workdir, args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, _ = measure(cli, ops, workdir, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            records = untraced + traced
        else:
            records, wall = measure(cli, ops, workdir, args.seconds)
        # ru_maxrss is in KiB on Linux; the oracle has not run yet
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verify(records)
    bad = [
        {"op": r.op.op_id, "kind": r.op.kind, "argv": r.op.argv, "reason": r.outcome}
        for r in records
        if r.outcome not in (None, oracle.KNOWN_DEFECT)
    ]
    detail = {
        "workload": args.workload,
        "environment": environment(algebra, args.seed),
        "setup": [{"import_s": a, "generate_write_warmup_s": b, "scaled_s": c} for a, b, c in setups],
        "reference_s": {"nominal": REF_NOMINAL_S, "median": statistics.median(r.ref_s for r in records)},
        "peak_rss_mb": peak_rss_mb,
        "per_kind": per_kind(records),
        "known_defects": sum(1 for r in records if r.outcome == oracle.KNOWN_DEFECT),
        "fail_share": failed(records) / len(records),
        "failures": bad[:20],
    }
    if args.trace:
        rate_u = end_to_end(untraced)["ops_per_s"]
        rate_t = end_to_end(traced)["ops_per_s"]
        metrics = layer_metrics(tracer, traced, rate_u, rate_t)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv"
        tracer.write(span_file)
        detail.update(untraced_ops_per_s=rate_u, traced_ops_per_s=rate_t, spans=len(tracer.start),
                      span_file=str(span_file.relative_to(ROOT)))
    else:
        e2e = end_to_end(records)
        detail["tail"] = e2e.pop("tail")
        raw = end_to_end(records, scaled=False)
        raw.pop("tail")
        detail["raw_wall"] = dict(raw, measured_s=wall, capped=wall >= WALL_CAP * args.seconds)
        metrics = {
            "ops_per_s": {"value": e2e["ops_per_s"], "unit": "1/s"},
            "op_p50_s": {"value": e2e["op_p50_s"], "unit": "s"},
            "op_tail_s": {"value": e2e["op_tail_s"], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps(detail))
    n_failed = failed(records)
    print(json.dumps({"correct": n_failed == 0, "attempted": len(records), "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
