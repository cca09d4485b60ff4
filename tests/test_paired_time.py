"""tools/paired_time.py: two source trees side by side, timed per operation kind."""

import importlib.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("paired_time", ROOT / "tools" / "paired_time.py")
paired_time = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_time)


def test_src_against_itself_on_three_ops():
    ops = paired_time.gen.generate("smith-wasow", 501)[:3]
    old = paired_time.import_tree(str(ROOT / "src"), "similitude_paired_old")
    new = paired_time.import_tree(str(ROOT / "src"), "similitude_paired_new")
    # two separate copies of the package, neither of them `similitude`
    old_gr = sys.modules["similitude_paired_old.algebra"].GaussianRational
    new_gr = sys.modules["similitude_paired_new.algebra"].GaussianRational
    assert old_gr is not new_gr and old.__name__ == "similitude_paired_old.cli"

    totals, differing = paired_time.paired_times(old, new, ops, rounds=2)
    assert differing == []
    assert {kind: entry[0] for kind, entry in totals.items()} == {
        "smith": 1,
        "wasow": 1,
        "local-similarity": 1,
    }
    assert all(entry[1] > 0 and entry[2] > 0 for entry in totals.values())
    table = paired_time.format_table(totals)
    assert table[0].split() == ["kind", "ops", "old_s", "new_s", "old/new"]
    assert [line.split()[0] for line in table[1:]] == ["local-similarity", "smith", "wasow", "total"]
    assert table[-1].split()[1] == "3"

    class ExitsOneMore:
        """A tree whose every exit code is one higher: its reports differ on every op."""

        @staticmethod
        def run(argv):
            return new.run(argv) + 1

    _, differing = paired_time.paired_times(old, ExitsOneMore, ops, rounds=1)
    assert differing == [op.op_id for op in ops]


def test_warm_up_runs_on_both_trees_before_the_first_timed_op(monkeypatch, capsys):
    # the trees share sys.modules, so a lazy import paid inside a timed op
    # would fall on one side only
    src = str(ROOT / "src")
    import_tree = paired_time.import_tree
    calls = []

    class Recording:
        def __init__(self, name):
            self.name = name
            self.cli = import_tree(src, f"{name}_warm")

        def run(self, argv):
            calls.append((self.name, [os.path.basename(a) if a.startswith("/") else a for a in argv]))
            return self.cli.run(argv)

    ops = paired_time.gen.generate("jordan-locus", 301)[:2]
    monkeypatch.setattr(paired_time, "import_tree", lambda src_dir, name: Recording(name))
    monkeypatch.setattr(paired_time.gen, "generate", lambda workload, seed: ops)
    assert paired_time.main([src, src, "--workload", "jordan-locus", "--seed", "301"]) == 0
    warm = [
        (name, [a.lstrip("@") for a in op.argv])
        for op in paired_time.gen.warmup("jordan-locus")
        for name in ("similitude_old", "similitude_new")
    ]
    assert calls[: len(warm)] == warm
    assert len(calls) == len(warm) + 2 * len(ops)
    assert "reports identical: yes (2 of 2 ops)" in capsys.readouterr().out


def test_one_collection_before_each_timed_call(monkeypatch):
    # the garbage one call leaves would otherwise be collected inside the
    # next timed call, and the fixed alternation of sides puts that on one side
    events = []

    class Recording:
        def __init__(self, cli):
            self.cli = cli

        def run(self, argv):
            events.append("run")
            return self.cli.run(argv)

    cli = paired_time.import_tree(str(ROOT / "src"), "similitude_paired_gc")
    ops = paired_time.gen.generate("smith-wasow", 501)[:3]
    monkeypatch.setattr(paired_time.gc, "collect", lambda: events.append("collect"))
    paired_time.paired_times(Recording(cli), Recording(cli), ops, rounds=2)
    assert events == ["collect", "run"] * (len(ops) * 2 * 2)
