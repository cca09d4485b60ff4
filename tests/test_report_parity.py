"""tools/report_parity.py: one line per benchmark operation, and the ids that differ."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("report_parity", ROOT / "tools" / "report_parity.py")
report_parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_parity)


def test_lines_are_deterministic_and_diff_names_the_changed_ops(tmp_path, capsys):
    ops = report_parity.gen.generate("smith-wasow", 501)[:3]
    cli = report_parity.import_cli(str(ROOT / "src"))
    lines = report_parity.report_lines(cli, ops)
    entries = [json.loads(line) for line in lines]
    assert [(e["op"], e["report"]["command"]) for e in entries] == [
        (0, "smith"),
        (1, "wasow"),
        (2, "local-similarity"),
    ]
    for e in entries:
        assert e["code"] in (0, 1) and "timings" not in e["report"]
        # the input files live in a temporary directory: no path is echoed
        assert set(e["report"]["arguments"]) <= {"command", "point"}
    assert report_parity.report_lines(cli, ops) == lines

    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("\n".join(lines) + "\n")
    changed = dict(entries[1], code=2, report=None)
    new.write_text("\n".join([lines[0], json.dumps(changed, sort_keys=True)]) + "\n")
    assert report_parity.main(["--diff", str(old), str(new)]) == 1
    assert capsys.readouterr().out.split() == ["1", "2"]
    assert report_parity.main(["--diff", str(old), str(old)]) == 0
    assert capsys.readouterr().out == ""
