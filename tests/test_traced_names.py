"""Every function the benchmark traces must exist in the package.

`perfbench/spans.py` rebinds each `TRACED` (module, function) pair by name.
`perfbench/tests` is outside the default test paths, so without this check a
renamed or deleted layer function would break only `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_a_package_function():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [
        f"{module}.{name}"
        for module, name in spans.TRACED
        if not callable(getattr(importlib.import_module(f"similitude.{module}"), name, None))
    ]
    assert missing == []
