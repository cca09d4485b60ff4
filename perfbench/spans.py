"""In-memory spans around the package's layer functions, without touching src/.

`Tracer.install` rebinds each traced function, in every `similitude` module
namespace that holds it, to a wrapper that records (name, start, end, parent,
op id).  Spans stay in flat arrays until `write`; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (module, function) pairs, one per layer boundary an optimisation targets
TRACED = [
    ("algebra", "poly_gcd_univariate"),
    ("algebra", "poly_divmod_univariate"),
    ("algebra", "generic_rank"),
    ("linalg", "rank"),
    ("linalg", "nullspace"),
    ("linalg", "det"),
    ("linalg", "invert"),
    ("smith", "local_smith"),
    ("smith", "kernel_projection"),
    ("smith", "invariant_factors"),
    ("sylvester", "commutant_basis_at"),
    ("similarity", "wasow_check"),
    ("similarity", "local_similarity"),
    ("similarity", "pointwise_similar"),
    ("jordan", "jordan_instability_candidates"),
    ("jordan", "is_jordan_stable"),
    ("jordan", "segre_at"),
    ("rigidity", "jet_rigidity"),
    ("rigidity", "verify_smooth_similarity"),
    ("cli", "run"),
]
# elimination kernels are reported per scalar type: Q(i) or rational functions
SPLIT_BY_FIELD = {"linalg.rank", "linalg.nullspace"}
SPAN_NAMES = [
    name
    for mod, fn in TRACED
    for name in (
        [f"{mod}.{fn}_qi", f"{mod}.{fn}_rf"] if f"{mod}.{fn}" in SPLIT_BY_FIELD else [f"{mod}.{fn}"]
    )
]
# the per-layer names reported (nullspace over rational functions never runs)
REPORTED = [n for n in SPAN_NAMES if n != "linalg.nullspace_rf"]


def _field(matrix) -> str:
    first = matrix[0][0] if matrix and matrix[0] else None
    return "_rf" if type(first).__name__ == "RationalFunction" else "_qi"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.nullspace_cells = 0
        self.jet_nullity = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, label: str):
        split = label in SPLIT_BY_FIELD
        fixed = self._name_id(label) if not split else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(fixed if fixed is not None else tracer._name_id(label + _field(args[0])))
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if label == "linalg.nullspace" and _field(args[0]) == "_qi" and args[0]:
                tracer.nullspace_cells += len(args[0]) * len(args[0][0])
            elif label == "rigidity.jet_rigidity":
                tracer.jet_nullity += result.jet_nullity
            return result

        return wrapper

    def install(self):
        """Rebind every traced function in each loaded `similitude` module."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "similitude" or k.startswith("similitude.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"similitude.{mod_name}"], fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[idx] - self.start[idx]
        return out

    def totals(self, scale) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds), each span's time times scale[its op id]."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for name_id, op_id, t in zip(self.name, self.op, self.self_times()):
            calls[name_id] += 1
            self_s[name_id] += t * scale[op_id]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Tab-separated spans: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                    f"{self.parent[i]}\t{self.op[i]}\n"
                )
