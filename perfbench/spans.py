"""Spans around calls into lingtruth's public functions.

Every span records its name (``layer.function``), start and end in
nanoseconds, the index of the span that caused it (-1 for none) and the op
it belongs to.  Spans are kept in memory as parallel arrays and written out
once, when the run ends.

Calls are intercepted at module boundaries: ``interposed`` rebinds the
names listed in ``BOUNDARIES`` inside the lingtruth module that looks them
up, so the calls that module makes pass through a recording wrapper, and
restores the original bindings on exit.  Nothing inside lingtruth changes.
Recursion within one module (``evaluate`` calling itself, for instance)
stays untraced, because it resolves the name in its own module.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
from array import array
from time import perf_counter_ns

# (module whose namespace is rebound, name called through it).  Names a
# later version no longer has are skipped.
BOUNDARIES = (
    ("cli", "check_all_axioms"),
    ("cli", "check_lattice_laws"),
    ("cli", "check_involution"),
    ("cli", "classify"),
    ("cli", "verify_lattice"),
    ("cli", "cross_check_ops"),
    ("cli", "build_covers"),
    ("cli", "inference_table"),
    ("cli", "verify_examples"),
    ("cli", "parse"),
    ("cli", "evaluate"),
    ("cli", "Valuation"),
    ("axioms", "check_axiom"),
    ("axioms", "check_all_axioms"),
    ("oracle", "build_covers"),
    ("inference", "mp_direct"),
    ("inference", "mt_direct"),
    ("inference", "evaluate"),
    ("inference", "Valuation"),
)


def _layer(fn) -> str:
    return getattr(fn, "__module__", "").rpartition(".")[2] or "unknown"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.op_id = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        k = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(k)
        self.start.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[k] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn):
        name = f"{_layer(fn)}.{fn.__name__}"
        if fn.__name__ == "check_axiom":
            # one name per axiom, so that each axiom's cost shows apart
            def traced(config, axiom, *args, **kwargs):
                return self.call(f"{name}:{axiom.value}", fn, config, axiom, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def interposed(self):
        saved = []
        try:
            for module_name, attr in BOUNDARIES:
                module = importlib.import_module(f"lingtruth.{module_name}")
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # ------------------------------------------------------------------
    # Aggregation

    def durations(self) -> tuple[array, array]:
        """Inclusive and self time of every span, in ns."""
        total = array("q", (e - s for s, e in zip(self.start, self.end)))
        own = array("q", total)
        for k, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= total[k]
        return total, own

    def inside(self, k: int, name: str) -> bool:
        """Whether span ``k`` has an ancestor called ``name``."""
        target = self._ids.get(name)
        p = self.parent[k]
        while p >= 0:
            if self.name[p] == target:
                return True
            p = self.parent[p]
        return False

    def summary(self):
        """Per span name: call count, inclusive ns; per layer: self ns;
        and the inclusive ns of root spans."""
        total, own = self.durations()
        calls: dict[str, int] = {}
        inclusive: dict[str, int] = {}
        layer_self: dict[str, int] = {}
        roots = 0
        for k, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0) + total[k]
            layer = name.partition(".")[0]
            layer_self[layer] = layer_self.get(layer, 0) + own[k]
            if self.parent[k] < 0:
                roots += total[k]
        return calls, inclusive, layer_self, roots

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for k in range(len(self.start)):
                out.write(
                    f"{k}\t{self.parent[k]}\t{self.op[k]}\t{self.names[self.name[k]]}"
                    f"\t{self.start[k]}\t{self.end[k]}\n"
                )
