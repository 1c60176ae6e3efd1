"""Span tracing of rspir's layers from outside the package.

``Tracer.install`` wraps the public functions and methods of every layer
module and rebinds each wrapper at every place the original is reachable:
the defining module, every module that did ``from .x import y``, and the
class for methods. ``uninstall`` puts the originals back.

Two kinds of wrapper keep the trace both complete and small:

* a *span* records name, start, end, parent span and op id in flat arrays;
* a *leaf* (field arithmetic and the small accessors of matrices, schemes and
  decode tables, called millions of times per op) records only a call count
  and its time, which is charged to the layer and subtracted from the
  enclosing span's self time.

Calls made while a leaf runs are counted but not timed again, so every
interval is charged exactly once and per-layer self times add up to the
traced op wall time. A generator such as ``enumerate_observations`` gets no
span: the items it yields are counted, and its body runs inside the
consumer's span, which is in the same layer.
"""
from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("field", "linalg", "scheme", "schemeio", "decode", "infotheory", "verify", "protocol", "search", "cli")

# Per-call work too small for a span of its own.
LEAF_METHODS = {
    "field": {"FieldSpec": ("check", "add", "mul", "inv", "elements")},
    "linalg": {"FieldMatrix": ("from_rows", "identity", "zero", "entry", "row", "to_rows", "transpose", "drop_cols")},
    "scheme": {"Scheme": ("message_col", "randomness_col", "answer")},
    "decode": {"DecodeTable": ("entry", "theta", "theta_grid")},
}
# Methods that do real work and get spans.
SPAN_METHODS = {
    "infotheory": {"JointDistribution": ("__post_init__", "from_counts", "marginal")},
    "verify": {"VerificationReport": ("to_lines", "to_text")},
    "protocol": {"Transcript": ("to_text",)},
    "decode": {"DecodeTable": ("problems", "require_clean")},
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_leaf = array("d")  # leaf time charged inside each span
        self.calls: dict[str, int] = defaultdict(int)
        self.leaf_time: dict[str, float] = defaultdict(float)  # per layer
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = [-1]
        self._in_leaf = False
        self._patches: list[tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if self._in_leaf:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1])
            self.span_op.append(self.op)
            self.span_leaf.append(0.0)
            self.span_end.append(0.0)
            self._stack.append(idx)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                self._stack.pop()
            if hook is not None:
                hook(self, idx, result)
            return result

        return wrapper

    def _leaf(self, name: str, layer: str, fn):
        clock = time.perf_counter
        calls = self.calls
        leaf_time = self.leaf_time

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._in_leaf = False
                leaf_time[layer] += dt
                top = self._stack[-1]
                if top >= 0:
                    self.span_leaf[top] += dt

        return wrapper

    def _items(self, name: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counters[name] += n

        return wrapper

    # --- installing -------------------------------------------------------

    def install(self, package: str = "rspir") -> None:
        """Wrap every layer and rebind the wrappers at all import sites."""
        if self._patches:
            return
        modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(value):
                    wrapped = self._items(name, value)
                else:
                    wrapped = self._span(name, value, HOOKS.get(name))
                replace[id(value)] = wrapped
            for kinds, make in ((LEAF_METHODS, "leaf"), (SPAN_METHODS, "span")):
                for cls_name, methods in kinds.get(layer, {}).items():
                    cls = getattr(mod, cls_name)
                    for meth in methods:
                        raw = cls.__dict__[meth]
                        name = f"{layer}.{cls_name}.{meth}"
                        is_cm = isinstance(raw, classmethod)
                        fn = raw.__func__ if is_cm else raw
                        w = self._leaf(name, layer, fn) if make == "leaf" else self._span(name, fn)
                        self._patch(cls, meth, raw, classmethod(w) if is_cm else w)
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and inspect.isfunction(value):
                    self._patch(mod, attr, value, replace[id(value)])

    def _patch(self, obj, attr: str, original, replacement) -> None:
        self._patches.append((obj, attr, original))
        setattr(obj, attr, replacement)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # --- reading ----------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        """Busy time per layer with time spent in child spans and leaves removed."""
        n = len(self.span_start)
        child = [0.0] * n
        parent = self.span_parent
        start, end = self.span_start, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = defaultdict(float, self.leaf_time)
        names = self.names
        sname, leaf = self.span_name, self.span_leaf
        for i in range(n):
            layer = names[sname[i]].split(".", 1)[0]
            out[layer] += end[i] - start[i] - child[i] - leaf[i]
        return dict(out)

    def span_totals(self) -> dict[str, float]:
        """Inclusive time per span name."""
        out: dict[str, float] = defaultdict(float)
        names, sname = self.names, self.span_name
        for i in range(len(self.span_start)):
            out[names[sname[i]]] += self.span_end[i] - self.span_start[i]
        return dict(out)

    def dump(self, path: str) -> None:
        """Write every span as ``op name parent start end`` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.span_op[i]} {self.names[self.span_name[i]]} {self.span_parent[i]} "
                    f"{self.span_start[i]:.9f} {self.span_end[i]:.9f}\n"
                )


def _count_pool(tracer: Tracer, idx: int, pool) -> None:
    tracer.counters["search.pool_size"] += len(pool)


def _count_examined(tracer: Tracer, idx: int, result) -> None:
    tracer.counters["search.examined"] += result.examined


def _count_search_verdicts(tracer: Tracer, idx: int, report) -> None:
    p = tracer.span_parent[idx]
    if p >= 0 and tracer.names[tracer.span_name[p]] == "search.search_schemes":
        tracer.counters["search.verified"] += 1
        tracer.counters["search.valid"] += report.all_passed


def _count_blocks(tracer: Tracer, idx: int, transcript) -> None:
    tracer.counters["protocol.blocks"] += transcript.blocks


# Results that per-layer metrics need, read where the layer returns them.
HOOKS = {
    "search.candidate_answers": _count_pool,
    "search.search_schemes": _count_examined,
    "verify.verify_scheme": _count_search_verdicts,
    "protocol.run_protocol": _count_blocks,
}
