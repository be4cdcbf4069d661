"""Span tracer that wraps the program's public functions from outside.

``Tracer`` replaces every public function and public method of the layer
modules with a wrapper that records a span (function, parent span, start,
end, whether it returned).  A function is replaced in every ``strangedual.*``
namespace that holds it, because modules import names from each other
directly.  Methods are wrapped on their class.  Names starting with ``_``,
properties and generator functions are left alone: the first are internal,
and a span around the other two would not cover their work.

Spans stay in memory until the caller reads them; ``restore`` puts every
original attribute back.  Nothing in the program is edited.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types

LAYERS = ("surfaces", "hilbert", "fourier_mukai", "duality", "strata", "cli")
PACKAGE = "strangedual"
# functions whose result length is stored with the span, to count what they return
SIZED = frozenset({"strata.strata_enumerate"})


class Tracer:
    """Record spans of calls into the layer modules while installed."""

    def __init__(self):
        self.names: list[str] = []  # function id -> "module.qualname"
        self.layers: list[str] = []  # function id -> module
        self.spans: list = []  # (fid, parent, t0, t1, ok, size)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(target, layer, qualname): a function, or (class, attribute, method)."""
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in sorted(vars(module).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    if not inspect.isgeneratorfunction(obj):
                        yield obj, layer, name
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    for attr, member in sorted(vars(obj).items()):
                        if attr.startswith("_") or not isinstance(member, types.FunctionType):
                            continue
                        if inspect.isgeneratorfunction(member):
                            continue
                        yield (obj, attr, member), layer, f"{name}.{attr}"

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.names = []
        self.layers = []
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for target, layer, qualname in self._targets():
            fid = len(self.names)
            self.names.append(f"{layer}.{qualname}")
            self.layers.append(layer)
            if isinstance(target, tuple):
                cls, attr, fn = target
                self._patch(cls, attr, self._wrap(fid, fn))
                continue
            wrapper = self._wrap(fid, target)
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, fid: int, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        sized = self.names[fid] in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            size = -1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                if sized:
                    size = len(result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (fid, parent, t0, t1, ok, size)

        return traced

    # -- reading ----------------------------------------------------------

    def reset(self) -> None:
        """Drop the recorded spans, keeping the wrappers installed."""
        self.spans.clear()
        self._stack.clear()

    def summary(self) -> "Summary":
        return Summary(self.names, self.layers, list(self.spans))


class Summary:
    """Aggregates over one set of spans: self time per layer, time per function."""

    def __init__(self, names: list[str], layers: list[str], spans: list):
        self.names = names
        self.spans = spans
        child = [0.0] * len(spans)
        for fid, parent, t0, t1, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.fn_s: dict[str, float] = {}
        self.fn_calls: dict[str, int] = {}
        self.fn_ok: dict[str, int] = {}
        self.fn_size: dict[str, int] = {}
        self.root_s = 0.0
        for i, (fid, parent, t0, t1, ok, size) in enumerate(spans):
            dur = t1 - t0
            layer = layers[fid]
            name = names[fid]
            self.self_s[layer] += dur - child[i]
            self.calls[layer] += 1
            self.fn_s[name] = self.fn_s.get(name, 0.0) + dur
            self.fn_calls[name] = self.fn_calls.get(name, 0) + 1
            self.fn_ok[name] = self.fn_ok.get(name, 0) + int(ok)
            if size >= 0:
                self.fn_size[name] = self.fn_size.get(name, 0) + size
            if parent < 0:
                self.root_s += dur

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span of one function."""
        return [t1 - t0 for fid, _, t0, t1, _, _ in self.spans if self.names[fid] == name]

    def write_tsv(self, path) -> None:
        """Write the spans, one a line: index, parent, function, start and length in µs."""
        if not self.spans:
            origin = 0.0
        else:
            origin = min(s[2] for s in self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tfunction\tstart_us\tdur_us\tok\n")
            for i, (fid, parent, t0, t1, ok, _) in enumerate(self.spans):
                fh.write(
                    f"{i}\t{parent}\t{self.names[fid]}\t{(t0 - origin) * 1e6:.1f}"
                    f"\t{(t1 - t0) * 1e6:.1f}\t{int(ok)}\n"
                )
