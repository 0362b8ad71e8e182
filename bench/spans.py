"""In-memory span tracing for the benchmark's traced run.

A span is (name, start, end, parent index, op id, note). Wrappers are
installed at every place a traced function is bound (module globals of the
package and class attributes), so calls between the package's own modules
are traced too. The untraced run never creates a Tracer.
"""

from __future__ import annotations

import functools
import os
import time

_perf = time.perf_counter


class Tracer:
    def __init__(self, package_modules, targets, notes=None):
        """`targets` maps a span name such as "packing.ffd" or
        "core.LiftingMap.lift" to the function object it traces; `notes`
        maps a span name to a function of the call's result whose value is
        kept on the span (a count or a flag)."""
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches = []
        notes = notes or {}
        for name, original in targets.items():
            wrapper = self._wrap(name, original, notes.get(name))
            owner_name, _, attr = name.rpartition(".")
            if "." in owner_name:  # a method: layer.Class.method
                layer, cls_name = owner_name.split(".")
                owner = getattr(_module(package_modules, layer), cls_name)
                self._patches.append((owner, attr, original, wrapper))
                continue
            bound = [(mod, key) for mod in package_modules
                     for key, value in vars(mod).items() if value is original]
            if not bound:
                raise LookupError(f"{name} is bound nowhere in the package")
            self._patches.extend((mod, key, original, wrapper) for mod, key in bound)

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = _perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _perf()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op,
                              None if note is None or result is None else note(result))
        return wrapper

    def install(self):
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)

    def summary(self):
        """Per span name: calls, total seconds, self seconds (duration minus
        the time covered by child spans), and the notes of its spans.
        Per (parent name, child name): the number of child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _note in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict] = {}
        edges: dict[tuple[str, str], int] = {}
        for idx, (name, start, end, parent, _op, note) in enumerate(self.spans):
            entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                            "notes": []})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
            if note is not None:
                entry["notes"].append(note)
            if parent >= 0:
                key = (self.spans[parent][0], name)
                edges[key] = edges.get(key, 0) + 1
        return stats, edges

    def write(self, path):
        """One tab-separated line per span, times in ns from the first span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\top\tname\tparent\tstart_ns\tend_ns\n")
            for idx, (name, start, end, parent, op, _note) in enumerate(self.spans):
                fh.write(f"{idx}\t{op}\t{name}\t{parent}\t"
                         f"{round((start - t0) * 1e9)}\t{round((end - t0) * 1e9)}\n")


def _module(package_modules, layer):
    for mod in package_modules:
        if mod.__name__.rpartition(".")[2] == layer:
            return mod
    raise LookupError(layer)
