"""Span tracer that wraps hsproj's functions from outside the package.

Nothing inside ``src/`` knows about it: :meth:`Tracer.install` walks the
package's submodules at run time and replaces every function object bound
in each module namespace (the package namespace included) with a wrapper
that records a span.  Rebinding the name in every namespace that holds it
catches cross-module references such as ``projection``'s imported
``schur_complement``.  Module-level globals are looked up at call time, so
calls between functions of one module are caught as well.  The scipy
``minimize`` that the oracle imports is wrapped as ``oracle.minimize``.

A span is ``[name, start, end, parent, raised]``; spans stay in memory
until :meth:`Tracer.write`.  A span's self time is its duration minus the
durations of its direct children.  Functions that disappear from the
package simply never produce spans, so their counts read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import types
from collections import defaultdict
from time import perf_counter


def layer_of(module_name: str) -> str:
    """Metric prefix of a module: ``hsproj._scan`` -> ``scan``."""
    return module_name.rpartition(".")[2].lstrip("_")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrappers: dict[tuple[int, str], types.FunctionType] = {}
        self._undo: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        key = (id(fn), name)
        if key in self._wrappers:
            return self._wrappers[key]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()

        self._wrappers[key] = traced
        return traced

    def _rebind(self, module: types.ModuleType, attr: str, name: str, fn) -> None:
        self._undo.append((module, attr, fn))
        setattr(module, attr, self._wrap(name, fn))

    def install(self, package_name: str = "hsproj") -> None:
        package = importlib.import_module(package_name)
        modules = [package] + [
            importlib.import_module(f"{package_name}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__ or ""
                if home != package_name and not home.startswith(package_name + "."):
                    continue
                # an alias inside the defining module (``scan_grid = scan_grid_numpy``)
                # keeps the name callers use; imports keep the defining name
                short = attr if module.__name__ == home else value.__name__
                self._rebind(module, attr, f"{layer_of(home)}.{short}", value)
        oracle = next((m for m in modules if m.__name__ == f"{package_name}.oracle"), None)
        if oracle is not None and callable(getattr(oracle, "minimize", None)):
            self._rebind(oracle, "minimize", "oracle.minimize", oracle.minimize)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self and inclusive seconds, calls that raised."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "exceptions": 0}
        )
        for (name, start, end, _, raised), inner in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - inner
            row["total_s"] += end - start
            row["exceptions"] += int(raised)
        return dict(out)

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent index, raised."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, raised in self.spans:
                fh.write(json.dumps([name, start, end, parent, raised]) + "\n")


def layer_metrics(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Flatten a summary into ``<layer>.<fn>.<stat>`` and ``<layer>.<stat>`` values.

    A layer's totals sum calls, self seconds and exceptions over its
    functions; inclusive seconds do not add up across nested calls, so they
    stay per function.
    """
    flat: dict[str, float] = {}
    for name, row in summary.items():
        layer = name.partition(".")[0]
        for stat, value in row.items():
            flat[f"{name}.{stat}"] = value
            if stat != "total_s":
                flat[f"{layer}.{stat}"] = flat.get(f"{layer}.{stat}", 0) + value
    return flat
