"""Outside-in span tracing of the signed_nullity layers.

``Tracer.install`` replaces, in the namespaces of ``signed_nullity.verification``,
``.recognizers`` and ``.cli``, every function those modules import from a
sibling module, and the ``documents`` module that ``cli`` imports whole.
A module's calls to its own functions are not wrapped, so their cost is part
of the calling span's self time; ``SignedGraph`` construction, a class call,
stays inside its caller's self time too.  ``Tracer.wrap`` also serves the
benchmark's own calls into the public API, which become the root spans.

Each span is one row of four flat arrays (name id, parent row, start, end),
kept in memory and written out by ``write``.  A generator function gets one
span per ``next()``.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types
from array import array
from collections import Counter
from pathlib import Path

PACKAGE = "signed_nullity"
LAYERS = (
    "enumeration",
    "graphs",
    "rank",
    "recognizers",
    "reductions",
    "canonical",
    "verification",
    "documents",
    "graphio",
    "cli",
)
TRACED_MODULES = ("verification", "recognizers", "cli")
# Only for these functions does a span look at the return value: the key
# each result contributes to the function's set of distinct results.
RESULT_KEYS = {"canonical.canonical_form": lambda result: result[0]}
_MARK = "__perfbench_wrapped__"


def span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.generators: set[str] = set()
        self.exhausted: Counter = Counter()  # name -> next() calls that ended a generator
        self.distinct: dict[str, set] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn):
        """A traced stand-in for ``fn``: one span per call (or per ``next()``)."""
        name = span_name(fn)
        nid = self._name_id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            self.generators.add(name)
            exhausted = self.exhausted

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(names)
                    names.append(nid)
                    parents.append(stack[-1])
                    stack.append(idx)
                    ends.append(0)
                    starts.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        exhausted[name] += 1
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    yield item

            setattr(traced_generator, _MARK, True)
            return traced_generator

        key = RESULT_KEYS.get(name)
        seen = self.distinct.setdefault(name, set()) if key else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            stack.append(idx)
            ends.append(0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if seen is not None:
                seen.add(key(result))
            return result

        setattr(traced, _MARK, True)
        return traced

    def _module_proxy(self, module):
        proxy = types.SimpleNamespace(**vars(module))
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                setattr(proxy, attr, self.wrap(value))
        setattr(proxy, _MARK, True)
        return proxy

    def install(self) -> None:
        """Wrap the sibling-module names the traced modules import."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__.startswith(PACKAGE + ".")
                    and value.__module__ != module.__name__
                ):
                    replacement = self.wrap(value)
                elif inspect.ismodule(value) and value.__name__.startswith(PACKAGE + "."):
                    replacement = self._module_proxy(value)
                else:
                    continue
                self._patches.append((module, attr, value))
                setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- reduction -----------------------------------------------------------

    def per_name(self) -> dict[str, dict]:
        """Calls, self time (ns), yields and distinct results per span name."""
        count = len(self.span_name)
        child_ns = array("q", bytes(8 * count))
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_ns[nid] += ends[i] - starts[i] - child_ns[i]
        out = {}
        for nid, name in enumerate(self.names):
            if not calls[nid]:
                continue
            entry = {"calls": calls[nid], "self_ns": self_ns[nid]}
            if name in self.generators:
                entry["yields"] = calls[nid] - self.exhausted[name]
            if name in self.distinct:
                entry["distinct"] = len(self.distinct[name])
            out[name] = entry
        return out

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the four raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "arrays": [
                ["name", self.span_name.typecode, self.span_name.itemsize],
                ["parent", self.span_parent.typecode, self.span_parent.itemsize],
                ["start_ns", self.span_start.typecode, self.span_start.itemsize],
                ["end_ns", self.span_end.typecode, self.span_end.itemsize],
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(handle)


def active_wrappers() -> list[str]:
    """Names in the traced modules that are still tracing wrappers."""
    found = []
    for short in TRACED_MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append(f"{short}.{attr}")
    return found
