"""In-memory span recording around the package's public functions.

A site is a (module, attribute) pair: the name under which a calling module
looks a function up at call time. Patching the attribute there intercepts
exactly the calls that module makes, without touching any file of the
package. Spans are kept in flat arrays (name, start, end, parent, op) and
written out once, when the run finishes.

Two kinds of wrapper exist. A capturing wrapper only keeps (args, kwargs,
result) of each call, so the oracle can inspect what an op produced inside
the library (for instance the LpSolution behind a RecoveryReport); its cost
is one Python call per wrapped call and it is installed in every run. A
tracing wrapper also records a span, and is installed only in the traced run.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

ROOT_SPAN = "bench.op"


class Probe:
    """Patches sites with capturing or tracing wrappers and restores them."""

    def __init__(self, sites):
        # sites: iterable of (module name, attribute, span name, capture flag)
        self.sites = list(sites)
        self.trace = False
        self.captured: list[tuple[str, tuple, dict, object]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self, *, trace: bool) -> None:
        """Patch every site: tracing wrappers if trace, else capturing ones."""
        self.uninstall()
        self.trace = trace
        for module_name, attr, span, capture in self.sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if self.trace:
                wrapper = self._tracing(span, original, capture)
            elif capture:
                wrapper = self._capturing(span, original)
            else:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _capturing(self, span, fn):
        sink = self.captured

        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append((span, args, kwargs, result))
            return result

        captured.__wrapped__ = fn
        return captured

    def _tracing(self, span, fn, capture):
        nid = self._name_id(span)
        sink = self.captured if capture else None
        stack = self._stack
        names, starts, ends, parents, ops = (self.name, self.start, self.end,
                                             self.parent, self.op)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if sink is not None:
                sink.append((span, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _name_id(self, span: str) -> int:
        nid = self._name_ids.get(span)
        if nid is None:
            nid = self._name_ids[span] = len(self.names)
            self.names.append(span)
        return nid

    # -- op root spans ----------------------------------------------------

    def begin_op(self, op_id: int) -> int | None:
        """Open the root span of one op (traced runs only)."""
        self.op_id = op_id
        if not self.trace:
            return None
        idx = len(self.start)
        self.name.append(self._name_id(ROOT_SPAN))
        self.parent.append(-1)
        self.op.append(op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def end_op(self, idx: int | None) -> None:
        if idx is not None:
            self.end[idx] = perf_counter()
            self._stack.pop()
        self.op_id = -1

    # -- analysis ---------------------------------------------------------

    def frame(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns, with duration and self time per span.

        Self time is the span's duration minus the time its child spans
        cover. Children of one span run one after another on one thread
        (the benchmark is single-threaded), so they cover the sum of their
        durations.
        """
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.array(self.op, dtype=np.int64),
            "dur": dur,
            "self": dur - child_time,
        }

    def save(self, path: str) -> None:
        f = self.frame()
        np.savez_compressed(path, names=np.array(self.names), name=f["name"],
                            start=f["start"], end=f["end"],
                            parent=f["parent"], op=f["op"])
