"""In-memory span tracer that wraps the package's functions from outside.

:meth:`Tracer.install` replaces every module-level binding of a traced
function inside the package (``pricing`` imports ``solve_dual`` by name,
``geometry`` and ``pricing`` import ``solve_lp``, ``dual`` imports
``_support_structure``, ...) with one wrapper per function, and
:meth:`Tracer.uninstall` puts the originals back.  Utility conjugates are
closures on a ``UtilityPair``; :meth:`Tracer.trace_pair` returns a copy of a
pair whose ``v``, ``v_prime`` and ``v_second`` are traced as
``utility.conjugate``.

Each span has a name, start, end, parent span and operation id.  Self time
(duration minus the time covered by child spans) and call counts are
aggregated exactly for every span; the raw spans are kept in memory up to
``MAX_SPANS`` and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time
from array import array

PACKAGE = "treedual"
MODULES = ("market", "utility", "geometry", "simplex", "dual", "recovery",
           "pricing", "oracle", "checks")

# private functions that are layer boundaries in their own right
EXTRA = {"geometry._support_structure": "geometry.support"}
MAX_SPANS = 100_000  # raw spans kept; the aggregates cover all


class Tracer:
    """Spans and aggregates of the traced functions of the package.

    ``hooks`` maps a qualified name (``"dual.solve_dual"``) to
    ``(on_result, on_error)`` callbacks run after each call.
    """

    def __init__(self, hooks):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # raw spans, column-wise
        self.s_name = array("l")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("l")
        self.s_op = array("l")
        self.dropped = 0
        # open spans: [name id, start, child time, span index]
        self._stack: list[list] = []
        self.op_id = -1
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.events: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self._wrapped: dict[int, object] = {}
        for qual, span_name, obj in self.targets():
            self.originals[qual] = obj
            self._wrapped[id(obj)] = self.span(
                span_name, obj, *hooks.get(qual, (None, None)))

    # -- span bookkeeping -----------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, on_result=None, on_error=None):
        """Wrap ``fn`` so that each call records one span called ``name``."""
        nid = self._nid(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = -1
            if len(self.s_start) < MAX_SPANS:
                idx = len(self.s_start)
                self.s_name.append(nid)
                self.s_start.append(0.0)
                self.s_end.append(0.0)
                self.s_parent.append(stack[-1][3] if stack else -1)
                self.s_op.append(self.op_id)
            else:
                self.dropped += 1
            frame = [nid, 0.0, 0.0, idx]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if idx >= 0:
                    self.s_start[idx] = start
                    self.s_end[idx] = end
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped_by_tracer__ = fn
        return traced

    def count(self, event: str, n: int = 1) -> None:
        self.events[event] = self.events.get(event, 0) + n

    def inside(self, prefix: str) -> bool:
        """True when an open span's name starts with ``prefix``."""
        return any(self.names[f[0]].startswith(prefix) for f in self._stack)

    # -- installation -----------------------------------------------------------

    def targets(self):
        """(qualified name, span name, original object) for every traced function."""
        out = []
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                fn = getattr(obj, "__wrapped__", obj)  # lru_cache objects
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                qual = f"{short}.{attr}"
                if attr.startswith("_") and qual not in EXTRA:
                    continue
                out.append((qual, EXTRA.get(qual, qual), obj))
        return out

    def install(self) -> None:
        """Rebind every traced function at every binding inside the package."""
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                w = self._wrapped.get(id(obj))
                if w is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def trace_pair(self, pair):
        """Copy of a utility pair whose conjugate evaluators are traced."""
        return dataclasses.replace(
            pair,
            v=self.span("utility.conjugate", pair.v),
            v_prime=self.span("utility.conjugate", pair.v_prime),
            v_second=self.span("utility.conjugate", pair.v_second),
            _cache={})

    # -- output -------------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines (times in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "dropped": self.dropped,
                                 "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for k in range(len(self.s_start)):
                fh.write(json.dumps([self.names[self.s_name[k]], self.s_start[k],
                                     self.s_end[k], self.s_parent[k], self.s_op[k]]) + "\n")
