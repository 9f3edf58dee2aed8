"""Spans around the public functions of a package, installed from outside it.

:class:`Tracer` replaces every public function of the traced modules (the
names in each module's ``__all__`` that the module itself defines) with a
wrapper, under every name any traced module binds it to, e.g. both
``fbmkit.drift.xi`` and ``fbmkit.gamma.xi``.  It also wraps
``jsonschema.validate`` as seen from each traced module that imports
``jsonschema``, and makes the module-level ``ThreadPoolExecutor`` propagate
the calling span into worker threads.  :meth:`Tracer.uninstall` puts every
original object back; the traced source is never edited.

Each call records a span: function id, parent span id, start and end time.
Spans stay in memory in flat arrays and are analysed or written out when the
run ends.  A span's self time is its duration minus the part of it that its
child spans cover (the union of their intervals, since children running in
worker threads may overlap).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import threading
import time
import types
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["Tracer", "self_times"]


def self_times(start, end, parent) -> np.ndarray:
    """Self time of every span: its duration minus the union of its children.

    ``start``, ``end`` and ``parent`` are parallel sequences; ``parent[i]``
    is the index of span ``i``'s parent, or -1 for a root span.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    has_parent = np.flatnonzero(parent >= 0)
    order = has_parent[np.lexsort((start[has_parent], parent[has_parent]))]
    current, reach = -1, 0.0
    for i in order.tolist():
        p = int(parent[i])
        lo, hi = max(start[i], start[p]), min(end[i], end[p])
        if p != current:
            current, reach = p, lo
        lo = max(lo, reach)
        if hi > lo:
            out[p] -= hi - lo
            reach = hi
    return out


class _SchemaProxy(types.ModuleType):
    """Stand-in for the ``jsonschema`` module whose ``validate`` is traced."""

    def __init__(self, real, validate):
        super().__init__(real.__name__)
        self._real = real
        self.validate = validate

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """In-memory span recorder over the public functions of some modules.

    ``observers`` maps a traced name (``"context.xi"``) to a function
    ``observe(tracer, result)`` called after each successful call; it
    updates the entries of :attr:`values` (named in ``values``, all starting
    at 0) through :meth:`count` and :meth:`record_max`.  ``error_types`` are
    the exceptions counted in ``<name>.errors``.
    """

    def __init__(self, modules, *, prefix: str, observers=None, values=(), error_types=()):
        self.modules = list(modules)
        self.prefix = prefix
        self.observers = dict(observers or {})
        self.error_types = tuple(error_types)
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[str, int] = {}
        self.values: dict[str, float] = dict.fromkeys(values, 0)
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- names --------------------------------------------------------------

    def _short(self, module_name: str) -> str:
        return module_name[len(self.prefix):] if module_name.startswith(self.prefix) else module_name

    def _targets(self) -> dict[int, tuple[object, str]]:
        """``id(function) -> (function, traced name)`` for every public function."""
        found = {}
        for mod in self.modules:
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    found[id(obj)] = (obj, f"{self._short(mod.__name__)}.{attr}")
        return found

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        targets = self._targets()
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is targets[id(value)][0]:
                    self._replace(mod, attr, wrappers[id(value)])
                elif attr == "jsonschema" and isinstance(value, types.ModuleType):
                    name = f"{self._short(mod.__name__)}.schema_validate"
                    self._name_id(name)
                    proxy = _SchemaProxy(value, self._wrap(value.validate, name))
                    self._replace(mod, attr, proxy)
                elif value is ThreadPoolExecutor:
                    self._replace(mod, attr, _ContextExecutor)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _replace(self, mod, attr: str, new) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def _name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _wrap(self, fn, name: str):
        fid = self._name_id(name)
        observe = self.observers.get(name)
        current, lock, clock = self._current, self._lock, time.perf_counter
        start_arr, end_arr, fn_arr, parent_arr = self.start, self.end, self.fn, self.parent
        error_types = self.error_types

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()
            with lock:
                sid = len(start_arr)
                fn_arr.append(fid)
                parent_arr.append(parent)
                end_arr.append(0.0)
                start_arr.append(clock())
            token = current.set(sid)
            try:
                result = fn(*args, **kwargs)
            except error_types:
                with lock:
                    self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                end_arr[sid] = clock()
                current.reset(token)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    # -- counters ---------------------------------------------------------------

    def count(self, key: str, amount) -> None:
        with self._lock:
            self.values[key] += amount

    def record_max(self, key: str, value) -> None:
        with self._lock:
            self.values[key] = max(self.values[key], value)

    # -- results ------------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.start)

    def stats(self) -> dict[str, float]:
        """``<name>.calls``, ``.total_s``, ``.self_s`` and ``.errors`` for every
        traced name, plus :attr:`values`."""
        fid, parent, start, end = self.spans()
        k = len(self.names)
        calls = np.bincount(fid, minlength=k)
        total = np.bincount(fid, weights=end - start, minlength=k)
        own = np.bincount(fid, weights=self_times(start, end, parent), minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.total_s"] = float(total[i])
            out[f"{name}.self_s"] = float(own[i])
            out[f"{name}.errors"] = int(self.errors.get(name, 0))
        out.update(self.values)
        return out

    def spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the span arrays: function id, parent id, start, end."""
        return (np.array(self.fn, dtype=np.int32), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def save(self, path: str) -> None:
        """Write the spans and the function-name table as an ``.npz`` file."""
        fn, parent, start, end = self.spans()
        np.savez(path, names=np.array(self.names), fn=fn, parent=parent, start=start, end=end)


class _ContextExecutor(ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitting context,
    so a span opened in a worker thread knows its parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)
