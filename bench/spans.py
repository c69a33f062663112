"""Spans around the package's public functions, installed from outside.

Modules import names by value (`from .geometry import mahalanobis_sq`
in the estimator), so a wrapper replaces every module attribute, and
every dict value, that is the same function object, not only the one in
the defining module. Public methods of public classes are wrapped on the
class. Spans stay in memory; per-layer figures are computed from them
after the traced round, and `uninstall` puts every original back.
"""

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

MODULES = ("cli", "correction", "estimator", "geometry", "models", "radius")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, op, parent index, start, end]
        self.op = None
        self._local = threading.local()
        self._undo = []

    def _wrap(self, name, fn):
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        return traced

    def _set(self, owner, attr, value):
        old = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
        self._undo.append((owner, attr, old))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self):
        wrappers = {}  # id(original function) -> wrapper
        mods = [importlib.import_module(f"thames.{m}") for m in MODULES]
        for mod in mods:
            short = mod.__name__.split(".")[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(short, obj)
        for mod in mods + [sys.modules["thames"]]:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if id(obj) in wrappers:
                    self._set(mod, name, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            self._set(obj, key, wrappers[id(val)])

    def _wrap_methods(self, short, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{short}.{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, name, type(raw)(self._wrap(label, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, name, self._wrap(label, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- aggregation -------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, op, parent, start, end) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child[i]
        return out

    def total_s(self, name, op=None):
        return sum((end - start for n, o, _, start, end in self.spans
                    if n == name and (op is None or o == op)), 0.0)
