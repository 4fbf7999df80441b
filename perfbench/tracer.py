"""Span tracer installed from outside the program.

The benchmark never edits the simulator.  Instead it replaces public
functions with timing wrappers in the module namespaces that call them
(for example ``fhuplink.experiments.associate``, which is what
``realize_network`` looks up at call time).  Each call records a span:
layer name, start, end and the index of the enclosing span.  Spans stay in
memory and are written out once, when the run ends.  Optional hooks turn a
call's arguments and result into counters at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder for one single-process run."""

    def __init__(self):
        self.names = []            # layer names, indexed by span records
        self._name_ids = {}
        self.spans = []            # [name_id, start, end, parent_index]
        self.counters = defaultdict(float)
        self.absent = []           # layers whose function or hook is gone
        self._stack = []
        self._undo = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, hook=None, before=None):
        """Wrapper of fn that records one span per call.

        before() runs ahead of the call, and its value is handed to
        hook(tracer, arguments, result, state) after the span has closed;
        arguments maps every parameter name to its value.  The wrapper
        returns fn's result, and raises fn's exception, unchanged.  A hook
        that raises (say, because the function's arguments or result
        changed shape) is switched off and its layer reported as absent,
        so a traced run never fails for the tracer's sake.
        """
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        hook_on = [hook is not None]
        try:
            signature = inspect.signature(fn) if hook is not None else None
        except (TypeError, ValueError):
            signature = None
            self._hook_failed(name, hook_on)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = state = None
            if hook_on[0]:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    bound = bound.arguments
                    state = before() if before is not None else None
                except Exception:
                    self._hook_failed(name, hook_on)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook_on[0]:
                try:
                    hook(self, bound, result, state)
                except Exception:
                    self._hook_failed(name, hook_on)
            return result

        return wrapper

    def _hook_failed(self, name, hook_on):
        hook_on[0] = False
        if name not in self.absent:
            self.absent.append(name)

    def install(self, layer):
        """Wrap layer.function in every namespace of layer.callers.

        A function that no longer exists leaves the layer reported as
        absent instead of failing the run.
        """
        try:
            home = importlib.import_module(layer.module)
            fn = getattr(home, layer.function)
        except (ImportError, AttributeError):
            self.absent.append(layer.name)
            return
        wrapper = self.wrap(layer.name, fn, layer.hook, layer.before)
        for caller in layer.callers:
            try:
                mod = importlib.import_module(caller)
            except ImportError:
                continue
            if getattr(mod, layer.function, None) is fn:
                self._undo.append((mod, layer.function, fn))
                setattr(mod, layer.function, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def count(self, key, value=1.0):
        self.counters[key] += float(value)

    # --- analysis ------------------------------------------------------
    def arrays(self):
        """Spans as (name_id, start, end, parent) numpy arrays."""
        if not self.spans:
            empty = np.empty(0)
            return empty.astype(int), empty, empty, empty.astype(int)
        rec = np.asarray(self.spans, dtype=float)
        return (rec[:, 0].astype(int), rec[:, 1], rec[:, 2],
                rec[:, 3].astype(int))

    def layer_times(self):
        """Per layer: call count, total seconds, self seconds, durations.

        Self time is a span's duration minus the time its direct child
        spans cover; children run inside their parent on one thread, so
        they never overlap each other.
        """
        name_id, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = name_id == i
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(self_time[sel].sum()),
                         "durations": dur[sel]}
        return out

    def descendant_time(self, ancestor, names):
        """Seconds of the outermost spans of the named layers below ancestor."""
        name_id, start, end, parent = self.arrays()
        if ancestor not in self._name_ids:
            return 0.0
        anc_id = self._name_ids[ancestor]
        match = np.array([n in names for n in self.names], dtype=bool)
        total = 0.0
        for i in range(len(name_id)):
            if not match[name_id[i]]:
                continue
            # count a matching span only below the ancestor and only when no
            # matching span encloses it, so nested layers are not counted twice
            p = parent[i]
            below = False
            while p >= 0:
                if match[name_id[p]]:
                    break
                if name_id[p] == anc_id:
                    below = True
                    break
                p = parent[p]
            if below:
                total += end[i] - start[i]
        return total

    def dump(self, path, extra=None):
        """Write every span and counter as JSON."""
        data = {"names": self.names, "absent": self.absent,
                "counters": dict(self.counters),
                "spans": [[int(s[0]), s[1], s[2], int(s[3])] for s in self.spans]}
        if extra:
            data.update(extra)
        with open(path, "w") as fh:
            json.dump(data, fh)
