"""In-memory span recorder and function wrappers for the traced run.

A span has a name, a start, an end, a parent span and a run id.  Spans are
kept in flat arrays while the workload runs and written out once at the
end.  Self time (a span's duration minus the part its child spans cover)
and call counts are aggregated per name as spans close, so reading them
costs nothing extra.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict


class Tracer:
    """Spans of one traced workload run, plus named counters."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.active = defaultdict(int)  # open spans per name id
        self.counters = defaultdict(float)
        self._stack = []  # [span index, time covered by children]
        self._installed = []
        self.missing = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def is_active(self, name):
        nid = self._ids.get(name)
        return nid is not None and self.active[nid] > 0

    def wrap(self, fn, name, after=None, outermost=False):
        """Return fn wrapped in a span.

        name is a string or a function of (args, kwargs) giving one.
        after(tracer, args, kwargs, result) runs once the span has closed.
        With outermost=True a call made inside an open span of the same name
        runs unwrapped, so recursion is one span.
        """
        fixed = None if callable(name) else self.name_id(name)
        perf = time.perf_counter
        stack, active = self._stack, self.active
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, total, self_time = self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(args, kwargs))
            if outermost and active[nid]:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            active[nid] += 1
            ends.append(0.0)
            t0 = perf()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                ends[idx] = t1
                stack.pop()
                active[nid] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                total[nid] += dur
                self_time[nid] += dur - frame[1]
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, owner, attr, name, after=None, outermost=False):
        """Replace owner.attr by a wrapped version; remember the original."""
        if attr not in vars(owner):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(original, name, after, outermost))
        self._installed.append((owner, attr, original))

    def uninstall(self):
        """Put every original back, last installed first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def span_count(self):
        return len(self.span_start)

    def by_name(self, table, name):
        nid = self._ids.get(name)
        return table[nid] if nid is not None else 0

    def write(self, path):
        """Write every span as .npz arrays indexed by span (parent -1: root)."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 run_id=np.array(self.run_id))
