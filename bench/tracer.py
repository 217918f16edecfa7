"""Per-layer tracing of grassmult from outside the library.

A Tracer replaces the named public functions with timing wrappers in
every grassmult namespace that binds them (a function imported into
another module, or re-exported by the package, is one object under
several names), and puts the originals back on exit.  Each call is a
span with a start, an end, its parent span and the query it served.
Self time is a span's duration minus the time its child spans cover;
it is accumulated as spans close, so memory does not grow with the run.
Span records are kept for the first few queries only and written out
at the end.
"""

import functools
import sys
import time

SPAN_QUERIES = 20  # queries whose spans are kept


class Stat:
    __slots__ = ("calls", "self_s", "hits", "out")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0  # calls that returned True
        self.out = 0  # total len() of the results, where counted


class Tracer:
    """Wraps `targets`, a map "module.function" -> whether to sum len()
    of the results, in the modules of `package` while used as a context
    manager."""

    def __init__(self, targets, package="grassmult", clock=time.perf_counter):
        self.targets = dict(targets)
        self.package = package
        self.clock = clock
        self.stats = {name: Stat() for name in self.targets}
        self.spans = []  # (id, name, start, end, parent id, query id)
        self.query_id = 0
        self._stack = []  # [child time, span id] of every open span
        self._next_id = 0
        self._bindings = []

    def _wrap(self, name, fn, count_len):
        stat = self.stats[name]
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [0.0, self._next_id]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if self.query_id < SPAN_QUERIES:
                    self.spans.append((frame[1], name, start, end, parent, self.query_id))
            if result is True:
                stat.hits += 1
            if count_len:
                stat.out += len(result)
            return result

        return traced

    def __enter__(self):
        pkg = self.package
        modules = [m for k, m in list(sys.modules.items()) if k == pkg or k.startswith(pkg + ".")]
        for name, count_len in self.targets.items():
            module, function = name.split(".")
            original = getattr(sys.modules[pkg + "." + module], function)
            wrapper = self._wrap(name, original, count_len)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._bindings.append((m, attr, original))
        return self

    def __exit__(self, *exc):
        for m, attr, original in reversed(self._bindings):
            setattr(m, attr, original)
        self._bindings.clear()
        return False
