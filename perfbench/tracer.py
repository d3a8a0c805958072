"""In-memory span recorder for one benchmark pass.

A span records wall time, user/sys CPU time and minor page faults around a
call the benchmark makes into a layer of the program.  `NullTracer` keeps
the untraced pass on the same code path at near-zero cost.  Standard
library only: the worker imports this before the program, so it must not
pull in numpy or scipy.
"""

import contextlib
import resource
import time


def _usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime, ru.ru_stime, ru.ru_minflt


class Tracer:
    """Spans form a tree through `parent`; every span carries the task it
    belongs to, so one task's spans share that identifier."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.task = None

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name, "task": self.task,
               "parent": self._stack[-1] if self._stack else None,
               "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        u0, s0, f0 = _usage()
        t0 = time.perf_counter()
        try:
            yield rec["attrs"]
        finally:
            t1 = time.perf_counter()
            u1, s1, f1 = _usage()
            self._stack.pop()
            rec.update(start=t0, end=t1, user_s=u1 - u0, sys_s=s1 - s0,
                       minflt=f1 - f0)

    def timed(self, name, fn):
        """Wrap a callback the program calls back into the benchmark.  The
        calls are aggregated into one child span of the span open when
        `timed` is called, instead of one span per call."""
        rec = {"id": len(self.spans), "name": name, "task": self.task,
               "parent": self._stack[-1] if self._stack else None,
               "attrs": {"calls": 0}, "start": 0.0, "end": 0.0,
               "user_s": 0.0, "sys_s": 0.0, "minflt": 0}
        self.spans.append(rec)
        attrs = rec["attrs"]
        clock = time.perf_counter

        def wrapper(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                rec["end"] += clock() - t0
                attrs["calls"] += 1

        return wrapper


class NullTracer:
    def span(self, name, **attrs):
        return contextlib.nullcontext(attrs)

    def timed(self, name, fn):
        return fn


def duration(rec):
    return rec["end"] - rec["start"]


def self_times(spans):
    """Span id -> duration minus the durations of its direct children."""
    out = {r["id"]: duration(r) for r in spans}
    for r in spans:
        if r["parent"] is not None:
            out[r["parent"]] -= duration(r)
    return out
