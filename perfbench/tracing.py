"""Spans around calls into the package's public functions, recorded from
the benchmark's own code, and the per-layer numbers derived from them.

Nothing inside the package is changed: a traced run replaces module
attributes with timing wrappers for its duration and puts them back.
"""

from __future__ import annotations

import re
import sys
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span log.  A span is (name, start, end, parent, error,
    info): parent is the index of the enclosing span or -1, error the
    exception type name or None, info a dict of counts the layer reports."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, info: dict | None = None):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, None, info or {}]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException as exc:
            rec[4] = type(exc).__name__
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, describe=None):
        """fn with a span around every call; describe(args, result) may
        return counts to attach to the span."""
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if describe is not None:
                    rec[5].update(describe(args, result))
                return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap each (module, function name, describe) for the duration,
        including every alias of the function in other pathamp modules
        (wave_optics imports quad_oscillatory by name, for example)."""
        saved = []
        try:
            for module, fname, describe in targets:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{module.__name__.split('.')[-1]}.{fname}",
                                    original, describe)
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("pathamp")
                            and getattr(mod, fname, None) is original):
                        saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
            yield self
        finally:
            for mod, fname, original in reversed(saved):
                setattr(mod, fname, original)

    def busy_ms(self, name: str, where=None) -> float:
        return 1e3 * sum(s[2] - s[1] for s in self.spans
                         if s[0] == name and (where is None or where(s)))

    def layer(self, name: str) -> dict:
        """calls, busy_ms, failed and per-error counts of one span name, plus
        the mean of each numeric info field."""
        spans = [s for s in self.spans if s[0] == name]
        out = {"calls": len(spans), "busy_ms": self.busy_ms(name),
               "failed": sum(s[4] is not None for s in spans), "errors": {}}
        for s in spans:
            if s[4] is not None:
                out["errors"][s[4]] = out["errors"].get(s[4], 0) + 1
        fields = {k for s in spans for k in s[5]}
        for k in fields:
            vals = [s[5][k] for s in spans if k in s[5]]
            out[k + "_mean"] = sum(vals) / len(vals)
        return out

    def dump(self) -> list:
        """Spans as JSON-ready dicts, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": s[0], "start_ms": 1e3 * (s[1] - t0),
                 "end_ms": 1e3 * (s[2] - t0), "parent": s[3], "error": s[4],
                 **s[5]} for s in self.spans]


_IMPORTTIME_RE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def parse_importtime(stderr: str) -> dict:
    """{module: cumulative ms} from `python -X importtime` output.  The
    cumulative time of a module counts the imports it triggered first."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME_RE.match(line)
        if m:
            out[m.group(3).strip()] = int(m.group(2)) / 1000.0
    return out
