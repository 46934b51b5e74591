"""In-memory span recorder for outside-in tracing.

A span is one call into a layer: its name, start, end and the index of
the span that was open when it began (its parent).  Functions are traced
by replacing them, for the duration of a ``with`` block, with wrappers
that open and close a span around the original; the originals are put
back when the block exits, also on error.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Recorder:
    """Collects spans and per-layer counts of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []     # [name, start, end, parent index or None]
        self.counts = {}    # "<layer>.calls" / "<layer>.symbols" -> int
        self._open = []

    def _begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(len(self.spans) - 1)

    def _end(self):
        self.spans[self._open.pop()][2] = self.clock()

    @contextmanager
    def span(self, name):
        self._begin(name)
        try:
            yield
        finally:
            self._end()

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name, symbols=None):
        """Return fn traced as layer `name`.

        Every call adds one to ``<name>.calls``; if `symbols` is given,
        ``symbols(args, kwargs)`` is added to ``<name>.symbols``.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.add(name + ".calls", 1)
            if symbols is not None:
                self.add(name + ".symbols", symbols(args, kwargs))
            self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end()
        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


@contextmanager
def installed(recorder, targets):
    """Trace each ``(owner, attribute, name, symbols)`` target inside the
    block; owner is the module or class where callers look the function
    up.  Every replaced attribute is restored on exit."""
    saved = []
    try:
        for owner, attr, name, symbols in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name, symbols))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Sum of self time per span name.

    A span's self time is its duration minus the part of its interval
    that its direct child spans cover.  Over a tree of properly nested
    spans the self times add up to the root's duration.
    """
    children = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        inside = [(max(s, start), min(e, end))
                  for s, e in children.get(i, ()) if e > start and s < end]
        out[name] = out.get(name, 0.0) + (end - start) - _covered(inside)
    return out
