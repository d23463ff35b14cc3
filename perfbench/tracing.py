"""Run-time tracing of lowregnls from outside the package.

`Tracer.installed` wraps the public entry points of each package module,
plus the numpy kernels they call, at the names where callers look them up,
and restores the originals on exit.  Nothing under src/ is edited.

Every wrapped call bumps exact counters (calls, FFT rows and lengths, steps
requested).  With ``spans=True`` it also records a span: name, start, end,
thread and parent span.  A span opened on a thread with no open span of its
own (the study's pool threads) takes the main thread's innermost open span
as its parent, which during a study is the study span.  Spans stay in memory
until `write` dumps them.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager


def _rows_len(a, axis: int) -> tuple[int, int]:
    """(rows, length) of a transform of array a along axis."""
    n = a.shape[axis]
    return a.size // n, n


# (module attribute path, attribute, span name, what to count)
# Names are patched where callers look them up: harness and cli import
# evolve & co. by name, reference calls dft.* and splitting_step through
# its module globals, integrator.initialize calls initial_data.coefficients
# through the module.
PATCH_POINTS = (
    ("numpy.fft", "fft", "numpy.fft.fft", "fft"),
    ("numpy.fft", "ifft", "numpy.fft.ifft", "fft"),
    ("numpy", "dot", "numpy.dot", None),
    ("lowregnls.harness", "temporal_study", "harness.temporal_study", None),
    ("lowregnls.harness", "spatial_study", "harness.spatial_study", None),
    ("lowregnls.harness", "evolve", "integrator.evolve", "run"),
    ("lowregnls.harness", "splitting_evolve", "reference.splitting_evolve", "run"),
    ("lowregnls.harness", "initialize", "integrator.initialize", None),
    ("lowregnls.cli", "main", "cli.main", None),
    ("lowregnls.cli", "evolve", "integrator.evolve", "steps"),
    ("lowregnls.cli", "splitting_evolve", "reference.splitting_evolve", "steps"),
    ("lowregnls.cli", "initialize", "integrator.initialize", None),
    ("lowregnls.cli", "save_trajectory", "integrator.save_trajectory", None),
    ("lowregnls.cli", "load_trajectory", "integrator.load_trajectory", None),
    ("lowregnls.integrator", "evolve", "integrator.evolve", "steps"),
    ("lowregnls.integrator", "initialize", "integrator.initialize", None),
    ("lowregnls.reference", "splitting_step", "reference.splitting_step", None),
    ("lowregnls.dft", "forward", "dft.forward", "dft"),
    ("lowregnls.dft", "inverse", "dft.inverse", "dft"),
    ("lowregnls.initial_data", "coefficients", "initial_data.coefficients", None),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "thread", "parent", "attrs")

    def __init__(self, id_, name, start, thread, parent, attrs):
        self.id = id_
        self.name = name
        self.start = start
        self.end = None
        self.thread = thread
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Counters always; spans when ``spans`` is true."""

    def __init__(self, spans: bool = True):
        self.record_spans = spans
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, kind, name, args, kwargs, attrs) -> None:
        with self._lock:
            self.counts[name + ".calls"] += 1
            if kind == "fft":
                rows, n = _rows_len(args[0], kwargs.get("axis", -1))
                attrs.update(rows=rows, len=n)
                self.counts["numpy.fft.calls"] += 1
                self.counts["numpy.fft.rows"] += rows
                self.counts["numpy.fft.elements"] += rows * n
                self.counts["numpy.fft.len_max"] = max(self.counts["numpy.fft.len_max"], n)
            elif kind == "dft":
                _, n = _rows_len(args[0], kwargs.get("axis", -1))
                attrs.update(len=n)
                self.counts["dft.calls"] += 1
                self.counts["dft.len_max"] = max(self.counts["dft.len_max"], n)
            elif kind in ("run", "steps"):
                params = kwargs["params"] if "params" in kwargs else args[1]
                attrs.update(steps=params.steps, N=params.cutoff)
                self.counts["steps"] += params.steps
                if kind == "run":
                    self.counts["harness.runs"] += 1

    def _wrap(self, fn, name, kind):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            tracer._count(kind, name, args, kwargs, attrs)
            if not tracer.record_spans:
                return fn(*args, **kwargs)
            with tracer.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span around the block.  Its parent is this thread's
        innermost open span or, on a thread with none open, the main
        thread's."""
        stack = self._stack()
        parent = stack or self._main_stack
        span = Span(next(self._ids), name, 0.0, threading.get_ident(),
                    parent[-1].id if parent else None, attrs)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    @contextmanager
    def installed(self):
        """Patch every point in PATCH_POINTS for the duration of the block."""
        import importlib

        self._main_stack = self._stack()
        saved = []
        try:
            for modname, attr, name, kind in PATCH_POINTS:
                mod = importlib.import_module(modname)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(orig, name, kind))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def write(self, path) -> None:
        """Write the spans as a JSON array of records."""
        rows = [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "thread": s.thread, "parent": s.parent, **s.attrs}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class SpanTree:
    """Parent/child index over finished spans, with self time = duration
    minus the part of the span's interval its children cover."""

    def __init__(self, spans):
        self.spans = [s for s in spans if s.end is not None]
        self.children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, *names) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def self_time(self, span: Span) -> float:
        kids = self.children.get(span.id, ())
        inside = [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        return span.duration - covered([iv for iv in inside if iv[1] > iv[0]])

    def total(self, *names) -> float:
        return sum(s.duration for s in self.named(*names))

    def total_self(self, *names) -> float:
        return sum(self.self_time(s) for s in self.named(*names))
