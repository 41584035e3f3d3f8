"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces the names that the calling modules bind (for
example ``pipeline.update_region`` or ``decomp.exchange_halos``) with
wrappers that record one span per call: id, name, engine call, start, end,
thread and parent span.  ``uninstall`` puts the originals back, so runs
that report end-to-end figures execute the package untouched.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    call: int | None      # root span of the engine call that caused it
    start: float
    end: float
    thread: int
    parent: int | None
    value: float          # cells, bytes or threads, depending on the name

    @property
    def dur(self) -> float:
        return self.end - self.start


def _cells(lo, hi) -> int:
    n = 1
    for l, h in zip(lo, hi):
        n *= h - l
    return n


def _targets(mods: dict):
    """(owner, attribute, span name, value from (args, result)) per wrapper.

    Each owner is the module or class whose binding the package's own
    callers look up at call time.
    """
    g, k, p, d, t = (mods[m] for m in
                     ("grid", "kernel", "pipeline", "decomp", "transport"))
    region = lambda a, r: _cells(a[3], a[4])       # (src, dst, ghost, lo, hi)
    cregion = lambda a, r: _cells(a[1], a[2])      # (grid, lo, hi, ...)
    threads = lambda a, r: a[1].n_threads          # (grid, cfg, sweeps, ...)
    return [
        (k, "sweep_naive", "kernel.sweep", None),
        (k, "sweep_spatial_blocked", "kernel.sweep", None),
        (k, "update_region", "kernel.region", region),
        (p, "update_region", "kernel.region", region),
        (d, "update_region", "kernel.region", region),
        (p, "update_region_compressed", "kernel.region", cregion),
        (g, "allocate", "grid.allocate", None),
        (g.FillPattern, "evaluate", "grid.evaluate", None),
        (d, "extract_layers", "grid.pack", lambda a, r: r.nbytes),
        (d, "inject_layers", "grid.unpack", None),
        (p, "run_node_sweeps", "pipeline.run", threads),
        (d, "run_node_sweeps", "pipeline.run", threads),
        (p, "build_schedule", "pipeline.schedule", None),
        (d, "exchange_halos", "decomp.exchange", None),
        (d, "outer_step", "decomp.outer_step", None),
        (t.Endpoint, "send", "transport.send", None),
        (t.Endpoint, "recv", "transport.recv", None),
        (t, "encode_message", "transport.encode", lambda a, r: len(r)),
        (t, "decode_message", "transport.decode", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[int, str] = {}  # engine call span -> engine name
        self._root: int | None = None    # engine call now running
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._gates: list[Counter] = []  # one per thread, never shared
        self._saved: list = []

    def engine_call(self, engine: str, fn):
        """Run ``fn()`` as one engine call: the root span of every span it
        causes, on every thread it starts.  Returns (result, call id)."""
        self._root = sid = next(self._ids)
        self.calls[sid] = engine
        t0 = time.perf_counter()
        try:
            return fn(), sid
        finally:
            self.spans.append(Span(sid, "engine.call", sid, t0,
                                   time.perf_counter(), threading.get_ident(),
                                   None, 0.0))
            self._root = None

    def _wrap(self, fn, name, value):
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            root = self._root
            st = getattr(self._local, "stack", None)
            if st is None:
                st = self._local.stack = []
            parent = st[-1] if st else root
            st.append(sid)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.pop()
            v = value(args, res) if value is not None else 0.0
            self.spans.append(Span(sid, name, root, t0, t1,
                                   threading.get_ident(), parent, v))
            return res
        return wrapper

    def _gate(self, fn):
        def may_proceed(*args, **kwargs):
            ok = fn(*args, **kwargs)
            c = getattr(self._local, "gates", None)
            if c is None:
                c = self._local.gates = Counter()
                self._gates.append(c)
            c[(self._root, ok)] += 1
            return ok
        return may_proceed

    def gate_counts(self) -> Counter:
        """``may_proceed`` results as {(engine call, passed): count}."""
        total = Counter()
        for c in self._gates:
            total.update(c)
        return total

    def install(self, mods: dict) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, value in _targets(mods):
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, value))
        p = mods["pipeline"]
        self._patch(p, "may_proceed", self._gate(p.may_proceed))

    def _patch(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)
