"""Spans recorded from outside the program, around calls into its layers.

Nothing here changes the program: the benchmark hands the service an
:class:`ExecutorBackend` wrapper as ``backend=`` and replaces a few
:class:`~repro.store.GraphStore` methods on the service's own store
instance.  Each wrapper times the call it forwards and appends a
:class:`Span` to the operation that is current on the calling thread
(the client thread: ``GrapeService.play`` and ``update`` run the engine
on the caller's thread).

Spans stay in memory; :func:`layer_totals` folds one operation's spans
into the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.runtime.executors import ExecutorBackend, ExecutorSession

#: public data attributes of a session (``pipe_bytes``, ``hang_timeout``,
#: ...): declared on the base class, so ``__getattr__`` would never see
#: them on a wrapper — they are mirrored as forwarding properties instead
_SESSION_FIELDS = tuple(name for name, value in vars(ExecutorSession).items()
                        if not name.startswith("_") and not callable(value))


@dataclass
class Span:
    name: str
    start: float
    end: float
    tags: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class OpTrace:
    """One client operation (a read query or an update batch) and the
    spans its calls into the program produced."""

    kind: str
    start: float = 0.0
    end: float = 0.0
    spans: List[Span] = field(default_factory=list)


class Tracer:
    """Thread-local "current operation" plus the span recorder."""

    def __init__(self):
        self._local = threading.local()

    def begin(self, kind: str) -> OpTrace:
        op = OpTrace(kind)
        self._local.op = op
        op.start = time.perf_counter()
        return op

    def end(self, op: OpTrace) -> None:
        op.end = time.perf_counter()
        self._local.op = None

    def record(self, name: str, start: float, end: float, **tags) -> None:
        op = getattr(self._local, "op", None)
        if op is not None:
            op.spans.append(Span(name, start, end, tags))

    def timed(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.record(name, start, time.perf_counter())


class TracedBackend(ExecutorBackend):
    """Transparent timing wrapper around an executor backend.

    Mirrors ``name``/``inline`` and forwards every other attribute read
    and write (``shm_stats``, ``pool_size``, ...) to the wrapped backend.
    """

    def __init__(self, inner: ExecutorBackend, tracer: Tracer):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "name", inner.name)
        object.__setattr__(self, "inline", inner.inline)

    def open(self, program, query, fragmentation, *, num_workers: int,
             failure_injector=None, trace=None):
        start = time.perf_counter()
        session = self._inner.open(program, query, fragmentation,
                                   num_workers=num_workers,
                                   failure_injector=failure_injector,
                                   trace=trace)
        self._tracer.record("executor.open", start, time.perf_counter(),
                            shm_fallbacks=session.shm_fallbacks)
        return TracedSession(session, self._tracer)

    def run_tasks(self, thunks, num_workers: int):
        return self._inner.run_tasks(thunks, num_workers)

    def close(self) -> None:
        self._inner.close()

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __setattr__(self, name: str, value) -> None:
        setattr(self._inner, name, value)

    def __repr__(self) -> str:
        return f"TracedBackend({self._inner!r})"


class TracedSession:
    """Timing proxy for one :class:`ExecutorSession`.

    ``step`` spans carry the slowest and mean per-fragment
    ``StepOutcome.elapsed``, so worker compute and dispatch wait can be
    told apart without any span inside the program.
    """

    def __init__(self, inner: ExecutorSession, tracer: Tracer):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_tracer", tracer)

    def init_states(self) -> None:
        self._tracer.timed("executor.init", self._inner.init_states)

    def apply_preprocess(self, payloads) -> None:
        self._tracer.timed("executor.init", self._inner.apply_preprocess,
                           payloads)

    def step(self, commands, **kwargs):
        start = time.perf_counter()
        outcomes = self._inner.step(commands, **kwargs)
        end = time.perf_counter()
        elapsed = [o.elapsed for o in outcomes.values()]
        self._tracer.record("executor.step", start, end,
                            worker_max=max(elapsed, default=0.0),
                            worker_mean=(statistics.fmean(elapsed)
                                         if elapsed else 0.0))
        return outcomes

    def collect_states(self):
        return self._tracer.timed("executor.collect",
                                  self._inner.collect_states)

    def replace_states(self, states) -> None:
        self._tracer.timed("executor.collect", self._inner.replace_states,
                           states)

    def close(self) -> None:
        self._tracer.timed("executor.close", self._inner.close)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __setattr__(self, name: str, value) -> None:
        setattr(self._inner, name, value)


def _forwarding_property(name: str) -> property:
    return property(lambda self: getattr(self._inner, name),
                    lambda self, value: setattr(self._inner, name, value))


for _name in _SESSION_FIELDS:
    setattr(TracedSession, _name, _forwarding_property(_name))


def trace_store(store, tracer: Tracer) -> None:
    """Time the service's store writes by wrapping its bound methods.

    ``maybe_compact`` persists a snapshot through ``persist_graph``; the
    nested persist is left out of ``store.persist`` so a compaction is
    counted once, as ``store.compact``.
    """
    append, compact, persist = (store.append_delta, store.maybe_compact,
                                store.persist_graph)
    compacting = threading.local()

    def append_delta(*args, **kwargs):
        return tracer.timed("store.append", append, *args, **kwargs)

    def maybe_compact(*args, **kwargs):
        compacting.on = True
        start = time.perf_counter()
        try:
            ran = compact(*args, **kwargs)
        finally:
            compacting.on = False
        tracer.record("store.compact" if ran else "store.compact_check",
                      start, time.perf_counter())
        return ran

    def persist_graph(*args, **kwargs):
        if getattr(compacting, "on", False):
            return persist(*args, **kwargs)
        return tracer.timed("store.persist", persist, *args, **kwargs)

    store.append_delta = append_delta
    store.maybe_compact = maybe_compact
    store.persist_graph = persist_graph


@dataclass
class LayerTotals:
    """One operation's spans folded into layer figures (seconds)."""

    engine_s: float = 0.0     # first executor.open -> last executor.close
    executor_s: float = 0.0   # all time inside backend/session calls
    open_s: float = 0.0       # open + init_states/preprocess + close
    dispatch_s: float = 0.0   # step wall minus the slowest worker
    collect_s: float = 0.0    # collect_states (checkpoint pulls included)
    compute_s: float = 0.0    # sum over steps of the slowest worker
    skews: List[float] = field(default_factory=list)
    store_append_s: float = 0.0
    store_compact_s: float = 0.0
    compactions: int = 0
    store_other_s: float = 0.0


def layer_totals(op: OpTrace) -> LayerTotals:
    t = LayerTotals()
    first_open: Optional[float] = None
    last_close: Optional[float] = None
    for span in op.spans:
        name, d = span.name, span.duration
        if name.startswith("executor."):
            t.executor_s += d
            if name == "executor.open":
                if first_open is None:
                    first_open = span.start
                t.open_s += d
            elif name in ("executor.init", "executor.close"):
                t.open_s += d
                if name == "executor.close":
                    last_close = span.end
            elif name == "executor.step":
                worker_max = span.tags["worker_max"]
                t.compute_s += worker_max
                t.dispatch_s += max(0.0, d - worker_max)
                if span.tags["worker_mean"] > 0:
                    t.skews.append(worker_max / span.tags["worker_mean"])
            elif name == "executor.collect":
                t.collect_s += d
        elif name == "store.append":
            t.store_append_s += d
        elif name == "store.compact":
            t.store_compact_s += d
            t.compactions += 1
        elif name.startswith("store."):
            t.store_other_s += d
    if first_open is not None and last_close is not None:
        t.engine_s = last_close - first_open
    return t
