"""Asynchronous GRAPE (the paper's announced future work, Section 8).

The paper closes with "an asynchronous version of GRAPE is also under
development" — this module builds it.  Instead of BSP supersteps with a
global barrier, fragments are activated individually as soon as messages
for them exist (GraphLab-style asynchrony), under the same PIE contract:

* ``PEval`` runs once per fragment, as before;
* thereafter a scheduler pops the fragment with the earliest-ready
  pending message, runs ``IncEval`` on *just that fragment*, folds its
  changed update parameters into the coordinator table through the same
  :class:`~repro.core.exchange.BorderExchange` the BSP engine uses, and
  enqueues the destinations — no barrier, no idle waiting for
  stragglers;
* termination: the queue drains (no pending messages anywhere).

Correctness: for programs satisfying the monotonic condition, the
asynchronous fixpoint equals the synchronous one — update parameters
move along the same partial order whatever the activation order, and the
engine only stops when no parameter can change (the Assurance Theorem's
argument does not use the barrier).  Tests assert async ≡ sync answers
for SSSP, CC and Sim.

Timing uses a discrete-event simulation: every fragment activation is
really executed and measured; it is scheduled on its physical worker at
``max(worker_free, message_ready)``; messages become ready after a
transfer delay from the sender's finish time.  The response time is the
latest finish — so stragglers only delay their own dependents, the
advertised benefit of asynchrony on skewed workloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.engine import EngineConfig
from repro.core.exchange import BorderExchange
from repro.core.monotonic import MonotonicityChecker
from repro.core.pie import ParamUpdates, PIEProgram
from repro.graph.graph import Graph
from repro.partition.base import Fragmentation
from repro.runtime.metrics import CostModel, RunMetrics

__all__ = ["AsyncGrapeEngine", "AsyncGrapeResult"]

#: the :class:`EngineConfig` fields the scheduler honors; the rest
#: configure BSP execution (backends, checkpoints, deadlines)
_ASYNC_OPTIONS = ("num_fragments", "partition", "cost_model",
                  "check_monotonic", "max_supersteps")


@dataclass
class AsyncGrapeResult:
    """Outcome of one asynchronous GRAPE run."""

    answer: Any
    metrics: RunMetrics
    fragmentation: Fragmentation
    states: Dict[int, Any]
    #: number of individual fragment activations (the async analogue of
    #: supersteps x active fragments)
    activations: int = 0


class AsyncGrapeEngine:
    """Barrier-free evaluation of PIE programs.

    Shares the PIE contract with :class:`~repro.core.engine.GrapeEngine`
    (``peval``/``inceval``/the parameter reports/``assemble`` and the
    aggregator); explicit designated/key-value channels are not supported
    (they encode BSP synchrony by construction).

    ``AsyncGrapeEngine(num_workers, **options)`` takes the
    :class:`~repro.core.engine.EngineConfig` fields ``num_fragments``,
    ``partition``, ``cost_model``, ``check_monotonic`` and
    ``max_supersteps`` — here the bound on fragment activations — and
    keeps the spec as :attr:`config`.
    """

    def __init__(self, num_workers: int, **options: Any):
        unsupported = sorted(set(options) - set(_ASYNC_OPTIONS))
        if unsupported:
            raise TypeError(f"AsyncGrapeEngine does not take "
                            f"{', '.join(unsupported)}")
        self.config = EngineConfig(num_workers=num_workers, **options)

    def _worker_of(self, fid: int) -> int:
        return fid % self.config.num_workers

    # ------------------------------------------------------------------
    def run(self, program: PIEProgram, query: Any,
            graph: Optional[Graph] = None,
            fragmentation: Optional[Fragmentation] = None,
            ) -> AsyncGrapeResult:
        """Compute ``Q(G)`` without barriers."""
        config = self.config
        if fragmentation is None:
            if graph is None:
                raise ValueError("pass either graph or fragmentation")
            fragmentation = config.build().make_fragmentation(graph)

        frags = fragmentation.fragments
        cost = config.cost_model or CostModel()
        checker = MonotonicityChecker(program.aggregator,
                                      enabled=config.check_monotonic)
        metrics = RunMetrics()
        exchange = BorderExchange(program, fragmentation)

        states: Dict[int, Any] = {f.fid: program.init_state(query, f)
                                  for f in frags}
        payloads = program.preprocess(query, fragmentation)
        if payloads:
            metrics.comm_bytes += exchange.charge_payloads(payloads)
            metrics.comm_messages += len(payloads)
            for fid, payload in payloads.items():
                program.apply_preprocess(query, frags[fid], states[fid],
                                         payload)

        pending: Dict[int, ParamUpdates] = {}     # fid -> message content
        ready_at: Dict[int, float] = {}           # fid -> earliest start
        worker_free = [0.0] * config.num_workers

        def account_dirty(fid: int, finish: float) -> None:
            """Fold fragment fid's report and enqueue its destinations."""
            up_bytes, up_msgs, dirty = exchange.fold_states(
                query, states, checker, fids=(fid,))
            metrics.comm_bytes += up_bytes
            metrics.comm_messages += up_msgs
            batches = exchange.compose(dirty)
            # The sender already holds what it just reported.
            batches.pop(fid, None)
            for dest, batch in batches.items():
                nbytes = exchange.charge_params(batch)
                transfer = (nbytes * cost.seconds_per_byte
                            + cost.sync_latency_s)
                metrics.comm_bytes += nbytes
                metrics.comm_messages += 1
                pending.setdefault(dest, {}).update(batch)
                ready_at[dest] = max(ready_at.get(dest, 0.0),
                                     finish + transfer)

        def activate(fid: int, start_clock: float, phase, *message) -> None:
            """Run one activation on its worker's clock and fold it."""
            t0 = time.perf_counter()
            phase(query, frags[fid], states[fid], *message)
            elapsed = time.perf_counter() - t0
            metrics.total_compute_s += elapsed
            finish = worker_free[self._worker_of(fid)] = start_clock + elapsed
            account_dirty(fid, finish)

        # ---------------- PEval: every fragment once -------------------
        for frag in frags:
            activate(frag.fid, worker_free[self._worker_of(frag.fid)],
                     program.peval)
        activations = len(frags)

        # ---------------- asynchronous IncEval loop --------------------
        while pending:
            if activations >= config.max_supersteps:
                raise RuntimeError(
                    f"no fixpoint after {config.max_supersteps} "
                    "activations; check the monotonic condition")
            # Schedule the fragment that can start earliest.
            def start_time(fid: int) -> float:
                return max(worker_free[self._worker_of(fid)],
                           ready_at.get(fid, 0.0))

            fid = min(pending, key=lambda f: (start_time(f), f))
            message = pending.pop(fid)
            ready_at.pop(fid, None)
            activate(fid, start_time(fid), program.inceval, message)
            activations += 1

        # ---------------- Assemble -------------------------------------
        t0 = time.perf_counter()
        answer = program.assemble(query, fragmentation, states)
        assemble_s = time.perf_counter() - t0
        metrics.total_compute_s += assemble_s
        metrics.parallel_time_s = max(worker_free) + assemble_s
        metrics.supersteps = activations  # async analogue

        return AsyncGrapeResult(answer=answer, metrics=metrics,
                                fragmentation=fragmentation,
                                states=states, activations=activations)
