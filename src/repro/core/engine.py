"""The GRAPE parallel engine (paper Sections 3.1 and 6).

Given a PIE program, a query and a partitioned graph, the engine runs the
paper's three phases as a simultaneous fixpoint over fragments:

1. **PEval** — superstep 1: every worker evaluates the batch sequential
   algorithm on its fragment and reports its update parameters
   ``C_i.x̄`` to the coordinator;
2. **IncEval** — iterated supersteps: the coordinator's
   :class:`~repro.core.exchange.BorderExchange` folds reports into a
   per-parameter global table using the program's ``aggregateMsg``
   aggregator and composes a message ``M_j`` for every fragment holding
   a changed border node (destinations deduced from the fragmentation
   graph ``G_P``); each worker with a non-empty message incrementally
   computes ``Q(F_i ⊕ M_i)``;
3. **Assemble** — when no update parameter changed and no explicit
   messages are pending, the coordinator pulls partial results and
   combines them.

Besides update parameters, the engine carries the paper's two explicit
message channels (Section 3.5): *designated* worker-to-worker messages and
*key-value* pairs shuffled by key at the coordinator — these power the
Simulation Theorem compilers (:mod:`repro.core.bsp_sim`,
:mod:`repro.core.mapreduce_sim`, :mod:`repro.core.pram_sim`).

The same exchange charges communication both ways (changed-parameter
reports up to the coordinator, composed messages down), in serialized
bytes.  Supersteps, per-superstep max-worker compute time and traffic
are folded into :class:`~repro.runtime.metrics.RunMetrics` by the
simulated cluster.

The engine also implements:

* the paper's **GRAPE-NI** ablation (Exp-2): ``incremental=False`` applies
  messages and re-runs ``PEval`` instead of ``IncEval``;
* **monotonicity checking** (Assurance Theorem instrumentation);
* **fault tolerance** (Section 6): per-superstep checkpoints through an
  :class:`~repro.runtime.fault.Arbitrator`; a worker failure — a real
  process death or an ``exec.step`` crash injected through the
  :class:`~repro.resilience.faults.FaultPlane` — rolls the failed
  superstep back and replays it.

Every engine parameter lives on one frozen :class:`EngineConfig`;
``GrapeEngine(n, **options)`` builds one and keeps it as ``config``.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from repro.core.exchange import BorderExchange
from repro.core.monotonic import MonotonicityChecker
from repro.core.pie import PIEProgram
from repro.obs import events as _events
from repro.obs.trace import Span
from repro.graph.graph import Graph
from repro.partition.base import Fragmentation, PartitionStrategy
from repro.partition.strategies import HashPartition
from repro.resilience import faults as fault_plane_mod
from repro.resilience.errors import DeadlineExceeded, QueryCancelled
from repro.resilience.faults import FaultPlane
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.executors import (PHASE_IDLE, PHASE_INC, PHASE_NI,
                                     PHASE_PEVAL,
                                     ExecutorBackend, StepCommand,
                                     WorkerHung, WorkerProcessDied,
                                     resolve_backend)
from repro.runtime.fault import Arbitrator
from repro.runtime.metrics import CostModel, RunMetrics

__all__ = ["EngineConfig", "GrapeEngine", "GrapeResult"]


@dataclass(frozen=True)
class EngineConfig:
    """A reusable engine specification — the one source of truth for
    every :class:`GrapeEngine` parameter.

    One config can build any number of engines — the serving layer
    (:mod:`repro.service`) stores a config instead of an engine so each
    query runs on a fresh engine while sharing one declared setup, and so
    the fragmentation cache can be keyed on the partition spec.
    """

    #: physical workers ``n``
    num_workers: int = 4
    #: virtual workers ``m`` (``None`` means ``n``); when larger, several
    #: fragments share a physical worker (paper Section 3.1)
    num_fragments: Optional[int] = None
    #: partition strategy ``P``; ``None`` resolves to hash edge-cut.
    #: Ignored when a prebuilt fragmentation is passed to
    #: :meth:`GrapeEngine.run`.
    partition: Optional[PartitionStrategy] = None
    cost_model: Optional[CostModel] = None
    #: execution backend: ``"serial"``, ``"thread"``, ``"process"`` or an
    #: :class:`~repro.runtime.executors.ExecutorBackend` instance.
    #: ``None`` defers to the ``REPRO_BACKEND`` environment variable.
    backend: Union[str, ExecutorBackend, None] = None
    #: ``False`` selects the GRAPE-NI ablation mode
    incremental: bool = True
    #: verify the monotonic condition at runtime (small overhead)
    check_monotonic: bool = False
    #: safety bound on supersteps
    max_supersteps: int = 100_000
    #: directory for per-superstep disk checkpoints (typically
    #: :meth:`repro.store.GraphStore.checkpoint_dir`).  Enables recovery
    #: from *real* worker deaths under the process backend.
    checkpoint_dir: Optional[str] = None
    #: per-query time budget in seconds; past it the run raises
    #: :exc:`~repro.resilience.errors.DeadlineExceeded`.  Enforced at
    #: every superstep boundary on all backends and *inside* worker
    #: pipe waits on the process backend (an inline superstep already in
    #: compute finishes first — boundary granularity).
    deadline_s: Optional[float] = None
    #: seconds without a worker heartbeat before the process backend
    #: declares the worker hung, kills it and (checkpoint permitting)
    #: replaces it.  ``None`` disables detection (seed behavior:
    #: pipe recvs block indefinitely).
    heartbeat_timeout_s: Optional[float] = None
    #: deterministic fault schedule for this run's ``exec.step`` site
    #: (see :class:`~repro.resilience.faults.FaultPlane`); ``None``
    #: falls back to the process-globally installed plane, if any.
    #: Injected crashes recover through checkpoints on every backend.
    fault_plane: Optional[FaultPlane] = None

    def __post_init__(self):
        if self.num_workers < 1:
            raise ValueError("need at least one worker")
        if self.effective_fragments < self.num_workers:
            raise ValueError("virtual workers m must be >= physical n")
        if self.partition is None:
            object.__setattr__(self, "partition", HashPartition())

    @property
    def effective_fragments(self) -> int:
        """The virtual-worker count ``m`` an engine built from this
        config will use."""
        return self.num_fragments or self.num_workers

    def replace(self, **changes) -> "EngineConfig":
        """A copy of this config with the given fields overridden."""
        return dataclasses.replace(self, **changes)

    def build(self) -> "GrapeEngine":
        """Instantiate a fresh engine from this spec."""
        return GrapeEngine.from_config(self)


@dataclass
class GrapeResult:
    """Outcome of one GRAPE run."""

    answer: Any
    metrics: RunMetrics
    fragmentation: Fragmentation
    states: Dict[int, Any]
    recoveries: int = 0
    #: the span subtree covering this run, when it executed under
    #: tracing (``GrapeEngine.run(trace=...)`` /
    #: ``GrapeService(tracing=True)``); ``None`` otherwise
    trace: Optional[Span] = None
    #: the coordinator's border exchange at the fixpoint — the reported
    #: values and aggregated table a standing query keeps maintaining
    exchange: Optional[BorderExchange] = None

    @property
    def supersteps(self) -> int:
        return self.metrics.supersteps


class GrapeEngine:
    """Parallel evaluation of PIE programs on the simulated cluster.

    ``GrapeEngine(num_workers, **options)`` accepts every
    :class:`EngineConfig` field as a keyword option and keeps the
    resulting spec as :attr:`config`, which every read goes through.
    """

    def __init__(self, num_workers: int, **options: Any):
        self.config = EngineConfig(num_workers=num_workers, **options)

    @classmethod
    def from_config(cls, config: EngineConfig) -> "GrapeEngine":
        """Build an engine that runs with the given :class:`EngineConfig`."""
        engine = cls.__new__(cls)
        engine.config = config
        return engine

    def _resolve_backend(self) -> ExecutorBackend:
        """Pick the execution backend for a run: the configured
        ``backend``, else the ``REPRO_BACKEND`` environment variable,
        else serial."""
        return resolve_backend(self.config.backend)

    # ------------------------------------------------------------------
    def make_fragmentation(self, graph: Graph) -> Fragmentation:
        """Partition ``graph`` once, reusable across queries (paper:
        "G is partitioned once for all queries Q posed on G")."""
        return self.config.partition.partition(
            graph, self.config.effective_fragments)

    # ------------------------------------------------------------------
    def run(self, program: PIEProgram, query: Any,
            graph: Optional[Graph] = None,
            fragmentation: Optional[Fragmentation] = None, *,
            cancel: Optional[threading.Event] = None,
            trace: Optional[Span] = None) -> GrapeResult:
        """Compute ``Q(G)`` with the given PIE program.

        Execution is delegated to the configured backend through the PIE
        session protocol: each superstep is described as one
        :class:`~repro.runtime.executors.StepCommand` per fragment and
        executed wherever the fragment lives (in-process for the serial
        and thread backends, in a pooled worker process for the process
        backend).  All coordinator logic — report folding, aggregation,
        message composition, byte accounting — runs here, through one
        :class:`~repro.core.exchange.BorderExchange`, regardless of
        backend, so answers, superstep counts and communication volumes
        are backend-invariant.

        ``cancel`` is a cooperative abort flag (set by
        :meth:`~repro.service.tickets.QueryTicket.cancel`): the run
        checks it at every superstep boundary — and inside process-
        backend pipe waits — and raises
        :exc:`~repro.resilience.errors.QueryCancelled`.  With
        ``deadline_s`` set, a budget overrun raises
        :exc:`~repro.resilience.errors.DeadlineExceeded` at the same
        points; with ``heartbeat_timeout_s`` set, a process worker that
        stops heart-beating is killed and — when checkpoints are
        enabled — replaced, the run continuing with identical answers.

        ``trace`` hangs the run's span tree off the given parent span:
        session open (with worker-side shm-attach / delta-replay /
        fragment-load children on the process backend), one
        ``superstep`` span per round with per-worker children carrying
        worker-side compute/report timings, and assemble.  ``None``
        (the default) traces nothing and adds no measurable work.
        """
        if fragmentation is None:
            if graph is None:
                raise ValueError("pass either graph or fragmentation")
            fragmentation = self.make_fragmentation(graph)

        config = self.config
        backend = self._resolve_backend()
        wall_start = time.perf_counter()
        plane = config.fault_plane or fault_plane_mod.active()
        deadline = (time.monotonic() + config.deadline_s
                    if config.deadline_s is not None else None)
        # Checkpoint fault tolerance turns on whenever something can
        # fail mid-run *and* recovery is possible: a disk checkpoint
        # dir, or a fault plane with pending executor faults (in-memory
        # checkpoints restore through replace_states on every backend;
        # a checkpoint_dir is needed only for restores that must
        # outlive the coordinator's memory).
        ft_enabled = (config.checkpoint_dir is not None
                      or (plane is not None and plane.may_fire("exec.")))
        cluster = SimulatedCluster(config.num_workers,
                                   cost_model=config.cost_model,
                                   backend=backend)
        arbitrator = Arbitrator(checkpoint_dir=config.checkpoint_dir)
        checker = MonotonicityChecker(program.aggregator,
                                      enabled=config.check_monotonic)

        frags = fragmentation.fragments
        # The live session sits in a one-slot box: recovery from a real
        # worker death (process backend) swaps in a fresh session on
        # surviving/new pool workers, and every later use must see it.
        open_span = (trace.child("session.open", backend=backend.name)
                     if trace is not None else None)
        session_box = [backend.open(program, query, fragmentation,
                                    num_workers=config.num_workers,
                                    trace=open_span)]
        if open_span is not None:
            open_span.finish()
        session_box[0].hang_timeout = config.heartbeat_timeout_s

        def reopen():
            try:
                session_box[0].close()
            except Exception:
                pass
            # Retried: another pool worker may die while the replacement
            # session is being opened (each attempt culls the handles it
            # found dead, so progress is guaranteed).
            for attempt in range(5):
                try:
                    session_box[0] = backend.open(
                        program, query, fragmentation,
                        num_workers=config.num_workers)
                    session_box[0].hang_timeout = config.heartbeat_timeout_s
                    return
                except WorkerProcessDied:
                    if attempt == 4:
                        raise

        def span(name):
            return trace.child(name) if trace is not None else nullcontext()

        try:
            with span("init_states"):
                session_box[0].init_states()

            exchange = BorderExchange(program, fragmentation)
            # Optional pre-PEval data shipping (SubIso neighborhoods).
            payloads = program.preprocess(query, fragmentation)
            if payloads:
                with span("preprocess"):
                    session_box[0].apply_preprocess(payloads)

            def snapshot_state():
                return {"states": session_box[0].collect_states(),
                        **exchange.snapshot()}

            def restore(snap):
                session_box[0].replace_states(snap["states"])
                exchange.restore(snap)

            step_seq = [0]

            def traced_step(commands, **kw):
                """One superstep through ``_step_with_recovery``, under a
                ``superstep`` span when tracing: the span id rides every
                command across the pipe, and worker-side measurements
                come back re-attached as per-worker child spans."""
                if trace is None:
                    return self._step_with_recovery(
                        cluster, session_box, arbitrator, commands, **kw)
                index = step_seq[0]
                step_seq[0] += 1
                phase = next((c.phase for c in commands.values()
                              if c.phase != PHASE_IDLE), PHASE_IDLE)
                span = trace.child("superstep", index=index, phase=phase)
                for command in commands.values():
                    command.span_id = span.span_id
                try:
                    outcomes = self._step_with_recovery(
                        cluster, session_box, arbitrator, commands, **kw)
                finally:
                    span.finish()
                for fid in sorted(outcomes):
                    outcome = outcomes[fid]
                    worker_span = span.record("worker", outcome.elapsed,
                                              fid=fid)
                    for name, duration_s, tags in outcome.spans:
                        worker_span.record(name, duration_s, **tags)
                return outcomes

            # ------------- superstep 1: PEval --------------------------
            if ft_enabled:
                arbitrator.checkpoint(snapshot_state())

            outcomes = traced_step(
                {f.fid: StepCommand(phase=PHASE_PEVAL) for f in frags},
                bytes_in=exchange.charge_payloads(payloads or {}),
                msgs_in=1 if payloads else 0,
                restore=restore, reopen=reopen, plane=plane,
                deadline=deadline, budget_s=config.deadline_s,
                cancel=cancel)
            step = exchange.settle(outcomes, checker, first_round=True)
            if ft_enabled:
                arbitrator.checkpoint(snapshot_state())

            # ------------- IncEval supersteps --------------------------
            rounds = 1
            while step.pending and rounds < config.max_supersteps:
                rounds += 1
                active = (set(step.messages) | set(step.designated)
                          | set(step.keyvalue))
                # GRAPE-NI ablation: apply the message and redo PEval
                # from scratch instead of IncEval.
                phase = PHASE_INC if config.incremental else PHASE_NI
                commands = {
                    f.fid: (StepCommand(phase=phase,
                                        message=step.messages.get(f.fid, {}),
                                        designated=step.designated.get(f.fid),
                                        keyvalue=step.keyvalue.get(f.fid))
                            if f.fid in active else StepCommand())
                    for f in frags}

                outcomes = traced_step(
                    commands, bytes_in=step.nbytes, msgs_in=step.count,
                    restore=restore, reopen=reopen, plane=plane,
                    deadline=deadline, budget_s=config.deadline_s,
                    cancel=cancel)
                step = exchange.settle(outcomes, checker, first_round=False)
                if ft_enabled:
                    arbitrator.checkpoint(snapshot_state())

            if step.pending:
                raise RuntimeError(
                    f"no fixpoint after {config.max_supersteps} supersteps; "
                    "check the monotonic condition of the PIE program")

            # ------------- Assemble ------------------------------------
            states = session_box[0].collect_states()
            start = time.perf_counter()
            answer = program.assemble(query, fragmentation, states)
            assemble_s = time.perf_counter() - start
            if trace is not None:
                trace.record("assemble", assemble_s)
            cluster.metrics.parallel_time_s += assemble_s
            cluster.metrics.total_compute_s += assemble_s
            # Trailing reports of the final round are communication too.
            cluster.metrics.comm_bytes += step.nbytes
            cluster.metrics.comm_messages += step.count
            # Physical-execution figures come from the live session — a
            # recovery mid-run re-opened it, so they describe the session
            # that finished the run.
            session = session_box[0]
            cluster.metrics.pipe_bytes = session.pipe_bytes
            cluster.metrics.delta_bytes_shipped = session.delta_bytes_shipped
            cluster.metrics.fragments_shipped = session.fragments_shipped
            cluster.metrics.fragments_delta_shipped = \
                session.fragments_delta_shipped
            cluster.metrics.fragment_bytes_shipped = \
                session.fragment_bytes_shipped
            cluster.metrics.shm_fallbacks = session.shm_fallbacks
            shm_stats = getattr(backend, "shm_stats", None)
            if shm_stats is not None:
                segs, mapped = shm_stats()
                cluster.metrics.shm_segments_active = segs
                cluster.metrics.shm_bytes_mapped = mapped
            cluster.metrics.wall_clock_s = time.perf_counter() - wall_start
            cluster.metrics.recoveries = arbitrator.recoveries

            return GrapeResult(answer=answer, metrics=cluster.metrics,
                               fragmentation=fragmentation, states=states,
                               recoveries=arbitrator.recoveries,
                               trace=trace, exchange=exchange)
        finally:
            session_box[0].close()
            arbitrator.discard()

    # ------------------------------------------------------------------
    @staticmethod
    def _step_with_recovery(cluster, session_box, arbitrator, commands,
                            bytes_in, msgs_in, restore, reopen=None, *,
                            plane=None, deadline=None, budget_s=None,
                            cancel=None):
        """Run one superstep; recover failures and replay (the
        arbitrator's task-transfer protocol).

        Two failure shapes are handled:

        * an **injected** ``exec.step`` crash on an inline backend
          surfaces as a :exc:`~repro.runtime.fault.WorkerFailure` in the
          outcomes — the failed attempt is recorded (its compute
          happened), the checkpoint is restored and the step replays;
        * a **real worker death**
          (:exc:`~repro.runtime.executors.WorkerProcessDied`, process
          backend — including :exc:`~repro.runtime.executors.WorkerHung`,
          a worker killed for missing heartbeats) aborts the exchange
          mid-flight — with a checkpoint available the session is
          re-opened on fresh pool workers, the checkpoint restored into
          them and the step replayed.  Nothing is recorded for the
          aborted attempt (no complete outcome set exists), so a
          recovered run's logical metrics — supersteps, traffic — equal
          an uninterrupted run's.  A death during the recovery itself
          (the replacement worker dies while states are being restored)
          retries the whole sequence.  Known limitation: a death landing
          inside the *checkpoint* exchange (``collect_states``) rather
          than the step fails the run loudly with
          :exc:`WorkerProcessDied` — the next consistent resume point
          would predate work the coordinator has already folded; callers
          treat it as a failed (safely re-runnable) query.

        The fault plane's ``exec.step`` site is consulted here, exactly
        once per fragment per *logical* superstep; a fired action rides
        the :class:`StepCommand` to wherever the fragment executes.
        Every replay strips the embedded faults first — each failure
        fires exactly once, so recovery always converges.  ``deadline``
        (absolute monotonic) and ``cancel`` are checked before every
        attempt; an unrecoverable hang is reported as
        :exc:`~repro.resilience.errors.DeadlineExceeded` when the query
        had a time budget (the caller asked for bounded latency, and
        that is the bound that broke).
        """
        if plane is not None:
            for fid in sorted(commands):
                action = plane.check("exec.step", key=fid)
                if action is not None:
                    commands[fid].fault = action

        def strip_faults():
            for command in commands.values():
                command.fault = None

        attempts = 0
        while True:
            attempts += 1
            if cancel is not None and cancel.is_set():
                raise QueryCancelled(
                    "query cancelled at a superstep boundary")
            if deadline is not None and time.monotonic() > deadline:
                raise DeadlineExceeded(
                    f"query exceeded its {budget_s}s budget at a "
                    "superstep boundary", budget_s=budget_s)
            try:
                outcomes = session_box[0].step(commands, deadline=deadline,
                                               cancel=cancel)
            except DeadlineExceeded as exc:
                # Raised inside a pipe wait, where only the absolute
                # deadline is known — stamp the budget on the way out.
                strip_faults()
                if exc.budget_s is None:
                    exc.budget_s = budget_s
                raise
            except WorkerProcessDied as exc:
                strip_faults()
                if (attempts > 25 or reopen is None
                        or not arbitrator.has_checkpoint):
                    if isinstance(exc, WorkerHung) and deadline is not None:
                        raise DeadlineExceeded(
                            f"worker hung and could not be replaced "
                            f"within the {budget_s}s budget: {exc}",
                            budget_s=budget_s) from exc
                    raise
                while True:
                    try:
                        reopen()
                        restore(arbitrator.restore())
                        break
                    except WorkerProcessDied:
                        attempts += 1
                        if attempts > 25:
                            raise
                _events.emit("worker.recovered",
                             error=type(exc).__name__, attempts=attempts)
                continue
            times = [outcomes[fid].elapsed for fid in sorted(outcomes)]
            cluster.record_superstep(times, bytes_shipped=bytes_in,
                                     num_messages=msgs_in)
            failure = next((o.failed for o in outcomes.values()
                            if o.failed is not None), None)
            if failure is None:
                return outcomes
            strip_faults()
            if attempts > 25:
                raise failure
            if arbitrator.has_checkpoint:
                restore(arbitrator.restore())
            # else: replay from the current (pre-PEval) state.
