"""The GRAPE parallel engine (paper Sections 3.1 and 6).

Given a PIE program, a query and a partitioned graph, the engine runs the
paper's three phases as a simultaneous fixpoint over fragments:

1. **PEval** — superstep 1: every worker evaluates the batch sequential
   algorithm on its fragment and reports its update parameters
   ``C_i.x̄`` to the coordinator;
2. **IncEval** — iterated supersteps: the coordinator folds reports into a
   per-parameter global table using the program's ``aggregateMsg``
   aggregator, composes a message ``M_j`` for every fragment holding a
   changed border node (destinations deduced from the fragmentation graph
   ``G_P``), and each worker with a non-empty message incrementally
   computes ``Q(F_i ⊕ M_i)``;
3. **Assemble** — when no update parameter changed and no explicit
   messages are pending, the coordinator pulls partial results and
   combines them.

Besides update parameters, the engine carries the paper's two explicit
message channels (Section 3.5): *designated* worker-to-worker messages and
*key-value* pairs shuffled by key at the coordinator — these power the
Simulation Theorem compilers (:mod:`repro.core.bsp_sim`,
:mod:`repro.core.mapreduce_sim`, :mod:`repro.core.pram_sim`).

Communication is accounted both ways (changed-parameter reports up to the
coordinator, composed messages down), in serialized bytes.  Supersteps,
per-superstep max-worker compute time and traffic are folded into
:class:`~repro.runtime.metrics.RunMetrics` by the simulated cluster.

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
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Set, Union

from repro.core.monotonic import MonotonicityChecker
from repro.core.pie import ParamKey, ParamUpdates, PIEProgram
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
                                     read_report, resolve_backend)
from repro.runtime.fault import Arbitrator
from repro.runtime.message import stable_hash
from repro.runtime.metrics import (CostModel, ParamSizeCache, RunMetrics,
                                   message_bytes)

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
        message composition, byte accounting — runs here regardless of
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

        try:
            if trace is not None:
                with trace.child("init_states"):
                    session_box[0].init_states()
            else:
                session_box[0].init_states()

            # Optional pre-PEval data shipping (SubIso neighborhoods).
            pre_bytes = 0
            payloads = program.preprocess(query, fragmentation)
            if payloads:
                pre_bytes = sum(message_bytes(p)
                                for p in payloads.values())
                if trace is not None:
                    with trace.child("preprocess"):
                        session_box[0].apply_preprocess(payloads)
                else:
                    session_box[0].apply_preprocess(payloads)

            # Coordinator bookkeeping: last values each fragment
            # reported, the per-parameter global table.
            reported: Dict[int, ParamUpdates] = {f.fid: {} for f in frags}
            global_table: Dict[ParamKey, Any] = {}
            # Memoized byte accounting: identical parameter entries recur
            # across rounds and destinations; pickle each once per run.
            sizer = ParamSizeCache()

            def snapshot_state():
                return {"states": session_box[0].collect_states(),
                        "reported": reported, "table": global_table}

            def restore(snap):
                session_box[0].replace_states(snap["states"])
                reported.clear()
                reported.update(snap["reported"])
                global_table.clear()
                global_table.update(snap["table"])

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
                bytes_in=pre_bytes, msgs_in=1 if payloads else 0,
                restore=restore, reopen=reopen, plane=plane,
                deadline=deadline, budget_s=config.deadline_s,
                cancel=cancel)

            up_bytes, up_msgs, dirty = self._fold_outcomes(
                program, frags, outcomes, reported, global_table,
                checker, first_round=True, sizer=sizer)
            messages = self._compose_messages(program, fragmentation,
                                              reported, dirty, global_table)
            designated, keyvalue, ch_bytes, ch_msgs = \
                self._route_channels(frags, outcomes)
            up_bytes += ch_bytes
            up_msgs += ch_msgs
            if ft_enabled:
                arbitrator.checkpoint(snapshot_state())

            # ------------- IncEval supersteps --------------------------
            rounds = 1
            while (messages or designated or keyvalue) \
                    and rounds < config.max_supersteps:
                rounds += 1
                down_bytes = sum(sizer.updates_bytes(msg)
                                 for msg in messages.values())
                down_bytes += sum(message_bytes(p)
                                  for p in designated.values())
                down_bytes += sum(message_bytes(g)
                                  for g in keyvalue.values())
                down_msgs = len(messages) + len(designated) + len(keyvalue)

                active = set(messages) | set(designated) | set(keyvalue)
                # GRAPE-NI ablation: apply the message and redo PEval
                # from scratch instead of IncEval.
                phase = PHASE_INC if config.incremental else PHASE_NI
                commands = {
                    f.fid: (StepCommand(phase=phase,
                                        message=messages.get(f.fid, {}),
                                        designated=designated.get(f.fid),
                                        keyvalue=keyvalue.get(f.fid))
                            if f.fid in active else StepCommand())
                    for f in frags}

                outcomes = traced_step(
                    commands,
                    bytes_in=up_bytes + down_bytes,
                    msgs_in=up_msgs + down_msgs,
                    restore=restore, reopen=reopen, plane=plane,
                    deadline=deadline, budget_s=config.deadline_s,
                    cancel=cancel)

                up_bytes, up_msgs, dirty = self._fold_outcomes(
                    program, frags, outcomes, reported, global_table,
                    checker, first_round=False, sizer=sizer)
                messages = self._compose_messages(program, fragmentation,
                                                  reported, dirty,
                                                  global_table)
                designated, keyvalue, ch_bytes, ch_msgs = \
                    self._route_channels(frags, outcomes)
                up_bytes += ch_bytes
                up_msgs += ch_msgs
                if ft_enabled:
                    arbitrator.checkpoint(snapshot_state())

            if messages or designated or keyvalue:
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
            cluster.metrics.comm_bytes += up_bytes
            cluster.metrics.comm_messages += up_msgs
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
                               trace=trace)
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

    # ------------------------------------------------------------------
    def _collect_reports(self, program, query, frags, states, reported,
                         global_table, checker, *, first_round: bool,
                         sizer: ParamSizeCache,
                         force_full: bool = False):
        """Read every fragment's report in-process and fold it.

        The coordinator-side entry point for callers holding states
        directly (:class:`~repro.core.updates.ContinuousQuerySession`);
        engine runs fold the reports their backend session returned
        through :meth:`_fold_outcomes` instead.  ``force_full`` reads and
        diffs the full parameter dict even for programs implementing the
        incremental dirty-set protocol — required right after a graph
        mutation, when candidate sets may have gained nodes the
        program's dirty tracking never saw (e.g. a node newly becoming a
        border node at a fragment that received no inserted edges).
        """
        reports = {frag.fid: read_report(program, query, frag,
                                         states[frag.fid], force_full)
                   for frag in frags}
        return self._fold_reports(program, [f.fid for f in frags], reports,
                                  reported, global_table, checker,
                                  first_round=first_round, sizer=sizer)

    def _fold_outcomes(self, program, frags, outcomes, reported,
                       global_table, checker, *, first_round: bool,
                       sizer: ParamSizeCache):
        """Fold the reports a backend session's superstep produced."""
        reports = {fid: outcome.report for fid, outcome in outcomes.items()}
        return self._fold_reports(program, [f.fid for f in frags], reports,
                                  reported, global_table, checker,
                                  first_round=first_round, sizer=sizer)

    def _fold_reports(self, program, fid_order, reports, reported,
                      global_table, checker, *, first_round: bool,
                      sizer: ParamSizeCache):
        """Fold per-fragment parameter reports into the global table,
        return (bytes, msgs, dirty).

        A ``("changed", params)`` report (the incremental protocol of
        :meth:`~repro.core.pie.PIEProgram.read_changed_params`) is folded
        directly; a ``("full", params)`` report is diffed against the
        fragment's last report first.  Report bytes are charged through
        ``sizer`` (memoized per entry).
        """
        agg = program.aggregator
        dirty: Set[ParamKey] = set()
        up_bytes = 0
        up_msgs = 0
        for fid in fid_order:
            kind, params = reports[fid]
            if kind == "full":
                prev = reported[fid]
                changed = {k: v for k, v in params.items()
                           if k not in prev or prev[k] != v}
                reported[fid] = params
            else:
                changed = params
                if changed:
                    reported[fid].update(changed)
            if not changed:
                continue
            up_bytes += sizer.updates_bytes(changed)
            up_msgs += 1
            for key, value in changed.items():
                if key in global_table:
                    old = global_table[key]
                    merged = agg.combine(old, value)
                    if agg.is_progress(old, merged) or (
                            first_round and merged != old):
                        checker.observe(key, merged)
                        global_table[key] = merged
                        dirty.add(key)
                else:
                    global_table[key] = value
                    dirty.add(key)
        return up_bytes, up_msgs, dirty

    @staticmethod
    def _compose_messages(program, fragmentation, reported, dirty,
                          global_table):
        """Group changed parameters into one message per destination
        fragment, deducing destinations from ``G_P`` (paper 3.2(3))."""
        gp = fragmentation.gp
        messages: Dict[int, ParamUpdates] = {}
        for key in dirty:
            node, _name = key
            value = global_table[key]
            if node not in gp:
                continue
            if program.route_to == "owner":
                dests = (gp.owner(node),)
            else:
                dests = gp.holders(node)
            for dest in dests:
                # Skip fragments already holding this exact value.
                if reported[dest].get(key) == value:
                    continue
                messages.setdefault(dest, {})[key] = value
        return messages

    def _route_channels(self, frags, outcomes):
        """Route the designated and key-value messages the workers
        drained this superstep.

        Key-value pairs are grouped by key and assigned to workers by key
        hash — the coordinator's MapReduce-style shuffle (Section 3.5).
        Returns ``(designated, keyvalue, bytes, message_count)`` where both
        channel dicts map destination fid to deliverable content.
        """
        m = len(frags)
        designated: Dict[int, List[Any]] = {}
        grouped: Dict[Hashable, List[Any]] = {}
        ch_bytes = 0
        ch_msgs = 0
        for frag in frags:
            outcome = outcomes[frag.fid]
            des, kvs = outcome.designated, outcome.keyvalue
            for dest, items in des.items():
                if not 0 <= dest < m:
                    raise ValueError(f"designated dest {dest} out of range")
                if items:
                    designated.setdefault(dest, []).extend(items)
                    ch_bytes += message_bytes(items)
                    ch_msgs += 1
            for key, value in kvs:
                grouped.setdefault(key, []).append(value)
                ch_msgs += 1
            if kvs:
                ch_bytes += message_bytes(kvs)
        keyvalue: Dict[int, Dict[Hashable, List[Any]]] = {}
        for key, values in grouped.items():
            # stable_hash, not builtin hash: string keys must route to the
            # same worker in every process regardless of PYTHONHASHSEED.
            dest = stable_hash(key) % m
            keyvalue.setdefault(dest, {})[key] = values
        return designated, keyvalue, ch_bytes, ch_msgs
