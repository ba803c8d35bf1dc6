"""Wall-clock serving benchmark for ``repro.service.GrapeService``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload road-points --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` sets the service up several times (``setup_s`` is the
median), then drives the workload's closed-loop clients for
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs
the same op stream twice, first plain and then with timing wrappers
around the program's layers (see ``spans.py``), and reports the
per-layer metrics, the floor references and the tracing overhead.
Every answer is checked against the sequential oracles outside the
timed region.  Each metric is printed by name with its unit; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: ``--trace 0`` sets the service up at least SETUP_MIN times and until
#: SETUP_BUDGET_S is spent (at most SETUP_MAX); ``setup_s`` is the median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 5.0
#: ``*_tail_ms`` is the highest percentile that leaves this many
#: samples beyond it: the TAIL_BEYOND+1-th largest latency
TAIL_BEYOND = 10
#: SSSP sources the floor references are timed on
FLOOR_SOURCES = 5

END_TO_END_UNITS = {"setup_s": "s", "query_p50_ms": "ms",
                    "query_tail_ms": "ms", "queries_per_s": "1/s",
                    "peak_rss_mb": "MB"}


@dataclass
class Done:
    """One finished client op."""

    kind: str
    source: Optional[int]
    latency_s: float
    metrics: Any = None          # RunMetrics of a read
    answer: Any = None           # compact answer of a read
    counts: Tuple = ()           # update counters (see _update_counts)
    op: Any = None               # spans.OpTrace when traced
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------
def component_labels(answer) -> Dict[Any, Any]:
    """CC answer (component id -> members) as node -> smallest member."""
    labels = {}
    for members in answer.values():
        low = min(members)
        for v in members:
            labels[v] = low
    return labels


def compact(kind: str, answer, order) -> Optional[np.ndarray]:
    """An answer as one value per node in ``order``; ``None`` when it
    misses a node (counted as a wrong answer)."""
    if kind == "cc":
        answer = component_labels(answer)
    try:
        return np.fromiter((answer[v] for v in order), dtype=np.float64,
                           count=len(order))
    except KeyError:
        return None


def oracle(kind: str, graph, source, order):
    from repro.sequential import connected_components, sssp_distances
    from workloads import bfs_hops
    if kind == "sssp":
        answer = sssp_distances(graph, source)
    elif kind == "bfs":
        answer = bfs_hops(graph, source)
    else:
        answer = connected_components(graph)
    return np.fromiter((answer[v] for v in order), dtype=np.float64,
                       count=len(order))


def same(a, b) -> bool:
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=1e-9,
                                                   atol=1e-9))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def tail(values: List[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


# ---------------------------------------------------------------------------
# one service lifetime
# ---------------------------------------------------------------------------
class Pass:
    """Set up one service on a fresh graph and drive the op stream."""

    def __init__(self, workload, seed: int, tmp_root: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.graph = workload.make_graph()
        self.order = sorted(self.graph.nodes())
        self.streams = workload.streams(seed, self.graph)
        self.tmp_root = tmp_root
        self.service = None
        self.backend = None
        self.watches: List[Any] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.partition_s = 0.0
        self.border_frac = 0.0
        self.setup_op = None

    @property
    def watch_source(self):
        """road-churn's SSSP watch source: its first read's source."""
        return self.streams[0][1][1]

    # -- set-up ----------------------------------------------------------
    def setup(self) -> float:
        """Construction to first answered query, in seconds."""
        from spans import TracedBackend, trace_store
        w, name = self.workload, self.workload.graph_name
        self.close()
        backend = w.new_backend()
        if self.tracer is not None:
            backend = TracedBackend(backend, self.tracer)
            self.setup_op = self.tracer.begin("setup")
        self.backend = backend
        tmp = Path(tempfile.mkdtemp(dir=self.tmp_root))
        start = time.perf_counter()
        service = self.service = w.new_service(backend, tmp)
        if self.tracer is not None and service.store is not None:
            trace_store(service.store, self.tracer)
        service.load_graph(name, self.graph)
        t0 = time.perf_counter()
        frag = service.fragmentation(name)
        self.partition_s = time.perf_counter() - t0
        if w.churn:
            self.watches = [service.watch("sssp", self.watch_source,
                                          graph=name),
                            service.watch("cc", graph=name)]
        first = service.play("cc", graph=name).answer
        setup_s = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.end(self.setup_op)
        self.border_frac = (sum(1 for _ in frag.gp.border_nodes())
                            / self.graph.num_nodes)
        self.check(compact("cc", first, self.order),
                   oracle("cc", self.graph, None, self.order), "setup cc")
        if w.churn:
            self.check_watches()
        return setup_s

    def close(self) -> None:
        if self.service is not None:
            # flush=False: the temporary store is deleted anyway
            self.service.close(flush=False)
            self.service = None
        if self.backend is not None:
            self.backend.close()
            self.backend = None

    # -- verification ----------------------------------------------------
    def fail(self, error: str) -> None:
        self.failed += 1
        self.errors.append(error)

    def check(self, got, want, what: str) -> None:
        self.attempted += 1
        if got is None or not same(got, want):
            self.fail(f"wrong answer: {what}")

    def check_watches(self) -> None:
        """Both standing answers against the oracles on the live graph."""
        live = self.service.graph(self.workload.graph_name)
        sssp, cc = self.watches
        for kind, handle, src in (("sssp", sssp, self.watch_source),
                                  ("cc", cc, None)):
            self.check(compact(kind, handle.answer, self.order),
                       oracle(kind, live, src, self.order), f"{kind} watch")

    # -- the timed loop --------------------------------------------------
    def run_point_clients(self, seconds: float,
                          counts: Optional[List[int]] = None
                          ) -> Tuple[List[List[Done]], float]:
        """Two closed-loop clients; stop at the deadline or after
        ``counts[c]`` ops each.  Returns per-client ops and loop wall."""
        name = self.workload.graph_name
        done: List[List[Done]] = [[] for _ in self.streams]
        start = time.perf_counter()
        deadline = start + seconds

        def client(c: int) -> None:
            stream = self.streams[c]
            limit = len(stream) if counts is None else counts[c]
            for i in range(limit):
                if counts is None and time.perf_counter() >= deadline:
                    break
                kind, source = stream[i]
                done[c].append(self.read(kind, source, name))

        threads = [threading.Thread(target=client, args=(c,), daemon=True)
                   for c in range(len(self.streams))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=170)
            if t.is_alive():
                raise RuntimeError("client did not finish")
        wall = time.perf_counter() - start
        # verified after the loop: the graph does not change here
        cache: Dict[Tuple[str, Any], Any] = {}
        for ops in done:
            for d in ops:
                if d.error is not None:
                    self.attempted += 1
                    self.fail(d.error)
                    continue
                key = (d.kind, d.source)
                if key not in cache:
                    cache[key] = oracle(d.kind, self.graph, d.source,
                                        self.order)
                self.check(d.answer, cache[key], f"{key}")
                d.answer = None
        return done, wall

    def read(self, kind: str, source, name: str) -> Done:
        op = self.tracer.begin(kind) if self.tracer is not None else None
        start = time.perf_counter()
        try:
            ticket = self.service.play(kind, source, graph=name)
            error = None
        except Exception as exc:  # counted in failed, the loop goes on
            ticket, error = None, f"{kind}({source}): {exc!r}"
        latency = time.perf_counter() - start
        if op is not None:
            self.tracer.end(op)
        d = Done(kind, source, latency, op=op, error=error)
        if ticket is not None:
            d.metrics = ticket.metrics
            d.answer = compact(kind, ticket.answer, self.order)
        return d

    def run_churn_client(self, seconds: float,
                         count: Optional[int] = None
                         ) -> Tuple[List[List[Done]], float]:
        """Alternate update batches and reads; every answer and both
        watches are checked right after each op, outside its timing.
        Returns the ops and the time spent inside service calls."""
        from workloads import ChurnBatches
        name = self.workload.graph_name
        batches = ChurnBatches(self.seed, self.graph)
        stream = self.streams[0]
        limit = len(stream) if count is None else count
        done: List[Done] = []
        busy = 0.0
        deadline = time.perf_counter() + seconds
        for i in range(limit):
            if count is None and time.perf_counter() >= deadline:
                break
            kind, source = stream[i]
            if kind == "update":
                delta = batches.next()
                d = self.update(i, delta, name)
                if d.error is not None:
                    self.attempted += 1
                    self.fail(d.error)
                self.check_watches()
            else:
                d = self.read(kind, source, name)
                if d.error is not None:
                    self.attempted += 1
                    self.fail(d.error)
                else:
                    self.check(d.answer,
                               oracle(kind, self.service.graph(name), source,
                                      self.order), f"{kind}({source})")
                d.answer = None
            done.append(d)
            busy += d.latency_s
        return [done], busy

    def update(self, i: int, delta, name: str) -> Done:
        stats = self.service.stats
        before = _update_counts(stats)
        op = self.tracer.begin("update") if self.tracer is not None else None
        start = time.perf_counter()
        try:
            self.service.update(name, delta)
            error = None
        except Exception as exc:
            error = f"update #{i}: {exc!r}"
        latency = time.perf_counter() - start
        if op is not None:
            self.tracer.end(op)
        after = _update_counts(stats)
        return Done("update", None, latency, op=op, error=error,
                    counts=tuple(a - b for a, b in zip(after, before)))

    def run(self, seconds: float, counts: Optional[List[int]] = None):
        if self.workload.churn:
            return self.run_churn_client(seconds,
                                         None if counts is None
                                         else counts[0])
        return self.run_point_clients(seconds, counts)


def _update_counts(stats) -> Tuple[int, int, int, int]:
    return (stats.supersteps_total, stats.comm_bytes_total,
            stats.affected_vertices, stats.fallback_reruns)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def reads_of(done: List[List[Done]]) -> List[Done]:
    return [d for ops in done for d in ops
            if d.kind != "update" and d.error is None]


def updates_of(done: List[List[Done]]) -> List[Done]:
    return [d for ops in done for d in ops
            if d.kind == "update" and d.error is None]


def end_to_end(setups: List[float], done, loop_s: float,
               report: Dict[str, Any]) -> Dict[str, float]:
    reads = reads_of(done)
    lat = [d.latency_s * 1e3 for d in reads]
    if not lat:
        raise RuntimeError("no read query completed")
    p, tail_ms = tail(lat)
    report["query_tail"] = {"percentile": p, "samples": len(lat)}
    report["setup_s_samples"] = setups
    metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_ms": statistics.median(lat),
        "query_tail_ms": tail_ms,
        "queries_per_s": len(reads) / loop_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    updates = updates_of(done)
    if updates:
        ulat = [d.latency_s * 1e3 for d in updates]
        up, utail = tail(ulat)
        report["update_p50_ms"] = statistics.median(ulat)
        report["update_tail_ms"] = utail
        report["update_tail"] = {"percentile": up, "samples": len(ulat)}
    return metrics


def count_drift(plain, traced) -> Dict[str, Any]:
    """Counts that differ between the plain and the traced pass of one
    invocation (same seed, same ops), with their largest difference.

    Pipe bytes are compared only for queries whose session shipped no
    fragment in either pass: which pooled worker already caches which
    fragment depends on thread timing, and so does the shipping."""
    drift: Dict[str, Any] = {}

    def note(name: str, a, b) -> None:
        if a != b:
            prev = drift.get(name, 0)
            drift[name] = max(prev, abs(a - b))

    for ops_a, ops_b in zip(plain, traced):
        if len(ops_a) != len(ops_b):
            drift["ops"] = abs(len(ops_a) - len(ops_b))
        for a, b in zip(ops_a, ops_b):
            if a.error is not None or b.error is not None:
                continue
            if a.kind == "update":
                for name, x, y in zip(
                        ("updates.supersteps", "updates.comm_bytes",
                         "updates.affected_vertices",
                         "updates.fallback_reruns"), a.counts, b.counts):
                    note(name, x, y)
                continue
            note("engine.supersteps", a.metrics.supersteps,
                 b.metrics.supersteps)
            note("engine.comm_bytes", a.metrics.comm_bytes,
                 b.metrics.comm_bytes)
            if (a.metrics.fragments_shipped == 0
                    and b.metrics.fragments_shipped == 0):
                note("executor.pipe_bytes", a.metrics.pipe_bytes,
                     b.metrics.pipe_bytes)
    return drift


def per_layer(traced: Pass, done_plain, done_traced,
              wall_plain: float, wall_traced: float, floor: Dict[str, float],
              report: Dict[str, Any]) -> Dict[str, float]:
    from spans import layer_totals
    reads = reads_of(done_traced)
    updates = updates_of(done_traced)
    rt = [(d, layer_totals(d.op)) for d in reads]
    ut = [(d, layer_totals(d.op)) for d in updates]
    setup = layer_totals(traced.setup_op)
    skews = [s for _, t in rt for s in t.skews]
    compacts = [t.store_compact_s / t.compactions for _, t in ut
                if t.compactions]
    sssp_plain = [d.latency_s * 1e3 for d in reads_of(done_plain)
                  if d.kind == "sssp"]
    shm_fallbacks = sum(s.tags["shm_fallbacks"]
                        for op in [traced.setup_op] + [d.op for d in reads]
                        for s in op.spans if s.name == "executor.open")
    persist = [s.duration for s in traced.setup_op.spans
               if s.name == "store.persist"]
    metrics = {
        "service.overhead_ms": mean((d.latency_s - t.engine_s) * 1e3
                                    for d, t in rt),
        "partition.s": traced.partition_s,
        "partition.border_frac": traced.border_frac,
        "engine.coordinator_ms": mean((t.engine_s - t.executor_s) * 1e3
                                      for _, t in rt),
        "engine.supersteps": mean(d.metrics.supersteps for d in reads),
        "engine.comm_mb": mean(d.metrics.comm_bytes / 1e6 for d in reads),
        "engine.bsp_simulated_ms": mean(d.metrics.parallel_time_s * 1e3
                                        for d in reads),
        "executor.open_ms": mean(t.open_s * 1e3 for _, t in rt),
        "executor.dispatch_ms": mean(t.dispatch_s * 1e3 for _, t in rt),
        "executor.collect_ms": mean(t.collect_s * 1e3 for _, t in rt),
        "executor.pipe_mb": mean(d.metrics.pipe_bytes / 1e6 for d in reads),
        "executor.shm_fallbacks": shm_fallbacks,
        "worker.compute_ms": mean(t.compute_s * 1e3 for _, t in rt),
        "worker.skew": statistics.median(skews) if skews else 0.0,
        "updates.maintain_ms": mean(
            (d.latency_s - t.store_append_s - t.store_compact_s
             - t.store_other_s) * 1e3 for d, t in ut),
        "updates.affected_vertices": mean(d.counts[2] for d in updates),
        "updates.fallback_reruns": sum(d.counts[3] for d in updates),
        "store.append_ms": mean(t.store_append_s * 1e3 for _, t in ut),
        "store.compact_ms": mean(c * 1e3 for c in compacts),
        "store.persist_s": sum(persist),
        "floor.dijkstra_ms": floor["dijkstra_ms"],
        "floor.csr_sssp_ms": floor["csr_sssp_ms"],
        "engine_over_floor": (statistics.median(sssp_plain)
                              / floor["dijkstra_ms"]
                              if sssp_plain else 0.0),
        "trace.overhead_frac": wall_traced / wall_plain - 1.0,
    }
    report["setup_layers_ms"] = {
        "partition": traced.partition_s * 1e3,
        "executor": setup.executor_s * 1e3,
        "store": (setup.store_other_s + setup.store_append_s) * 1e3}
    report["compactions"] = len(compacts)
    report["read_ms_wall_vs_simulated"] = {
        "wall: mean read latency": mean(d.latency_s * 1e3 for d in reads),
        "simulated: BSP parallel_time_s": metrics["engine.bsp_simulated_ms"]}
    return metrics


def floor_refs(p: Pass) -> Dict[str, float]:
    """Sequential Dijkstra and whole-graph CSR SSSP on the workload's
    graph, from the first SSSP sources of its stream (median ms)."""
    from repro.graph.csr import CSRGraph
    from repro.kernels import csr_sssp
    from repro.sequential import dijkstra
    sources = [s for ops in p.streams for k, s in ops
               if k == "sssp"][:FLOOR_SOURCES]
    csr = CSRGraph.from_graph(p.graph)
    dij, kern = [], []
    for s in sources:
        t0 = time.perf_counter()
        dijkstra(p.graph, s)
        t1 = time.perf_counter()
        csr_sssp(csr, {csr.id_of[s]: 0.0})
        t2 = time.perf_counter()
        dij.append((t1 - t0) * 1e3)
        kern.append((t2 - t1) * 1e3)
    return {"dijkstra_ms": statistics.median(dij),
            "csr_sssp_ms": statistics.median(kern)}


def cpu_ticks() -> Optional[Tuple[int, int]]:
    """(all, stolen) CPU ticks since boot, where /proc/stat exists."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields), (fields[7] if len(fields) > 7 else 0)


def host_facts(shm_fallbacks: Optional[float], ticks) -> Dict[str, Any]:
    from repro.runtime import shm
    now = cpu_ticks()
    steal = (None if ticks is None or now is None or now[0] == ticks[0]
             else (now[1] - ticks[1]) / (now[0] - ticks[0]))
    return {"nproc": os.cpu_count(),
            "cpu_steal_frac": steal,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "shm_available": shm.shm_available(),
            "executor.shm_fallbacks": shm_fallbacks}


# ---------------------------------------------------------------------------
def run(workload, seed: int, seconds: float, trace: bool,
        tmp_root: Path) -> Dict[str, Any]:
    from spans import Tracer
    report: Dict[str, Any] = {"workload": workload.name, "seed": seed,
                              "why": workload.why}
    ticks = cpu_ticks()
    plain = Pass(workload, seed, tmp_root)
    passes = [plain]
    try:
        if not trace:
            setups: List[float] = []
            while len(setups) < SETUP_MIN or (
                    sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX):
                setups.append(plain.setup())
            done, loop_s = plain.run(seconds)
            metrics = end_to_end(setups, done, loop_s, report)
            units = END_TO_END_UNITS
            fallbacks = sum(d.metrics.shm_fallbacks for d in reads_of(done))
        else:
            floor = floor_refs(plain)
            plain.setup()
            done_plain, wall_plain = plain.run(seconds / 2)
            plain.close()
            traced = Pass(workload, seed, tmp_root, tracer=Tracer())
            passes.append(traced)
            traced.setup()
            done_traced, wall_traced = traced.run(
                seconds / 2, counts=[len(ops) for ops in done_plain])
            metrics = per_layer(traced, done_plain, done_traced,
                                wall_plain, wall_traced, floor, report)
            units = LAYER_UNITS
            drift = count_drift(done_plain, done_traced)
            report["count_drift"] = drift
            plain.attempted += 1
            if drift:
                plain.fail(f"counts drifted: {drift}")
            fallbacks = metrics["executor.shm_fallbacks"]
        report["host"] = host_facts(fallbacks, ticks)
    finally:
        for p in passes:
            p.close()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    report["failed_frac"] = failed / attempted if attempted else 1.0
    report["errors"] = [e for p in passes for e in p.errors][:10]
    return {"report": report, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


LAYER_UNITS = {
    "service.overhead_ms": "ms", "partition.s": "s",
    "partition.border_frac": "ratio", "engine.coordinator_ms": "ms",
    "engine.supersteps": "count", "engine.comm_mb": "MB",
    "engine.bsp_simulated_ms": "ms", "executor.open_ms": "ms",
    "executor.dispatch_ms": "ms", "executor.collect_ms": "ms",
    "executor.pipe_mb": "MB", "executor.shm_fallbacks": "count",
    "worker.compute_ms": "ms", "worker.skew": "ratio",
    "updates.maintain_ms": "ms", "updates.affected_vertices": "count",
    "updates.fallback_reruns": "count", "store.append_ms": "ms",
    "store.compact_ms": "ms", "store.persist_s": "s",
    "floor.dijkstra_ms": "ms", "floor.csr_sssp_ms": "ms",
    "engine_over_floor": "ratio", "trace.overhead_frac": "ratio",
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC / 'repro'}) are missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tmp_base = ROOT / ".perfbench_tmp"
    tmp_base.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(dir=tmp_base))
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace),
                     tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_base.rmdir()
        except OSError:  # another run still uses it
            pass
    for name, m in result["metrics"].items():
        label = ("  (BSP cost model, not wall time)"
                 if name == "engine.bsp_simulated_ms" else "")
        print(f"{name:28s} {m['value']:14.6f} {m['unit']}{label}")
    report = result["report"]
    for name in ("update_p50_ms", "update_tail_ms"):
        if name in report:
            print(f"{name:28s} {report[name]:14.6f} ms")
    print(f"{'failed_frac':28s} {report['failed_frac']:14.6f} ratio")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
