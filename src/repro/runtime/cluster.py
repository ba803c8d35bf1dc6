"""The simulated shared-nothing cluster.

A :class:`SimulatedCluster` plays the role of the paper's ``n`` physical
workers plus MPI controller.  Engines (GRAPE and the baselines) submit one
*task per virtual worker* per superstep; the cluster

* executes every task on an inline backend (serially or on a thread
  pool), timing each with a performance counter,
* maps virtual workers onto physical workers (paper Section 3.1: ``m``
  virtual workers on ``n`` physical workers share memory when ``n < m``),
* folds the timings into :class:`~repro.runtime.metrics.RunMetrics` using
  the BSP cost model: a superstep costs the *max over physical workers* of
  their assigned virtual workers' summed compute time, plus communication.

Fault injection (paper Section 6, "Fault tolerance") lives with the GRAPE
engine's recovery loop, driven by the
:class:`~repro.resilience.faults.FaultPlane`; the cluster only records
what each attempted superstep cost.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence, Union

from repro.runtime.executors import ExecutorBackend, resolve_backend
from repro.runtime.metrics import CostModel, RunMetrics

__all__ = ["SimulatedCluster", "LoadBalancer"]


class LoadBalancer:
    """Assign ``m`` virtual workers to ``n`` physical workers.

    The paper's Load Balancer minimizes a bi-criteria objective over
    fragment size and border count; we implement the classic greedy
    longest-processing-time heuristic over per-fragment cost estimates.
    """

    def assign(self, costs: Sequence[float], num_physical: int) -> List[int]:
        """Return ``phys[i]`` = physical worker for virtual worker ``i``."""
        loads = [0.0] * num_physical
        placement = [0] * len(costs)
        order = sorted(range(len(costs)), key=lambda i: -costs[i])
        for i in order:
            target = min(range(num_physical), key=lambda p: loads[p])
            placement[i] = target
            loads[target] += costs[i]
        return placement


class SimulatedCluster:
    """``n`` physical workers with synchronous (BSP) supersteps.

    Parameters
    ----------
    num_workers:
        Number of *physical* workers ``n``.
    cost_model:
        BSP cost parameters; defaults to :class:`CostModel` defaults.
    backend:
        An :class:`~repro.runtime.executors.ExecutorBackend` name or
        instance executing the per-worker tasks (default: serial).
        Closure tasks submitted through :meth:`run_superstep` require an
        *inline* backend — the process backend only speaks the PIE
        session protocol driven by
        :class:`~repro.core.engine.GrapeEngine`.
    """

    def __init__(self, num_workers: int,
                 cost_model: Optional[CostModel] = None,
                 backend: Union[str, ExecutorBackend] = "serial"):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self.cost_model = cost_model or CostModel()
        self.backend = resolve_backend(backend)
        self.metrics = RunMetrics(backend=self.backend.name)
        self.balancer = LoadBalancer()

    # ------------------------------------------------------------------
    def run_superstep(self, tasks: Sequence[Callable[[], Any]],
                      virtual_costs: Optional[Sequence[float]] = None,
                      bytes_shipped: int = 0,
                      num_messages: int = 0) -> List[Any]:
        """Execute one superstep: one task per virtual worker.

        Returns the task results in order.  ``bytes_shipped`` and
        ``num_messages`` describe the traffic *delivered at the start of*
        this superstep (routed by the coordinator), charged to it per the
        BSP cost formula.
        """
        def timed(task: Callable[[], Any]):
            start = time.perf_counter()
            value = task()
            return time.perf_counter() - start, value

        # Delegated to the backend; raises TypeError for non-inline
        # backends, whose workers cannot receive in-process closures.
        outcomes = self.backend.run_tasks(
            [lambda t=t: timed(t) for t in tasks], self.num_workers)
        self.record_superstep([elapsed for elapsed, _ in outcomes],
                              bytes_shipped, num_messages,
                              virtual_costs=virtual_costs)
        return [value for _, value in outcomes]

    def record_superstep(self, times: Sequence[float], bytes_shipped: int,
                         num_messages: int,
                         virtual_costs: Optional[Sequence[float]] = None
                         ) -> None:
        """Fold one executed superstep's timings into the metrics.

        Used directly by engines that execute supersteps through an
        :class:`~repro.runtime.executors.ExecutorSession` (where the
        backend, not the cluster, owns execution): ``times`` are the
        per-virtual-worker compute seconds the session reported.
        """
        # Fold virtual-worker times into physical-worker times.
        if virtual_costs is None:
            virtual_costs = times
        placement = self.balancer.assign(virtual_costs, self.num_workers)
        physical = [0.0] * self.num_workers
        for i, t in enumerate(times):
            physical[placement[i]] += t
        self.metrics.record_superstep(physical, bytes_shipped, num_messages,
                                      self.cost_model)

    def __repr__(self) -> str:
        return (f"SimulatedCluster(n={self.num_workers}, "
                f"backend={self.backend.name!r})")
