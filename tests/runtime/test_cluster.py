"""Tests for the simulated cluster and load balancer."""

import pytest

from repro.core.engine import GrapeEngine
from repro.graph.generators import grid_road_graph
from repro.pie_programs import SSSPProgram
from repro.resilience.faults import FaultPlane
from repro.runtime.cluster import LoadBalancer, SimulatedCluster
from repro.runtime.executors import StepCommand
from repro.runtime.fault import Arbitrator, WorkerFailure
from repro.runtime.metrics import CostModel


class TestLoadBalancer:
    def test_single_physical(self):
        assert LoadBalancer().assign([1.0, 2.0, 3.0], 1) == [0, 0, 0]

    def test_greedy_balance(self):
        placement = LoadBalancer().assign([5.0, 4.0, 3.0, 2.0, 1.0, 1.0], 2)
        loads = [0.0, 0.0]
        for cost, phys in zip([5.0, 4.0, 3.0, 2.0, 1.0, 1.0], placement):
            loads[phys] += cost
        assert abs(loads[0] - loads[1]) <= 2.0

    def test_empty(self):
        assert LoadBalancer().assign([], 3) == []


class TestSimulatedCluster:
    def test_results_in_order(self):
        cluster = SimulatedCluster(2)
        results = cluster.run_superstep([lambda: "a", lambda: "b",
                                         lambda: "c"])
        assert results == ["a", "b", "c"]

    def test_metrics_accumulate(self):
        cluster = SimulatedCluster(2, cost_model=CostModel(
            sync_latency_s=0.0, seconds_per_byte=0.0))
        cluster.run_superstep([lambda: None], bytes_shipped=100,
                              num_messages=3)
        cluster.run_superstep([lambda: None], bytes_shipped=50,
                              num_messages=1)
        assert cluster.metrics.supersteps == 2
        assert cluster.metrics.comm_bytes == 150
        assert cluster.metrics.comm_messages == 4

    def test_virtual_workers_fold_to_physical(self):
        """With 4 virtual tasks and 2 physical workers, parallel time is
        at most the sum of all tasks and at least the max task."""
        cluster = SimulatedCluster(2, cost_model=CostModel(
            sync_latency_s=0.0, seconds_per_byte=0.0))

        def busy():
            total = 0
            for i in range(20000):
                total += i
            return total

        cluster.run_superstep([busy] * 4)
        total = cluster.metrics.total_compute_s
        parallel = cluster.metrics.parallel_time_s
        assert parallel <= total
        assert parallel > 0

    def test_threads_executor(self):
        cluster = SimulatedCluster(2, backend="thread")
        results = cluster.run_superstep([lambda: 1, lambda: 2])
        assert results == [1, 2]

    def test_invalid_executor(self):
        with pytest.raises(ValueError):
            SimulatedCluster(2, backend="gpu")

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            SimulatedCluster(0)

    def test_failure_raises_after_accounting(self):
        """An injected crash fails the superstep on an inline backend;
        the cluster still records the failed attempt (partial work
        happened) and the replay succeeds, the crash firing once."""
        engine = GrapeEngine(2, backend="serial")
        frag = engine.make_fragmentation(grid_road_graph(3, 3, seed=1))
        backend = engine._resolve_backend()
        session = backend.open(SSSPProgram(), 0, frag, num_workers=2)
        session.init_states()
        attempts = []
        step = session.step

        def recording_step(commands, **kw):
            attempts.append(step(commands, **kw))
            return attempts[-1]

        session.step = recording_step
        cluster = SimulatedCluster(2, backend=backend)
        arbitrator = Arbitrator()
        arbitrator.checkpoint(session.collect_states())
        plane = FaultPlane().plan("exec.step", "crash", key=0, at=1)
        outcomes = GrapeEngine._step_with_recovery(
            cluster, [session], arbitrator,
            {f.fid: StepCommand(phase="peval") for f in frag.fragments},
            0, 0, lambda snap: session.replace_states(snap), plane=plane)
        assert len(attempts) == 2
        assert isinstance(attempts[0][0].failed, WorkerFailure)
        # The failed attempt was recorded, then the replay.
        assert cluster.metrics.supersteps == 2
        assert outcomes is attempts[1]
        assert all(o.failed is None for o in outcomes.values())

    def test_repr(self):
        assert "SimulatedCluster" in repr(SimulatedCluster(3))
