"""Fault tolerance: injected worker failures recover via checkpoints and
results stay correct (paper Section 6).

Crashes are scheduled on the fault plane's ``exec.step`` site:
``plan("exec.step", "crash", key=w, at=s)`` kills fragment ``w`` in its
``s``-th superstep (PEval is superstep 1).  The engines here follow
``REPRO_BACKEND``, so under the process backend every crash really kills
a pooled worker and recovery replaces it.
"""

import pytest

from repro.core.engine import GrapeEngine
from repro.graph.generators import uniform_random_graph
from repro.pie_programs import CCProgram, SSSPProgram
from repro.resilience.faults import FaultPlane
from repro.sequential import connected_components, sssp_distances


def crashes(*planned):
    """A plane crashing fragment ``w`` in superstep ``s`` for every
    ``(w, s)`` pair."""
    plane = FaultPlane()
    for worker, superstep in planned:
        plane.plan("exec.step", "crash", key=worker, at=superstep)
    return plane


def components(g):
    expected = {}
    for v, c in connected_components(g).items():
        expected.setdefault(c, set()).add(v)
    return expected


class TestFaultRecovery:
    def test_sssp_survives_peval_failure(self, small_road):
        plane = crashes((1, 1))
        engine = GrapeEngine(4, fault_plane=plane)
        result = engine.run(SSSPProgram(), query=0, graph=small_road)
        assert result.answer == pytest.approx(sssp_distances(small_road, 0))
        assert plane.fired == [("exec.step", 1, 1, "crash")]
        assert result.recoveries >= 1

    def test_sssp_survives_inceval_failure(self, small_road):
        plane = crashes((2, 2))
        engine = GrapeEngine(4, fault_plane=plane)
        result = engine.run(SSSPProgram(), query=0, graph=small_road)
        assert result.answer == pytest.approx(sssp_distances(small_road, 0))
        assert plane.fired == [("exec.step", 2, 2, "crash")]
        assert result.recoveries >= 1

    def test_multiple_failures(self, small_road):
        plane = crashes((0, 1), (1, 2), (2, 3))
        engine = GrapeEngine(4, fault_plane=plane)
        result = engine.run(SSSPProgram(), query=0, graph=small_road)
        assert result.answer == pytest.approx(sssp_distances(small_road, 0))
        assert len(plane.fired) == 3

    def test_cc_survives_random_failures(self):
        g = uniform_random_graph(80, 100, directed=False, seed=17)
        # seed 2 fires two crashes on this graph at rate 0.05
        plane = FaultPlane(seed=2).rate("exec.step", "crash", 0.05,
                                        times=5)
        engine = GrapeEngine(4, fault_plane=plane)
        result = engine.run(CCProgram(), query=None, graph=g)
        assert plane.fired
        assert result.recoveries >= 1
        assert result.answer == components(g)

    def test_failed_supersteps_still_accounted(self, small_road):
        # Only inline recovery charges the failed attempt: a pooled
        # worker's death leaves no complete outcome set to record.
        clean = GrapeEngine(4, backend="serial").run(
            SSSPProgram(), query=0, graph=small_road)
        faulty = GrapeEngine(4, backend="serial",
                             fault_plane=crashes((1, 1))).run(
            SSSPProgram(), query=0, graph=small_road)
        # The replayed superstep is charged too: at least one extra.
        assert faulty.supersteps > clean.supersteps

    def test_no_injector_no_recoveries(self, small_road):
        result = GrapeEngine(4).run(SSSPProgram(), query=0,
                                    graph=small_road)
        assert result.recoveries == 0


class TestFaultAfterDeletions:
    """Recovery when the failed superstep follows a deletion-bearing
    GraphDelta: the checkpointed states are built on the *mutated*
    fragmentation, so restore + replay must converge to the
    post-deletion answers."""

    def _mutate(self, g, engine):
        from repro.core.updates import apply_delta
        from repro.graph.delta import GraphDelta
        frag = engine.make_fragmentation(g)
        edges = list(g.edges())
        (du, dv, _w), (eu, ev, _w2) = edges[0], edges[len(edges) // 2]
        iu, iv, iw = edges[3]
        delta = (GraphDelta().delete(du, dv).delete(eu, ev)
                 .set_weight(iu, iv, iw * 5.0)
                 .insert(0, 4242, 0.7))
        touched = apply_delta(frag, delta)
        assert any(d.has_deletions for d in touched.values())
        return frag

    def test_sssp_recovers_on_deletion_mutated_fragmentation(self,
                                                             small_road):
        clean_engine = GrapeEngine(4)
        frag = self._mutate(small_road, clean_engine)
        clean = clean_engine.run(SSSPProgram(), query=0, fragmentation=frag)

        plane = crashes((1, 1), (2, 2))
        engine = GrapeEngine(4, fault_plane=plane)
        result = engine.run(SSSPProgram(), query=0, fragmentation=frag)
        assert result.recoveries >= 1
        assert len(plane.fired) == 2
        # oracle on the mutated base graph, which apply_delta kept in step
        assert result.answer == pytest.approx(sssp_distances(small_road, 0))
        assert result.answer == pytest.approx(clean.answer)

    def test_cc_recovers_after_deletions_undirected(self):
        g = uniform_random_graph(70, 90, directed=False, seed=23)
        clean_engine = GrapeEngine(4)
        frag = self._mutate(g, clean_engine)

        plane = crashes((0, 2))
        engine = GrapeEngine(4, fault_plane=plane)
        result = engine.run(CCProgram(), query=None, fragmentation=frag)
        assert plane.fired
        assert result.recoveries >= 1
        assert result.answer == components(g)
