"""Asynchronous GRAPE: barrier-free evaluation reaches the same fixpoint
(the paper's announced future-work extension)."""

import pytest

from repro.core.async_engine import AsyncGrapeEngine
from repro.core.engine import GrapeEngine
from repro.graph.generators import (grid_road_graph, labeled_graph,
                                    uniform_random_graph)
from repro.partition.strategies import MetisLikePartition
from repro.pie_programs import CCProgram, SimProgram, SSSPProgram, \
    SubIsoProgram
from repro.sequential import (canonical_match, connected_components,
                              maximum_simulation, sssp_distances,
                              vf2_all_matches)


class TestAsyncConfig:
    def test_invalid_worker_count(self):
        # Rejected by EngineConfig, the one place worker counts are checked.
        with pytest.raises(ValueError, match="at least one worker"):
            AsyncGrapeEngine(0)

    def test_virtual_less_than_physical(self):
        with pytest.raises(ValueError):
            AsyncGrapeEngine(4, num_fragments=2)

    def test_requires_graph_or_fragmentation(self):
        with pytest.raises(ValueError):
            AsyncGrapeEngine(2).run(SSSPProgram(), query=0)

    def test_activation_budget(self, small_road):
        # max_supersteps bounds activations: barrier-free runs have no
        # supersteps to count.
        engine = AsyncGrapeEngine(4, max_supersteps=3)
        with pytest.raises(RuntimeError, match="no fixpoint"):
            engine.run(SSSPProgram(), query=0, graph=small_road)

    def test_rejects_bsp_only_options(self):
        with pytest.raises(TypeError, match="backend"):
            AsyncGrapeEngine(2, backend="process")

    def test_config_is_an_engine_config(self):
        engine = AsyncGrapeEngine(2, num_fragments=6,
                                  partition=MetisLikePartition())
        assert engine.config.effective_fragments == 6
        assert isinstance(engine.config.partition, MetisLikePartition)


class TestAsyncEqualsSync:
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_sssp(self, small_road, n):
        truth = sssp_distances(small_road, 0)
        result = AsyncGrapeEngine(n).run(SSSPProgram(), query=0,
                                         graph=small_road)
        assert result.answer == pytest.approx(truth)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_cc(self, small_undirected, n):
        expected = {}
        for v, c in connected_components(small_undirected).items():
            expected.setdefault(c, set()).add(v)
        result = AsyncGrapeEngine(n).run(CCProgram(), query=None,
                                         graph=small_undirected)
        assert result.answer == expected

    def test_sim(self, small_labeled, path_pattern):
        truth = maximum_simulation(path_pattern, small_labeled)
        result = AsyncGrapeEngine(4).run(SimProgram(), query=path_pattern,
                                         graph=small_labeled)
        assert result.answer == truth

    def test_subiso_via_preprocess(self, small_labeled, path_pattern):
        truth = {canonical_match(m)
                 for m in vf2_all_matches(path_pattern, small_labeled)}
        result = AsyncGrapeEngine(4).run(SubIsoProgram(),
                                         query=path_pattern,
                                         graph=small_labeled)
        assert {canonical_match(m) for m in result.answer} == truth

    def test_same_answer_as_sync_engine(self, small_road):
        frag_engine = GrapeEngine(4, partition=MetisLikePartition())
        fragmentation = frag_engine.make_fragmentation(small_road)
        sync = frag_engine.run(SSSPProgram(), query=0,
                               fragmentation=fragmentation)
        async_result = AsyncGrapeEngine(4).run(
            SSSPProgram(), query=0, fragmentation=fragmentation)
        assert async_result.answer == pytest.approx(sync.answer)

    def test_monotonic_check(self, small_road):
        engine = AsyncGrapeEngine(4, check_monotonic=True)
        result = engine.run(SSSPProgram(), query=0, graph=small_road)
        assert result.answer == pytest.approx(
            sssp_distances(small_road, 0))


class TestAsyncBehaviour:
    def test_activations_counted(self, small_road):
        result = AsyncGrapeEngine(4).run(SSSPProgram(), query=0,
                                         graph=small_road)
        # At least one PEval per fragment.
        assert result.activations >= 4

    def test_communication_accounted(self, small_road):
        result = AsyncGrapeEngine(4).run(SSSPProgram(), query=0,
                                         graph=small_road)
        assert result.metrics.comm_bytes > 0
        assert result.metrics.parallel_time_s > 0

    def test_single_fragment_no_messages(self, small_road):
        result = AsyncGrapeEngine(1).run(SSSPProgram(), query=0,
                                         graph=small_road)
        assert result.activations == 1
        assert result.metrics.comm_bytes == 0

    def test_activations_at_most_sync_work(self, small_undirected):
        """Async activates only fragments with real messages; the total
        is bounded by the synchronous supersteps x fragments."""
        sync = GrapeEngine(4).run(CCProgram(), query=None,
                                  graph=small_undirected)
        async_result = AsyncGrapeEngine(4).run(CCProgram(), query=None,
                                               graph=small_undirected)
        assert async_result.activations <= sync.supersteps * 4
