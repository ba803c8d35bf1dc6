"""The coordinator's border exchange: one fold/route/charge module shared
by the BSP engine, standing queries and the asynchronous engine."""

import pytest

from repro.core.engine import GrapeEngine
from repro.core.exchange import BorderExchange
from repro.core.monotonic import MonotonicityChecker
from repro.core.updates import ContinuousQuerySession
from repro.graph.generators import (bipartite_ratings_graph, grid_road_graph,
                                    labeled_graph, uniform_random_graph)
from repro.graph.graph import Graph
from repro.partition.strategies import (HashPartition, MetisLikePartition,
                                        VertexCutPartition)
from repro.pie_programs import (BFSProgram, CCProgram, CFProgram, CFQuery,
                                PageRankProgram, PageRankQuery, SimProgram,
                                SSSPProgram, SubIsoProgram)


def _pattern():
    pat = Graph(directed=True)
    pat.add_node("A", "l0")
    pat.add_node("B", "l1")
    pat.add_node("C", "l2")
    pat.add_edge("A", "B")
    pat.add_edge("B", "C")
    return pat


#: every bundled program: (factory, query, graph factory)
PROGRAMS = {
    "sssp": (SSSPProgram, 0, lambda: grid_road_graph(6, 6, seed=3)),
    "bfs": (BFSProgram, 0, lambda: uniform_random_graph(60, 180, seed=4)),
    "cc": (CCProgram, None,
           lambda: uniform_random_graph(60, 70, directed=False, seed=5)),
    "pagerank": (PageRankProgram, PageRankQuery(max_iterations=6),
                 lambda: uniform_random_graph(60, 180, seed=6)),
    "sim": (SimProgram, _pattern(),
            lambda: labeled_graph(80, 240, num_labels=4, seed=9)),
    "subiso": (SubIsoProgram, _pattern(),
               lambda: labeled_graph(80, 240, num_labels=4, seed=9)),
    "cf": (CFProgram, CFQuery(num_factors=4, max_epochs=3, seed=1),
           lambda: bipartite_ratings_graph(30, 15, 250, seed=3)[0]),
}

PARTITIONS = {"hash": HashPartition, "metis": MetisLikePartition,
              "vertex-cut": VertexCutPartition}


def full_read_fold(program, query, fragmentation, states):
    """The coordinator tables rebuilt from scratch: every fragment's full
    parameter read, aggregated key by key."""
    reported, table = {}, {}
    for frag in fragmentation:
        params = program.read_update_params(query, frag, states[frag.fid])
        reported[frag.fid] = params
        for key, value in params.items():
            table[key] = (program.aggregator.combine(table[key], value)
                          if key in table else value)
    return reported, table


class TestAdoptedExchange:
    @pytest.mark.parametrize("partition", sorted(PARTITIONS))
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_run_exchange_equals_full_read_fold(self, name, partition):
        make_program, query, make_graph = PROGRAMS[name]
        program = make_program()
        result = GrapeEngine(4, partition=PARTITIONS[partition]()).run(
            program, query, graph=make_graph())
        reported, table = full_read_fold(program, query,
                                         result.fragmentation, result.states)
        assert result.exchange.reported == reported
        assert result.exchange.table == table

    def test_session_adopts_the_run_exchange(self, small_road):
        session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                         graph=small_road)
        assert isinstance(session.exchange, BorderExchange)
        assert session.exchange.fragmentation is session.fragmentation
        before = session.exchange
        session.delete_edges([next(iter(small_road.edges()))[:2]])
        assert session.exchange is before   # maintained in place
        reported, table = full_read_fold(session.program, 0,
                                         session.fragmentation,
                                         session.states)
        assert session.exchange.table == table
        assert session.exchange.reported == reported


class TestExchangeUnits:
    def _exchange(self, route_to="holders"):
        program = SSSPProgram()
        program.route_to = route_to
        fragmentation = GrapeEngine(3).make_fragmentation(
            uniform_random_graph(40, 120, seed=2))
        return BorderExchange(program, fragmentation)

    def test_fold_full_and_changed_reports(self):
        exchange = self._exchange()
        checker = MonotonicityChecker(exchange.program.aggregator)
        key = ("x", "dist")
        nbytes, msgs, dirty = exchange.fold(
            {0: ("full", {key: 5.0}), 1: ("changed", {key: 3.0}),
             2: ("changed", {})}, checker, first_round=True)
        assert (msgs, dirty) == (2, {key})
        assert nbytes > 0
        assert exchange.table[key] == 3.0
        # An identical full report changes nothing and costs nothing.
        assert exchange.fold({0: ("full", {key: 5.0})}, checker) == \
            (0, 0, set())

    def test_compose_skips_holders_that_hold_the_value(self):
        exchange = self._exchange()
        gp = exchange.fragmentation.gp
        node = next(v for v in gp.border_nodes())
        key = (node, "dist")
        holders = sorted(gp.holders(node))
        exchange.table[key] = 1.0
        exchange.reported[holders[0]][key] = 1.0
        messages = exchange.compose({key})
        assert sorted(messages) == holders[1:]
        assert all(msg == {key: 1.0} for msg in messages.values())

    def test_owner_routing_is_an_edge_cut_shortcut(self):
        graph = uniform_random_graph(40, 120, seed=2)
        edge_cut = GrapeEngine(3).make_fragmentation(graph)
        vertex_cut = GrapeEngine(
            3, partition=VertexCutPartition()).make_fragmentation(graph)
        node = next(v for v in vertex_cut.gp.border_nodes())
        key = (node, "dist")
        for fragmentation, dests in (
                (edge_cut, {edge_cut.gp.owner(node)}),
                (vertex_cut, set(vertex_cut.gp.holders(node)))):
            exchange = BorderExchange(SSSPProgram(), fragmentation)
            exchange.table[key] = 1.0
            assert set(exchange.compose({key})) == dests

    def test_fold_region_retracts_and_regathers(self):
        exchange = self._exchange()
        key = ("x", "dist")
        exchange.reported[0][key] = 2.0
        exchange.reported[1][key] = 4.0
        exchange.table[key] = 2.0
        # Fragment 0 retracts its claim: the aggregate falls back to 4.0.
        nbytes, msgs, moved = exchange.fold_region(
            {0: {}, 1: {}, 2: {}}, {0: {"x"}}, {"dist"})
        assert (msgs, moved) == (1, {key})
        assert nbytes > 0
        assert exchange.table[key] == 4.0
        assert key not in exchange.reported[0]
        # The last claim retracts: the key leaves the table.
        exchange.fold_region({1: {}}, {1: {"x"}}, {"dist"})
        assert key not in exchange.table

    def test_snapshot_holds_only_the_tables(self):
        exchange = self._exchange()
        exchange.table[("x", "dist")] = 1.0
        exchange.charge_params({("x", "dist"): 1.0})
        snap = exchange.snapshot()
        assert set(snap) == {"reported", "table"}
        exchange.restore({"reported": {0: {}, 1: {}, 2: {}}, "table": {}})
        assert exchange.table == {}
