"""Differential correctness across every execution path.

SSSP, BFS, CC and PageRank on seeded random graphs, executed under every
(backend × use_csr × incremental) combination: identical answers
everywhere; identical superstep counts and communication accounting
within each incremental mode.  SSSP, BFS and CC also sweep every
partition strategy × fragment count against the sequential oracles.
"""

from functools import partial

import pytest

from repro.graph.generators import (grid_road_graph, preferential_attachment,
                                    uniform_random_graph)
from repro.pie_programs import (BFSProgram, CCProgram, PageRankProgram,
                                PageRankQuery, SSSPProgram)
from repro.sequential import sssp_distances

from .harness import (ALL_PATHS, bfs_oracle, cc_oracle, run_all_partitions,
                      run_all_paths)


@pytest.mark.parametrize("seed", range(3))
def test_sssp_all_paths(seed):
    results = run_all_paths(
        SSSPProgram, 0,
        lambda: uniform_random_graph(140, 560, seed=seed))
    assert len(results) == len(ALL_PATHS)


@pytest.mark.parametrize("seed", range(3))
def test_bfs_all_paths(seed):
    run_all_paths(
        BFSProgram, 0,
        lambda: preferential_attachment(130, 3, seed=seed))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("directed", [False, True])
def test_cc_all_paths(seed, directed):
    run_all_paths(
        CCProgram, None,
        lambda: uniform_random_graph(110, 170, directed=directed,
                                     seed=seed))


@pytest.mark.parametrize("seed", range(2))
def test_pagerank_all_paths(seed):
    run_all_paths(
        PageRankProgram, PageRankQuery(max_iterations=6),
        lambda: preferential_attachment(100, 3, seed=seed))


def test_sssp_large_diameter_all_paths():
    # The traffic-shaped regime: many supersteps, small frontiers.
    run_all_paths(SSSPProgram, 0, lambda: grid_road_graph(8, 8, seed=5),
                  workers=4)


def test_virtual_workers_all_paths():
    # m > n: several fragments share a physical worker (paper 3.1).
    run_all_paths(SSSPProgram, 0,
                  lambda: uniform_random_graph(120, 480, seed=11),
                  workers=2, num_fragments=6)


@pytest.mark.parametrize("directed", [True, False],
                         ids=["directed", "undirected"])
def test_sssp_any_partition(directed):
    graph = partial(uniform_random_graph, 70, 210, directed=directed,
                    seed=21)
    run_all_partitions(SSSPProgram, 0, graph, sssp_distances(graph(), 0))


def test_bfs_any_partition():
    graph = partial(preferential_attachment, 70, 3, seed=22)
    run_all_partitions(BFSProgram, 0, graph, bfs_oracle(graph(), 0))


@pytest.mark.parametrize("directed", [True, False],
                         ids=["directed", "undirected"])
def test_cc_any_partition(directed):
    graph = partial(uniform_random_graph, 70, 90, directed=directed,
                    seed=23)
    run_all_partitions(CCProgram, None, graph, cc_oracle(graph()))
