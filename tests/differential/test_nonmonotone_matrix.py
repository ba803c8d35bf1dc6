"""The non-monotone operation matrix for the delete-aware bounded path.

One focused scenario per cell of ``directed × {delete, increase}`` on
every execution backend, for each of SSSP, BFS and CC: apply a
single-kind non-monotone batch to a standing session and assert that

* the maintained answer equals the sequential oracle on the mutated
  graph (exact equality — the bounded path re-derives every reset value
  as the same path sum the oracle computes), and
* the batch was served without a recompute fallback, with a partial
  reset exactly when the program's ``invalidates`` dispatch says the
  operation kind threatens converged values (weight increases are
  no-ops for BFS hop counts and CC membership).
"""

from __future__ import annotations

import pytest

from repro.core.engine import GrapeEngine
from repro.core.updates import ContinuousQuerySession
from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.pie_programs import BFSProgram, CCProgram, SSSPProgram
from repro.sequential import sssp_distances

from .harness import BACKENDS, bfs_oracle, cc_oracle, normalize

OPS = ("delete", "increase")


#: (program factory, query, oracle, operation kinds that invalidate)
CASES = {
    "sssp": (SSSPProgram, 0,
             lambda g: sssp_distances(g, 0), {"delete", "increase"}),
    "bfs": (BFSProgram, 0, lambda g: bfs_oracle(g, 0), {"delete"}),
    "cc": (CCProgram, None, cc_oracle, {"delete"}),
}


def _single_kind_delta(g, op, count=3):
    """A batch of ``count`` deletions or weight increases against live
    edges spread across the edge list (and thus across fragments)."""
    edges = sorted(g.edges())
    picked = edges[:: max(1, len(edges) // count)][:count]
    delta = GraphDelta()
    for u, v, w in picked:
        if op == "delete":
            delta.delete(u, v)
        else:
            delta.set_weight(u, v, w * 5.0)
    return delta


@pytest.mark.parametrize("program_key", sorted(CASES))
@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("directed", (True, False),
                         ids=("directed", "undirected"))
@pytest.mark.parametrize("backend", BACKENDS)
def test_nonmonotone_matrix(backend, directed, op, program_key):
    make_program, query, oracle, invalidating = CASES[program_key]
    g = uniform_random_graph(60, 180, directed=directed, seed=90)
    engine = GrapeEngine(3, backend=backend)
    session = ContinuousQuerySession(engine, make_program(), query, graph=g)
    baseline = normalize(session.answer)
    assert baseline == normalize(oracle(g))

    session.update(_single_kind_delta(g, op))
    session.fragmentation.validate()
    assert normalize(session.answer) == normalize(oracle(g))

    m = session.metrics
    assert m.fallback_reruns == 0
    assert m.incremental_maintained == 1
    if op in invalidating:
        assert m.partial_resets == 1
        assert m.affected_vertices >= 0
    else:
        # The kind is answer-preserving for this program: served by the
        # plain monotone fold, no reset at all.
        assert m.partial_resets == 0
