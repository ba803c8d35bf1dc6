"""The differential correctness harness.

Three result-equivalent execution paths now coexist: the dict-graph
sequential algorithms, the vectorized CSR kernels, and (orthogonally)
three execution backends including out-of-process workers.  Following the
incremental-view discipline of Berkholz et al. ("Answering FO+MOD queries
under updates"), the cheapest way to keep them honest is to assert that
every path agrees with every other — automatically, on randomized inputs.

:func:`run_all_paths` executes one (program, query, graph) workload under
every ``(backend × use_csr × incremental)`` combination and asserts that

* **answers** are identical across *all* combinations (and equal to the
  sequential oracle's, when one is given), and
* **superstep counts and communication accounting** are identical across
  all combinations sharing the same ``incremental`` mode (GRAPE-NI
  legitimately reaches the same fixpoint along a different superstep
  schedule).

:func:`run_all_partitions` adds the partition axis — every strategy in
``STRATEGIES`` × ``m`` ∈ :data:`FRAGMENT_COUNTS` — with every answer
checked against the oracle: the Assurance Theorem's "correct for any
partition strategy P".
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.engine import GrapeEngine
from repro.partition.base import PartitionStrategy
from repro.partition.strategies import STRATEGIES, get_strategy
from repro.sequential import connected_components

BACKENDS = ("serial", "thread", "process")
CSR_MODES = (True, False)
INCREMENTAL_MODES = (True, False)
#: every registered partition strategy, and the fragment counts swept
STRATEGY_NAMES = tuple(STRATEGIES)
FRAGMENT_COUNTS = (1, 2, 4, 8)

#: every execution-path combination the harness sweeps
ALL_PATHS = tuple(itertools.product(BACKENDS, CSR_MODES, INCREMENTAL_MODES))

PathKey = Tuple[str, bool, bool]


def normalize(answer: Any) -> Any:
    """Make an answer hashable/comparable across runs.

    CC answers map component ids to mutable node sets; freeze them so
    dict equality is well-defined after the originals are garbage
    collected or mutated.
    """
    if isinstance(answer, dict):
        return {k: (frozenset(v) if isinstance(v, (set, frozenset)) else v)
                for k, v in answer.items()}
    return answer


def bfs_oracle(g, source):
    """Sequential BFS hop counts (-1 when unreached), the BFS program's
    answer shape."""
    hops = {v: -1 for v in g.nodes()}
    if g.has_node(source):
        hops[source] = 0
        dq = deque([source])
        while dq:
            v = dq.popleft()
            for w in g.successors(v):
                if hops[w] == -1:
                    hops[w] = hops[v] + 1
                    dq.append(w)
    return hops


def cc_oracle(g):
    """Sequential components as ``{component id: members}``, the CC
    program's answer shape."""
    buckets = {}
    for v, c in connected_components(g).items():
        buckets.setdefault(c, set()).add(v)
    return buckets


def run_all_paths(make_program: Callable[..., Any], query: Any,
                  graph_factory: Callable[[], Any], *,
                  workers: int = 3,
                  num_fragments: int = None,
                  partition: Optional[PartitionStrategy] = None,
                  backends=BACKENDS,
                  csr_modes=CSR_MODES,
                  incremental_modes=INCREMENTAL_MODES,
                  expected: Any = None,
                  ) -> Dict[PathKey, Any]:
    """Run every (backend × use_csr × incremental) combination, assert
    pairwise agreement, and return the per-path results.

    ``make_program`` is called as ``make_program(use_csr=...)`` per run
    (a fresh program per run — programs may carry per-run state);
    ``graph_factory`` likewise rebuilds the graph so no run observes
    another's mutations.  ``expected`` (the sequential oracle's answer)
    is compared with every path's answer when given.
    """
    results: Dict[PathKey, Any] = {}
    reference_answer = None
    reference_key = None
    by_mode: Dict[bool, Tuple[PathKey, Any]] = {}

    for backend in backends:
        for use_csr in csr_modes:
            for incremental in incremental_modes:
                engine = GrapeEngine(workers,
                                     num_fragments=num_fragments,
                                     partition=partition,
                                     backend=backend,
                                     incremental=incremental)
                result = engine.run(make_program(use_csr=use_csr), query,
                                    graph=graph_factory())
                key = (backend, use_csr, incremental)
                results[key] = result
                answer = normalize(result.answer)

                if reference_answer is None:
                    reference_answer, reference_key = answer, key
                    if expected is not None:
                        assert answer == normalize(expected), (
                            f"{key} diverged from the sequential oracle")
                else:
                    assert answer == reference_answer, (
                        f"answer diverged: {key} vs {reference_key}")

                costs = (result.supersteps, result.metrics.comm_bytes,
                         result.metrics.comm_messages)
                if incremental not in by_mode:
                    by_mode[incremental] = (key, costs)
                else:
                    ref_key, ref_costs = by_mode[incremental]
                    assert costs == ref_costs, (
                        f"(supersteps, comm_bytes, comm_messages) diverged "
                        f"within incremental={incremental}: "
                        f"{key}={costs} vs {ref_key}={ref_costs}")
    return results


def run_all_partitions(make_program: Callable[..., Any], query: Any,
                       graph_factory: Callable[[], Any],
                       expected: Any) -> None:
    """Every partition strategy × ``m`` ∈ :data:`FRAGMENT_COUNTS` on the
    serial backend, each through :func:`run_all_paths` (so costs must
    agree within one partition and incremental mode) and each answer
    equal to the sequential oracle's ``expected``."""
    for name in STRATEGY_NAMES:
        for m in FRAGMENT_COUNTS:
            run_all_paths(make_program, query, graph_factory,
                          workers=min(m, 2), num_fragments=m,
                          partition=get_strategy(name), backends=("serial",),
                          expected=expected)
