"""The benchmark's three workloads: inputs, service set-up and op streams.

Each workload runs on a fixed generated graph; its query sources and
update batches derive from the ``--seed`` argument.  The program sees
only the generated inputs.

* ``road-points`` — two closed-loop clients send SSSP/BFS point queries
  (plus CC at fixed positions in client 0's stream) to a 5,000-node road
  grid, service-default partition, m=4, serial backend.  ~150 supersteps
  per query with tiny per-step compute: the coordinator's layer.
* ``social-points`` — the same mix on a 20,000-node undirected power-law
  graph, process backend with n=2 workers, m=4, per-superstep
  checkpoints under a temporary store: the executor/shm/checkpoint
  layers.
* ``road-churn`` — one closed-loop client alternating a mixed 8-edge
  update batch and a point query on the road grid, MetisLike partition,
  store on, standing SSSP + CC watches: the update and store layers.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.engine import EngineConfig
from repro.graph.delta import GraphDelta
from repro.graph.generators import grid_road_graph, preferential_attachment
from repro.graph.graph import Graph
from repro.partition.strategies import MetisLikePartition
from repro.runtime.executors import ProcessBackend, SerialBackend
from repro.service import GrapeService

#: one op of a client stream: (program, source) for reads — ``source`` is
#: ``None`` for CC — or ("update", None) for a churn batch
Op = Tuple[str, Optional[int]]

#: source strata per draw round: every round takes one unused node from
#: each of this many equal id ranges, so each seed's stream covers the
#: graph evenly and per-query cost varies little between seeds
STRATA = 8
#: stream length per client; far more than one run completes
STREAM_LEN = 2000
#: a point-query client's program cycle (CC replaces every CC_EVERY-th
#: op of client 0 only, so identical CC queries never meet and group)
POINT_CYCLE = ("sssp", "sssp", "bfs")
CC_EVERY = 6
#: road-churn's read cycle (BFS first: the SSSP watch takes its source)
CHURN_CYCLE = ("bfs", "sssp", "sssp")
#: road-churn: edges per update batch and the WAL size that triggers a
#: compaction (about every tenth batch, so compactions sit in the tail)
BATCH_EDGES = 8
COMPACT_BYTES = 2560


def bfs_hops(graph: Graph, source) -> Dict[int, int]:
    """Hop distance from ``source`` along out-edges (-1: unreachable)."""
    hops = {v: -1 for v in graph.nodes()}
    hops[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.successors(u):
            if hops[v] < 0:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


def _farthest(hops: Dict[int, int]) -> int:
    return max(hops, key=lambda v: (hops[v], -v))


def stratified_sources(rng: random.Random, graph: Graph,
                       count: int) -> List[int]:
    """``count`` distinct nodes, drawn round by round across strata.

    A point query's cost follows its source's eccentricity, which grows
    with the hop distance from the graph's centre (found by a double
    BFS sweep).  The strata are equal-sized bands of that distance, so
    each seed draws a near-identical cost mix while every node stays
    equally likely to be a source.
    """
    nodes = sorted(graph.nodes())
    a = _farthest(bfs_hops(graph, nodes[0]))
    from_a = bfs_hops(graph, a)
    b = _farthest(from_a)
    centre = b  # walk back from b to the midpoint of the a-b path
    while from_a[centre] > from_a[b] // 2:
        centre = next(u for u in graph.predecessors(centre)
                      if from_a[u] == from_a[centre] - 1)
    hops = bfs_hops(graph, centre)
    nodes.sort(key=lambda v: (hops[v], rng.random()))
    size = len(nodes) // STRATA
    pools = [nodes[i * size:(i + 1) * size] for i in range(STRATA)]
    for pool in pools:
        rng.shuffle(pool)
    out: List[int] = []
    while len(out) < count:
        round_ = [pool.pop() for pool in pools if pool]
        if not round_:
            raise ValueError("graph too small for the source stream")
        rng.shuffle(round_)
        out.extend(round_)
    return out[:count]


def point_streams(seed: int, graph: Graph) -> List[List[Op]]:
    """Two clients' read streams; no source repeats across both."""
    rng = random.Random(seed * 7919 + 1)
    sources = iter(stratified_sources(rng, graph, 2 * STREAM_LEN))
    streams: List[List[Op]] = [[], []]
    for i in range(STREAM_LEN):
        for client, stream in enumerate(streams):
            if client == 0 and i % CC_EVERY == CC_EVERY - 1:
                stream.append(("cc", None))
            else:
                stream.append((POINT_CYCLE[i % len(POINT_CYCLE)],
                               next(sources)))
    return streams


def churn_stream(seed: int, graph: Graph) -> List[Op]:
    """One client alternating an update batch and a BFS/SSSP read."""
    rng = random.Random(seed * 7919 + 2)
    sources = stratified_sources(rng, graph, STREAM_LEN // 2)
    stream: List[Op] = []
    for i, source in enumerate(sources):
        stream.append(("update", None))
        stream.append((CHURN_CYCLE[i % len(CHURN_CYCLE)], source))
    return stream


class ChurnBatches:
    """Seeded mixed batches (deletes, weight increases, inserts) that
    keep the graph's size steady: inserts restore earlier deletions.

    Batches depend only on the seed and the batches before them, so a
    replay from the same seed reproduces them exactly.
    """

    def __init__(self, seed: int, graph: Graph):
        self._rng = random.Random(seed * 7919 + 3)
        self._weights: Dict[Tuple[int, int], float] = {
            (u, v): w for u, v, w in graph.edges()}
        self._edges: List[Tuple[int, int]] = sorted(self._weights)
        self._deleted: List[Tuple[int, int, float]] = []

    def _take(self) -> Tuple[int, int]:
        i = self._rng.randrange(len(self._edges))
        self._edges[i], self._edges[-1] = self._edges[-1], self._edges[i]
        return self._edges.pop()

    def next(self) -> GraphDelta:
        rng = self._rng
        delta = GraphDelta()
        touched: List[Tuple[int, int]] = []
        for _ in range(3):  # deletions
            u, v = self._take()
            self._deleted.append((u, v, self._weights.pop((u, v))))
            delta.delete(u, v)
        for _ in range(2):  # weight increases
            u, v = self._take()
            w = self._weights[(u, v)] * rng.uniform(1.2, 2.0)
            self._weights[(u, v)] = w
            delta.set_weight(u, v, w)
            touched.append((u, v))
        for _ in range(BATCH_EDGES - 5):  # inserts of deleted edges
            if len(self._deleted) <= 3:
                break
            u, v, w = self._deleted.pop(rng.randrange(len(self._deleted) - 3))
            self._weights[(u, v)] = w
            delta.insert(u, v, w)
            touched.append((u, v))
        self._edges.extend(touched)
        return delta


@dataclass
class Workload:
    name: str
    why: str
    graph_name: str
    make_graph: Callable[[], Graph]
    engine: Callable[[Path], EngineConfig]
    process: bool = False
    store: bool = False
    churn: bool = False

    def new_backend(self):
        return ProcessBackend() if self.process else SerialBackend()

    def new_service(self, backend, tmp: Path) -> GrapeService:
        kwargs = {}
        if self.store:
            kwargs["store_dir"] = tmp / "store"
        if self.churn:
            kwargs["store_compact_threshold"] = COMPACT_BYTES
        return GrapeService(engine=self.engine(tmp), backend=backend,
                            **kwargs)

    def streams(self, seed: int, graph: Graph) -> List[List[Op]]:
        if self.churn:
            return [churn_stream(seed, graph)]
        return point_streams(seed, graph)


#: the graphs are each workload's fixed data set; ``--seed`` draws the
#: query sources and update batches.  A shortest-path query's cost
#: depends on the weights and shortcuts of the graph it runs on, so a
#: graph redrawn per seed would add that spread to every figure.
GRAPH_SEED = 0


def _road() -> Graph:
    return grid_road_graph(50, 100, seed=GRAPH_SEED)


def _social() -> Graph:
    return preferential_attachment(20000, 4, directed=False,
                                   seed=GRAPH_SEED)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "road-points",
        "~150 supersteps of tiny compute per query: coordinator fold, "
        "compose and byte accounting dominate; no pipe, no store",
        "road", _road,
        lambda tmp: EngineConfig(num_workers=4)),
    Workload(
        "social-points",
        "<=10 supersteps but MBs of border values over worker pipes, "
        "per-superstep checkpoints and a partition-heavy set-up",
        "social", _social,
        lambda tmp: EngineConfig(num_workers=2, num_fragments=4,
                                 checkpoint_dir=str(tmp / "store"
                                                    / "checkpoints")),
        process=True, store=True),
    Workload(
        "road-churn",
        "writes beside reads: bounded IncEval plus WAL appends, "
        "compactions in the update tail, few-superstep reads",
        "road", _road,
        lambda tmp: EngineConfig(num_workers=4,
                                 partition=MetisLikePartition()),
        store=True, churn=True),
)}
