"""The skeleton graph ``G_lambda`` (Section 3.6) and query attachment (5.3).

``G_lambda`` contains every boundary vertex; a pair of boundary vertices
co-resident in some subgraph is connected by an edge weighted with their
*minimum lower bound distance* ``MBD`` (the least LBD across the
subgraphs containing both).  It is tiny relative to G and — in the
paper — replicated to every worker; here it is a plain picklable object
handed to Spark via broadcast.

Non-boundary query endpoints are attached per Section 5.3: a virtual
vertex ``v`` gains an edge to every boundary vertex of its home
subgraph, and two endpoints sharing a subgraph also gain a direct
virtual edge (otherwise paths that never touch a boundary vertex would
be unreachable in ``G_lambda``).  Unlike the paper, which weights these
edges with an on-the-fly LBD, they carry the exact current in-subgraph
segment distance: one Dijkstra per home subgraph, no path enumeration.
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ..roadnet.graph import Subgraph
from .bounding import SubgraphIndex
from .dijkstra import dijkstra
from .partition import Partition


class SkeletonGraph:
    """Small in-memory weighted graph with the Dijkstra/Yen neighbor API."""

    def __init__(self, directed: bool = False) -> None:
        self.directed = directed
        self._adj: Dict[int, Dict[int, float]] = {}

    def set_edge(self, u: int, v: int, w: float) -> None:
        self._adj.setdefault(u, {})[v] = w
        if not self.directed:
            self._adj.setdefault(v, {})[u] = w
        else:
            self._adj.setdefault(v, {})

    def weight(self, u: int, v: int) -> float:
        return self._adj[u][v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, {})

    def neighbors(self, u: int) -> Iterator[Tuple[int, float]]:
        return iter(self._adj.get(u, {}).items())

    @property
    def vertices(self):
        return self._adj.keys()

    @property
    def n_vertices(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        total = sum(len(nbrs) for nbrs in self._adj.values())
        return total if self.directed else total // 2

    def copy(self) -> "SkeletonGraph":
        s = SkeletonGraph(directed=self.directed)
        s._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        return s

    def reversed(self) -> "SkeletonGraph":
        """The graph with every edge turned round (``self`` if undirected)."""
        if not self.directed:
            return self
        r = SkeletonGraph(directed=True)
        r._adj = {u: {} for u in self._adj}
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                r._adj[v][u] = w
        return r

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SkeletonGraph(|V|={self.n_vertices}, |E|={self.n_edges})"


def build_skeleton(
    sub_indexes: List[SubgraphIndex], *, directed: bool = False
) -> Tuple[SkeletonGraph, Dict[Tuple[int, int], Dict[int, float]]]:
    """Aggregate per-subgraph LBDs into ``G_lambda``.

    Returns the skeleton and the ``pair -> {sg_id -> LBD}`` table that
    maintenance needs to recompute an ``MBD`` after one subgraph's LBD
    changes without touching the others.
    """
    pair_lbd: Dict[Tuple[int, int], Dict[int, float]] = {}
    for idx in sub_indexes:
        for pair, lbd in idx.lbd_items().items():
            pair_lbd.setdefault(pair, {})[idx.subgraph.sg_id] = lbd
    skeleton = SkeletonGraph(directed=directed)
    for (a, b), per_sg in pair_lbd.items():
        skeleton.set_edge(a, b, min(per_sg.values()))
    return skeleton, pair_lbd


def attach_query_vertices(
    skeleton: SkeletonGraph, partition: Partition, s: int, t: int
) -> SkeletonGraph:
    """Section 5.3: return a copy of ``G_lambda`` with ``s``/``t`` attached.

    Boundary endpoints are already skeleton vertices and need no work.
    A non-boundary endpoint ``v`` gets, per home subgraph, one Dijkstra
    on current weights (towards ``t`` on the reversed adjacency when
    ``v = t`` and the graph is directed) that settles the subgraph's
    boundary vertices and both endpoints but expands none of them.  Each
    settled boundary vertex ``b`` gains the virtual edge (v, b) weighted
    with that exact distance, and a settled ``t`` in ``s``'s search gives
    the direct s-t edge (without it, paths that never touch a boundary
    vertex would be unreachable in ``G_lambda``).

    A virtual edge stands for the segment from a query endpoint to its
    *first* boundary-vertex visit (or, for the direct edge, a segment
    with no boundary visit): that segment lies inside the home subgraph
    and has no boundary vertex or query endpoint in between, so its
    exact minimum is a lower bound (Lemma 2) and at least as tight as
    the Theorem 1 LBD of the paper.  The returned skeleton is a private
    copy — concurrent queries never see each other's virtual vertices
    (each QueryBolt in the paper augments its own replica likewise).
    """
    aug = skeleton.copy()
    for v in (s, t):
        if partition.is_boundary(v):
            continue
        for sg_id in partition.home_subgraphs(v):
            ends = partition.boundary_of(sg_id)
            stops = frozenset(ends) | {s, t}
            dist = _segment_distances(
                partition.subgraphs[sg_id], v, stops, reverse=v != s
            )
            if v == s:
                for b in ends + [t]:  # t: the direct s-t edge, if reached
                    if b in dist:
                        aug.set_edge(s, b, dist[b])
            else:
                for b in ends:
                    if b in dist:
                        aug.set_edge(b, t, dist[b])
    return aug


def _segment_distances(
    sg: Subgraph, v: int, stops: frozenset, *, reverse: bool
) -> Dict[int, float]:
    """Current-weight distances from ``v`` (to ``v`` if ``reverse``) in ``sg``
    over paths with no vertex of ``stops`` in between: the search settles
    stop vertices but never expands them."""
    if reverse and sg.graph.directed:
        g = sg.graph
        radj: Dict[int, List[Tuple[int, float]]] = {}
        for a, b in sg.edge_list:
            radj.setdefault(b, []).append((a, g.weight(a, b)))

        def base(u: int):
            return radj.get(u, ())

    else:
        base = sg.neighbors

    def neighbors(u: int):
        return () if u != v and u in stops else base(u)

    dist, _ = dijkstra(neighbors, v)
    return dist
