"""Dynamic weighted graph — the substrate every other module builds on.

The paper (Definition 1) models a road network as a dynamic undirected
graph: a fixed topology whose edge weights (travel times) change over
time.  Two weights are tracked per edge:

* the **initial weight** ``w0`` — an integer, fixed at construction.
  Section 3.4 decomposes every edge into ``w0`` *virtual fragments*
  (vfrags), so ``w0`` must be a positive integer (DIMACS travel times
  are integers too).
* the **current weight** ``w`` — a positive float that evolves as
  traffic conditions change.

``Graph`` stores both and is the single weight authority: subgraph
views (:class:`Subgraph`) reference it so that a weight update is
immediately visible to every subgraph, exactly like the paper's shared
buffer ``G_curr`` (Section 2).
"""
from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple

Edge = Tuple[int, int]


class Graph:
    """A dynamic weighted graph with integer initial weights.

    Undirected by default (road networks in Definitions 1-4); pass
    ``directed=True`` for the Section 5.3 directed extension.
    """

    def __init__(self, directed: bool = False) -> None:
        self.directed = directed
        self._adj: Dict[int, Dict[int, float]] = {}
        self._w0: Dict[Edge, int] = {}
        #: bumped by every weight or edge change, so a cached copy of the
        #: graph (a Spark broadcast) can tell that it is stale
        self.version = 0

    # -- topology ----------------------------------------------------------
    def canonical(self, u: int, v: int) -> Edge:
        """Canonical key of the edge between ``u`` and ``v``."""
        if self.directed:
            return (u, v)
        return (u, v) if u <= v else (v, u)

    def add_vertex(self, u: int) -> None:
        self._adj.setdefault(u, {})

    def add_edge(self, u: int, v: int, w0: int, w: float | None = None) -> None:
        """Add edge ``(u, v)`` with integer initial weight ``w0``.

        ``w`` defaults to ``w0`` (the graph starts at its initial
        snapshot).  Re-adding an existing edge overwrites its weights.
        """
        if u == v:
            raise ValueError(f"self-loop on vertex {u} not allowed")
        if not (isinstance(w0, (int,)) and w0 >= 1):
            raise ValueError(f"initial weight must be a positive integer, got {w0!r}")
        cur = float(w0) if w is None else float(w)
        if cur <= 0:
            raise ValueError(f"current weight must be positive, got {cur}")
        self._adj.setdefault(u, {})[v] = cur
        if not self.directed:
            self._adj.setdefault(v, {})[u] = cur
        else:
            self._adj.setdefault(v, {})
        self._w0[self.canonical(u, v)] = int(w0)
        self.version += 1

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, {})

    # -- weights -----------------------------------------------------------
    def weight(self, u: int, v: int) -> float:
        return self._adj[u][v]

    def init_weight(self, u: int, v: int) -> int:
        return self._w0[self.canonical(u, v)]

    def set_weight(self, u: int, v: int, w: float) -> None:
        """Set the current weight of edge ``(u, v)``; topology is fixed."""
        if w <= 0:
            raise ValueError(f"current weight must be positive, got {w}")
        if not self.has_edge(u, v):
            raise KeyError(f"no edge ({u}, {v})")
        self._adj[u][v] = float(w)
        if not self.directed:
            self._adj[v][u] = float(w)
        self.version += 1

    def unit_weight(self, u: int, v: int) -> float:
        """Weight of one vfrag of ``(u, v)``: ``w / w0`` (Section 3.4)."""
        return self.weight(u, v) / self.init_weight(u, v)

    # -- iteration ---------------------------------------------------------
    @property
    def vertices(self) -> Iterable[int]:
        return self._adj.keys()

    @property
    def n_vertices(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        return len(self._w0)

    def edges(self) -> Iterator[Edge]:
        """Canonical edge keys (``u <= v`` when undirected)."""
        return iter(self._w0.keys())

    def neighbors(self, u: int) -> Iterator[Tuple[int, float]]:
        """Outgoing ``(neighbor, current_weight)`` pairs of ``u``."""
        return iter(self._adj.get(u, {}).items())

    def init_neighbors(self, u: int) -> Iterator[Tuple[int, int]]:
        """Outgoing ``(neighbor, initial_weight)`` pairs of ``u``."""
        for v in self._adj.get(u, {}):
            yield v, self.init_weight(u, v)

    def degree(self, u: int) -> int:
        return len(self._adj.get(u, {}))

    def copy(self) -> "Graph":
        g = Graph(directed=self.directed)
        g._w0 = dict(self._w0)
        g._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self.directed else "undirected"
        return f"Graph({kind}, |V|={self.n_vertices}, |E|={self.n_edges})"


class Subgraph:
    """A view of a :class:`Graph` restricted to an edge subset (Def. 2).

    Weight lookups delegate to the backing graph so that dynamic weight
    changes are instantly visible — the paper's subgraphs held by
    SubgraphBolts behave the same way.  Subgraphs may share vertices
    (boundary vertices) but never edges (Section 3.3).
    """

    def __init__(self, graph: Graph, sg_id: int, edges: Iterable[Edge]) -> None:
        self.graph = graph
        self.sg_id = sg_id
        self.edge_list: List[Edge] = list(edges)
        self._adj: Dict[int, List[int]] = {}
        for u, v in self.edge_list:
            self._adj.setdefault(u, []).append(v)
            if not graph.directed:
                self._adj.setdefault(v, []).append(u)
            else:
                self._adj.setdefault(v, [])
        self.vertex_set: Set[int] = set(self._adj.keys())

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_set)

    @property
    def n_edges(self) -> int:
        return len(self.edge_list)

    def neighbors(self, u: int) -> Iterator[Tuple[int, float]]:
        g = self.graph
        for v in self._adj.get(u, ()):
            yield v, g.weight(u, v)

    def init_neighbors(self, u: int) -> Iterator[Tuple[int, int]]:
        g = self.graph
        for v in self._adj.get(u, ()):
            yield v, g.init_weight(u, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Subgraph(id={self.sg_id}, |V|={self.n_vertices}, |E|={self.n_edges})"


def path_distance(neighbors_fn, path: List[int]) -> float:
    """Length of ``path`` under the weights exposed by ``neighbors_fn``.

    ``neighbors_fn(u)`` must yield ``(v, w)`` pairs; raising KeyError if
    an edge on the path does not exist under that view.
    """
    total = 0.0
    for a, b in zip(path, path[1:]):
        for v, w in neighbors_fn(a):
            if v == b:
                total += w
                break
        else:
            raise KeyError(f"edge ({a}, {b}) not in graph view")
    return total
