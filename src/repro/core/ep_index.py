"""EP-Index (Section 3.7): edge -> bounding paths, for O(affected) updates.

The EP-Index is a map whose key is an edge and whose value is the list
of bounding paths passing through that edge (with their current
distances).  When the weight of edge ``e`` changes by ``delta_w``, only
the paths in ``ep[e]`` need their distance shifted by ``delta_w``
(Algorithm 2, line 3) — the path *routes* never change.

Here the values are shared references to the
:class:`~repro.core.bounding.BoundingPath` objects held by the
per-subgraph indexes, so an in-place ``dist`` update is immediately
visible to LBD recomputation.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from ..roadnet.graph import Edge, Graph
from .bounding import BoundingPath, SubgraphIndex


class EPIndex:
    """Edge -> list of bounding paths covering it (canonical edge keys)."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._by_edge: Dict[Edge, List[BoundingPath]] = {}

    @classmethod
    def build(cls, graph: Graph, sub_indexes: List[SubgraphIndex]) -> "EPIndex":
        ep = cls(graph)
        for idx in sub_indexes:
            for bset in idx.bounding.values():
                for bp in bset.paths:
                    for a, b in zip(bp.path, bp.path[1:]):
                        ep._by_edge.setdefault(graph.canonical(a, b), []).append(bp)
        return ep

    def paths_through(self, u: int, v: int) -> List[BoundingPath]:
        return self._by_edge.get(self._graph.canonical(u, v), [])

    def apply_delta(self, u: int, v: int, delta_w: float) -> int:
        """Shift the distance of every covering path by ``delta_w``.

        Returns the number of paths touched (the maintenance-cost unit
        reported in the Section 6.3 experiments).
        """
        paths = self.paths_through(u, v)
        for bp in paths:
            bp.dist += delta_w
        return len(paths)

    @property
    def n_entries(self) -> int:
        """Total elements across all lists — the paper's storage measure."""
        return sum(len(v) for v in self._by_edge.values())

    def items(self) -> Dict[Edge, List[BoundingPath]]:
        return self._by_edge
