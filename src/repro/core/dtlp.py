"""DTLP facade: build (Algorithm 1), update (Algorithm 2), statistics.

Ties together partitioning (3.3), per-subgraph bounding-path indexes
(3.4-3.5), the EP-Index (3.7) and the skeleton graph (3.6) behind the
two operations the rest of the system needs:

* :meth:`DTLP.build` — one-off offline construction;
* :meth:`DTLP.update` — ingest a batch of edge-weight deltas, shifting
  covered bounding-path distances via the EP-Index, refreshing the
  affected subgraphs' unit-weight structures, and re-deriving the
  affected skeleton edge weights (their ``MBD``).

The driver-side implementation here is the reference semantics; the
Spark dataflow in ``repro.distrib`` reproduces both operations as
distributed jobs and is tested for equality against this class.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..roadnet.graph import Edge, Graph
from .bounding import SubgraphIndex, build_subgraph_index
from .ep_index import EPIndex
from .partition import Partition, bfs_partition
from .skeleton import SkeletonGraph, build_skeleton

#: Paper defaults (Section 6.2-6.3): alpha=35%, tau=30% for dynamics.
#: xi is swept in the experiments; like the paper (Figure 24, xi up to
#: ~25) a double-digit xi is needed for tight lower bounds once weights
#: have drifted, so 12 is the default here.
DEFAULT_XI = 12


@dataclass
class UpdateStats:
    """Maintenance-cost counters for one :meth:`DTLP.update` batch."""

    n_deltas: int
    n_paths_touched: int
    n_subgraphs_refreshed: int
    n_skeleton_edges_updated: int
    elapsed_s: float


class DTLP:
    """The Distributed Two-Level Path index over one dynamic graph."""

    def __init__(
        self,
        graph: Graph,
        partition: Partition,
        sub_indexes: List[SubgraphIndex],
        ep: EPIndex,
        skeleton: SkeletonGraph,
        pair_lbd: Dict[Tuple[int, int], Dict[int, float]],
        xi: int,
    ) -> None:
        self.graph = graph
        self.partition = partition
        self.sub_indexes = sub_indexes
        self.ep = ep
        self.skeleton = skeleton
        self.pair_lbd = pair_lbd
        self.xi = xi
        #: bumped by every :meth:`update`, so a cached query snapshot (a
        #: Spark broadcast) can tell that it is stale
        self.version = 0

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        *,
        z: int,
        xi: int = DEFAULT_XI,
        partition: Optional[Partition] = None,
    ) -> "DTLP":
        """Algorithm 1 on a single process (the distributed build lives in
        ``repro.distrib.dtlp_build`` and produces identical state)."""
        part = partition if partition is not None else bfs_partition(graph, z)
        sub_indexes = [
            build_subgraph_index(sg, part.boundary_of(sg.sg_id), xi)
            for sg in part.subgraphs
        ]
        ep = EPIndex.build(graph, sub_indexes)
        skeleton, pair_lbd = build_skeleton(sub_indexes, directed=graph.directed)
        return cls(graph, part, sub_indexes, ep, skeleton, pair_lbd, xi)

    # -- maintenance -------------------------------------------------------
    def update(
        self, deltas: List[Tuple[Edge, float]], *, apply_to_graph: bool = True
    ) -> UpdateStats:
        """Algorithm 2 for a batch of weight changes.

        ``deltas`` holds absolute weight changes ``((u, v), delta_w)``.
        With ``apply_to_graph`` the graph's current weights are updated
        here too (keeping graph and index in lock-step, like the shared
        ``G_curr`` buffer in Section 2).
        """
        t0 = time.perf_counter()
        self.version += 1
        touched = 0
        affected_sgs: Set[int] = set()
        for (u, v), dw in deltas:
            if dw == 0.0:
                continue
            if apply_to_graph:
                self.graph.set_weight(u, v, self.graph.weight(u, v) + dw)
            touched += self.ep.apply_delta(u, v, dw)
            e = self.graph.canonical(u, v)
            sg = self.partition.subgraph_of_edge.get(e)
            if sg is not None:
                affected_sgs.add(sg)

        n_skel = 0
        for sg_id in affected_sgs:
            idx = self.sub_indexes[sg_id]
            idx.refresh_unit_weights()
            for pair, lbd in idx.lbd_items().items():
                per_sg = self.pair_lbd[pair]
                if per_sg.get(sg_id) != lbd:
                    per_sg[sg_id] = lbd
                    new_w = min(per_sg.values())
                    if (
                        not self.skeleton.has_edge(*pair)
                        or self.skeleton.weight(*pair) != new_w
                    ):
                        self.skeleton.set_edge(pair[0], pair[1], new_w)
                        n_skel += 1
        return UpdateStats(
            n_deltas=len(deltas),
            n_paths_touched=touched,
            n_subgraphs_refreshed=len(affected_sgs),
            n_skeleton_edges_updated=n_skel,
            elapsed_s=time.perf_counter() - t0,
        )

    # -- query-side view ---------------------------------------------------
    def query_snapshot(self) -> "DTLP":
        """A light clone carrying only what KSP-DG queries need.

        Query processing uses only the skeleton and the partition/
        subgraphs (virtual endpoints are attached by Dijkstra on current
        weights) — NOT the bounding-path lists, the unit-weight
        structures or the EP-Index, which exist for maintenance.
        Dropping them shrinks the Spark broadcast by orders of magnitude
        (the paper likewise ships only the skeleton graph and subgraphs
        to QueryBolts).
        """
        light_indexes = [
            SubgraphIndex(subgraph=idx.subgraph, xi=idx.xi)
            for idx in self.sub_indexes
        ]
        return DTLP(
            self.graph,
            self.partition,
            light_indexes,
            EPIndex(self.graph),
            self.skeleton,
            {},
            self.xi,
        )

    # -- statistics (Tables 1 and 3) ---------------------------------------
    def stats(self) -> Dict[str, int]:
        """The Table 1 row for this graph/index."""
        return {
            "n_vertices": self.graph.n_vertices,
            "n_edges": self.graph.n_edges,
            "z": self.partition.z,
            "n_subgraphs": self.partition.n_subgraphs,
            "n_subgraphs_nb_gt5": self.partition.n_subgraphs_with_boundary_over(5),
            "skeleton_vertices": self.skeleton.n_vertices,
            "skeleton_edges": self.skeleton.n_edges,
            "ep_index_entries": self.ep.n_entries,
        }
