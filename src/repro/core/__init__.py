"""The paper's contribution: DTLP index + KSP-DG algorithm."""
from .bounding import (
    BoundingPath,
    SubgraphIndex,
    UnitWeightIndex,
    bounding_paths,
    build_subgraph_index,
    lower_bound_distance,
)
from .dijkstra import astar, dijkstra, reverse_spt, shortest_path
from .dtlp import DEFAULT_XI, DTLP, UpdateStats
from .ep_index import EPIndex
from .ksp_dg import KSPResult, ksp_dg, partial_ksp
from .merge import concat_segments, is_simple, k_best_join
from .partition import Partition, bfs_partition
from .skeleton import SkeletonGraph, attach_query_vertices, build_skeleton
from .yen import yen_iter, yen_ksp

__all__ = [
    "BoundingPath",
    "SubgraphIndex",
    "UnitWeightIndex",
    "bounding_paths",
    "build_subgraph_index",
    "lower_bound_distance",
    "astar",
    "dijkstra",
    "reverse_spt",
    "shortest_path",
    "DEFAULT_XI",
    "DTLP",
    "UpdateStats",
    "EPIndex",
    "KSPResult",
    "ksp_dg",
    "partial_ksp",
    "concat_segments",
    "is_simple",
    "k_best_join",
    "Partition",
    "bfs_partition",
    "SkeletonGraph",
    "attach_query_vertices",
    "build_skeleton",
    "yen_iter",
    "yen_ksp",
]
