"""Single-source shortest paths: Dijkstra and A* with removable elements.

These are the primitives underneath everything in the paper: Yen's
spur searches (reference paths, per-subgraph partial KSPs, bounding
paths and the FindKSP baseline; A* wherever a distance-to-target map is
at hand) and the CANDS baseline (boundary-pair indexes).

All functions take a ``neighbors_fn(u) -> iterable[(v, weight)]`` so the
same code runs on a full :class:`~repro.roadnet.graph.Graph`, a
:class:`~repro.roadnet.graph.Subgraph` view, an initial-weight view, or
the in-memory skeleton graph.  ``banned_vertices`` / ``banned_edges``
support Yen's spur searches; banned edges are directed ``(u, v)`` pairs
(callers ban both directions for undirected graphs).
"""
from __future__ import annotations

import heapq
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple,
)

NeighborsFn = Callable[[int], Iterable[Tuple[int, float]]]

_EMPTY: FrozenSet = frozenset()


def dijkstra(
    neighbors_fn: NeighborsFn,
    source: int,
    *,
    target: Optional[int] = None,
    banned_vertices: FrozenSet[int] = _EMPTY,
    banned_edges: FrozenSet[Tuple[int, int]] = _EMPTY,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Dijkstra from ``source``; early exit at ``target`` if given.

    Returns ``(dist, pred)``: settled distances and predecessor map.
    ``source`` may not be banned.  Weights must be non-negative.
    """
    if source in banned_vertices:
        raise ValueError(f"source {source} is banned")
    dist: Dict[int, float] = {source: 0.0}
    pred: Dict[int, int] = {}
    done: Set[int] = set()
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == target:
            break
        for v, w in neighbors_fn(u):
            if v in done or v in banned_vertices:
                continue
            if banned_edges and (u, v) in banned_edges:
                continue
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, pred


def astar(
    neighbors_fn: NeighborsFn,
    source: int,
    target: int,
    h: Mapping[int, float],
    *,
    banned_vertices: FrozenSet[int] = _EMPTY,
    banned_edges: FrozenSet[Tuple[int, int]] = _EMPTY,
) -> Optional[Tuple[List[int], float]]:
    """A* search guided by ``h``, a distance-to-``target`` map.

    ``h`` must be consistent for exactness; a vertex missing from it
    cannot reach ``target`` and is never queued.  Yen's spur searches
    pass the reverse-SPT distances (:func:`reverse_spt`), which ignore
    bans and so only under-estimate.  Returns ``(path, dist)`` or
    ``None`` if ``target`` is unreachable.
    """
    if source in banned_vertices:
        return None
    inf = float("inf")
    gscore: Dict[int, float] = {source: 0.0}
    pred: Dict[int, int] = {}
    done: Set[int] = set()
    heap: List[Tuple[float, int]] = [(h.get(source, inf), source)]
    while heap:
        f, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == target:
            return _reconstruct(pred, source, target), gscore[target]
        gu = gscore[u]
        for v, w in neighbors_fn(u):
            if v in done or v in banned_vertices:
                continue
            if banned_edges and (u, v) in banned_edges:
                continue
            ng = gu + w
            if ng < gscore.get(v, inf):
                gscore[v] = ng
                pred[v] = u
                hv = h.get(v, inf)
                if hv < inf:
                    heapq.heappush(heap, (ng + hv, v))
    return None


def _reconstruct(pred: Dict[int, int], source: int, target: int) -> List[int]:
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]])
    path.reverse()
    return path


def shortest_path(
    neighbors_fn: NeighborsFn,
    source: int,
    target: int,
    *,
    banned_vertices: FrozenSet[int] = _EMPTY,
    banned_edges: FrozenSet[Tuple[int, int]] = _EMPTY,
) -> Optional[Tuple[List[int], float]]:
    """Shortest ``source -> target`` path, or ``None`` if unreachable."""
    if source == target:
        return [source], 0.0
    dist, pred = dijkstra(
        neighbors_fn,
        source,
        target=target,
        banned_vertices=banned_vertices,
        banned_edges=banned_edges,
    )
    if target not in dist:
        return None
    return _reconstruct(pred, source, target), dist[target]


def reverse_spt(neighbors_fn: NeighborsFn, target: int) -> Dict[int, float]:
    """Distance-to-``target`` for every vertex that can reach it.

    For undirected graphs this is just Dijkstra from ``target``.  For
    directed graphs callers must pass a *reversed* neighbors function.
    """
    dist, _ = dijkstra(neighbors_fn, target)
    return dist
