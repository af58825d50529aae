"""Yen's algorithm [27]: k shortest loopless paths.

The one k-shortest-path search of the library, used in four places:

* reference paths — the i-th shortest path in the skeleton graph
  ``G_lambda`` (Algorithm 3 needs them lazily, one per iteration, so
  :func:`yen_iter` is a generator);
* partial KSPs between adjacent boundary vertices inside one subgraph
  (Algorithm 4, line 6);
* bounding paths, ranked by vfrag count under the initial weights
  (Section 3.4);
* the FindKSP baseline [21] and the centralized Yen baseline on the
  full graph (Section 6.5).

The implementation is the classic deviation paradigm: each accepted path
spawns spur searches from every prefix, with the prefix's vertices and
the deviation edges of previously accepted paths banned.  Callers pass
data, not code: ``h``, a distance-to-target map, turns every spur search
into a goal-directed A* (same paths, fewer expansions), and ``banned``
lists vertices no path may use.
"""
from __future__ import annotations

import heapq
from itertools import count
from typing import FrozenSet, Iterator, List, Mapping, Optional, Tuple

from ..roadnet.graph import path_distance
from .dijkstra import NeighborsFn, astar, shortest_path

Path = List[int]


def yen_iter(
    neighbors_fn: NeighborsFn,
    source: int,
    target: int,
    *,
    directed: bool = False,
    h: Optional[Mapping[int, float]] = None,
    banned: FrozenSet[int] = frozenset(),
) -> Iterator[Tuple[Path, float]]:
    """Yield loopless ``source -> target`` paths in non-decreasing distance.

    Stops when the path space is exhausted.  No path visits a vertex of
    ``banned``, which may not hold ``source`` or ``target``
    (``ValueError``).  ``h``, if given, is a consistent distance-to-
    ``target`` map (e.g. :func:`~repro.core.dijkstra.reverse_spt`); spur
    searches then run as A* and yield the same distances.  The first
    path is always a Dijkstra search, so ties break the same either way.
    """
    if source in banned or target in banned:
        raise ValueError(f"an endpoint of ({source}, {target}) is banned")
    first = shortest_path(neighbors_fn, source, target, banned_vertices=banned)
    if first is None:
        return
    accepted: List[Tuple[Path, float]] = []
    seen: set = set()
    # Candidate heap entries: (dist, tiebreak, path).  The tiebreak makes
    # heap ordering total without comparing lists.
    tie = count()
    candidates: List[Tuple[float, int, Path]] = []
    path, dist = first
    while True:
        accepted.append((path, dist))
        seen.add(tuple(path))
        yield path, dist
        # Generate deviations of the path just accepted.
        for i in range(len(path) - 1):
            root = path[: i + 1]
            spur = path[i]
            banned_edges = set()
            for p, _ in accepted:
                if len(p) > i and p[: i + 1] == root:
                    e = (p[i], p[i + 1])
                    banned_edges.add(e)
                    if not directed:
                        banned_edges.add((e[1], e[0]))
            banned_vertices = banned.union(root[:-1])
            if h is None:
                res = shortest_path(
                    neighbors_fn, spur, target,
                    banned_vertices=banned_vertices,
                    banned_edges=frozenset(banned_edges),
                )
            else:
                res = astar(
                    neighbors_fn, spur, target, h,
                    banned_vertices=banned_vertices,
                    banned_edges=frozenset(banned_edges),
                )
            if res is None:
                continue
            spur_path, spur_dist = res
            total = root[:-1] + spur_path
            key = tuple(total)
            if key in seen:
                continue
            seen.add(key)
            root_dist = path_distance(neighbors_fn, root)
            heapq.heappush(candidates, (root_dist + spur_dist, next(tie), total))
        if not candidates:
            return
        dist, _, path = heapq.heappop(candidates)


def yen_ksp(
    neighbors_fn: NeighborsFn,
    source: int,
    target: int,
    k: int,
    *,
    directed: bool = False,
    h: Optional[Mapping[int, float]] = None,
    banned: FrozenSet[int] = frozenset(),
) -> List[Tuple[Path, float]]:
    """The k shortest loopless paths (fewer if the graph has fewer)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    out: List[Tuple[Path, float]] = []
    for path, dist in yen_iter(
        neighbors_fn, source, target, directed=directed, h=h, banned=banned
    ):
        out.append((path, dist))
        if len(out) == k:
            break
    return out
