"""KSP-DG (Algorithm 3): iterative filter-and-refine k shortest paths.

Each iteration:

* **filter** — the i-th shortest path between ``s`` and ``t`` in the
  (query-augmented) skeleton graph ``G_lambda`` becomes the *reference
  path*, a sequence of boundary vertices;
* **refine** — for every adjacent pair along the reference path, the k
  shortest partial paths are computed inside each subgraph containing
  both vertices (Algorithm 4 / Yen), pooled, and joined into candidate
  complete paths, which update the running top-k list ``L``.

Termination (Theorem 3): once the k-th distance in ``L`` is no greater
than the distance of the *next* reference path, ``L`` is provably the
exact KSP answer — reference distances lower-bound every path sharing
their boundary sequence (Lemma 2), so no unexplored sequence can beat
``L``.  Partial KSPs are cached across iterations because neighbouring
reference paths share most pairs (the Section 5.2 optimization).

This module is the single-process reference semantics; the Spark layer
(``repro.distrib.ksp_queries``) runs the same loop with the refine step
fanned out per subgraph and/or whole queries fanned out per task.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..roadnet.graph import Subgraph
from .dijkstra import astar, reverse_spt
from .dtlp import DTLP
from .merge import k_best_join
from .skeleton import attach_query_vertices
from .yen import yen_iter, yen_ksp

Path = List[int]
Scored = Tuple[Path, float]
_EPS = 1e-9


@dataclass
class KSPResult:
    """Answer to one KSP query plus the counters the experiments report."""

    source: int
    target: int
    k: int
    paths: List[Scored]
    n_iterations: int
    #: partial-KSP subgraph tasks actually executed (cache misses) — the
    #: refine-step work the cluster shares (Section 5.6 communication unit)
    n_partial_tasks: int = 0
    cache_hits: int = 0


def reference_paths(skeleton, s: int, t: int):
    """Lazy i-th-shortest reference paths in the (augmented) skeleton.

    Yen's algorithm with A* spur searches guided by the reverse-SPT
    distance-to-``t`` heuristic (computed on the reversed skeleton when
    directed; consistent, hence results identical to plain Yen) — the
    skeleton is dense (every boundary pair of a subgraph is an edge), so
    goal-directed spur searches cut the dominant per-iteration cost of
    the filter step.
    """
    dist_to_t = reverse_spt(skeleton.reversed().neighbors, t)
    inf = float("inf")

    def h(v: int) -> float:
        return dist_to_t.get(v, inf)

    def spur_fn(nf, spur, tgt, *, banned_vertices=frozenset(), banned_edges=frozenset()):
        return astar(
            nf, spur, tgt, h,
            banned_vertices=banned_vertices, banned_edges=banned_edges,
        )

    return yen_iter(
        skeleton.neighbors, s, t, directed=skeleton.directed, spur_fn=spur_fn
    )


@dataclass
class _RefineState:
    """Per-query cache of partial KSPs keyed by ordered boundary pair."""

    partial: Dict[Tuple[int, int], List[Scored]] = field(default_factory=dict)
    tasks: int = 0
    hits: int = 0


def partial_ksp(
    dtlp: DTLP, u: int, v: int, k: int, ends: Tuple[int, int]
) -> List[Scored]:
    """k shortest ``u -> v`` segments confined to single subgraphs.

    Pools the segments of every subgraph whose vertex set contains both
    endpoints (Algorithm 4, lines 3-8) and keeps the k best.  Since
    subgraphs never share edges, paths from different subgraphs are
    always distinct.  ``ends`` are the query endpoints ``(s, t)``.
    """
    part = dtlp.partition
    sgs = set(part.home_subgraphs(u)) & set(part.home_subgraphs(v))
    pool: List[Scored] = []
    for sg_id in sorted(sgs):
        banned = segment_banned(part.boundary_of(sg_id), ends, u, v)
        pool.extend(segment_ksp(part.subgraphs[sg_id], u, v, k, banned))
    pool.sort(key=lambda pd: pd[1])
    return pool[:k]


def segment_banned(
    boundary: Iterable[int], ends: Tuple[int, int], u: int, v: int
) -> FrozenSet[int]:
    """Vertices a ``u -> v`` segment may not pass through.

    A refine segment runs between two consecutive boundary-vertex visits
    of a simple ``s -> t`` path, so neither the subgraph's other boundary
    vertices nor the query endpoints can lie inside it — the segment
    definition the skeleton weights and virtual edges already assume.
    Without the ban the k kept segments of a pair may all run through
    ``s`` or ``t``, their joins are all non-simple, and the answer misses
    paths (Theorem 3 then no longer holds).
    """
    return frozenset(boundary).union(ends) - {u, v}


def segment_ksp(
    sg: Subgraph, u: int, v: int, k: int, banned: FrozenSet[int]
) -> List[Scored]:
    """Yen's k shortest ``u -> v`` paths in ``sg`` avoiding ``banned``."""
    base = sg.neighbors

    def neighbors(x: int):
        for y, w in base(x):
            if y not in banned:
                yield y, w

    return yen_ksp(neighbors, u, v, k, directed=sg.graph.directed)


def _candidate_ksp(
    dtlp: DTLP, ref_path: Path, k: int, state: _RefineState
) -> List[Scored]:
    """Algorithm 4: candidate KSPs matching one reference path."""
    ends = (ref_path[0], ref_path[-1])
    segments: List[List[Scored]] = []
    for u, v in zip(ref_path, ref_path[1:]):
        key = (u, v)
        cached = state.partial.get(key)
        if cached is None:
            cached = partial_ksp(dtlp, u, v, k, ends)
            state.partial[key] = cached
            state.tasks += 1
        else:
            state.hits += 1
        if not cached:
            return []
        segments.append(cached)
    return k_best_join(segments, k)


def ksp_dg(
    dtlp: DTLP,
    s: int,
    t: int,
    k: int,
    *,
    max_iterations: Optional[int] = None,
) -> KSPResult:
    """Run KSP-DG for query ``q(s, t)`` against the current DTLP state."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if s == t:
        return KSPResult(s, t, k, [([s], 0.0)], n_iterations=0)

    aug = attach_query_vertices(dtlp.skeleton, dtlp.partition, s, t)
    refs = reference_paths(aug, s, t)
    state = _RefineState()
    results: Dict[Tuple[int, ...], float] = {}  # L, dedup by route

    try:
        ref_path, ref_dist = next(refs)
    except StopIteration:
        return KSPResult(s, t, k, [], n_iterations=0)

    n_iter = 0
    while True:
        n_iter += 1
        for path, dist in _candidate_ksp(dtlp, ref_path, k, state):
            key = tuple(path)
            if key not in results or dist < results[key]:
                results[key] = dist
        next_ref = next(refs, None)
        kth = sorted(results.values())[k - 1] if len(results) >= k else float("inf")
        if next_ref is None:
            break
        if kth <= next_ref[1] + _EPS:
            break
        if max_iterations is not None and n_iter >= max_iterations:
            break
        ref_path, ref_dist = next_ref

    ranked = sorted(
        ((list(p), d) for p, d in results.items()), key=lambda pd: (pd[1], pd[0])
    )[:k]
    return KSPResult(
        s,
        t,
        k,
        ranked,
        n_iterations=n_iter,
        n_partial_tasks=state.tasks,
        cache_hits=state.hits,
    )


def ksp_dg_batch(
    dtlp: DTLP, queries: List[Tuple[int, int]], k: int
) -> List[KSPResult]:
    """Process a batch of queries sequentially (driver-side reference).

    The Spark layer distributes this loop; results are identical because
    queries are independent given a fixed DTLP snapshot (Section 2's
    snapshot semantics).
    """
    return [ksp_dg(dtlp, s, t, k) for s, t in queries]
