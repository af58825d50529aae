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

:func:`filter_refine` is the one copy of this loop; only the partial-KSP
computation is pluggable.  :func:`ksp_dg` runs it on the driver (and,
unchanged, inside each query task of ``repro.distrib.ksp_queries``);
``repro.distrib.ksp_queries.ksp_dg_spark_refine`` runs it with each
reference path's partial KSPs computed per (subgraph, pair) in one
Spark job.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..roadnet.graph import Subgraph
from .dijkstra import reverse_spt
from .dtlp import DTLP
from .merge import k_best_join
from .skeleton import attach_query_vertices
from .yen import yen_iter, yen_ksp

Path = List[int]
Pair = Tuple[int, int]
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
    #: boundary pairs whose partial KSPs were computed (cache misses) — the
    #: refine-step work the cluster shares (Section 5.6 communication unit)
    n_partial_tasks: int = 0
    cache_hits: int = 0
    #: False when ``max_iterations`` stopped the loop before Theorem 3's
    #: stop held, or the join's expansion cap cut a join short: ``paths``
    #: are then the best found so far (anytime mode)
    exact: bool = True


def reference_paths(skeleton, s: int, t: int):
    """Lazy i-th-shortest reference paths in the (augmented) skeleton.

    Yen's algorithm with A* spur searches guided by the reverse-SPT
    distance-to-``t`` map (computed on the reversed skeleton when
    directed; consistent, hence results identical to plain Yen) — the
    skeleton is dense (every boundary pair of a subgraph is an edge), so
    goal-directed spur searches cut the dominant per-iteration cost of
    the filter step.
    """
    return yen_iter(
        skeleton.neighbors, s, t, directed=skeleton.directed,
        h=reverse_spt(skeleton.reversed().neighbors, t),
    )


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
    return yen_ksp(
        sg.neighbors, u, v, k, directed=sg.graph.directed, banned=banned
    )


#: ``fetch(missing_pairs, (s, t))`` -> the k best segments of each pair,
#: in order, up to and including the first pair that has none.
Fetch = Callable[[List[Pair], Pair], Dict[Pair, List[Scored]]]


def filter_refine(
    dtlp: DTLP,
    s: int,
    t: int,
    k: int,
    fetch: Fetch,
    max_iterations: Optional[int] = None,
) -> KSPResult:
    """The filter-and-refine loop of Algorithm 3, with Theorem 3's stop.

    ``fetch`` computes the partial KSPs of the reference-path pairs not
    yet cached (Algorithm 4, lines 3-8) — on the driver or as
    distributed subgraph tasks; everything else runs here.  A reference
    path yields candidates only if every pair has segments, so pairs
    after the first one with none are neither fetched nor counted.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if s == t:
        return KSPResult(s, t, k, [([s], 0.0)], n_iterations=0)

    aug = attach_query_vertices(dtlp.skeleton, dtlp.partition, s, t)
    refs = reference_paths(aug, s, t)
    partial: Dict[Pair, List[Scored]] = {}  # Section 5.2 cache
    tasks = hits = 0
    results: Dict[Tuple[int, ...], float] = {}  # L, dedup by route

    ref = next(refs, None)
    n_iter = 0
    exact = True
    kth = float("inf")  # the k-th distance in L
    while ref is not None:
        n_iter += 1
        pairs = list(zip(ref[0], ref[0][1:]))
        missing = []
        for pair in pairs:
            cached = partial.get(pair)
            if cached is None:
                missing.append(pair)
            elif not cached:
                break
        fetched = fetch(missing, (s, t))
        partial.update(fetched)
        tasks += len(fetched)
        segments: List[List[Scored]] = []
        for pair in pairs:
            cached = partial.get(pair)
            if cached is None:  # after a fetched pair with no segments
                break
            hits += pair not in fetched
            if not cached:
                break
            segments.append(cached)
        else:
            # a join costing more than L's k-th distance cannot enter L
            joined = k_best_join(segments, k, bound=kth)
            if joined.capped:
                exact = False
            for path, dist in joined:
                key = tuple(path)
                if key not in results or dist < results[key]:
                    results[key] = dist
        next_ref = next(refs, None)
        kth = sorted(results.values())[k - 1] if len(results) >= k else float("inf")
        if next_ref is None or kth <= next_ref[1] + _EPS:
            break
        if max_iterations is not None and n_iter >= max_iterations:
            exact = False
            break
        ref = next_ref

    ranked = sorted(
        ((list(p), d) for p, d in results.items()), key=lambda pd: (pd[1], pd[0])
    )[:k]
    return KSPResult(
        s,
        t,
        k,
        ranked,
        n_iterations=n_iter,
        n_partial_tasks=tasks,
        cache_hits=hits,
        exact=exact,
    )


def ksp_dg(
    dtlp: DTLP,
    s: int,
    t: int,
    k: int,
    *,
    max_iterations: Optional[int] = None,
) -> KSPResult:
    """Run KSP-DG for query ``q(s, t)`` against the current DTLP state."""

    def fetch(pairs: List[Pair], ends: Pair) -> Dict[Pair, List[Scored]]:
        out: Dict[Pair, List[Scored]] = {}
        for u, v in pairs:
            out[(u, v)] = segments = partial_ksp(dtlp, u, v, k, ends)
            if not segments:
                break
        return out

    return filter_refine(dtlp, s, t, k, fetch, max_iterations)
