"""Bounding paths, vfrags and lower bound distances (Sections 3.4-3.5).

The first level of DTLP.  Per subgraph ``SG`` and per pair of boundary
vertices ``(a, b)``:

* every edge ``e`` consists of ``w0(e)`` *virtual fragments* (vfrags),
  each of *unit weight* ``w(e) / w0(e)``; the vfrag count of a path,
  ``phi(P)``, is the sum of initial weights along it and never changes;
* the *bounding paths* ``B_ab`` are up to ``xi`` paths with the least
  vfrag counts, counting paths with equal ``phi`` once — computed with
  Yen's algorithm under the initial-weight length function, **once**,
  offline (the paper's central design point: the path set is insensitive
  to traffic);
* the *bound distance* ``BD(P)`` is the sum of the ``phi(P)`` smallest
  unit weights in ``SG`` — a quickly-recomputable lower bound on the
  path's current length;
* Theorem 1 turns ``B_ab`` into the *lower bound distance* ``LBD(a,b)``,
  a lower bound on the current shortest ``a``-``b`` distance within
  ``SG``: with ``Du`` the minimum current distance over ``B_ab`` and
  ``BDr`` the maximum bound distance, ``LBD = Du`` if ``BDr >= Du``
  (claim 1: the set provably contains the subgraph shortest path) else
  ``BDr`` (claim 2).
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..roadnet.graph import Subgraph, path_distance
from .dijkstra import dijkstra
from .yen import yen_iter

_EPS = 1e-9


class UnitWeightIndex:
    """Sorted unit-weight multiset of one subgraph with prefix sums.

    ``bd(phi)`` — the sum of the ``phi`` smallest unit weights — runs in
    ``O(log E)`` after an ``O(E log E)`` (re)build; :meth:`bd_many`
    evaluates a whole vector of ``phi`` values in one numpy pass, which
    is what keeps DTLP maintenance pure arithmetic (the system's core
    advantage over CANDS-style re-indexing).  Rebuilt whenever the
    subgraph's weights change (Algorithm 2, line 4).
    """

    def __init__(self, subgraph: Subgraph) -> None:
        import numpy as np

        g = subgraph.graph
        pairs = sorted(
            (g.weight(u, v) / g.init_weight(u, v), g.init_weight(u, v))
            for u, v in subgraph.edge_list
        )
        self._unit = np.array([p[0] for p in pairs], dtype=np.float64)
        counts = np.array([p[1] for p in pairs], dtype=np.int64)
        self._cum_count = np.cumsum(counts)
        self._cum_sum = np.cumsum(self._unit * counts)
        self.total_vfrags = int(self._cum_count[-1]) if len(pairs) else 0

    def bd(self, phi: int) -> float:
        """Sum of the ``phi`` smallest unit weights."""
        if phi < 0:
            raise ValueError(f"phi must be >= 0, got {phi}")
        if phi == 0:
            return 0.0
        if phi > self.total_vfrags:
            raise ValueError(
                f"phi={phi} exceeds total vfrags {self.total_vfrags} in subgraph"
            )
        i = bisect.bisect_left(self._cum_count, phi)
        prev_count = int(self._cum_count[i - 1]) if i else 0
        prev_sum = float(self._cum_sum[i - 1]) if i else 0.0
        return prev_sum + (phi - prev_count) * float(self._unit[i])

    def bd_capped(self, phi: int) -> float:
        """``bd`` evaluated at ``min(phi, total_vfrags)`` — the safe form
        for bound-distance lookups: simple paths never exceed the vfrag
        total, so capping can only make the claim-1 test fire in a state
        where every simple path is already inside the bounding set."""
        return self.bd(min(phi, self.total_vfrags))

    def bd_many(self, phis) -> "object":
        """Vectorized ``bd_capped`` over an int array of ``phi`` values."""
        import numpy as np

        phis = np.minimum(np.asarray(phis, dtype=np.int64), self.total_vfrags)
        i = np.searchsorted(self._cum_count, phis, side="left")
        prev_count = np.where(i > 0, self._cum_count[np.maximum(i - 1, 0)], 0)
        prev_sum = np.where(i > 0, self._cum_sum[np.maximum(i - 1, 0)], 0.0)
        unit = self._unit[np.minimum(i, len(self._unit) - 1)]
        out = prev_sum + (phis - prev_count) * unit
        return np.where(phis <= 0, 0.0, out)


class BoundingPath:
    """One bounding path: immutable route, mutable current distance.

    ``phi`` (vfrag count) is fixed forever; ``dist`` is the current
    actual length and is maintained incrementally by the EP-Index as
    weights change (Algorithm 2, line 3).
    """

    __slots__ = ("path", "phi", "dist")

    def __init__(self, path: Tuple[int, ...], phi: int, dist: float) -> None:
        self.path = path
        self.phi = phi
        self.dist = dist

    @property
    def endpoints(self) -> Tuple[int, int]:
        return self.path[0], self.path[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundingPath({list(self.path)}, phi={self.phi}, dist={self.dist:.3f})"


@dataclass
class BoundingSet:
    """The bounding paths of one pair plus a completeness marker.

    Definition in Section 3.4 ("paths containing the same number of
    vfrags are counted as only one path", formally ``forall P not in B:
    phi(P) > phi(P') for all P' in B``) requires **every** path of the
    ``xi`` smallest distinct vfrag counts to be in the set — Theorem 1's
    claim 1 is unsound otherwise (an unenumerated equal-``phi`` path
    could be shorter than every enumerated one).  ``complete`` is False
    only when the enumeration cap truncated the first ``phi`` class, in
    which case the LBD falls back to the always-sound ``bd(phi_min)``.
    """

    paths: List[BoundingPath]
    complete: bool = True


#: Per-pair enumeration cap; classes truncated by it are dropped (or,
#: for the very first class, kept with ``complete=False``).
MAX_ENUM_PATHS = 24


def bounding_paths(
    subgraph: Subgraph,
    a: int,
    b: int,
    xi: int,
    *,
    directed: bool = False,
    max_enum: int = MAX_ENUM_PATHS,
    h: Optional[Dict[int, float]] = None,
    banned: frozenset = frozenset(),
) -> BoundingSet:
    """All fewest-vfrag simple paths of the ``xi`` smallest ``phi`` classes.

    Runs Yen under the initial-weight length function inside the
    subgraph (which yields paths in ascending ``phi``, equal-``phi``
    paths contiguous).  ``h`` optionally supplies the init-weight
    distance-to-``b`` map (one Dijkstra from ``b``, shared across all
    sources of the subgraph); spur searches then run as goal-directed
    A* — identical results, far fewer vertex expansions.  Returns an
    empty set when ``b`` is unreachable from ``a`` within the subgraph.

    ``banned`` excludes intermediate vertices from every path.  The
    index build bans the subgraph's *other boundary vertices*: a
    skeleton edge (a, b) only ever stands in for the segment of a
    complete path between two *consecutive* boundary-vertex visits, and
    such a segment by definition touches no other boundary vertex.
    Restricting the bounding set this way is therefore still a sound
    lower bound for every segment the edge represents, while making the
    phi classes of far-apart pairs small (often empty) — which is what
    lets claim 1 fire and keeps the skeleton sparse and tight.
    """
    if xi < 1:
        raise ValueError(f"xi must be >= 1, got {xi}")
    out: List[BoundingPath] = []
    phis: List[int] = []  # distinct phi classes, ascending
    capped = False
    for path, phi in yen_iter(
        subgraph.init_neighbors, a, b, directed=directed, h=h,
        banned=frozenset(banned) - {a, b},
    ):
        phi_i = int(round(phi))
        if not phis or phi_i != phis[-1]:
            if len(phis) == xi:
                break  # class xi+1 started: the xi retained classes are complete
            phis.append(phi_i)
        dist = path_distance(subgraph.neighbors, path)
        out.append(BoundingPath(tuple(path), phi_i, dist))
        if len(out) >= max_enum:
            capped = True
            break
    if capped:
        last = phis[-1]
        head = [bp for bp in out if bp.phi != last]
        if head:
            # Drop the (possibly incomplete) last class; the rest is complete.
            return BoundingSet(head, complete=True)
        # Even the smallest class overflowed the cap: keep it, flag it.
        return BoundingSet(out, complete=False)
    return BoundingSet(out, complete=True)


def lower_bound_distance(
    bset: BoundingSet, uw: UnitWeightIndex
) -> Optional[float]:
    """Theorem 1: the lower bound distance for one bounding-path set.

    Returns ``None`` for an empty set (endpoints not connected within
    the subgraph — no skeleton contribution).  For an incomplete set
    (enumeration cap hit inside the first phi class) the sound fallback
    ``bd(phi_min)`` is used: any a-b path has ``phi >= phi_min``, hence
    distance ``>= bd(phi) >= bd(phi_min)``.
    """
    if not bset.paths:
        return None
    bds = [uw.bd_capped(p.phi) for p in bset.paths]
    if not bset.complete:
        return min(bds)
    du = min(p.dist for p in bset.paths)
    bdr = max(bds)
    # Claim 1 applies iff some bound distance reaches Du (with the set
    # sorted by BD this is exactly "BD_r >= D(P'_u)").
    if bdr >= du - _EPS:
        return du
    return bdr


@dataclass
class SubgraphIndex:
    """Level-1 DTLP state of one subgraph.

    ``bounding[(a, b)]`` holds the bounding paths for each connected
    boundary pair (``a < b`` for undirected graphs; ordered pairs when
    directed).  ``uw`` caches the unit-weight prefix structure and is
    rebuilt on weight change.
    """

    subgraph: Subgraph
    xi: int
    bounding: Dict[Tuple[int, int], BoundingSet] = field(default_factory=dict)
    uw: UnitWeightIndex = None  # type: ignore[assignment]
    #: cached init-weight distance maps keyed by target vertex — shared
    #: A* heuristics for every Yen run towards that target (undirected
    #: graphs only; init weights never change, so never invalidated)
    init_dist: Dict[int, Dict[int, float]] = field(default_factory=dict, repr=False)

    def refresh_unit_weights(self) -> None:
        self.uw = UnitWeightIndex(self.subgraph)

    def init_dist_to(self, b: int) -> Dict[int, float]:
        m = self.init_dist.get(b)
        if m is None:
            m, _ = dijkstra(self.subgraph.init_neighbors, b)
            self.init_dist[b] = m
        return m

    def lbd(self, a: int, b: int) -> Optional[float]:
        key = self._key(a, b)
        bset = self.bounding.get(key)
        if bset is None:
            return None
        return lower_bound_distance(bset, self.uw)

    def lbd_items(self) -> Dict[Tuple[int, int], float]:
        """All pairs' current lower bound distances, in one numpy pass.

        Maintenance calls this for every affected subgraph, so the bound
        distances of all stored paths are evaluated with a single bulk
        ``searchsorted`` rather than one bisect per path — this is the
        "constant time cost" recomputation the paper attributes to
        Algorithm 2, and what keeps DTLP updates arithmetic-only.
        """
        import numpy as np

        keys = [k for k, b in self.bounding.items() if b.paths]
        if not keys:
            return {}
        sizes, phis, min_dists, completes = [], [], [], []
        for k in keys:
            bset = self.bounding[k]
            sizes.append(len(bset.paths))
            phis.extend(bp.phi for bp in bset.paths)
            min_dists.append(min(bp.dist for bp in bset.paths))
            completes.append(bset.complete)
        bds = self.uw.bd_many(phis)
        offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        max_bd = np.maximum.reduceat(bds, offsets)
        min_bd = np.minimum.reduceat(bds, offsets)
        min_dist = np.asarray(min_dists)
        complete = np.asarray(completes)
        lbd = np.where(
            ~complete,
            min_bd,
            np.where(max_bd >= min_dist - _EPS, min_dist, max_bd),
        )
        return {k: float(v) for k, v in zip(keys, lbd)}

    def _key(self, a: int, b: int) -> Tuple[int, int]:
        if self.subgraph.graph.directed:
            return (a, b)
        return (a, b) if a <= b else (b, a)


def build_subgraph_index(
    subgraph: Subgraph, boundary_vertices: List[int], xi: int
) -> SubgraphIndex:
    """Compute bounding paths between every boundary pair of one subgraph.

    This is the per-subgraph unit of work in Algorithm 1 — the piece the
    distributed build (``repro.distrib.dtlp_build``) fans out with one
    task per subgraph.
    """
    idx = SubgraphIndex(subgraph=subgraph, xi=xi)
    idx.refresh_unit_weights()
    directed = subgraph.graph.directed
    verts = sorted(set(boundary_vertices) & subgraph.vertex_set)
    boundary_set = frozenset(verts)
    for i, a in enumerate(verts):
        for b in verts[i + 1 :]:
            if directed:
                bset = bounding_paths(
                    subgraph, a, b, xi, directed=True, banned=boundary_set
                )
                if bset.paths:
                    idx.bounding[(a, b)] = bset
                bset_rev = bounding_paths(
                    subgraph, b, a, xi, directed=True, banned=boundary_set
                )
                if bset_rev.paths:
                    idx.bounding[(b, a)] = bset_rev
            else:
                hmap = idx.init_dist_to(b)
                if a not in hmap:
                    continue  # b unreachable from a within this subgraph
                bset = bounding_paths(
                    subgraph, a, b, xi, h=hmap, banned=boundary_set
                )
                if bset.paths:
                    idx.bounding[(a, b)] = bset
    return idx
