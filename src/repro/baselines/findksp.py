"""FindKSP baseline — centralized KSP with shortest-path-tree pruning.

Stands in for Liu et al. [21] (see DESIGN.md section 2): the paper uses
FindKSP as "a faster centralized exact KSP than Yen".  Like [21] (and
[10, 13, 14]) it builds a shortest-path tree to the target per query and
uses its distances to guide candidate generation.  Concretely this is
Yen's deviation paradigm in which every spur search is an A* guided by
the reverse-SPT distance-to-target heuristic — consistent, hence exact,
and it visits a fraction of the vertices plain Dijkstra spur searches
touch.  It remains sequential and needs the whole graph, the two
properties the paper's comparison exercises (Figures 35-39).
"""
from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.dijkstra import NeighborsFn, reverse_spt
from ..core.yen import yen_ksp

Path = List[int]
Scored = Tuple[Path, float]


def find_ksp(
    neighbors_fn: NeighborsFn,
    source: int,
    target: int,
    k: int,
    *,
    directed_reverse_fn: Optional[NeighborsFn] = None,
) -> List[Scored]:
    """The k shortest loopless paths, SPT-pruned.

    ``directed_reverse_fn`` supplies reversed adjacency for directed
    graphs (the SPT must measure distance *to* the target); undirected
    graphs reuse ``neighbors_fn``.
    """
    rev = directed_reverse_fn if directed_reverse_fn is not None else neighbors_fn
    return yen_ksp(
        neighbors_fn, source, target, k,
        directed=directed_reverse_fn is not None, h=reverse_spt(rev, target),
    )
