"""Answer checks, run outside every timed interval.

Query answers are compared with networkx's k shortest simple paths on
the weights the query was served on, through the repository's test
oracle (``tests/_utils.py``); a Spark-maintained skeleton is compared
edge by edge with the driver index's skeleton.
"""
from __future__ import annotations

from typing import Dict, Tuple

from tests._utils import nx_ksp_dists, to_nx

_TOL = 1e-6


def answer_ok(G, result, k: int) -> bool:
    """The result's distances equal the oracle's and each path is simple."""
    want = nx_ksp_dists(G, result.source, result.target, k)
    got = [d for _, d in result.paths]
    if len(got) != len(want):
        return False
    for path, d in result.paths:
        if path[0] != result.source or path[-1] != result.target:
            return False
        if len(set(path)) != len(path):
            return False
        if not all(G.has_edge(a, b) for a, b in zip(path, path[1:])):
            return False
        if abs(sum(G[a][b]["weight"] for a, b in zip(path, path[1:])) - d) > _TOL:
            return False
    return all(abs(a - b) <= _TOL * max(1.0, abs(b)) for a, b in zip(got, want))


def skeleton_edges(skeleton) -> Dict[Tuple[int, int], float]:
    out = {}
    for a in skeleton.vertices:
        for b, w in skeleton.neighbors(a):
            key = (a, b) if skeleton.directed else (min(a, b), max(a, b))
            out[key] = w
    return out


def skeleton_ok(rows, skeleton) -> bool:
    """Spark skeleton rows ``(u, v, mbd)`` equal the driver skeleton."""
    want = skeleton_edges(skeleton)
    got = {}
    for r in rows:
        u, v = int(r["u"]), int(r["v"])
        key = (u, v) if skeleton.directed else (min(u, v), max(u, v))
        got[key] = float(r["mbd"])
    if got.keys() != want.keys():
        return False
    return all(abs(got[e] - want[e]) <= _TOL * max(1.0, abs(want[e])) for e in want)
