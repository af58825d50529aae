"""Shared test utilities: networkx oracles, graph conversions and a
Spark job probe.

networkx is used ONLY in tests, as the exact gold standard:
``shortest_simple_paths`` is a proven KSP implementation, so any
disagreement is a bug in ``src/repro``.
"""
from __future__ import annotations

import time
from itertools import count, islice
from typing import List, Tuple

import networkx as nx

from repro.roadnet import Graph


def to_nx(g: Graph) -> "nx.Graph":
    G = nx.DiGraph() if g.directed else nx.Graph()
    for u, v in g.edges():
        G.add_edge(u, v, weight=g.weight(u, v))
    return G


def nx_path_dist(G, path: List[int]) -> float:
    return sum(G[a][b]["weight"] for a, b in zip(path, path[1:]))


def nx_ksp_dists(G, s: int, t: int, k: int) -> List[float]:
    """Distances of the k shortest simple paths, ascending."""
    out = []
    try:
        for p in islice(nx.shortest_simple_paths(G, s, t, weight="weight"), k):
            out.append(nx_path_dist(G, p))
    except nx.NetworkXNoPath:
        return []
    return sorted(out)


def nx_shortest_dist(G, s: int, t: int) -> float:
    return nx.shortest_path_length(G, s, t, weight="weight")


def round_dists(scored: List[Tuple[List[int], float]], nd: int = 6) -> List[float]:
    return [round(d, nd) for _, d in scored]


_groups = count()


def spark_jobs(spark, run):
    """``run()``'s result and, per Spark job it started (in start
    order), the task count of each of the job's stages (in stage order)."""
    sc = spark.sparkContext
    group = f"probe-{next(_groups)}"
    try:
        sc.setJobGroup(group, "probe")
        result = run()
        # The status tracker is fed asynchronously, in event order: once
        # it lists this later job it lists every job ``run`` started.
        sc.setJobGroup(group + "-end", "probe")
        spark.range(1).count()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    st = sc.statusTracker()
    deadline = time.monotonic() + 30
    while not st.getJobIdsForGroup(group + "-end"):
        assert time.monotonic() < deadline, "status tracker never saw the job"
        time.sleep(0.05)
    jobs = [st.getJobInfo(j) for j in sorted(st.getJobIdsForGroup(group))]
    return result, [
        [st.getStageInfo(s).numTasks for s in sorted(j.stageIds)] for j in jobs
    ]
