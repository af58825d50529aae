"""Distributed KSP query processing — the Storm topology as Spark jobs.

Two parallelism axes, matching Section 6.1:

* **Query-parallel** (:func:`process_batch_spark`) — the paper's primary
  scalability axis (Figures 32, 35-38): each QueryBolt owns whole
  queries.  A request is one RDD job: the ``(qid, s, t)`` tuples are
  ``parallelize``d into at most one task per query and every task runs
  the full KSP-DG loop against a *versioned broadcast* of the DTLP
  query snapshot, handing the :class:`KSPResult` objects back as they
  are (no shuffle, no DataFrame).  Like the paper's long-lived
  QueryBolts holding a replicated skeleton graph, the broadcast is
  kept across requests and replaced (the old one destroyed) only when
  the DTLP or its graph reports a new version.
* **Subgraph-parallel refine** (:func:`ksp_dg_spark_refine`) — the
  intra-query axis: per iteration, the (subgraph, boundary-pair) tasks
  of the current reference path are cogrouped with the edges DataFrame
  and each subgraph computes its partial k shortest paths in its own
  task (the SubgraphBolt receiving a broadcast reference path), merged
  back at the driver (the QueryBolt join).

Both produce results identical to the driver reference
(:func:`repro.core.ksp_dg.ksp_dg`); tests assert all three agree.
"""
from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterator, List, Optional, Tuple

import pandas as pd
from pyspark import Broadcast, SparkContext
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from ..core.dtlp import DTLP
from ..core.ksp_dg import (
    KSPResult,
    ksp_dg,
    reference_paths,
    segment_banned,
    segment_ksp,
)
from ..core.merge import k_best_join
from ..core.skeleton import attach_query_vertices
from ..roadnet.graph import Graph, Subgraph
from .spark_graph import cogroup_by_subgraph, decode_path, edges_df, encode_path

_EPS = 1e-9

PARTIAL_SCHEMA = T.StructType(
    [
        T.StructField("sg_id", T.IntegerType(), False),
        T.StructField("u", T.IntegerType(), False),
        T.StructField("v", T.IntegerType(), False),
        T.StructField("rank", T.IntegerType(), False),
        T.StructField("path", T.StringType(), False),
        T.StructField("dist", T.DoubleType(), False),
    ]
)

TASKS_SCHEMA = T.StructType(
    [
        T.StructField("sg_id", T.IntegerType(), False),
        T.StructField("u", T.IntegerType(), False),
        T.StructField("v", T.IntegerType(), False),
        T.StructField("banned", T.StringType(), False),
        T.StructField("k", T.IntegerType(), False),
    ]
)


# -- query-parallel mode ----------------------------------------------------
class _Replica:
    """One broadcast query snapshot and the index state it was taken from.

    ``users`` counts the requests running on it, so that a replaced
    replica is destroyed only once the last of them has returned.
    """

    def __init__(self, sc: SparkContext, dtlp: DTLP) -> None:
        self.sc = sc
        self.dtlp = weakref.ref(dtlp)
        self.version = (dtlp.version, dtlp.graph.version)
        self.bc: Broadcast = sc.broadcast(dtlp.query_snapshot())
        self.users = 0

    def serves(self, sc: SparkContext, dtlp: DTLP) -> bool:
        return (
            self.sc is sc
            and self.dtlp() is dtlp
            and self.version == (dtlp.version, dtlp.graph.version)
        )


#: The replica serving requests; swapped only under ``_replica_lock``.
_replica: Optional[_Replica] = None
_replica_lock = threading.Lock()


def _destroy_if_unused(replica: _Replica) -> None:
    """Destroy a replaced, idle replica's broadcast; hold the lock."""
    # A stopped context's broadcasts are gone, and a new context reuses
    # their ids: destroying one would drop the new context's broadcast.
    if replica is not _replica and replica.users == 0 and replica.sc._jsc:
        # unpersist() would leave the pickled snapshot in sc._temp_dir.
        replica.bc.destroy()


def _acquire_replica(sc: SparkContext, dtlp: DTLP) -> _Replica:
    """The replica of ``dtlp``'s current query snapshot, broadcast anew
    only when the DTLP, its version or its graph's version has changed."""
    global _replica
    with _replica_lock:
        if _replica is None or not _replica.serves(sc, dtlp):
            old, _replica = _replica, _Replica(sc, dtlp)
            if old is not None:
                _destroy_if_unused(old)
        _replica.users += 1
        return _replica


def _release_replica(replica: _Replica) -> None:
    with _replica_lock:
        replica.users -= 1
        _destroy_if_unused(replica)


def process_batch_spark(
    spark: SparkSession,
    dtlp: DTLP,
    queries: List[Tuple[int, int]],
    k: int,
    *,
    n_partitions: Optional[int] = None,
    max_iterations: Optional[int] = None,
) -> Dict[int, KSPResult]:
    """Process a query batch with one KSP-DG run per query, in one Spark job.

    The queries are fanned out over ``min(n_partitions, len(queries))``
    tasks (``n_partitions`` defaults to the default parallelism) that
    run :func:`ksp_dg` against a broadcast query snapshot; results are
    keyed by the query's position in ``queries``.  The snapshot is
    broadcast again only after ``dtlp.update`` or a weight change on
    ``dtlp.graph``, like the paper's long-lived QueryBolts that are sent
    new state only when the index changes.

    ``max_iterations`` optionally bounds the filter-refine loop per
    query (anytime mode: the best-k found so far are returned).  In
    measurements the returned lists were already exact well before
    typical caps — the trailing iterations only certify optimality by
    pushing the next reference distance above the k-th candidate — but
    formally a capped run forfeits the Theorem 3 guarantee; tests always
    run uncapped.
    """
    if not queries:
        return {}
    sc = spark.sparkContext
    replica = _acquire_replica(sc, dtlp)
    bc = replica.bc  # the task closes over this alone: a replica holds ``sc``

    def fn(rows: Iterator[Tuple[int, int, int]]) -> Iterator[Tuple[int, KSPResult]]:
        local: DTLP = bc.value
        for qid, s, t in rows:
            yield qid, ksp_dg(local, s, t, k, max_iterations=max_iterations)

    parts = min(n_partitions or sc.defaultParallelism, len(queries))
    try:
        out = (
            sc.parallelize([(qid, s, t) for qid, (s, t) in enumerate(queries)], parts)
            .mapPartitions(fn)
            .collect()
        )
    finally:
        _release_replica(replica)
    return dict(out)


# -- subgraph-parallel refine mode ------------------------------------------
def _partial_ksp_tasks_spark(
    spark: SparkSession,
    edges: DataFrame,
    tasks: List[Tuple[int, int, int, str]],
    k: int,
    directed: bool,
) -> Dict[Tuple[int, int], List[Tuple[List[int], float]]]:
    """Run Yen for each (sg_id, u, v, banned) task inside its subgraph's
    Spark group; ``banned`` is the encoded :func:`segment_banned` set."""
    tasks_pdf = pd.DataFrame(tasks, columns=["sg_id", "u", "v", "banned"])
    tasks_pdf["k"] = k
    tdf = spark.createDataFrame(tasks_pdf, schema=TASKS_SCHEMA)

    def fn(edges_pdf: pd.DataFrame, tasks_pdf: pd.DataFrame) -> pd.DataFrame:
        if tasks_pdf.empty or edges_pdf.empty:
            return pd.DataFrame(
                columns=["sg_id", "u", "v", "rank", "path", "dist"]
            ).astype({"sg_id": int, "u": int, "v": int, "rank": int, "dist": float})
        g = Graph(directed=directed)
        for u, v, w, w0 in zip(
            edges_pdf["u"], edges_pdf["v"], edges_pdf["w"], edges_pdf["w0"]
        ):
            g.add_edge(int(u), int(v), int(w0), float(w))
        sg = Subgraph(g, int(edges_pdf["sg_id"].iloc[0]), list(g.edges()))
        rows = []
        for u, v, kk, banned in zip(
            tasks_pdf["u"], tasks_pdf["v"], tasks_pdf["k"], tasks_pdf["banned"]
        ):
            if int(u) not in sg.vertex_set or int(v) not in sg.vertex_set:
                continue
            for rank, (path, dist) in enumerate(
                segment_ksp(
                    sg, int(u), int(v), int(kk), frozenset(decode_path(banned))
                )
            ):
                rows.append(
                    (sg.sg_id, int(u), int(v), rank, encode_path(path), dist)
                )
        return pd.DataFrame(
            rows, columns=["sg_id", "u", "v", "rank", "path", "dist"]
        )

    out = (
        cogroup_by_subgraph(edges, tdf)
        .applyInPandas(fn, schema=PARTIAL_SCHEMA)
        .collect()
    )
    pooled: Dict[Tuple[int, int], List[Tuple[List[int], float]]] = {}
    for r in out:
        pooled.setdefault((int(r["u"]), int(r["v"])), []).append(
            (decode_path(r["path"]), float(r["dist"]))
        )
    return {
        pair: sorted(paths, key=lambda pd_: pd_[1])[:k]
        for pair, paths in pooled.items()
    }


def ksp_dg_spark_refine(
    spark: SparkSession,
    dtlp: DTLP,
    s: int,
    t: int,
    k: int,
    *,
    edges: Optional[DataFrame] = None,
) -> KSPResult:
    """KSP-DG with the refine step executed as distributed subgraph tasks.

    The filter step (reference paths on the replicated skeleton) stays
    at the query owner, as in the paper; each iteration broadcasts the
    reference path's (subgraph, pair) tasks to the SubgraphBolt
    equivalent.  Results match :func:`repro.core.ksp_dg.ksp_dg` exactly.
    """
    if s == t:
        return KSPResult(s, t, k, [([s], 0.0)], n_iterations=0)
    if edges is None:
        edges = edges_df(spark, dtlp.graph, dtlp.partition)
    aug = attach_query_vertices(dtlp.skeleton, dtlp.partition, s, t)
    refs = reference_paths(aug, s, t)
    part = dtlp.partition
    cache: Dict[Tuple[int, int], List[Tuple[List[int], float]]] = {}
    results: Dict[Tuple[int, ...], float] = {}

    first = next(refs, None)
    if first is None:
        return KSPResult(s, t, k, [], n_iterations=0)
    ref_path, _ = first
    n_iter = 0
    n_tasks = 0
    while True:
        n_iter += 1
        pairs = list(zip(ref_path, ref_path[1:]))
        missing = [p for p in pairs if p not in cache]
        if missing:
            tasks = []
            for u, v in missing:
                for sg_id in sorted(
                    set(part.home_subgraphs(u)) & set(part.home_subgraphs(v))
                ):
                    banned = segment_banned(part.boundary_of(sg_id), (s, t), u, v)
                    tasks.append((sg_id, u, v, encode_path(sorted(banned))))
            n_tasks += len(tasks)
            pooled = _partial_ksp_tasks_spark(
                spark, edges, tasks, k, dtlp.graph.directed
            )
            for u, v in missing:
                cache[(u, v)] = pooled.get((u, v), [])
        segments = [cache[p] for p in pairs]
        if all(segments):
            for path, dist in k_best_join(segments, k):
                key = tuple(path)
                if key not in results or dist < results[key]:
                    results[key] = dist
        next_ref = next(refs, None)
        kth = sorted(results.values())[k - 1] if len(results) >= k else float("inf")
        if next_ref is None or kth <= next_ref[1] + _EPS:
            break
        ref_path, _ = next_ref

    ranked = sorted(
        ((list(p), d) for p, d in results.items()), key=lambda pd_: (pd_[1], pd_[0])
    )[:k]
    return KSPResult(
        s, t, k, ranked, n_iterations=n_iter, n_partial_tasks=n_tasks
    )
