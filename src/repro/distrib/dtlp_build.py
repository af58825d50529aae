"""Distributed DTLP construction (Algorithm 1 as Spark dataflow).

The expensive part of Algorithm 1 — Yen runs computing bounding paths
inside every subgraph — is embarrassingly parallel per subgraph, which
is exactly how the paper distributes it (each worker indexes the
subgraphs it maintains).  :func:`build_dtlp_spark` groups the edges
DataFrame by ``sg_id`` and runs
:func:`~repro.core.bounding.build_subgraph_index` per group inside
``applyInPandas``, emitting one row per bounding path with its current
distance *and* bound distance; the driver collects the rows and
reassembles the indexes and the skeleton (:func:`dtlp_from_bounding_rows`
calls :func:`~repro.core.skeleton.build_skeleton`).

Theorem 1 and MBD over the same rows are also **pure Spark SQL**
(:func:`lbd_df_from_bounding`, :func:`skeleton_df_from_lbd`); Spark
maintenance derives its skeleton with them, and they are checked
against DuckDB with the repo oracle.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.bounding import BoundingPath, BoundingSet, SubgraphIndex
from ..core.bounding import build_subgraph_index
from ..core.dtlp import DTLP
from ..core.ep_index import EPIndex
from ..core.partition import Partition, bfs_partition
from ..core.skeleton import build_skeleton
from ..roadnet.graph import Graph
from .spark_graph import (
    BOUNDING_SCHEMA,
    by_subgraph,
    decode_path,
    edges_df,
    encode_path,
    local_subgraph,
    prepare_worker,
)

if TYPE_CHECKING:  # imported where used, as in ``spark_graph``
    import pandas as pd

_EPS = 1e-9


def _bounding_rows(
    pdf: pd.DataFrame, boundary: List[int], xi: int, directed: bool
) -> pd.DataFrame:
    import pandas as pd

    sg = local_subgraph(pdf.itertuples(index=False, name=None), directed)
    idx = build_subgraph_index(sg, boundary, xi)
    rows = []
    for (a, b), bset in idx.bounding.items():
        for bp in bset.paths:
            rows.append(
                (
                    sg.sg_id,
                    a,
                    b,
                    encode_path(bp.path),
                    bp.phi,
                    bp.dist,
                    idx.uw.bd_capped(bp.phi),
                    bset.complete,
                )
            )
    return pd.DataFrame(
        rows,
        columns=["sg_id", "u", "v", "path", "phi", "dist", "bd", "complete"],
    )


def build_bounding_df(
    spark: SparkSession, graph: Graph, partition: Partition, xi: int
) -> DataFrame:
    """Fan the per-subgraph index construction out over the cluster.

    The task closure carries the boundary sets: the returned DataFrame
    is lazy and runs again on later actions, so a broadcast of them
    could never be released.
    """
    boundary_of = {
        sg.sg_id: partition.boundary_of(sg.sg_id) for sg in partition.subgraphs
    }
    directed = graph.directed

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        prepare_worker()
        return _bounding_rows(pdf, boundary_of[int(pdf["sg_id"].iloc[0])], xi, directed)

    edf = by_subgraph(edges_df(spark, graph, partition))
    return edf.groupBy("sg_id").applyInPandas(fn, schema=BOUNDING_SCHEMA)


def lbd_df_from_bounding(bounding: DataFrame) -> DataFrame:
    """Theorem 1 as SQL over the bounding-path rows.

    Incomplete sets (first phi class truncated by the enumeration cap)
    use the conservative ``min(bd)`` fallback — see
    :class:`repro.core.bounding.BoundingSet`.  The rows are shuffled
    once, by ``(u, v)``: that placement serves both this per-``(sg_id,
    u, v)`` aggregate and :func:`skeleton_df_from_lbd`'s per-``(u, v)``
    one, so the skeleton needs no second exchange.
    """
    lbd = F.expr(  # one parse: each Column call is a round trip to the JVM
        "CASE WHEN NOT bool_and(complete) THEN min(bd)"
        f" WHEN max(bd) >= min(dist) - {_EPS!r} THEN min(dist) ELSE max(bd) END"
    ).alias("lbd")
    return bounding.repartition("u", "v").groupBy("sg_id", "u", "v").agg(lbd)


def skeleton_df_from_lbd(lbd: DataFrame) -> DataFrame:
    """Section 3.6: skeleton edge weight = minimum lower bound distance."""
    return lbd.groupBy("u", "v").agg(F.min("lbd").alias("mbd"))


def build_dtlp_spark(
    spark: SparkSession, graph: Graph, *, z: int, xi: int
) -> Tuple[DTLP, DataFrame]:
    """Full distributed build returning a ready DTLP plus the bounding DF.

    The heavy lifting (Yen per subgraph) runs on the cluster; the driver
    reassembles the index objects from the collected rows — mirroring
    the paper, where workers index their subgraphs and only the small
    skeleton is shared globally.
    """
    partition = bfs_partition(graph, z)
    bounding = build_bounding_df(spark, graph, partition, xi)
    rows = bounding.collect()
    dtlp = dtlp_from_bounding_rows(graph, partition, xi, rows)
    return dtlp, bounding


def dtlp_from_bounding_rows(
    graph: Graph, partition: Partition, xi: int, rows
) -> DTLP:
    """Reassemble DTLP state from collected bounding-path rows."""
    per_sg: Dict[int, Dict[Tuple[int, int], List[BoundingPath]]] = {}
    completeness: Dict[Tuple[int, int, int], bool] = {}
    for r in rows:
        bp = BoundingPath(tuple(decode_path(r["path"])), int(r["phi"]), float(r["dist"]))
        key = (int(r["sg_id"]), int(r["u"]), int(r["v"]))
        per_sg.setdefault(key[0], {}).setdefault((key[1], key[2]), []).append(bp)
        completeness[key] = bool(r["complete"])
    sub_indexes: List[SubgraphIndex] = []
    for sg in partition.subgraphs:
        idx = SubgraphIndex(subgraph=sg, xi=xi)
        idx.bounding = {
            pair: BoundingSet(
                sorted(bps, key=lambda p: (p.phi, p.path)),
                complete=completeness[(sg.sg_id, *pair)],
            )
            for pair, bps in per_sg.get(sg.sg_id, {}).items()
        }
        idx.refresh_unit_weights()
        sub_indexes.append(idx)
    ep = EPIndex.build(graph, sub_indexes)
    skeleton, pair_lbd = build_skeleton(sub_indexes, directed=graph.directed)
    return DTLP(graph, partition, sub_indexes, ep, skeleton, pair_lbd, xi)
