"""Graph <-> Spark DataFrame bridges.

The Storm deployment in Section 6.1 ships three kinds of state around
the cluster: subgraphs (adjacency lists held by SubgraphBolts), the
replicated skeleton graph, and query/update tuples.  Here:

* subgraphs are rows of an **edges DataFrame** keyed by ``sg_id`` —
  ``by_subgraph(df).groupBy("sg_id").applyInPandas`` is the SubgraphBolt,
  and :func:`local_subgraph` turns one group's rows back into a
  :class:`~repro.roadnet.graph.Subgraph`;
* the skeleton graph plus everything a QueryBolt needs is a Spark
  **broadcast** of the DTLP query snapshot (replication, as in the
  paper; kept and versioned by ``ksp_queries``);
* weight deltas are plain DataFrames; queries are plain RDD tuples.

All schemas are explicit so Catalyst plans don't depend on inference.
"""
from __future__ import annotations

import json
from typing import Iterable, List, Sequence, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from ..core.partition import Partition
from ..roadnet.graph import Edge, Graph, Subgraph

EDGES_SCHEMA = T.StructType(
    [
        T.StructField("sg_id", T.IntegerType(), False),
        T.StructField("u", T.IntegerType(), False),
        T.StructField("v", T.IntegerType(), False),
        T.StructField("w", T.DoubleType(), False),
        T.StructField("w0", T.IntegerType(), False),
    ]
)

DELTAS_SCHEMA = T.StructType(
    [
        T.StructField("u", T.IntegerType(), False),
        T.StructField("v", T.IntegerType(), False),
        T.StructField("dw", T.DoubleType(), False),
    ]
)

BOUNDING_SCHEMA = T.StructType(
    [
        T.StructField("sg_id", T.IntegerType(), False),
        T.StructField("u", T.IntegerType(), False),
        T.StructField("v", T.IntegerType(), False),
        T.StructField("path", T.StringType(), False),
        T.StructField("phi", T.IntegerType(), False),
        T.StructField("dist", T.DoubleType(), False),
        T.StructField("bd", T.DoubleType(), False),
        T.StructField("complete", T.BooleanType(), False),
    ]
)


def edges_pdf(graph: Graph, partition: Partition) -> pd.DataFrame:
    """Edge rows with their owning subgraph, as pandas (for DuckDB too)."""
    rows = [
        (
            partition.subgraph_of_edge[e],
            e[0],
            e[1],
            graph.weight(*e),
            graph.init_weight(*e),
        )
        for e in graph.edges()
    ]
    return pd.DataFrame(rows, columns=["sg_id", "u", "v", "w", "w0"])


def edges_df(spark: SparkSession, graph: Graph, partition: Partition) -> DataFrame:
    return spark.createDataFrame(edges_pdf(graph, partition), schema=EDGES_SCHEMA)


def deltas_pdf(deltas: Sequence[Tuple[Edge, float]]) -> pd.DataFrame:
    return pd.DataFrame(
        [(u, v, dw) for (u, v), dw in deltas], columns=["u", "v", "dw"]
    )


def deltas_df(spark: SparkSession, deltas: Sequence[Tuple[Edge, float]]) -> DataFrame:
    return spark.createDataFrame(deltas_pdf(deltas), schema=DELTAS_SCHEMA)


def encode_path(path: Iterable[int]) -> str:
    return json.dumps(list(path), separators=(",", ":"))


def decode_path(s: str) -> List[int]:
    return json.loads(s)


def local_subgraph(pdf: pd.DataFrame, directed: bool) -> Subgraph:
    """Rebuild one subgraph's edge rows as a standalone local graph."""
    g = Graph(directed=directed)
    for u, v, w, w0 in zip(pdf["u"], pdf["v"], pdf["w"], pdf["w0"]):
        g.add_edge(int(u), int(v), int(w0), float(w))
    return Subgraph(g, int(pdf["sg_id"].iloc[0]), list(g.edges()))


def by_subgraph(df: DataFrame) -> DataFrame:
    """``df`` hash partitioned by ``sg_id``, one partition per task slot.

    This sizes every per-subgraph Python stage: the build's
    ``applyInPandas`` and both sides of the maintenance cogroup.  Every
    Python task pays a fixed start-up cost (PySpark invalidates its
    import caches per task: ~0.2 s on a 4-vCPU local deployment) that
    dwarfs the per-subgraph work, so such a stage should run in one wave
    of ``defaultParallelism`` tasks.  A ``groupBy("sg_id")`` reuses this
    partitioning without another shuffle, and AQE does not coalesce an
    explicit partition count, so no session setting is needed.
    """
    return df.repartition(df.sparkSession.sparkContext.defaultParallelism, "sg_id")
