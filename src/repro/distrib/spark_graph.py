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

import gc
import json
import os
import socket
import sys
import types
import zipimport
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from ..core.partition import Partition
from ..roadnet.graph import Edge, Graph, Subgraph

# pandas is imported only where a frame is built: every task body of
# this package loads this module, and loading pandas costs a new Python
# worker about 0.3 s that its RDD tasks (the query tasks) never need.
if TYPE_CHECKING:
    import pandas as pd

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
    import pandas as pd

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
    import pandas as pd

    return pd.DataFrame(
        [(u, v, dw) for (u, v), dw in deltas], columns=["u", "v", "dw"]
    )


def deltas_df(spark: SparkSession, deltas: Sequence[Tuple[Edge, float]]) -> DataFrame:
    return spark.createDataFrame(deltas_pdf(deltas), schema=DELTAS_SCHEMA)


def encode_path(path: Iterable[int]) -> str:
    return json.dumps(list(path), separators=(",", ":"))


def decode_path(s: str) -> List[int]:
    return json.loads(s)


def decode_paths(strings: Iterable[str]) -> List[List[int]]:
    """:func:`decode_path` of each string, in one parse that takes half
    the time of one per string (and holds every result at once)."""
    return json.loads("[" + ",".join(strings) + "]")


def local_subgraph(
    rows: Iterable[Tuple[int, int, int, float, int]], directed: bool
) -> Subgraph:
    """Rebuild one subgraph's edge rows (``EDGES_SCHEMA`` order, at least
    one) as a standalone local graph."""
    g = Graph(directed=directed)
    for sg_id, u, v, w, w0 in rows:
        g.add_edge(int(u), int(v), int(w0), float(w))
    return Subgraph(g, int(sg_id), list(g.edges()))


def by_subgraph(df: DataFrame) -> DataFrame:
    """``df`` hash partitioned by ``sg_id``, one partition per task slot.

    This sizes the build's per-subgraph ``applyInPandas``, the only
    stage grouped by subgraph.  Maintenance's map-only refresh keeps the
    partitions of the bounding rows the build emitted, so it runs in the
    same number of tasks.  A wave of Python tasks still costs more than
    the per-subgraph work: on a 4-vCPU ``local[2]`` deployment each wave
    beyond the first added 8-10 ms to a trivial job in reused workers
    (after :func:`prepare_worker`; 47 ms with the delayed-ACK stall it
    removes, 130 ms before that), against a few ms of per-subgraph work,
    and a new worker's first task re-reads ``pyspark.zip`` (about
    0.2 s).  So such a stage should run in one wave of
    ``defaultParallelism`` tasks.  A ``groupBy("sg_id")`` reuses this
    partitioning without another shuffle, and AQE does not coalesce an
    explicit partition count, so no session setting is needed.
    """
    return df.repartition(df.sparkSession.sparkContext.defaultParallelism, "sg_id")


def prepare_worker(cache: Optional[Dict[str, object]] = None) -> None:
    """Per-task set-up of this Python worker; every task body of this
    package calls it first.

    * **Zip importers re-read only changed archives.**  PySpark calls
      ``importlib.invalidate_caches()`` before every task, and under
      CPython 3.11 each ``zipimporter`` then re-parses its archive's
      central directory: the worker's 16 importers over ``pyspark.zip``
      cost about 0.2 s per task, in a reused worker too.  Each zip
      importer in ``cache`` (default ``sys.path_importer_cache``) gets an
      ``invalidate_caches`` that re-reads only when the archive's
      ``(st_mtime_ns, st_size)`` differs from the one seen at patching,
      right after PySpark's re-read for this task, or cannot be stat'ed;
      later tasks of the same worker so skip the re-read, while the
      first task of a new worker still pays it.  A zip added later
      (``sc.addPyFile``) is a new path with a fresh importer.
    * **The next task's input is acknowledged at once.**  Sending a
      task's results puts Linux TCP into delayed-ACK mode on the
      worker's socket to the JVM.  The JVM writes the next task's input
      in pieces and Nagle's algorithm holds a later piece until the
      first is acknowledged, so every task in a reused worker waited
      about 40 ms for the delayed-ACK timer before its body ran.
      ``TCP_QUICKACK`` ends the mode (and sends an ACK that is due),
      but only until the worker sends again: set when a task starts, it
      is undone by the task's own results.  It has to be set between a
      task's last bytes and the next task's input, which is where a
      reused worker runs PySpark's ``gc.collect()``.  So this adds, once
      per process, a ``gc.callbacks`` hook that sets it
      (:func:`_quickack_tcp_sockets`) after every full collection.
    """
    finders = sys.path_importer_cache if cache is None else cache
    for finder in list(finders.values()):
        if isinstance(finder, zipimport.zipimporter) and not hasattr(
            finder, "_archive_stat"
        ):
            finder._archive_stat = _archive_stat(finder.archive)
            finder.invalidate_caches = types.MethodType(_reread_if_changed, finder)
    if _quickack_after_full_gc not in gc.callbacks:
        gc.callbacks.append(_quickack_after_full_gc)


def _quickack_after_full_gc(phase: str, info: Dict[str, int]) -> None:
    """``gc.callbacks`` hook: re-arm quick ACKs after a full collection."""
    if phase == "stop" and info["generation"] == 2:  # the oldest generation
        _quickack_tcp_sockets()


def _quickack_tcp_sockets() -> None:
    """Set ``TCP_QUICKACK`` on each TCP socket this process holds.

    A no-op where the option or ``/proc/self/fd`` does not exist (not
    Linux) and for a worker that talks to the JVM over a Unix domain
    socket (``spark.python.unix.domain.socket.enabled``).  An fd that
    is not a TCP socket, or closed meanwhile, is skipped.  The scan
    costs about 40 us for a worker's handful of fds, so it keeps no
    list of sockets that could go stale.
    """
    quickack = getattr(socket, "TCP_QUICKACK", None)
    if quickack is None:
        return
    try:
        fds = os.listdir("/proc/self/fd")
    except OSError:
        return
    for fd in fds:
        try:
            sock = socket.socket(fileno=int(fd))
        except OSError:  # closed since the listing, or not a socket
            continue
        try:
            if (
                sock.family in (socket.AF_INET, socket.AF_INET6)
                and sock.type == socket.SOCK_STREAM
            ):
                sock.setsockopt(socket.IPPROTO_TCP, quickack, 1)
        except OSError:  # its owner shut it down meanwhile
            pass
        finally:
            sock.detach()  # the fd stays open for its owner


def _archive_stat(path: str) -> Optional[Tuple[int, int]]:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_mtime_ns, st.st_size


def _reread_if_changed(finder: zipimport.zipimporter) -> None:
    stat = _archive_stat(finder.archive)
    if stat is None or stat != finder._archive_stat:
        finder._archive_stat = stat
        zipimport.zipimporter.invalidate_caches(finder)
