"""Distributed DTLP maintenance (Algorithm 2 as Spark dataflow).

A batch of weight deltas is applied the way the paper's workers apply
it (Section 6.1): each change goes to the owner of its edge's subgraph,
and the owner refreshes that subgraph's bounding paths in one pass.

1. **delta aggregation** — the batch is summed per edge key (the key
   :meth:`repro.roadnet.graph.Graph.canonical` uses), so an edge listed
   twice moves by the sum of its deltas;
2. **edge refresh** — the aggregated deltas are broadcast-joined onto the
   edges DataFrame, giving the new weights plus each edge's ``dw``;
3. **per-subgraph refresh** — one cogrouped ``applyInPandas`` over
   (edges, bounding paths) per subgraph shifts each path's ``dist`` by
   the sum of ``dw`` over its edges (Algorithm 2, line 3) and recomputes
   every path's ``bd`` from the new unit weights (line 4); a subgraph
   the batch does not touch passes its rows through.  The build
   module's SQL then derives LBD and the new skeleton (lines 5-8).

There is no EP-Index on this side: every path of a touched subgraph
needs a new ``bd`` anyway, so one pass over the subgraph's paths does
the work of the EP-Index lookup and the refresh together.  The driver
:meth:`repro.core.dtlp.DTLP.update` keeps the O(affected) EP-Index.

Step 2 is checked against the DuckDB oracle; the end-to-end result is
checked for equality with the driver reference update.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from ..core.bounding import UnitWeightIndex
from .dtlp_build import lbd_df_from_bounding, skeleton_df_from_lbd
from .spark_graph import (
    BOUNDING_SCHEMA,
    by_subgraph,
    decode_path,
    local_subgraph,
    prepare_worker,
)

if TYPE_CHECKING:  # not loaded on import, as in ``spark_graph``
    import pandas as pd


def _edge_key(df: DataFrame, directed: bool) -> Tuple[Column, Column]:
    """The ``(u, v)`` edge key of :meth:`Graph.canonical`, as columns."""
    if directed:
        return df.u, df.v
    return F.least(df.u, df.v), F.greatest(df.u, df.v)


def _edges_with_dw(edges: DataFrame, deltas: DataFrame, directed: bool) -> DataFrame:
    """Edges at their new weights, with the summed delta ``dw`` (0 if none).

    Each step is one DataFrame call: on a local deployment, analysing a
    call costs tens of milliseconds, a share of every snapshot.
    """
    ku, kv = _edge_key(deltas, directed)
    per_edge = deltas.groupBy(ku.alias("ku"), kv.alias("kv")).agg(
        F.sum("dw").alias("dw")
    )
    eu, ev = _edge_key(edges, directed)
    dw = F.coalesce(per_edge.dw, F.lit(0.0))
    return edges.join(
        F.broadcast(per_edge), (eu == per_edge.ku) & (ev == per_edge.kv), "left"
    ).select("sg_id", "u", "v", (edges.w + dw).alias("w"), "w0", dw.alias("dw"))


def updated_edges_df(
    edges: DataFrame, deltas: DataFrame, *, directed: bool = False
) -> DataFrame:
    """Apply the delta batch to the edges DataFrame (one row per edge)."""
    return _edges_with_dw(edges, deltas, directed).drop("dw")


def update_dtlp_spark(
    edges: DataFrame,
    bounding: DataFrame,
    deltas: DataFrame,
    *,
    directed: bool = False,
) -> Tuple[DataFrame, DataFrame, DataFrame]:
    """Full distributed Algorithm 2.

    ``directed`` mirrors :attr:`Graph.directed` of the indexed graph.
    Returns ``(edges_new, bounding_new, skeleton_new)`` — the refreshed
    dataflow state; the driver swaps these in for the next snapshot.
    """
    edges_dw = _edges_with_dw(edges, deltas, directed)

    def refresh(edges_pdf: pd.DataFrame, paths_pdf: pd.DataFrame) -> pd.DataFrame:
        prepare_worker()
        if paths_pdf.empty or not edges_pdf["dw"].any():
            return paths_pdf
        sg = local_subgraph(edges_pdf, directed)
        dw_of = {
            (int(u), int(v)): float(dw)
            for u, v, dw in zip(edges_pdf["u"], edges_pdf["v"], edges_pdf["dw"])
        }
        shift = [
            sum(dw_of[sg.graph.canonical(a, b)] for a, b in zip(p, p[1:]))
            for p in map(decode_path, paths_pdf["path"])
        ]
        out = paths_pdf.copy()
        out["dist"] = out["dist"] + shift
        out["bd"] = UnitWeightIndex(sg).bd_many(out["phi"].to_numpy())
        return out

    bounding_new = (
        by_subgraph(edges_dw)
        .groupBy("sg_id")
        .cogroup(by_subgraph(bounding).groupBy("sg_id"))
        .applyInPandas(refresh, schema=BOUNDING_SCHEMA)
    )
    skeleton_new = skeleton_df_from_lbd(lbd_df_from_bounding(bounding_new))
    return edges_dw.drop("dw"), bounding_new, skeleton_new
