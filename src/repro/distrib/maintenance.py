"""Distributed DTLP maintenance (Algorithm 2 as Spark dataflow).

A batch of weight deltas is applied the way the paper's workers apply
it (Section 6.1): each change goes to the owner of its edge's subgraph,
and the owner refreshes that subgraph's bounding paths in one pass.

1. **on the driver** — the batch (a few hundred rows) is summed per
   edge key (:meth:`Graph.canonical`'s), so an edge listed twice moves
   by the sum of its deltas, and applied to the collected edges state,
   returned as a local DataFrame.  Each touched subgraph gets its
   per-edge ``dw`` and a :class:`UnitWeightIndex` over its new weights;
2. **path refresh** — one map-only ``mapInPandas`` over the bounding
   rows, whose closure carries that state, shifts each path's ``dist``
   by the sum of ``dw`` over its edges (Algorithm 2, line 3) and sets
   its ``bd`` from the new unit weights (line 4).  Both are per row, so
   nothing is shuffled; rows of untouched subgraphs pass through.  The
   build module's SQL then derives LBD and the skeleton in one shuffle
   (lines 5-8).

There is no EP-Index on this side (the driver ``DTLP.update`` keeps
one): every path of a touched subgraph needs a new ``bd`` anyway.
Collecting the edges adds no O(|E|) transfer that serving does not
make: the query broadcast ships every subgraph's current weights.

The new edges are checked against the DuckDB oracle; the end-to-end
result is checked for equality with the driver reference update.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Tuple

from pyspark.sql import DataFrame

from ..core.bounding import UnitWeightIndex
from ..roadnet.graph import Edge, Graph
from .dtlp_build import lbd_df_from_bounding, skeleton_df_from_lbd
from .spark_graph import (
    BOUNDING_SCHEMA,
    EDGES_SCHEMA,
    decode_paths,
    local_subgraph,
    prepare_worker,
)

if TYPE_CHECKING:  # not loaded on import, as in ``spark_graph``
    import pandas as pd

#: sg_id -> (summed delta of each step ``(a, b)`` a path may take, unit weights)
Touched = Dict[int, Tuple[Dict[Edge, float], UnitWeightIndex]]


def _apply_deltas(
    edges: DataFrame, deltas: DataFrame, directed: bool
) -> Tuple[DataFrame, Touched]:
    """Step 1 over rows in ``EDGES_SCHEMA``/``DELTAS_SCHEMA`` column order:
    the edges at their new weights, and the touched subgraphs."""
    import pandas as pd

    key = Graph(directed=directed).canonical
    dw_of: Dict[Edge, float] = {}
    for u, v, dw in deltas.collect():
        dw_of[key(u, v)] = dw_of.get(key(u, v), 0.0) + dw
    rows, steps = [], {}
    for sg_id, u, v, w, w0 in edges.collect():
        dw = dw_of.get(key(u, v), 0.0)
        rows.append((sg_id, u, v, w + dw, w0))
        ways = {(u, v): dw} if directed else {(u, v): dw, (v, u): dw}
        steps.setdefault(sg_id, {}).update(ways)
    touched: Touched = {}
    for sg_id, sg_steps in steps.items():
        if any(sg_steps.values()):
            sg = local_subgraph([r for r in rows if r[0] == sg_id], directed)
            touched[sg_id] = (sg_steps, UnitWeightIndex(sg))
    # From pandas, Arrow makes a local relation; from a list of rows,
    # Spark would re-pickle it in a Python stage on every materialisation.
    edges_new = pd.DataFrame(rows, columns=EDGES_SCHEMA.names)
    return edges.sparkSession.createDataFrame(edges_new, EDGES_SCHEMA), touched


def updated_edges_df(
    edges: DataFrame, deltas: DataFrame, *, directed: bool = False
) -> DataFrame:
    """Apply the delta batch to the edges DataFrame (one row per edge)."""
    return _apply_deltas(edges, deltas, directed)[0]


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
    edges_new, touched = _apply_deltas(edges, deltas, directed)

    def refresh(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        prepare_worker()
        for pdf in batches:
            dist, bd = pdf["dist"].to_numpy(copy=True), pdf["bd"].to_numpy(copy=True)
            sg_ids, phis, paths = (pdf[c].to_numpy() for c in ("sg_id", "phi", "path"))
            for sg_id, (dw_of, uw) in touched.items():
                mine = sg_ids == sg_id
                bd[mine] = uw.bd_many(phis[mine])
                dist[mine] += [
                    sum(map(dw_of.__getitem__, zip(p, p[1:])))
                    for p in decode_paths(paths[mine])
                ]
            yield pdf.assign(dist=dist, bd=bd)

    bounding_new = bounding.mapInPandas(refresh, schema=BOUNDING_SCHEMA)
    skeleton_new = skeleton_df_from_lbd(lbd_df_from_bounding(bounding_new))
    return edges_new, bounding_new, skeleton_new
