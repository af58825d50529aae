"""Spark dataflow layer: the paper's Storm topology re-expressed on Spark."""
from .dtlp_build import (
    build_dtlp_spark,
    lbd_df_from_bounding,
    skeleton_df_from_lbd,
)
from .ksp_queries import ksp_dg_spark_refine, process_batch_spark
from .maintenance import update_dtlp_spark, updated_edges_df
from .spark_graph import deltas_df, deltas_pdf, edges_df, edges_pdf

__all__ = [
    "build_dtlp_spark",
    "lbd_df_from_bounding",
    "skeleton_df_from_lbd",
    "ksp_dg_spark_refine",
    "process_batch_spark",
    "update_dtlp_spark",
    "updated_edges_df",
    "deltas_df",
    "deltas_pdf",
    "edges_df",
    "edges_pdf",
]
