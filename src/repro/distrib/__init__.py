"""Spark dataflow layer: the paper's Storm topology re-expressed on Spark."""
from .dtlp_build import (
    build_bounding_df,
    build_dtlp_spark,
    dtlp_from_bounding_rows,
    lbd_df_from_bounding,
    skeleton_df_from_lbd,
)
from .ksp_queries import ksp_dg_spark_refine, process_batch_spark
from .maintenance import update_dtlp_spark, updated_edges_df
from .spark_graph import (
    BOUNDING_SCHEMA,
    DELTAS_SCHEMA,
    EDGES_SCHEMA,
    decode_path,
    deltas_df,
    deltas_pdf,
    edges_df,
    edges_pdf,
    encode_path,
    ensure_group_parallelism,
)

__all__ = [
    "build_bounding_df",
    "build_dtlp_spark",
    "dtlp_from_bounding_rows",
    "lbd_df_from_bounding",
    "skeleton_df_from_lbd",
    "ksp_dg_spark_refine",
    "process_batch_spark",
    "update_dtlp_spark",
    "updated_edges_df",
    "BOUNDING_SCHEMA",
    "DELTAS_SCHEMA",
    "EDGES_SCHEMA",
    "decode_path",
    "deltas_df",
    "deltas_pdf",
    "edges_df",
    "edges_pdf",
    "encode_path",
    "ensure_group_parallelism",
]
