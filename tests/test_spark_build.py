"""Distributed DTLP build (Algorithm 1 on Spark) vs the driver reference.

The relational steps (Theorem 1 aggregation, MBD aggregation) are also
checked against DuckDB via the repo oracle, per the repo's correctness
policy: every query-shaped dataflow step gets an independent engine
check, not just "it ran".
"""
import os

import pandas as pd
import pytest

from repro.core import DTLP, bfs_partition
from repro.distrib import (
    build_dtlp_spark,
    edges_pdf,
    lbd_df_from_bounding,
    skeleton_df_from_lbd,
)
from repro.oracle import assert_equivalent

from ._utils import spark_jobs
from repro.roadnet import apply_deltas, random_connected_graph, snapshot_deltas

_LBD_SQL = """
SELECT sg_id, u, v,
       CASE WHEN NOT bool_and(complete) THEN min(bd)
            WHEN max(bd) >= min(dist) - 1e-9 THEN min(dist)
            ELSE max(bd) END AS lbd
FROM bounding GROUP BY sg_id, u, v
"""


@pytest.fixture(scope="module")
def built(spark):
    g = random_connected_graph(70, seed=21, extra_edge_frac=0.9)
    apply_deltas(g, snapshot_deltas(g, alpha=0.4, tau=0.3, seed=22))
    ref = DTLP.build(g.copy(), z=18, xi=4)
    dtlp, bounding = build_dtlp_spark(spark, g, z=18, xi=4)
    return g, ref, dtlp, bounding


def _skeleton_edges(dtlp):
    return {
        (min(a, b), max(a, b)): round(w, 9)
        for a in dtlp.skeleton.vertices
        for b, w in dtlp.skeleton.neighbors(a)
    }


class TestSparkBuildEqualsDriver:
    def test_skeleton_identical(self, built):
        _, ref, dtlp, _ = built
        assert _skeleton_edges(dtlp) == _skeleton_edges(ref)

    def test_bounding_sets_identical(self, built):
        _, ref, dtlp, _ = built
        for idx_r, idx_s in zip(ref.sub_indexes, dtlp.sub_indexes):
            assert set(idx_r.bounding) == set(idx_s.bounding)
            for pair in idx_r.bounding:
                a = sorted((bp.path, bp.phi, round(bp.dist, 9)) for bp in idx_r.bounding[pair].paths)
                b = sorted((bp.path, bp.phi, round(bp.dist, 9)) for bp in idx_s.bounding[pair].paths)
                assert a == b

    def test_ep_index_same_size(self, built):
        _, ref, dtlp, _ = built
        assert dtlp.ep.n_entries == ref.ep.n_entries

    def test_stats_identical(self, built):
        _, ref, dtlp, _ = built
        assert dtlp.stats() == ref.stats()


class TestRelationalStepsAgainstDuckDB:
    def test_lbd_aggregation_oracle(self, built, spark):
        _, _, _, bounding = built
        bounding_pdf = bounding.toPandas()
        lbd = lbd_df_from_bounding(bounding)
        assert_equivalent(lbd, _LBD_SQL, bounding=bounding_pdf)

    def test_skeleton_aggregation_oracle(self, built, spark):
        _, _, _, bounding = built
        lbd = lbd_df_from_bounding(bounding)
        skeleton = skeleton_df_from_lbd(lbd)
        assert_equivalent(
            skeleton,
            "SELECT u, v, min(lbd) AS mbd FROM lbd GROUP BY u, v",
            lbd=lbd.toPandas(),
        )

    def test_skeleton_one_exchange(self, built, spark):
        """LBD and MBD share one shuffle by (u, v), with the same rows as
        the two aggregations one after the other in DuckDB."""
        _, _, _, bounding = built
        materialised = bounding.localCheckpoint(eager=True)  # no build in the plan
        skeleton = skeleton_df_from_lbd(lbd_df_from_bounding(materialised))
        plan = skeleton._jdf.queryExecution().executedPlan().toString()
        assert plan.count("Exchange") == 1, plan
        assert_equivalent(
            skeleton,
            f"SELECT u, v, min(lbd) AS mbd FROM ({_LBD_SQL}) GROUP BY u, v",
            bounding=bounding.toPandas(),
        )

    def test_bounding_rows_cover_every_indexed_pair(self, built, spark):
        g, ref, _, bounding = built
        got_pairs = {
            (r["sg_id"], r["u"], r["v"])
            for r in bounding.select("sg_id", "u", "v").distinct().collect()
        }
        exp_pairs = {
            (idx.subgraph.sg_id, a, b)
            for idx in ref.sub_indexes
            for (a, b) in idx.bounding
        }
        assert got_pairs == exp_pairs


class TestEdgesDataFrame:
    def test_edges_pdf_covers_graph(self):
        g = random_connected_graph(30, seed=23)
        part = bfs_partition(g, z=10)
        pdf = edges_pdf(g, part)
        assert len(pdf) == g.n_edges
        assert set(pdf["sg_id"]) == set(range(part.n_subgraphs))

    def test_build_bounding_df_schema(self, built):
        _, _, _, bounding = built
        assert bounding.columns == ["sg_id", "u", "v", "path", "phi", "dist", "bd", "complete"]


class TestSparkResources:
    def test_build_leaves_no_broadcast_file(self, spark):
        """The build's task closure carries its inputs, so no broadcast
        file is left behind, and the lazy result still runs later."""
        temp_dir = spark.sparkContext._temp_dir
        before = set(os.listdir(temp_dir))
        built = [
            build_dtlp_spark(spark, random_connected_graph(40, seed=s), z=12, xi=3)
            for s in (25, 26)
        ]
        assert set(os.listdir(temp_dir)) - before == set()
        for dtlp, bounding in built:
            sets = [b for idx in dtlp.sub_indexes for b in idx.bounding.values()]
            assert bounding.count() == sum(len(b.paths) for b in sets)

    def test_python_stage_one_task_per_slot(self, spark):
        """Under the fixture's 64 shuffle partitions, the per-subgraph
        stage still runs one task per slot, and every stage at most that."""
        g = random_connected_graph(50, seed=27, extra_edge_frac=0.5)
        (dtlp, _), jobs = spark_jobs(
            spark, lambda: build_dtlp_spark(spark, g, z=12, xi=3)
        )
        n = spark.sparkContext.defaultParallelism
        assert jobs[-1][-1] == n
        assert max(max(stages) for stages in jobs) == n
        assert dtlp.stats() == DTLP.build(g.copy(), z=12, xi=3).stats()
