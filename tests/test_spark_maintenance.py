"""Distributed DTLP maintenance (Algorithm 2 on Spark) vs the driver
reference, with DuckDB oracle checks on the relational steps."""
import json

import pandas as pd
import pytest

from repro.core import DTLP
from repro.distrib import (
    build_dtlp_spark,
    deltas_df,
    deltas_pdf,
    edges_df,
    edges_pdf,
    update_dtlp_spark,
    updated_edges_df,
)
from repro.oracle import assert_equivalent
from repro.roadnet import random_connected_graph, snapshot_deltas

from ._utils import spark_jobs


@pytest.fixture(scope="module")
def state(spark):
    g = random_connected_graph(60, seed=31, extra_edge_frac=0.8)
    dtlp, bounding = build_dtlp_spark(spark, g, z=15, xi=4)
    deltas = snapshot_deltas(g, alpha=0.5, tau=0.4, seed=32)
    edf = edges_df(spark, g, dtlp.partition)
    ddf = deltas_df(spark, deltas)
    return g, dtlp, bounding, deltas, edf, ddf


def _skeleton_edges(dtlp):
    directed = dtlp.graph.directed
    return {
        (a, b) if directed else (min(a, b), max(a, b)): round(w, 9)
        for a in dtlp.skeleton.vertices
        for b, w in dtlp.skeleton.neighbors(a)
    }


def _skeleton_rows(skeleton_df, directed=False):
    out = {}
    for r in skeleton_df.collect():
        a, b = r["u"], r["v"]
        out[(a, b) if directed else (min(a, b), max(a, b))] = round(r["mbd"], 9)
    return out


class TestDistributedUpdate:
    def test_skeleton_matches_driver_update(self, state, spark):
        g, dtlp, bounding, deltas, edf, ddf = state
        _, _, skeleton_new = update_dtlp_spark(edf, bounding, ddf)
        ref = DTLP.build(g.copy(), z=15, xi=4)
        ref.update(deltas)
        assert _skeleton_rows(skeleton_new) == _skeleton_edges(ref)

    def test_updated_edges_oracle(self, state, spark):
        g, dtlp, bounding, deltas, edf, ddf = state
        got = updated_edges_df(edf, ddf)
        assert_equivalent(
            got,
            """
            SELECT e.sg_id, e.u, e.v, e.w + COALESCE(d.dw, 0.0) AS w, e.w0
            FROM edges e LEFT JOIN deltas d
              ON least(e.u, e.v) = least(d.u, d.v)
             AND greatest(e.u, e.v) = greatest(d.u, d.v)
            """,
            edges=edges_pdf(g, dtlp.partition),
            deltas=deltas_pdf(deltas),
        )

    def test_shifted_dists_oracle(self, state, spark):
        g, dtlp, bounding, deltas, edf, ddf = state
        _, bounding_new, _ = update_dtlp_spark(edf, bounding, ddf)
        before = bounding.toPandas()
        rows = []
        for r in before.itertuples():
            verts = json.loads(r.path)
            rows += [
                (r.sg_id, r.u, r.v, r.path, a, b) for a, b in zip(verts, verts[1:])
            ]
        ep = pd.DataFrame(rows, columns=["sg_id", "u", "v", "path", "eu", "ev"])
        assert_equivalent(
            bounding_new.select("sg_id", "u", "v", "path", "dist"),
            """
            SELECT b.sg_id, b.u, b.v, b.path, b.dist + COALESCE(s.ddist, 0.0) AS dist
            FROM bounding b LEFT JOIN (
                SELECT ep.sg_id, ep.u, ep.v, ep.path, sum(d.dw) AS ddist
                FROM ep JOIN deltas d
                  ON least(ep.eu, ep.ev) = least(d.u, d.v)
                 AND greatest(ep.eu, ep.ev) = greatest(d.u, d.v)
                GROUP BY ep.sg_id, ep.u, ep.v, ep.path
            ) s ON b.sg_id = s.sg_id AND b.u = s.u AND b.v = s.v AND b.path = s.path
            """,
            bounding=before,
            ep=ep,
            deltas=deltas_pdf(deltas),
        )

    def test_paths_match_driver_update(self, state, spark):
        """Every path's Spark dist and bd equal the driver's after update."""
        g, dtlp, bounding, deltas, edf, ddf = state
        _, bounding_new, _ = update_dtlp_spark(edf, bounding, ddf)
        ref = DTLP.build(g.copy(), z=15, xi=4)
        ref.update(deltas)
        want = {}
        for idx in ref.sub_indexes:
            for (a, b), bset in idx.bounding.items():
                bds = idx.uw.bd_many([bp.phi for bp in bset.paths])
                for bp, bd in zip(bset.paths, bds):
                    want[(idx.subgraph.sg_id, a, b, bp.path)] = (bp.dist, bd)
        got = {
            (r["sg_id"], r["u"], r["v"], tuple(json.loads(r["path"]))): (
                r["dist"],
                r["bd"],
            )
            for r in bounding_new.collect()
        }
        assert got.keys() == want.keys()
        for key, (dist, bd) in got.items():
            assert dist == pytest.approx(want[key][0], abs=1e-9), key
            assert bd == pytest.approx(want[key][1], abs=1e-9), key

    def test_repeated_edge_in_batch_sums(self, state, spark):
        """A batch listing one edge twice moves it by the sum of both."""
        g, dtlp, bounding, _, edf, _ = state
        e = sorted(g.edges())[0]
        batch = [(e, 1.0), (e, 2.0)]
        edges_new, _, skeleton_new = update_dtlp_spark(
            edf, bounding, deltas_df(spark, batch)
        )
        rows = edges_new.filter(f"u = {e[0]} AND v = {e[1]}").collect()
        assert [r["w"] for r in rows] == [pytest.approx(g.weight(*e) + 3.0)]
        assert edges_new.count() == g.n_edges
        ref = DTLP.build(g.copy(), z=15, xi=4)
        ref.update(batch)
        assert _skeleton_rows(skeleton_new) == _skeleton_edges(ref)

    def test_multi_batch_convergence(self, state, spark):
        """Two consecutive distributed updates == rebuild on final weights."""
        g, dtlp, bounding, _, edf, _ = state
        g2 = g.copy()
        e_cur, b_cur = edf, bounding
        for i in range(2):
            d = snapshot_deltas(g2, alpha=0.3, tau=0.3, seed=50 + i)
            from repro.roadnet import apply_deltas

            apply_deltas(g2, d)
            e_cur, b_cur, skeleton = update_dtlp_spark(
                e_cur, b_cur, deltas_df(spark, d)
            )
        rebuilt = DTLP.build(g2, z=15, xi=4)
        assert _skeleton_rows(skeleton) == _skeleton_edges(rebuilt)


class TestDirectedUpdate:
    @pytest.mark.parametrize("mirror", [True, False])
    def test_skeleton_matches_driver_update(self, spark, mirror):
        g = random_connected_graph(60, seed=31, extra_edge_frac=0.8, directed=True)
        dtlp, bounding = build_dtlp_spark(spark, g, z=15, xi=4)
        deltas = snapshot_deltas(
            g, alpha=0.5, tau=0.4, seed=32, mirror_directed=mirror
        )
        _, _, skeleton_new = update_dtlp_spark(
            edges_df(spark, g, dtlp.partition),
            bounding,
            deltas_df(spark, deltas),
            directed=True,
        )
        dtlp.update(deltas)
        assert _skeleton_rows(skeleton_new, True) == _skeleton_edges(dtlp)


class TestSessionAndStages:
    _AQE_COALESCE = "spark.sql.adaptive.coalescePartitions.enabled"

    def test_caller_conf_untouched(self, spark):
        """Build and maintenance leave the caller's AQE coalescing on."""
        old = spark.conf.get(self._AQE_COALESCE)
        spark.conf.set(self._AQE_COALESCE, "true")
        try:
            g = random_connected_graph(40, seed=33)
            dtlp, bounding = build_dtlp_spark(spark, g, z=12, xi=3)
            deltas = snapshot_deltas(g, alpha=0.5, tau=0.4, seed=34)
            _, _, skeleton_new = update_dtlp_spark(
                edges_df(spark, g, dtlp.partition), bounding, deltas_df(spark, deltas)
            )
            skeleton_new.collect()
            assert spark.conf.get(self._AQE_COALESCE) == "true"
        finally:
            spark.conf.set(self._AQE_COALESCE, old)

    def test_cogroup_stage_one_task_per_slot(self, state, spark):
        """Under the fixture's 64 shuffle partitions, the per-subgraph
        refresh runs one task per slot."""
        g, dtlp, bounding, deltas, edf, ddf = state
        _, bounding_new, _ = update_dtlp_spark(edf, bounding, ddf)
        _, jobs = spark_jobs(spark, bounding_new.collect)
        assert jobs[-1][-1] == spark.sparkContext.defaultParallelism
