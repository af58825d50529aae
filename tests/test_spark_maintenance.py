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
    lbd_df_from_bounding,
    skeleton_df_from_lbd,
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


@pytest.fixture(scope="module")
def checkpointed(state):
    """The state's edges and bounding rows materialised, as the serving
    loop keeps them between snapshots (no build in their plans)."""
    _, _, bounding, _, edf, _ = state
    return edf.localCheckpoint(eager=True), bounding.localCheckpoint(eager=True)


def _driver_paths(dtlp):
    """``(sg_id, u, v, path) -> (dist, bd)`` of every driver bounding path."""
    out = {}
    for idx in dtlp.sub_indexes:
        for (a, b), bset in idx.bounding.items():
            bds = idx.uw.bd_many([bp.phi for bp in bset.paths])
            for bp, bd in zip(bset.paths, bds):
                out[(idx.subgraph.sg_id, a, b, bp.path)] = (bp.dist, bd)
    return out


def _spark_paths(bounding_df):
    return {
        (r["sg_id"], r["u"], r["v"], tuple(json.loads(r["path"]))): (r["dist"], r["bd"])
        for r in bounding_df.collect()
    }


def _assert_paths_equal(got, want):
    assert got.keys() == want.keys()
    for key, (dist, bd) in got.items():
        assert dist == pytest.approx(want[key][0], abs=1e-9), key
        assert bd == pytest.approx(want[key][1], abs=1e-9), key


def _skeleton_edges(dtlp):
    directed = dtlp.graph.directed
    return {
        (a, b) if directed else (min(a, b), max(a, b)): round(w, 9)
        for a in dtlp.skeleton.vertices
        for b, w in dtlp.skeleton.neighbors(a)
    }


def _skeleton_rows(skeleton_df, directed=False):
    """A skeleton DataFrame, or its collected rows, as ``_skeleton_edges``."""
    rows = skeleton_df if isinstance(skeleton_df, list) else skeleton_df.collect()
    out = {}
    for r in rows:
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
        _assert_paths_equal(_spark_paths(bounding_new), _driver_paths(ref))

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


class TestRefreshEdgeCases:
    """The per-row path refresh against the driver ``DTLP.update``."""

    @staticmethod
    def _check(spark, state, checkpointed, batch):
        g = state[0]
        edf, bounding = checkpointed
        edges_new, bounding_new, skeleton_new = update_dtlp_spark(
            edf, bounding, deltas_df(spark, batch)
        )
        ref = DTLP.build(g.copy(), z=15, xi=4)
        ref.update(batch)
        _assert_paths_equal(_spark_paths(bounding_new), _driver_paths(ref))
        assert _skeleton_rows(skeleton_new) == _skeleton_edges(ref)
        weights = {(r["u"], r["v"]): r["w"] for r in edges_new.collect()}
        assert weights == {e: pytest.approx(ref.graph.weight(*e)) for e in g.edges()}
        return bounding_new

    def test_empty_batch(self, spark, state, checkpointed):
        bounding_new = self._check(spark, state, checkpointed, [])
        assert _spark_paths(bounding_new) == _spark_paths(checkpointed[1])

    def test_zero_delta(self, spark, state, checkpointed):
        e = sorted(state[0].edges())[3]
        bounding_new = self._check(spark, state, checkpointed, [(e, 0.0)])
        assert _spark_paths(bounding_new) == _spark_paths(checkpointed[1])

    def test_edge_listed_in_both_directions(self, spark, state, checkpointed):
        """An undirected edge given as (u, v) and (v, u) moves by the sum."""
        g = state[0]
        u, v = sorted(g.edges())[5]
        self._check(spark, state, checkpointed, [((u, v), 1.5), ((v, u), 2.0)])

    def test_untouched_subgraphs_pass_through(self, spark, state, checkpointed):
        g, dtlp = state[0], state[1]
        sg_of = dtlp.partition.subgraph_of_edge
        batch = [(e, 2.5) for e in sorted(g.edges()) if sg_of[e] == 0][:4]
        bounding_new = self._check(spark, state, checkpointed, batch)
        before = _spark_paths(checkpointed[1])
        after = _spark_paths(bounding_new)
        untouched = {key for key in before if key[0] != 0}
        assert untouched and all(after[key] == before[key] for key in untouched)
        assert any(after[key] != before[key] for key in before if key[0] == 0)

    def test_subgraph_split_across_arrow_batches(self, spark, state, checkpointed):
        key = "spark.sql.execution.arrow.maxRecordsPerBatch"
        old = spark.conf.get(key)
        spark.conf.set(key, "3")
        try:
            self._check(spark, state, checkpointed, state[3])
        finally:
            spark.conf.set(key, old)

    def test_directed_over_two_batches(self, spark):
        g = random_connected_graph(50, seed=35, extra_edge_frac=0.8, directed=True)
        dtlp, bounding = build_dtlp_spark(spark, g, z=15, xi=4)
        edf = edges_df(spark, g, dtlp.partition)
        for seed in (36, 37):
            batch = snapshot_deltas(g, alpha=0.5, tau=0.4, seed=seed)
            edf, bounding, skeleton_new = update_dtlp_spark(
                edf, bounding, deltas_df(spark, batch), directed=True
            )
            edf, bounding = edf.localCheckpoint(), bounding.localCheckpoint()
            dtlp.update(batch)
            _assert_paths_equal(_spark_paths(bounding), _driver_paths(dtlp))
            assert _skeleton_rows(skeleton_new, True) == _skeleton_edges(dtlp)


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

    def test_refresh_is_one_map_only_stage(self, state, checkpointed, spark):
        """The path refresh shuffles nothing: materialising it is one job
        of one stage of at most one task per slot."""
        edf, bounding = checkpointed
        _, bounding_new, _ = update_dtlp_spark(edf, bounding, state[5])
        _, jobs = spark_jobs(spark, bounding_new.collect)
        assert len(jobs) == 1 and len(jobs[0]) == 1
        assert jobs[0][0] <= spark.sparkContext.defaultParallelism

    def test_snapshot_job_budget(self, state, checkpointed, spark):
        """One snapshot as the serving loop ingests it (update, checkpoint
        edges and bounding rows, collect the SQL skeleton) runs at most
        six Spark jobs."""
        g, _, _, deltas, _, _ = state
        edf, bounding = checkpointed

        def snapshot():
            edges_new, bounding_new, _ = update_dtlp_spark(
                edf, bounding, deltas_df(spark, deltas)
            )
            edges_new.localCheckpoint(eager=True)
            bounding_new = bounding_new.localCheckpoint(eager=True)
            return skeleton_df_from_lbd(lbd_df_from_bounding(bounding_new)).collect()

        rows, jobs = spark_jobs(spark, snapshot)
        assert len(jobs) <= 6, jobs
        ref = DTLP.build(g.copy(), z=15, xi=4)
        ref.update(deltas)
        assert _skeleton_rows(rows) == _skeleton_edges(ref)
