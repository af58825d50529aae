"""Distributed KSP query processing vs driver reference and networkx."""
import os
import random

import pytest

from repro.core import DTLP, ksp_dg
from repro.distrib import edges_df, ksp_dg_spark_refine, process_batch_spark
from repro.roadnet import (
    apply_deltas,
    grid_road_network,
    random_connected_graph,
    snapshot_deltas,
)

from ._utils import nx_ksp_dists, round_dists, to_nx


@pytest.fixture(scope="module")
def built():
    g = random_connected_graph(70, seed=41, extra_edge_frac=0.9)
    apply_deltas(g, snapshot_deltas(g, alpha=0.4, tau=0.3, seed=42))
    return g, DTLP.build(g, z=18, xi=5)


@pytest.fixture(scope="module")
def queries(built):
    g, _ = built
    rnd = random.Random(43)
    return [tuple(rnd.sample(range(g.n_vertices), 2)) for _ in range(8)]


class TestQueryParallel:
    def test_matches_driver_and_networkx(self, spark, built, queries):
        g, dtlp = built
        G = to_nx(g)
        results = process_batch_spark(spark, dtlp, queries, k=3, n_partitions=4)
        assert set(results) == set(range(len(queries)))
        for qid, (s, t) in enumerate(queries):
            got = round_dists(results[qid].paths)
            assert got == round_dists(ksp_dg(dtlp, s, t, 3).paths)
            assert got == [round(d, 6) for d in nx_ksp_dists(G, s, t, 3)]

    def test_single_partition_same_answer(self, spark, built, queries):
        g, dtlp = built
        one = process_batch_spark(spark, dtlp, queries[:3], k=2, n_partitions=1)
        many = process_batch_spark(spark, dtlp, queries[:3], k=2, n_partitions=8)
        for qid in one:
            assert round_dists(one[qid].paths) == round_dists(many[qid].paths)

    def test_iteration_counts_propagated(self, spark, built, queries):
        g, dtlp = built
        results = process_batch_spark(spark, dtlp, queries[:2], k=2)
        for qid, (s, t) in enumerate(queries[:2]):
            assert results[qid].n_iterations == ksp_dg(dtlp, s, t, 2).n_iterations

    def test_releases_snapshot_broadcast(self, spark, built, queries):
        """Each request's broadcast file is deleted once it has answered."""
        g, dtlp = built
        temp_dir = spark.sparkContext._temp_dir
        process_batch_spark(spark, dtlp, queries[:1], k=1)
        before = len(os.listdir(temp_dir))
        for _ in range(3):
            process_batch_spark(spark, dtlp, queries[:1], k=1)
        assert len(os.listdir(temp_dir)) <= before

    def test_after_maintenance(self, spark, built, queries):
        g, dtlp = built
        g2 = g.copy()
        dtlp2 = DTLP.build(g2, z=18, xi=5)
        dtlp2.update(snapshot_deltas(g2, alpha=0.4, tau=0.4, seed=44))
        G = to_nx(g2)
        results = process_batch_spark(spark, dtlp2, queries[:4], k=2)
        for qid, (s, t) in enumerate(queries[:4]):
            assert round_dists(results[qid].paths) == [
                round(d, 6) for d in nx_ksp_dists(G, s, t, 2)
            ]


class TestSubgraphParallelRefine:
    def test_matches_driver(self, spark, built, queries):
        g, dtlp = built
        edges = edges_df(spark, g, dtlp.partition)
        for s, t in queries[:3]:
            got = ksp_dg_spark_refine(spark, dtlp, s, t, 2, edges=edges)
            exp = ksp_dg(dtlp, s, t, 2)
            assert round_dists(got.paths) == round_dists(exp.paths)

    def test_segments_avoid_query_endpoints(self, spark):
        # a benchmark query whose kept partial paths all ran through s
        # before refine tasks banned the endpoints and other boundary
        # vertices (the driver twin is in tests/test_ksp_dg.py)
        g = grid_road_network(20, 20, seed=7)
        delta_seed = random.Random(805).randrange(2**31)
        apply_deltas(g, snapshot_deltas(g, alpha=0.35, tau=0.30, seed=delta_seed))
        dtlp = DTLP.build(g, z=35, xi=12)
        got = ksp_dg_spark_refine(spark, dtlp, 349, 350, 2)
        exp = [round(d, 6) for d in nx_ksp_dists(to_nx(g), 349, 350, 2)]
        assert round_dists(got.paths) == exp

    def test_trivial_query(self, spark, built):
        g, dtlp = built
        res = ksp_dg_spark_refine(spark, dtlp, 5, 5, 2)
        assert res.paths == [([5], 0.0)]
