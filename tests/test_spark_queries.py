"""Distributed KSP query processing vs driver reference and networkx."""
import os
import pickle
import random
import subprocess
import sys
import threading

import pytest
from py4j.protocol import Py4JJavaError

import repro

from repro.core import DTLP, ksp_dg
from repro.distrib import ksp_dg_spark_refine, ksp_queries, process_batch_spark
from repro.roadnet import (
    apply_deltas,
    grid_road_network,
    random_connected_graph,
    snapshot_deltas,
)

from ._utils import nx_ksp_dists, round_dists, spark_jobs, to_nx


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


@pytest.fixture(scope="module")
def other(built):
    """A second DTLP over its own, differently weighted copy of the graph."""
    g2 = built[0].copy()
    apply_deltas(g2, snapshot_deltas(g2, alpha=0.5, tau=0.5, seed=45))
    return g2, DTLP.build(g2, z=18, xi=5)


def _nx_dists(g, queries, k):
    G = to_nx(g)
    return [[round(d, 6) for d in nx_ksp_dists(G, s, t, k)] for s, t in queries]


def _answers(results):
    return [round_dists(results[q].paths) for q in sorted(results)]


def _temp_files(spark):
    return len(os.listdir(spark.sparkContext._temp_dir))


def _broadcast_id():
    return ksp_queries._replica.bc._jbroadcast.id()


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

    def test_results_equal_driver_field_for_field(self, spark, built, queries):
        """Paths, distances and every counter come back as the worker
        computed them."""
        g, dtlp = built
        results = process_batch_spark(spark, dtlp, queries, k=3)
        snap = dtlp.query_snapshot()
        for qid, (s, t) in enumerate(queries):
            assert results[qid] == ksp_dg(snap, s, t, 3)
        assert any(r.n_partial_tasks for r in results.values())
        assert any(r.cache_hits for r in results.values())

    def test_capped_results_equal_driver_field_for_field(self, spark, built, queries):
        """A query stopped by ``max_iterations`` comes back inexact."""
        g, dtlp = built
        results = process_batch_spark(spark, dtlp, queries, k=3, max_iterations=1)
        snap = dtlp.query_snapshot()
        for qid, (s, t) in enumerate(queries):
            assert results[qid] == ksp_dg(snap, s, t, 3, max_iterations=1)
        assert any(not r.exact for r in results.values())

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


class TestVersionedBroadcast:
    def test_update_cycles_rebroadcast(self, spark, built, queries):
        """Each DTLP.update is served from a new broadcast, and the old
        one's file is deleted."""
        g = built[0].copy()
        dtlp = DTLP.build(g, z=18, xi=5)
        process_batch_spark(spark, dtlp, queries[:4], k=2)
        files = _temp_files(spark)
        for cycle in range(3):
            dtlp.update(snapshot_deltas(g, alpha=0.4, tau=0.4, seed=60 + cycle))
            results = process_batch_spark(spark, dtlp, queries[:4], k=2)
            assert _answers(results) == _nx_dists(g, queries[:4], 2)
        assert _temp_files(spark) <= files

    def test_repeated_requests_reuse_broadcast(self, spark, built, queries):
        g, dtlp = built
        process_batch_spark(spark, dtlp, queries[:2], k=2)
        files, bid = _temp_files(spark), _broadcast_id()
        for _ in range(3):
            process_batch_spark(spark, dtlp, queries[:2], k=2)
            assert (_temp_files(spark), _broadcast_id()) == (files, bid)

    def test_alternating_dtlps(self, spark, built, other, queries):
        expected = {id(d): _nx_dists(g, queries[:4], 2) for g, d in (built, other)}
        assert expected[id(built[1])] != expected[id(other[1])]
        for _, dtlp in (built, other, built, other):
            results = process_batch_spark(spark, dtlp, queries[:4], k=2)
            assert _answers(results) == expected[id(dtlp)]

    def test_graph_weight_change_invalidates(self, spark, built, queries):
        """A weight raised through Graph.set_weight alone (the index still
        holds lower bounds) is seen by the next request."""
        g = built[0].copy()
        dtlp = DTLP.build(g, z=18, xi=5)
        s, t = queries[0]
        first = process_batch_spark(spark, dtlp, [(s, t)], k=2)
        bid = _broadcast_id()
        path = first[0].paths[0][0]
        for a, b in zip(path, path[1:]):
            g.set_weight(a, b, g.weight(a, b) * 3)
        again = process_batch_spark(spark, dtlp, [(s, t)], k=2)
        assert _broadcast_id() != bid
        assert _answers(again) == _nx_dists(g, [(s, t)], 2)
        assert _answers(again) != _answers(first)

    def test_one_job_per_request(self, spark, built, queries):
        g, dtlp = built
        for batch in (queries[:1], queries):
            results, jobs = spark_jobs(
                spark, lambda: process_batch_spark(spark, dtlp, batch, k=2)
            )
            assert len(results) == len(batch)
            assert len(jobs) == 1 and len(jobs[0]) == 1

    def test_request_leaves_dtlp_unchanged(self, spark, built, queries):
        """No Spark object is stored on the DTLP: it pickles the same."""
        g, dtlp = built
        before = pickle.dumps(dtlp)
        process_batch_spark(spark, dtlp, queries[:2], k=2)
        assert pickle.dumps(dtlp) == before

    def test_concurrent_requests_on_two_dtlps(self, spark, built, other, queries):
        """Requests that swap the broadcast under each other's running
        jobs still answer correctly: a replaced broadcast is destroyed
        only after its last request has returned."""
        expected = {id(d): _nx_dists(g, queries[:2], 2) for g, d in (built, other)}
        errors = []

        def client(i):
            try:
                for j in range(2):
                    dtlp = (built, other)[(i + j) % 2][1]
                    results = process_batch_spark(spark, dtlp, queries[:2], k=2)
                    if _answers(results) != expected[id(dtlp)]:
                        errors.append((i, j, "wrong answer"))
            except Exception as e:  # reported by the assertion below
                errors.append((i, j, repr(e)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert ksp_queries._replica.users == 0


class TestEdgeCases:
    def test_empty_batch_starts_no_job(self, spark, built):
        g, dtlp = built
        results, jobs = spark_jobs(
            spark, lambda: process_batch_spark(spark, dtlp, [], k=2)
        )
        assert results == {} and jobs == []

    def test_invalid_k_starts_no_job(self, spark, built, queries):
        """Checked on the driver, before the empty-batch return."""
        g, dtlp = built

        def run():
            for batch in (queries, []):
                with pytest.raises(ValueError, match="k must be >= 1"):
                    process_batch_spark(spark, dtlp, batch, k=0)

        _, jobs = spark_jobs(spark, run)
        assert jobs == []

    def test_trivial_query_in_batch(self, spark, built, queries):
        g, dtlp = built
        batch = [queries[0], (7, 7), queries[1]]
        results = process_batch_spark(spark, dtlp, batch, k=2, n_partitions=1)
        assert results[1].paths == [([7], 0.0)]
        assert _answers(results)[::2] == _nx_dists(g, batch[::2], 2)

    def test_no_empty_tasks(self, spark, built, queries):
        g, dtlp = built
        results, jobs = spark_jobs(
            spark,
            lambda: process_batch_spark(spark, dtlp, queries[:3], k=2, n_partitions=8),
        )
        assert jobs == [[3]]

    def test_worker_exception_reaches_caller(self, spark, built, other, queries):
        """A query that makes ksp_dg raise fails the request; the cached
        broadcast still serves the next one and is destroyed when replaced."""
        g, dtlp = built
        process_batch_spark(spark, dtlp, queries[:1], k=2)
        files, bid = _temp_files(spark), _broadcast_id()
        bad = [queries[0], (queries[1][0], [0]), queries[2]]  # unhashable vertex
        with pytest.raises(Py4JJavaError, match="unhashable type"):
            process_batch_spark(spark, dtlp, bad, k=2, n_partitions=1)
        results = process_batch_spark(spark, dtlp, queries[:3], k=2)
        assert _broadcast_id() == bid
        assert _answers(results) == _nx_dists(g, queries[:3], 2)
        process_batch_spark(spark, other[1], queries[:1], k=2)
        assert _temp_files(spark) <= files


_RESTART = """
from pyspark.sql import SparkSession
from repro.core import DTLP
from repro.distrib import process_batch_spark
from repro.roadnet import random_connected_graph

dtlp = DTLP.build(random_connected_graph(40, seed=1, extra_edge_frac=0.5), z=12, xi=4)
for _ in range(2):
    spark = SparkSession.builder.getOrCreate()
    print(process_batch_spark(spark, dtlp, [(0, 5)], 2)[0].paths)
    spark.stop()
"""


def test_new_session_after_stop():
    """A request on a new session, after the cached broadcast's session
    stopped, answers: the stale broadcast is dropped, not destroyed (the
    new context reuses its id, so destroying it would drop the new one)."""
    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        PYSPARK_SUBMIT_ARGS="--master local[1] --driver-memory 1g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    run = subprocess.run(
        [sys.executable, "-c", _RESTART],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-3000:]
    first, second = run.stdout.splitlines()
    assert first == second != "[]"


class TestSubgraphParallelRefine:
    def test_matches_driver(self, spark, built, queries):
        g, dtlp = built
        for s, t in queries[:3]:
            assert ksp_dg_spark_refine(spark, dtlp, s, t, 2) == ksp_dg(dtlp, s, t, 2)

    def test_matches_driver_after_update(self, spark, built, queries):
        """Refine tasks read the index state of the request, not the
        broadcast of an earlier one."""
        g = built[0].copy()
        dtlp = DTLP.build(g, z=18, xi=5)
        batch = queries[::4]  # two queries of two iterations each
        before = [ksp_dg_spark_refine(spark, dtlp, s, t, 2) for s, t in batch]
        dtlp.update(snapshot_deltas(g, alpha=0.4, tau=0.4, seed=60))
        after = [ksp_dg_spark_refine(spark, dtlp, s, t, 2) for s, t in batch]
        assert after == [ksp_dg(dtlp, s, t, 2) for s, t in batch]
        assert [r.paths for r in after] != [r.paths for r in before]
        assert [round_dists(r.paths) for r in after] == _nx_dists(g, batch, 2)

    def test_matches_driver_many_iterations(self, spark, built, queries):
        """Queries of 24 and 54 iterations after an α = τ = 0.6 update:
        one refine job per iteration with uncached pairs, and the pooled
        segments still give the driver's result in every field."""
        g = built[0].copy()
        dtlp = DTLP.build(g, z=18, xi=5)
        dtlp.update(snapshot_deltas(g, alpha=0.6, tau=0.6, seed=70))
        batch = queries[:2]
        got = [ksp_dg_spark_refine(spark, dtlp, s, t, 2) for s, t in batch]
        assert min(r.n_iterations for r in got) >= 20
        assert got == [ksp_dg(dtlp, s, t, 2) for s, t in batch]
        assert [round_dists(r.paths) for r in got] == _nx_dists(g, batch, 2)

    def test_shares_query_broadcast(self, spark, built, queries):
        """Refine runs on the query snapshot's broadcast, releases it, and
        the next request on the unchanged DTLP reuses it."""
        g = built[0].copy()
        dtlp = DTLP.build(g, z=18, xi=5)
        ksp_dg_spark_refine(spark, dtlp, *queries[0], 2)
        files, bid = _temp_files(spark), _broadcast_id()
        assert ksp_queries._replica.users == 0
        results = process_batch_spark(spark, dtlp, queries[:2], k=2)
        ksp_dg_spark_refine(spark, dtlp, *queries[1], 2)
        assert (_temp_files(spark), _broadcast_id()) == (files, bid)
        assert _answers(results) == _nx_dists(g, queries[:2], 2)

    def test_one_job_per_fetching_iteration(self, spark, built, queries):
        g, dtlp = built
        s, t = queries[0]
        res, jobs = spark_jobs(spark, lambda: ksp_dg_spark_refine(spark, dtlp, s, t, 2))
        assert 1 <= len(jobs) <= res.n_iterations
        assert all(len(stages) == 1 for stages in jobs)

    def test_invalid_k(self, spark, built, queries):
        """Checked by the shared loop on the driver, not in a task."""
        g, dtlp = built
        with pytest.raises(ValueError, match="k must be >= 1"):
            ksp_dg_spark_refine(spark, dtlp, *queries[0], 0)

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
