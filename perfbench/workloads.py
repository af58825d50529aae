"""The serving workloads and the closed loop that drives them.

Every workload is a closed loop with one client: the next operation is
sent only after the previous one has returned.  Inputs come from the
run's seed: the traffic snapshot the index is built on, every later
snapshot, and the query pairs, which are uniform random vertex pairs,
never filtered or re-drawn.  The road network itself is one fixed
synthetic grid, as a deployed service serves one map.

Only public entry points of the library are timed:
``build_dtlp_spark`` + ``DTLP.query_snapshot`` (set-up),
``process_batch_spark`` (a request), ``DTLP.update`` and
``update_dtlp_spark`` (a traffic snapshot).  Answers are checked against
the oracle between operations, never inside a timed interval.
"""
from __future__ import annotations

import importlib
import pickle
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from spans import Tracer

import oracle

# The road network: a 20x20 perturbed grid (the generator behind the
# NY/COL/FLA "-lite" datasets), z=35, xi=12.  NY-lite itself (50x50,
# z=50) builds in 33-37 s, too slow to set up three times per run.
ROWS = COLS = 20
NETWORK_SEED = 7
Z = 35
XI = 12
ALPHA = 0.35
K = 2
SETUP_REPEATS = 3
#: Operations run and checked before timing starts, per workload: a
#: process's first maintenance job and its first request are slow; with
#: the JVM's quick JIT (``session.JVM_OPTIONS``) the second is as fast
#: as the later ones.
WARMUP = 1
# Stop measuring early if a run has taken this long, so it ends in time.
WALL_LIMIT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: weight variation range of every traffic snapshot (alpha is 35%)
    tau: float
    #: queries per request (one ``process_batch_spark`` call)
    batch: int
    max_iterations: Optional[int]
    #: ingest a traffic snapshot at the start of every cycle
    feed: bool
    #: requests per cycle
    reads: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The cap bounds each query's work.  At 150, about one query in 5,000
        # came back inexact; the most any query needed was 355 iterations.
        Workload(
            "rush-hour", tau=0.30, batch=64, max_iterations=1000, feed=False, reads=1
        ),
        # Four reads per snapshot give a run enough reads for a steady median.
        Workload(
            "traffic-feed", tau=0.10, batch=1, max_iterations=None, feed=True, reads=4
        ),
    )
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    setup_s: List[float] = field(default_factory=list)
    index_mb: float = 0.0
    measured_s: float = 0.0
    correct_queries: int = 0
    request_s: List[float] = field(default_factory=list)
    update_s: List[float] = field(default_factory=list)
    job_s: List[float] = field(default_factory=list)
    #: per measured request: (wall s, replay span totals, slowest replayed
    #: query s, snapshot s, queries)
    replay: List[tuple] = field(default_factory=list)
    request_jobs: List[int] = field(default_factory=list)
    request_tasks: List[int] = field(default_factory=list)
    job_tasks: List[int] = field(default_factory=list)
    update_stats: list = field(default_factory=list)
    iterations: List[int] = field(default_factory=list)
    capped: int = 0
    partial_tasks: int = 0
    cache_hits: int = 0
    queries_replayed: int = 0
    oracle_s: float = 0.0
    loop_mark: int = 0


def _group_size(spark, group: str) -> tuple:
    """(jobs, tasks) Spark ran under one job group.

    Every job counts, AQE's shuffle map-stage jobs too.  A map stage
    shows up again, skipped, in the job that reads its output, so tasks
    are counted once per distinct stage, and only those that ran.
    """
    st = spark.sparkContext.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stages = set()
    for j in jobs:
        info = st.getJobInfo(j)
        stages.update(info.stageIds if info else ())
    tasks = 0
    for sid in stages:
        stage = st.getStageInfo(sid)
        tasks += stage.numCompletedTasks if stage else 0
    return len(jobs), tasks


def _fail(out: Outcome, what: str, n: int = 1) -> None:
    out.failed += n
    print(f"[perfbench] {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Run:
    def __init__(self, spark, wl: Workload, seed: int, seconds: float, tracer: Tracer):
        self.spark = spark
        self.wl = wl
        self.seconds = seconds
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.out = Outcome()
        self.slots = spark.sparkContext.defaultParallelism

    def _sub_seed(self) -> int:
        return self.rng.randrange(2**31)

    # -- set-up ----------------------------------------------------------
    def setup(self):
        from repro.distrib import build_dtlp_spark, dtlp_build
        from repro.roadnet import apply_deltas, grid_road_network, snapshot_deltas

        base = grid_road_network(ROWS, COLS, seed=NETWORK_SEED)
        apply_deltas(
            base,
            snapshot_deltas(base, alpha=ALPHA, tau=self.wl.tau, seed=self._sub_seed()),
        )
        tr = self.tracer
        with tr.patch(dtlp_build, "bfs_partition", "partition"), tr.patch(
            dtlp_build, "dtlp_from_bounding_rows", "dtlp_build.reassemble"
        ):
            for i in range(SETUP_REPEATS):
                graph = base.copy()
                self.spark.sparkContext.setJobGroup(f"setup-{i}", "setup")
                t0 = time.perf_counter()
                with tr.span("setup"):
                    dtlp, bounding = build_dtlp_spark(self.spark, graph, z=Z, xi=XI)
                    with tr.span("dtlp.query_snapshot"):
                        dtlp.query_snapshot()
                self.out.setup_s.append(time.perf_counter() - t0)
        self.out.index_mb = len(pickle.dumps(dtlp, pickle.HIGHEST_PROTOCOL)) / 2**20
        self.dtlp = dtlp
        self.bounding = bounding
        self.verts = sorted(base.vertices)
        self.qrng = random.Random(self._sub_seed())
        self.snap_rng = random.Random(self._sub_seed())

    # -- the closed loop -------------------------------------------------
    def loop(self, started: float) -> None:
        from repro.distrib import edges_df

        wl, out, tr = self.wl, self.out, self.tracer
        if wl.feed:
            # Spark maintenance state at the build weights, materialised.
            self.edges = edges_df(
                self.spark, self.dtlp.graph, self.dtlp.partition
            ).localCheckpoint(eager=True)
            self.bounding = self.bounding.localCheckpoint(eager=True)
        G = None if wl.feed else oracle.to_nx(self.dtlp.graph)
        i = n_requests = 0
        while True:
            warm = i < WARMUP
            if not warm and out.measured_s >= self.seconds:
                break
            if time.perf_counter() - started > WALL_LIMIT_S:
                print("[perfbench] wall-time limit reached", file=sys.stderr)
                break
            if i == WARMUP:
                out.loop_mark = len(tr.spans)
            tr.request = i
            busy = 0.0
            if wl.feed:
                busy += self._ingest(warm)
                G = oracle.to_nx(self.dtlp.graph)
            reads = []
            for _ in range(wl.reads):
                reads.append(self._request(n_requests, warm, G))
                n_requests += 1
            busy += sum(reads)
            print(
                f"[perfbench] cycle {i}{' (warm-up)' if warm else ''}: {busy:.3f} s"
                f" (ingest {busy - sum(reads):.3f} s, requests "
                + ", ".join(f"{r:.3f}" for r in reads)
                + " s)",
                file=sys.stderr,
            )
            if not warm:
                out.measured_s += busy
            i += 1

    def _ingest(self, warm: bool) -> float:
        """One traffic snapshot: driver index update, then Spark Algorithm 2."""
        from repro.distrib import deltas_df, lbd_df_from_bounding, skeleton_df_from_lbd
        from repro.distrib import update_dtlp_spark
        from repro.roadnet import snapshot_deltas

        out, tr, spark = self.out, self.tracer, self.spark
        deltas = snapshot_deltas(
            self.dtlp.graph, alpha=ALPHA, tau=self.wl.tau, seed=self.snap_rng.randrange(2**31)
        )
        out.attempted += 1
        group = f"maint-{tr.request}"
        spark.sparkContext.setJobGroup(group, "maintenance")
        try:
            t0 = time.perf_counter()
            with tr.span("dtlp.update"):
                stats = self.dtlp.update(deltas)
            t1 = time.perf_counter()
            with tr.span("maintenance.job"):
                ddf = deltas_df(spark, deltas)
                edges, bounding, _ = update_dtlp_spark(self.edges, self.bounding, ddf)
                edges = edges.localCheckpoint(eager=True)
                bounding = bounding.localCheckpoint(eager=True)
                rows = skeleton_df_from_lbd(lbd_df_from_bounding(bounding)).collect()
            t2 = time.perf_counter()
        except Exception:
            _fail(out, "snapshot ingest")
            return 0.0
        self.edges, self.bounding = edges, bounding
        with tr.span("oracle.check"):
            c0 = time.perf_counter()
            if not oracle.skeleton_ok(rows, self.dtlp.skeleton):
                out.failed += 1
                print("[perfbench] Spark skeleton != driver skeleton", file=sys.stderr)
            out.oracle_s += time.perf_counter() - c0
        if not warm:
            out.update_s.append(t1 - t0)
            out.job_s.append(t2 - t1)
            out.update_stats.append(stats)
            if tr.enabled:
                out.job_tasks.append(_group_size(spark, group)[1])
        return t2 - t0

    def _request(self, i: int, warm: bool, G) -> float:
        from repro.core import DTLP
        from repro.distrib import process_batch_spark

        wl, out, tr, spark = self.wl, self.out, self.tracer, self.spark
        queries = [tuple(self.qrng.sample(self.verts, 2)) for _ in range(wl.batch)]
        out.attempted += len(queries)
        group = f"req-{i}"
        spark.sparkContext.setJobGroup(group, "request")
        try:
            mark = len(tr.spans)
            t0 = time.perf_counter()
            with tr.span("ksp_queries.request"), tr.patch(
                DTLP, "query_snapshot", "dtlp.query_snapshot"
            ):
                results = process_batch_spark(
                    spark, self.dtlp, queries, K, max_iterations=wl.max_iterations
                )
            wall = time.perf_counter() - t0
        except Exception:
            _fail(out, "request", len(queries))
            return 0.0
        snapshot_s = tr.totals(mark).get("dtlp.query_snapshot", 0.0)
        with tr.span("oracle.check"):
            c0 = time.perf_counter()
            ok = [oracle.answer_ok(G, results[q], K) for q in range(len(queries))]
            out.oracle_s += time.perf_counter() - c0
        if tr.enabled:
            same = self._replay(queries, results, warm)
            ok = [a and b for a, b in zip(ok, same)]
        bad = len(ok) - sum(ok)
        if bad:
            out.failed += bad
            print(f"[perfbench] {bad} answer(s) failed the check", file=sys.stderr)
        if not warm:
            out.request_s.append(wall)
            out.correct_queries += sum(ok)
            if tr.enabled:
                jobs, tasks = _group_size(spark, group)
                out.request_jobs.append(jobs)
                out.request_tasks.append(tasks)
                replayed = tr.totals(self._replay_mark)
                out.replay.append((wall, replayed, self._slowest, snapshot_s, len(queries)))
        return wall

    def _replay(self, queries, results, warm: bool) -> List[bool]:
        """Re-run the request's queries on the driver with layer spans.

        ``process_batch_spark`` runs KSP-DG inside Python workers; the
        same queries on the same query snapshot, with the ksp_dg module's
        helpers wrapped, give the query-layer split.  Returns, per query,
        whether the replayed answer equals Spark's.
        """
        # The package re-exports the function under the module's name.
        mod = importlib.import_module("repro.core.ksp_dg")
        tr, out, wl = self.tracer, self.out, self.wl
        snap = self.dtlp.query_snapshot()
        self._replay_mark = len(tr.spans)
        self._slowest = 0.0
        same = []
        with tr.patch(mod, "attach_query_vertices", "skeleton.attach"), tr.patch(
            mod, "reference_paths", "ksp_dg.filter", lazy=True
        ), tr.patch(mod, "partial_ksp", "ksp_dg.refine"), tr.patch(
            mod, "k_best_join", "merge.join"
        ):
            for q, (s, t) in enumerate(queries):
                t0 = time.perf_counter()
                with tr.span("ksp_dg.compute"):
                    r = mod.ksp_dg(snap, s, t, K, max_iterations=wl.max_iterations)
                self._slowest = max(self._slowest, time.perf_counter() - t0)
                same.append(
                    [(list(p), d) for p, d in r.paths]
                    == [(list(p), d) for p, d in results[q].paths]
                )
                if not warm:
                    out.queries_replayed += 1
                    out.iterations.append(r.n_iterations)
                    out.capped += int(
                        wl.max_iterations is not None and r.n_iterations >= wl.max_iterations
                    )
                    out.partial_tasks += r.n_partial_tasks
                    out.cache_hits += r.cache_hits
        return same


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0
