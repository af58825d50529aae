"""Serving benchmark of the KSP-DG / DTLP reproduction.

    python3 perfbench/run.py --workload rush-hour --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the library from its
``src`` directory.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones,
from spans the benchmark records around the library's public functions.
Workloads, metrics and the layer each metric belongs to are described in
``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import pickle
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def end_to_end(run, driver_rss_mb: float) -> dict:
    from workloads import median

    out = run.out
    return {
        "setup_s": (median(out.setup_s), "s"),
        "queries_per_s": (out.correct_queries / out.measured_s, "1/s"),
        "request_p50_ms": (median(out.request_s) * 1000, "ms"),
        "index_mb": (out.index_mb, "MiB"),
        "driver_peak_rss_mb": (driver_rss_mb, "MiB"),
    }


def per_layer(run, session_s: float, jvm_rss_mb: float, e2e: dict) -> dict:
    """Per-layer metrics from the traced run's spans and counters."""
    from workloads import SETUP_REPEATS, median

    out, tr, dtlp = run.out, run.tracer, run.dtlp
    setup_spans = [s for s in tr.spans[: out.loop_mark] if s.request is None]
    setup_total = {}
    for s in setup_spans:
        setup_total[s.name] = setup_total.get(s.name, 0.0) + s.end - s.start
    per_setup = {k: v / SETUP_REPEATS for k, v in setup_total.items()}
    bounding_job = (
        per_setup.get("setup", 0.0)
        - per_setup.get("partition", 0.0)
        - per_setup.get("dtlp_build.reassemble", 0.0)
        - per_setup.get("dtlp.query_snapshot", 0.0)
    )

    loop = tr.totals(out.loop_mark)
    calls = tr.counts(out.loop_mark)
    nq = max(out.queries_replayed, 1)
    snap_spans = [
        s.end - s.start
        for s in tr.spans[out.loop_mark :]
        if s.name == "dtlp.query_snapshot"
    ]

    # Split of the measured time by layer.  A request lasts as long as its
    # slowest task, which computes at least its share of the replayed
    # compute over min(N_q, slots) slots and at least the slowest query;
    # the larger of the two is the request's compute, each layer gets its
    # share of it, and the rest of the wall time, less the query
    # snapshot, is dispatch.  Dispatch is so an upper bound.
    layer_s = dict.fromkeys(
        ("skeleton", "ksp_dg", "merge", "ksp_queries", "dtlp", "maintenance"), 0.0
    )
    dispatch = []
    for wall, rt, slowest, snap_s, n in out.replay:
        total = rt.get("ksp_dg.compute", 0.0)
        compute = max(total / min(n, run.slots), slowest)
        scale = compute / total if total else 0.0
        attach = rt.get("skeleton.attach", 0.0)
        join = rt.get("merge.join", 0.0)
        layer_s["skeleton"] += attach * scale
        layer_s["merge"] += join * scale
        layer_s["ksp_dg"] += (total - attach - join) * scale
        layer_s["dtlp"] += snap_s
        d = wall - compute - snap_s
        layer_s["ksp_queries"] += d
        dispatch.append(d)
    layer_s["dtlp"] += sum(out.update_s)
    layer_s["maintenance"] += sum(out.job_s)

    stats = out.update_stats
    broadcast = len(pickle.dumps(dtlp.query_snapshot(), pickle.HIGHEST_PROTOCOL))
    hits, tasks = out.cache_hits, out.partial_tasks
    m = {
        "spark.session_start_s": (session_s, "s"),
        "spark.jvm_peak_rss_mb": (jvm_rss_mb, "MiB"),
        "partition.s": (per_setup.get("partition", 0.0), "s"),
        "dtlp_build.bounding_job_s": (bounding_job, "s"),
        "dtlp_build.reassemble_s": (per_setup.get("dtlp_build.reassemble", 0.0), "s"),
        "dtlp_build.bounding_paths": (
            sum(len(b.paths) for idx in dtlp.sub_indexes for b in idx.bounding.values()),
            "count",
        ),
        "dtlp_build.ep_entries": (dtlp.ep.n_entries, "count"),
        "skeleton.vertices": (dtlp.skeleton.n_vertices, "count"),
        "skeleton.edges": (dtlp.skeleton.n_edges, "count"),
        "skeleton.attach_ms": (loop.get("skeleton.attach", 0.0) / nq * 1000, "ms"),
        "ksp_dg.compute_ms": (loop.get("ksp_dg.compute", 0.0) / nq * 1000, "ms"),
        "ksp_dg.filter_ms": (loop.get("ksp_dg.filter", 0.0) / nq * 1000, "ms"),
        "ksp_dg.refine_ms": (loop.get("ksp_dg.refine", 0.0) / nq * 1000, "ms"),
        "ksp_dg.iterations_p50": (median(out.iterations), "count"),
        "ksp_dg.iterations_max": (max(out.iterations, default=0), "count"),
        "ksp_dg.capped_share": (out.capped / nq, "share"),
        "ksp_dg.partial_tasks": (tasks / nq, "count"),
        "ksp_dg.cache_hit_ratio": (hits / (hits + tasks) if hits + tasks else 0.0, "share"),
        "merge.join_ms": (loop.get("merge.join", 0.0) / nq * 1000, "ms"),
        "merge.join_calls": (calls.get("merge.join", 0) / nq, "count"),
        "ksp_queries.dispatch_ms": (median(dispatch) * 1000, "ms"),
        "ksp_queries.broadcast_bytes": (broadcast, "bytes"),
        "ksp_queries.spark_jobs": (median(out.request_jobs), "count"),
        "ksp_queries.spark_tasks": (median(out.request_tasks), "count"),
        "dtlp.query_snapshot_ms": (median(snap_spans) * 1000, "ms"),
        "dtlp.update_ms": (median(out.update_s) * 1000, "ms"),
        "dtlp.paths_touched": (median([s.n_paths_touched for s in stats]), "count"),
        "dtlp.subgraphs_refreshed": (
            median([s.n_subgraphs_refreshed for s in stats]),
            "count",
        ),
        "dtlp.skeleton_edges_changed": (
            median([s.n_skeleton_edges_updated for s in stats]),
            "count",
        ),
        "maintenance.job_s": (median(out.job_s), "s"),
        "maintenance.spark_tasks": (median(out.job_tasks), "count"),
        "oracle.check_s": (out.oracle_s, "s"),
        "oracle.failed_share": (out.failed / max(out.attempted, 1), "share"),
    }
    for layer, secs in layer_s.items():
        m[f"self.{layer}_s"] = (secs, "s")
        m[f"split.{layer}"] = (secs / out.measured_s, "share")
    for name in ("setup_s", "queries_per_s", "request_p50_ms"):
        value, unit = e2e[name]
        m[f"traced.{name}"] = (value, unit)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {SRC}", file=sys.stderr)
        return 2
    # The library, and the networkx oracle of the test suite.
    sys.path[1:1] = [str(SRC), str(ROOT)]

    import session
    from spans import Tracer
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    spark, session_s = session.start(WORK, SRC)
    try:
        tracer = Tracer(bool(args.trace))
        run = Run(spark, WORKLOADS[args.workload], args.seed, args.seconds, tracer)
        run.setup()
        print(
            f"[perfbench] session {session_s:.2f} s, set-ups "
            + ", ".join(f"{t:.2f}" for t in run.out.setup_s)
            + f" s, at {time.perf_counter() - started:.1f} s",
            file=sys.stderr,
        )
        run.loop(started)
        print(
            f"[perfbench] loop done at {time.perf_counter() - started:.1f} s",
            file=sys.stderr,
        )
        sc = spark.sparkContext
        info = f"master={sc.master} defaultParallelism={sc.defaultParallelism}"
        jvm_rss = session.jvm_peak_rss_mb(spark)
    finally:
        session.stop(spark)
    out = run.out
    if not out.request_s:
        print("perfbench: no request was measured", file=sys.stderr)
        return 1
    metrics = end_to_end(run, session.driver_peak_rss_mb())
    if args.trace:
        metrics = per_layer(run, session_s, jvm_rss, metrics)
        tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")
    failed_share = out.failed / out.attempted
    print(
        f"[perfbench] workload={args.workload} seed={args.seed} {info} "
        f"requests={len(out.request_s)} measured_s={out.measured_s:.3f} "
        f"attempted={out.attempted} failed={out.failed} failed_share={failed_share}"
    )
    print(
        json.dumps(
            {
                "correct": out.failed == 0,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
