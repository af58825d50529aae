"""The benchmark's one SparkSession per process.

Settings follow the repository's test fixture (``conftest.py``): UI off,
Arrow on, broadcast joins off; the library itself turns AQE partition
coalescing off before each group stage (``ensure_group_parallelism``).
Shuffle partitions are two per task slot rather than the fixture's 64.
Task slots are half the machine's cores, so the JVM's own threads and
the driver run beside the Python workers without taking turns with them.
Every file Spark or the JVM writes goes under ``work``.
"""
from __future__ import annotations

import glob
import os
import pathlib
import tempfile
import time
from typing import List, Tuple

DRIVER_MEMORY = "2g"
#: The test fixture's 64 shuffle partitions make the maintenance job run
#: ~1,750 tasks (12 s per snapshot on 4 slots); two per slot is the usual
#: sizing for a local deployment and leaves the groups spread over slots.
SHUFFLE_PER_SLOT = 2
#: A process lives about a minute, too short for the optimising JIT to
#: settle: with it, each maintenance job kept getting faster for six or
#: more snapshots.  The quick JIT alone is steady after one, and it and
#: the serial collector run no compiler or GC threads that compete with
#: the workers for cores.
JVM_OPTIONS = "-XX:-UsePerfData -XX:TieredStopAtLevel=1 -XX:+UseSerialGC"


def task_slots() -> int:
    return max(1, len(os.sched_getaffinity(0)) // 2)


def start(work: pathlib.Path, src: pathlib.Path) -> Tuple[object, float]:
    """Launch the JVM and the session; returns it with its start time in s."""
    tmp = work / "tmp"
    local = work / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # Python workers import the library from the same source tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PIN_THREAD"] = "true"
    # Read by both JVMs spark-submit starts; -XX:-UsePerfData leaves no
    # hsperfdata files outside ``work``.
    os.environ["JAVA_TOOL_OPTIONS"] = f"{JVM_OPTIONS} -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{task_slots()}] --driver-memory {DRIVER_MEMORY} "
        "pyspark-shell"
    )
    t0 = time.perf_counter()
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(local))
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PER_SLOT * task_slots()))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    _start_workers(spark)
    return spark, time.perf_counter() - t0


def _start_workers(spark) -> None:
    """Run one trivial pandas job per task slot, so that starting the
    Python workers counts as session start, not as the first set-up."""

    def identity(batches):
        yield from batches

    n = spark.sparkContext.defaultParallelism
    spark.range(n, numPartitions=n).mapInPandas(identity, "id long").collect()


def jvm_peak_rss_mb(spark) -> float:
    proc = spark.sparkContext._gateway.proc
    return _peak_rss_mb(f"/proc/{proc.pid}/status")


def driver_peak_rss_mb() -> float:
    return _peak_rss_mb("/proc/self/status")


def _peak_rss_mb(status: str) -> float:
    with open(status) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


def _descendants(pid: int) -> List[int]:
    """Every process below ``pid``: the Python worker daemon and its workers."""
    out, todo = [], [pid]
    while todo:
        for path in glob.glob(f"/proc/{todo.pop()}/task/*/children"):
            try:
                with open(path) as f:
                    kids = [int(c) for c in f.read().split()]
            except OSError:
                continue
            out += kids
            todo += kids
    return out


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/status") as f:
            return not any(line.startswith("State:\tZ") for line in f)
    except OSError:
        return False


def stop(spark) -> None:
    """Stop the session and wait for the JVM and its Python workers to exit."""
    from pyspark import SparkContext

    gateway = spark.sparkContext._gateway
    proc = gateway.proc
    workers = _descendants(proc.pid)
    spark.stop()
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    proc.stdin.close()
    proc.wait(timeout=60)
    deadline = time.monotonic() + 30
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
