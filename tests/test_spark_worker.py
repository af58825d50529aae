"""The worker-side per-task helper ``spark_graph.prepare_worker``.

PySpark calls ``importlib.invalidate_caches()`` before every Python
task; under CPython 3.11 that re-reads the directory of every zip on
the worker's path.  The helper makes a zip importer re-read only an
archive that changed.  It also has each full garbage collection (one
runs between the tasks of a reused worker) set ``TCP_QUICKACK`` on the
worker's TCP sockets, so that the next task's input is not held up by a
delayed ACK.  Nothing here assumes that two Spark jobs share a worker
process: Spark may start a fresh one for any task.
"""
import ast
import gc
import importlib.util
import os
import pathlib
import socket
import subprocess
import sys
import zipfile
import zipimport

import pytest

import repro
from repro.core import DTLP
from repro.distrib import process_batch_spark
from repro.distrib import spark_graph
from repro.distrib.spark_graph import prepare_worker
from repro.roadnet import random_connected_graph

DISTRIB = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "distrib"

#: Methods whose function argument Spark runs as a Python task body.
TASK_METHODS = {"mapPartitions", "applyInPandas", "mapInPandas"}


def _write_zip(path, modules):
    with zipfile.ZipFile(path, "w") as z:
        for name, value in modules.items():
            z.writestr(f"{name}.py", f"VALUE = {value!r}\n")


def _load(finder, name):
    spec = finder.find_spec(name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def reads(monkeypatch):
    """The archives ``zipimport`` reads a directory of, in call order."""
    calls = []
    real = zipimport._read_directory

    def counting(archive):
        calls.append(archive)
        return real(archive)

    monkeypatch.setattr(zipimport, "_read_directory", counting)
    return calls


@pytest.fixture
def archive(tmp_path):
    """A zip holding ``mod_a``, its importer, and a private importer cache
    that already holds the patched importer."""
    path = str(tmp_path / "lib.zip")
    _write_zip(path, {"mod_a": 1})
    finder = zipimport.zipimporter(path)
    prepare_worker({path: finder})
    return path, finder


class TestPrepareWorker:
    def test_unchanged_archive_not_reread(self, archive, reads):
        path, finder = archive
        finder.invalidate_caches()
        finder.invalidate_caches()
        assert reads == []
        assert _load(finder, "mod_a").VALUE == 1

    def test_rewritten_archive_reread(self, archive, reads):
        path, finder = archive
        _write_zip(path, {"mod_a": 1, "mod_b": 2})
        finder.invalidate_caches()
        assert reads == [path]
        assert _load(finder, "mod_b").VALUE == 2
        finder.invalidate_caches()  # the new state is now the known one
        assert reads == [path]

    def test_missing_archive_reread(self, archive, reads):
        path, finder = archive
        os.remove(path)
        finder.invalidate_caches()
        assert reads == [path]
        assert finder.find_spec("mod_a") is None

    def test_repeated_calls_keep_one_patch(self, archive):
        path, finder = archive
        patched = finder.invalidate_caches
        prepare_worker({path: finder})
        assert finder.invalidate_caches == patched

    def test_driver_importers_untouched(self, archive):
        assert not any(
            "invalidate_caches" in vars(f)
            for f in sys.path_importer_cache.values()
            if isinstance(f, zipimport.zipimporter)
        )


QUICKACK = getattr(socket, "TCP_QUICKACK", None)
linux_only = pytest.mark.skipif(
    QUICKACK is None or not os.path.isdir("/proc/self/fd"),
    reason="TCP_QUICKACK and /proc/self/fd are Linux's",
)


def _quickack(sock):
    return sock.getsockopt(socket.IPPROTO_TCP, QUICKACK)


def _is_tcp(sock):
    return (
        sock.family in (socket.AF_INET, socket.AF_INET6)
        and sock.type == socket.SOCK_STREAM
    )


@pytest.fixture
def tcp_pair():
    """Both ends of a loopback TCP connection, put in delayed-ACK mode."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        client = socket.create_connection(server.getsockname())
        peer, _ = server.accept()
    with client, peer:
        for end in (client, peer):
            end.setsockopt(socket.IPPROTO_TCP, QUICKACK, 0)
        assert [_quickack(client), _quickack(peer)] == [0, 0]
        yield client, peer
        # the helper left both ends open and connected
        client.sendall(b"x")
        assert peer.recv(1) == b"x"


@pytest.fixture(autouse=True)
def gc_hook():
    """The hook ``prepare_worker`` adds, taken out of this test process
    after each test."""
    yield spark_graph._quickack_after_full_gc
    while spark_graph._quickack_after_full_gc in gc.callbacks:
        gc.callbacks.remove(spark_graph._quickack_after_full_gc)


@linux_only
class TestQuickAck:
    def test_tcp_pair_rearmed(self, tcp_pair):
        spark_graph._quickack_tcp_sockets()
        assert [_quickack(end) for end in tcp_pair] == [1, 1]

    def test_full_collection_rearms_after_prepare(self, tcp_pair, gc_hook):
        prepare_worker({})
        prepare_worker({})
        assert gc.callbacks.count(gc_hook) == 1
        gc.collect(1)  # a young collection does not scan
        assert [_quickack(end) for end in tcp_pair] == [0, 0]
        gc.collect()
        assert [_quickack(end) for end in tcp_pair] == [1, 1]

    def test_other_fds_untouched(self, tcp_pair, monkeypatch, tmp_path):
        """Only TCP sockets get the option: not a Unix socket pair (a
        session with ``spark.python.unix.domain.socket.enabled``), not a
        file; and each stays open."""
        touched = []
        real = socket.socket.setsockopt

        def spy(sock, *args):
            touched.append(sock.fileno())
            return real(sock, *args)

        monkeypatch.setattr(socket.socket, "setsockopt", spy)
        a, b = socket.socketpair()
        with a, b, open(tmp_path / "file", "w") as f:
            spark_graph._quickack_tcp_sockets()
            assert not {a.fileno(), b.fileno(), f.fileno()} & set(touched)
            a.sendall(b"y")
            assert b.recv(1) == b"y"
        assert {end.fileno() for end in tcp_pair} <= set(touched)

    def test_fd_closed_after_listing(self, tcp_pair, monkeypatch):
        doomed = socket.create_server(("127.0.0.1", 0))
        real = os.listdir

        def listdir(path):
            names = real(path)
            assert str(doomed.fileno()) in names
            doomed.close()
            return names

        monkeypatch.setattr(os, "listdir", listdir)
        spark_graph._quickack_tcp_sockets()
        assert [_quickack(end) for end in tcp_pair] == [1, 1]

    def test_no_option_no_op(self, tcp_pair, monkeypatch):
        monkeypatch.delattr(socket, "TCP_QUICKACK")
        spark_graph._quickack_tcp_sockets()
        assert [_quickack(end) for end in tcp_pair] == [0, 0]

    def test_no_fd_listing_no_op(self, tcp_pair, monkeypatch):
        def missing(path):
            raise FileNotFoundError(path)

        monkeypatch.setattr(os, "listdir", missing)
        spark_graph._quickack_tcp_sockets()
        assert [_quickack(end) for end in tcp_pair] == [0, 0]


def test_package_import_leaves_pandas_unloaded():
    """Every task body loads ``repro.distrib``; a new worker that runs only
    RDD tasks (the query tasks) must not pay for loading pandas."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    code = "import sys, repro.distrib; print('pandas' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert (run.returncode, run.stdout.strip()) == (0, "False"), run.stderr[-3000:]


def _own_nodes(scope):
    """The nodes of ``scope``'s body outside nested function definitions."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _task_bodies():
    """``(file, method, task body)`` for every function this package hands
    to Spark as a Python task body: a function defined in the scope that
    calls the method with it."""
    for path in sorted(DISTRIB.glob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text())):
            if not isinstance(scope, (ast.Module, ast.FunctionDef)):
                continue
            local = {n.name: n for n in scope.body if isinstance(n, ast.FunctionDef)}
            for node in _own_nodes(scope):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in TASK_METHODS
                ):
                    arg = node.args[0]
                    where = f"{path.name}:{node.lineno}"
                    assert isinstance(arg, ast.Name) and arg.id in local, where
                    yield path.name, node.func.attr, local[arg.id]


def test_every_task_body_prepares_worker_first():
    bodies = list(_task_bodies())
    assert len(bodies) == 4  # two query tasks, the build, maintenance
    for name, method, fn in bodies:
        first = fn.body[0]
        assert (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Call)
            and isinstance(first.value.func, ast.Name)
            and first.value.func.id == "prepare_worker"
            and not first.value.args
        ), f"{name}: {fn.name} (passed to {method}) must call prepare_worker() first"


class TestOnWorkers:
    def test_patched_task_rereads_no_zip(self, spark):
        """After the helper, PySpark's per-task invalidation reads no
        archive directory in the worker, though it imports from zips."""

        def fn(rows):
            prepare_worker()
            calls = []
            real = zipimport._read_directory
            zipimport._read_directory = lambda a: calls.append(a) or real(a)
            try:
                importlib.invalidate_caches()
            finally:
                zipimport._read_directory = real
            zips = [
                f.archive
                for f in sys.path_importer_cache.values()
                if isinstance(f, zipimport.zipimporter)
            ]
            yield zips, calls

        sc = spark.sparkContext
        for zips, calls in sc.parallelize(range(2), 2).mapPartitions(fn).collect():
            assert any(z.endswith("pyspark.zip") for z in zips)
            assert calls == []

    @linux_only
    def test_full_collection_rearms_worker_sockets(self, spark):
        """In a task that called the helper, a full collection (as PySpark
        runs between tasks) sets ``TCP_QUICKACK`` on every TCP socket of
        the worker, its socket to the JVM among them."""

        def fn(rows):
            prepare_worker()
            tcp = []
            try:
                for fd in os.listdir("/proc/self/fd"):
                    try:
                        sock = socket.socket(fileno=int(fd))
                    except OSError:
                        continue
                    if _is_tcp(sock):
                        sock.setsockopt(socket.IPPROTO_TCP, QUICKACK, 0)
                        tcp.append(sock)
                    else:
                        sock.detach()
                gc.collect()
                yield [_quickack(sock) for sock in tcp]
            finally:
                for sock in tcp:
                    sock.detach()

        sc = spark.sparkContext
        for values in sc.parallelize(range(2), 2).mapPartitions(fn).collect():
            assert values and set(values) == {1}

    def test_added_py_file_imports_after_request(self, spark, tmp_path):
        """A zip added with ``addPyFile`` after a library request (whose
        tasks patched the importers of any worker they ran in) imports in
        a later task."""
        g = random_connected_graph(30, seed=5)
        dtlp = DTLP.build(g, z=10, xi=2)
        process_batch_spark(spark, dtlp, [(0, 7), (3, 20)], k=1)
        path = tmp_path / "repro_added_after_request.zip"
        _write_zip(path, {"repro_added_after_request": 7})
        sc = spark.sparkContext
        sc.addPyFile(str(path))

        def fn(rows):
            prepare_worker()
            import repro_added_after_request

            yield repro_added_after_request.VALUE

        assert sc.parallelize(range(2), 2).mapPartitions(fn).collect() == [7, 7]
