"""Import smoke test for the scripts outside the test suite.

``jobs/*.py`` (spark-submit entry points) and ``benchmarks/bench_*.py``
(paper table/figure harnesses) are not run by the unit tests, so a
renamed or removed library name would break them unseen.  Each module
is only imported here: nothing is built, no Spark session is started.
"""
import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = sorted(ROOT.glob("jobs/*.py")) + sorted(ROOT.glob("benchmarks/bench_*.py"))


def test_scripts_found():
    assert any(p.parent.name == "jobs" for p in SCRIPTS)
    assert any(p.parent.name == "benchmarks" for p in SCRIPTS)


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[str(p.relative_to(ROOT)) for p in SCRIPTS]
)
def test_imports(path, monkeypatch):
    # jobs put their own directory on sys.path to find ``_common``
    monkeypatch.setattr(sys, "path", list(sys.path))
    name = f"_smoke_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
