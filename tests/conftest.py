"""Shared fixtures."""

import importlib.util
import os
from pathlib import Path

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so the suite stays
# deterministic; no example database is written.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.fixture
def child_env():
    """Environment for a child Python that imports thzpair from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _load_bench(name):
    """bench/<name>.py, loaded by path: the benchmark is not a package."""
    spec = importlib.util.spec_from_file_location(
        f"thzpair_bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def reference():
    """The benchmark's 50-digit model, bench/reference.py, loaded by path."""
    return _load_bench("reference")


@pytest.fixture(scope="session")
def bench_workloads():
    """The benchmark's workloads and their checks, bench/workloads.py."""
    return _load_bench("workloads")
