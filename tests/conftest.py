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


@pytest.fixture(scope="session")
def reference():
    """The benchmark's 50-digit model, bench/reference.py, loaded by path."""
    path = ROOT / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("thzpair_bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
