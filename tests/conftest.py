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
def rounding_scan():
    """The scan of sweep cells against the reference, tools/rounding_scan.py,
    loaded by path: tools/ is not a package.  It loads bench/reference.py and
    bench/workloads.py, which the fixtures below hand on."""
    spec = importlib.util.spec_from_file_location(
        "thzpair_tools_rounding_scan", ROOT / "tools" / "rounding_scan.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def reference(rounding_scan):
    """The benchmark's 50-digit model, bench/reference.py."""
    return rounding_scan.reference


@pytest.fixture(scope="session")
def bench_workloads(rounding_scan):
    """The benchmark's workloads and their checks, bench/workloads.py."""
    return rounding_scan.workloads
