"""Shared fixtures."""

import os
from pathlib import Path

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so the suite stays
# deterministic; no example database is written.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def child_env():
    """Environment for a child Python that imports thzpair from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
