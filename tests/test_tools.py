"""The mutation script's verdict, checked without running the suite per mutant."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "mutate", Path(__file__).resolve().parents[1] / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutate)


@pytest.mark.parametrize("rc, status", [(0, 1), (1, 0)], ids=["survived", "killed"])
def test_the_mutation_script_exits_1_on_a_survivor(tmp_path, monkeypatch, rc, status):
    """Both mutants of x = 1.5 run once in a copy of the tree; the script
    exits 1 when the tests pass on a mutant (it survived), 0 when they fail
    on every one, and leaves the module itself as it was."""
    root = tmp_path.resolve()
    module = root / "m.py"
    module.write_text("x = 1.5\n", encoding="utf-8")
    runs = []

    def run(args, cwd, **kwargs):
        runs.append((Path(cwd) / "m.py").read_text(encoding="utf-8"))
        return subprocess.CompletedProcess(args, rc)

    monkeypatch.setattr(mutate, "ROOT", root)
    monkeypatch.setattr(mutate.subprocess, "run", run)
    assert mutate.main([str(module)]) == status
    assert runs == ["x = 15.0\n", "x = 0.15\n"]
    assert module.read_text(encoding="utf-8") == "x = 1.5\n"
