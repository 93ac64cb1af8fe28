"""The mutation script's verdict, checked without running the suite per mutant."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "mutate", Path(__file__).resolve().parents[1] / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutate)


def check(root, monkeypatch, source, rc):
    """(exit status, the module as each tier-1 run saw it) of the script on a
    module m.py holding source, where every tier-1 run returns rc."""
    module = root / "m.py"
    module.write_text(source, encoding="utf-8")
    runs = []

    def run(args, cwd, **kwargs):
        runs.append((Path(cwd) / "m.py").read_text(encoding="utf-8"))
        return subprocess.CompletedProcess(args, rc)

    monkeypatch.setattr(mutate, "ROOT", root)
    monkeypatch.setattr(mutate.subprocess, "run", run)
    status = mutate.main([str(module)])
    assert module.read_text(encoding="utf-8") == source
    return status, runs


@pytest.mark.parametrize("rc, status", [(0, 1), (1, 0)], ids=["survived", "killed"])
def test_the_mutation_script_exits_1_on_a_survivor(tmp_path, monkeypatch, rc, status):
    """Both mutants of x = 1.5 run once in a copy of the tree; the script
    exits 1 when the tests pass on a mutant (it survived), 0 when they fail
    on every one, and leaves the module itself as it was."""
    assert check(tmp_path.resolve(), monkeypatch, "x = 1.5\n", rc) == (
        status, ["x = 15.0\n", "x = 0.15\n"])


def test_boundaries_move_and_refusals_go(tmp_path, monkeypatch):
    """Each ordering comparison of a chain moves its boundary on its own, and
    a raise that spans lines becomes pass; equality is left alone."""
    source = "def f(y):\n    if not 0 < y >= 2 == y:\n        raise ValueError(\n            y)\n"
    assert check(tmp_path.resolve(), monkeypatch, source, 1) == (0, [
        source.replace("0 < y", "0 <= y"),
        source.replace("y >= 2", "y > 2"),
        "def f(y):\n    if not 0 < y >= 2 == y:\n        pass\n",
    ])


@pytest.mark.parametrize("known, status", [(False, 1), (True, 0)], ids=["unlisted", "listed"])
def test_a_listed_survivor_does_not_fail_the_check(tmp_path, monkeypatch, capsys, known, status):
    """A survivor in KNOWN, matched by module, source line and change, is
    reported with its reason; any other survivor fails the check."""
    if known:
        monkeypatch.setitem(mutate.KNOWN, ("m.py", "x = y <= 2", "<= -> <"), "equivalent")
    assert check(tmp_path.resolve(), monkeypatch, "y = 1\nx = y <= 2\n", 0) == (
        status, ["y = 1\nx = y < 2\n"])
    reason = "equivalent" if known else "NOT KNOWN"
    assert capsys.readouterr().out.endswith(f"  m.py:2:7: <= -> <  [{reason}]\n")
