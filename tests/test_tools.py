"""The mutation script's verdict, checked without running the suite per mutant."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
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
    handler = signal.getsignal(signal.SIGTERM)
    status = mutate.main([str(module)])
    assert signal.getsignal(signal.SIGTERM) is handler  # restored on the way out
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
    a raise or an assert that spans lines becomes pass; equality is left
    alone."""
    head = "def f(y):\n    if not 0 < y >= 2 == y:\n"
    refusal = "        raise ValueError(\n            y)\n"
    assertion = "    assert y == 3, (\n        y)\n"
    source = head + refusal + assertion
    assert check(tmp_path.resolve(), monkeypatch, source, 1) == (0, [
        source.replace("0 < y", "0 <= y"),
        source.replace("y >= 2", "y > 2"),
        head + "        pass\n" + assertion,
        head + refusal + "    pass\n",
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


## A child runs the script on a one-file tree, with a tier-1 run that marks
## its start and then sleeps.
_SLEEPING_RUN = """
import importlib.util, pathlib, sys, time
spec = importlib.util.spec_from_file_location("mutate", sys.argv[1])
mutate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutate)
mutate.ROOT = pathlib.Path(sys.argv[2])
def run(*args, **kwargs):
    (mutate.ROOT.parent / "started").touch()
    time.sleep(120)
mutate.subprocess.run = run
sys.exit(mutate.main([str(mutate.ROOT / "m.py")]))
"""


def test_sigterm_removes_the_temporary_copy(tmp_path):
    """SIGTERM during a tier-1 run ends the script with a non-zero status,
    and its copy of the tree is removed, not left in the temporary folder."""
    tree, tmp = tmp_path / "tree", tmp_path / "tmp"
    tree.mkdir()
    tmp.mkdir()
    (tree / "m.py").write_text("x = 1.5\n", encoding="utf-8")
    script = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
    child = subprocess.Popen(
        [sys.executable, "-c", _SLEEPING_RUN, str(script), str(tree)],
        env=dict(os.environ, TMPDIR=str(tmp)), stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60.0
        while not (tmp_path / "started").exists():
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        assert list(tmp.glob("mutate-*/repo/m.py"))  # the copy is there while it runs
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=60.0) == 128 + signal.SIGTERM
    finally:
        child.kill()
        child.wait(timeout=60.0)
    assert list(tmp.iterdir()) == []
