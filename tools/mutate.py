"""Mutation check of a module's float constants against the tier-1 tests.

Every float literal of the module (docstrings are strings, so none of theirs)
is multiplied by 10 and by 0.1, one mutant at a time.  Each mutant is written
into a temporary copy of the repository, never into the checkout, and tier-1
runs there with ``-x``.  A mutant the tests do not fail is a survivor: a
constant that can move tenfold unnoticed.

    python tools/mutate.py src/thzpair/dynamics.py

The survivors are printed at the end, and the exit status is 1 when any
mutant survived, 0 when none did.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 600.0  # seconds per tier-1 run; a run past it counts as killed
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


def float_constants(source: str) -> list:
    """(line, start column, end column, value) of each float literal, in source order."""
    nodes = [n for n in ast.walk(ast.parse(source))
             if isinstance(n, ast.Constant) and type(n.value) is float]
    return sorted((n.lineno, n.col_offset, n.end_col_offset, n.value) for n in nodes)


def mutant(source: str, line: int, start: int, end: int, value: float) -> str:
    """source with the literal at (line, start:end) replaced by value.

    A literal never spans lines.  ast's columns count UTF-8 bytes, so the
    line is spliced as bytes."""
    lines = source.splitlines(keepends=True)
    raw = lines[line - 1].encode()
    lines[line - 1] = (raw[:start] + repr(value).encode() + raw[end:]).decode()
    return "".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", type=Path, help="module file inside the repository")
    args = parser.parse_args(argv)
    rel = args.module.resolve().relative_to(ROOT)
    source = (ROOT / rel).read_text(encoding="utf-8")
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        for line, start, end, value in float_constants(source):
            for shift in (1, -1):  # x10, x0.1, in decimal so 1e-12 becomes 1e-11
                new = float(Decimal(repr(value)).scaleb(shift))
                label = f"{rel}:{line}: {value!r} -> {new!r}"
                if new == value:  # 0.0 scales to itself
                    print(f"{label}  unchanged, not run", flush=True)
                    continue
                (tree / rel).write_text(mutant(source, line, start, end, new), encoding="utf-8")
                try:
                    rc = subprocess.run(
                        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                        timeout=TIMEOUT).returncode
                except subprocess.TimeoutExpired:
                    rc = "timeout"
                print(f"{label}  {'SURVIVED' if rc == 0 else f'killed ({rc})'}", flush=True)
                if rc == 0:
                    survivors.append(label)
    print(f"\n{len(survivors)} survivor(s) in {rel}:")
    for label in survivors:
        print(f"  {label}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
