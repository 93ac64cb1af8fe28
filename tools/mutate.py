"""Mutation check of a module's constants, boundaries and refusals against tier-1.

Three kinds of mutant are made, one at a time:
  * every float literal (docstrings are strings, so none of theirs) is
    multiplied by 10 and by 0.1;
  * every ordering comparison moves its boundary: < and <=, > and >= swap;
  * every raise statement becomes pass.
Each mutant is written into a temporary copy of the repository, never into
the checkout, and tier-1 runs there with ``-x``.  A mutant the tests do not
fail is a survivor: a constant that can move tenfold, a boundary that can
move by one float, or a refusal that can go, unnoticed.

    python tools/mutate.py src/thzpair/dynamics.py

The survivors are printed at the end.  Those listed in KNOWN are mutants no
input is known to tell apart from the original, each with its reason; the
exit status is 1 when any other mutant survived, 0 when none did.
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
_FLIP = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}

# Survivors that are not faults, keyed by module, stripped source line and change.
_EQUALITY = "equality with a float threshold, which no input is known to reach"
KNOWN = {
    ("src/thzpair/model.py", "if omega <= 0.0:", "<= -> <"):
        "rate_at(0) is 0.0 on either branch",
    ("src/thzpair/dynamics.py", "squarings = math.ceil(math.log2(norm)) if norm > 1.0 else 0",
     "> -> >="): "log2(1) = 0, so no squaring either way",
    ("src/thzpair/dynamics.py", "if abs(tr - 1.0) > TRACE_TOL:", "> -> >="): _EQUALITY,
    ("src/thzpair/dynamics.py", "if np.abs(rho - rho.conj().T).max() > CONJ_TOL:", "> -> >="):
        _EQUALITY,
    ("src/thzpair/dynamics.py", "if np.linalg.cond(v) > EIGEN_COND_LIMIT:", "> -> >="): _EQUALITY,
    ("src/thzpair/dynamics.py", "if residual > 1e-10:", "> -> >="): _EQUALITY,
    ("src/thzpair/dynamics.py", "if growth > 1e-12 * norms.max():", "> -> >="): _EQUALITY,
    ("src/thzpair/dynamics.py", "if not t * reach <= 1.0:", "<= -> <"): _EQUALITY,
    ("src/thzpair/correlations.py",
     "return CorrelationReport(g11, g22, g12, g21, cs_lhs, cs_rhs, bool(cs_lhs < cs_rhs))",
     "< -> <="): "cs_lhs is 0, so equality needs g12 = 0, which no input is known to reach",
}


def _locator(source: str):
    """Map ast's (line, UTF-8 byte column) to a character offset into source."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for text in lines:
        starts.append(starts[-1] + len(text))
    return lambda line, col: starts[line - 1] + len(lines[line - 1].encode()[:col].decode())


def mutations(source: str) -> list:
    """(start, end, replacement, change) of each mutant, in source order: the
    characters source[start:end] are replaced."""
    at = _locator(source)
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            span = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
            for shift in (1, -1):  # x10, x0.1, in decimal so 1e-12 becomes 1e-11
                new = float(Decimal(repr(node.value)).scaleb(shift))
                if new != node.value:  # 0.0 scales to itself
                    out.append((*span, repr(new), f"{node.value!r} -> {new!r}"))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left in zip(node.ops, operands):
                if type(op) in _FLIP:
                    old, new = _FLIP[type(op)]
                    # the operator is the first such text past its left operand
                    start = source.index(old, at(left.end_lineno, left.end_col_offset))
                    out.append((start, start + len(old), new, f"{old} -> {new}"))
        elif isinstance(node, ast.Raise):
            span = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
            out.append((*span, "pass", "raise -> pass"))
    return sorted(out, key=lambda m: m[:2])  # stable: x10 before x0.1


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
        for start, end, replacement, change in mutations(source):
            line = source.count("\n", 0, start) + 1
            column = start - source.rfind("\n", 0, start)
            label = f"{rel}:{line}:{column}: {change}"
            (tree / rel).write_text(source[:start] + replacement + source[end:], encoding="utf-8")
            try:
                rc = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                    cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                    timeout=TIMEOUT).returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
            print(f"{label}  {'SURVIVED' if rc == 0 else f'killed ({rc})'}", flush=True)
            if rc == 0:
                text = source.splitlines()[line - 1].strip()
                survivors.append((label, KNOWN.get((rel.as_posix(), text, change))))
    unknown = [label for label, reason in survivors if reason is None]
    print(f"\n{len(survivors)} survivor(s) in {rel}, {len(unknown)} not in KNOWN:")
    for label, reason in survivors:
        print(f"  {label}  [{reason or 'NOT KNOWN'}]")
    return 1 if unknown else 0


if __name__ == "__main__":
    sys.exit(main())
