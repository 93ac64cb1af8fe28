"""Scan of the benchmark's sweep rows for cells that are not correctly rounded.

The benchmark's timed sweeps (the first BLOCKS blocks of ``Sweep.blocks`` at
seeds 1..SEEDS of bench/workloads.py, 84,548 rows) are run through the package,
and each row's sz, p2, g12, g21, cs_rhs and pair_freq cells are compared with
the 50-digit values of bench/reference.py rounded to nine significant digits,
half to even.  A cell that prints any other value is reported.

    PYTHONPATH=src python3 tools/rounding_scan.py

The full scan takes about eleven minutes on one core and is run by hand,
not in CI; on the package as shipped it reads 0 cells not correctly rounded.  Rows that fail to solve
print as NaN and are counted apart.  The exit status is 1 when any cell is
not correctly rounded, 0 otherwise.  Nothing under bench/ is written.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
import warnings
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from pathlib import Path

from thzpair import model

ROOT = Path(__file__).resolve().parents[1]
COLUMNS = ("sz", "p2", "g12", "g21", "cs_rhs", "pair_freq")
## the timed part of the benchmark: seeds 1..SEEDS, BLOCKS sweep blocks each
SEEDS, BLOCKS = 14, 3


def _bench(name):
    """bench/<name>.py, loaded by path: the benchmark is not a package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _bench("reference")
workloads = _bench("workloads")


def expected_cells(params: model.PhysicalParams) -> dict:
    """Column -> the reference value at params, rounded to nine digits."""
    lab = reference.Lab.of(params)
    mp = reference.mp
    with mp.workdps(reference.DPS):
        p2, g12, g21 = reference.steady_point(lab)
        exact = {
            "sz": p2 - mp.mpf(0.5),  # the trace is one, so (rho11 - rho00)/2 = p2 - 1/2
            "p2": p2,
            "g12": g12,
            "g21": g21,
            "cs_rhs": g12 * g12,
            "pair_freq": lab.omegaL - lab.omega0 - lab.rabi ** 2 / (4 * lab.omegaL),
        }
        digits = {k: Decimal(mp.nstr(v, 40)) for k, v in exact.items()}
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 9, ROUND_HALF_EVEN
        return {k: +v for k, v in digits.items()}


def misrounded(params: model.PhysicalParams, line: str) -> list:
    """(column, printed cell, correctly rounded value) of each cell of the
    sweep CSV line for params that does not print its reference value."""
    cells = dict(zip(workloads.SWEEP_HEADER.split(","), line.split(",")))
    want = expected_cells(params)
    return [(c, cells[c], want[c]) for c in COLUMNS if Decimal(cells[c]) != want[c]]


def main() -> int:
    warnings.simplefilter("ignore")  # the physics warnings of the strong drives
    sweep = workloads.Sweep()
    rows = failed = bad = 0
    for seed in range(1, SEEDS + 1):
        for op in itertools.chain.from_iterable(itertools.islice(sweep.blocks(seed), BLOCKS)):
            base = model.preset(op["preset"])
            out, text = sweep.run(op)
            for row, line in zip(out, text.splitlines()[1:]):
                if row.failed:
                    failed += 1
                    continue
                rows += 1
                params = model.with_rabi(base, row.omega_rabi)
                for column, printed, want in misrounded(params, line):
                    bad += 1
                    print(f"seed {seed} {op['preset']} rabi {row.omega_rabi!r}: {column} "
                          f"prints {printed}, correctly rounded {want}", flush=True)
    print(f"{rows} rows, {rows * len(COLUMNS)} cells: {bad} not correctly rounded "
          f"({failed} failed rows not scanned)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
