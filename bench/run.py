"""The thzpair benchmark: one seeded workload, measured end to end or per layer.

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The load is a closed loop: one caller in this process runs the
workload's operations back to back, in whole blocks, until ``--seconds``
have passed.  BLAS threading is left at numpy's defaults and recorded.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Beside the
warm in-process loop it times fresh interpreters: ``setup_s`` is
spawn-to-ready of an interpreter that imports the package and completes one
operation, ``cli_s`` and ``rss_mb`` are the wall time and peak RSS of the
workload's CLI subcommand.  ``--trace 1`` reports the per-layer metrics: it
runs the same blocks untimed and then traced, and writes the spans to
``.bench-out/``.

Every output is checked; the accuracy of a seeded subset is measured
against the 50-digit reference in ``reference.py``, outside the timed
region.  The last line of stdout is one JSON object.  The exit code is 1
when any check fails.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import thzpair  # noqa: E402
import tracing  # noqa: E402
from thzpair import model  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if Path(thzpair.__file__).resolve().parent != ROOT / "src" / "thzpair":
    sys.exit(f"thzpair was imported from {thzpair.__file__}, not from this checkout")

SPAWNS = 7  # fresh interpreters per kind per run; the median is reported
CHILD_TIMEOUT_S = 20


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _blas_threads():
    """Threads the bundled OpenBLAS would use, asked from the library itself."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": sys.version.split()[0],
        **versions,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def loop(workload, blocks, seconds, tracer=None):
    """Run whole blocks until ``seconds`` have passed; per op (op, out, seconds)."""
    records = []
    start = perf_counter()
    for block in blocks:
        for op in block:
            if tracer is not None:
                tracer.op += 1
                t0 = perf_counter()
                out = tracer.call("op", workload.run, op)
            else:
                t0 = perf_counter()
                out = workload.run(op)
            records.append((op, out, perf_counter() - t0))
        if perf_counter() - start >= seconds:
            break
    return records, perf_counter() - start


def tail(latencies, pct):
    """The pct-th percentile and the number of samples beyond it."""
    value = float(np.percentile(latencies, pct))
    return value, sum(x > value for x in latencies)


def check(workload, records):
    """(attempted units, failed units) over the records."""
    attempted = sum(workload.units(op) for op, *_ in records)
    failed = sum(workload.failed_units(op, out) for op, out, *_ in records)
    return attempted, failed


def self_test(workload, op, out):
    """The checks must count a doctored output as failed."""
    return workload.failed_units(op, out) == 0 and workload.failed_units(op, workload.doctor(out)) > 0


def _spawn(cmd, cwd, stdout, ready=False):
    """Run a child to its end; (seconds to ready line or exit, exit code, peak RSS MB, stdout)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=stdout,
                            stderr=subprocess.DEVNULL, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        text = ""
        if ready:
            text = proc.stdout.readline()
            elapsed = perf_counter() - t0
            text += proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        if not ready:
            elapsed = perf_counter() - t0
    finally:
        timer.cancel()
        if proc.stdout is not None:
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0, text


def cold_runs(workload, setup_op, tmp):
    """setup_s, cli_s and rss_mb samples, alternating the two kinds of child;
    the first failed child ends them, so a hung child cannot stall the run."""
    setup, cli, rss, failures = [], [], [], 0
    probe = [sys.executable, str(BENCH / "workloads.py"), workload.name, json.dumps(setup_op)]
    for k in range(SPAWNS):
        elapsed, code, _, text = _spawn(probe, tmp, subprocess.PIPE, ready=True)
        setup.append(elapsed)
        failures += code != 0 or text.split() != ["ready"]

        target = os.path.join(tmp, f"cli-{k}.csv")
        args = list(workload.cli_args) + (["--output", target] if workload.cli_writes else [])
        log = os.path.join(tmp, f"cli-{k}.out")
        with open(log, "w", encoding="utf-8") as fh:
            elapsed, code, peak, _ = _spawn([sys.executable, "-m", "thzpair.cli", *args], tmp, fh)
        cli.append(elapsed)
        rss.append(peak)
        written = Path(target).read_text(encoding="utf-8") if workload.cli_writes and os.path.exists(target) else ""
        failures += code != 0 or not workload.cli_ok(Path(log).read_text(encoding="utf-8"), written)
        if failures:
            break
    return setup, cli, rss, failures


def accuracy(workload, records, seed):
    devs = workload.deviations([(op, out) for op, out, _ in records], random.Random(seed))
    worst = max(devs)
    return worst, -math.log10(max(worst, 1e-30)), len(devs)


def prepare(workload, seed):
    """The seeded block stream and its cheapest first operation, which is run
    once untimed as the warm-up and the self-test's input."""
    blocks = workload.blocks(seed)
    block0 = next(blocks)
    setup_op = min(block0, key=workload.units)
    ok = self_test(workload, setup_op, workload.run(setup_op))
    print(f"self-test: doctored output counted as failed: {ok}")
    return itertools.chain([block0], blocks), setup_op, ok


def end_to_end(workload, seed, seconds, tmp):
    stream, setup_op, ok = prepare(workload, seed)
    records, elapsed = loop(workload, stream, seconds)
    attempted, failed = check(workload, records)
    lat_ms = [r[2] * 1e3 for r in records]
    tail_ms, beyond = tail(lat_ms, workload.tail_pct)
    print(f"ops: {len(records)} in {elapsed:.3f} s; op_tail_ms is p{workload.tail_pct:g} "
          f"with {beyond} samples beyond it")
    if workload.name == "sweep":
        first = [out for _, out, _ in records[: workload.block_size]]
        again = workload.run(records[0][0])
        print(f"csv_sha256 seed {seed}: {workload.digest(first)}")
        ok &= again[1] == first[0][1]

    worst, digits, n = accuracy(workload, records, seed)
    print(f"accuracy: worst relative deviation {worst:.3g} over {n} values ({digits:.2f} digits)")
    ok &= worst <= workload.accuracy_tol

    setup, cli, rss, cli_failed = cold_runs(workload, setup_op, tmp)
    attempted += 2 * SPAWNS
    failed += cli_failed
    metrics = {
        "setup_s": statistics.median(setup),
        "cli_s": statistics.median(cli),
        "throughput": sum(workload.units(r[0]) for r in records) / elapsed,
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "ok_ratio": 1.0 - failed / attempted,
        "accuracy_digits": digits,
        "rss_mb": statistics.median(rss),
    }
    return metrics, attempted, failed, ok


def per_layer(workload, seed, seconds, tmp):
    imports = tracing.import_profile(child_env(), tmp, runs=3)
    stream, _, ok = prepare(workload, seed)
    # Each operation runs untraced and traced, in alternating order: the
    # ratio of the summed times is the tracing overhead, with the drift of
    # the machine and the warm second run paired out.
    tracer = tracing.Tracer()
    traced, caught = [], []

    def plain(op):
        return loop(workload, [[op]], 0.0)[1]

    def with_trace(op):
        with warnings.catch_warnings(record=True) as seen, tracer.installed():
            warnings.simplefilter("always")
            records, elapsed = loop(workload, [[op]], 0.0, tracer)
        traced.extend(records)
        caught.extend(seen)
        return elapsed

    plain_s = traced_s = 0.0
    start = perf_counter()
    for block in stream:
        for op in block:
            if len(traced) % 2:
                plain_s += plain(op)
                traced_s += with_trace(op)
            else:
                traced_s += with_trace(op)
                plain_s += plain(op)
        if perf_counter() - start >= seconds:
            break
    attempted, failed = check(workload, traced)

    out_dir = ROOT / ".bench-out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload.name}-seed{seed}.jsonl")

    ops = len(traced)
    values = tracing.layer_metrics(tracer, ops)
    values["import.thzpair_ms"] = imports["thzpair"]
    values["import.scipy_ms"] = imports["scipy"]
    values["import.numpy_ms"] = imports["numpy"]
    values["model.warn_pair_closed"] = sum(
        issubclass(w.category, model.PairChannelClosedWarning) for w in caught) / ops
    values["model.warn_perturbative"] = sum(
        issubclass(w.category, model.PerturbativeDriveWarning) for w in caught) / ops
    values["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    print(f"traced {ops} ops in {traced_s:.3f} s against {plain_s:.3f} s untraced")
    return values, attempted, failed, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    warnings.simplefilter("ignore")
    print("env: " + json.dumps(environment()))

    tmp = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        measure = per_layer if args.trace else end_to_end
        values, attempted, failed, ok = measure(workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = bool(ok and failed == 0)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
