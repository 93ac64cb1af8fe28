"""Run the benchmark over several seeds and record the result as a baseline.

    python3 bench/baseline.py --runs 10 --first-seed 1 --output bench/baseline.json

For each workload this makes ``--runs`` untraced runs, one per seed, and one
traced run, each for BENCHMARK.json's ``run_seconds``.  Per end-to-end metric
it records the values, their median and quartiles, and the spread
(q3 - q1) / median, which should stay below a third of the metric's bound.
It also records the environment the runs report, the git commit and the
sweep CSV digests.  Run it from the root of a git checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NOTES = [
    "setup_s includes the first operation in a fresh process. In a prototype "
    "of this benchmark on 2 shared cores, the first 400-delay g2_tau block of "
    "a fresh process took 0.85-1.09 s instead of about 65 ms in 3 of 9 "
    "processes, and in 0 of 8 with OPENBLAS_NUM_THREADS=1; on the baseline "
    "machine it took 816 ms against 58-117 ms in 1 of 9, and 0 of 8 with one "
    "thread. OpenBLAS thread start-up is the suspect, not proven. The "
    "benchmark leaves BLAS threading at numpy's default, so read a setup_s "
    "change with this in mind.",
    "The baseline machine is shared: a fixed pure-Python loop timed 88-158 ms "
    "per sample over 45 s, with CPU time equal to wall time and no steal, so "
    "timings drift by 10-15% between runs minutes apart. The timing bounds "
    "are therefore 0.25.",
    "fail_ratio is reported as its complement ok_ratio = 1 - failed/attempted, "
    "because a metric of the benchmark must never read 0.",
]


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}\n{proc.stderr}")
    return lines, result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--output", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    out = {"commit": commit, "run_seconds": seconds, "seeds": seeds, "notes": NOTES,
           "env": None, "workloads": {}}
    for name in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        info = {}
        for seed in seeds:
            lines, result = run(name, seed, seconds, 0)
            out["env"] = out["env"] or json.loads(lines[0].removeprefix("env: "))
            info[seed] = lines[1:-1]
            for key, m in result["metrics"].items():
                values[key].append(m["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        _, traced = run(name, seeds[0], seconds, 1)
        e2e = {}
        for m in spec["end_to_end"]:
            s = summary(values[m["name"]])
            s.update(unit=m["unit"], better=m["better"], bound=m["bound"],
                     steady=s["spread"] <= m["bound"] / 3)
            e2e[m["name"]] = s
            print(f"  {m['name']:16s} median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"bound/3 {m['bound'] / 3:.4f}", flush=True)
        out["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "per_layer_seed": seeds[0],
            "run_notes": info,
        }
    Path(args.output).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
