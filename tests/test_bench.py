"""The benchmark still runs on this package and still checks what it runs."""

import pytest


# the seeded ops reach the closed pair channel and strong drives on purpose;
# the benchmark silences the physics warnings they raise, and so does this
@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("name", ["sweep", "correlate", "heff"])
def test_bench_accepts_an_output_and_refuses_it_doctored(bench_workloads, name):
    """bench/run.py's own self-test: the cheapest operation of seed 1's first
    block passes its checks, and the same output, doctored, fails them."""
    workload = bench_workloads.WORKLOADS[name]
    op = min(next(workload.blocks(1)), key=workload.units)
    out = workload.run(op)
    assert workload.failed_units(op, out) == 0
    assert workload.failed_units(op, workload.doctor(out)) > 0
