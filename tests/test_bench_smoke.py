"""The benchmark's first traced block of each workload, through the
benchmark's own checks and without its timing.

The block is what ``python3 perfbench/run.py --workload W --seed 7
--seconds 20 --trace 1`` times: 24 ``tables`` ops, 36 ``transforms`` ops
and 45 ``algebra`` ops. The F(z, w) ops of the first 30 ``transforms``
rounds of seeds 1 to 10 run as well: 300 closed-form checks of the
generating function. A change that breaks an output the benchmark checks
fails here, before any benchmark run.
"""
import sys
from pathlib import Path

import pytest

# workloads imports its checks module from the benchmark's directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import bimoment as bm  # noqa: E402
import workloads  # noqa: E402

SEED = 7
SECONDS = 20  # the benchmark's run length: the algebra pool's draws depend on it


@pytest.mark.parametrize("workload, ops", [("tables", 24), ("transforms", 36),
                                           ("algebra", 45)])
def test_first_traced_block_passes_the_bench_checks(workload, ops):
    plan = workloads.build(bm, workload, SEED, SECONDS)
    assert plan.traced_ops == ops
    problems = []
    for op in plan.timed[: plan.traced_ops]:
        problems += [f"{op.label}: {p}" for p in op.check(op.run())]
    assert problems == []


@pytest.mark.parametrize("seed", range(1, 11))
def test_first_thirty_rounds_of_gaussian_generating_pass_the_bench_checks(seed):
    """Every F(z, w) op of the first 30 transforms rounds, one per round,
    against the benchmark's closed-form check."""
    plan = workloads.build(bm, "transforms", seed, SECONDS)
    ops = [op for op in plan.timed[: 3 * 30] if op.label.startswith("F ")]
    assert len(ops) == 30
    problems = []
    for op in ops:
        problems += [f"{op.label}: {p}" for p in op.check(op.run())]
    assert problems == []
