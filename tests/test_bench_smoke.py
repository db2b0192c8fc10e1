"""The benchmark's first traced block of each workload, through the
benchmark's own checks and without its timing.

The block is what ``python3 perfbench/run.py --workload W --seed 7
--seconds 20 --trace 1`` times: 24 ``tables`` ops, 36 ``transforms`` ops
and 45 ``algebra`` ops. The F(z, w) ops of the first 30 ``transforms``
rounds of seeds 1 to 10 run as well: 300 closed-form checks of the
generating function. So does the first traced ``algebra`` block of seeds
1 to 5: 225 Favard round trips and moment propagations to N = 24..40. A
change that breaks an output the benchmark checks fails here, before any
benchmark run.
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


def problems_of(ops):
    """Run each op and collect what the benchmark's check says of it."""
    return [f"{op.label}: {p}" for op in ops for p in op.check(op.run())]


@pytest.mark.parametrize("workload, ops", [("tables", 24), ("transforms", 36),
                                           ("algebra", 45)])
def test_first_traced_block_passes_the_bench_checks(workload, ops):
    plan = workloads.build(bm, workload, SEED, SECONDS)
    assert plan.traced_ops == ops
    assert problems_of(plan.timed[: plan.traced_ops]) == []


@pytest.mark.parametrize("seed", range(1, 11))
def test_first_thirty_rounds_of_gaussian_generating_pass_the_bench_checks(seed):
    """Every F(z, w) op of the first 30 transforms rounds, one per round,
    against the benchmark's closed-form check."""
    plan = workloads.build(bm, "transforms", seed, SECONDS)
    ops = [op for op in plan.timed[: 3 * 30] if op.label.startswith("F ")]
    assert len(ops) == 30
    assert problems_of(ops) == []


@pytest.mark.parametrize("seed", range(1, 6))
def test_first_traced_block_of_algebra_passes_the_bench_checks(seed):
    """The 45 algebra ops of the first traced block, every Favard and
    propagation order once, against the benchmark's checks."""
    plan = workloads.build(bm, "algebra", seed, SECONDS)
    assert plan.traced_ops == 45
    assert problems_of(plan.timed[: plan.traced_ops]) == []
