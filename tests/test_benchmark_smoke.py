"""Each benchmark workload runs end to end and passes its own checks.

A traced run (``perfbench/run.py --trace 1``) with ``--seconds 0`` makes
the fewest passes it can: at least two untraced and two traced passes over
one input set. So the benchmark's check that passes over the same inputs
agree runs for real here, which a single pass (``test_pinned_outputs``)
cannot do; state shared across calls, such as a module-level constant that
a pass writes into, would break it."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


# seed 1 is the benchmark's default, 9001 its held-out seed
RUNS = [pytest.param(workload, seed, id=workload if seed == 1 else f"{workload}-{seed}")
        for seed in (1, 9001) for workload in ("track", "kidnap", "nav")]


@pytest.mark.parametrize("workload, seed", RUNS)
def test_traced_run_is_correct(workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True, proc.stdout[-2000:]
