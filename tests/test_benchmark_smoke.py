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


@pytest.mark.parametrize("workload", ["track", "kidnap", "nav"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True, proc.stdout[-2000:]
