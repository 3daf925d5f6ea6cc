"""Pinned outputs of the ``nav`` benchmark workload.

One ``perfbench.workloads.Nav`` set-up and one pass at seed 1 are compared
against ``tests/data/pinned_nav_seed1.json``: the pass fingerprint, each
observation's mode, status, reference node, inliers and total, and the
SHA-256 of every emitted pose's ``fmt17`` row (``Pose.fields``). A change
that claims its outputs are unchanged passes this test as it stands.

The data belongs to the host it was made on: numpy 2.4.6, scipy 1.17.1 and
the scipy-openblas build of OpenBLAS 0.3.31 bundled with them. The rooms
walls lie exactly on grid lines, so keyframe coverage bins wall points by
the last bit of the rendered depth and of ``Pose.apply``, and a one-ulp
change of either can pick another keyframe and so another map; the LM
solves go through LAPACK, whose last bits depend on the BLAS kernels. On
another numpy, scipy or BLAS the test may fail with the program working:
regenerate the data there before trusting a failure. A change that means
to move outputs regenerates the data and says so, with the largest
deviation. Regenerate with::

    PYTHONPATH=src:. python3 tests/test_pinned_outputs.py
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import pytest

from perfbench.tracing import Tracer
from perfbench.workloads import Nav
from vloc import pipeline

DATA = os.path.join(os.path.dirname(__file__), "data", "pinned_nav_seed1.json")
SEED = 1


def collect(workdir) -> dict:
    """One ``nav`` set-up and pass at SEED, as plain JSON values."""
    observations = []
    original = pipeline.Pipeline.on_observation

    def record(self, obs, timestamp):
        outcome = original(self, obs, timestamp)
        observations.append([outcome.mode.name, outcome.status,
                             outcome.reference_node, outcome.inliers,
                             outcome.total])
        return outcome

    workload = Nav()
    inputs = workload.setup(SEED, 0, workdir)
    pipeline.Pipeline.on_observation = record
    try:
        result = workload.run_pass(inputs, Tracer())
    finally:
        pipeline.Pipeline.on_observation = original
    rows = [",".join(pose.fields()) for pose in result.poses]
    return {
        # JSON keeps floats by their shortest round-trip repr, so the
        # fingerprint's errors and lengths compare bit for bit
        "fingerprint": json.loads(json.dumps(result.fingerprint)),
        "observations": observations,
        "pose_sha256": [hashlib.sha256(r.encode()).hexdigest() for r in rows],
    }


@pytest.fixture(scope="module")
def pinned():
    with open(DATA) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def run():
    with tempfile.TemporaryDirectory() as workdir:
        return collect(workdir)


def test_pass_fingerprint(run, pinned):
    assert run["fingerprint"] == pinned["fingerprint"]


def test_observation_outcomes(run, pinned):
    assert len(run["observations"]) == len(pinned["observations"])
    for k, (got, want) in enumerate(zip(run["observations"], pinned["observations"])):
        assert got == want, f"observation {k}"


def test_emitted_poses_bit_equal(run, pinned):
    assert len(run["pose_sha256"]) == len(pinned["pose_sha256"])
    for k, (got, want) in enumerate(zip(run["pose_sha256"], pinned["pose_sha256"])):
        assert got == want, f"pose {k} is not bit-equal to the pinned one"


if __name__ == "__main__":
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        data = collect(workdir)
    with open(DATA, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")
    print(f"wrote {DATA}: {len(data['observations'])} observations, "
          f"{len(data['pose_sha256'])} poses")
