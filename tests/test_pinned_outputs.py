"""Pinned outputs of the ``track``, ``nav`` and ``kidnap`` benchmark
workloads.

One ``perfbench.workloads.Track`` set-up and one pass at seed 1 are
compared against ``tests/data/pinned_track_seed1.json``, one ``Nav``
set-up and pass against ``tests/data/pinned_nav_seed1.json``, and one
``Kidnap`` set-up at seed 1 with a pass over its first KIDNAP_QUERIES
queries against ``tests/data/pinned_kidnap_seed1.json``: the keyframe
indices of each ``mapgraph.select_keyframes`` call of the set-up; the
set-up map's CnG and CvG edges, its CnG components and the SHA-256 of
every file ``save_map`` writes for it; the pass fingerprint; each
observation's mode, status, reference node, inliers and total; and the
SHA-256 of every emitted pose's ``fmt17`` row (``Pose.fields``). A change
that claims its outputs are unchanged passes this test as it stands.
``greedy_max_coverage`` breaks ties to the lowest index, and the keyframe
pin fails with the rule flipped.

The data belongs to the host it was made on: numpy 2.4.6, scipy 1.17.1 and
the scipy-openblas build of OpenBLAS 0.3.31 bundled with them. The rooms
walls lie exactly on grid lines, so keyframe coverage bins wall points by
the last bit of the rendered depth and of ``Pose.apply``, and a one-ulp
change of either can pick another keyframe and so another map; the LM
solves go through LAPACK, whose last bits depend on the BLAS kernels. On
another numpy, scipy or BLAS the test may fail with the program working:
regenerate the data there before trusting a failure. A change that means
to move outputs regenerates the data and says so, with the largest
deviation. Regenerate the three files with::

    PYTHONPATH=src:. python3 tests/test_pinned_outputs.py

which prints, before it overwrites a file, one line saying how many
observations and pose hashes differ from it and whether every pose is
bit-equal. With ``--check`` it prints the same lines, writes nothing and
exits 1 when any pin differs, so a change that claims bit-identical
outputs can show it without touching the data. With ``--poses DIR`` it
also writes each workload's emitted poses, one ``fmt17`` row a line, to
``DIR/<name>.txt``; where such a file is already there it first prints the
largest position (m) and rotation (rad) deviation from it. Run it once
before a change and once after to measure how far the change moves them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest

from perfbench.tracing import Tracer
from perfbench.workloads import Kidnap, Nav, Track
from vloc import mapgraph, pipeline
from vloc.geometry import rotation_angle

SEED = 1
KIDNAP_QUERIES = 48          # the first queries of the set-up, in its order


DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def data_path(name: str, data_dir=DATA_DIR) -> str:
    return os.path.join(data_dir, f"pinned_{name}_seed1.json")


def map_files_sha256(topo, mapdir) -> dict:
    """Relative path -> SHA-256 of every file ``save_map`` writes."""
    mapgraph.save_map(topo, mapdir)
    out = {}
    for root, _, files in os.walk(mapdir):
        for fname in files:
            path = os.path.join(root, fname)
            with open(path, "rb") as f:
                rel = os.path.relpath(path, mapdir).replace(os.sep, "/")
                out[rel] = hashlib.sha256(f.read()).hexdigest()
    return dict(sorted(out.items()))


def collect(name: str, workdir, keyframe_calls: list) -> dict:
    """One ``name`` set-up and pass at SEED, as plain JSON values. The
    arguments of each ``select_keyframes`` call of the set-up are appended
    to ``keyframe_calls``."""
    observations = []
    keyframes = []
    original = pipeline.Pipeline.on_observation
    original_select = mapgraph.select_keyframes

    def select(*args, **kwargs):
        chosen = original_select(*args, **kwargs)
        keyframes.append([int(i) for i in chosen])
        keyframe_calls.append((args, kwargs))
        return chosen

    def record(self, obs, timestamp):
        outcome = original(self, obs, timestamp)
        observations.append([outcome.mode.name, outcome.status,
                             outcome.reference_node, outcome.inliers,
                             outcome.total])
        return outcome

    workload = {"track": Track, "nav": Nav, "kidnap": Kidnap}[name]()
    mapgraph.select_keyframes = select
    try:
        inputs = workload.setup(SEED, 0, workdir)
    finally:
        mapgraph.select_keyframes = original_select
    if name == "kidnap":
        inputs.queries = inputs.queries[:KIDNAP_QUERIES]
    topo = inputs.map.topo
    # JSON keeps floats by their shortest round-trip repr, so edge weights
    # and the fingerprint's errors and lengths compare bit for bit
    graph = json.loads(json.dumps({
        "keyframes": keyframes,
        "cng_edges": topo.cng_edges,
        "cvg_edges": topo.cvg_edges,
        "components": topo.components(),
    }))
    graph["map_files_sha256"] = map_files_sha256(topo, os.path.join(workdir, "map"))
    pipeline.Pipeline.on_observation = record
    try:
        result = workload.run_pass(inputs, Tracer())
    finally:
        pipeline.Pipeline.on_observation = original
    rows = [",".join(pose.fields()) for pose in result.poses]
    return {
        **graph,
        "fingerprint": json.loads(json.dumps(result.fingerprint)),
        "observations": observations,
        "pose_sha256": [hashlib.sha256(r.encode()).hexdigest() for r in rows],
        "poses": rows,
    }


def run_and_pinned(name: str):
    """(run, pinned); the run also holds its ``select_keyframes`` calls
    under ``keyframe_calls``, which are not pinned."""
    with open(data_path(name)) as f:
        pinned = json.load(f)
    calls = []
    with tempfile.TemporaryDirectory() as workdir:
        run = collect(name, workdir, calls)
    run["keyframe_calls"] = calls
    return run, pinned


@pytest.fixture(scope="module")
def track():
    return run_and_pinned("track")


@pytest.fixture(scope="module")
def nav():
    return run_and_pinned("nav")


@pytest.fixture(scope="module")
def kidnap():
    return run_and_pinned("kidnap")


def check_keyframes(run, pinned):
    assert run["keyframes"] == pinned["keyframes"]


def check_map_edges(run, pinned):
    assert run["cng_edges"] == pinned["cng_edges"]
    assert run["cvg_edges"] == pinned["cvg_edges"]


def check_map_components(run, pinned):
    assert run["components"] == pinned["components"]


def check_map_files(run, pinned):
    assert run["map_files_sha256"] == pinned["map_files_sha256"]


def check_fingerprint(run, pinned):
    assert run["fingerprint"] == pinned["fingerprint"]


def check_observations(run, pinned):
    assert len(run["observations"]) == len(pinned["observations"])
    for k, (got, want) in enumerate(zip(run["observations"], pinned["observations"])):
        assert got == want, f"observation {k}"


def check_poses(run, pinned):
    assert len(run["pose_sha256"]) == len(pinned["pose_sha256"])
    for k, (got, want) in enumerate(zip(run["pose_sha256"], pinned["pose_sha256"])):
        assert got == want, f"pose {k} is not bit-equal to the pinned one"


def test_track_keyframes(track):
    check_keyframes(*track)


def test_track_map_edges(track):
    check_map_edges(*track)


def test_track_map_components(track):
    check_map_components(*track)


def test_track_saved_map_files(track):
    check_map_files(*track)


def test_track_pass_fingerprint(track):
    check_fingerprint(*track)


def test_track_observation_outcomes(track):
    check_observations(*track)


def test_track_poses_bit_equal(track):
    check_poses(*track)


def test_keyframes(nav):
    check_keyframes(*nav)


def test_map_edges(nav):
    check_map_edges(*nav)


def test_map_components(nav):
    check_map_components(*nav)


def test_saved_map_files(nav):
    check_map_files(*nav)


def test_pass_fingerprint(nav):
    check_fingerprint(*nav)


def test_observation_outcomes(nav):
    check_observations(*nav)


def test_emitted_poses_bit_equal(nav):
    check_poses(*nav)


def test_kidnap_keyframes(kidnap):
    check_keyframes(*kidnap)


def test_kidnap_map_edges(kidnap):
    check_map_edges(*kidnap)


def test_kidnap_map_components(kidnap):
    check_map_components(*kidnap)


def test_kidnap_saved_map_files(kidnap):
    check_map_files(*kidnap)


def test_kidnap_pass_fingerprint(kidnap):
    check_fingerprint(*kidnap)


def test_kidnap_query_outcomes(kidnap):
    check_observations(*kidnap)


def test_kidnap_fixes_bit_equal(kidnap):
    check_poses(*kidnap)


def greedy_ties_to_highest(greedy):
    """``greedy`` with its tie rule flipped: ties to the highest index, by
    running the lowest-index rule on the sets in reverse order."""
    def flipped(cell_keys, budget):
        last = len(cell_keys) - 1
        return sorted(last - i for i in greedy(cell_keys[::-1], budget))
    return flipped


def test_flipped_rule_breaks_ties_to_highest_index():
    keys = [np.array([1, 2]), np.array([3, 4]), np.array([1, 2]), np.array([5])]
    flipped = greedy_ties_to_highest(mapgraph.greedy_max_coverage)
    assert mapgraph.greedy_max_coverage(keys, 2) == [0, 1]
    assert flipped(keys, 2) == [1, 2]


@pytest.mark.parametrize("name", ["track", "nav", "kidnap"])
def test_flipped_tie_rule_fails_the_keyframe_pin(name, request, monkeypatch):
    run, pinned = request.getfixturevalue(name)
    monkeypatch.setattr(mapgraph, "greedy_max_coverage",
                        greedy_ties_to_highest(mapgraph.greedy_max_coverage))
    flipped = {"keyframes": [[int(i) for i in mapgraph.select_keyframes(*args, **kwargs)]
                             for args, kwargs in run["keyframe_calls"]]}
    with pytest.raises(AssertionError):
        check_keyframes(flipped, pinned)


def _differing(old: list, new: list) -> int:
    """Entries that differ by position, an unmatched one included."""
    return sum(a != b for a, b in zip(old, new)) + abs(len(old) - len(new))


def regeneration_report(name: str, old: dict, new: dict) -> str:
    """One line saying what regenerated ``new`` data changes against the
    ``old`` data it replaces, so a claim that outputs are unchanged can
    point to it."""
    fields = [k for k in sorted(new.keys() | old.keys()) if old.get(k) != new.get(k)]
    return (f"{name}: {_differing(old['observations'], new['observations'])} of "
            f"{len(new['observations'])} observations differ, "
            f"{_differing(old['pose_sha256'], new['pose_sha256'])} of "
            f"{len(new['pose_sha256'])} pose hashes differ, every pose bit-equal: "
            f"{'yes' if old['pose_sha256'] == new['pose_sha256'] else 'no'}; "
            f"changed fields: {', '.join(fields) or 'none'}")


def pose_deviation(name: str, old: list, new: list) -> str:
    """One line giving the largest position (m) and rotation (rad)
    deviation between the ``fmt17`` pose rows ``old`` and ``new``, pose by
    pose over the rows both have."""
    n = min(len(old), len(new))
    dt = dr = 0.0
    for a, b in zip(old[:n], new[:n]):
        a, b = (np.array(row.split(","), dtype=float) for row in (a, b))
        dt = max(dt, float(np.linalg.norm(a[:3] - b[:3])))
        dr = max(dr, rotation_angle(a[3:], b[3:]))
    return (f"{name}: largest deviation over {n} poses ({len(old)} before, "
            f"{len(new)} now): {dt:.3g} m, {dr:.3g} rad")


def write_poses(name: str, rows: list, poses_dir) -> None:
    """Write ``rows`` to ``poses_dir/<name>.txt``, first printing their
    ``pose_deviation`` from the rows already there, if any."""
    path = os.path.join(poses_dir, f"{name}.txt")
    if os.path.exists(path):
        with open(path) as f:
            print(pose_deviation(name, f.read().split(), rows))
    os.makedirs(poses_dir, exist_ok=True)
    with open(path, "w") as f:
        f.write("".join(row + "\n" for row in rows))


def regenerate(check: bool, collector=collect, data_dir=DATA_DIR,
               poses_dir=None) -> int:
    """Collect every workload and print its ``regeneration_report`` against
    the pinned data in ``data_dir``. Without ``check`` each file is then
    overwritten; with it nothing is written and the return value is 1 when
    any pin differs. Returns 0 otherwise. With ``poses_dir`` the emitted
    poses also go through ``write_poses``."""
    differs = False
    for name in ("track", "nav", "kidnap"):
        path = data_path(name, data_dir)
        with tempfile.TemporaryDirectory() as workdir:
            data = json.loads(json.dumps(collector(name, workdir, [])))
        rows = data.pop("poses", [])
        if poses_dir is not None:
            write_poses(name, rows, poses_dir)
        if os.path.exists(path):
            with open(path) as f:
                pinned = json.load(f)
            print(regeneration_report(name, pinned, data))
            differs |= pinned != data
        else:
            print(f"{name}: no pinned data at {path}")
            differs = True
        if check:
            continue
        os.makedirs(data_dir, exist_ok=True)
        with open(path, "w") as f:
            json.dump(data, f, indent=1)
            f.write("\n")
        print(f"wrote {path}: {len(data['cng_edges'])} CnG and "
              f"{len(data['cvg_edges'])} CvG edges, "
              f"{len(data['map_files_sha256'])} map files, "
              f"{len(data['observations'])} observations, "
              f"{len(data['pose_sha256'])} poses")
    return int(check and differs)


def test_regeneration_report(tmp_path, capsys):
    old = {"observations": [["A", 1], ["B", 2]], "pose_sha256": ["x", "y", "z"],
           "fingerprint": [1]}
    assert regeneration_report("w", old, old) == (
        "w: 0 of 2 observations differ, 0 of 3 pose hashes differ, every pose "
        "bit-equal: yes; changed fields: none")
    new = {"observations": [["A", 1], ["B", 3], ["C", 4]], "pose_sha256": ["x", "q"],
           "fingerprint": [1]}
    assert regeneration_report("w", old, new) == (
        "w: 2 of 3 observations differ, 2 of 2 pose hashes differ, every pose "
        "bit-equal: no; changed fields: observations, pose_sha256")
    # --check prints the same lines, writes nothing and exits 1 when a pin
    # differs; without it the new data replaces the pins
    old = dict(old, cng_edges=[], cvg_edges=[], map_files_sha256={})
    new = dict(new, cng_edges=[], cvg_edges=[], map_files_sha256={})
    for name in ("track", "nav", "kidnap"):
        with open(data_path(name, tmp_path), "w") as f:
            json.dump(old, f)
    pins = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    runs = {"track": old, "nav": old, "kidnap": old}

    def collector(name, workdir, calls):
        return runs[name]

    assert regenerate(True, collector, tmp_path) == 0
    runs["nav"] = new
    assert regenerate(True, collector, tmp_path) == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == pins
    assert capsys.readouterr().out.splitlines() == (
        [regeneration_report(name, old, old) for name in runs]
        + [regeneration_report(name, old, run) for name, run in runs.items()])
    assert regenerate(False, collector, tmp_path) == 0
    with open(data_path("nav", tmp_path)) as f:
        assert json.load(f) == new
    assert regenerate(True, collector, tmp_path) == 0


def test_pose_deviation_report(tmp_path, capsys):
    rows = ["1,2,3,1,0,0,0", "0,0,0,0,0,0,1"]
    run = {"observations": [], "pose_sha256": [], "poses": rows}
    for name in ("track", "nav", "kidnap"):
        with open(data_path(name, tmp_path), "w") as f:
            json.dump({k: v for k, v in run.items() if k != "poses"}, f)

    def collector(name, workdir, calls):
        return run

    poses = tmp_path / "poses"
    assert regenerate(True, collector, tmp_path, poses) == 0
    for name in ("track", "nav", "kidnap"):
        assert (poses / f"{name}.txt").read_text() == "".join(r + "\n" for r in rows)
    capsys.readouterr()
    # the second pose is turned pi/2 about z, the first moved 3-4-5
    turned = f"0,0,0,{math.sqrt(0.5)},0,0,{math.sqrt(0.5)}"
    run["poses"] = ["4,6,3,1,0,0,0", turned, "0,0,0,1,0,0,0"]
    assert regenerate(True, collector, tmp_path, poses) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[::2] == [pose_deviation(name, rows, run["poses"])
                          for name in ("track", "nav", "kidnap")]
    assert lines[0] == (f"track: largest deviation over 2 poses (2 before, 3 now): "
                        f"5 m, {math.pi / 2:.3g} rad")
    assert (poses / "nav.txt").read_text().splitlines() == run["poses"]
    assert pose_deviation("w", rows, rows) == (
        "w: largest deviation over 2 poses (2 before, 2 now): 0 m, 0 rad")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the pinned data and write nothing; "
                             "exit 1 when any pin differs")
    parser.add_argument("--poses", metavar="DIR",
                        help="also write each workload's emitted poses to "
                             "DIR/<name>.txt, first printing their largest "
                             "deviation from the poses already there")
    args = parser.parse_args()
    sys.exit(regenerate(args.check, poses_dir=args.poses))
