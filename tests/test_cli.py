"""End-to-end CLI runs over a small corridor world. Everything goes through
``vloc.cli.main`` with real files in a temp directory."""

import numpy as np
import pytest

from vloc.cli import main
from vloc.dataio import read_trajectory, write_pgm, write_trajectory
from vloc.errors import FormatError
from vloc.geometry import Pose
from vloc.mapgraph import load_map
from vloc.relocal import save_reloc_dataset
from vloc.simworld import GridWorld, make_preset, planar_camera_pose, render
from vloc.geometry import CameraIntrinsics

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0, width=128, height=128)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-world -> gen-segment -> build-map, shared by the command tests."""
    ws = tmp_path_factory.mktemp("cli")
    world_path = ws / "world.txt"
    route_path = ws / "route.csv"
    assert main(["gen-world", "--out", str(world_path), "--preset", "corridor",
                 "--seed", "7", "--route-out", str(route_path)]) == 0
    segdir = ws / "seg"
    assert main(["gen-segment", "--world", str(world_path),
                 "--waypoints", str(route_path), "--out", str(segdir),
                 "--seed", "1", "--zero-noise"]) == 0
    mapdir = ws / "map"
    assert main(["build-map", "--input", str(segdir),
                 "--keyframe-budget", "30", "--grid-res", "0.1",
                 "--out", str(mapdir), "--covis-threshold", "30",
                 "--world", str(world_path)]) == 0
    return ws, world_path, segdir, mapdir


class TestGenAndBuild:
    def test_world_file_loads(self, workspace):
        _, world_path, _, _ = workspace
        world = GridWorld.load(world_path)
        assert world.occupancy.any()

    def test_map_loads_connected(self, workspace):
        _, _, _, mapdir = workspace
        topo = load_map(mapdir)
        assert len(topo.nodes) >= 20
        assert len(topo.components()) == 1

    def test_cng_from_cvg_flag(self, workspace, tmp_path):
        _, world_path, segdir, _ = workspace
        out = tmp_path / "map2"
        assert main(["build-map", "--input", str(segdir),
                     "--keyframe-budget", "10", "--out", str(out),
                     "--covis-threshold", "30", "--cng-from-cvg"]) == 0
        topo = load_map(out)
        assert [(a, b) for a, b, _ in topo.cng_edges] == \
            [(a, b) for a, b, _ in topo.cvg_edges]

    @pytest.mark.parametrize("bad", ["3,abc", "7", "x y"])
    def test_bad_waypoint_line_names_line(self, workspace, tmp_path, capsys, bad):
        _, world_path, _, _ = workspace
        route = tmp_path / "route.csv"
        route.write_text(f"x,y\n2.0,2.25\n{bad}\n5.0,2.25\n")
        assert main(["gen-segment", "--world", str(world_path),
                     "--waypoints", str(route), "--out", str(tmp_path / "seg")]) == 1
        assert "route.csv:3: " in capsys.readouterr().err


class TestLocalize:
    def test_localize_writes_trajectory_and_log(self, workspace, tmp_path):
        _, world_path, segdir, mapdir = workspace
        traj = tmp_path / "traj.txt"
        log = tmp_path / "frames.csv"
        batch = tmp_path / "batch.txt"
        assert main(["localize", "--map", str(mapdir), "--seq", str(segdir),
                     "--out", str(traj), "--log", str(log),
                     "--batch-out", str(batch),
                     "--matcher", "oracle", "--world", str(world_path)]) == 0
        stream = read_trajectory(traj)
        assert len(stream) > 100
        header = log.read_text().splitlines()[0]
        assert header == "timestamp,mode,reference_node,inliers,total,status,sim_top1"
        assert batch.exists()

    def test_localize_with_ingested_descriptors(self, workspace, tmp_path):
        _, world_path, segdir, mapdir = workspace
        # map's own descriptor file is a valid external-descriptor source
        traj = tmp_path / "traj.txt"
        assert main(["localize", "--map", str(mapdir), "--seq", str(segdir),
                     "--out", str(traj), "--matcher", "oracle",
                     "--world", str(world_path),
                     "--ingest-descriptors", str(mapdir / "descriptors.f32")]) == 0
        assert len(read_trajectory(traj)) > 50

    def test_localize_beats_dead_reckoning(self, workspace, tmp_path):
        ws, world_path, _, mapdir = workspace
        # noisy replay sequence over the same corridor
        noisy_seg = tmp_path / "noisy"
        assert main(["gen-segment", "--world", str(world_path),
                     "--waypoints", str(ws / "route.csv"), "--out", str(noisy_seg),
                     "--seed", "3"]) == 0
        traj = tmp_path / "traj.txt"
        assert main(["localize", "--map", str(mapdir), "--seq", str(noisy_seg),
                     "--out", str(traj), "--matcher", "oracle",
                     "--world", str(world_path)]) == 0
        rc = main(["eval-ate", "--gt", str(noisy_seg / "gt_traj.txt"),
                   "--est", str(traj), "--max-dt", "0.05"])
        assert rc == 0


class TestNavigate:
    def test_navigate_and_determinism(self, workspace, tmp_path):
        _, world_path, _, mapdir = workspace
        topo = load_map(mapdir)
        goal = tmp_path / "goal.pgm"
        write_pgm(goal, topo.nodes[8].image)
        outputs = []
        for run in range(2):
            report = tmp_path / f"nav{run}.csv"
            traj = tmp_path / f"navtraj{run}.txt"
            rc = main(["navigate", "--world", str(world_path),
                       "--map", str(mapdir), "--goal-image", str(goal),
                       "--seed", "5", "--report", str(report),
                       "--traj", str(traj), "--timeout", "120"])
            assert rc == 0
            outputs.append((report.read_bytes(), traj.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_navigate_failure_exit_code(self, workspace, tmp_path):
        _, world_path, _, mapdir = workspace
        topo = load_map(mapdir)
        goal = tmp_path / "goal.pgm"
        write_pgm(goal, topo.nodes[len(topo.nodes) - 1].image)
        report = tmp_path / "nav.csv"
        # 3 s is not enough to cross the corridor: planned failure
        rc = main(["navigate", "--world", str(world_path), "--map", str(mapdir),
                   "--goal-image", str(goal), "--seed", "5",
                   "--report", str(report), "--timeout", "3"])
        assert rc == 2


class TestBenchReloc:
    def test_bench_oracle_and_classical(self, workspace, tmp_path):
        _, world_path, _, _ = workspace
        world = GridWorld.load(world_path)
        refs, queries = [], []
        rng = np.random.default_rng(2)
        for i, x in enumerate((3.0, 9.0, 15.0)):
            pose = planar_camera_pose(x, 2.25, 0.0)
            refs.append((render(world, pose, K).color, pose))
        for j in range(6):
            ref_id = j % 3
            base = refs[ref_id][1]
            pose = planar_camera_pose(base.t[0] + rng.uniform(-0.3, 0.3),
                                      base.t[1] + rng.uniform(-0.2, 0.2),
                                      rng.uniform(-0.1, 0.1))
            frame = render(world, pose, K)
            queries.append((frame.color, frame.depth.astype(np.float32),
                            pose, ref_id))
        ds = tmp_path / "dataset"
        save_reloc_dataset(ds, refs, queries, K)
        out = tmp_path / "metrics.csv"
        assert main(["bench-reloc", "--dataset", str(ds), "--matcher", "oracle",
                     "--world", str(world_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("max_et_m,")
        vals = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(vals["pct_estimated"]) == 100.0
        assert float(vals["median_et_m"]) < 0.05

        out2 = tmp_path / "metrics_classical.csv"
        assert main(["bench-reloc", "--dataset", str(ds),
                     "--matcher", "classical", "--out", str(out2)]) == 0

    def test_bench_ingest_matches(self, workspace, tmp_path):
        # externally computed correspondences enter through per-query CSVs
        from vloc.matching import match_oracle, write_matches
        _, world_path, _, _ = workspace
        world = GridWorld.load(world_path)
        ref_pose = planar_camera_pose(5.0, 2.25, 0.0)
        ref_frame = render(world, ref_pose, K)
        refs = [(ref_frame.color, ref_pose)]
        queries = []
        matches_dir = tmp_path / "matches"
        matches_dir.mkdir()
        for j in range(3):
            pose = planar_camera_pose(5.2 + 0.1 * j, 2.3, 0.05)
            frame = render(world, pose, K)
            queries.append((frame.color, frame.depth.astype(np.float32), pose, 0))
            write_matches(matches_dir / f"{j}.csv",
                          match_oracle(ref_frame, frame, seed=j))
        ds = tmp_path / "dataset"
        save_reloc_dataset(ds, refs, queries, K)
        out = tmp_path / "metrics.csv"
        assert main(["bench-reloc", "--dataset", str(ds), "--matcher", "ingest",
                     "--matches", str(matches_dir), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        vals = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(vals["pct_estimated"]) == 100.0
        assert float(vals["median_et_m"]) < 0.05

    def test_bench_ingest_min_conf(self, workspace, tmp_path):
        # query 2's matches are all below --min-conf, so the filter leaves it
        # too few; queries 0 and 1 keep their confident matches and solve
        from vloc.matching import MatchSet, match_oracle, write_matches
        _, world_path, _, _ = workspace
        world = GridWorld.load(world_path)
        ref_pose = planar_camera_pose(5.0, 2.25, 0.0)
        ref_frame = render(world, ref_pose, K)
        queries = []
        matches_dir = tmp_path / "matches"
        matches_dir.mkdir()
        for j, conf in enumerate((1.0, 0.9, 0.3)):
            pose = planar_camera_pose(5.2 + 0.1 * j, 2.3, 0.05)
            frame = render(world, pose, K)
            queries.append((frame.color, frame.depth.astype(np.float32), pose, 0))
            ms = match_oracle(ref_frame, frame, seed=j)
            write_matches(matches_dir / f"{j}.csv",
                          MatchSet(ms.uv_ref, ms.uv_query, np.full(len(ms), conf)))
        ds = tmp_path / "dataset"
        save_reloc_dataset(ds, [(ref_frame.color, ref_pose)], queries, K)

        def bench(*extra):
            out = tmp_path / "metrics.csv"
            assert main(["bench-reloc", "--dataset", str(ds), "--matcher", "ingest",
                         "--matches", str(matches_dir), "--out", str(out),
                         *extra]) == 0
            lines = out.read_text().splitlines()
            return dict(zip(lines[0].split(","), lines[1].split(",")))

        assert float(bench()["pct_estimated"]) == 100.0
        vals = bench("--min-conf", "0.5")
        assert float(vals["pct_estimated"]) == pytest.approx(200.0 / 3.0)
        assert float(vals["median_et_m"]) < 0.05


class TestEvalAte:
    def test_known_offset(self, tmp_path, capsys):
        gt = [(float(t), Pose(np.array([t, 0.0, 0.0]), [1, 0, 0, 0]))
              for t in range(5)]
        est = [(ts, Pose(p.t + np.array([0.25, 0.0, 0.0]), p.q)) for ts, p in gt]
        write_trajectory(tmp_path / "gt.txt", gt)
        write_trajectory(tmp_path / "est.txt", est)
        assert main(["eval-ate", "--gt", str(tmp_path / "gt.txt"),
                     "--est", str(tmp_path / "est.txt")]) == 0
        out = capsys.readouterr().out
        assert "ate_rmse_m 0.25" in out

    def test_missing_file_is_error(self, tmp_path):
        assert main(["eval-ate", "--gt", str(tmp_path / "none.txt"),
                     "--est", str(tmp_path / "none.txt")]) == 1

    @pytest.mark.parametrize("field, value", [(0, "t0"), (3, "1e"), (7, "nan"), (7, None)])
    def test_bad_trajectory_field_names_line(self, tmp_path, field, value):
        path = tmp_path / "traj.txt"
        write_trajectory(path, [(float(t), Pose.identity()) for t in range(3)])
        lines = path.read_text().splitlines()
        row = lines[1].split()
        if value is None:
            del row[field]
        else:
            row[field] = value
        lines[1] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="traj.txt:2: "):
            read_trajectory(path)
