"""End-to-end CLI runs over a small corridor world. Everything goes through
``vloc.cli.main`` with real files in a temp directory."""

import inspect

import numpy as np
import pytest

from conftest import match_csv_text
from vloc.cli import DEFAULT_CAMERA, build_parser, main
from vloc.dataio import read_csv_rows, read_trajectory, write_pgm, write_trajectory
from vloc.errors import FormatError
from vloc.geometry import Pose
from vloc.mapgraph import build_map, load_map, maps_equal, select_keyframes
from vloc.matching import MatchSet, match_oracle
from vloc.pipeline import ObservationOutcome, PipelineConfig
from vloc.planning import NavConfig, NavReport, nearest_node
from vloc.relocal import PnPParams, RelocMetrics
from vloc.simworld import (GridWorld, annotate_map_with_landmarks, generate_segment,
                           load_segment, make_preset)


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

    @pytest.mark.parametrize("bad", ["3,abc", "7", "x y", "inf,2.25", "nan,2.25"])
    def test_bad_waypoint_line_names_line(self, workspace, tmp_path, capsys, bad):
        _, world_path, _, _ = workspace
        route = tmp_path / "route.csv"
        route.write_text(f"x,y\n2.0,2.25\n{bad}\n5.0,2.25\n")
        assert main(["gen-segment", "--world", str(world_path),
                     "--waypoints", str(route), "--out", str(tmp_path / "seg")]) == 1
        assert "route.csv:3: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--camera-rate", "0"), ("--odom-rate", "0"), ("--camera-rate", "-1"),
        ("--odom-rate", "nan"), ("--camera-rate", "inf")])
    def test_bad_rate_is_an_error(self, workspace, tmp_path, capsys, flag, value):
        ws, world_path, _, _ = workspace
        assert main(["gen-segment", "--world", str(world_path),
                     "--waypoints", str(ws / "route.csv"),
                     "--out", str(tmp_path / "seg"), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag[2:].replace("-", "_") in err
        assert not (tmp_path / "seg").exists()

    def test_grid_res_not_finite_is_an_error(self, workspace, tmp_path, capsys):
        _, _, segdir, _ = workspace
        assert main(["build-map", "--input", str(segdir), "--keyframe-budget", "30",
                     "--grid-res", "inf", "--out", str(tmp_path / "map")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: grid_res inf must be finite and positive"]
        assert not (tmp_path / "map").exists()

    def test_camera_focal_not_finite_is_an_error(self, workspace, tmp_path, capsys):
        ws, world_path, _, _ = workspace
        assert main(["gen-segment", "--world", str(world_path),
                     "--waypoints", str(ws / "route.csv"), "--out", str(tmp_path / "seg"),
                     "--camera", "inf 100 64 64 128 128"]) == 1
        assert capsys.readouterr().err.startswith("error: focal lengths fx inf, ")
        assert not (tmp_path / "seg").exists()


class TestCliMapIsLibraryMap:
    @pytest.mark.parametrize("preset", ["corridor", "rooms", "campus"])
    def test_saved_segment_builds_the_in_memory_map(self, tmp_path, preset):
        # segment files keep every value exactly, so gen-segment -> build-map
        # picks the keyframes and builds the map the library does in memory
        world_path, route_path = tmp_path / "world.txt", tmp_path / "route.csv"
        segdir, mapdir = tmp_path / "seg", tmp_path / "map"
        assert main(["gen-world", "--out", str(world_path), "--preset", preset,
                     "--seed", "7", "--route-out", str(route_path)]) == 0
        assert main(["gen-segment", "--world", str(world_path),
                     "--waypoints", str(route_path), "--out", str(segdir),
                     "--seed", "1"]) == 0
        assert main(["build-map", "--input", str(segdir), "--keyframe-budget", "30",
                     "--grid-res", "0.1", "--out", str(mapdir),
                     "--world", str(world_path)]) == 0

        world, route = make_preset(preset, seed=7)
        segment = generate_segment(world, route, DEFAULT_CAMERA, seed=1).segment
        topo = build_map(segment, select_keyframes(segment, budget=30, grid_res=0.1),
                         matcher=lambda ref, query: match_oracle(ref, query, seed=0),
                         world=world)
        assert maps_equal(load_map(mapdir), topo)


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
        _, rows = read_csv_rows(log, ObservationOutcome.CSV_HEADER, list)
        assert len(rows) == len(load_segment(segdir).segment.frames)
        assert batch.exists()

    @pytest.mark.parametrize("flag, field", [("--window", "window"),
                                             ("--min-inliers", "pnp.min_inliers"),
                                             ("--max-failures", "max_failures")])
    def test_settings_that_break_the_loop_are_errors(self, workspace, tmp_path,
                                                     capsys, flag, field):
        _, world_path, segdir, mapdir = workspace
        traj = tmp_path / "traj.txt"
        assert main(["localize", "--map", str(mapdir), "--seq", str(segdir),
                     "--out", str(traj), "--matcher", "oracle",
                     "--world", str(world_path), flag, "0"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field} 0 ")
        assert not traj.exists()

    def test_nan_similarity_floor_is_an_error(self, workspace, tmp_path, capsys):
        _, world_path, segdir, mapdir = workspace
        traj = tmp_path / "traj.txt"
        assert main(["localize", "--map", str(mapdir), "--seq", str(segdir),
                     "--out", str(traj), "--matcher", "oracle",
                     "--world", str(world_path), "--gl-min-sim", "nan"]) == 1
        assert capsys.readouterr().err.startswith("error: gl_min_sim nan ")
        assert not traj.exists()

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
        _, rows = read_csv_rows(report, NavReport.CSV_HEADER, list)
        assert [row[:3] for row in rows] == [["0", "8", "1"]]

    @pytest.mark.parametrize("timeout", ["inf", "nan", "0", "-3"])
    def test_bad_timeout_is_an_error(self, workspace, tmp_path, capsys, timeout):
        _, world_path, _, mapdir = workspace
        goal = tmp_path / "goal.pgm"
        write_pgm(goal, load_map(mapdir).nodes[8].image)
        report = tmp_path / "nav.csv"
        assert main(["navigate", "--world", str(world_path), "--map", str(mapdir),
                     "--goal-image", str(goal), "--report", str(report),
                     "--timeout", timeout]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: timeout {float(timeout)} must be finite "
                                    f"and positive"]
        assert not report.exists()

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


@pytest.fixture(scope="module")
def replay(workspace):
    """A 2.5 Hz drive of the workspace route: its frames lie between the
    2 Hz mapping frames (a replay at the mapping rate repeats them exactly,
    whatever the odometry noise, since the controller steers on the true
    pose)."""
    ws, world_path, _, _ = workspace
    replay = ws / "replay"
    assert main(["gen-segment", "--world", str(world_path),
                 "--waypoints", str(ws / "route.csv"), "--out", str(replay),
                 "--seed", "3", "--camera-rate", "2.5"]) == 0
    return replay


def bench_reloc(tmp_path, *args):
    """The metrics row that ``vloc bench-reloc`` writes, by column name."""
    out = tmp_path / "metrics.csv"
    assert main(["bench-reloc", *args, "--out", str(out)]) == 0
    header = RelocMetrics.CSV_HEADER
    _, (row,) = read_csv_rows(out, header, lambda row: list(map(float, row)))
    return dict(zip(header.split(","), row))


def oracle_match_files(workspace, replay, matches_dir, confidence):
    """Write ``<k>.csv``: replay frame k's oracle matches against its nearest
    map node, each with ``confidence(k)``. Returns the frame count."""
    _, world_path, _, mapdir = workspace
    topo = load_map(mapdir)
    frames = load_segment(replay).segment.frames
    annotate_map_with_landmarks(topo, DEFAULT_CAMERA, GridWorld.load(world_path))
    matches_dir.mkdir()
    for k, frame in enumerate(frames):
        ms = match_oracle(topo.nodes[nearest_node(topo, frame.pose.t)], frame.obs)
        (matches_dir / f"{k}.csv").write_text(match_csv_text(
            MatchSet(ms.uv_ref, ms.uv_query, np.full(len(ms), confidence(k)))))
    return len(frames)


class TestBenchReloc:
    def test_bench_oracle_and_classical(self, workspace, replay, tmp_path):
        _, world_path, _, mapdir = workspace
        vals = bench_reloc(tmp_path, "--map", str(mapdir), "--seq", str(replay),
                           "--matcher", "oracle", "--world", str(world_path))
        assert vals["pct_estimated"] == 100.0
        assert vals["median_et_m"] < 0.05
        # the synthetic textures give the classical matcher sparse matches
        vals = bench_reloc(tmp_path, "--map", str(mapdir), "--seq", str(replay),
                           "--matcher", "classical", "--min-inliers", "6")
        assert 0.0 < vals["pct_estimated"] < 100.0

    def test_bench_ingest_matches(self, workspace, replay, tmp_path):
        # externally computed correspondences enter through per-frame CSVs
        _, _, _, mapdir = workspace
        matches_dir = tmp_path / "matches"
        oracle_match_files(workspace, replay, matches_dir, lambda k: 1.0)
        vals = bench_reloc(tmp_path, "--map", str(mapdir), "--seq", str(replay),
                           "--matcher", "ingest", "--matches", str(matches_dir))
        assert vals["pct_estimated"] == 100.0
        assert vals["median_et_m"] < 0.05

    def test_bench_ingest_min_conf(self, workspace, replay, tmp_path):
        # every third frame's matches are all below --min-conf, so the filter
        # leaves it none; the others keep their confident matches and solve
        _, _, _, mapdir = workspace
        matches_dir = tmp_path / "matches"
        n = oracle_match_files(workspace, replay, matches_dir,
                               lambda k: (1.0, 0.9, 0.3)[k % 3])
        args = ("--map", str(mapdir), "--seq", str(replay), "--matcher", "ingest",
                "--matches", str(matches_dir))
        assert bench_reloc(tmp_path, *args)["pct_estimated"] == 100.0
        vals = bench_reloc(tmp_path, *args, "--min-conf", "0.5")
        kept = sum(k % 3 != 2 for k in range(n))
        assert vals["pct_estimated"] == pytest.approx(100.0 * kept / n)
        assert vals["median_et_m"] < 0.05

    def test_ingest_needs_matches(self, workspace, replay, tmp_path, capsys):
        _, _, _, mapdir = workspace
        assert main(["bench-reloc", "--map", str(mapdir), "--seq", str(replay),
                     "--matcher", "ingest", "--out", str(tmp_path / "m.csv")]) == 1
        assert "--matches" in capsys.readouterr().err


class TestBadWorldFile:
    @pytest.mark.parametrize("header, reason", [
        ("0 0 0.5 2.0 0", "non-empty 2-D grid"),
        ("8 8 nan 2.0 0", "cell_size nan"),
        ("8 8 0.5 inf 0", "wall_height inf"),
        ("8 8 0.5 0 0", "wall_height 0.0"),
        ("8 8 0.5 2.0 -1", "texture_seed -1")])
    def test_gen_segment_reports_error(self, tmp_path, capsys, header, reason):
        world_path = tmp_path / "world.txt"
        rows = [] if header.startswith("0") else \
            ["########"] + ["#......#"] * 6 + ["########"]
        world_path.write_text("\n".join([header, *rows]) + "\n")
        route_path = tmp_path / "route.csv"
        route_path.write_text("1.5 2\n2.5 2\n")
        assert main(["gen-segment", "--world", str(world_path),
                     "--waypoints", str(route_path),
                     "--out", str(tmp_path / "seg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err


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
        # a NaN --max-dt pairs nothing: an error, not a number
        assert main(["eval-ate", "--gt", str(tmp_path / "gt.txt"),
                     "--est", str(tmp_path / "est.txt"), "--max-dt", "nan"]) == 1
        assert "ate_rmse_m" not in capsys.readouterr().out

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


class TestParserDefaults:
    def test_defaults_are_the_library_values(self):
        parser = build_parser()
        build = parser.parse_args(["build-map", "--input", "s",
                                   "--keyframe-budget", "1", "--out", "m"])
        sig = inspect.signature(build_map).parameters
        assert build.grid_res == sig["grid_res"].default == \
            inspect.signature(select_keyframes).parameters["grid_res"].default
        assert build.covis_threshold == sig["covis_threshold"].default
        assert build.nav_radius == sig["nav_radius"].default
        loc = parser.parse_args(["localize", "--map", "m", "--seq", "s",
                                 "--out", "o"])
        config = PipelineConfig()
        assert (loc.gl_min_sim, loc.max_failures, loc.window, loc.min_inliers) \
            == (config.gl_min_sim, config.max_failures, config.window,
                config.pnp.min_inliers)
        nav = parser.parse_args(["navigate", "--world", "w", "--map", "m",
                                 "--goal-image", "g", "--report", "r"])
        assert nav.timeout == NavConfig().timeout
        bench = parser.parse_args(["bench-reloc", "--map", "m", "--seq", "s",
                                   "--matcher", "oracle", "--out", "o"])
        assert bench.min_inliers == PnPParams().min_inliers
