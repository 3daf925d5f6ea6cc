"""Command-line surface tying the library together.

Every command reads/writes plain text artifacts (worlds, segment
directories, map directories, TUM trajectories, CSV reports) so runs are
scriptable and diffable. Exit codes: 0 success, 2 planned failure (no path
/ navigation timeout), 1 error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import matching, relocal, retrieval, simworld
from .dataio import read_pgm, read_trajectory, write_csv, write_trajectory
from .errors import FormatError, NoPath, VlocError
from .geometry import CameraIntrinsics, fmt17
from .mapgraph import (COVIS_THRESHOLD_DEFAULT, GRID_RES_DEFAULT, NAV_RADIUS_DEFAULT,
                       build_map, load_map, nearest_node, save_map, select_keyframes)
from .pipeline import (GL_MIN_SIM_DEFAULT, MAX_FAILURES_DEFAULT, WINDOW_DEFAULT,
                       ObservationOutcome, Pipeline, PipelineConfig)
from .planning import NavConfig, NavReport, compute_ate, run_mission
from .relocal import PnPParams

DEFAULT_CAMERA = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0,
                                  width=128, height=128)
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PLANNED_FAILURE = 2


def _camera_from(arg: str | None) -> CameraIntrinsics:
    if arg is None:
        return DEFAULT_CAMERA
    return CameraIntrinsics.from_line(arg)


def _read_waypoints(path):
    """``x y`` or ``x,y`` per line; a first line that does not parse is a
    header. Any later line whose first two fields are not numbers, and any
    line whose two are not finite, raises FormatError naming the line."""
    out = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.replace(",", " ").split()
            if not parts:
                continue
            try:
                wp = np.array([float(parts[0]), float(parts[1])])
            except (ValueError, IndexError) as exc:
                if lineno > 1:
                    raise FormatError(f"{path}:{lineno}: {exc}") from exc
                continue
            if not np.isfinite(wp).all():
                raise FormatError(f"{path}:{lineno}: waypoint ({wp[0]}, {wp[1]}) "
                                  f"is not finite")
            out.append(wp)
    if not out:
        raise VlocError(f"{path}: no waypoints")
    return out


def _read_start(text: str):
    """The ``--start`` value ``x,y,yaw`` as three finite floats; anything
    else raises VlocError naming the flag and the value."""
    try:
        x, y, yaw = (float(v) for v in text.split(","))
    except ValueError:
        raise VlocError(f"--start {text}: expected x,y,yaw") from None
    if not all(map(math.isfinite, (x, y, yaw))):
        raise VlocError(f"--start {text}: x, y and yaw must be finite")
    return x, y, yaw


_MATCHERS = {"classical": matching.match_classical, "oracle": matching.match_oracle}


def _map_matcher(args, topo, K: CameraIntrinsics, world=None):
    """The ``--matcher`` of a command that matches against a loaded map: the
    oracle first annotates the map's nodes from ``world``, which is loaded
    from ``--world`` when not given."""
    if args.matcher == "oracle":
        if world is None and not args.world:
            raise VlocError("--matcher oracle needs --world to annotate map nodes")
        simworld.annotate_map_with_landmarks(
            topo, K, world or simworld.GridWorld.load(args.world))
    return _MATCHERS[args.matcher]


def _csv_matcher(path, K: CameraIntrinsics, min_conf: float):
    """A matcher that returns the match CSV at ``path``, without its matches
    below ``min_conf`` when that is positive."""
    def read(ref, query):
        ms = matching.ingest_matches(path, K.width, K.height)
        if min_conf > 0:
            keep = ms.confidence >= min_conf
            ms = matching.MatchSet(ms.uv_ref[keep], ms.uv_query[keep], ms.confidence[keep])
        return ms
    return read


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_world(args) -> int:
    world, route = simworld.make_preset(args.preset, seed=args.seed)
    world.save(args.out)
    if args.route_out:
        write_csv(args.route_out, "x,y", ([fmt17(x), fmt17(y)] for x, y in route))
    h, w = world.occupancy.shape
    print(f"wrote {args.out}: {w}x{h} cells, cell {world.cell_size} m, "
          f"preset {args.preset}, seed {args.seed}")
    return EXIT_OK


def cmd_gen_segment(args) -> int:
    world = simworld.GridWorld.load(args.world)
    waypoints = _read_waypoints(args.waypoints)
    K = _camera_from(args.camera)
    noise = simworld.OdomNoise.zero() if args.zero_noise else simworld.OdomNoise()
    rec = simworld.generate_segment(world, waypoints, K,
                                    camera_rate=args.camera_rate,
                                    odom_rate=args.odom_rate,
                                    seed=args.seed, noise=noise)
    simworld.save_segment(rec, args.out)
    print(f"wrote {args.out}: {len(rec.segment)} frames, "
          f"{len(rec.odometry)} odometry ticks")
    return EXIT_OK


def cmd_build_map(args) -> int:
    segment = simworld.load_segment(args.input).segment
    indices = select_keyframes(segment, budget=args.keyframe_budget,
                               grid_res=args.grid_res)
    world = simworld.GridWorld.load(args.world) if args.world else None
    matcher = _MATCHERS[args.matcher]
    topo = build_map(segment, indices, matcher=matcher,
                     covis_threshold=args.covis_threshold,
                     nav_radius=args.nav_radius, world=world,
                     cng_from_cvg=args.cng_from_cvg, grid_res=args.grid_res)
    manifest = save_map(topo, args.out)
    print(f"wrote {args.out}: {manifest['node_count']} nodes, "
          f"{len(topo.cng_edges)} cng edges, {len(topo.cvg_edges)} cvg edges, "
          f"{manifest['storage_bytes_descriptors'] + manifest['storage_bytes_images']}"
          f" bytes payload")
    return EXIT_OK


def cmd_localize(args) -> int:
    config = PipelineConfig(gl_min_sim=args.gl_min_sim,
                            max_failures=args.max_failures,
                            window=args.window,
                            pnp=PnPParams(min_inliers=args.min_inliers))
    topo = load_map(args.map)
    if args.ingest_descriptors:
        retrieval.ingest_descriptors(args.ingest_descriptors, topo)
    recording = simworld.load_segment(args.seq)
    segment = recording.segment
    K = segment.camera
    matcher = _map_matcher(args, topo, K)
    pipeline = Pipeline(topo, K, matcher, config)

    # 0 an observation, 1 an odometry delta: the observation first on a tie
    events = [(ts, 1, delta) for ts, delta in recording.odometry]
    events += [(frame.timestamp, 0, frame.obs) for frame in segment.frames]
    events.sort(key=lambda e: (e[0], e[1]))

    trajectory = []
    outcomes = []
    for ts, kind, payload in events:
        if kind == 0:
            outcome = pipeline.on_observation(payload, ts)
            outcomes.append(outcome)
            if outcome.fix is not None:
                trajectory.append((ts, pipeline.current_world_pose()[0]))
        else:
            try:
                trajectory.append((ts, pipeline.on_odometry(payload, ts)))
            except VlocError:
                pass
    write_trajectory(args.out, trajectory)
    if args.log:
        write_csv(args.log, ObservationOutcome.CSV_HEADER,
                  (outcome.csv_fields() for outcome in outcomes))
    if args.batch_out and pipeline.fusion is not None:
        poses, _ = pipeline.fusion.optimize()
        write_trajectory(args.batch_out,
                         list(zip(pipeline.fusion.timestamps, poses)))
    n_fix = sum(1 for outcome in outcomes if outcome.fix is not None)
    print(f"wrote {args.out}: {len(trajectory)} poses, "
          f"{n_fix}/{len(outcomes)} observations fixed")
    return EXIT_OK


def cmd_navigate(args) -> int:
    config = NavConfig(timeout=args.timeout)
    start = _read_start(args.start) if args.start else None
    world = simworld.GridWorld.load(args.world)
    topo = load_map(args.map)
    K = _camera_from(args.camera)
    matcher = _map_matcher(args, topo, K, world)
    if start is None:
        start = (topo.nodes[0].pose.t[0], topo.nodes[0].pose.t[1], 0.0)
    goal_images = [read_pgm(p) for p in args.goal_image]
    reports = run_mission(world, topo, goal_images, K, matcher,
                          start=start, seed=args.seed, config=config)

    write_csv(args.report, NavReport.CSV_HEADER,
              (rep.csv_fields(i) for i, rep in enumerate(reports)))
    if args.traj:
        merged = [p for rep in reports for p in rep.trajectory]
        write_trajectory(args.traj, merged)
    if args.gt_traj:
        merged = [p for rep in reports for p in rep.gt_trajectory]
        write_trajectory(args.gt_traj, merged)
    ok = sum(r.success for r in reports)
    print(f"wrote {args.report}: {ok}/{len(reports)} goals reached")
    return EXIT_OK if ok == len(reports) else EXIT_PLANNED_FAILURE


def cmd_bench_reloc(args) -> int:
    topo = load_map(args.map)
    segment = simworld.load_segment(args.seq).segment
    K = segment.camera
    if args.matcher == "ingest" and not args.matches:
        raise VlocError("--matcher ingest needs --matches")
    matcher = None if args.matcher == "ingest" else _map_matcher(args, topo, K)

    # each frame against the node nearest its ground-truth position; the
    # world pose's errors are those of the pose relative to that node
    results = []
    times = []
    params = PnPParams(min_inliers=args.min_inliers)
    for k, frame in enumerate(segment.frames):
        node = topo.nodes[nearest_node(topo, frame.pose.t)]
        t0 = time.perf_counter()
        frame_matcher = matcher or _csv_matcher(
            os.path.join(args.matches, f"{k}.csv"), K, args.min_conf)
        res = relocal.localize_against_node(node, frame.obs, K, frame_matcher, params)
        times.append((time.perf_counter() - t0) * 1000.0)
        results.append((res, frame.pose))

    metrics = relocal.compute_reloc_metrics(results, times_ms=times)
    write_csv(args.out, relocal.RelocMetrics.CSV_HEADER, [metrics.csv_fields()])
    print(f"wrote {args.out}: pct_estimated {metrics.pct_estimated:.1f}%, "
          f"median {metrics.median_et:.3f} m / {metrics.median_er:.2f} deg")
    return EXIT_OK


def cmd_eval_ate(args) -> int:
    gt = read_trajectory(args.gt)
    est = read_trajectory(args.est)
    report = compute_ate(gt, est, max_dt=args.max_dt)
    print(f"ate_rmse_m {format(report.rmse, '.9g')}")
    print(f"matched_pairs {report.matched}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vloc",
        description="map-lite visual localization and image-goal navigation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-world", help="write a preset grid world")
    p.add_argument("--out", required=True)
    p.add_argument("--preset", required=True, choices=simworld.PRESETS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--route-out", help="also write the preset mapping route CSV")
    p.set_defaults(func=cmd_gen_world)

    p = sub.add_parser("gen-segment", help="drive waypoints, record a segment")
    p.add_argument("--world", required=True)
    p.add_argument("--waypoints", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--camera-rate", type=float, default=2.0)
    p.add_argument("--odom-rate", type=float, default=15.0)
    p.add_argument("--camera", help="fx fy cx cy width height")
    p.add_argument("--zero-noise", action="store_true")
    p.set_defaults(func=cmd_gen_segment)

    p = sub.add_parser("build-map", help="select keyframes and build the map")
    p.add_argument("--input", required=True, help="segment directory")
    p.add_argument("--keyframe-budget", type=int, required=True)
    p.add_argument("--grid-res", type=float, default=GRID_RES_DEFAULT)
    p.add_argument("--out", required=True)
    p.add_argument("--cng-from-cvg", action="store_true")
    p.add_argument("--covis-threshold", type=int, default=COVIS_THRESHOLD_DEFAULT)
    p.add_argument("--nav-radius", type=float, default=NAV_RADIUS_DEFAULT)
    p.add_argument("--matcher", default="oracle", choices=_MATCHERS)
    p.add_argument("--world", help="enables the line-of-sight check")
    p.set_defaults(func=cmd_build_map)

    p = sub.add_parser("localize", help="replay a segment against a map")
    p.add_argument("--map", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--out", required=True, help="TUM trajectory output")
    p.add_argument("--log", help="per-frame CSV log")
    p.add_argument("--batch-out", help="full batch-optimized trajectory")
    p.add_argument("--matcher", default="oracle", choices=_MATCHERS)
    p.add_argument("--world", help="required for --matcher oracle")
    p.add_argument("--gl-min-sim", type=float, default=GL_MIN_SIM_DEFAULT)
    p.add_argument("--max-failures", type=int, default=MAX_FAILURES_DEFAULT)
    p.add_argument("--window", type=int, default=WINDOW_DEFAULT)
    p.add_argument("--min-inliers", type=int, default=PnPParams.min_inliers)
    p.add_argument("--ingest-descriptors",
                   help="replace map descriptors from a descriptors.f32 file")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("navigate", help="closed-loop image-goal navigation")
    p.add_argument("--world", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--goal-image", action="append", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True)
    p.add_argument("--traj", help="estimated trajectory output (TUM)")
    p.add_argument("--gt-traj", help="ground-truth trajectory output (TUM)")
    p.add_argument("--start", help="x,y,yaw (default: node 0)")
    p.add_argument("--timeout", type=float, default=NavConfig.timeout)
    p.add_argument("--camera", help="fx fy cx cy width height")
    p.add_argument("--matcher", default="oracle", choices=_MATCHERS)
    p.set_defaults(func=cmd_navigate)

    p = sub.add_parser("bench-reloc",
                       help="relocalize each segment frame against its nearest map node")
    p.add_argument("--map", required=True)
    p.add_argument("--seq", required=True, help="segment directory")
    p.add_argument("--matcher", required=True, choices=(*_MATCHERS, "ingest"))
    p.add_argument("--out", required=True)
    p.add_argument("--matches", help="directory of <k>.csv for --matcher ingest")
    p.add_argument("--min-conf", type=float, default=0.0)
    p.add_argument("--min-inliers", type=int, default=PnPParams.min_inliers)
    p.add_argument("--world", help="required for --matcher oracle")
    p.set_defaults(func=cmd_bench_reloc)

    p = sub.add_parser("eval-ate", help="absolute trajectory error")
    p.add_argument("--gt", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--max-dt", type=float, default=0.05)
    p.set_defaults(func=cmd_eval_ate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise VlocError(f"--seed {args.seed} must be non-negative")
        return args.func(args)
    except NoPath as exc:
        print(f"no path: {exc}", file=sys.stderr)
        return EXIT_PLANNED_FAILURE
    except (VlocError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
