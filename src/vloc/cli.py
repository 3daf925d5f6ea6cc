"""Command-line surface tying the library together.

Every command reads/writes plain text artifacts (worlds, segment
directories, map directories, TUM trajectories, CSV reports) so runs are
scriptable and diffable. Exit codes: 0 success, 2 planned failure (no path
/ navigation timeout), 1 error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import matching, relocal, retrieval, simworld
from .dataio import read_pgm, read_trajectory, write_trajectory
from .errors import FormatError, NoPath, VlocError
from .geometry import CameraIntrinsics, fmt17
from .mapgraph import build_map, load_map, save_map, select_keyframes
from .pipeline import ObservationOutcome, Pipeline, PipelineConfig
from .planning import NavReport, compute_ate, run_mission
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
    header. Any later line whose first two fields are not numbers raises
    FormatError naming the line."""
    out = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.replace(",", " ").split()
            if not parts:
                continue
            try:
                out.append(np.array([float(parts[0]), float(parts[1])]))
            except (ValueError, IndexError) as exc:
                if lineno > 1:
                    raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if not out:
        raise VlocError(f"{path}: no waypoints")
    return out


def _matcher_from(name: str, seed: int = 0):
    if name == "classical":
        return lambda ref, query: matching.match_classical(ref, query)
    if name == "oracle":
        return lambda ref, query: matching.match_oracle(ref, query, seed=seed)
    raise VlocError(f"unknown matcher '{name}'")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_world(args) -> int:
    world, route = simworld.make_preset(args.preset, seed=args.seed)
    world.save(args.out)
    if args.route_out:
        with open(args.route_out, "w") as f:
            f.write("x,y\n")
            for wp in route:
                f.write(f"{fmt17(wp[0])},{fmt17(wp[1])}\n")
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
    segment, _, _ = simworld.load_segment(args.input)
    indices = select_keyframes(segment, budget=args.keyframe_budget,
                               grid_res=args.grid_res)
    world = simworld.GridWorld.load(args.world) if args.world else None
    matcher = _matcher_from(args.matcher)
    topo = build_map(segment, indices, matcher=matcher,
                     covis_threshold=args.covis_threshold,
                     nav_radius=args.nav_radius, world=world,
                     cng_from_cvg=args.cng_from_cvg, grid_res=args.grid_res)
    manifest = save_map(topo, args.out)
    print(f"wrote {args.out}: {manifest['node_count']} nodes, "
          f"{len(topo.cng_edges)} cng edges, {len(topo.cvg_edges)} cvg edges, "
          f"{manifest['storage_bytes_descriptors'] + manifest['storage_bytes_images']}"
          f" bytes payload")
    comps = topo.components()
    if len(comps) > 1:
        print(f"warning: map has {len(comps)} connectivity components")
    return EXIT_OK


def cmd_localize(args) -> int:
    topo = load_map(args.map)
    if args.ingest_descriptors:
        retrieval.ingest_descriptors(args.ingest_descriptors, topo)
    segment, odometry, _ = simworld.load_segment(args.seq)
    K = segment.camera
    if args.matcher == "oracle":
        if not args.world:
            raise VlocError("--matcher oracle needs --world to annotate map nodes")
        world = simworld.GridWorld.load(args.world)
        simworld.annotate_map_with_landmarks(topo, K, world)
    matcher = _matcher_from(args.matcher)
    config = PipelineConfig(gl_min_sim=args.gl_min_sim,
                            max_failures=args.max_failures,
                            window=args.window,
                            pnp=PnPParams(min_inliers=args.min_inliers))
    pipeline = Pipeline(topo, K, matcher, config)

    events = []
    for ts, delta in odometry:
        events.append((ts, 1, ("odom", delta)))
    for frame in segment.frames:
        events.append((frame.timestamp, 0, ("obs", frame.obs)))
    events.sort(key=lambda e: (e[0], e[1]))

    trajectory = []
    log_rows = []
    for ts, _, (kind, payload) in events:
        if kind == "obs":
            outcome = pipeline.on_observation(payload, ts)
            log_rows.append(outcome.log_row())
            if outcome.fix is not None:
                trajectory.append((ts, pipeline.fusion.current_pose()[0]))
        else:
            try:
                trajectory.append((ts, pipeline.on_odometry(payload, ts)))
            except VlocError:
                pass
    write_trajectory(args.out, trajectory)
    if args.log:
        with open(args.log, "w") as f:
            f.write(ObservationOutcome.log_header() + "\n")
            for row in log_rows:
                f.write(row + "\n")
    if args.batch_out and len(pipeline.fusion.priors):
        poses, _ = pipeline.fusion.optimize()
        write_trajectory(args.batch_out,
                         list(zip(pipeline.fusion.timestamps, poses)))
    n_fix = sum(1 for r in log_rows if r.split(",")[5] == "Success")
    print(f"wrote {args.out}: {len(trajectory)} poses, "
          f"{n_fix}/{len(log_rows)} observations fixed")
    return EXIT_OK


def cmd_navigate(args) -> int:
    world = simworld.GridWorld.load(args.world)
    topo = load_map(args.map)
    K = _camera_from(args.camera)
    if args.matcher == "oracle":
        simworld.annotate_map_with_landmarks(topo, K, world)
    matcher = _matcher_from(args.matcher)
    from .planning import NavConfig
    config = NavConfig(timeout=args.timeout)
    if args.start:
        x, y, yaw = (float(v) for v in args.start.split(","))
    else:
        x, y = topo.nodes[0].pose.t[0], topo.nodes[0].pose.t[1]
        yaw = 0.0
    goal_images = [read_pgm(p) for p in args.goal_image]
    reports = run_mission(world, topo, goal_images, K, matcher,
                          start=(x, y, yaw), seed=args.seed, config=config)

    with open(args.report, "w") as f:
        f.write(NavReport.csv_header() + "\n")
        for i, rep in enumerate(reports):
            f.write(rep.csv_row(i) + "\n")
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
    K, refs, queries = relocal.load_reloc_dataset(args.dataset)
    world = simworld.GridWorld.load(args.world) if args.world else None
    if args.matcher == "oracle" and world is None:
        raise VlocError("--matcher oracle needs --world to regenerate annotations")

    results = []
    times = []
    params = PnPParams(min_inliers=args.min_inliers)
    for j, (img, depth, gt_pose, ref_id) in enumerate(queries):
        ref_img, ref_pose = refs[ref_id]
        t0 = time.perf_counter()
        if args.matcher == "classical":
            ms = matching.match_classical(ref_img, img)
        elif args.matcher == "oracle":
            ref_frame = simworld.render(world, ref_pose, K)
            query_frame = simworld.render(world, gt_pose, K)
            ms = matching.match_oracle(ref_frame, query_frame, seed=j)
        elif args.matcher == "ingest":
            path = os.path.join(args.matches, f"{j}.csv")
            ms = matching.ingest_matches(path, K.width, K.height)
            if args.min_conf > 0:
                keep = ms.confidence >= args.min_conf
                ms = matching.MatchSet(ms.uv_ref[keep], ms.uv_query[keep],
                                       ms.confidence[keep])
        else:
            raise VlocError(f"unknown matcher '{args.matcher}'")
        p3d, uv_ref, _ = relocal.lift(ms, depth, K)
        res = relocal.solve_pnp_ransac(p3d, uv_ref, K, params)
        times.append((time.perf_counter() - t0) * 1000.0)
        rel_gt = ref_pose.between(gt_pose)
        results.append((res, rel_gt))

    metrics = relocal.compute_reloc_metrics(results, times_ms=times)
    with open(args.out, "w") as f:
        f.write(metrics.as_csv())
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
    p.add_argument("--preset", required=True,
                   choices=("corridor", "rooms", "campus"))
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
    p.add_argument("--grid-res", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.add_argument("--cng-from-cvg", action="store_true")
    p.add_argument("--covis-threshold", type=int, default=50)
    p.add_argument("--nav-radius", type=float, default=3.0)
    p.add_argument("--matcher", default="oracle", choices=("classical", "oracle"))
    p.add_argument("--world", help="enables the line-of-sight check")
    p.set_defaults(func=cmd_build_map)

    p = sub.add_parser("localize", help="replay a segment against a map")
    p.add_argument("--map", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--out", required=True, help="TUM trajectory output")
    p.add_argument("--log", help="per-frame CSV log")
    p.add_argument("--batch-out", help="full batch-optimized trajectory")
    p.add_argument("--matcher", default="oracle", choices=("classical", "oracle"))
    p.add_argument("--world", help="required for --matcher oracle")
    p.add_argument("--gl-min-sim", type=float, default=0.5)
    p.add_argument("--max-failures", type=int, default=5)
    p.add_argument("--window", type=int, default=20)
    p.add_argument("--min-inliers", type=int, default=12)
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
    p.add_argument("--timeout", type=float, default=240.0)
    p.add_argument("--camera", help="fx fy cx cy width height")
    p.add_argument("--matcher", default="oracle", choices=("classical", "oracle"))
    p.set_defaults(func=cmd_navigate)

    p = sub.add_parser("bench-reloc", help="relocalization benchmark")
    p.add_argument("--dataset", required=True)
    p.add_argument("--matcher", required=True,
                   choices=("classical", "oracle", "ingest"))
    p.add_argument("--out", required=True)
    p.add_argument("--matches", help="directory of <j>.csv for --matcher ingest")
    p.add_argument("--min-conf", type=float, default=0.0)
    p.add_argument("--min-inliers", type=int, default=12)
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
        return args.func(args)
    except NoPath as exc:
        print(f"no path: {exc}", file=sys.stderr)
        return EXIT_PLANNED_FAILURE
    except VlocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
