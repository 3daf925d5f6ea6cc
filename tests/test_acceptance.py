"""Acceptance suite: every release criterion at its stated tolerance, one
printed PASS line per criterion (pytest -s shows them; a failure raises)."""

import hashlib
import itertools
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

import vloc
from vloc.dataio import write_pgm
from vloc.geometry import CameraIntrinsics, Pose, rotation_angle, se3_exp
from vloc.mapgraph import (
    MapNode,
    TopoMetricMap,
    build_map,
    greedy_max_coverage,
    load_map,
    maps_equal,
    save_map,
    select_keyframes,
)
from vloc.matching import match_oracle
from vloc.pipeline import Pipeline, PipelineConfig, PipelineMode
from vloc.planning import NavConfig, compute_ate, run_mission
from vloc.poseslam import FusionGraph
from vloc.relocal import (
    PnPParams,
    RelocResult,
    RelocStatus,
    compute_reloc_metrics,
    reprojection_residual_jacobian,
    solve_pnp_ransac,
)
from vloc.simworld import GridWorld, OdomNoise, generate_segment, make_preset
from conftest import rotvec_to_quat

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0, width=128, height=128)
SRC = pathlib.Path(vloc.__file__).parents[1]
SIG6 = [0.1] * 3 + [math.radians(0.5)] * 3
TIGHT = [0.01] * 3 + [math.radians(0.2)] * 3


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def synth_scene(rng, n, noise=0.0):
    transform = Pose(rng.normal(0, 0.5, 3), rng.normal(0, 1, 4))
    rot = transform.rotation_matrix()
    z = rng.uniform(1.5, 6.0, n)
    u = rng.uniform(4.0, 124.0, n)
    v = rng.uniform(4.0, 124.0, n)
    p_cam = np.stack([(u - K.cx) / K.fx * z, (v - K.cy) / K.fy * z, z], axis=1)
    p_world = (p_cam - transform.t) @ rot
    uv = np.stack([u, v], axis=1)
    if noise:
        uv = uv + rng.normal(0.0, noise, uv.shape)
    return p_world, uv, transform, p_cam


def oracle(ref, query):
    return match_oracle(ref, query, seed=0)


def test_criterion_1_pnp_exact_recovery():
    t0 = time.perf_counter()
    worst_t = worst_r = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        p_world, uv, transform, _ = synth_scene(rng, 20)
        res = solve_pnp_ransac(p_world, uv, K, PnPParams(seed=seed))
        assert res.status is RelocStatus.SUCCESS
        worst_t = max(worst_t, float(np.linalg.norm(res.pose.t - transform.t)))
        worst_r = max(worst_r, rotation_angle(res.pose.q, transform.q))
    elapsed = time.perf_counter() - t0
    assert worst_t < 1e-6 and worst_r < 1e-6
    assert elapsed < 1.0
    report(1, f"1000 exact solves, worst {worst_t:.2e} m / {worst_r:.2e} rad "
              f"in {elapsed:.2f} s")


def test_criterion_2_ransac_robustness():
    joint = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        p_world, uv, transform, p_cam = synth_scene(rng, 100, noise=1.0)
        idx = rng.choice(100, 30, replace=False)
        uv[idx] = np.stack([rng.uniform(0, 128, 30), rng.uniform(0, 128, 30)],
                           axis=1)
        res = solve_pnp_ransac(p_world, uv, K, PnPParams(seed=seed))
        span = p_cam[:, 2].max() - p_cam[:, 2].min()
        if (res.status is RelocStatus.SUCCESS
                and np.linalg.norm(res.pose.t - transform.t) < 0.01 * span):
            joint += 1
    assert joint >= 95
    report(2, f"{joint}/100 runs Success with translation error < 1% of depth span")


def tx(d):
    return Pose(np.array([d, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))


def test_criterion_3_optimizer_correctness():
    # (a) factor Jacobians vs central differences at 100 random points
    from vloc.geometry import se3_adjoint_array, se3_log, se3_right_jacobian_inv_array

    def se3_right_jacobian_inv(xi):
        return se3_right_jacobian_inv_array(xi[None])[0]

    def se3_adjoint(pose):
        return se3_adjoint_array(pose.t[None], pose.rotation_matrix()[None])[0]

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        m = Pose(rng.normal(0, 1, 3), rng.normal(0, 1, 4))
        x = Pose(rng.normal(0, 1, 3), rng.normal(0, 1, 4))
        sig = np.abs(rng.normal(1, 0.2, 6)) + 0.1
        rel = m.inverse().compose(x)
        jac = se3_right_jacobian_inv(se3_log(rel)) / sig[:, None]
        h = 1e-6
        jac_fd = np.zeros((6, 6))
        for k in range(6):
            d = np.zeros(6)
            d[k] = h
            rp = se3_log(m.inverse().compose(x.compose(se3_exp(d)))) / sig
            rm = se3_log(m.inverse().compose(x.compose(se3_exp(-d)))) / sig
            jac_fd[:, k] = (rp - rm) / (2 * h)
        worst = max(worst, np.max(np.abs(jac - jac_fd)) / max(1.0, np.max(np.abs(jac))))
    for _ in range(50):
        m, xa, xb = (Pose(rng.normal(0, 1, 3), rng.normal(0, 1, 4)) for _ in range(3))
        sig = np.abs(rng.normal(1, 0.2, 6)) + 0.1
        pred = xa.between(xb)
        rel = m.inverse().compose(pred)
        jb = se3_right_jacobian_inv(se3_log(rel)) / sig[:, None]
        ja = -(se3_right_jacobian_inv(se3_log(rel)) @ se3_adjoint(pred.inverse())) \
            / sig[:, None]
        h = 1e-6

        def res_of(a, b):
            return se3_log(m.inverse().compose(a.between(b))) / sig

        ja_fd = np.zeros((6, 6))
        jb_fd = np.zeros((6, 6))
        for k in range(6):
            d = np.zeros(6)
            d[k] = h
            ja_fd[:, k] = (res_of(xa.compose(se3_exp(d)), xb)
                           - res_of(xa.compose(se3_exp(-d)), xb)) / (2 * h)
            jb_fd[:, k] = (res_of(xa, xb.compose(se3_exp(d)))
                           - res_of(xa, xb.compose(se3_exp(-d)))) / (2 * h)
        worst = max(worst, np.max(np.abs(ja - ja_fd)) / max(1.0, np.max(np.abs(ja))))
        worst = max(worst, np.max(np.abs(jb - jb_fd)) / max(1.0, np.max(np.abs(jb))))
    # reprojection residual Jacobian of the PnP refinement
    for _ in range(100):
        p_world, uv, transform, _ = synth_scene(rng, 5, noise=1.0)
        base = transform.compose(se3_exp(rng.normal(0, 0.05, 6)))
        r, jac = reprojection_residual_jacobian(
            base.rotation_matrix(), base.t, p_world, uv, K)
        jac_fd = np.zeros_like(jac)
        for k in range(6):
            d = np.zeros(6)
            d[k] = 1e-6
            plus = base.compose(se3_exp(d))
            minus = base.compose(se3_exp(-d))
            rp, _ = reprojection_residual_jacobian(
                plus.rotation_matrix(), plus.t, p_world, uv, K)
            rm, _ = reprojection_residual_jacobian(
                minus.rotation_matrix(), minus.t, p_world, uv, K)
            jac_fd[:, k] = (rp - rm) / 2e-6
        worst = max(worst, np.max(np.abs(jac - jac_fd)) / max(1.0, np.max(np.abs(jac))))
    assert worst < 1e-5

    # (b) LM accepted cost monotone on randomized graphs
    for trial in range(10):
        rng2 = np.random.default_rng(100 + trial)
        g = FusionGraph(Pose.identity(), 0.0)
        for k in range(8):
            delta = Pose(rng2.normal(0, 0.3, 3), rng2.normal(0, 1, 4))
            g.propagate(delta, SIG6, float(k + 1))
        g.add_vloc_fix(0, Pose.identity(), TIGHT)
        s6 = Pose(g.states[6, :3], g.states[6, 3:])
        g.add_vloc_fix(6, s6.compose(se3_exp(rng2.normal(0, 0.05, 6))), TIGHT)
        g.optimize()
        trace = g.last_cost_trace
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))

    # (c) biased odometry chain corrected
    g = FusionGraph(Pose.identity(), 0.0)
    for k in range(10):
        g.propagate(tx(1.1), SIG6, float(k + 1))
    gt_end = tx(10.0)
    raw_err = float(np.linalg.norm(g.states[-1, :3] - gt_end.t))
    g.add_vloc_fix(0, Pose.identity(), TIGHT)
    g.add_vloc_fix(10, gt_end, TIGHT)
    poses, _ = g.optimize()
    end_err = float(np.linalg.norm(poses[-1].t - gt_end.t))
    assert raw_err == pytest.approx(1.0, abs=1e-9)
    assert end_err < 0.02
    report(3, f"Jacobians within {worst:.2e} rel of FD; LM monotone; "
              f"chain {raw_err:.2f} m -> {end_err:.4f} m")


@pytest.fixture(scope="module")
def corridor_fixture():
    world, route = make_preset("corridor", seed=7)
    rec = generate_segment(world, route, K, camera_rate=2.0, seed=1,
                           noise=OdomNoise.zero())
    kf = select_keyframes(rec.segment, budget=30, grid_res=0.1)
    topo = build_map(rec.segment, kf, matcher=oracle, covis_threshold=30,
                     world=world)
    return world, topo


def test_criterion_4_fusion_beats_dead_reckoning(corridor_fixture):
    world, topo = corridor_fixture
    t0 = time.perf_counter()
    route100 = [(1.0, 2.25), (34.0, 2.25), (1.0, 2.25), (34.0, 2.25)]
    worst_ps, best_raw = 0.0, np.inf
    for seed in range(10):
        rec = generate_segment(world, route100, K, camera_rate=1.0,
                               odom_rate=10.0, seed=seed, noise=OdomNoise())
        # the end-of-corridor turnarounds put several seconds of
        # wall-facing views in a row; ride through them on odometry
        pipeline = Pipeline(topo, K, oracle, PipelineConfig(max_failures=12))
        frames = {round(f.timestamp, 9): f for f in rec.segment.frames}
        pipeline.on_observation(rec.segment.frames[0].obs, 0.0)
        assert pipeline.mode is PipelineMode.TRACKING
        est, raw = [], []
        acc = rec.gt_stream[0][1]
        for ts, delta in rec.odometry:
            acc = acc.compose(delta)
            raw.append((ts, acc))
            est.append((ts, pipeline.on_odometry(delta, ts)))
            key = round(ts, 9)
            if key in frames:
                pipeline.on_observation(frames[key].obs, ts)
                est[-1] = (ts, pipeline.fusion.current_pose()[0])
        gt = rec.gt_stream
        ate_ps = compute_ate(gt, est, max_dt=0.01).rmse
        ate_raw = compute_ate(gt, raw, max_dt=0.01).rmse
        assert ate_ps < 0.1, f"seed {seed}: fused ATE {ate_ps:.3f}"
        assert ate_raw > 0.5, f"seed {seed}: raw ATE {ate_raw:.3f}"
        worst_ps = max(worst_ps, ate_ps)
        best_raw = min(best_raw, ate_raw)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(4, f"10 seeded ~100 m runs: fused ATE <= {worst_ps:.3f} m, raw ATE >= "
              f"{best_raw:.3f} m, {elapsed:.0f} s")


def test_criterion_5_greedy_near_optimality():
    rng = np.random.default_rng(99)
    bound = 1.0 - 1.0 / np.e
    for _ in range(200):
        n = int(rng.integers(2, 13))
        universe = int(rng.integers(4, 24))
        keys = [rng.choice(universe, size=rng.integers(0, universe), replace=False)
                for _ in range(n)]
        sets = [set(k.tolist()) for k in keys]
        budget = int(rng.integers(1, n + 1))
        chosen = greedy_max_coverage(keys, budget)
        again = greedy_max_coverage(keys, budget)
        assert chosen == again
        achieved = len(set().union(*[sets[i] for i in chosen]) if chosen else set())
        opt = 0
        for size in range(1, budget + 1):
            for combo in itertools.combinations(range(n), size):
                opt = max(opt, len(set().union(*[sets[i] for i in combo])))
        assert achieved >= bound * opt - 1e-9
    report(5, "greedy >= (1 - 1/e) x OPT on 200 exhaustively-checked instances; "
              "deterministic")


def test_criterion_6_map_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(31)
    for trial in range(100):
        n = int(rng.integers(1, 12))
        with_images = trial % 3 == 0
        nodes = []
        for i in range(n):
            d = rng.normal(0, 1, 256)
            d = (d / np.linalg.norm(d)).astype(np.float32)
            img = rng.integers(0, 255, (16, 16), dtype=np.uint8) if with_images else None
            nodes.append(MapNode(id=i, pose=Pose(rng.normal(0, 5, 3), rng.normal(0, 1, 4)),
                                 descriptor=d, image=img))
        cng, cvg = [], []
        for a in range(n):
            for b in range(a + 1, n):
                if rng.uniform() < 0.3:
                    w = float(np.linalg.norm(nodes[a].pose.t - nodes[b].pose.t))
                    cng.append((a, b, w))
                if rng.uniform() < 0.3:
                    cvg.append((a, b, int(rng.integers(50, 300))))
        topo = TopoMetricMap(nodes=nodes, cng_edges=cng, cvg_edges=cvg,
                             descriptor_dim=256)
        mapdir = tmp_path / f"m{trial}"
        manifest = save_map(topo, mapdir)
        loaded = load_map(mapdir)
        assert maps_equal(topo, loaded)
        h1 = hashlib.sha256((mapdir / "descriptors.f32").read_bytes()).hexdigest()
        save_map(loaded, tmp_path / f"m{trial}b")
        h2 = hashlib.sha256(
            (tmp_path / f"m{trial}b" / "descriptors.f32").read_bytes()).hexdigest()
        assert h1 == h2
        import os
        assert manifest["storage_bytes_descriptors"] == \
            os.path.getsize(mapdir / "descriptors.f32")
        actual_imgs = 0
        d = mapdir / "images"
        if d.exists():
            actual_imgs += sum(os.path.getsize(d / f) for f in os.listdir(d))
        assert manifest["storage_bytes_images"] == actual_imgs
    report(6, "100 randomized maps round-trip bit-exact; manifest sizes match files")


def test_criterion_7_closed_loop_navigation():
    t0 = time.perf_counter()
    summary = []
    for preset in ("corridor", "rooms", "campus"):
        world, route = make_preset(preset, seed=7)
        route_len = sum(float(np.linalg.norm(np.asarray(b) - np.asarray(a)))
                        for a, b in zip(route, route[1:]))
        rec = generate_segment(world, route, K, camera_rate=2.0, seed=1,
                               noise=OdomNoise.zero())
        kf = select_keyframes(rec.segment, budget=int(route_len / 1.2) + 8,
                              grid_res=0.1)
        topo = build_map(rec.segment, kf, matcher=oracle, covis_threshold=30,
                         world=world)
        rng = np.random.default_rng(1)
        goal_ids = rng.choice(np.arange(1, len(topo.nodes)), size=5, replace=False)
        goals = [topo.nodes[int(i)].image for i in goal_ids]
        reports = run_mission(world, topo, goals, K, oracle,
                              start=(route[0][0], route[0][1], 0.0), seed=5,
                              config=NavConfig(timeout=150.0))
        for i, rep in enumerate(reports):
            assert rep.success, f"{preset} goal {i} failed"
            assert rep.final_goal_dist_m <= 0.5
            assert rep.path_length_m <= 1.5 * rep.shortest_path_m + 1e-9, \
                f"{preset} goal {i}: {rep.path_length_m:.1f} > 1.5 x " \
                f"{rep.shortest_path_m:.1f}"
        ratios = [r.path_length_m / max(r.shortest_path_m, 1e-9) for r in reports]
        summary.append(f"{preset} 5/5 (max ratio {max(ratios):.2f})")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(7, "; ".join(summary) + f"; {elapsed:.0f} s")


def test_criterion_8_metric_suite():
    def result(et=0.0, er_deg=0.0, ok=True):
        gt = Pose.identity()
        if not ok:
            return (RelocResult(pose=None, inliers=0, total=10,
                                status=RelocStatus.TOO_FEW_MATCHES), gt)
        pose = Pose(np.array([et, 0.0, 0.0]),
                    rotvec_to_quat([math.radians(er_deg), 0.0, 0.0]))
        return (RelocResult(pose=pose, inliers=20, total=20,
                            status=RelocStatus.SUCCESS), gt)

    m = compute_reloc_metrics([result(0.03, 2.0), result(0.20, 4.0),
                               result(0.80, 8.0), result(ok=False)])
    assert m.precision == (25.0, 50.0, 75.0)
    assert m.pct_estimated == 75.0
    m = compute_reloc_metrics([result() for _ in range(3)])
    assert m.precision == (100.0, 100.0, 100.0) and m.median_et == 0.0

    rng = np.random.default_rng(8)
    for _ in range(1000):
        rs = []
        for _ in range(int(rng.integers(1, 12))):
            if rng.uniform() < 0.25:
                rs.append(result(ok=False))
            else:
                rs.append(result(float(rng.uniform(0, 1.5)),
                                 float(rng.uniform(0, 15))))
        m = compute_reloc_metrics(rs)
        assert m.precision[0] <= m.precision[1] <= m.precision[2]

    gt = [(float(t), Pose(np.array([t, 0.0, 0.0]), [1, 0, 0, 0])) for t in range(3)]
    est = [(ts, Pose(p.t + np.array([e, 0.0, 0.0]), p.q))
           for (ts, p), e in zip(gt, (0.1, 0.2, 0.2))]
    assert compute_ate(gt, est).rmse == pytest.approx(math.sqrt(0.03), abs=1e-12)
    report(8, "hand-computed metric examples exact; buckets monotone on 1000 "
              "random error sets")


def test_criterion_9_cli_navigation_determinism(tmp_path):
    world_path = tmp_path / "world.txt"
    route_path = tmp_path / "route.csv"
    segdir = tmp_path / "seg"
    mapdir = tmp_path / "map"

    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "vloc.cli", *args],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True)
        assert proc.returncode in (0, 2), proc.stderr
        return proc

    run(["gen-world", "--out", str(world_path), "--preset", "corridor",
         "--seed", "7", "--route-out", str(route_path)])
    run(["gen-segment", "--world", str(world_path), "--waypoints", str(route_path),
         "--out", str(segdir), "--seed", "1", "--zero-noise"])
    run(["build-map", "--input", str(segdir), "--keyframe-budget", "30",
         "--out", str(mapdir), "--covis-threshold", "30",
         "--world", str(world_path)])
    topo = load_map(mapdir)
    goal = tmp_path / "goal.pgm"
    write_pgm(goal, topo.nodes[10].image)

    payloads = []
    for tag in ("a", "b"):
        report_path = tmp_path / f"nav_{tag}.csv"
        traj_path = tmp_path / f"traj_{tag}.txt"
        proc = run(["navigate", "--world", str(world_path), "--map", str(mapdir),
                    "--goal-image", str(goal), "--seed", "5",
                    "--report", str(report_path), "--traj", str(traj_path),
                    "--timeout", "120"])
        assert proc.returncode == 0
        payloads.append((report_path.read_bytes(), traj_path.read_bytes()))
    assert payloads[0] == payloads[1]
    report(9, "vloc navigate twice: byte-identical nav.csv and trajectory")
