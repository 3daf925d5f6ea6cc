import math

import numpy as np
import pytest

from vloc.errors import FormatError, PoseInCollision, UnreachableWaypoint
from vloc.geometry import CameraIntrinsics, Pose, project
from vloc.simworld import (
    GridWorld,
    OdomNoise,
    SimRobot,
    generate_segment,
    load_segment,
    make_preset,
    planar_camera_pose,
    pose_to_planar,
    raycast,
    render,
    save_segment,
)

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0, width=128, height=128)
CORRIDOR_Y = 2.25


@pytest.fixture(scope="module")
def corridor():
    world, route = make_preset("corridor", seed=7)
    return world


def brute_force_depth(world, pose, K, u, v):
    """Independent slow oracle: dense march + bisection on the hit test."""
    rot = pose.rotation_matrix()
    d = rot @ np.array([(u - K.cx) / K.fx, (v - K.cy) / K.fy, 1.0])
    o = pose.t
    cs = world.cell_size
    h, w = world.occupancy.shape

    def solid(t):
        p = o + d * t
        if p[2] <= 0.0:
            return True
        ix, iy = int(math.floor(p[0] / cs)), int(math.floor(p[1] / cs))
        if not (0 <= ix < w and 0 <= iy < h):
            return False
        return bool(world.occupancy[iy, ix]) and p[2] <= world.wall_height

    ts = np.linspace(0.0, 80.0, 40000)
    first = None
    for t in ts:
        if solid(t):
            first = t
            break
    if first is None:
        return 0.0
    lo, hi = max(0.0, first - 80.0 / 39999), first
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if solid(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestRender:
    def test_axis_aligned_wall_depth(self, corridor):
        # wall begins at x = 34.5 in the corridor preset
        pose = planar_camera_pose(32.5, CORRIDOR_Y, 0.0)
        frame = render(corridor, pose, K)
        assert frame.depth[64, 64] == pytest.approx(2.0, abs=1e-9)

    def test_depth_matches_brute_force_probe(self, corridor):
        pose = planar_camera_pose(2.0, CORRIDOR_Y, 0.3)
        frame = render(corridor, pose, K)
        rng = np.random.default_rng(5)
        # 32x32 probe grid, subsampled for the slow oracle
        us = rng.choice(np.arange(0, 128, 4), size=16, replace=False)
        vs = rng.choice(np.arange(0, 128, 4), size=16, replace=False)
        for u, v in zip(us, vs):
            expected = brute_force_depth(corridor, pose, K, u, v)
            assert frame.depth[v, u] == pytest.approx(expected, abs=1e-9)

    def test_deterministic_bytes(self, corridor):
        pose = planar_camera_pose(3.0, CORRIDOR_Y, 0.7)
        f1 = render(corridor, pose, K)
        f2 = render(corridor, pose, K)
        assert np.array_equal(f1.color, f2.color)
        assert np.array_equal(f1.depth, f2.depth)
        assert np.array_equal(f1.landmark_uv, f2.landmark_uv)

    def test_texture_is_view_independent(self, corridor):
        # the central pixel of pose_a hits a wall point; a second camera
        # whose principal axis passes exactly through that point must render
        # the identical color value at its own central pixel
        pose_a = planar_camera_pose(2.0, CORRIDOR_Y, 0.0)
        frame_a = render(corridor, pose_a, K)
        t = frame_a.depth[64, 64]
        hit = pose_a.t + pose_a.rotation_matrix() @ np.array([0.0, 0.0, t])
        for bx, by in ((4.0, 2.6), (6.5, 1.9), (10.0, 2.25)):
            yaw = math.atan2(hit[1] - by, hit[0] - bx)
            pose_b = planar_camera_pose(bx, by, yaw, z=hit[2])
            frame_b = render(corridor, pose_b, K)
            # confirm the principal ray is unoccluded and lands on the point
            kind, th, _, _, _ = raycast(corridor, pose_b.t, (hit - pose_b.t)[None, :])
            assert kind[0] == 1 and th[0] == pytest.approx(1.0, abs=1e-9)
            assert frame_b.color[64, 64] == frame_a.color[64, 64]

    def test_landmarks_reproject_exactly(self, corridor):
        pose = planar_camera_pose(2.5, CORRIDOR_Y, -0.4)
        frame = render(corridor, pose, K)
        assert len(frame.landmark_ids) >= 50
        ids, pos, _ = corridor.landmarks()
        lookup = {int(i): p for i, p in zip(ids, pos)}
        rot = pose.rotation_matrix()
        for i in range(len(frame.landmark_ids)):
            p_cam = rot.T @ (lookup[int(frame.landmark_ids[i])] - pose.t)
            uv = project(K, p_cam)
            assert uv is not None
            assert np.max(np.abs(uv - frame.landmark_uv[i])) < 1e-6
            assert p_cam[2] == pytest.approx(frame.landmark_depth[i], abs=1e-9)

    def test_landmark_depth_equals_raycast_range(self, corridor):
        pose = planar_camera_pose(2.5, CORRIDOR_Y, 0.2)
        frame = render(corridor, pose, K)
        ids, pos, _ = corridor.landmarks()
        lookup = {int(i): p for i, p in zip(ids, pos)}
        sel = np.random.default_rng(2).choice(len(frame.landmark_ids), 20, replace=False)
        for i in sel:
            lm = lookup[int(frame.landmark_ids[i])]
            kind, t, _, _, _ = raycast(corridor, pose.t, (lm - pose.t)[None, :])
            assert kind[0] == 1 and t[0] == pytest.approx(1.0, abs=1e-6)

    def test_pose_in_collision(self, corridor):
        with pytest.raises(PoseInCollision):
            render(corridor, planar_camera_pose(0.1, 0.1, 0.0), K)


class TestRobot:
    def test_zero_command_keeps_pose(self, corridor):
        robot = SimRobot(2.0, CORRIDOR_Y, 0.0, noise=OdomNoise.zero())
        pose0 = robot.gt_pose
        pose1, delta = robot.step(corridor, (0.0, 0.0), 0.1)
        assert pose1.almost_equal(pose0, 1e-12)
        assert delta.almost_equal(Pose.identity(), 1e-12)

    def test_unit_forward_step(self, corridor):
        robot = SimRobot(2.0, CORRIDOR_Y, 0.0, noise=OdomNoise.zero())
        pose1, delta = robot.step(corridor, (1.0, 0.0), 1.0)
        x, y, yaw = pose_to_planar(pose1)
        assert (x, y) == pytest.approx((3.0, CORRIDOR_Y), abs=1e-12)
        # camera z axis is forward: a forward step is +z in the camera frame
        assert np.allclose(delta.t, [0.0, 0.0, 1.0], atol=1e-12)

    def test_collision_blocks_motion(self, corridor):
        robot = SimRobot(34.0, CORRIDOR_Y, 0.0, noise=OdomNoise.zero())
        pose1, delta = robot.step(corridor, (1.0, 0.0), 1.0)
        x, y, _ = pose_to_planar(pose1)
        assert (x, y) == pytest.approx((34.0, CORRIDOR_Y), abs=1e-12)
        assert delta.almost_equal(Pose.identity(), 1e-12)

    def test_zero_noise_odometry_folds_to_ground_truth(self, corridor):
        rec = generate_segment(corridor, [(2.0, CORRIDOR_Y), (10.0, CORRIDOR_Y)],
                               K, camera_rate=0.5, seed=3, noise=OdomNoise.zero())
        acc = rec.gt_stream[0][1]
        for _, delta in rec.odometry:
            acc = acc.compose(delta)
        assert acc.almost_equal(rec.gt_stream[-1][1], 1e-9)

    def test_noisy_drift_band_over_seeds(self, corridor):
        # regression band frozen from the seeded oracle run: ~98 m with
        # 2%/m translation noise lands in [0.5, 5] m raw-odometry ATE
        route = [(1.0, CORRIDOR_Y), (34.0, CORRIDOR_Y),
                 (1.0, CORRIDOR_Y), (34.0, CORRIDOR_Y)]
        for seed in range(3):
            rec = generate_segment(corridor, route, K, camera_rate=0.004,
                                   odom_rate=15.0, seed=seed, noise=OdomNoise())
            acc = rec.gt_stream[0][1]
            errs = []
            for (ts, delta), (gts, gt) in zip(rec.odometry, rec.gt_stream[1:]):
                acc = acc.compose(delta)
                errs.append(np.linalg.norm(acc.t - gt.t))
            ate = float(np.sqrt(np.mean(np.square(errs))))
            assert 0.5 < ate < 5.0


class TestGenerateSegment:
    def test_single_waypoint_single_frame(self, corridor):
        rec = generate_segment(corridor, [(2.0, CORRIDOR_Y)], K, seed=0)
        assert len(rec.segment) == 1
        assert rec.segment.frames[0].timestamp == 0.0

    def test_straight_corridor_one_frame_per_meter(self, corridor):
        rec = generate_segment(corridor, [(2.0, CORRIDOR_Y), (12.0, CORRIDOR_Y)],
                               K, camera_rate=1.0, seed=0, noise=OdomNoise.zero(),
                               v_max=1.0)
        xs = [f.pose.t[0] for f in rec.segment.frames]
        assert len(rec.segment) == 11
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_replay_reproduces_identical_frames(self, corridor):
        rec = generate_segment(corridor, [(2.0, CORRIDOR_Y), (6.0, CORRIDOR_Y)],
                               K, camera_rate=1.0, seed=5)
        for frame in rec.segment.frames:
            again = render(corridor, frame.pose, K)
            assert np.array_equal(again.color, frame.obs.color)
            assert np.array_equal(again.depth, frame.obs.depth)

    def test_unreachable_waypoint(self, corridor):
        # waypoint inside free space but walled off: cell behind the end wall
        with pytest.raises((UnreachableWaypoint, ValueError)):
            generate_segment(corridor, [(2.0, CORRIDOR_Y), (2.0, 4.4)], K,
                             seed=0, timeout=10.0)

    def test_segment_directory_roundtrip(self, corridor, tmp_path):
        rec = generate_segment(corridor, [(2.0, CORRIDOR_Y), (5.0, CORRIDOR_Y)],
                               K, camera_rate=1.0, seed=9)
        save_segment(rec, tmp_path / "seg")
        seg, odom, gt = load_segment(tmp_path / "seg")
        assert len(seg) == len(rec.segment)
        assert len(odom) == len(rec.odometry)
        assert seg.camera == K
        for a, b in zip(seg.frames, rec.segment.frames):
            assert np.array_equal(a.obs.color, b.obs.color)
            assert a.pose == b.pose
            assert np.array_equal(a.obs.landmark_ids, b.obs.landmark_ids)
            assert np.array_equal(a.obs.landmark_uv, b.obs.landmark_uv)
        for (ta, da), (tb, db) in zip(odom, rec.odometry):
            assert ta == tb and da == db

    @pytest.mark.parametrize("name, lineno, field, value", [
        ("poses.csv", 2, 1, "0.x"), ("poses.csv", 3, 0, "one"),
        ("odometry.csv", 3, 4, "nan?"), ("landmarks/0.csv", 2, 2, ""),
        ("landmarks/1.csv", 3, 3, None),        # a field short
    ])
    def test_non_numeric_field_names_line(self, corridor, tmp_path,
                                          name, lineno, field, value):
        rec = generate_segment(corridor, [(2.0, CORRIDOR_Y), (3.0, CORRIDOR_Y)],
                               K, camera_rate=1.0, seed=9)
        save_segment(rec, tmp_path / "seg")
        path = tmp_path / "seg" / name
        lines = path.read_text().splitlines()
        row = lines[lineno - 1].split(",")
        if value is None:
            del row[field]
        else:
            row[field] = value
        lines[lineno - 1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"{name}:{lineno}: "):
            load_segment(tmp_path / "seg")


class TestWorldFile:
    def test_roundtrip(self, corridor, tmp_path):
        path = tmp_path / "world.txt"
        corridor.save(path)
        loaded = GridWorld.load(path)
        assert np.array_equal(loaded.occupancy, corridor.occupancy)
        assert loaded.cell_size == corridor.cell_size
        assert loaded.wall_height == corridor.wall_height
        assert loaded.texture_seed == corridor.texture_seed

    def test_boundary_must_be_closed(self):
        occ = np.zeros((4, 4), dtype=bool)
        with pytest.raises(ValueError):
            GridWorld(occupancy=occ, cell_size=0.5, wall_height=2.0, texture_seed=0)

    def test_presets_connected_and_routed(self):
        for name in ("corridor", "rooms", "campus"):
            world, route = make_preset(name, seed=11)
            assert len(route) >= 2 or name == "corridor"
            for wp in route:
                assert world.free_point(wp[0], wp[1])
