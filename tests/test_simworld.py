import math

import numpy as np
import pytest

from vloc.errors import FormatError, PoseInCollision, UnreachableWaypoint
from vloc.geometry import CameraIntrinsics, Pose, project, project_array, rotvec_to_quat
from vloc.simworld import (
    LANDMARK_RANGE,
    GridWorld,
    OdomNoise,
    SimRobot,
    _surface_color,
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


def reference_raycast(world, origin, dirs):
    """Per-ray 3-D DDA against wall boxes and the floor plane (the renderer
    before the per-column walk). Returns (kind, t, cell_ix, cell_iy, face),
    kind 0 sky / 1 wall / 2 floor."""
    cs = world.cell_size
    grid_h, grid_w = world.occupancy.shape
    origin = np.asarray(origin, dtype=float)
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    n = len(dirs)
    ox, oy, oz = origin
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]

    with np.errstate(divide="ignore", invalid="ignore"):
        t_floor = np.where(dz < 0.0, -oz / dz, np.inf)
        t_delta_x = np.where(dx != 0.0, cs / np.abs(dx), np.inf)
        t_delta_y = np.where(dy != 0.0, cs / np.abs(dy), np.inf)

    ix = np.full(n, int(math.floor(ox / cs)), dtype=np.int64)
    iy = np.full(n, int(math.floor(oy / cs)), dtype=np.int64)
    step_x = np.sign(dx).astype(np.int64)
    step_y = np.sign(dy).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max_x = np.where(
            dx > 0.0, ((ix + 1) * cs - ox) / dx,
            np.where(dx < 0.0, (ix * cs - ox) / dx, np.inf))
        t_max_y = np.where(
            dy > 0.0, ((iy + 1) * cs - oy) / dy,
            np.where(dy < 0.0, (iy * cs - oy) / dy, np.inf))

    kind = np.zeros(n, dtype=np.uint8)
    t_hit = np.zeros(n, dtype=float)
    face = np.full(n, -1, dtype=np.int64)
    active = np.ones(n, dtype=bool)

    for _ in range(2 * (grid_w + grid_h) + 4):
        if not active.any():
            break
        use_x = t_max_x <= t_max_y
        t_cross = np.where(use_x, t_max_x, t_max_y)

        hits_floor = active & (t_floor <= t_cross)
        if hits_floor.any():
            kind[hits_floor] = 2
            t_hit[hits_floor] = t_floor[hits_floor]
            active &= ~hits_floor

        adv_x = active & use_x
        adv_y = active & ~use_x
        ix[adv_x] += step_x[adv_x]
        iy[adv_y] += step_y[adv_y]

        oob = active & ((ix < 0) | (ix >= grid_w) | (iy < 0) | (iy >= grid_h))
        active &= ~oob

        check = active.copy()
        if check.any():
            occ = np.zeros(n, dtype=bool)
            occ[check] = world.occupancy[iy[check], ix[check]]
            z_cross = oz + dz * t_cross
            wall = check & occ & (z_cross <= world.wall_height)
            if wall.any():
                kind[wall] = 1
                t_hit[wall] = t_cross[wall]
                wx = wall & use_x
                wy = wall & ~use_x
                face[wx] = np.where(step_x[wx] > 0, 0, 1)
                face[wy] = np.where(step_y[wy] > 0, 2, 3)
                active &= ~wall

        t_max_x[adv_x] += t_delta_x[adv_x]
        t_max_y[adv_y] += t_delta_y[adv_y]

    return kind, t_hit, ix, iy, face


def reference_render(world, pose, K):
    """One 3-D ray per pixel; returns (color, depth, landmark ids, uv, depth)."""
    cam = pose.t
    rot = pose.rotation_matrix()
    uu, vv = np.meshgrid(np.arange(K.width, dtype=float),
                         np.arange(K.height, dtype=float))
    dirs_cam = np.stack([(uu.ravel() - K.cx) / K.fx,
                         (vv.ravel() - K.cy) / K.fy,
                         np.ones(K.width * K.height)], axis=1)
    dirs_world = dirs_cam @ rot.T
    kind, t, _, _, face = reference_raycast(world, cam, dirs_world)
    depth = np.where(kind > 0, t, 0.0).reshape(K.height, K.width)

    pts = cam[None, :] + dirs_world * t[:, None]
    is_x_face = (face == 0) | (face == 1)
    axis = np.where(kind == 2, 2, np.where(is_x_face, 0, 1)).astype(np.int64)
    plane_coord = np.where(is_x_face, pts[:, 0], pts[:, 1])
    plane_idx = np.where(kind == 2, 0,
                         np.rint(plane_coord / world.cell_size).astype(np.int64))
    su = np.where(kind == 2, pts[:, 0],
                  np.where(is_x_face, pts[:, 1], pts[:, 0]))
    sv = np.where(kind == 2, pts[:, 1], pts[:, 2])
    shade = _surface_color(axis, plane_idx, su, sv, world.texture_seed)
    color = np.where(kind > 0, shade, 0).astype(np.uint8).reshape(K.height, K.width)

    ids, pos, nrm = world.landmarks()
    p_cam = (pos - cam) @ rot
    uv, in_view = project_array(K, p_cam)
    facing = np.einsum("ij,ij->i", nrm, cam[None, :] - pos) > 1e-9
    in_range = np.linalg.norm(pos - cam, axis=1) <= LANDMARK_RANGE
    cand = np.nonzero(in_view & facing & in_range)[0]
    kind, t, _, _, _ = reference_raycast(world, cam, pos[cand] - cam[None, :])
    sel = cand[(kind == 1) & (t >= 1.0 - 1e-6)]
    sel = sel[np.argsort(ids[sel])]
    return color, depth, ids[sel], uv[sel], p_cam[sel, 2]


def reference_line_of_sight(world, p, qs, z):
    """Line of sight from p to each of qs along a 3-D ray at height z."""
    delta = np.column_stack([qs[:, 0] - p[0], qs[:, 1] - p[1], np.zeros(len(qs))])
    kind, t, _, _, _ = reference_raycast(world, np.array([p[0], p[1], z]), delta)
    return (kind != 1) | (t >= 1.0 - 1e-9)


def random_free_points(world, rng, n):
    width, height = world.extent
    out = []
    while len(out) < n:
        x, y = rng.uniform(0.0, width), rng.uniform(0.0, height)
        if world.free_point(x, y):
            out.append((x, y))
    return np.array(out)


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
            th, face = raycast(corridor, pose_b.t, (hit - pose_b.t)[None, :2])
            assert face[0] >= 0 and th[0] == pytest.approx(1.0, abs=1e-9)
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
            t, face = raycast(corridor, pose.t, (lm - pose.t)[None, :2])
            assert face[0] >= 0 and t[0] == pytest.approx(1.0, abs=1e-6)

    def test_pose_in_collision(self, corridor):
        with pytest.raises(PoseInCollision):
            render(corridor, planar_camera_pose(0.1, 0.1, 0.0), K)

    @pytest.mark.parametrize("axis", [0, 2])      # pitch, roll
    def test_tilted_camera_rejected(self, corridor, axis):
        level = planar_camera_pose(2.0, CORRIDOR_Y, 0.3)
        rotvec = np.zeros(3)
        rotvec[axis] = 1e-6
        tilted = level.compose(Pose(np.zeros(3), rotvec_to_quat(rotvec)))
        with pytest.raises(ValueError, match="level"):
            render(corridor, tilted, K)


@pytest.mark.parametrize("name", ["corridor", "rooms", "campus"])
@pytest.mark.parametrize("seed", [0, 1])
class TestMatchesPerPixelReference:
    def test_render(self, name, seed):
        world, _ = make_preset(name, seed=seed)
        rng = np.random.default_rng([seed, 17])
        poses = [planar_camera_pose(x, y, rng.uniform(-math.pi, math.pi),
                                    z=rng.uniform(0.3, 1.7))
                 for x, y in random_free_points(world, rng, 50)]
        # rays through grid corners: positions on cell centres and grid
        # lines, headings on multiples of 45 degrees
        lattice = np.round(random_free_points(world, rng, 12) * 4.0) / 4.0
        poses += [planar_camera_pose(x, y, k * math.pi / 4.0)
                  for k, (x, y) in enumerate(lattice) if world.free_point(x, y)]
        for pose in poses:
            frame = render(world, pose, K)
            color, depth, ids, uv, lm_depth = reference_render(world, pose, K)
            assert np.array_equal(frame.color, color)
            assert np.array_equal(frame.depth, depth)
            assert np.array_equal(frame.landmark_ids, ids)
            assert np.array_equal(frame.landmark_uv, uv)
            assert np.array_equal(frame.landmark_depth, lm_depth)

    def test_line_of_sight(self, name, seed):
        world, _ = make_preset(name, seed=seed)
        pts = random_free_points(world, np.random.default_rng([seed, 18]), 20)
        for i, p in enumerate(pts):
            qs = np.delete(pts, i, axis=0)
            expected = reference_line_of_sight(world, p, qs, 1.0)
            got = [world.line_of_sight(p, q) for q in qs]
            assert got == expected.tolist()


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
                               K, camera_rate=1.0, seed=0, noise=OdomNoise.zero())
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
        ("landmarks/1.csv", 2, 4, "7"),         # a field over
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
            row[field:field + 1] = [value]     # appends at field == len(row)
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

    @pytest.mark.parametrize("extra, lineno", [("#########", 11), ("\n...", 12)])
    def test_line_after_grid_names_line(self, tmp_path, extra, lineno):
        path = tmp_path / "world.txt"
        world = GridWorld(occupancy=np.ones((9, 9), dtype=bool), cell_size=0.5,
                          wall_height=2.0, texture_seed=0)
        world.save(path)
        path.write_text(path.read_text() + extra + "\n")
        with pytest.raises(FormatError, match=f"world.txt:{lineno}: "):
            GridWorld.load(path)

    def test_non_numeric_header_names_line(self, corridor, tmp_path):
        path = tmp_path / "world.txt"
        corridor.save(path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("0.5", "half")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="world.txt:1: "):
            GridWorld.load(path)

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
