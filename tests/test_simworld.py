import dataclasses
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vloc import simworld
from vloc.dataio import write_raw
from vloc.errors import FormatError, PoseInCollision, UnreachableWaypoint
from vloc.geometry import CameraIntrinsics, Pose, project_array, quat_multiply
from vloc.mapgraph import MapNode, TopoMetricMap
from vloc.matching import match_oracle
from vloc.simworld import (
    LANDMARK_RANGE,
    MAX_DRIVE_STEPS,
    GridWorld,
    OdomNoise,
    SimRobot,
    _TEXEL_MARGIN,
    _TEXTURE_OCTAVES,
    _mix64,
    annotate_map_with_landmarks,
    generate_segment,
    load_segment,
    make_preset,
    planar_camera_pose,
    pose_to_planar,
    raycast,
    render,
    save_segment,
)
from conftest import random_pose, rotvec_to_quat

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


_REFERENCE_SALTS = tuple(
    np.uint64((0x9E3779B97F4A7C15 * (0xA24BAED4963EE407 ** k + 1)) % 2 ** 64)
    for k in range(8)
)


def reference_hash_unit(*components):
    """Floats in [0, 1) from integer arrays: every component of every key
    mixed anew (the texture hash before shared stages were mixed once)."""
    acc = None
    for salt, comp in zip(_REFERENCE_SALTS, components):
        arr = np.asarray(comp).astype(np.int64).astype(np.uint64)
        mixed = _mix64(arr * np.uint64(0xD6E8FEB86659FD93) + salt)
        acc = mixed if acc is None else _mix64(acc ^ mixed)
    return (acc >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def reference_surface_color(axis, plane_idx, su, sv, seed):
    """Per-pixel texture: four full hash keys per smooth-octave pixel, one
    per block-octave pixel."""
    val = np.zeros_like(np.asarray(su, dtype=float))
    for k, (kind, wavelength, weight) in enumerate(_TEXTURE_OCTAVES):
        seeds = np.full_like(np.asarray(plane_idx), seed * 8 + k)
        fu, fv = su / wavelength, sv / wavelength
        lu = np.floor(fu).astype(np.int64)
        lv = np.floor(fv).astype(np.int64)
        if kind == "smooth":
            au, av = fu - lu, fv - lv
            au = au * au * (3.0 - 2.0 * au)
            av = av * av * (3.0 - 2.0 * av)

            def corner(du, dv):
                return reference_hash_unit(axis, plane_idx, lu + du, lv + dv, seeds)

            top = corner(0, 0) * (1.0 - au) + corner(1, 0) * au
            bot = corner(0, 1) * (1.0 - au) + corner(1, 1) * au
            val += weight * (top * (1.0 - av) + bot * av)
        else:
            val += weight * reference_hash_unit(axis, plane_idx, lu, lv, seeds)
    return np.floor(np.clip(val, 0.0, 0.999) * 255.0).astype(np.uint8)


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
    shade = reference_surface_color(axis, plane_idx, su, sv, world.texture_seed)
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


def reference_walk(world, origin, dirs):
    """The bounds-checked 2-D grid walk (``raycast`` before it dropped rays
    as they hit and stopped testing bounds): every ray stays in the arrays
    and leaves the walk when it hits a wall or the grid."""
    cs = world.cell_size
    grid_h, grid_w = world.occupancy.shape
    ox, oy = float(origin[0]), float(origin[1])
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 2)
    n = len(dirs)
    dx, dy = dirs[:, 0], dirs[:, 1]

    ix = np.full(n, int(math.floor(ox / cs)), dtype=np.int64)
    iy = np.full(n, int(math.floor(oy / cs)), dtype=np.int64)
    step_x = np.sign(dx).astype(np.int64)
    step_y = np.sign(dy).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_delta_x = np.where(dx != 0.0, cs / np.abs(dx), np.inf)
        t_delta_y = np.where(dy != 0.0, cs / np.abs(dy), np.inf)
        t_max_x = np.where(
            dx > 0.0, ((ix + 1) * cs - ox) / dx,
            np.where(dx < 0.0, (ix * cs - ox) / dx, np.inf))
        t_max_y = np.where(
            dy > 0.0, ((iy + 1) * cs - oy) / dy,
            np.where(dy < 0.0, (iy * cs - oy) / dy, np.inf))
    face_x = np.where(step_x > 0, 0, 1)
    face_y = np.where(step_y > 0, 2, 3)

    t_hit = np.full(n, np.inf)
    face = np.full(n, -1, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    for _ in range(grid_w + grid_h):
        if not active.any():
            break
        use_x = t_max_x <= t_max_y
        adv_x = active & use_x
        adv_y = active & ~use_x
        ix[adv_x] += step_x[adv_x]
        iy[adv_y] += step_y[adv_y]
        active &= (ix >= 0) & (ix < grid_w) & (iy >= 0) & (iy < grid_h)

        wall = np.zeros(n, dtype=bool)
        wall[active] = world.occupancy[iy[active], ix[active]]
        t_hit[wall] = np.where(use_x, t_max_x, t_max_y)[wall]
        face[wall] = np.where(use_x, face_x, face_y)[wall]
        active &= ~wall

        t_max_x[adv_x] += t_delta_x[adv_x]
        t_max_y[adv_y] += t_delta_y[adv_y]

    return t_hit, face


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
            uv, ok = project_array(K, p_cam)
            assert ok[0]
            assert np.max(np.abs(uv[0] - frame.landmark_uv[i])) < 1e-6
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


def assert_walks_equal(world, origin, dirs):
    """``raycast`` and ``reference_walk`` agree bit for bit, the sign of a
    zero ``t`` included."""
    t, face = raycast(world, origin, dirs)
    t_ref, face_ref = reference_walk(world, origin, dirs)
    assert t.tobytes() == t_ref.tobytes()
    assert face.dtype == face_ref.dtype and np.array_equal(face, face_ref)
    return t, face


def small_world(walls):
    """A closed 8x6 grid of 0.5 m cells with the given interior (ix, iy)
    wall cells."""
    occ = np.zeros((6, 8), dtype=bool)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True
    for ix, iy in walls:
        occ[iy, ix] = True
    return GridWorld(occupancy=occ, cell_size=0.5, wall_height=2.0,
                     texture_seed=0)


# every direction through cell corners and along the axes, plus random ones
LATTICE_DIRS = np.array([(a, b) for a in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
                         for b in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
                         if (a, b) != (0.0, 0.0)])


class TestWalkMatchesReference:
    def test_first_crossing_of_negative_zero(self):
        # origin on the grid line x = 1.5 with the wall cell to its west
        world = small_world([(2, 2)])
        t, face = assert_walks_equal(world, (1.5, 1.2), [(-1.0, 0.0), (-1.0, 0.3)])
        assert np.signbit(t).all() and (t == 0.0).all() and (face == 1).all()

    def test_negative_zero_survives_a_step_on_the_other_axis(self):
        # origin on the corner (1.5, 1.5): the ray first crosses x = 1.5 into
        # free cell (2, 3), then y = 1.5 into wall cell (2, 2), both at -0.0
        world = small_world([(2, 2)])
        t, face = assert_walks_equal(world, (1.5, 1.5), [(-1.0, -1.0)])
        assert np.signbit(t[0]) and t[0] == 0.0 and face[0] == 3

    @pytest.mark.parametrize("origin", [(1.5, 1.2), (1.2, 1.5), (1.5, 1.5),
                                        (2.0, 2.0), (1.25, 1.75), (2.6, 1.1)])
    def test_grid_lines_corners_axes_and_diagonals(self, origin):
        world = small_world([(2, 2), (4, 3), (5, 1), (1, 4)])
        rng = np.random.default_rng(3)
        dirs = np.vstack([LATTICE_DIRS, rng.normal(size=(40, 2))])
        assert_walks_equal(world, origin, dirs)

    def test_zero_direction(self):
        world = small_world([(2, 2)])
        t, face = assert_walks_equal(world, (1.2, 1.7), np.zeros((2, 2)))
        assert (t == np.inf).all() and (face == -1).all()
        # from inside a wall cell, the walk's first step stays in it
        t, face = assert_walks_equal(world, (1.2, 1.2), [(0.0, 0.0)])
        assert t[0] == np.inf and face[0] == 1

    @pytest.mark.parametrize("origin", [(1.2, 1.2), (1.0, 1.0), (1.5, 1.25)])
    def test_origin_inside_a_wall_cell(self, origin):
        world = small_world([(2, 2), (3, 2), (2, 3)])
        rng = np.random.default_rng(4)
        assert_walks_equal(world, origin,
                           np.vstack([LATTICE_DIRS, rng.normal(size=(40, 2))]))

    @pytest.mark.parametrize("name", ["corridor", "rooms", "campus"])
    def test_every_landmark_ray(self, name):
        world, _ = make_preset(name, seed=1)
        _, pos, _ = world.landmarks()
        rng = np.random.default_rng(19)
        points = random_free_points(world, rng, 8)
        # and origins on grid lines and corners
        lattice = np.round(random_free_points(world, rng, 8) * 4.0) / 4.0
        for p in np.vstack([points, lattice]):
            if world.free_point(p[0], p[1]):
                assert_walks_equal(world, p, pos[:, :2] - p[None, :])

    @pytest.mark.parametrize("origin", [(-0.1, 1.2), (1.2, 3.2), (4.0, 1.2),
                                        (0.3, 1.2), (1.2, 2.9), (3.7, 1.2),
                                        (math.nan, 1.2), (1.2, math.inf)])
    def test_origin_outside_the_walled_interior(self, origin):
        # beyond the grid, or in its boundary ring of wall cells
        world = small_world([])
        assert not world.in_interior(*origin)
        with pytest.raises(ValueError, match="interior"):
            raycast(world, origin, [(1.0, 0.0)])
        assert not world.line_of_sight(origin, (1.2, 1.2))
        assert world.line_of_sight((1.2, 1.2), (2.2, 2.2))


# limits in cells: none, a tenth of a cell and one cell; and in meters:
# the planner's obstacle range, far past every wall and none at all
LIMIT_CELLS = (0.0, 0.1, 1.0)
LIMIT_METERS = (3.5, 1e6, math.inf)


class TestLimitedWalk:
    @pytest.mark.parametrize("name", ["small", "corridor", "rooms", "campus"])
    def test_limited_walk_is_the_masked_full_walk(self, name):
        # bit for bit, the sign of a zero t included
        if name == "small":
            world = small_world([(2, 2), (4, 3), (5, 1), (1, 4), (3, 2)])
        else:
            world, _ = make_preset(name, seed=1)
        cs = world.cell_size
        rng = np.random.default_rng(43)
        # free points, and points on grid lines and grid corners, some of
        # them inside wall cells
        origins = np.vstack([random_free_points(world, rng, 6),
                             np.round(random_free_points(world, rng, 10)
                                      / (0.5 * cs)) * (0.5 * cs)])
        origins = [o for o in origins if world.in_interior(o[0], o[1])]
        # zero, axis-aligned and corner-diagonal directions at several
        # lengths, and random ones
        dirs = np.vstack([np.zeros((1, 2)), LATTICE_DIRS * cs,
                          rng.normal(size=(30, 2)) * rng.uniform(0.1, 3.0, (30, 1))])
        limits = [k * cs for k in LIMIT_CELLS] + list(LIMIT_METERS)
        for origin in origins:
            t_ref, face_ref = reference_walk(world, origin, dirs)
            # and each ray's own hit: the walk reaches it however its
            # running sums round
            for t_limit in limits + t_ref[np.isfinite(t_ref)].tolist():
                t, face = raycast(world, origin, dirs, t_limit)
                past = t_ref > t_limit
                assert t.tobytes() == np.where(past, np.inf, t_ref).tobytes()
                assert face.dtype == face_ref.dtype
                assert np.array_equal(face, np.where(past, -1, face_ref))

    def test_limit_masks_a_zero_direction_in_a_wall_cell(self):
        world = small_world([(2, 2)])
        for t_limit in (0.0, 1.0, 1e6):
            t, face = raycast(world, (1.2, 1.2), [(0.0, 0.0)], t_limit)
            assert t[0] == np.inf and face[0] == -1
        t, face = raycast(world, (1.2, 1.2), [(0.0, 0.0)], math.inf)
        assert t[0] == np.inf and face[0] == 1

    def test_limit_keeps_a_hit_exactly_at_it(self):
        world = small_world([(3, 2)])
        # from (1.25, 1.25) along +x the wall face x = 1.5 is 0.25 away
        for t_limit, expected in ((0.25, 0.25), (np.nextafter(0.25, 0.0), np.inf)):
            t, face = raycast(world, (1.25, 1.25), [(1.0, 0.0)], t_limit)
            assert t[0] == expected and face[0] == (0 if expected < np.inf else -1)

    @pytest.mark.parametrize("t_limit", [math.nan, -1e-300, -1.0, -math.inf])
    def test_limit_must_be_a_non_negative_number(self, t_limit):
        world = small_world([])
        with pytest.raises(ValueError, match="limit"):
            raycast(world, (1.2, 1.2), [(1.0, 0.0)], t_limit)

    @pytest.mark.parametrize("t_limit", [0.0, 3.5, math.inf])
    def test_no_rays(self, t_limit):
        world = small_world([])
        t, face = raycast(world, (1.2, 1.2), np.zeros((0, 2)), t_limit)
        assert t.shape == face.shape == (0,)
        assert t.dtype == np.float64 and face.dtype == np.int64


# origins anywhere in the interior of ``small_world``'s grid, on grid lines
# and corners too; directions random, through cell corners, along the axes
# or zero; limits none, or anywhere from zero to past every wall
_WALK_WORLD = small_world([(2, 2), (4, 3), (5, 1), (1, 4), (3, 2)])
_coord = st.one_of(st.floats(0.5, 3.5, exclude_max=True),
                   st.integers(2, 13).map(lambda k: k * 0.25))
_dir = st.one_of(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                 st.sampled_from([tuple(d) for d in LATTICE_DIRS] + [(0.0, 0.0)]))
_dirs = st.lists(_dir, max_size=8).map(lambda d: np.array(d, dtype=float).reshape(-1, 2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=_coord, y=_coord.filter(lambda y: y < 2.5), parts=st.lists(_dirs, max_size=4),
       t_limit=st.one_of(st.just(math.inf), st.floats(0.0, 10.0)))
# subnormal components: their crossings overflow to inf, without a warning
@example(x=1.2, y=1.7, parts=[np.array([[5e-324, 1.0], [-1.0, 0.0]]),
                              np.array([[-5e-324, 5e-324]])], t_limit=math.inf)
@example(x=1.2, y=1.7, parts=[np.array([[1.0, -5e-324]]), np.zeros((0, 2)),
                              LATTICE_DIRS], t_limit=0.5)
def test_walk_of_a_concatenation_is_the_concatenated_walks(x, y, parts, t_limit):
    """Each ray's walk is its own: one ``raycast`` over several direction
    sets gives, bit for bit, what a walk of each set alone gives. A render
    rests on it when its landmark sight-lines ride the depth walk."""
    t, face = raycast(_WALK_WORLD, (x, y), np.vstack([np.zeros((0, 2)), *parts]), t_limit)
    walks = [raycast(_WALK_WORLD, (x, y), d, t_limit) for d in parts]
    assert t.tobytes() == np.concatenate([np.zeros(0)] + [w[0] for w in walks]).tobytes()
    assert face.dtype == np.int64
    assert np.array_equal(face, np.concatenate(
        [np.zeros(0, dtype=np.int64)] + [w[1] for w in walks]))


@pytest.mark.parametrize("name", ["corridor", "rooms", "campus"])
def test_render_raises_no_warning(name):
    world, route = make_preset(name, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in route:
            render(world, planar_camera_pose(x, y, 0.4), K).observation()


# the members of a frame that has not rendered; a whole render adds
# ``_observation`` and nothing else
UNRENDERED = {"gt_pose", "_world", "_K", "_rot"}
# a range inside most views, the planner's obstacle range, and none
DEPTH_RANGES = (0.5, 3.5, math.inf)


def masked(depth, max_range):
    return np.where(depth <= max_range, depth, 0.0)


def assert_same_bytes(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestLazyFrame:
    def test_planning_rows_keep_nothing(self, corridor, monkeypatch):
        monkeypatch.setattr(simworld, "_shade", lambda *a: pytest.fail("rows shaded"))
        frame = render(corridor, planar_camera_pose(2.0, CORRIDOR_Y, 0.3), K)
        for stop in (64, K.height, 1000):
            assert frame.depth_rows(stop, 3.5).shape == (min(stop, K.height), K.width)
        assert frame.gt_pose.t[0] == 2.0
        assert vars(frame).keys() == UNRENDERED

    @pytest.mark.parametrize("color_first", [True, False])
    def test_first_access_matches_reference_and_is_kept(self, color_first):
        # whichever member is read first, the frame renders whole, once
        for name in ("corridor", "rooms", "campus"):
            world, route = make_preset(name, seed=1)
            for k, (x, y) in enumerate(route[:3]):
                pose = planar_camera_pose(x, y, 0.7 * k - 0.6)
                want = reference_render(world, pose, K)
                frame = render(world, pose, K)
                first = frame.color if color_first else frame.landmark_ids
                obs = frame.observation()
                assert first is (obs.color if color_first else obs.landmark_ids)
                assert_same_bytes((obs.color, obs.depth, obs.landmark_ids,
                                   obs.landmark_uv, obs.landmark_depth), want)
                assert frame.observation() is obs
                assert frame.depth is obs.depth and frame.color is obs.color
                assert frame.landmark_ids is obs.landmark_ids
                assert frame.landmark_uv is obs.landmark_uv
                assert frame.landmark_depth is obs.landmark_depth
                frame.depth_rows(64, 3.5)
                assert vars(frame).keys() == UNRENDERED | {"_observation"}

    def test_render_only_checks(self, corridor, monkeypatch):
        monkeypatch.setattr(simworld, "_render_rows",
                            lambda *a: pytest.fail("render walked the grid"))
        frame = render(corridor, planar_camera_pose(2.0, CORRIDOR_Y, 0.3), K)
        assert frame.gt_pose.t[0] == 2.0
        assert vars(frame).keys() == UNRENDERED

    @pytest.mark.parametrize("name", ["corridor", "rooms", "campus"])
    def test_depth_rows_are_the_top_of_depth(self, name):
        world, _ = make_preset(name, seed=1)
        rng = np.random.default_rng(41)
        poses = [planar_camera_pose(x, y, rng.uniform(-math.pi, math.pi),
                                    z=rng.uniform(0.3, 1.7))
                 for x, y in random_free_points(world, rng, 12)]
        # rays through grid corners, as in the per-pixel reference test
        lattice = np.round(random_free_points(world, rng, 8) * 4.0) / 4.0
        poses += [planar_camera_pose(x, y, k * math.pi / 4.0)
                  for k, (x, y) in enumerate(lattice) if world.free_point(x, y)]
        for pose in poses:
            depth = render(world, pose, K).depth
            frame = render(world, pose, K)
            before = {}
            for stop in (1, 63, 64, 65, 128, 129):
                for max_range in DEPTH_RANGES:
                    rows = frame.depth_rows(stop, max_range)
                    assert rows.shape == (min(stop, K.height), K.width)
                    assert rows.tobytes() == masked(depth[:stop], max_range).tobytes()
                    before[stop, max_range] = rows.tobytes()
                assert frame.depth_rows(stop).tobytes() == depth[:stop].tobytes()
            assert vars(frame).keys() == UNRENDERED    # every row: kept nothing
            assert frame.observation().depth.tobytes() == depth.tobytes()
            for (stop, max_range), rows in before.items():
                assert frame.depth_rows(stop, max_range).tobytes() == rows
            assert np.shares_memory(frame.depth_rows(64), frame.depth)

    @pytest.mark.parametrize("stop", [0, -1, -128])
    def test_depth_rows_needs_a_row(self, corridor, stop):
        frame = render(corridor, planar_camera_pose(2.0, CORRIDOR_Y, 0.3), K)
        with pytest.raises(ValueError, match="stop"):
            frame.depth_rows(stop)
        frame.observation()
        with pytest.raises(ValueError, match="stop"):
            frame.depth_rows(stop)

    @pytest.mark.parametrize("max_range", [math.nan, 0.0, -1.0, -math.inf])
    def test_depth_rows_needs_a_positive_range(self, corridor, max_range):
        frame = render(corridor, planar_camera_pose(2.0, CORRIDOR_Y, 0.3), K)
        with pytest.raises(ValueError, match="max_range"):
            frame.depth_rows(64, max_range)

    def test_annotate_keeps_existing_images(self, corridor, monkeypatch):
        poses = [planar_camera_pose(x, CORRIDOR_Y, 0.1) for x in (2.0, 4.0)]
        image = np.full((K.height, K.width), 7, dtype=np.uint8)
        topo = TopoMetricMap(
            nodes=[MapNode(id=i, pose=p, descriptor=np.eye(4, dtype=np.float32)[0],
                           image=img)
                   for i, (p, img) in enumerate(zip(poses, (image, None)))],
            cng_edges=[], cvg_edges=[], descriptor_dim=4)
        shaded = []
        shade = simworld._shade
        monkeypatch.setattr(simworld, "_shade",
                            lambda *a: shaded.append(1) or shade(*a))
        annotate_map_with_landmarks(topo, K, corridor)
        assert len(shaded) == 2                 # one whole render a node
        assert topo.nodes[0].image is image and (image == 7).all()
        for node in topo.nodes:
            color, _, ids, uv, lm_depth = reference_render(corridor, node.pose, K)
            assert np.array_equal(node.landmark_ids, ids)
            assert np.array_equal(node.landmark_uv, uv)
            assert np.array_equal(node.landmark_depth, lm_depth)
        assert np.array_equal(topo.nodes[1].image, color)

    def test_a_full_render_walks_the_grid_once(self, corridor, monkeypatch):
        walks = []
        walk = simworld.raycast
        monkeypatch.setattr(simworld, "raycast",
                            lambda *a: walks.append(len(a[2])) or walk(*a))
        pose = planar_camera_pose(3.0, CORRIDOR_Y, -0.6)
        _, sight = simworld._landmark_candidates(corridor, pose.t,
                                                 pose.rotation_matrix(), K)
        assert len(sight) > 0
        obs = render(corridor, pose, K).observation()
        assert len(walks) == 1 and len(obs.landmark_ids) > 0
        # the columns and every candidate's sight-line, in the one walk
        simworld._render_rows(corridor, pose.t, pose.rotation_matrix(), K, K.height)
        assert walks[0] == walks[1] + len(sight)
        # a read of any member of a fresh frame is that one walk, and the
        # rest of the frame walks no more
        frame = render(corridor, pose, K)
        assert np.array_equal(frame.landmark_ids, obs.landmark_ids)
        assert len(walks) == 3 and walks[2] == walks[0]
        frame.depth, frame.color, frame.observation(), frame.depth_rows(64, 3.5)
        assert len(walks) == 3
        # a planning tick's rows walk their columns alone
        render(corridor, pose, K).depth_rows(64, 3.5)
        assert len(walks) == 4 and walks[3] <= walks[1]

    @pytest.mark.parametrize("name", ["corridor", "rooms", "campus"])
    def test_annotations_match_a_walk_of_their_own(self, name):
        # on the mapping drive's frames, bit for bit
        world, route = make_preset(name, seed=7)
        rec = generate_segment(world, route, K, camera_rate=2.0, seed=1,
                               noise=OdomNoise.zero())
        for f in rec.segment.frames:
            rot = f.pose.rotation_matrix()
            depth = simworld._render_rows(world, f.pose.t, rot, K, K.height)[0]
            assert f.obs.depth.tobytes() == depth.tobytes()
            assert_same_bytes((f.obs.landmark_ids, f.obs.landmark_uv, f.obs.landmark_depth),
                              two_walk_annotations(world, f.pose, K))


def two_walk_annotations(world, pose, K):
    """The landmark annotations as a render found them with a grid walk of
    their own, apart from the depth's: the candidates in view, facing the
    camera and in range whose sight-line meets no wall first, in id order."""
    ids, pos, nrm = world.landmarks()
    cam = pose.t
    rot = pose.rotation_matrix()
    p_cam = (pos - cam) @ rot
    uv, in_view = project_array(K, p_cam)
    facing = np.einsum("ij,ij->i", nrm, cam[None, :] - pos) > 1e-9
    in_range = np.linalg.norm(pos - cam, axis=1) <= LANDMARK_RANGE
    cand = np.nonzero(in_view & facing & in_range)[0]
    t, _ = raycast(world, cam, pos[cand, :2] - cam[None, :2])
    sel = cand[t >= 1.0 - 1e-6]
    sel = sel[np.argsort(ids[sel])]
    return ids[sel], uv[sel], p_cam[sel, 2]


def wall_face_spans(world):
    """{(axis, plane_idx): (su_lo, su_hi)} over the wall faces of every grid
    plane that carries one, from a loop over pairs of neighbouring cells."""
    occ, cs = world.occupancy, world.cell_size
    h, w = occ.shape
    spans = {}

    def add(key, lo):
        old = spans.get(key, (lo, lo + cs))
        spans[key] = (min(old[0], lo), max(old[1], lo + cs))

    for iy in range(h):
        for ix in range(w):
            if ix + 1 < w and occ[iy, ix] != occ[iy, ix + 1]:
                add((0, ix + 1), iy * cs)
            if iy + 1 < h and occ[iy, ix] != occ[iy + 1, ix]:
                add((1, iy + 1), ix * cs)
    return spans


def around(x):
    """x and its neighbouring floats."""
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


def shade_points(world, points):
    """``_surface_color`` of (axis, plane_idx, su, sv) rows."""
    axis, plane_idx, su, sv = zip(*points)
    return simworld._surface_color(world, np.array(axis), np.array(plane_idx),
                                   np.array(su, dtype=float), np.array(sv, dtype=float))


def assert_points_match_reference(world, points):
    axis, plane_idx, su, sv = (np.array(c) for c in zip(*points))
    expected = reference_surface_color(axis, plane_idx, su.astype(float),
                                       sv.astype(float), world.texture_seed)
    assert np.array_equal(shade_points(world, points), expected)


@pytest.mark.parametrize("name", ["corridor", "rooms", "campus"])
class TestTexelTable:
    def test_extents_and_wall_height_match_reference(self, name):
        world, _ = make_preset(name, seed=1)
        width, height = world.extent
        points = [(2, 0, u, v) for u in [-0.0, *around(0.0), *around(width)]
                  for v in [-0.0, *around(0.0), *around(height)]]
        heights = [-0.0, *around(0.0), *around(world.wall_height)]
        for (axis, plane), (lo, hi) in wall_face_spans(world).items():
            points += [(axis, plane, u, v) for u in (*around(lo), *around(hi))
                       for v in heights]
        assert_points_match_reference(world, points)

    def test_lattice_multiples_match_reference(self, name):
        world, _ = make_preset(name, seed=1)
        width, height = world.extent
        spans = wall_face_spans(world)
        for _, wl, _ in _TEXTURE_OCTAVES:
            def multiples(lo, hi):
                at = np.arange(math.ceil(lo / wl), math.floor(hi / wl) + 1) * wl
                return np.concatenate([at, np.nextafter(at, -np.inf)])
            points = [(2, 0, u, v) for u in multiples(0.0, width)
                      for v in multiples(0.0, height)]
            for (axis, plane), (lo, hi) in spans.items():
                points += [(axis, plane, u, v) for u in multiples(lo, hi)
                           for v in multiples(0.0, world.wall_height)]
            assert_points_match_reference(world, points)

    def test_point_outside_the_table_raises(self, name):
        world, _ = make_preset(name, seed=1)
        width, height = world.extent
        h, w = world.occupancy.shape
        spans = wall_face_spans(world)
        (axis, plane), (lo, hi) = next(iter(spans.items()))
        mid, wh, beyond = 0.5 * (lo + hi), world.wall_height, 2.0 * _TEXEL_MARGIN
        inside = (axis, plane, mid, 1.0)
        outside = [(2, 0, -beyond, 1.0), (2, 0, width + beyond, 1.0),
                   (2, 0, 1.0, -beyond), (2, 0, 1.0, height + beyond),
                   (axis, plane, lo - beyond, 1.0), (axis, plane, hi + beyond, 1.0),
                   (axis, plane, mid, -beyond), (axis, plane, mid, wh + beyond),
                   (axis, plane, math.nan, 1.0), (2, 0, 1.0, math.nan),
                   (2, 1, 1.0, 1.0), (axis, -1, mid, 1.0),
                   (axis, max(w, h) + 1, mid, 1.0)]
        # planes without a wall face: the outer side of the boundary ring
        # and any interior plane between two cells alike in every row
        outside += [(a, i, 1.0, 1.0) for a, n in ((0, w), (1, h))
                    for i in range(n + 1) if (a, i) not in spans]
        assert_points_match_reference(world, [inside])
        for point in outside:
            with pytest.raises(ValueError, match="outside the texel table"):
                shade_points(world, [inside, point])

    def test_texture_seed_changes_the_shading(self, name):
        world, route = make_preset(name, seed=1)
        other = dataclasses.replace(world, texture_seed=2)
        pose = planar_camera_pose(*route[0], 0.3)
        frame, other_frame = render(world, pose, K), render(other, pose, K)
        assert np.array_equal(frame.depth, other_frame.depth)
        assert not np.array_equal(frame.color, other_frame.color)
        assert np.array_equal(other_frame.color, reference_render(other, pose, K)[0])


def test_texel_table_built_once_per_world(monkeypatch):
    builds = []
    build = simworld._build_texel_table
    monkeypatch.setattr(simworld, "_build_texel_table",
                        lambda world: builds.append(world) or build(world))
    world, route = make_preset("rooms", seed=1)
    frames = [render(world, planar_camera_pose(*route[0], yaw), K) for yaw in (0.3, 2.0)]
    assert not builds                   # depth alone reads no texel
    for frame in frames:
        frame.color
    assert builds == [world]
    other, _ = make_preset("rooms", seed=1)
    render(other, frames[0].gt_pose, K).color
    assert len(builds) == 2 and builds[1] is other


def test_landmark_table_kept_per_world(corridor):
    assert corridor.landmarks() is corridor.landmarks()


@pytest.mark.parametrize("preset, count, digest", [
    ("corridor", 1232, "2b9c4fc5b005a576f5c48cfc927c5284e9cbb88157c8d41b0916f471d0684898"),
    ("rooms", 1728, "036c5c8031a9fa52478346b1fd31e3f7b89b5409eb2dabdf14a29047b792c9f4"),
    ("campus", 3824, "4813f92fe79034d65391b8bbab86c2e89b9d4587e4bb54662f348135f4e1cc42"),
])
def test_landmark_table_pinned(preset, count, digest):
    # ids, positions and normals of every wall face's landmarks, byte for
    # byte: the oracle matcher's correspondences and every pin rest on them
    world, _ = make_preset(preset, seed=7)
    table = world.landmarks()
    assert [len(column) for column in table] == [count] * 3
    # ids strictly ascend: a render's annotations keep this order unsorted
    assert (np.diff(table[0]) > 0).all()
    assert hashlib.sha256(b"".join(column.tobytes() for column in table)).hexdigest() == digest


# ---------------------------------------------------------------------------
# the planning tick's float and index forms against the array forms they
# replaced, kept here as references
# ---------------------------------------------------------------------------

def reference_planar_camera_pose(x, y, yaw, z=simworld.CAMERA_HEIGHT_DEFAULT):
    """The level camera through its rotation matrix and ``matrix_to_quat``."""
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[s, 0.0, c],
                    [-c, 0.0, s],
                    [0.0, -1.0, 0.0]])
    return Pose.from_rt(rot, np.array([x, y, z]))


def reference_free_disc(world, x, y, radius):
    """The disc test with its 8 directions computed on every call."""
    if not world.free_point(x, y):
        return False
    for k in range(8):
        ang = k * math.pi / 4.0
        if not world.free_point(x + radius * math.cos(ang),
                                y + radius * math.sin(ang)):
            return False
    return True


_REFERENCE_ODOM_FRAME_INVERSE = reference_planar_camera_pose(0.0, 0.0, 0.0).inverse()


def reference_step(robot, world, cmd, dt):
    """``SimRobot.step`` with ``np.clip`` and the references above."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    v = float(np.clip(cmd[0], -simworld.V_MAX, simworld.V_MAX))
    w = float(np.clip(cmd[1], -simworld.W_MAX, simworld.W_MAX))
    if abs(w) < 1e-12:
        nx = robot.x + v * dt * math.cos(robot.yaw)
        ny = robot.y + v * dt * math.sin(robot.yaw)
        nyaw = robot.yaw
    else:
        nx = robot.x + v / w * (math.sin(robot.yaw + w * dt) - math.sin(robot.yaw))
        ny = robot.y - v / w * (math.cos(robot.yaw + w * dt) - math.cos(robot.yaw))
        nyaw = robot.yaw + w * dt
    if not reference_free_disc(world, nx, ny, simworld.COLLISION_RADIUS):
        nx, ny = robot.x, robot.y
    c, s = math.cos(robot.yaw), math.sin(robot.yaw)
    d_fwd = c * (nx - robot.x) + s * (ny - robot.y)
    d_left = -s * (nx - robot.x) + c * (ny - robot.y)
    d_yaw = simworld.wrap_angle(nyaw - robot.yaw)
    length = math.hypot(d_fwd, d_left)
    n1, n2, n3 = robot._rng.normal(0.0, 1.0, 3)
    sig_t = robot.noise.sigma_t_per_m * length
    sig_r = robot.noise.sigma_r_per_rad * abs(d_yaw)
    od_fwd = d_fwd + n1 * sig_t
    od_left = d_left + n2 * sig_t
    od_yaw = d_yaw + n3 * sig_r + robot.noise.yaw_bias_per_m * length
    delta = _REFERENCE_ODOM_FRAME_INVERSE.compose(
        reference_planar_camera_pose(od_fwd, od_left, od_yaw))
    robot.x, robot.y, robot.yaw = nx, ny, simworld.wrap_angle(nyaw)
    return reference_planar_camera_pose(robot.x, robot.y, robot.yaw), delta


def reference_render_rows(world, cam, rot, K, stop, t_limit=math.inf,
                          sight=np.zeros((0, 2))):
    """``_render_rows`` with its column directions taken by a boolean mask
    and its pixel-to-walk index from the mask's ``cumsum``."""
    dirs_world = simworld._camera_rays(K)[:stop * K.width] @ rot.T
    col_x = dirs_world[:, 0].reshape(stop, K.width).T.ravel()
    col_y = dirs_world[:, 1].reshape(stop, K.width).T.ravel()
    new = np.ones(col_x.size, dtype=bool)
    new[1:] = (col_x[1:] != col_x[:-1]) | (col_y[1:] != col_y[:-1])
    cols = np.column_stack((col_x[new], col_y[new]))
    t_all, face_all = raycast(world, cam, np.concatenate((cols, sight)), t_limit)
    walk = (np.cumsum(new) - 1).reshape(K.width, stop).T.ravel()
    t_wall, face = t_all[walk], face_all[walk]
    dz = dirs_world[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_floor = np.where(dz < 0.0, -cam[2] / dz, np.inf)
        floor = t_floor <= t_wall
        wall = ~floor & (cam[2] + dz * t_wall <= world.wall_height)
    t = np.where(floor, t_floor, np.where(wall, t_wall, 0.0))
    return t.reshape(stop, K.width), (dirs_world, floor, wall, face), t_all[len(cols):]


def outcome(call, *args):
    """What a call gives: ('ok', its value) or the type and text of what
    it raised."""
    try:
        return "ok", call(*args)
    except Exception as exc:    # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def pose_bytes(pose):
    return pose.t.tobytes() + pose.q.tobytes()


_yaw = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
                     3 * math.pi / 2, -3 * math.pi / 2, 2 * math.pi, 5e-324, -5e-324]),
    st.floats(-1e3, 1e3))
_position = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


class TestPlanarCameraPose:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(x=_position, y=_position, yaw=_yaw,
           z=st.one_of(st.just(simworld.CAMERA_HEIGHT_DEFAULT), st.floats(-1e3, 1e3)))
    def test_is_the_matrix_path_bit_for_bit(self, x, y, yaw, z):
        got, want = planar_camera_pose(x, y, yaw, z), reference_planar_camera_pose(x, y, yaw, z)
        assert pose_bytes(got) == pose_bytes(want)

    def test_random_yaws_bit_for_bit(self):
        rng = np.random.default_rng(12)
        yaws = np.concatenate([rng.uniform(-math.pi, math.pi, 20000),
                               rng.uniform(-1e3, 1e3, 5000),
                               np.arange(-8, 9) * (math.pi / 2)])
        for yaw in yaws.tolist():
            assert (pose_bytes(planar_camera_pose(1.0, -2.0, yaw))
                    == pose_bytes(reference_planar_camera_pose(1.0, -2.0, yaw)))

    @pytest.mark.parametrize("x, yaw", [(0.0, math.nan), (0.0, math.inf),
                                        (0.0, -math.inf), (math.nan, 0.3),
                                        (math.inf, -2.0)])
    def test_non_finite_input_raises_the_same(self, x, yaw):
        got = outcome(planar_camera_pose, x, 1.0, yaw)
        assert got[0] is ValueError
        assert got == outcome(reference_planar_camera_pose, x, 1.0, yaw)


def reference_render_checks(world, pose, K):
    """``render``'s checks on numpy values, as they were before they read
    plain floats; returns the rotation the frame keeps."""
    cam = pose.t
    if not world.free_point(cam[0], cam[1]):
        raise PoseInCollision(f"camera at ({cam[0]:.3f}, {cam[1]:.3f}) is inside a wall")
    if not 0.0 < cam[2] < world.wall_height:
        raise ValueError("camera height must lie in (0, wall_height)")
    rot = pose.rotation_matrix()
    if np.max(np.abs(rot[:, 1] - (0.0, 0.0, -1.0))) > 1e-9:
        raise ValueError("camera must be level (camera y axis along world -z)")
    return rot


def reference_pose_to_planar(pose):
    """``pose_to_planar`` reading the forward axis off the rotation matrix."""
    fwd = pose.rotation_matrix()[:, 2]
    return float(pose.t[0]), float(pose.t[1]), math.atan2(fwd[1], fwd[0])


def tilted(pose, rotvec):
    """``pose`` turned by a rotation vector in its own camera frame."""
    return Pose(pose.t, quat_multiply(pose.q, rotvec_to_quat(rotvec)))


class TestTickChecksOnPlainFloats:
    """``render``'s checks and ``pose_to_planar`` read plain floats; the
    references are the numpy code they replaced."""

    @pytest.mark.parametrize("name", ["corridor", "rooms", "campus"])
    def test_render_accepts_and_rejects_as_before(self, name):
        world, _ = make_preset(name, seed=4)
        rng = np.random.default_rng(8)
        width, height = world.extent
        poses = []
        for x, y in rng.uniform((-1.0, -1.0), (width + 1.0, height + 1.0), (150, 2)):
            level = planar_camera_pose(x, y, rng.uniform(-math.pi, math.pi),
                                       z=rng.choice([1.0, 0.0, -0.0, world.wall_height,
                                                     math.nextafter(world.wall_height, 0.0),
                                                     5e-324, rng.uniform(-0.5, 3.0)]))
            # tilts about the camera's x and z axes near the 1e-9 level test,
            # and any rotation at all
            angle = rng.choice([0.0, 0.5e-9, 0.99e-9, 1.01e-9, 2e-9, 0.1]) * rng.choice([-1, 1])
            axis = rng.integers(3)
            poses += [level, tilted(level, np.eye(3)[axis] * angle),
                      Pose(level.t, rng.normal(size=4))]
        poses += [random_pose(rng) for _ in range(50)]
        outcomes = set()
        for pose in poses:
            want = outcome(reference_render_checks, world, pose, K)
            got = outcome(render, world, pose, K)
            if want[0] == "ok":
                frame = got[1]
                assert frame.gt_pose is pose and frame._rot.tobytes() == want[1].tobytes()
                outcomes.add("ok")
            else:
                assert got == want
                outcomes.add(want[1].split(" ")[1])
        # accepted, in collision, too high or low, and not level
        assert outcomes == {"ok", "at", "height", "must"}, outcomes

    def test_pose_to_planar_bit_for_bit(self):
        rng = np.random.default_rng(19)
        poses = [planar_camera_pose(*rng.uniform(-50.0, 50.0, 2), yaw)
                 for yaw in rng.uniform(-4.0, 4.0, 500)]
        poses += [planar_camera_pose(0.0, -0.0, k * math.pi / 4.0) for k in range(-8, 9)]
        poses += [random_pose(rng) for _ in range(500)]
        poses += [Pose(np.zeros(3), q) for q in ([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                                                 [0.5, -0.5, 0.5, -0.5], [0.0, 0.0, 0.0, 1.0])]
        for pose in poses:
            got, want = pose_to_planar(pose), reference_pose_to_planar(pose)
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_free_disc_directions_are_the_per_call_ones():
    world, _ = make_preset("rooms", seed=2)
    rng = np.random.default_rng(5)
    width, height = world.extent
    discs = np.column_stack([rng.uniform((0.0, 0.0), (width, height), (3000, 2)),
                             rng.uniform(0.0, 1.0, 3000)]).tolist()
    hits = [world.free_disc(x, y, r) for x, y, r in discs]
    assert hits == [reference_free_disc(world, x, y, r) for x, y, r in discs]
    assert 0 < sum(hits) < len(hits)


# commands the planner never sends, mixed in: each component NaN, infinite,
# a signed zero, a speed limit exactly, or just on either side of the
# straight-motion test
_ODD_COMMANDS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 1.5, -1.5,
                 1e-12, -1e-12, 1e-13, 5e-324)


class TestRobotStepMatchesReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_command_sequences(self, seed):
        world, _ = make_preset("rooms", seed=seed)
        rng = np.random.default_rng(seed)
        (x, y), = random_free_points(world, rng, 1)
        yaw = rng.uniform(-math.pi, math.pi)
        robot = SimRobot(x, y, yaw, seed=seed)
        ref = SimRobot(x, y, yaw, seed=seed)
        blocked = raised = 0
        for _ in range(400):
            cmd = rng.uniform((-0.5, -3.0), (2.0, 3.0)).tolist()
            for j in range(2):
                if rng.uniform() < 0.08:
                    cmd[j] = _ODD_COMMANDS[rng.integers(len(_ODD_COMMANDS))]
            dt = 0.1 if rng.uniform() < 0.97 else float(rng.choice([0.0, -0.1, math.nan]))
            before = (ref.x, ref.y)
            want = outcome(reference_step, ref, world, cmd, dt)
            got = outcome(robot.step, world, cmd, dt)
            if want[0] == "ok":
                assert got[0] == "ok"
                assert [pose_bytes(p) for p in got[1]] == [pose_bytes(p) for p in want[1]]
                blocked += (ref.x, ref.y) == before and abs(cmd[0]) > 0.5
            else:
                assert got == want
                raised += 1
            assert (robot.x, robot.y, robot.yaw) == (ref.x, ref.y, ref.yaw)
            assert robot._rng.bit_generator.state == ref._rng.bit_generator.state
        assert blocked > 0 and raised > 0, (blocked, raised)


@pytest.mark.parametrize("name", ["corridor", "rooms", "campus"])
def test_render_rows_match_the_cumsum_walk_index(name):
    world, _ = make_preset(name, seed=3)
    rng = np.random.default_rng(17)
    poses = [planar_camera_pose(x, y, rng.uniform(-math.pi, math.pi),
                                z=rng.uniform(0.3, 1.7))
             for x, y in random_free_points(world, rng, 6)]
    # level rays along the grid axes and through grid corners
    lattice = np.round(random_free_points(world, rng, 6) * 4.0) / 4.0
    poses += [planar_camera_pose(x, y, k * math.pi / 4.0)
              for k, (x, y) in enumerate(lattice) if world.free_point(x, y)]
    for pose in poses:
        cam, rot = pose.t, pose.rotation_matrix()
        sight = rng.normal(0.0, 3.0, (5, 2))
        for stop in (1, 2, 17, 63, 64, 65, 127, 128):
            for t_limit in (3.5, math.inf):
                depth, walk, t_sight = simworld._render_rows(
                    world, cam, rot, K, stop, t_limit, sight)
                ref_depth, ref_walk, ref_sight = reference_render_rows(
                    world, cam, rot, K, stop, t_limit, sight)
                assert depth.tobytes() == ref_depth.tobytes()
                assert all(a.tobytes() == b.tobytes() for a, b in zip(walk, ref_walk))
                assert t_sight.tobytes() == ref_sight.tobytes()
                if stop < K.height:
                    rows = render(world, pose, K).depth_rows(stop, t_limit)
                    assert rows.tobytes() == masked(ref_depth, t_limit).tobytes()


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

    @pytest.mark.parametrize("bad", [(math.inf, CORRIDOR_Y), (2.0, -math.inf),
                                     (math.nan, CORRIDOR_Y)])
    def test_waypoint_not_finite_raises(self, corridor, bad):
        with pytest.raises(ValueError, match=r"waypoint \(.*\) is not finite"):
            generate_segment(corridor, [(2.0, CORRIDOR_Y), bad], K, seed=0)

    # one waypoint gives a 30 s time budget: the step cap allows 3,333 Hz
    @pytest.mark.parametrize("rate", [1e308, 1e7, 4000.0])
    def test_odom_rate_over_the_step_cap_raises(self, corridor, rate):
        with pytest.raises(ValueError, match=re.escape(
                f"odom_rate {rate} would take over {MAX_DRIVE_STEPS} steps")):
            generate_segment(corridor, [(2.0, CORRIDOR_Y)], K, odom_rate=rate)

    def test_odom_rate_under_the_step_cap_accepted(self, corridor):
        rec = generate_segment(corridor, [(2.0, CORRIDOR_Y)], K, odom_rate=3000.0)
        assert len(rec.segment) == 1

    def test_unreachable_waypoint(self, corridor):
        # waypoint inside free space but walled off: cell behind the end wall
        with pytest.raises((UnreachableWaypoint, ValueError)):
            generate_segment(corridor, [(2.0, CORRIDOR_Y), (2.0, 4.4)], K,
                             seed=0)

    def test_segment_directory_roundtrip(self, corridor, tmp_path):
        rec = generate_segment(corridor, [(2.0, CORRIDOR_Y), (5.0, CORRIDOR_Y)],
                               K, camera_rate=1.0, seed=9)
        # the same drive with every other frame stripped of its landmark
        # annotations, as real sensors leave them, saved over the first
        stripped = dataclasses.replace(rec, segment=dataclasses.replace(
            rec.segment, frames=[
                dataclasses.replace(fr, obs=dataclasses.replace(
                    fr.obs, landmark_ids=None, landmark_uv=None,
                    landmark_depth=None)) if k % 2 else fr
                for k, fr in enumerate(rec.segment.frames)]))
        for recording in (rec, stripped):
            save_segment(recording, tmp_path / "seg")
            loaded = load_segment(tmp_path / "seg")
            seg, odom = loaded.segment, loaded.odometry
            assert len(seg) == len(recording.segment)
            assert len(odom) == len(recording.odometry)
            assert seg.camera == K
            for a, b in zip(seg.frames, recording.segment.frames):
                assert np.array_equal(a.obs.color, b.obs.color)
                # depth keeps its rendered float64 bits
                assert a.obs.depth.dtype == b.obs.depth.dtype == np.float64
                assert a.obs.depth.tobytes() == b.obs.depth.tobytes()
                assert a.pose == b.pose
                assert a.timestamp == b.timestamp
                if b.obs.landmark_ids is None:
                    # no annotations stays no annotations, not an empty set
                    assert a.obs.landmark_ids is a.obs.landmark_uv is \
                        a.obs.landmark_depth is None
                    with pytest.raises(ValueError, match="landmark annotations"):
                        match_oracle(a.obs, a.obs)
                    continue
                assert np.array_equal(a.obs.landmark_ids, b.obs.landmark_ids)
                assert np.array_equal(a.obs.landmark_uv, b.obs.landmark_uv)
                assert np.array_equal(a.obs.landmark_depth, b.obs.landmark_depth)
            for (ta, da), (tb, db) in zip(odom, recording.odometry):
                assert ta == tb and da == db
        assert sum(1 for fr in stripped.segment.frames
                   if fr.obs.landmark_ids is None) == len(rec.segment) // 2 > 0

    def test_float32_depth_of_earlier_writers_not_read(self, corridor, tmp_path):
        rec = generate_segment(corridor, [(2.0, CORRIDOR_Y), (3.0, CORRIDOR_Y)],
                               K, camera_rate=1.0, seed=9)
        save_segment(rec, tmp_path / "seg")
        depth = tmp_path / "seg" / "depth"
        for k, frame in enumerate(rec.segment.frames):
            write_raw(depth / f"{k}.f32", frame.obs.depth, "<f4")
            (depth / f"{k}.f64").unlink()
        with pytest.raises(FileNotFoundError, match=r"0\.f64"):
            load_segment(tmp_path / "seg")

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


    @pytest.mark.parametrize("ts", [["nan"], ["0", "inf"], ["-inf", "0"]],
                             ids=["one-nan", "last-inf", "first-minus-inf"])
    def test_non_finite_timestamps_rejected(self, corridor, tmp_path, ts):
        rec = generate_segment(corridor, [(2.0, CORRIDOR_Y), (3.0, CORRIDOR_Y)],
                               K, camera_rate=1.0, seed=9)
        save_segment(rec, tmp_path / "seg")
        path = tmp_path / "seg" / "poses.csv"
        header, *rows = path.read_text().splitlines()
        rows = [row.split(",") for row in rows[:len(ts)]]
        for row, value in zip(rows, ts):
            row[1] = value
        path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
        with pytest.raises(ValueError, match="finite"):
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

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (5,)])
    def test_empty_or_flat_grid_rejected(self, shape):
        with pytest.raises(ValueError, match="non-empty 2-D grid"):
            GridWorld(occupancy=np.ones(shape, dtype=bool), cell_size=0.5,
                      wall_height=2.0, texture_seed=0)

    @pytest.mark.parametrize("name", ["cell_size", "wall_height"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -0.5])
    def test_size_not_finite_and_positive_rejected(self, name, value):
        sizes = {"cell_size": 0.5, "wall_height": 2.0, name: value}
        with pytest.raises(ValueError, match=f"{name} .* finite and positive"):
            GridWorld(occupancy=np.ones((3, 3), dtype=bool), texture_seed=0, **sizes)

    @pytest.mark.parametrize("seed", [-1, 2 ** 60, 2 ** 64])
    def test_texture_seed_out_of_hash_range_rejected(self, seed):
        with pytest.raises(ValueError, match=f"texture_seed {seed} must be "):
            GridWorld(occupancy=np.ones((3, 3), dtype=bool), cell_size=0.5,
                      wall_height=2.0, texture_seed=seed)

    def test_largest_texture_seed_renders(self):
        world, route = make_preset("corridor", seed=2 ** 60 - 1)
        frame = render(world, planar_camera_pose(*route[0], 0.3), K)
        assert frame.color.any()

    def test_world_keeps_its_own_read_only_grid(self):
        occ = np.ones((4, 5), dtype=bool)
        occ[1:3, 1:4] = False
        world = GridWorld(occupancy=occ, cell_size=0.5, wall_height=2.0,
                          texture_seed=0)
        assert world.occupancy is not occ
        occ[1, 1] = True
        assert not world.occupancy[1, 1]
        with pytest.raises(ValueError, match="read-only"):
            world.occupancy[1, 1] = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            world.occupancy = occ
        assert not world.occupancy[1, 1]

    def test_equality_by_value(self, corridor, tmp_path):
        corridor.landmarks()        # a kept cache does not take part
        path = tmp_path / "world.txt"
        corridor.save(path)
        loaded = GridWorld.load(path)
        assert loaded == corridor and not loaded != corridor
        seed = corridor.texture_seed
        assert dataclasses.replace(corridor, texture_seed=seed + 1) != corridor
        assert dataclasses.replace(corridor, wall_height=2.5) != corridor
        occ = corridor.occupancy.copy()
        occ[4, 10] = not occ[4, 10]
        assert dataclasses.replace(corridor, occupancy=occ) != corridor
        assert corridor != "corridor"

    def test_presets_connected_and_routed(self):
        for name in ("corridor", "rooms", "campus"):
            world, route = make_preset(name, seed=11)
            assert len(route) >= 2 or name == "corridor"
            for wp in route:
                assert world.free_point(wp[0], wp[1])
