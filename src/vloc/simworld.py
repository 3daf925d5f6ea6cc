"""Deterministic 2.5D grid-world simulator.

A boolean occupancy grid with walls of fixed height and a textured floor is
rendered into depth and grayscale images. The camera is level, so a pixel
ray's path across the grid depends only on its image column: a 2-D grid
walk (Amanatides & Woo 1987) along the column's direction finds its first
wall crossing, and each pixel is then floor, wall or sky in closed form
from its vertical slope. Surface color is a pure hash of (cell, face, 5 cm-quantized
surface coordinate), so the same wall point renders the same value from any
view. Landmarks seeded on wall faces give the oracle matcher ground-truth
correspondences. A unicycle robot with drifting odometry and a waypoint
pursuit controller generate mapping/localization segments.

Grid indexing is ``occupancy[iy, ix]``; world x spans ``ix * cell_size`` and
row 0 of the text format is the smallest y. The camera is level (its y axis
is world -z) and must stay below ``wall_height``, which makes ignoring
wall-top faces exact.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dataio import (
    line_errors,
    read_csv_rows,
    read_f32,
    read_pgm,
    read_trajectory,
    write_f32,
    write_pgm,
    write_trajectory,
)
from .errors import FormatError, PoseInCollision, UnreachableWaypoint
from .geometry import CameraIntrinsics, Pose, fmt17, project_array, unproject
from .mapgraph import Observation, Segment, SegmentFrame

LANDMARKS_PER_FACE = 8
CAMERA_HEIGHT_DEFAULT = 1.0
# the simulated robot: speed limits and the disc that collides with walls
V_MAX = 1.0
W_MAX = 1.5
COLLISION_RADIUS = 0.25
# the pursuit controller counts a waypoint reached within this distance
WAYPOINT_RADIUS = 0.3
# routes keep this clearance from walls on every straight leg
ROUTE_CLEARANCE = 0.5
# how far, in grid cells, a preset anchor may move to reach free space
SNAP_RADIUS_CELLS = 8
_FACE_NORMALS = {0: (-1.0, 0.0), 1: (1.0, 0.0), 2: (0.0, -1.0), 3: (0.0, 1.0)}


def _mix64(h: np.ndarray) -> np.ndarray:
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


_HASH_SALTS = tuple(
    np.uint64((0x9E3779B97F4A7C15 * (0xA24BAED4963EE407 ** k + 1)) % 2 ** 64)
    for k in range(8)
)


def _hash_unit(*components) -> np.ndarray:
    """Deterministic floats in [0, 1) from integer arrays (splitmix mixing)."""
    acc = None
    for salt, comp in zip(_HASH_SALTS, components):
        arr = np.asarray(comp).astype(np.int64).astype(np.uint64)
        mixed = _mix64(arr * np.uint64(0xD6E8FEB86659FD93) + salt)
        acc = mixed if acc is None else _mix64(acc ^ mixed)
    return (acc >> np.uint64(11)).astype(np.float64) / float(1 << 53)


# surface albedo: one smooth large-scale octave (drives place recognition)
# plus two piecewise-constant block octaves whose sharp edges and junctions
# feed corner detection; wavelengths deliberately off-multiples of the cell
# size so lattice lines don't align with walls. Tuned once on the corridor
# benchmark, then frozen.
_TEXTURE_OCTAVES = (("smooth", 0.9, 0.25), ("block", 0.45, 0.35),
                    ("block", 0.15, 0.40))


def _value_noise(axis, plane_idx, su, sv, wavelength, seed):
    """Smoothstep-interpolated value noise over a hashed surface lattice."""
    fu = su / wavelength
    fv = sv / wavelength
    lu = np.floor(fu).astype(np.int64)
    lv = np.floor(fv).astype(np.int64)
    au = fu - lu
    av = fv - lv
    au = au * au * (3.0 - 2.0 * au)
    av = av * av * (3.0 - 2.0 * av)

    def corner(du, dv):
        return _hash_unit(axis, plane_idx, lu + du, lv + dv, seed)

    top = corner(0, 0) * (1.0 - au) + corner(1, 0) * au
    bot = corner(0, 1) * (1.0 - au) + corner(1, 1) * au
    return top * (1.0 - av) + bot * av


def _surface_color(axis, plane_idx, su, sv, seed) -> np.ndarray:
    val = np.zeros_like(np.asarray(su, dtype=float))
    for k, (kind, wavelength, weight) in enumerate(_TEXTURE_OCTAVES):
        seeds = np.full_like(np.asarray(plane_idx), seed * 8 + k)
        if kind == "smooth":
            val += weight * _value_noise(axis, plane_idx, su, sv, wavelength, seeds)
        else:
            lu = np.floor(su / wavelength).astype(np.int64)
            lv = np.floor(sv / wavelength).astype(np.int64)
            val += weight * _hash_unit(axis, plane_idx, lu, lv, seeds)
    return np.floor(np.clip(val, 0.0, 0.999) * 255.0).astype(np.uint8)


@dataclass
class GridWorld:
    """Closed occupancy grid with textured walls of uniform height."""

    occupancy: np.ndarray
    cell_size: float
    wall_height: float
    texture_seed: int
    _landmarks: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        occ = np.asarray(self.occupancy, dtype=bool)
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if not (occ[0, :].all() and occ[-1, :].all()
                and occ[:, 0].all() and occ[:, -1].all()):
            raise ValueError("boundary cells must be occupied (closed world)")
        self.occupancy = occ

    # -- geometry queries ---------------------------------------------------

    @property
    def extent(self):
        h, w = self.occupancy.shape
        return w * self.cell_size, h * self.cell_size

    def cell_of(self, x: float, y: float):
        return int(math.floor(x / self.cell_size)), int(math.floor(y / self.cell_size))

    def free_point(self, x: float, y: float) -> bool:
        ix, iy = self.cell_of(x, y)
        h, w = self.occupancy.shape
        if not (0 <= ix < w and 0 <= iy < h):
            return False
        return not self.occupancy[iy, ix]

    def free_disc(self, x: float, y: float, radius: float) -> bool:
        if not self.free_point(x, y):
            return False
        for k in range(8):
            ang = k * math.pi / 4.0
            if not self.free_point(x + radius * math.cos(ang),
                                   y + radius * math.sin(ang)):
                return False
        return True

    def line_of_sight(self, p, q) -> bool:
        """True when the straight segment between the (x, y) of two points
        crosses no wall cell."""
        delta = np.array([q[0] - p[0], q[1] - p[1]])
        if np.linalg.norm(delta) < 1e-12:
            return True
        t, _ = raycast(self, p, delta[None, :])
        return t[0] >= 1.0 - 1e-9

    # -- landmarks ----------------------------------------------------------

    def landmarks(self):
        """(ids (N,), positions (N,3), normals (N,3)), seeded per wall face."""
        if self._landmarks is None:
            self._landmarks = self._build_landmarks()
        return self._landmarks

    def _build_landmarks(self):
        cs = self.cell_size
        h, w = self.occupancy.shape
        ids, pos, nrm = [], [], []
        occ = self.occupancy
        for iy in range(h):
            for ix in range(w):
                if not occ[iy, ix]:
                    continue
                cell_idx = iy * w + ix
                for face, (dx, dy) in ((0, (-1, 0)), (1, (1, 0)),
                                       (2, (0, -1)), (3, (0, 1))):
                    nx, ny = ix + dx, iy + dy
                    if not (0 <= nx < w and 0 <= ny < h) or occ[ny, nx]:
                        continue
                    rng = np.random.default_rng(
                        [self.texture_seed, cell_idx, face])
                    u = rng.uniform(0.08, 0.92, LANDMARKS_PER_FACE)
                    z = rng.uniform(0.1, self.wall_height - 0.1,
                                    LANDMARKS_PER_FACE)
                    for j in range(LANDMARKS_PER_FACE):
                        if face == 0:
                            p = (ix * cs, (iy + u[j]) * cs, z[j])
                        elif face == 1:
                            p = ((ix + 1) * cs, (iy + u[j]) * cs, z[j])
                        elif face == 2:
                            p = ((ix + u[j]) * cs, iy * cs, z[j])
                        else:
                            p = ((ix + u[j]) * cs, (iy + 1) * cs, z[j])
                        ids.append((cell_idx * 4 + face) * LANDMARKS_PER_FACE + j)
                        pos.append(p)
                        nx_, ny_ = _FACE_NORMALS[face]
                        nrm.append((nx_, ny_, 0.0))
        return (np.array(ids, dtype=np.int64),
                np.array(pos, dtype=float).reshape(-1, 3),
                np.array(nrm, dtype=float).reshape(-1, 3))

    # -- text format ---------------------------------------------------------

    def save(self, path) -> None:
        h, w = self.occupancy.shape
        with open(path, "w") as f:
            f.write(f"{w} {h} {fmt17(self.cell_size)} "
                    f"{fmt17(self.wall_height)} {self.texture_seed}\n")
            for iy in range(h):
                f.write("".join("#" if self.occupancy[iy, ix] else "."
                                for ix in range(w)) + "\n")

    @staticmethod
    def load(path) -> "GridWorld":
        with open(path) as f:
            lines = [ln.rstrip("\n") for ln in f]
        if not lines:
            raise FormatError(f"{path}:1: empty world file")
        tok = lines[0].split()
        if len(tok) != 5:
            raise FormatError(f"{path}:1: expected 5 header fields, got {len(tok)}")
        with line_errors(path, 1):
            w, h = int(tok[0]), int(tok[1])
            cs, wh, seed = float(tok[2]), float(tok[3]), int(tok[4])
        if len(lines) < 1 + h:
            raise FormatError(f"{path}: expected {h} grid rows, found {len(lines) - 1}")
        occ = np.zeros((h, w), dtype=bool)
        for iy in range(h):
            row = lines[1 + iy]
            if len(row) != w:
                raise FormatError(f"{path}:{iy + 2}: row length {len(row)} != {w}")
            for ix, ch in enumerate(row):
                if ch == "#":
                    occ[iy, ix] = True
                elif ch != ".":
                    raise FormatError(f"{path}:{iy + 2}: bad character '{ch}'")
        for lineno, row in enumerate(lines[1 + h:], start=h + 2):
            if row.strip():
                raise FormatError(f"{path}:{lineno}: line after the {h} grid rows")
        return GridWorld(occupancy=occ, cell_size=cs, wall_height=wh,
                         texture_seed=seed)


# ---------------------------------------------------------------------------
# batched grid walk
# ---------------------------------------------------------------------------

def raycast(world: GridWorld, origin, dirs):
    """Batched 2-D grid walk from an (x, y) origin along (n, 2) directions.

    ``t`` is in units of the (not necessarily normalized) direction vectors.
    Returns (t, face): the parameter of each ray's first crossing into a wall
    cell (inf if none) and the face it crossed, 0 west / 1 east / 2 south /
    3 north (-1 if none). The origin's own cell is not tested.
    """
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
    # every step enters a new cell, so w + h steps leave any grid
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


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

@dataclass
class SimFrame:
    """Rendered observation with simulator ground truth attached."""

    color: np.ndarray
    depth: np.ndarray
    landmark_ids: np.ndarray
    landmark_uv: np.ndarray
    landmark_depth: np.ndarray
    gt_pose: Pose

    def observation(self) -> Observation:
        return Observation(color=self.color, depth=self.depth,
                           landmark_ids=self.landmark_ids,
                           landmark_uv=self.landmark_uv,
                           landmark_depth=self.landmark_depth)


# a detector range limit: keeps typical views at a few hundred annotations
LANDMARK_RANGE = 12.0


def render(world: GridWorld, pose: Pose, K: CameraIntrinsics) -> SimFrame:
    """Exact render of a level camera: depth (z-depth, 0 where no surface),
    hash texture grayscale, and visible-landmark annotations.

    The camera's y axis must be world -z (within 1e-9), so the pixels of an
    image column share one horizontal direction. A 2-D grid walk along it
    gives the column's first wall crossing ``t_wall``; a pixel whose ray
    meets the floor plane first (``t_floor <= t_wall``) sees floor, else it
    sees the wall if the crossing lies below the wall top, else sky. Raises
    ``PoseInCollision`` for a camera inside a wall and ``ValueError`` for a
    camera that is not level or not below the wall top."""
    cam = pose.t
    if not world.free_point(cam[0], cam[1]):
        raise PoseInCollision(f"camera at ({cam[0]:.3f}, {cam[1]:.3f}) is inside a wall")
    if not 0.0 < cam[2] < world.wall_height:
        raise ValueError("camera height must lie in (0, wall_height)")
    rot = pose.rotation_matrix()
    if np.max(np.abs(rot[:, 1] - (0.0, 0.0, -1.0))) > 1e-9:
        raise ValueError("camera must be level (camera y axis along world -z)")

    uu, vv = np.meshgrid(np.arange(K.width, dtype=float),
                         np.arange(K.height, dtype=float))
    dirs_world = unproject(K, uu.ravel(), vv.ravel(), np.ones(uu.size)) @ rot.T
    # rounding splits a column's horizontal direction into a few that differ
    # in the last bits; walking each once gives every pixel its own ray's
    # crossing, so no depth bit moves (keyframe coverage bins wall points,
    # which lie exactly on grid lines)
    cols = dirs_world[:, :2].reshape(K.height, K.width, 2).swapaxes(0, 1).reshape(-1, 2)
    new = np.r_[True, np.any(cols[1:] != cols[:-1], axis=1)]
    t_wall, face = raycast(world, cam, cols[new])
    walk = (np.cumsum(new) - 1).reshape(K.width, K.height).T.ravel()
    t_wall, face = t_wall[walk], face[walk]

    dz = dirs_world[:, 2]
    with np.errstate(divide="ignore"):
        t_floor = np.where(dz < 0.0, -cam[2] / dz, np.inf)
    floor = t_floor <= t_wall
    wall = ~floor & (cam[2] + dz * t_wall <= world.wall_height)
    # dirs_cam has unit z, so the ray parameter equals camera z-depth
    t = np.where(floor, t_floor, np.where(wall, t_wall, 0.0))
    depth = t.reshape(K.height, K.width)

    pts = cam[None, :] + dirs_world * t[:, None]
    cs = world.cell_size
    # wall faces lie on grid planes; the integer plane index keys the texture
    is_x_face = (face == 0) | (face == 1)
    axis = np.where(floor, 2, np.where(is_x_face, 0, 1)).astype(np.int64)
    plane_coord = np.where(is_x_face, pts[:, 0], pts[:, 1])
    plane_idx = np.where(floor, 0, np.rint(plane_coord / cs).astype(np.int64))
    su = np.where(floor, pts[:, 0],
                  np.where(is_x_face, pts[:, 1], pts[:, 0]))
    sv = np.where(floor, pts[:, 1], pts[:, 2])
    shade = _surface_color(axis, plane_idx, su, sv, world.texture_seed)
    color = np.where(floor | wall, shade, 0).astype(np.uint8)
    color = color.reshape(K.height, K.width)

    lm_ids, lm_uv, lm_depth = _visible_landmarks(world, pose, K)
    return SimFrame(color=color, depth=depth, landmark_ids=lm_ids,
                    landmark_uv=lm_uv, landmark_depth=lm_depth, gt_pose=pose)


def _visible_landmarks(world: GridWorld, pose: Pose, K: CameraIntrinsics):
    ids, pos, nrm = world.landmarks()
    if len(ids) == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros((0, 2)), np.zeros(0))
    cam = pose.t
    rot = pose.rotation_matrix()
    p_cam = (pos - cam) @ rot
    uv, in_view = project_array(K, p_cam)
    facing = np.einsum("ij,ij->i", nrm, cam[None, :] - pos) > 1e-9
    in_range = np.linalg.norm(pos - cam, axis=1) <= LANDMARK_RANGE
    cand = np.nonzero(in_view & facing & in_range)[0]
    if len(cand) == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros((0, 2)), np.zeros(0))

    # camera and landmark both lie between floor and wall top, so the 3-D
    # segment is blocked exactly when its (x, y) shadow crosses a wall cell
    t, _ = raycast(world, cam, pos[cand, :2] - cam[None, :2])
    sel = cand[t >= 1.0 - 1e-6]
    order = np.argsort(ids[sel])
    sel = sel[order]
    return ids[sel].copy(), uv[sel].copy(), p_cam[sel, 2].copy()


# ---------------------------------------------------------------------------
# robot and odometry
# ---------------------------------------------------------------------------

def planar_camera_pose(x: float, y: float, yaw: float,
                       z: float = CAMERA_HEIGHT_DEFAULT) -> Pose:
    """Level camera at (x, y, z) looking along the yaw direction.

    Camera axes in world: z forward (cos yaw, sin yaw, 0), x right, y down.
    """
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[s, 0.0, c],
                    [-c, 0.0, s],
                    [0.0, -1.0, 0.0]])
    return Pose.from_rt(rot, np.array([x, y, z]))


def pose_to_planar(pose: Pose):
    """(x, y, yaw) of a planar camera pose (yaw from the forward axis)."""
    fwd = pose.rotation_matrix()[:, 2]
    return float(pose.t[0]), float(pose.t[1]), math.atan2(fwd[1], fwd[0])


def wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class OdomNoise:
    """Per-meter translation sigma, per-radian rotation sigma, yaw bias per
    meter traveled (a constant heading drift, the classic failure mode)."""

    sigma_t_per_m: float = 0.02
    sigma_r_per_rad: float = 0.05
    yaw_bias_per_m: float = 0.002

    @staticmethod
    def zero() -> "OdomNoise":
        return OdomNoise(0.0, 0.0, 0.0)


class SimRobot:
    """Planar unicycle robot whose pose is the camera pose."""

    def __init__(self, x: float, y: float, yaw: float,
                 noise: OdomNoise = OdomNoise(), seed: int = 0):
        self.x, self.y, self.yaw = float(x), float(y), float(yaw)
        self.noise = noise
        self._rng = np.random.default_rng([int(seed), 0x0D0])

    @property
    def gt_pose(self) -> Pose:
        return planar_camera_pose(self.x, self.y, self.yaw, CAMERA_HEIGHT_DEFAULT)

    def step(self, world: GridWorld, cmd, dt: float):
        """Integrate one control tick; returns (gt_pose, noisy odom delta).

        Collision blocks the motion entirely (pose unchanged) while the
        odometry still reports the attempted zero motion plus noise.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        v = float(np.clip(cmd[0], -V_MAX, V_MAX))
        w = float(np.clip(cmd[1], -W_MAX, W_MAX))
        if abs(w) < 1e-12:
            nx = self.x + v * dt * math.cos(self.yaw)
            ny = self.y + v * dt * math.sin(self.yaw)
            nyaw = self.yaw
        else:
            nx = self.x + v / w * (math.sin(self.yaw + w * dt) - math.sin(self.yaw))
            ny = self.y - v / w * (math.cos(self.yaw + w * dt) - math.cos(self.yaw))
            nyaw = self.yaw + w * dt

        if not world.free_disc(nx, ny, COLLISION_RADIUS):
            nx, ny = self.x, self.y
            # rotation in place is always allowed

        c, s = math.cos(self.yaw), math.sin(self.yaw)
        d_fwd = c * (nx - self.x) + s * (ny - self.y)
        d_left = -s * (nx - self.x) + c * (ny - self.y)
        d_yaw = wrap_angle(nyaw - self.yaw)

        length = math.hypot(d_fwd, d_left)
        n1, n2, n3 = self._rng.normal(0.0, 1.0, 3)
        sig_t = self.noise.sigma_t_per_m * length
        sig_r = self.noise.sigma_r_per_rad * abs(d_yaw)
        od_fwd = d_fwd + n1 * sig_t
        od_left = d_left + n2 * sig_t
        od_yaw = d_yaw + n3 * sig_r + self.noise.yaw_bias_per_m * length

        z = CAMERA_HEIGHT_DEFAULT
        delta = planar_camera_pose(0.0, 0.0, 0.0, z).between(
            planar_camera_pose(od_fwd, od_left, od_yaw, z))

        self.x, self.y, self.yaw = nx, ny, wrap_angle(nyaw)
        return self.gt_pose, delta


# ---------------------------------------------------------------------------
# segment generation
# ---------------------------------------------------------------------------

@dataclass
class SegmentRecording:
    """A generated traversal: posed frames, odometry stream, ground truth."""

    segment: Segment
    odometry: list      # (timestamp, delta Pose), one per control tick
    gt_stream: list     # (timestamp, gt Pose), one per control tick + t=0


def generate_segment(world: GridWorld, waypoints, K: CameraIntrinsics,
                     camera_rate: float = 2.0, odom_rate: float = 15.0,
                     seed: int = 0, noise: OdomNoise = OdomNoise(),
                     timeout: float | None = None):
    """Drive a pursuit controller through the waypoints, rendering camera
    frames at ``camera_rate`` and odometry at ``odom_rate``.

    Segment frame poses are ground truth. Deterministic per seed."""
    waypoints = [np.asarray(w, dtype=float)[:2] for w in waypoints]
    if not waypoints:
        raise ValueError("need at least one waypoint")
    for wp in waypoints:
        if not world.free_point(wp[0], wp[1]):
            raise ValueError(f"waypoint ({wp[0]}, {wp[1]}) is not in free space")
    if timeout is None:
        path_len = sum(float(np.linalg.norm(b - a))
                       for a, b in zip(waypoints, waypoints[1:]))
        timeout = 30.0 + 6.0 * path_len / V_MAX

    if len(waypoints) > 1:
        d0 = waypoints[1] - waypoints[0]
        yaw0 = math.atan2(d0[1], d0[0])
    else:
        yaw0 = 0.0
    robot = SimRobot(waypoints[0][0], waypoints[0][1], yaw0, noise=noise, seed=seed)

    dt = 1.0 / odom_rate
    frames, odometry, gt_stream = [], [], []
    t = 0.0
    gt_stream.append((t, robot.gt_pose))

    def capture(ts):
        sf = render(world, robot.gt_pose, K)
        frames.append(SegmentFrame(obs=sf.observation(), pose=sf.gt_pose,
                                   timestamp=ts))

    capture(0.0)
    next_cam = 1.0 / camera_rate

    wp_i = 1
    best_dist = np.inf
    last_progress_t = 0.0
    while wp_i < len(waypoints):
        target = waypoints[wp_i]
        dist = math.hypot(target[0] - robot.x, target[1] - robot.y)
        if dist < WAYPOINT_RADIUS:
            wp_i += 1
            best_dist = np.inf
            last_progress_t = t
            continue
        if dist < best_dist - 0.01:
            best_dist = dist
            last_progress_t = t
        if t - last_progress_t > 20.0 or t > timeout:
            raise UnreachableWaypoint(
                f"stalled {t - last_progress_t:.1f}s before waypoint {wp_i} "
                f"at distance {dist:.2f} m")

        bearing = wrap_angle(math.atan2(target[1] - robot.y,
                                        target[0] - robot.x) - robot.yaw)
        w_cmd = float(np.clip(2.5 * bearing, -W_MAX, W_MAX))
        # quadratic bearing falloff: turn mostly in place, so the path
        # stays inside the clearance-validated straight legs
        v_cmd = float(np.clip(1.5 * dist, 0.0, V_MAX)) * max(0.0, math.cos(bearing)) ** 2
        gt_pose, delta = robot.step(world, (v_cmd, w_cmd), dt)
        t += dt
        odometry.append((t, delta))
        gt_stream.append((t, gt_pose))
        if t >= next_cam - 1e-9:
            capture(t)
            next_cam += 1.0 / camera_rate

    if frames and frames[-1].timestamp < t:
        capture(t)

    segment = Segment(frames=frames, camera=K)
    return SegmentRecording(segment=segment, odometry=odometry,
                            gt_stream=gt_stream)


def annotate_map_with_landmarks(topo_map, K: CameraIntrinsics,
                                world: GridWorld) -> None:
    """Re-render each node pose to repopulate the transient landmark
    annotations (and any missing image) on a loaded map, enabling the
    oracle matcher against it."""
    for node in topo_map.nodes:
        frame = render(world, node.pose, K)
        node.landmark_ids = frame.landmark_ids
        node.landmark_uv = frame.landmark_uv
        node.landmark_depth = frame.landmark_depth
        if node.image is None:
            node.image = frame.color


# ---------------------------------------------------------------------------
# segment directory layout
# ---------------------------------------------------------------------------

_POSES_HEADER = "frame,timestamp,x,y,z,qw,qx,qy,qz"
_ODOM_HEADER = "timestamp,x,y,z,qw,qx,qy,qz"
_LM_HEADER = "id,u,v,depth"


def save_segment(recording: SegmentRecording, segdir) -> None:
    """Write a recording as a directory the CLI commands consume:
    frames/<k>.pgm, depth/<k>.f32, landmarks/<k>.csv, poses.csv,
    odometry.csv, gt_traj.txt (TUM), intrinsics.txt."""
    os.makedirs(os.path.join(segdir, "frames"), exist_ok=True)
    os.makedirs(os.path.join(segdir, "depth"), exist_ok=True)
    os.makedirs(os.path.join(segdir, "landmarks"), exist_ok=True)
    seg = recording.segment
    with open(os.path.join(segdir, "intrinsics.txt"), "w") as f:
        f.write(seg.camera.to_line() + "\n")
    with open(os.path.join(segdir, "poses.csv"), "w") as f:
        f.write(_POSES_HEADER + "\n")
        for k, fr in enumerate(seg.frames):
            f.write(",".join([str(k), fmt17(fr.timestamp), *fr.pose.fields()])
                    + "\n")
    for k, fr in enumerate(seg.frames):
        write_pgm(os.path.join(segdir, "frames", f"{k}.pgm"), fr.obs.color)
        write_f32(os.path.join(segdir, "depth", f"{k}.f32"), fr.obs.depth)
        with open(os.path.join(segdir, "landmarks", f"{k}.csv"), "w") as f:
            f.write(_LM_HEADER + "\n")
            for i in range(len(fr.obs.landmark_ids)):
                f.write(f"{fr.obs.landmark_ids[i]},"
                        f"{fmt17(fr.obs.landmark_uv[i, 0])},"
                        f"{fmt17(fr.obs.landmark_uv[i, 1])},"
                        f"{fmt17(fr.obs.landmark_depth[i])}\n")
    with open(os.path.join(segdir, "odometry.csv"), "w") as f:
        f.write(_ODOM_HEADER + "\n")
        for ts, delta in recording.odometry:
            f.write(",".join([fmt17(ts), *delta.fields()]) + "\n")
    write_trajectory(os.path.join(segdir, "gt_traj.txt"), recording.gt_stream)


def load_segment(segdir):
    """Read a segment directory back; returns (Segment, odometry, gt_stream).

    Depth comes back float32 (the on-disk precision)."""
    path = os.path.join(segdir, "intrinsics.txt")
    with open(path) as f, line_errors(path, 1):
        camera = CameraIntrinsics.from_line(f.readline())
    frames = []
    poses_path = os.path.join(segdir, "poses.csv")
    for lineno, row in read_csv_rows(poses_path, _POSES_HEADER):
        with line_errors(poses_path, lineno):
            k = int(row[0])
            ts = float(row[1])
            pose = Pose.from_fields(row[2:])
        color = read_pgm(os.path.join(segdir, "frames", f"{k}.pgm"))
        depth = read_f32(os.path.join(segdir, "depth", f"{k}.f32"),
                         shape=color.shape)
        lm_path = os.path.join(segdir, "landmarks", f"{k}.csv")
        lm_ids, lm_uv, lm_depth = [], [], []
        if os.path.exists(lm_path):
            for lm_lineno, lrow in read_csv_rows(lm_path, _LM_HEADER):
                with line_errors(lm_path, lm_lineno):
                    lm_ids.append(int(lrow[0]))
                    lm_uv.append((float(lrow[1]), float(lrow[2])))
                    lm_depth.append(float(lrow[3]))
        obs = Observation(
            color=color, depth=depth,
            landmark_ids=np.array(lm_ids, dtype=np.int64),
            landmark_uv=np.array(lm_uv, dtype=float).reshape(-1, 2),
            landmark_depth=np.array(lm_depth, dtype=float))
        frames.append(SegmentFrame(obs=obs, pose=pose, timestamp=ts))
    odometry = []
    odom_path = os.path.join(segdir, "odometry.csv")
    for lineno, row in read_csv_rows(odom_path, _ODOM_HEADER):
        with line_errors(odom_path, lineno):
            odometry.append((float(row[0]), Pose.from_fields(row[1:])))
    gt_stream = read_trajectory(os.path.join(segdir, "gt_traj.txt"))
    return Segment(frames=frames, camera=camera), odometry, gt_stream


# ---------------------------------------------------------------------------
# world presets
# ---------------------------------------------------------------------------

def make_preset(name: str, seed: int = 0):
    """Built-in world layouts; returns (world, mapping route waypoints)."""
    if name == "corridor":
        return _preset_corridor(seed)
    if name == "rooms":
        return _preset_rooms(seed)
    if name == "campus":
        return _preset_campus(seed)
    raise ValueError(f"unknown preset '{name}'")


def _preset_corridor(seed):
    w, h, cs = 70, 9, 0.5
    occ = np.ones((h, w), dtype=bool)
    occ[3:6, 1:69] = False
    rng = np.random.default_rng([seed, 1])
    # shallow alcoves off both sides for geometry variety
    for ix in rng.choice(np.arange(6, 64), size=6, replace=False):
        side = 2 if rng.integers(0, 2) == 0 else 6
        if 0 < side < h - 1:
            occ[side, ix] = False
    world = GridWorld(occupancy=occ, cell_size=cs, wall_height=2.0,
                      texture_seed=seed)
    y_mid = 4.5 * cs
    route = [(1.0, y_mid), (12.0, y_mid), (23.0, y_mid), (34.0, y_mid)]
    return world, [np.array(p) for p in route]


def _preset_rooms(seed):
    n, cs = 31, 0.5
    occ = np.zeros((n, n), dtype=bool)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True
    mid = n // 2
    occ[mid, :] = True
    occ[:, mid] = True
    rng = np.random.default_rng([seed, 2])
    # doors: 0 = horizontal wall left half (BL-TL), 1 = right half (BR-TR),
    #        2 = vertical wall bottom half (BL-BR), 3 = top half (TL-TR)
    doors = {}
    for arm, (fixed_axis, lo, hi) in enumerate((
            ("row", 2, mid - 2), ("row", mid + 2, n - 3),
            ("col", 2, mid - 2), ("col", mid + 2, n - 3))):
        at = int(rng.integers(lo, hi))
        if fixed_axis == "row":
            occ[mid, at] = occ[mid, at + 1] = False
            doors[arm] = ((at + 1.0) * cs, (mid + 0.5) * cs)
        else:
            occ[at, mid] = occ[at + 1, mid] = False
            doors[arm] = ((mid + 0.5) * cs, (at + 1.0) * cs)
    world = GridWorld(occupancy=occ, cell_size=cs, wall_height=2.0,
                      texture_seed=seed)
    q1 = (mid // 2 + 0.5) * cs
    q3 = (mid + mid // 2 + 0.5) * cs
    bl, br, tr, tl = (q1, q1), (q3, q1), (q3, q3), (q1, q3)
    route = [bl, doors[2], br, doors[1], tr, doors[3], tl, doors[0], bl]
    return world, [np.array(p) for p in route]


def _preset_campus(seed):
    """City-block layout: a 3x3 grid of buildings separated by streets, so
    every view contains several wall faces (single-face views would make
    the PnP geometry planar-degenerate)."""
    n, cs = 49, 0.5
    occ = np.zeros((n, n), dtype=bool)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True
    rng = np.random.default_rng([seed, 3])
    period = 15
    for by in range(3):
        for bx in range(3):
            x0 = 3 + bx * period + int(rng.integers(0, 3))
            y0 = 3 + by * period + int(rng.integers(0, 3))
            bw = int(rng.integers(7, 10))
            bh = int(rng.integers(7, 10))
            occ[y0:min(y0 + bh, n - 2), x0:min(x0 + bw, n - 2)] = True
    world = GridWorld(occupancy=occ, cell_size=cs, wall_height=2.0,
                      texture_seed=seed)
    # ring route around the centre block, snapped into the streets
    anchors = []
    lo, hi = 1.5 * period * cs - 5.5, 1.5 * period * cs + 5.5
    for x, y in ((lo, lo), (hi, lo), (hi, hi), (lo, hi), (lo, lo)):
        anchors.append(_snap_free(world, x, y))
    return world, route_through(world, anchors)


def route_through(world: GridWorld, anchors):
    """Waypoints visiting the anchors in order, detouring around walls via
    grid BFS with line-of-sight shortcutting. The pursuit controller drives
    straight legs, so every leg must be clear by ROUTE_CLEARANCE."""
    out = [np.asarray(anchors[0], dtype=float)[:2]]
    for target in anchors[1:]:
        target = np.asarray(target, dtype=float)[:2]
        for wp in _leg_waypoints(world, out[-1], target):
            out.append(wp)
    return out


def _leg_clear(world, a, b):
    dist = float(np.linalg.norm(b - a))
    steps = max(2, int(dist / 0.2) + 1)
    for s in np.linspace(0.0, 1.0, steps):
        p = a + s * (b - a)
        if not world.free_disc(p[0], p[1], ROUTE_CLEARANCE):
            return False
    return True


def _leg_waypoints(world, start, goal):
    if _leg_clear(world, start, goal):
        return [goal]
    cells = _grid_bfs(world, start, goal)
    if cells is None:
        raise ValueError(f"no route from {start} to {goal}")
    pts = [np.array(c) for c in cells] + [goal]
    # greedy line-of-sight shortcutting
    out = []
    cur = start
    i = 0
    while i < len(pts):
        j = len(pts) - 1
        while j > i and not _leg_clear(world, cur, pts[j]):
            j -= 1
        out.append(pts[j])
        cur = pts[j]
        i = j + 1
    return out


def _grid_bfs(world, start, goal):
    """4-connected BFS over cells with ROUTE_CLEARANCE; returns cell-center
    points from just after start to just before goal."""
    from collections import deque

    cs = world.cell_size
    h, w = world.occupancy.shape

    def ok(ix, iy):
        if not (0 < ix < w - 1 and 0 < iy < h - 1):
            return False
        return world.free_disc((ix + 0.5) * cs, (iy + 0.5) * cs, ROUTE_CLEARANCE)

    s = world.cell_of(start[0], start[1])
    g = world.cell_of(goal[0], goal[1])
    queue = deque([s])
    pred = {s: None}
    while queue:
        cur = queue.popleft()
        if cur == g:
            break
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (cur[0] + dx, cur[1] + dy)
            if nxt in pred:
                continue
            if nxt != g and not ok(*nxt):
                continue
            pred[nxt] = cur
            queue.append(nxt)
    if g not in pred:
        return None
    path = []
    cur = g
    while cur is not None:
        path.append(((cur[0] + 0.5) * cs, (cur[1] + 0.5) * cs))
        cur = pred[cur]
    path.reverse()
    return path[1:-1]


def _snap_free(world: GridWorld, x: float, y: float):
    """Nearest clearly-free point to (x, y), probing outward on the grid."""
    cs = world.cell_size
    ix0, iy0 = world.cell_of(x, y)
    h, w = world.occupancy.shape
    best, best_d = None, np.inf
    r = SNAP_RADIUS_CELLS
    for iy in range(max(1, iy0 - r), min(h - 1, iy0 + r + 1)):
        for ix in range(max(1, ix0 - r), min(w - 1, ix0 + r + 1)):
            px, py = (ix + 0.5) * cs, (iy + 0.5) * cs
            if not world.free_disc(px, py, 0.45):
                continue
            d = (px - x) ** 2 + (py - y) ** 2
            if d < best_d:
                best, best_d = (px, py), d
    if best is None:
        raise ValueError(f"no free cell near ({x:.2f}, {y:.2f})")
    return best
