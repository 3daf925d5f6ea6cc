"""Deterministic 2.5D grid-world simulator.

A boolean occupancy grid with walls of fixed height and a textured floor is
rendered into depth and grayscale images. The camera is level, so a pixel
ray's path across the grid depends only on its image column: a 2-D grid
walk (Amanatides & Woo 1987) along the column's direction finds its first
wall crossing, and each pixel is then floor, wall or sky in closed form
from its vertical slope. Surface color is a pure hash of the surface's grid
plane and its texture lattice cells, so the same wall point renders the
same value from any view. A world hashes every lattice node its floor and
wall faces can reach once, into a texel table built on its first shade,
and shading gathers from it: lattice value noise over a precomputed table,
as in Perlin, "An Image Synthesizer" (SIGGRAPH 1985). Landmarks seeded on
wall faces give the oracle matcher ground-truth correspondences; their
sight-lines ride the depth's grid walk. A render checks its camera at
once; the frame it returns renders itself whole when first read, or only
the top rows a planner asks for. A unicycle robot with drifting odometry
and a waypoint pursuit controller generate mapping/localization segments.

Grid indexing is ``occupancy[iy, ix]``; world x spans ``ix * cell_size`` and
row 0 of the text format is the smallest y. The camera is level (its y axis
is world -z) and must stay below ``wall_height``, which makes ignoring
wall-top faces exact.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .dataio import (
    line_errors,
    read_csv_rows,
    read_pgm,
    read_raw,
    read_trajectory,
    write_csv,
    write_pgm,
    write_raw,
    write_trajectory,
)
from .errors import FormatError, PoseInCollision, UnreachableWaypoint
from .geometry import (
    CameraIntrinsics,
    Pose,
    fmt17,
    project_array,
    quat_normalize,
    unproject,
)
from .mapgraph import Observation, Segment, SegmentFrame

LANDMARKS_PER_FACE = 8
CAMERA_HEIGHT_DEFAULT = 1.0
# the simulated robot: speed limits and the disc that collides with walls
V_MAX = 1.0
W_MAX = 1.5
COLLISION_RADIUS = 0.25
# the pursuit controller counts a waypoint reached within this distance
WAYPOINT_RADIUS = 0.3
# a drive may take at most this many control ticks over its time budget:
# about 440 Hz odometry over a 33 m route (each tick keeps two poses)
MAX_DRIVE_STEPS = 100_000
# routes keep this clearance from walls on every straight leg
ROUTE_CLEARANCE = 0.5
# how far, in grid cells, a preset anchor may move to reach free space
SNAP_RADIUS_CELLS = 8
# a wall cell's faces, numbered as ``raycast`` reports them (0 west, 1 east,
# 2 south, 3 north): each outward normal (dx, dy) is also the offset of the
# free cell the face looks into
_FACES = ((-1, 0), (1, 0), (0, -1), (0, 1))
# the unit directions ``GridWorld.free_disc`` tests, (cos, sin) of k pi / 4
_DISC_DIRECTIONS = tuple((math.cos(k * math.pi / 4.0), math.sin(k * math.pi / 4.0))
                         for k in range(8))


def _mix64(h: np.ndarray) -> np.ndarray:
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


_HASH_SALTS = tuple(
    np.uint64((0x9E3779B97F4A7C15 * (0xA24BAED4963EE407 ** k + 1)) % 2 ** 64)
    for k in range(5)
)


_HASH_MULT = np.uint64(0xD6E8FEB86659FD93)


def _hash_component(comp, k: int) -> np.ndarray:
    """Component ``k`` of a lattice key, mixed on its own: a splitmix round
    of the int64 value times a constant plus the component's salt."""
    arr = np.asarray(comp).astype(np.int64).astype(np.uint64)
    return _mix64(arr * _HASH_MULT + _HASH_SALTS[k])


def _hash_finish(acc, lv_mixed, octave) -> np.ndarray:
    """Floats in [0, 1) from a key chain mixed up to ``lu``: mix in the
    ``lv`` and the octave components, keep the top 53 bits."""
    acc = _mix64(_mix64(acc ^ lv_mixed) ^ octave)
    return (acc >> np.uint64(11)).astype(np.float64) / float(1 << 53)


# surface albedo: one smooth large-scale octave (drives place recognition)
# plus two piecewise-constant block octaves whose sharp edges and junctions
# feed corner detection; wavelengths deliberately off-multiples of the cell
# size so lattice lines don't align with walls. Tuned once on the corridor
# benchmark, then frozen.
_TEXTURE_OCTAVES = (("smooth", 0.9, 0.25), ("block", 0.45, 0.35),
                    ("block", 0.15, 0.40))

# how far (m) a surface point may lie outside its plane's wall faces, or
# outside the floor's extent and the walls' height, and still be shaded:
# far above the rounding of a rendered point, far below a lattice cell
_TEXEL_MARGIN = 1e-3


@dataclass(frozen=True, eq=False)
class _TexelTable:
    """Every texture lattice value a surface point of one world can read.

    A texel's value depends only on its plane ``(axis, plane_idx)``, its
    lattice cell ``(lu, lv)``, the octave and the texture seed: the key
    ``(axis, plane_idx, lu, lv, seed * 8 + octave)`` with every component
    mixed on its own (``_hash_component``) and folded in order, ``acc =
    mix(acc ^ c)``, its top 53 bits as a float in [0, 1).

    Plane ``(axis, plane_idx)`` is row ``axis * planes_per_axis +
    plane_idx`` of the per-plane arrays. It is shaded over the box ``[lo_u,
    hi_u] x [lo_v, hi_v]`` of surface coordinates: the hull of its wall
    faces along ``su`` and the wall height along ``sv``, or the world's
    extent for the floor, each widened by ``_TEXEL_MARGIN``. A plane that
    carries no wall face has an empty box. Octave ``k`` keeps the nodes of
    a plane's box and their ``+1`` corners as one C-order block of
    ``values[k]`` over ``(lu, lv)``: node ``(lu, lv)`` is at ``offset[k][p]
    + lu * stride[k][p] + lv``."""

    planes_per_axis: int
    lo_u: np.ndarray
    hi_u: np.ndarray
    lo_v: np.ndarray
    hi_v: np.ndarray
    values: tuple
    offset: tuple
    stride: tuple


def _build_texel_table(world: GridWorld) -> _TexelTable:
    occ = world.occupancy
    h, w = occ.shape
    cs, m = world.cell_size, _TEXEL_MARGIN
    n = max(w, h) + 1
    lo_u, hi_u = np.full(3 * n, np.inf), np.full(3 * n, -np.inf)
    lo_v, hi_v = lo_u.copy(), hi_u.copy()
    # faces[r, j]: a wall face between cells j and j + 1 along the axis,
    # in row (x planes) or column (y planes) r, on plane j + 1, spanning su
    # in [r * cs, (r + 1) * cs]; the boundary ring's outer faces are never
    # seen and have no plane here
    for face_axis, faces in ((0, occ[:, :-1] != occ[:, 1:]),
                             (1, (occ[:-1, :] != occ[1:, :]).T)):
        j = np.nonzero(faces.any(axis=0))[0]
        first = faces.argmax(axis=0)[j]
        last = len(faces) - 1 - faces[::-1].argmax(axis=0)[j]
        at = face_axis * n + j + 1
        lo_u[at], hi_u[at] = first * cs - m, (last + 1) * cs + m
        lo_v[at], hi_v[at] = -m, world.wall_height + m
    width, height = world.extent
    lo_u[2 * n], hi_u[2 * n] = -m, width + m
    lo_v[2 * n], hi_v[2 * n] = -m, height + m

    rows = np.nonzero(lo_u <= hi_u)[0]
    axis, plane_idx = np.divmod(rows, n)
    prefix = _mix64(_hash_component(axis, 0) ^ _hash_component(plane_idx, 1))
    values, offset, stride = [], [], []
    for k, (_, wavelength, _) in enumerate(_TEXTURE_OCTAVES):
        # the per-pixel floor(s / wavelength) is monotone in s, so a point
        # in its plane's box reads nodes in [lu0, lu1] x [lv0, lv1]
        lu0 = np.floor(lo_u[rows] / wavelength).astype(np.int64)
        lu1 = np.floor(hi_u[rows] / wavelength).astype(np.int64) + 1
        lv0 = np.floor(lo_v[rows] / wavelength).astype(np.int64)
        lv1 = np.floor(hi_v[rows] / wavelength).astype(np.int64) + 1
        nv = lv1 - lv0 + 1
        size = (lu1 - lu0 + 1) * nv
        start = np.cumsum(size) - size
        owner = np.repeat(np.arange(len(rows)), size)
        node = np.arange(int(size.sum())) - start[owner]
        lu = lu0[owner] + node // nv[owner]
        lv = lv0[owner] + node % nv[owner]
        # numpy computes the one-value octave component as a scalar and
        # warns of the uint64 wrap-around the hash relies on
        with np.errstate(over="ignore"):
            octave = _hash_component(world.texture_seed * 8 + k, 4)
        texels = _hash_finish(_mix64(prefix[owner] ^ _hash_component(lu, 2)),
                              _hash_component(lv, 3), octave)
        plane_offset = np.zeros(3 * n, dtype=np.int64)
        plane_offset[rows] = start - lu0 * nv - lv0
        plane_stride = np.zeros(3 * n, dtype=np.int64)
        plane_stride[rows] = nv
        values.append(texels)
        offset.append(plane_offset)
        stride.append(plane_stride)
    for arr in (lo_u, hi_u, lo_v, hi_v, *values, *offset, *stride):
        arr.flags.writeable = False
    return _TexelTable(n, lo_u, hi_u, lo_v, hi_v, tuple(values),
                       tuple(offset), tuple(stride))


def _surface_color(world: GridWorld, axis, plane_idx, su, sv) -> np.ndarray:
    """Grayscale albedo of surface points on planes ``(axis, plane_idx)`` at
    surface coordinates ``(su, sv)``, gathered from the world's texel table.

    The smooth octave interpolates its cell's four corner values with
    smoothstep weights; a block octave takes its cell's value. Raises
    ``ValueError`` for a point outside its plane's box in the table (a NaN
    coordinate included): ``render`` makes none, and a flat table would
    silently read a neighbouring plane's texels."""
    table = world._texel_table
    n = table.planes_per_axis
    if not 0 <= plane_idx.min(initial=0) <= plane_idx.max(initial=0) < n:
        raise ValueError(f"plane index outside the texel table's [0, {n})")
    plane = axis * n + plane_idx
    inside = ((table.lo_u[plane] <= su) & (su <= table.hi_u[plane])
              & (table.lo_v[plane] <= sv) & (sv <= table.hi_v[plane]))
    if not inside.all():
        raise ValueError(f"{np.count_nonzero(~inside)} surface points lie "
                         f"outside the texel table")
    val = np.zeros(su.shape)
    for k, (kind, wavelength, weight) in enumerate(_TEXTURE_OCTAVES):
        values, stride = table.values[k], table.stride[k][plane]
        fu = su / wavelength
        fv = sv / wavelength
        lu = np.floor(fu)
        lv = np.floor(fv)
        idx = (table.offset[k][plane] + lu.astype(np.int64) * stride
               + lv.astype(np.int64))
        if kind == "smooth":
            au = fu - lu
            av = fv - lv
            au = au * au * (3.0 - 2.0 * au)
            av = av * av * (3.0 - 2.0 * av)
            top = (values.take(idx) * (1.0 - au)
                   + values.take(idx + stride) * au)
            bot = (values.take(idx + 1) * (1.0 - au)
                   + values.take(idx + stride + 1) * au)
            val += weight * (top * (1.0 - av) + bot * av)
        else:
            val += weight * values.take(idx)
    return np.floor(np.clip(val, 0.0, 0.999) * 255.0).astype(np.uint8)


@dataclass(frozen=True, eq=False)
class GridWorld:
    """Closed occupancy grid with textured walls of uniform height.

    The world is frozen and keeps its own read-only bool copy of
    ``occupancy``, so the landmarks and the texel table it computes once
    and keeps stay true. Two worlds are equal when their grids are equal by
    value and their three scalars are equal."""

    occupancy: np.ndarray
    cell_size: float
    wall_height: float
    texture_seed: int

    def __post_init__(self):
        occ = np.array(self.occupancy, dtype=bool)
        for name in ("cell_size", "wall_height"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} {value} must be finite and positive")
        # the texel hash takes ``texture_seed * 8 + octave`` as an int64
        if not 0 <= self.texture_seed < 2 ** 60:
            raise ValueError(f"texture_seed {self.texture_seed} must be "
                             f"non-negative and below 2**60")
        if occ.ndim != 2 or occ.size == 0:
            raise ValueError(f"occupancy grid of shape {occ.shape} is not a "
                             f"non-empty 2-D grid")
        if not (occ[0, :].all() and occ[-1, :].all()
                and occ[:, 0].all() and occ[:, -1].all()):
            raise ValueError("boundary cells must be occupied (closed world)")
        occ.flags.writeable = False
        object.__setattr__(self, "occupancy", occ)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.cell_size == other.cell_size
                and self.wall_height == other.wall_height
                and self.texture_seed == other.texture_seed
                and np.array_equal(self.occupancy, other.occupancy))

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
        """True when (x, y) and the 8 points ``radius`` from it at multiples
        of 45 degrees are all free. The directions are ``_DISC_DIRECTIONS``,
        the cosines and sines of ``k * math.pi / 4.0`` taken once, so each
        point is the one a per-call ``math.cos``/``math.sin`` gives."""
        if not self.free_point(x, y):
            return False
        for cx, cy in _DISC_DIRECTIONS:
            if not self.free_point(x + radius * cx, y + radius * cy):
                return False
        return True

    def in_interior(self, x: float, y: float) -> bool:
        """True when (x, y) lies in the grid and off its boundary ring of
        wall cells: where a grid walk (``raycast``) may start."""
        h, w = self.occupancy.shape
        u, v = x / self.cell_size, y / self.cell_size
        return 1.0 <= u < w - 1 and 1.0 <= v < h - 1

    def line_of_sight(self, p, q) -> bool:
        """True when the straight segment between the (x, y) of two points
        crosses no wall cell. A segment from a ``p`` outside the walled
        interior (``in_interior``) is blocked: it starts in or beyond the
        boundary wall."""
        if not self.in_interior(p[0], p[1]):
            return False
        delta = np.array([q[0] - p[0], q[1] - p[1]])
        if np.linalg.norm(delta) < 1e-12:
            return True
        # a wall past q reads as no wall
        t, _ = raycast(self, p, delta[None, :], 1.0)
        return t[0] >= 1.0 - 1e-9

    # -- landmarks ----------------------------------------------------------

    def landmarks(self):
        """(ids (N,), positions (N,3), normals (N,3)), seeded per wall face;
        the ids strictly ascend."""
        return self._landmark_table

    @cached_property
    def _texel_table(self) -> _TexelTable:
        """The texture's lattice values, hashed on the first read."""
        return _build_texel_table(self)

    @cached_property
    def _landmark_table(self) -> tuple:
        cs = self.cell_size
        h, w = self.occupancy.shape
        ids, pos, nrm = [], [], []
        occ = self.occupancy
        for iy in range(h):
            for ix in range(w):
                if not occ[iy, ix]:
                    continue
                cell_idx = iy * w + ix
                for face, (dx, dy) in enumerate(_FACES):
                    nx, ny = ix + dx, iy + dy
                    if not (0 <= nx < w and 0 <= ny < h) or occ[ny, nx]:
                        continue
                    rng = np.random.default_rng(
                        [self.texture_seed, cell_idx, face])
                    u = rng.uniform(0.08, 0.92, LANDMARKS_PER_FACE)
                    z = rng.uniform(0.1, self.wall_height - 0.1,
                                    LANDMARKS_PER_FACE)
                    for j in range(LANDMARKS_PER_FACE):
                        # on the face's grid line across it, at u along it
                        x = (ix + (u[j] if dx == 0 else max(dx, 0))) * cs
                        y = (iy + (u[j] if dy == 0 else max(dy, 0))) * cs
                        ids.append((cell_idx * 4 + face) * LANDMARKS_PER_FACE + j)
                        pos.append((x, y, z[j]))
                        nrm.append((dx, dy, 0.0))
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

def raycast(world: GridWorld, origin, dirs, t_limit: float = math.inf):
    """Batched 2-D grid walk from an (x, y) origin along (n, 2) directions.

    ``t`` is in units of the (not necessarily normalized) direction vectors.
    Returns (t, face): the parameter of each ray's first crossing into a wall
    cell (inf if none) and the face it crossed, 0 west / 1 east / 2 south /
    3 north (-1 if none). The origin's own cell is not tested, and a
    crossing tie goes to the x face.

    ``t_limit`` ends the walk where a caller stops reading: a ray whose
    first wall crossing lies at ``t <= t_limit`` gets exactly the unlimited
    walk's (t, face), and any other ray gets (inf, -1). The walk takes at
    most as many steps as the rays cross grid lines up to the limit, plus a
    little slack for rounding; hits past the limit are masked at the end,
    so the slack changes no result. A NaN or negative ``t_limit`` raises
    ``ValueError``.

    The walk relies on the closed world: its boundary ring of cells is wall,
    so a ray from a cell inside the ring meets a wall before it can leave
    the grid, and no step is bounds-checked. The origin must lie in that
    interior (``GridWorld.in_interior``); any other origin, including one
    outside the grid or in the boundary ring, raises ``ValueError``. Only a
    zero direction never meets a wall: it gives inf and -1, unless the
    origin's own cell is wall (inf and face 1, which a finite ``t_limit``
    masks to inf and -1 like any hit past it). Rays leave the walk's arrays
    on the step they hit. A step adds the crossed axis's ``t_delta`` in
    place (``np.add(..., where=)``) and leaves every other value as it is,
    which adding -0.0 to it would too, bit for bit."""
    ox, oy = float(origin[0]), float(origin[1])
    if not world.in_interior(ox, oy):
        raise ValueError(f"grid walk origin ({ox}, {oy}) lies outside the "
                         f"grid's walled interior")
    t_limit = float(t_limit)
    if not t_limit >= 0.0:
        raise ValueError(f"grid walk limit {t_limit} is not a non-negative number")
    cs = world.cell_size
    grid_h, grid_w = world.occupancy.shape
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 2)
    n = len(dirs)
    if n == 0:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    dx, dy = dirs[:, 0], dirs[:, 1]

    ix, iy = math.floor(ox / cs), math.floor(oy / cs)
    step_x = np.sign(dx).astype(np.int64)
    step_y = np.sign(dy).astype(np.int64)
    # live rays, one column each: t_max_x, t_max_y, t_delta_x, t_delta_y
    # (floats) and flat cell, cell step in x, cell step in y, ray (ints)
    live_f = np.empty((4, n))
    # a zero component has no crossing (inf), and so, rounded, does a
    # subnormal one: cs / 5e-324 overflows to inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        live_f[0] = np.where(dx > 0.0, ((ix + 1) * cs - ox) / dx,
                             np.where(dx < 0.0, (ix * cs - ox) / dx, np.inf))
        live_f[1] = np.where(dy > 0.0, ((iy + 1) * cs - oy) / dy,
                             np.where(dy < 0.0, (iy * cs - oy) / dy, np.inf))
        live_f[2] = np.where(dx != 0.0, cs / np.abs(dx), np.inf)
        live_f[3] = np.where(dy != 0.0, cs / np.abs(dy), np.inf)
    live_i = np.array([np.full(n, iy * grid_w + ix), step_x,
                       step_y * grid_w, np.arange(n)])
    occupied = world.occupancy.ravel()

    t_hit = np.full(n, np.inf)
    hit_x = np.full(n, -1, dtype=np.int8)   # crossed an x face: 1, y: 0
    # every step of a nonzero direction enters a new cell, so w + h steps
    # reach the boundary ring; a hit at t <= t_limit comes no later than the
    # ray's grid-line crossings up to t_limit, which the loop's running sums
    # reach within a step of this count on each axis
    steps = grid_w + grid_h
    if t_limit < math.inf:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            crossings = np.where(live_f[:2] <= t_limit,
                                 np.floor((t_limit - live_f[:2]) / live_f[2:]) + 1.0,
                                 0.0).sum(axis=0)
        steps = int(min(crossings.max() + 2.0, steps))
    t_max_x, t_max_y, t_delta_x, t_delta_y = live_f
    cell, cell_step_x, cell_step_y, ray = live_i
    for _ in range(steps):
        use_x = t_max_x <= t_max_y
        cell += np.where(use_x, cell_step_x, cell_step_y)
        wall = occupied[cell]
        if np.count_nonzero(wall):
            hit = ray[wall]
            t_hit[hit] = np.where(use_x, t_max_x, t_max_y)[wall]
            hit_x[hit] = use_x[wall]
            if len(hit) == len(ray):
                break
            keep = ~wall
            live_f, live_i = live_f.compress(keep, axis=1), live_i.compress(keep, axis=1)
            use_x = use_x[keep]
            t_max_x, t_max_y, t_delta_x, t_delta_y = live_f
            cell, cell_step_x, cell_step_y, ray = live_i
        # only the crossed axis advances, in place where it does: the others
        # keep their value bit for bit, as adding -0.0 would (adding 0.0
        # would turn a first crossing of -0.0, an origin on a grid line,
        # into +0.0)
        np.add(t_max_x, t_delta_x, out=t_max_x, where=use_x)
        np.add(t_max_y, t_delta_y, out=t_max_y, where=~use_x)

    face = np.where(hit_x == 1, np.where(step_x > 0, 0, 1),
                    np.where(step_y > 0, 2, 3))
    face[hit_x < 0] = -1
    past = t_hit > t_limit
    t_hit[past] = np.inf
    face[past] = -1
    return t_hit, face


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

class SimFrame:
    """Rendered observation with simulator ground truth attached.

    ``gt_pose`` is a plain attribute, set by ``render``. A frame is read
    whole or as planning rows. The first ``observation()`` renders it whole
    and keeps the result: one grid walk for the image columns and the
    candidate landmarks' sight-lines, then the shading and the visible
    landmarks. ``depth``, ``color`` and the ``landmark_*`` annotations read
    it. ``depth_rows(stop, max_range)`` gives the top ``stop`` rows of the
    depth with every depth beyond ``max_range`` read as 0; before the whole
    render it walks those rows' columns alone, only as far as ``max_range``,
    and keeps nothing, so a navigation tick that does not localize pays for
    nothing else. On the presets at a 128x128 camera on a 2-vCPU host, a
    whole frame takes 1.8-2.2 ms and the planner's 60 rows out to 3.5 m
    0.43-0.46 ms, check included (medians over 60 poses a preset)."""

    def __init__(self, world: GridWorld, K: CameraIntrinsics, gt_pose: Pose,
                 rot: np.ndarray):
        self.gt_pose = gt_pose
        self._world = world
        self._K = K
        self._rot = rot         # gt_pose's rotation matrix, checked level

    @cached_property
    def _observation(self) -> Observation:
        cam = self.gt_pose.t
        cand, sight = _landmark_candidates(self._world, cam, self._rot, self._K)
        depth, walk, t_sight = _render_rows(self._world, cam, self._rot, self._K,
                                            self._K.height, sight=sight)
        color = _shade(self._world, cam, depth.ravel(), *walk).reshape(depth.shape)
        ids, uv, z = _visible_landmarks(cand, t_sight)
        return Observation(color=color, depth=depth, landmark_ids=ids,
                           landmark_uv=uv, landmark_depth=z)

    def observation(self) -> Observation:
        return self._observation

    depth = property(lambda self: self._observation.depth)
    color = property(lambda self: self._observation.color)
    landmark_ids = property(lambda self: self._observation.landmark_ids)
    landmark_uv = property(lambda self: self._observation.landmark_uv)
    landmark_depth = property(lambda self: self._observation.landmark_depth)

    def depth_rows(self, stop: int, max_range: float = math.inf) -> np.ndarray:
        """``np.where(depth[:stop] <= max_range, depth[:stop], 0.0)`` bit for
        bit, for ``1 <= stop``, whether or not the observation is rendered
        yet; with the default ``max_range`` it is the top of ``depth``
        itself. A ``stop`` below 1, or a ``max_range`` that is NaN or not
        positive, raises ``ValueError``."""
        if stop < 1:
            raise ValueError(f"depth_rows needs stop >= 1, got {stop}")
        if not max_range > 0.0:
            raise ValueError(f"depth_rows needs a positive max_range, got {max_range}")
        if "_observation" in vars(self):
            rows = self.depth[:stop]
        else:
            rows = _render_rows(self._world, self.gt_pose.t, self._rot, self._K,
                                min(stop, self._K.height), max_range)[0]
        if max_range == math.inf:
            return rows
        return np.where(rows <= max_range, rows, 0.0)


# a detector range limit: keeps typical views at a few hundred annotations
LANDMARK_RANGE = 12.0


@lru_cache(maxsize=8)
def _camera_rays(K: CameraIntrinsics) -> np.ndarray:
    """Camera-frame rays of every pixel, row by row, with unit z: read-only
    and kept per camera."""
    uu, vv = np.meshgrid(np.arange(K.width, dtype=float),
                         np.arange(K.height, dtype=float))
    rays = unproject(K, uu.ravel(), vv.ravel(), np.ones(uu.size))
    rays.flags.writeable = False
    return rays


def render(world: GridWorld, pose: Pose, K: CameraIntrinsics) -> SimFrame:
    """Exact render of a level camera: depth (z-depth, 0 where no surface),
    hash texture grayscale, and visible-landmark annotations.

    The camera's y axis must be world -z (within 1e-9), so the pixels of an
    image column share one horizontal direction. A 2-D grid walk along it
    gives the column's first wall crossing ``t_wall``; a pixel whose ray
    meets the floor plane first (``t_floor <= t_wall``) sees floor, else it
    sees the wall if the crossing lies below the wall top, else sky. Only
    the checks happen here: the returned frame renders itself whole on its
    first ``observation()`` (or a read of one of its images or annotations),
    or renders the planning rows ``depth_rows`` asks for. Raises
    ``PoseInCollision`` for a camera inside a wall and ``ValueError`` for a
    camera that is not level or not below the wall top."""
    x, y, z = pose.t.tolist()
    if not world.free_point(x, y):
        raise PoseInCollision(f"camera at ({x:.3f}, {y:.3f}) is inside a wall")
    if not 0.0 < z < world.wall_height:
        raise ValueError("camera height must lie in (0, wall_height)")
    rot = pose.rotation_matrix()
    # the camera y axis's largest deviation from (0, 0, -1), in plain floats
    r01, r11, r21 = rot[:, 1].tolist()
    if abs(r01) > 1e-9 or abs(r11) > 1e-9 or abs(r21 + 1.0) > 1e-9:
        raise ValueError("camera must be level (camera y axis along world -z)")
    return SimFrame(world, K, pose, rot)


def _render_rows(world: GridWorld, cam, rot, K: CameraIntrinsics, stop: int,
                 t_limit: float = math.inf, sight=np.zeros((0, 2))):
    """Depth of image rows ``0 .. stop - 1`` of a checked level camera at
    ``cam`` with rotation ``rot``, the per-pixel walk arrays shading reads,
    and the walk's ``t`` along each of the (n, 2) ``sight`` directions:
    (depth (stop, width), (dirs_world, floor, wall, face), t_sight (n,)).
    Every pixel's value depends on its own ray alone, so these rows are the
    top of the full image (``stop = K.height``) bit for bit. The sight-lines
    ride the columns' one walk; each ray's walk is its own, so ``t_sight``
    is ``raycast(world, cam, sight, t_limit)[0]`` bit for bit. With a finite
    ``t_limit`` the columns are walked only that far (``raycast``), and the
    depth is fit only to be masked: ``np.where(depth <= t_limit, depth,
    0.0)`` equals the unlimited render's depth masked alike, while a pixel
    past the limit may read inf where the full render sees sky. The walk
    arrays are then not fit to shade. The column directions are gathered by
    the index of each run's first pixel and the pixel-to-walk index is built
    from the run lengths (``np.repeat``); both equal, bit for bit, the
    boolean-mask gather and the mask's ``cumsum`` they replace."""
    # the same product as ``@ rot.T``, bit for bit; with the transpose laid
    # out in memory numpy takes its faster path, 13 against 38 us for 64
    # rows of 128 on a 2-vCPU host
    dirs_world = _camera_rays(K)[:stop * K.width] @ np.ascontiguousarray(rot.T)
    # rounding splits a column's horizontal direction into a few that differ
    # in the last bits; walking each once gives every pixel its own ray's
    # crossing, so no depth bit moves (keyframe coverage bins wall points,
    # which lie exactly on grid lines)
    col_x = dirs_world[:, 0].reshape(stop, K.width).T.ravel()
    col_y = dirs_world[:, 1].reshape(stop, K.width).T.ravel()
    new = np.ones(col_x.size, dtype=bool)
    new[1:] = (col_x[1:] != col_x[:-1]) | (col_y[1:] != col_y[:-1])
    # each run of equal directions, column by column, is walked once from
    # its first pixel; a pixel reads the walk of its run
    first = np.flatnonzero(new)
    cols = np.column_stack((col_x[first], col_y[first]))
    t_all, face_all = raycast(world, cam, np.concatenate((cols, sight)), t_limit)
    runs = np.empty_like(first)
    runs[:-1] = first[1:] - first[:-1]
    runs[-1] = col_x.size - first[-1]
    walk = np.repeat(np.arange(len(first)), runs).reshape(K.width, stop).T.ravel()
    t_wall, face = t_all[walk], face_all[walk]

    dz = dirs_world[:, 2]
    # past a walk's limit t_wall is inf: the pixel reads floor at t_floor,
    # inf for a level ray (dz = 0), whose wall height dz * t_wall is NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        t_floor = np.where(dz < 0.0, -cam[2] / dz, np.inf)
        floor = t_floor <= t_wall
        wall = ~floor & (cam[2] + dz * t_wall <= world.wall_height)
    # dirs_cam has unit z, so the ray parameter equals camera z-depth
    t = np.where(floor, t_floor, np.where(wall, t_wall, 0.0))
    return t.reshape(stop, K.width), (dirs_world, floor, wall, face), t_all[len(cols):]


def _shade(world: GridWorld, cam, t, dirs_world, floor, wall, face) -> np.ndarray:
    """Flat grayscale of one render: the hash texture of every pixel that
    sees floor or wall at ray parameter ``t``, 0 for sky."""
    surface = np.flatnonzero(floor | wall)
    floor, face, t_surface = floor[surface], face[surface], t[surface]
    # one coordinate at a time: numpy gathers rows of the (N, 3) rays and
    # broadcasts their product with an (n, 1) column row by row, at several
    # times the cost
    x, y, z = (cam[j] + dirs_world[:, j][surface] * t_surface for j in range(3))
    # wall faces lie on grid planes; the integer plane index keys the
    # texture. Faces 0 and 1 (west, east) lie on x planes, 2 and 3 on y.
    x_face = face < 2
    axis = np.where(floor, 2, face >> 1)
    plane_idx = np.where(floor, 0, np.rint(np.where(x_face, x, y) / world.cell_size)
                         .astype(np.int64))
    su = np.where(x_face & ~floor, y, x)
    sv = np.where(floor, y, z)
    color = np.zeros(len(t), dtype=np.uint8)
    color[surface] = _surface_color(world, axis, plane_idx, su, sv)
    return color


def _landmark_candidates(world: GridWorld, cam, rot, K: CameraIntrinsics):
    """The landmarks a level camera at ``cam`` with rotation ``rot`` could
    see, before any occlusion test: those that project into the image, face
    the camera and lie within ``LANDMARK_RANGE``. Returns their (ids, uv,
    z-depth), and their (x, y) sight-lines from the camera, which the
    render's grid walk tests."""
    ids, pos, nrm = world.landmarks()
    p_cam = (pos - cam) @ rot
    uv, in_view = project_array(K, p_cam)
    facing = np.einsum("ij,ij->i", nrm, cam[None, :] - pos) > 1e-9
    in_range = np.linalg.norm(pos - cam, axis=1) <= LANDMARK_RANGE
    cand = np.nonzero(in_view & facing & in_range)[0]
    return (ids[cand], uv[cand], p_cam[cand, 2]), pos[cand, :2] - cam[None, :2]


def _visible_landmarks(cand, t) -> tuple:
    """The annotations of the candidates ``_landmark_candidates`` returned
    whose sight-line walk ``t`` meets no wall before the landmark, in id
    order (the table's, which the candidates keep): (ids, uv, z-depth)."""
    ids, uv, z = cand
    # camera and landmark both lie between floor and wall top, so the 3-D
    # segment is blocked exactly when its (x, y) shadow crosses a wall cell
    sel = np.flatnonzero(t >= 1.0 - 1e-6)
    return ids[sel], uv[sel], z[sel]


# ---------------------------------------------------------------------------
# robot and odometry
# ---------------------------------------------------------------------------

def planar_camera_pose(x: float, y: float, yaw: float,
                       z: float = CAMERA_HEIGHT_DEFAULT) -> Pose:
    """Level camera at (x, y, z) looking along the yaw direction.

    Camera axes in world: z forward (cos yaw, sin yaw, 0), x right, y down.
    The rotation is ``[[s, 0, c], [-c, 0, s], [0, -1, 0]]`` (c, s the cosine
    and sine of yaw), and its quaternion is formed here in plain floats with
    ``matrix_to_quat``'s arithmetic for that matrix, branch by branch, then
    ``quat_normalize``: the pose equals ``Pose.from_rt`` of the matrix bit
    for bit, signed zeros and the errors of a non-finite yaw included."""
    c, s = math.cos(yaw), math.sin(yaw)
    # matrix_to_quat's trace and diagonal tests, with its zeros written out
    tr = s + 0.0 + 0.0
    if tr > 0.0:
        w = math.sqrt(tr + 1.0) * 2.0
        q = (0.25 * w, (-1.0 - s) / w, (c - 0.0) / w, (-c - 0.0) / w)
    elif s >= 0.0:
        w = math.sqrt(1.0 + s - 0.0 - 0.0) * 2.0
        q = ((-1.0 - s) / w, 0.25 * w, (0.0 + -c) / w, (c + 0.0) / w)
    else:
        # m11 >= m22 holds (0 >= 0), so the last branch is never taken
        w = math.sqrt(1.0 + 0.0 - s - 0.0) * 2.0
        q = ((c - 0.0) / w, (0.0 + -c) / w, 0.25 * w, (s + -1.0) / w)
    return Pose(np.array([x, y, z]), quat_normalize(q))


# a step's start pose in its own frame, inverted once: the step's odometry
# delta is that pose ``between`` the noisy end pose
_ODOM_FRAME_INVERSE = planar_camera_pose(0.0, 0.0, 0.0, CAMERA_HEIGHT_DEFAULT).inverse()


def pose_to_planar(pose: Pose):
    """(x, y, yaw) of a planar camera pose (yaw from the forward axis). The
    forward axis is the rotation matrix's last column, formed in plain
    floats with ``quat_to_matrix``'s arithmetic for it."""
    qw, qx, qy, qz = pose.q.tolist()
    x, y, _ = pose.t.tolist()
    return x, y, math.atan2(2.0 * (qy * qz - qw * qx), 2.0 * (qx * qz + qw * qy))


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
        odometry still reports the attempted zero motion plus noise. The
        speeds are clamped with ``min``/``max`` on floats, bit for bit
        ``np.clip``'s result: a NaN command stays NaN and -0.0 stays -0.0.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        # max before min, with the command first, so a NaN passes through
        v = min(max(float(cmd[0]), -V_MAX), V_MAX)
        w = min(max(float(cmd[1]), -W_MAX), W_MAX)
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

        delta = _ODOM_FRAME_INVERSE.compose(
            planar_camera_pose(od_fwd, od_left, od_yaw, CAMERA_HEIGHT_DEFAULT))

        self.x, self.y, self.yaw = nx, ny, wrap_angle(nyaw)
        return self.gt_pose, delta


# ---------------------------------------------------------------------------
# segment generation
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SegmentRecording:
    """A generated traversal: posed frames, odometry stream, ground truth."""

    segment: Segment
    odometry: list      # (timestamp, delta Pose), one per control tick
    gt_stream: list     # (timestamp, gt Pose), one per control tick + t=0


def generate_segment(world: GridWorld, waypoints, K: CameraIntrinsics,
                     camera_rate: float = 2.0, odom_rate: float = 15.0,
                     seed: int = 0, noise: OdomNoise = OdomNoise()) -> SegmentRecording:
    """Drive a pursuit controller through the waypoints, rendering camera
    frames at ``camera_rate`` and odometry at ``odom_rate``.

    Segment frame poses are ground truth. Deterministic per seed. Raises
    ValueError unless both rates are finite and positive, for a waypoint
    that is not finite or not in free space, and for an ``odom_rate`` that
    would take more than MAX_DRIVE_STEPS ticks over the drive's time budget
    (30 s plus six times the route's length at V_MAX), before it drives.
    Under that cap every tick advances the clock, so the drive ends within
    its budget."""
    for name, rate in (("camera_rate", camera_rate), ("odom_rate", odom_rate)):
        if not (math.isfinite(rate) and rate > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {rate}")
    waypoints = [np.asarray(w, dtype=float)[:2] for w in waypoints]
    if not waypoints:
        raise ValueError("need at least one waypoint")
    for wp in waypoints:
        if not np.isfinite(wp).all():
            raise ValueError(f"waypoint ({wp[0]}, {wp[1]}) is not finite")
        if not world.free_point(wp[0], wp[1]):
            raise ValueError(f"waypoint ({wp[0]}, {wp[1]}) is not in free space")
    path_len = sum(float(np.linalg.norm(b - a))
                   for a, b in zip(waypoints, waypoints[1:]))
    timeout = 30.0 + 6.0 * path_len / V_MAX
    if odom_rate * timeout > MAX_DRIVE_STEPS:
        raise ValueError(f"odom_rate {odom_rate} would take over {MAX_DRIVE_STEPS} "
                         f"steps in the drive's {timeout:.0f} s time budget")

    if len(waypoints) > 1:
        d0 = waypoints[1] - waypoints[0]
        yaw0 = math.atan2(d0[1], d0[0])
    else:
        yaw0 = 0.0
    robot = SimRobot(waypoints[0][0], waypoints[0][1], yaw0, noise=noise, seed=seed)

    dt = 1.0 / odom_rate
    frames, odometry, gt_stream = [], [], []
    t = 0.0
    gt_pose = robot.gt_pose     # each step returns the next one
    gt_stream.append((t, gt_pose))

    def capture(ts, pose):
        frames.append(SegmentFrame(obs=render(world, pose, K).observation(),
                                   pose=pose, timestamp=ts))

    capture(0.0, gt_pose)
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
            capture(t, gt_pose)
            next_cam += 1.0 / camera_rate

    if frames and frames[-1].timestamp < t:
        capture(t, gt_pose)

    segment = Segment(frames=frames, camera=K)
    return SegmentRecording(segment=segment, odometry=odometry,
                            gt_stream=gt_stream)


def annotate_map_with_landmarks(topo_map, K: CameraIntrinsics,
                                world: GridWorld) -> None:
    """Re-render each node pose to repopulate the transient landmark
    annotations (and any missing image) on a loaded map, enabling the
    oracle matcher against it. Every node costs a whole render (see
    ``SimFrame``), shading included even where the node keeps its image;
    only the CLI runs this, once per map it loads, and no hot loop does."""
    for node in topo_map.nodes:
        obs = render(world, node.pose, K).observation()
        node.landmark_ids = obs.landmark_ids
        node.landmark_uv = obs.landmark_uv
        node.landmark_depth = obs.landmark_depth
        if node.image is None:
            node.image = obs.color


# ---------------------------------------------------------------------------
# segment directory layout
# ---------------------------------------------------------------------------

_POSES_HEADER = "frame,timestamp,x,y,z,qw,qx,qy,qz"
_ODOM_HEADER = "timestamp,x,y,z,qw,qx,qy,qz"
_LM_HEADER = "id,u,v,depth"


def save_segment(recording: SegmentRecording, segdir) -> None:
    """Write a recording as a directory the CLI commands consume:
    frames/<k>.pgm, depth/<k>.f64 (little-endian float64, the rendered
    precision), landmarks/<k>.csv for a frame with landmark annotations
    (none for one without, as real sensors leave it), poses.csv,
    odometry.csv, gt_traj.txt (TUM), intrinsics.txt. Every value is kept
    exactly."""
    os.makedirs(os.path.join(segdir, "frames"), exist_ok=True)
    os.makedirs(os.path.join(segdir, "depth"), exist_ok=True)
    os.makedirs(os.path.join(segdir, "landmarks"), exist_ok=True)
    seg = recording.segment
    with open(os.path.join(segdir, "intrinsics.txt"), "w") as f:
        f.write(seg.camera.to_line() + "\n")
    write_csv(os.path.join(segdir, "poses.csv"), _POSES_HEADER,
              ([str(k), fmt17(fr.timestamp), *fr.pose.fields()]
               for k, fr in enumerate(seg.frames)))
    for k, fr in enumerate(seg.frames):
        obs = fr.obs
        write_pgm(os.path.join(segdir, "frames", f"{k}.pgm"), obs.color)
        write_raw(os.path.join(segdir, "depth", f"{k}.f64"), obs.depth, "<f8")
        lm_path = os.path.join(segdir, "landmarks", f"{k}.csv")
        if obs.landmark_ids is not None:
            write_csv(lm_path, _LM_HEADER,
                      ([str(i), fmt17(u), fmt17(v), fmt17(d)] for i, (u, v), d
                       in zip(obs.landmark_ids, obs.landmark_uv, obs.landmark_depth)))
        elif os.path.exists(lm_path):
            os.remove(lm_path)      # an earlier recording's annotations
    write_csv(os.path.join(segdir, "odometry.csv"), _ODOM_HEADER,
              ([fmt17(ts), *delta.fields()] for ts, delta in recording.odometry))
    write_trajectory(os.path.join(segdir, "gt_traj.txt"), recording.gt_stream)


def load_segment(segdir) -> SegmentRecording:
    """Read a directory that ``save_segment`` wrote back as the recording,
    bit for bit. Depth is read from ``depth/<k>.f64`` only: the float32
    ``depth/<k>.f32`` of earlier writers is not read. A frame without
    ``landmarks/<k>.csv`` has no landmark annotations (its three landmark
    fields are None)."""
    path = os.path.join(segdir, "intrinsics.txt")
    with open(path) as f, line_errors(path, 1):
        camera = CameraIntrinsics.from_line(f.readline())
    _, rows = read_csv_rows(
        os.path.join(segdir, "poses.csv"), _POSES_HEADER,
        lambda row: (int(row[0]), float(row[1]), Pose.from_fields(row[2:])))
    frames = []
    for k, ts, pose in rows:
        color = read_pgm(os.path.join(segdir, "frames", f"{k}.pgm"))
        depth = read_raw(os.path.join(segdir, "depth", f"{k}.f64"), "<f8",
                         shape=color.shape)
        lm_path = os.path.join(segdir, "landmarks", f"{k}.csv")
        landmarks = {}
        if os.path.exists(lm_path):
            _, lms = read_csv_rows(lm_path, _LM_HEADER, lambda row: (
                int(row[0]), float(row[1]), float(row[2]), float(row[3])))
            landmarks = dict(
                landmark_ids=np.array([lm[0] for lm in lms], dtype=np.int64),
                landmark_uv=np.array([lm[1:3] for lm in lms], dtype=float).reshape(-1, 2),
                landmark_depth=np.array([lm[3] for lm in lms], dtype=float))
        obs = Observation(color=color, depth=depth, **landmarks)
        frames.append(SegmentFrame(obs=obs, pose=pose, timestamp=ts))
    _, odometry = read_csv_rows(os.path.join(segdir, "odometry.csv"), _ODOM_HEADER,
                                lambda row: (float(row[0]), Pose.from_fields(row[1:])))
    gt_stream = read_trajectory(os.path.join(segdir, "gt_traj.txt"))
    return SegmentRecording(Segment(frames=frames, camera=camera), odometry, gt_stream)


# ---------------------------------------------------------------------------
# world presets
# ---------------------------------------------------------------------------

def make_preset(name: str, seed: int = 0):
    """The built-in world layout ``name``, one of ``PRESETS``; returns
    (world, mapping route waypoints). Any other name is a ValueError."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset '{name}'")
    return PRESETS[name](seed)


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


# preset name -> builder of (world, route) from a seed
PRESETS = {"corridor": _preset_corridor, "rooms": _preset_rooms, "campus": _preset_campus}


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
