"""Hierarchical planning and navigation evaluation.

Global planning is Dijkstra over the connectivity level of the map; its
traversed nodes become subgoals. The local planner scores a fixed fan of
constant-curvature arcs (``CURVATURES``, all sampled in one array pass)
against the single-frame depth point cloud (rotate-in-place is part of the
primitive set, so a subgoal behind the robot naturally wins rotation).
Closed-loop navigation ties the simulator, the localization pipeline, and
both planners together; trajectory quality is measured by no-alignment
absolute trajectory error.

The robot and its planners are one fixed design, so their tuning values
are the module constants below (radii, the arc fan, nominal speeds, the
control and localization rates, the mission's ``NAV_PIPELINE`` gates);
``NavConfig`` holds only the mission timeout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from .errors import NoMatches, NoPath, NotLocalized
from .geometry import CameraIntrinsics, Pose
from .mapgraph import nearest_node
from .pipeline import Pipeline, PipelineConfig, PipelineMode
from .retrieval import extract_descriptor, top_k
from .simworld import CAMERA_HEIGHT_DEFAULT, GridWorld, SimRobot, pose_to_planar, render

SWITCH_RADIUS = 1.0
GOAL_RADIUS = 0.5
# steering stops once the estimate is within this share of GOAL_RADIUS:
# success is judged on the true position, so this leaves a margin for
# localization error
GOAL_SLACK = 0.85
ROBOT_RADIUS = 0.3
# the arc fan: it includes the straight arc and is symmetric in curvature
CURVATURES = (0.0, 0.2, -0.2, 0.5, -0.5, 1.0, -1.0)
ARC_LENGTH = 2.0
ARC_DS = 0.1
CURVATURE_PENALTY = 0.1
V_NOMINAL = 0.8
W_NOMINAL = 1.0
CONTROL_DT = 0.1
LOCALIZE_RATE = 2.0   # Hz; fixes are low-rate, odometry high-rate
# obstacles are depth points whose height above the camera, not above the
# floor, lies inside this band: 0.15 to 1.4 m, which with the camera at
# CAMERA_HEIGHT_DEFAULT (1.0 m) is 1.15 to 2.4 m above the floor. A lower
# bound at or above zero lets the planner skip every row at or below the
# principal point (obstacle_rows).
OBSTACLE_Z_BAND = (0.15, max(0.3, CAMERA_HEIGHT_DEFAULT + 0.4))
OBSTACLE_MAX_RANGE = 3.5
# a navigation mission gates global localization harder than the bare
# pipeline default: one false accept plants a bogus prior and sends the
# robot off the map. Rotating in place to face a subgoal takes longer than
# five failed low-rate fixes, so a mission rides through rotations at
# max_failures=12.
NAV_PIPELINE = PipelineConfig(gl_min_sim=0.65, max_failures=12)


@dataclass
class GlobalPlan:
    """Dijkstra node path with a subgoal cursor."""

    node_path: list
    length: float
    subgoal_index: int = 0


def plan_global(topo_map, start_node: int, goal_node: int) -> GlobalPlan:
    """Shortest path on the connectivity graph, by ``csgraph.dijkstra``.
    Among equally short paths scipy's search picks one, the same on every
    call for the same map (on the unit square, 0 -> 3 gives [0, 2, 3])."""
    n = len(topo_map.nodes)
    for node in (start_node, goal_node):
        if not 0 <= node < n:
            raise ValueError(f"node {node} not in map")
    dist, pred = csgraph.dijkstra(topo_map.cng, indices=start_node,
                                  return_predecessors=True)
    if not math.isfinite(dist[goal_node]):
        raise NoPath(f"nodes {start_node} and {goal_node} are not connected")
    path = [goal_node]
    while path[-1] != start_node:
        path.append(int(pred[path[-1]]))
    path.reverse()
    return GlobalPlan(node_path=path, length=float(dist[goal_node]))


def resolve_goal(topo_map, goal_image):
    """Top-1 retrieval of the goal image; returns (node_id, similarity).
    Raises EmptyMap, from ``top_k``, on a map without nodes."""
    node_id, sim = top_k(extract_descriptor(goal_image), topo_map, k=1).top1()
    return node_id, sim


def to_robot_frame(pose: Pose, point_world) -> np.ndarray:
    """``point_world`` in the planar ground frame at the camera: x forward,
    y left, z up, with z set to 0."""
    x, y, yaw = pose_to_planar(pose)
    d = np.asarray(point_world, dtype=float)[:2] - np.array([x, y])
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([c * d[0] + s * d[1], -s * d[0] + c * d[1], 0.0])


def next_subgoal(plan: GlobalPlan, topo_map, robot_pose: Pose):
    """Advance the cursor past subgoals within SWITCH_RADIUS, then return
    the active subgoal in the robot frame, or None when the final node is
    reached within GOAL_RADIUS * GOAL_SLACK (Done)."""
    origin = robot_pose.t[:2]
    while plan.subgoal_index < len(plan.node_path):
        target = topo_map.nodes[plan.node_path[plan.subgoal_index]].pose.t
        dist = float(np.linalg.norm(target[:2] - origin))
        last = plan.subgoal_index == len(plan.node_path) - 1
        if last:
            if dist < GOAL_RADIUS * GOAL_SLACK:
                return None
            break
        if dist < SWITCH_RADIUS:
            plan.subgoal_index += 1
            continue
        break
    target = topo_map.nodes[plan.node_path[plan.subgoal_index]].pose.t
    return to_robot_frame(robot_pose, target)


# ---------------------------------------------------------------------------
# local planning
# ---------------------------------------------------------------------------

def _arc_fan(curvatures, length):
    """The arcs of ``curvatures`` sampled every ARC_DS, as x and y arrays
    (len(curvatures), samples); ``length`` truncates them below ARC_LENGTH
    (a short final approach would otherwise never score better than
    rotating in place, since full-length endpoints all overshoot a near
    subgoal)."""
    arc_len = min(ARC_LENGTH, max(2 * ARC_DS, length))
    s = np.arange(ARC_DS, arc_len + ARC_DS / 2, ARC_DS)
    k = np.asarray(curvatures, dtype=float)[:, None]
    straight = np.abs(k) < 1e-12
    ks = np.where(straight, 1.0, k)
    x = np.where(straight, s, np.sin(k * s) / ks)
    y = np.where(straight, 0.0, (1.0 - np.cos(k * s)) / ks)
    return x, y


# the fan ``_arc_fan(CURVATURES, length)`` gives, bit for bit, for every
# ``length >= ARC_LENGTH`` (each is cut at ARC_LENGTH): sampled once and
# read-only, for every tick whose subgoal is that far
_FULL_ARC_FAN = _arc_fan(CURVATURES, ARC_LENGTH)
_FULL_ARC_FAN[0].flags.writeable = False
_FULL_ARC_FAN[1].flags.writeable = False


ROTATE_IN_PLACE = "rotate"


def obstacle_rows(K: CameraIntrinsics) -> int:
    """How many image rows, from the top, ``depth_to_obstacles`` reads. A
    pixel at or below the principal row has ``z_up <= 0``, so while
    OBSTACLE_Z_BAND's lower bound is at least zero only the rows above it
    can hold an obstacle; a band reaching below the camera reads every
    row."""
    return K.height if OBSTACLE_Z_BAND[0] < 0.0 else math.ceil(K.cy)


def depth_to_obstacles(depth: np.ndarray, K: CameraIntrinsics) -> np.ndarray:
    """Robot-frame 2-D obstacle points from the top ``obstacle_rows(K)``
    rows of a depth image (the whole image or just those rows), each
    distinct point once.

    The camera is level, so the fixed mount maps camera (x right, y down,
    z forward) to robot (x forward, y left, z up, from the camera): a
    point's height ``z_up`` is measured from the camera, not the floor, and
    it is an obstacle while inside OBSTACLE_Z_BAND. Every wall pixel of an
    image column lies at one robot-frame (x, y), up to the last bits of the
    few ray directions a column splits into, so pixels are taken column by
    column and a point equal to the one before it is dropped (on the
    presets' mapping frames, about 57 of 2,200 points remain).
    ``plan_local`` takes a minimum over the points, which dropped
    duplicates cannot change."""
    # column by column, with unproject's arithmetic; the lateral offset only
    # for the pixels kept
    d = depth[:obstacle_rows(K)].T
    z_up = -((np.arange(d.shape[1]) - K.cy) / K.fy * d)
    uu, vv = np.nonzero((d > 0) & (z_up > OBSTACLE_Z_BAND[0])
                        & (z_up < OBSTACLE_Z_BAND[1]) & (d < OBSTACLE_MAX_RANGE))
    x_fwd = d[uu, vv]
    y_left = -((uu - K.cx) / K.fx * x_fwd)
    distinct = np.ones(len(uu), dtype=bool)
    distinct[1:] = (x_fwd[1:] != x_fwd[:-1]) | (y_left[1:] != y_left[:-1])
    return np.stack([x_fwd[distinct], y_left[distinct]], axis=1)


def plan_local(depth: np.ndarray, K: CameraIntrinsics, subgoal_robot):
    """Score the primitive fan against the single-frame obstacle cloud of
    ``depth``, as ``depth_to_obstacles`` reads it.

    Returns ((v, w), chosen) where chosen is the curvature or the
    rotate-in-place marker. Rotation is the universal fallback and also a
    scored member of the set, so it wins when every arc moves away from
    the subgoal (e.g. the subgoal lies behind the robot). A subgoal at least
    ARC_LENGTH away is scored against ``_FULL_ARC_FAN``, the bits
    ``_arc_fan`` would sample for it."""
    subgoal = np.asarray(subgoal_robot, dtype=float)[:2]
    obstacles = depth_to_obstacles(depth, K)
    subgoal_dist = float(np.linalg.norm(subgoal))
    x, y = (_FULL_ARC_FAN if subgoal_dist >= ARC_LENGTH
            else _arc_fan(CURVATURES, subgoal_dist))
    blocked = [False] * len(CURVATURES)
    if len(obstacles):
        # squared clearance of every sample of every arc to every point
        ox, oy = obstacles.T
        dx = x[:, :, None] - ox
        dy = y[:, :, None] - oy
        blocked = ((dx * dx + dy * dy).min(axis=(1, 2)) < ROBOT_RADIUS ** 2).tolist()
    ends = np.stack([x[:, -1], y[:, -1]], axis=1)
    best = subgoal_dist + CURVATURE_PENALTY * max(abs(k) for k in CURVATURES)
    choice = ROTATE_IN_PLACE
    for k, end, hit in zip(CURVATURES, ends, blocked):
        if hit:
            continue
        cost = float(np.linalg.norm(end - subgoal)) + CURVATURE_PENALTY * abs(k)
        if cost < best - 1e-12:
            best = cost
            choice = k
    if choice == ROTATE_IN_PLACE:
        direction = 1.0 if math.atan2(subgoal[1], subgoal[0]) >= 0.0 else -1.0
        return (0.0, direction * W_NOMINAL), ROTATE_IN_PLACE
    v = V_NOMINAL if choice == 0.0 else min(V_NOMINAL, W_NOMINAL / abs(choice))
    return (v, choice * v), choice


# ---------------------------------------------------------------------------
# trajectory evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AteReport:
    rmse: float
    errors: np.ndarray
    matched: int


def compute_ate(gt_traj, est_traj, max_dt: float = 0.05) -> AteReport:
    """No-alignment ATE: both trajectories already live in the map's world
    frame, so any alignment would mask exactly the error being measured.
    Pairs are associated by nearest timestamp within max_dt; a negative or
    NaN max_dt pairs nothing, which raises NoMatches."""
    if not gt_traj or not est_traj:
        raise NoMatches("empty trajectory")
    gt_ts = np.array([t for t, _ in gt_traj])
    errors = []
    for ts, pose in est_traj:
        k = int(np.argmin(np.abs(gt_ts - ts)))
        if not abs(gt_ts[k] - ts) <= max_dt:
            continue
        errors.append(float(np.linalg.norm(pose.t - gt_traj[k][1].t)))
    if not errors:
        raise NoMatches("no timestamp pairs within max_dt")
    errors = np.array(errors)
    return AteReport(rmse=float(np.sqrt(np.mean(errors ** 2))),
                     errors=errors, matched=len(errors))


# ---------------------------------------------------------------------------
# closed-loop navigation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NavConfig:
    timeout: float = 240.0

    def __post_init__(self):
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout {self.timeout} must be finite and positive")


@dataclass
class NavReport:
    """One goal of a mission: a ``write_csv`` row under ``CSV_HEADER``."""

    CSV_HEADER = ("goal_index,goal_node,success,time_s,path_length_m,"
                  "shortest_path_m,final_goal_dist_m,timed_out,goal_similarity")

    success: bool
    time_s: float
    path_length_m: float
    goal_node: int
    goal_similarity: float
    shortest_path_m: float
    final_goal_dist_m: float
    timed_out: bool
    trajectory: list        # estimated (t, Pose)
    gt_trajectory: list     # true (t, Pose), from t_start on

    def csv_fields(self, goal_index: int) -> list:
        floats = (self.time_s, self.path_length_m, self.shortest_path_m,
                  self.final_goal_dist_m)
        return [str(goal_index), str(self.goal_node), str(int(self.success)),
                *(format(v, ".9g") for v in floats), str(int(self.timed_out)),
                format(self.goal_similarity, ".9g")]


def run_navigation(world: GridWorld, topo_map, goal_image, K: CameraIntrinsics,
                   robot: SimRobot, pipeline: Pipeline, t_start: float,
                   config: NavConfig) -> NavReport:
    """One goal of a mission: render -> localize -> subgoal -> local plan
    -> step, from ``t_start`` until the goal node is reached or the timeout
    expires. The robot, the pipeline and the clock are the mission's, so
    the goals of one ``run_mission`` share them."""
    goal_node, goal_sim = resolve_goal(topo_map, goal_image)
    goal_pos = topo_map.nodes[goal_node].pose.t
    plan = None
    shortest = 0.0
    t = t_start
    path_len = 0.0
    trajectory = []
    gt_pose = robot.gt_pose     # each step returns the next one
    gt_trajectory = [(t, gt_pose)]
    done = False
    n_ticks = int(config.timeout / CONTROL_DT)
    ticks_per_obs = max(1, int(round(1.0 / (LOCALIZE_RATE * CONTROL_DT))))
    # rotation direction is sticky across ticks: a subgoal straight behind
    # flips its bearing sign every tick otherwise, and Lost-mode search
    # spins would fight Tracking-mode turns
    rot_dir = 0.0
    # commanded-but-blocked motion means a wall outside the camera FOV is
    # pinning the robot; back out briefly before replanning
    bump_ticks = 0
    # a tick that does not localize renders only what the planner reads:
    # the obstacle rows, each column walked out to OBSTACLE_MAX_RANGE. An
    # observed tick renders the whole image, unlimited, for the pipeline
    rows = obstacle_rows(K)
    for tick in range(n_ticks):
        frame = render(world, gt_pose, K)
        if tick % ticks_per_obs == 0 or pipeline.mode is not PipelineMode.TRACKING:
            pipeline.on_observation(frame.observation(), t)
        if bump_ticks > 0:
            bump_ticks -= 1
            cmd = (-0.3, rot_dir * 0.4)
        elif pipeline.mode is PipelineMode.TRACKING:
            est_pose = pipeline.current_world_pose()[0]
            if plan is None:
                start_node = nearest_node(topo_map, est_pose.t)
                plan = plan_global(topo_map, start_node, goal_node)
                if shortest == 0.0:     # report the from-start plan length
                    shortest = plan.length
            sub = next_subgoal(plan, topo_map, est_pose)
            if sub is None:
                done = True
                break
            cmd, choice = plan_local(frame.depth_rows(rows, OBSTACLE_MAX_RANGE), K, sub)
            if choice == ROTATE_IN_PLACE:
                if rot_dir == 0.0:
                    rot_dir = 1.0 if cmd[1] >= 0.0 else -1.0
                cmd = (0.0, rot_dir * W_NOMINAL)
            else:
                rot_dir = 0.0
        else:
            # losing track invalidates the plan cursor; replan on reacquire
            plan = None
            if rot_dir == 0.0:
                rot_dir = 1.0
            cmd = (0.0, rot_dir * W_NOMINAL)    # rotate to reacquire
        prev = np.array([robot.x, robot.y])
        gt_pose, delta = robot.step(world, cmd, CONTROL_DT)
        t += CONTROL_DT
        moved = float(np.linalg.norm(np.array([robot.x, robot.y]) - prev))
        path_len += moved
        if abs(cmd[0]) > 0.05 and moved < 0.25 * abs(cmd[0]) * CONTROL_DT:
            bump_ticks = 8
            if rot_dir == 0.0:
                rot_dir = 1.0
        try:
            est = pipeline.on_odometry(delta, t)
            trajectory.append((t, est))
        except NotLocalized:
            pass
        gt_trajectory.append((t, gt_pose))

    final_dist = float(np.linalg.norm(
        np.array([robot.x, robot.y]) - goal_pos[:2]))
    return NavReport(
        success=done and final_dist <= GOAL_RADIUS,
        time_s=t - t_start, path_length_m=path_len, goal_node=goal_node,
        goal_similarity=goal_sim, shortest_path_m=shortest,
        final_goal_dist_m=final_dist, timed_out=not done,
        trajectory=trajectory, gt_trajectory=gt_trajectory)


def run_mission(world: GridWorld, topo_map, goal_images, K: CameraIntrinsics,
                matcher, start, seed: int = 0,
                config: NavConfig = NavConfig()):
    """Sequential image goals, one ``NavReport`` each. The mission owns the
    session that every goal's ``run_navigation`` shares: one robot at ``start``
    (x, y, yaw), one ``NAV_PIPELINE`` pipeline and one clock from 0."""
    robot = SimRobot(start[0], start[1], start[2], seed=seed)
    pipeline = Pipeline(topo_map, K, matcher, NAV_PIPELINE)
    reports = []
    t0 = 0.0
    for goal_image in goal_images:
        rep = run_navigation(world, topo_map, goal_image, K, robot, pipeline,
                             t0, config)
        reports.append(rep)
        t0 += rep.time_s
    return reports
