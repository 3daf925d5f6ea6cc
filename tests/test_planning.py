import inspect
import itertools
import math

import numpy as np
import pytest

from vloc.dataio import read_csv_rows, write_csv
from vloc.errors import NoMatches, NoPath
from vloc.geometry import CameraIntrinsics, Pose, unproject
from vloc.mapgraph import MapNode, TopoMetricMap, build_map, select_keyframes
from vloc.matching import match_oracle
from vloc.pipeline import Pipeline
from vloc import planning
from vloc.planning import (
    ARC_DS,
    ARC_LENGTH,
    CURVATURE_PENALTY,
    CURVATURES,
    OBSTACLE_MAX_RANGE,
    OBSTACLE_Z_BAND,
    ROBOT_RADIUS,
    ROTATE_IN_PLACE,
    AteReport,
    GlobalPlan,
    NavConfig,
    NavReport,
    _FULL_ARC_FAN,
    _arc_fan,
    compute_ate,
    depth_to_obstacles,
    next_subgoal,
    obstacle_rows,
    plan_global,
    plan_local,
    resolve_goal,
    run_mission,
    to_robot_frame,
)
from vloc.retrieval import extract_descriptor
from vloc import simworld
from vloc.simworld import (
    OdomNoise,
    GridWorld,
    generate_segment,
    make_preset,
    planar_camera_pose,
    render,
)

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0, width=128, height=128)
E0 = np.zeros(256, dtype=np.float32)
E0[0] = 1.0


def map_from_positions(positions, edges):
    nodes = [MapNode(id=i, pose=Pose(np.array(p, dtype=float), [1, 0, 0, 0]),
                     descriptor=E0.copy())
             for i, p in enumerate(positions)]
    cng = [(a, b, float(np.linalg.norm(np.asarray(positions[a], dtype=float)
                                       - np.asarray(positions[b], dtype=float))))
           for a, b in edges]
    return TopoMetricMap(nodes=nodes, cng_edges=cng, cvg_edges=[],
                         descriptor_dim=256)


def brute_force_shortest(topo, start, goal):
    """Exhaustive minimum over all simple paths."""
    best = math.inf
    n = len(topo.nodes)
    adj = {i: dict() for i in range(n)}
    for a, b, w in topo.cng_edges:
        adj[a][b] = w
        adj[b][a] = w

    def dfs(cur, seen, cost):
        nonlocal best
        if cost >= best:
            return
        if cur == goal:
            best = cost
            return
        for nbr, w in adj[cur].items():
            if nbr not in seen:
                dfs(nbr, seen | {nbr}, cost + w)

    dfs(start, {start}, 0.0)
    return best


class TestPlanGlobal:
    def test_start_equals_goal(self):
        topo = map_from_positions([(0, 0, 0), (1, 0, 0)], [(0, 1)])
        plan = plan_global(topo, 0, 0)
        assert plan.node_path == [0] and plan.length == 0.0

    def test_detour_through_middle_node(self):
        # no direct A-C edge: the path must run through B
        topo = map_from_positions([(0, 0, 0), (1, 0, 0), (1, 1, 0)],
                                  [(0, 1), (1, 2)])
        plan = plan_global(topo, 0, 2)
        assert plan.node_path == [0, 1, 2]
        assert plan.length == pytest.approx(2.0)

    def test_direct_edge_wins_when_present(self):
        topo = map_from_positions([(0, 0, 0), (1, 0, 0), (1, 1, 0)],
                                  [(0, 1), (1, 2), (0, 2)])
        plan = plan_global(topo, 0, 2)
        assert plan.node_path == [0, 2]
        assert plan.length == pytest.approx(math.sqrt(2.0))

    def test_disconnected(self):
        topo = map_from_positions([(0, 0, 0), (5, 0, 0)], [])
        with pytest.raises(NoPath):
            plan_global(topo, 0, 1)

    def test_exhaustive_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(3, 11))
            pos = rng.uniform(0, 5, (n, 3))
            pos[:, 2] = 0.0
            edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                     if rng.uniform() < 0.35]
            topo = map_from_positions(pos, edges)
            start, goal = 0, n - 1
            expected = brute_force_shortest(topo, start, goal)
            if math.isinf(expected):
                with pytest.raises(NoPath):
                    plan_global(topo, start, goal)
            else:
                plan = plan_global(topo, start, goal)
                assert plan.length == pytest.approx(expected, abs=1e-9)

    def test_colocated_nodes_joined_at_zero_length(self):
        topo = map_from_positions([(1, 1, 0), (1, 1, 0), (4, 1, 0)],
                                  [(0, 1), (1, 2)])
        assert topo.components() == [[0, 1, 2]]
        plan = plan_global(topo, 0, 1)
        assert plan.node_path == [0, 1] and plan.length == 0.0
        assert plan_global(topo, 0, 2).length == 3.0

    def test_tied_paths_give_one_shortest_path_every_call(self):
        topo = map_from_positions([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],
                                  [(0, 1), (0, 2), (1, 3), (2, 3)])
        plan = plan_global(topo, 0, 3)
        assert plan.node_path in ([0, 1, 3], [0, 2, 3])
        assert plan.length == 2.0
        again = plan_global(topo, 0, 3)
        assert again.node_path == plan.node_path and again.length == plan.length

    def test_paths_follow_edges_on_tied_grids(self):
        # unit grids are full of equally short paths
        rng = np.random.default_rng(5)
        for _ in range(20):
            pos = [(x, y, 0) for x in range(4) for y in range(3)]
            edges = [(a, b) for a in range(12) for b in range(a + 1, 12)
                     if math.dist(pos[a], pos[b]) == 1.0 and rng.uniform() < 0.8]
            topo = map_from_positions(pos, edges)
            weight = {(a, b): w for a, b, w in topo.cng_edges}
            expected = brute_force_shortest(topo, 0, 11)
            if math.isinf(expected):
                continue
            plan = plan_global(topo, 0, 11)
            assert plan.node_path[0] == 0 and plan.node_path[-1] == 11
            assert all(type(v) is int for v in plan.node_path)
            steps = [weight[min(u, v), max(u, v)]
                     for u, v in zip(plan.node_path, plan.node_path[1:])]
            assert plan.length == pytest.approx(sum(steps), abs=1e-12)
            assert plan.length == pytest.approx(expected, abs=1e-12)


@pytest.fixture(scope="module")
def corridor_setup():
    world, route = make_preset("corridor", seed=3)
    rec = generate_segment(world, route, K, camera_rate=2.0, seed=2,
                           noise=OdomNoise.zero())
    kf = select_keyframes(rec.segment, budget=28, grid_res=0.1)
    topo = build_map(rec.segment, kf,
                     matcher=lambda a, b: match_oracle(a, b, seed=0),
                     covis_threshold=30, world=world)
    return world, topo


class TestResolveGoal:
    def test_node_image_resolves_to_node(self, corridor_setup):
        _, topo = corridor_setup
        node_id, sim = resolve_goal(topo, topo.nodes[5].image)
        assert node_id == 5
        assert sim == pytest.approx(1.0, abs=1e-6)

    def test_identical_nodes_lower_id_wins(self):
        img = np.random.default_rng(0).integers(0, 255, (64, 64), dtype=np.uint8)
        desc = extract_descriptor(img)
        nodes = [MapNode(id=i, pose=Pose(np.zeros(3), [1, 0, 0, 0]),
                         descriptor=desc.copy(), image=img) for i in range(2)]
        topo = TopoMetricMap(nodes=nodes, cng_edges=[], cvg_edges=[],
                             descriptor_dim=256)
        node_id, _ = resolve_goal(topo, img)
        assert node_id == 0

    def test_offset_goal_images_regression(self, corridor_setup):
        # measured 0.96 on the oracle run; gate frozen at 0.90
        world, topo = corridor_setup
        positions = topo.node_positions()
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(50):
            ni = int(rng.integers(0, len(topo.nodes)))
            node = topo.nodes[ni]
            dx = 0.3 if rng.integers(0, 2) else -0.3
            pose = planar_camera_pose(node.pose.t[0] + dx, node.pose.t[1], 0.0)
            img = render(world, pose, K).color
            got, _ = resolve_goal(topo, img)
            nearest = int(np.argmin(np.linalg.norm(positions - pose.t, axis=1)))
            if got == nearest:
                hits += 1
        assert hits / 50 >= 0.90


class TestNextSubgoal:
    def make_plan_map(self):
        topo = map_from_positions([(0, 0, 0), (2, 0, 0), (4, 0, 0)],
                                  [(0, 1), (1, 2)])
        return topo, GlobalPlan(node_path=[0, 1, 2], length=4.0)

    def test_advances_past_close_subgoal(self):
        topo, plan = self.make_plan_map()
        robot = planar_camera_pose(0.0, 0.0, 0.0, 1.0)
        sub = next_subgoal(plan, topo, robot)
        assert plan.subgoal_index == 1
        assert np.allclose(sub, [2.0, 0.0, 0.0], atol=1e-12)

    def test_robot_frame_projection_facing_x(self):
        robot = planar_camera_pose(0.0, 0.0, 0.0, 1.0)
        assert np.allclose(to_robot_frame(robot, [2.0, 0.0, 0.0]),
                           [2.0, 0.0, 0.0], atol=1e-12)

    def test_robot_frame_projection_facing_y(self):
        robot = planar_camera_pose(0.0, 0.0, math.pi / 2, 1.0)
        assert np.allclose(to_robot_frame(robot, [0.0, 2.0, 0.0]),
                           [2.0, 0.0, 0.0], atol=1e-12)

    def test_done_at_final_node(self):
        topo, plan = self.make_plan_map()
        plan.subgoal_index = 2
        robot = planar_camera_pose(4.0, 0.1, 0.0, 1.0)
        assert next_subgoal(plan, topo, robot) is None

    def test_bit_equal_to_reading_the_planar_frame_twice(self):
        # next_subgoal reads the position off the pose and to_robot_frame
        # reads the planar frame once; both equal, bit for bit, the planner
        # that took (x, y, yaw) from pose_to_planar in each of them
        rng = np.random.default_rng(23)
        topo = map_from_positions(rng.uniform(-5.0, 5.0, (6, 3)),
                                  [(i, i + 1) for i in range(5)])
        for _ in range(1000):
            # near a node, so subgoals are passed and the goal is reached
            t = topo.nodes[int(rng.integers(6))].pose.t + rng.uniform(-1.0, 1.0, 3)
            robot = (Pose(t, rng.normal(size=4)) if rng.uniform() < 0.5 else
                     planar_camera_pose(t[0], t[1], rng.uniform(-math.pi, math.pi),
                                        1.0))
            target = rng.uniform(-5.0, 5.0, 3)
            assert to_robot_frame(robot, target).tobytes() == \
                reference_robot_frame(robot, target).tobytes()
            path = list(rng.permutation(6)[:int(rng.integers(1, 7))])
            start = int(rng.integers(len(path)))
            plan = GlobalPlan(node_path=path, length=1.0, subgoal_index=start)
            ref_plan = GlobalPlan(node_path=path, length=1.0, subgoal_index=start)
            sub = next_subgoal(plan, topo, robot)
            ref = reference_next_subgoal(ref_plan, topo, robot)
            assert plan.subgoal_index == ref_plan.subgoal_index
            assert (sub is None and ref is None) or sub.tobytes() == ref.tobytes()


def reference_robot_frame(pose, point_world):
    x, y, yaw = simworld.pose_to_planar(pose)
    d = np.asarray(point_world, dtype=float)[:2] - np.array([x, y])
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([c * d[0] + s * d[1], -s * d[0] + c * d[1], 0.0])


def reference_next_subgoal(plan, topo_map, robot_pose):
    x, y, _ = simworld.pose_to_planar(robot_pose)
    origin = np.array([x, y])
    while plan.subgoal_index < len(plan.node_path):
        target = topo_map.nodes[plan.node_path[plan.subgoal_index]].pose.t
        dist = float(np.linalg.norm(target[:2] - origin))
        if plan.subgoal_index == len(plan.node_path) - 1:
            if dist < planning.GOAL_RADIUS * planning.GOAL_SLACK:
                return None
            break
        if dist < planning.SWITCH_RADIUS:
            plan.subgoal_index += 1
            continue
        break
    target = topo_map.nodes[plan.node_path[plan.subgoal_index]].pose.t
    return reference_robot_frame(robot_pose, target)


class TestPlanLocal:
    def test_arc_fan_has_straight_arc_and_is_symmetric(self):
        assert 0.0 in CURVATURES
        assert all(-k in CURVATURES for k in CURVATURES)

    def test_free_space_straight_ahead(self):
        depth = np.zeros((128, 128))   # no valid depth = no obstacles
        (v, w), choice = plan_local(depth, K, [3.0, 0.0, 0.0])
        assert choice == 0.0
        assert v > 0 and w == 0.0

    def test_wall_ahead_rotates(self, corridor_setup):
        world, _ = corridor_setup
        # facing the end wall from very close: every arc collides
        frame = render(world, planar_camera_pose(34.0, 2.25, 0.0), K)
        (v, w), choice = plan_local(frame.depth, K, [2.0, 0.0, 0.0])
        assert choice == ROTATE_IN_PLACE
        assert v == 0.0 and abs(w) > 0

    def test_subgoal_behind_rotates(self):
        depth = np.zeros((128, 128))
        (v, w), choice = plan_local(depth, K, [-2.0, 0.3, 0.0])
        assert choice == ROTATE_IN_PLACE

    def test_chosen_arc_collision_free_post_hoc(self, corridor_setup):
        # independent distance check of the chosen primitive's samples
        world, _ = corridor_setup
        for x, y, yaw in ((2.0, 1.95, 0.0), (5.0, 2.6, 0.15), (8.0, 2.0, -0.2)):
            frame = render(world, planar_camera_pose(x, y, yaw), K)
            (v, w), choice = plan_local(frame.depth, K, [2.5, 0.0, 0.0])
            if choice == ROTATE_IN_PLACE:
                continue
            obstacles = depth_to_obstacles(frame.depth, K)
            pts = arc_samples(choice, 2.5)
            d = np.sqrt(((pts[:, None, :] - obstacles[None, :, :]) ** 2).sum(-1))
            assert float(d.min()) >= ROBOT_RADIUS

    def test_never_picks_colliding_while_free_exists(self, corridor_setup):
        world, _ = corridor_setup
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.uniform(1.5, 30.0)
            y = rng.uniform(1.9, 2.6)
            yaw = rng.uniform(-0.5, 0.5)
            frame = render(world, planar_camera_pose(x, y, yaw), K)
            sub = [rng.uniform(1.0, 3.0), rng.uniform(-1.0, 1.0), 0.0]
            (v, w), choice = plan_local(frame.depth, K, sub)
            obstacles = depth_to_obstacles(frame.depth, K)
            if choice == ROTATE_IN_PLACE:
                continue
            pts = arc_samples(choice, float(np.linalg.norm(sub[:2])))
            if len(obstacles):
                d2 = ((pts[:, None, :] - obstacles[None, :, :]) ** 2).sum(-1)
                assert float(d2.min()) >= ROBOT_RADIUS ** 2


def full_obstacle_cloud(depth):
    """Every obstacle pixel's point, duplicates kept, in row-major pixel
    order (the cloud before it was deduplicated)."""
    vv, uu = np.nonzero(depth > 0)
    x_cam, y_cam, x_fwd = unproject(K, uu, vv, depth[vv, uu]).T
    keep = ((-y_cam > OBSTACLE_Z_BAND[0]) & (-y_cam < OBSTACLE_Z_BAND[1])
            & (x_fwd < OBSTACLE_MAX_RANGE))
    return np.stack([x_fwd[keep], -x_cam[keep]], axis=1)


def reference_obstacles(depth, K, band):
    """``depth_to_obstacles`` without its row cut: every pixel of the
    image, column by column, a point equal to the one before it dropped."""
    uu, vv = np.nonzero(depth.T > 0)
    x_cam, y_cam, x_fwd = unproject(K, uu, vv, depth[vv, uu]).T
    keep = ((-y_cam > band[0]) & (-y_cam < band[1])
            & (x_fwd < OBSTACLE_MAX_RANGE))
    points = np.stack([x_fwd[keep], -x_cam[keep]], axis=1)
    distinct = np.ones(len(points), dtype=bool)
    distinct[1:] = np.any(points[1:] != points[:-1], axis=1)
    return points[distinct]


def arc_samples(curvature, length):
    """Samples (n, 2) along one arc of the fan, as ``plan_local`` scores it."""
    x, y = _arc_fan((curvature,), length)
    return np.stack([x[0], y[0]], axis=1)


def reference_arc_points(curvature, length):
    """One arc sampled on its own, as the planner sampled it before the fan
    was one array pass."""
    arc_len = min(ARC_LENGTH, max(2 * ARC_DS, length))
    s = np.arange(ARC_DS, arc_len + ARC_DS / 2, ARC_DS)
    if abs(curvature) < 1e-12:
        return np.stack([s, np.zeros_like(s)], axis=1)
    return np.stack([np.sin(curvature * s) / curvature,
                     (1.0 - np.cos(curvature * s)) / curvature], axis=1)


def brute_force_choice(obstacles, subgoal):
    """The primitive the fan scoring picks, each arc scored on its own
    against every point."""
    subgoal = np.asarray(subgoal, dtype=float)[:2]
    dist = float(np.linalg.norm(subgoal))
    best = dist + CURVATURE_PENALTY * max(abs(k) for k in CURVATURES)
    choice = ROTATE_IN_PLACE
    for k in CURVATURES:
        pts = reference_arc_points(k, dist)
        d2 = ((pts[:, None, :] - obstacles[None, :, :]) ** 2).sum(axis=2)
        if d2.size and float(d2.min()) < ROBOT_RADIUS ** 2:
            continue
        cost = float(np.linalg.norm(pts[-1] - subgoal)) + CURVATURE_PENALTY * abs(k)
        if cost < best - 1e-12:
            best, choice = cost, k
    return choice


PRESETS = ("corridor", "rooms", "campus")
# a principal row on a pixel row and one between two rows
K_HALF = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=63.5, width=128,
                          height=128)


@pytest.fixture(scope="module")
def mapping_drives():
    """Per preset: the mapping drive's depth images at K, and the same
    poses rendered at K_HALF."""
    drives = {}
    for name in PRESETS:
        world, route = make_preset(name, seed=7)
        rec = generate_segment(world, route, K, camera_rate=2.0, seed=1,
                               noise=OdomNoise.zero())
        frames = rec.segment.frames
        drives[name] = ([f.obs.depth for f in frames],
                        [render(world, f.pose, K_HALF).depth for f in frames])
    return drives


def subgoals(rng):
    """Subgoals ahead, behind, beside and closer than 2 * ARC_DS."""
    angle = rng.uniform(-math.pi, math.pi)
    near = rng.uniform(0.0, 2 * ARC_DS)
    return ([rng.uniform(-1.0, 4.0), rng.uniform(-3.0, 3.0), 0.0],
            [rng.uniform(-3.0, -0.3), rng.uniform(-0.5, 0.5), 0.0],
            [rng.uniform(-0.2, 0.2), rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0), 0.0],
            [near * math.cos(angle), near * math.sin(angle), 0.0])


class TestObstacleCloud:
    def test_distinct_rows_of_the_full_cloud(self, mapping_drives):
        n_full = n_got = 0
        for k, depth in enumerate(mapping_drives["rooms"][0]):
            full = full_obstacle_cloud(depth)
            got = depth_to_obstacles(depth, K)
            distinct = np.unique(full, axis=0)
            assert len(got) == len(distinct), f"frame {k}"
            assert np.array_equal(np.unique(got, axis=0), distinct), f"frame {k}"
            n_full, n_got = n_full + len(full), n_got + len(got)
        assert n_got * 10 < n_full

    @pytest.mark.parametrize("name", PRESETS)
    def test_equals_the_full_image_cloud_in_order(self, mapping_drives, name):
        # the rows at or below the principal point are skipped; the cloud,
        # its order included, is the one the whole image gives
        for intrinsics, depths in zip((K, K_HALF), mapping_drives[name]):
            for k, depth in enumerate(depths):
                got = depth_to_obstacles(depth, intrinsics)
                want = reference_obstacles(depth, intrinsics, OBSTACLE_Z_BAND)
                assert np.array_equal(got, want), f"{name} cy={intrinsics.cy} frame {k}"
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_a_band_below_the_camera_reads_every_row(self, mapping_drives,
                                                     monkeypatch):
        band = (-0.5, OBSTACLE_Z_BAND[1])
        monkeypatch.setattr(planning, "OBSTACLE_Z_BAND", band)
        below = 0
        for name in PRESETS:
            for intrinsics, depths in zip((K, K_HALF), mapping_drives[name]):
                for k, depth in enumerate(depths[::3]):
                    got = depth_to_obstacles(depth, intrinsics)
                    want = reference_obstacles(depth, intrinsics, band)
                    assert np.array_equal(got, want), f"{name} frame {k}"
                    below += len(want) - len(reference_obstacles(
                        depth, intrinsics, (0.0, band[1])))
        assert below > 0     # the band does reach rows below the horizon

    def test_reads_only_the_obstacle_rows(self, mapping_drives):
        assert obstacle_rows(K) == obstacle_rows(K_HALF) == 64
        for name in PRESETS:
            for intrinsics, depths in zip((K, K_HALF), mapping_drives[name]):
                for k, depth in enumerate(depths):
                    got = depth_to_obstacles(depth[:obstacle_rows(intrinsics)],
                                             intrinsics)
                    want = depth_to_obstacles(depth, intrinsics)
                    assert got.tobytes() == want.tobytes(), f"{name} frame {k}"

    def test_a_band_below_the_camera_needs_every_row(self, monkeypatch):
        monkeypatch.setattr(planning, "OBSTACLE_Z_BAND", (-1e-9, OBSTACLE_Z_BAND[1]))
        assert obstacle_rows(K) == obstacle_rows(K_HALF) == K.height

    def test_plan_local_matches_brute_force_on_full_cloud(self, mapping_drives):
        rng = np.random.default_rng(23)
        for name in PRESETS:
            choices = set()
            for depth in mapping_drives[name][0][::2]:
                full = full_obstacle_cloud(depth)
                for sub in subgoals(rng):
                    _, choice = plan_local(depth, K, sub)
                    assert choice == brute_force_choice(full, sub), (name, sub)
                    choices.add(choice)
            assert ROTATE_IN_PLACE in choices and len(choices) >= 4, name

    def test_arc_points_are_the_single_arc_samples(self):
        lengths = [0.0, 0.05, 0.19, 0.2, 0.25, 1.0, 1.05, 1.999, 2.0, 7.0]
        lengths += list(np.random.default_rng(3).uniform(0.0, 3.0, 200))
        for length in lengths:
            x, y = _arc_fan(CURVATURES, length)
            for row, k in enumerate(CURVATURES):
                got = np.stack([x[row], y[row]], axis=1)
                want = reference_arc_points(k, length)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


    def test_full_fan_is_every_far_subgoals_fan(self):
        # one read-only fan serves every subgoal at least ARC_LENGTH away
        for length in (ARC_LENGTH, np.nextafter(ARC_LENGTH, 3.0), 2.5, 7.0, math.inf):
            x, y = _arc_fan(CURVATURES, length)
            assert x.tobytes() == _FULL_ARC_FAN[0].tobytes()
            assert y.tobytes() == _FULL_ARC_FAN[1].tobytes()
        for samples in _FULL_ARC_FAN:
            with pytest.raises(ValueError, match="read-only"):
                samples[0, 0] = 1.0


class TestComputeAte:
    @staticmethod
    def traj(points):
        return [(float(t), Pose(np.array(p, dtype=float), [1, 0, 0, 0]))
                for t, p in points]

    def test_identical_zero(self):
        gt = self.traj([(0, (0, 0, 0)), (1, (1, 0, 0))])
        assert compute_ate(gt, gt).rmse == 0.0

    def test_constant_offset(self):
        gt = self.traj([(0, (0, 0, 0)), (1, (1, 0, 0)), (2, (2, 0, 0))])
        est = self.traj([(0, (0.1, 0, 0)), (1, (1.1, 0, 0)), (2, (2.1, 0, 0))])
        assert compute_ate(gt, est).rmse == pytest.approx(0.1, abs=1e-12)

    def test_hand_computed_three_pose(self):
        gt = self.traj([(0, (0, 0, 0)), (1, (1, 0, 0)), (2, (2, 0, 0))])
        est = self.traj([(0, (0.1, 0, 0)), (1, (1.2, 0, 0)), (2, (2.2, 0, 0))])
        report = compute_ate(gt, est)
        assert report.rmse == pytest.approx(math.sqrt(0.03), abs=1e-12)
        assert report.matched == 3

    def test_no_matches(self):
        gt = self.traj([(0, (0, 0, 0))])
        est = self.traj([(10, (0, 0, 0))])
        # a NaN max_dt pairs nothing, as a negative one does
        for max_dt in (0.05, -1.0, math.nan):
            with pytest.raises(NoMatches):
                compute_ate(gt, est, max_dt=max_dt)


class TestNavReport:
    def test_exact_text_reads_back(self, tmp_path):
        rep = NavReport(success=True, time_s=12.3, path_length_m=1 / 3, goal_node=8,
                        goal_similarity=0.1 + 0.2, shortest_path_m=2.0,
                        final_goal_dist_m=1e-5, timed_out=False, trajectory=[],
                        gt_trajectory=[])
        path = tmp_path / "nav.csv"
        write_csv(path, NavReport.CSV_HEADER, [rep.csv_fields(2)])
        assert path.read_text() == (
            "goal_index,goal_node,success,time_s,path_length_m,shortest_path_m,"
            "final_goal_dist_m,timed_out,goal_similarity\n"
            "2,8,1,12.3,0.333333333,2,1e-05,0,0.3\n")
        _, rows = read_csv_rows(path, NavReport.CSV_HEADER, list)
        assert rows == [rep.csv_fields(2)]


class TestRunNavigation:
    def test_goal_at_start_immediate_success(self, corridor_setup):
        world, topo = corridor_setup
        node = topo.nodes[0]
        start = (node.pose.t[0], node.pose.t[1], 0.0)
        rep, = run_mission(world, topo, [node.image], K,
                           lambda a, b: match_oracle(a, b, seed=0),
                           start=start, seed=1)
        assert rep.success
        assert rep.path_length_m < 0.5

    def test_only_observed_ticks_build_the_full_depth(self, corridor_setup,
                                                      monkeypatch):
        # a tick that plans without localizing renders the obstacle rows
        # alone, walked out to OBSTACLE_MAX_RANGE; an observed tick builds
        # the whole image once, unlimited
        world, topo = corridor_setup
        calls, observed = [], []
        render_rows = simworld._render_rows
        signature = inspect.signature(render_rows)

        def spy(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((bound.arguments["stop"], bound.arguments["t_limit"]))
            return render_rows(*args, **kwargs)

        monkeypatch.setattr(simworld, "_render_rows", spy)
        on_observation = Pipeline.on_observation
        monkeypatch.setattr(Pipeline, "on_observation", lambda self, obs, t:
                            observed.append(t) or on_observation(self, obs, t))
        start = topo.nodes[0].pose.t
        rep, = run_mission(world, topo, [topo.nodes[4].image], K,
                           lambda a, b: match_oracle(a, b, seed=0),
                           start=(start[0], start[1], 0.0), seed=1,
                           config=NavConfig(timeout=6.0))
        assert len(rep.gt_trajectory) > 2 * len(observed) > 0
        full = [t_limit for stop, t_limit in calls if stop == K.height]
        assert len(full) == len(observed) and set(full) == {math.inf}
        partial = [call for call in calls if call[0] != K.height]
        assert partial and set(partial) == {(obstacle_rows(K), OBSTACLE_MAX_RANGE)}

    def test_blocked_goal_times_out_with_trajectory(self, corridor_setup):
        world, topo = corridor_setup
        # wall off the far end after mapping
        occ = world.occupancy.copy()
        occ[:, 40] = True
        blocked = GridWorld(occupancy=occ, cell_size=world.cell_size,
                            wall_height=world.wall_height,
                            texture_seed=world.texture_seed)
        goal = topo.nodes[len(topo.nodes) - 1]
        rep, = run_mission(blocked, topo, [goal.image], K,
                           lambda a, b: match_oracle(a, b, seed=0),
                           start=(2.0, 2.25, 0.0), seed=1,
                           config=NavConfig(timeout=25.0))
        assert not rep.success
        assert rep.timed_out
        assert len(rep.gt_trajectory) > 10
