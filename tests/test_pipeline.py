import copy
import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vloc import matching
from vloc.dataio import read_csv_rows, write_csv
from vloc.errors import NoDepth, NonMonotonicTimestamp, NotLocalized
from vloc.geometry import CameraIntrinsics, Pose, se3_exp
from vloc.mapgraph import build_map, load_map, maps_equal, save_map, select_keyframes
from vloc.matching import match_classical, match_oracle
from vloc import pipeline as pipeline_module
from vloc.pipeline import ObservationOutcome, Pipeline, PipelineConfig, PipelineMode
from vloc.planning import NavConfig, compute_ate, run_mission
from vloc.relocal import PnPParams, RelocResult, RelocStatus
from vloc.simworld import (
    OdomNoise,
    SimRobot,
    generate_segment,
    make_preset,
    planar_camera_pose,
    render,
)

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0, width=128, height=128)


def flat_observation():
    from vloc.mapgraph import Observation
    return Observation(color=np.full((128, 128), 120, dtype=np.uint8),
                       depth=np.full((128, 128), 2.0),
                       landmark_ids=np.zeros(0, dtype=np.int64),
                       landmark_uv=np.zeros((0, 2)),
                       landmark_depth=np.zeros(0))


def oracle(ref, query):
    return match_oracle(ref, query, seed=0)


def graph_arrays(graph):
    """Copies of a fusion graph's states, timestamps and priors; an empty
    list for no graph."""
    if graph is None:
        return []
    return [graph.states.copy(), list(graph.timestamps), graph.priors.copy()]


def assert_graph_kept(p, graph, arrays):
    """``p`` still holds ``graph``, with the ``graph_arrays`` it had."""
    assert p.fusion is graph
    after = graph_arrays(graph)
    assert len(after) == len(arrays)
    assert all(np.array_equal(a, b) for a, b in zip(after, arrays))


@pytest.fixture(scope="module")
def corridor_map():
    world, route = make_preset("corridor", seed=3)
    rec = generate_segment(world, route, K, camera_rate=2.0, seed=2,
                           noise=OdomNoise.zero())
    kf = select_keyframes(rec.segment, budget=28, grid_res=0.1)
    topo = build_map(rec.segment, kf, matcher=oracle, covis_threshold=30,
                     world=world)
    return world, topo


class TestModeMachine:
    def test_self_localization_from_node_image(self, corridor_map):
        world, topo = corridor_map
        node = topo.nodes[3]
        frame = render(world, node.pose, K)
        p = Pipeline(topo, K, oracle)
        out = p.on_observation(frame.observation(), 0.0)
        assert p.mode is PipelineMode.TRACKING
        assert out.status == "Success"
        assert out.reference_node == 3
        assert np.linalg.norm(out.fix.t - node.pose.t) < 1e-3

    def test_boot_starts_the_graph_at_the_fix(self, corridor_map):
        # one state under one prior equal to it is already the optimum, so
        # the boot runs no solve and the estimate is the fix bit for bit
        world, topo = corridor_map
        for node in topo.nodes:
            p = Pipeline(topo, K, oracle)
            out = p.on_observation(render(world, node.pose, K).observation(), 0.5)
            assert out.status == "Success" and p.mode is PipelineMode.TRACKING
            assert p.current_world_pose() == (out.fix, 0.5)
            assert len(p.fusion.states) == 1 and len(p.fusion.priors) == 1
            assert p.fusion.last_cost_trace == []

    def test_gl_rejected_below_gate(self, corridor_map):
        _, topo = corridor_map
        p = Pipeline(topo, K, oracle)
        flat = flat_observation()
        out = p.on_observation(flat, 0.0)
        assert p.mode is PipelineMode.LOST
        assert out.status in ("GlRejected", "GlUnverified")
        assert out.fix is None

    def test_failure_threshold_enters_lost(self, corridor_map):
        world, topo = corridor_map
        p = Pipeline(topo, K, oracle, PipelineConfig(max_failures=5))
        node = topo.nodes[3]
        frame = render(world, node.pose, K)
        p.on_observation(frame.observation(), 0.0)
        assert p.mode is PipelineMode.TRACKING
        flat = flat_observation()
        for k in range(4):
            p.on_observation(flat, 1.0 + k)
            assert p.mode is PipelineMode.TRACKING
        p.on_observation(flat, 5.0)
        assert p.mode is PipelineMode.LOST
        assert p.consecutive_failures == 0

    def test_odometry_before_first_fix_changes_nothing(self, corridor_map):
        # with no fix yet there is no graph to dead-reckon on
        world, topo = corridor_map
        p = Pipeline(topo, K, oracle)
        before = dict(vars(p))
        delta = Pose(np.array([0.0, 0.0, 0.5]), [1, 0, 0, 0])
        with pytest.raises(NotLocalized):
            p.on_odometry(delta, 0.0)
        with pytest.raises(NotLocalized):
            p.on_odometry(delta, 0.1)
        assert vars(p).keys() == before.keys()
        assert all(vars(p)[k] is v for k, v in before.items())
        assert p.fusion is None
        p.on_observation(render(world, topo.nodes[3].pose, K).observation(), 0.2)
        assert p.mode is PipelineMode.TRACKING and p.fusion.timestamps == [0.2]

    def test_odometry_lost_on_stale_graph_dead_reckons(self, corridor_map):
        world, topo = corridor_map
        p = Pipeline(topo, K, oracle)
        p.on_observation(render(world, topo.nodes[3].pose, K).observation(), 0.0)
        for k in range(p.config.max_failures):
            p.on_observation(flat_observation(), 0.1 * (k + 1))
        assert p.mode is PipelineMode.LOST
        delta = Pose(np.array([0.0, 0.0, 0.2]), [1, 0, 0, 0])
        estimate = p.fusion.current_pose()[0]
        for k in range(1, 4):
            with pytest.raises(NotLocalized):
                p.on_odometry(delta, 1.0 + k)
            assert p.fusion.timestamps == [0.0] + [1.0 + j for j in range(1, k + 1)]
            estimate = estimate.compose(delta)
            assert p.fusion.current_pose()[0] == estimate
            assert_valid(estimate)
        assert len(p.fusion.betweens) == 3 and p.mode is PipelineMode.LOST
        # a tick not after the graph's last one is rejected as while tracking
        before = (p.fusion.states.copy(), list(p.fusion.timestamps))
        with pytest.raises(NonMonotonicTimestamp):
            p.on_odometry(delta, 3.0)
        assert np.array_equal(p.fusion.states, before[0])
        assert p.fusion.timestamps == before[1]

    def test_reacquire_at_a_timestamp_shared_with_odometry(self, corridor_map):
        # vloc localize's order: 10 Hz odometry and observations merged by
        # timestamp, the observation first on a tie. Tracking is lost at
        # 0.5 and regained at 1.0; the tick at 1.0 then propagates
        world, topo = corridor_map
        p = Pipeline(topo, K, oracle)
        start = topo.nodes[2].pose
        delta = Pose(np.array([0.0, 0.0, 0.1]), [1, 0, 0, 0])
        moved = planar_camera_pose(start.t[0] + 1.0, start.t[1], 0.0)
        events = [(k / 10, 1, delta) for k in range(1, 11)]
        events += [(0.0, 0, render(world, start, K).observation())]
        events += [(k / 10, 0, flat_observation()) for k in range(1, 6)]
        events += [(1.0, 0, render(world, moved, K).observation())]
        events.sort(key=lambda e: (e[0], e[1]))
        poses = []
        for ts, kind, payload in events:
            if kind == 0:
                out = p.on_observation(payload, ts)
                continue
            try:
                poses.append((ts, p.on_odometry(payload, ts)))
            except NotLocalized:
                assert p.mode is PipelineMode.LOST and 0.5 <= ts < 1.0
        assert out.status == "Success" and p.mode is PipelineMode.TRACKING
        assert [ts for ts, _ in poses] == [0.1, 0.2, 0.3, 0.4, 1.0]
        for _, pose in poses:
            assert_valid(pose)
        assert p.fusion.timestamps == [0.0] + [k / 10 for k in range(1, 11)]
        assert np.linalg.norm(poses[-1][1].t - moved.t) < 0.2

    def test_odometry_tracking_propagates(self, corridor_map):
        world, topo = corridor_map
        p = Pipeline(topo, K, oracle)
        node = topo.nodes[3]
        frame = render(world, node.pose, K)
        p.on_observation(frame.observation(), 0.0)
        pose = p.on_odometry(Pose.identity(), 1.0)
        est, ts = p.current_world_pose()
        assert pose == est and ts == 1.0

    def test_fix_gating_rejects_inconsistent_fix(self, corridor_map):
        world, topo = corridor_map
        p = Pipeline(topo, K, oracle)
        node = topo.nodes[3]
        frame = render(world, node.pose, K)
        p.on_observation(frame.observation(), 0.0)
        # teleport the camera 3 m: the (valid) fix now violates the 2 m gate
        far = planar_camera_pose(node.pose.t[0] + 3.0, node.pose.t[1], 0.0)
        frame2 = render(world, far, K)
        out = p.on_observation(frame2.observation(), 1.0)
        assert out.status == "FixGated"
        assert out.fix is None

    def test_fix_before_the_window_is_gated(self, corridor_map):
        # a fix nearest a state before the optimization window would add a
        # prior that the windowed solve leaves out; it counts as a failure
        world, topo = corridor_map
        p = Pipeline(topo, K, oracle, PipelineConfig(window=5))
        view = render(world, topo.nodes[3].pose, K).observation()
        p.on_observation(view, 0.0)
        for k in range(1, 11):
            p.on_odometry(Pose.identity(), 0.1 * k)
        for _ in range(3):
            p.on_observation(flat_observation(), 1.0)
        assert p.consecutive_failures == 3
        states, n_priors = p.fusion.states.copy(), len(p.fusion.priors)

        out = p.on_observation(view, 0.2)     # state 2; the window is 6-10
        assert out.status == "FixGated" and out.fix is None
        assert p.consecutive_failures == 4
        assert len(p.fusion.priors) == n_priors
        assert np.array_equal(p.fusion.states, states)

        out = p.on_observation(view, 0.6)     # state 6, inside the window
        assert out.status == "Success"
        assert p.consecutive_failures == 0
        assert len(p.fusion.priors) == n_priors + 1

    def test_late_fix_in_lost_mode_is_unverified(self, corridor_map):
        # Lost on a stale graph, a fix nearest a state before the window
        # would add a prior that the windowed solve leaves out; it leaves
        # the pipeline Lost, as it is gated while tracking
        world, topo = corridor_map
        p = Pipeline(topo, K, oracle, PipelineConfig(window=5))
        view = render(world, topo.nodes[3].pose, K).observation()
        p.on_observation(view, 0.0)
        for k in range(1, 11):
            p.on_odometry(Pose.identity(), 0.1 * k)
        for _ in range(p.config.max_failures):
            p.on_observation(flat_observation(), 1.0)
        assert p.mode is PipelineMode.LOST
        fusion = p.fusion
        before = graph_arrays(fusion)

        out = p.on_observation(view, 0.2)     # state 2; the window is 6-10
        assert out.status == "GlUnverified" and out.fix is None
        assert p.mode is PipelineMode.LOST
        assert_graph_kept(p, fusion, before)

        out = p.on_observation(view, 0.6)     # state 6, inside the window
        assert out.status == "Success" and p.mode is PipelineMode.TRACKING
        assert len(fusion.priors) == len(before[2]) + 1


MATCHERS = {"oracle": oracle, "classical": match_classical}


class TestHostileInput:
    """``on_observation`` answers every image and depth with an outcome,
    in either mode; it never raises because localization failed."""

    @staticmethod
    def pipeline_in(mode, corridor_map, matcher):
        world, topo = corridor_map
        p = Pipeline(topo, K, MATCHERS[matcher])
        if mode is PipelineMode.TRACKING:
            boot = render(world, topo.nodes[3].pose, K)
            assert p.on_observation(boot.observation(), 0.0).status == "Success"
        assert p.mode is mode
        return p

    @staticmethod
    def assert_failed(p, out, mode, lost_status):
        assert out.fix is None and p.mode is mode
        if mode is PipelineMode.LOST:
            assert out.status == lost_status
        else:
            assert out.status == "TooFewMatches" and p.consecutive_failures == 1

    @pytest.mark.parametrize("matcher", MATCHERS)
    @pytest.mark.parametrize("mode", list(PipelineMode))
    @pytest.mark.parametrize("value", [0, 120], ids=["blank", "constant"])
    def test_featureless_image(self, corridor_map, mode, matcher, value):
        p = self.pipeline_in(mode, corridor_map, matcher)
        obs = dataclasses.replace(flat_observation(),
                                  color=np.full((128, 128), value, dtype=np.uint8))
        self.assert_failed(p, p.on_observation(obs, 1.0), mode, "GlRejected")

    @pytest.mark.parametrize("matcher", MATCHERS)
    @pytest.mark.parametrize("mode", list(PipelineMode))
    @pytest.mark.parametrize("depth", [np.nan, 0.0, np.inf, -1.0],
                             ids=["nan", "zero", "inf", "negative"])
    def test_unusable_depth(self, corridor_map, mode, matcher, depth):
        world, topo = corridor_map
        p = self.pipeline_in(mode, corridor_map, matcher)
        obs = render(world, topo.nodes[3].pose, K).observation()
        obs = dataclasses.replace(obs, depth=np.full(obs.depth.shape, depth))
        self.assert_failed(p, p.on_observation(obs, 1.0), mode, "GlUnverified")

    @pytest.mark.parametrize("mode", list(PipelineMode))
    def test_observation_without_depth(self, corridor_map, mode):
        world, topo = corridor_map
        p = self.pipeline_in(mode, corridor_map, "oracle")
        obs = render(world, topo.nodes[3].pose, K).observation()
        graph, before = p.fusion, graph_arrays(p.fusion)
        with pytest.raises(NoDepth):
            p.on_observation(dataclasses.replace(obs, depth=None), 1.0)
        assert p.mode is mode and p.consecutive_failures == 0
        assert_graph_kept(p, graph, before)

    @pytest.mark.parametrize("mode", list(PipelineMode))
    @pytest.mark.parametrize("timestamp", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_timestamp(self, corridor_map, monkeypatch, mode, timestamp):
        world, topo = corridor_map
        p = self.pipeline_in(mode, corridor_map, "oracle")
        obs = render(world, topo.nodes[3].pose, K).observation()
        graph, before = p.fusion, graph_arrays(p.fusion)
        monkeypatch.setattr(pipeline_module, "extract_descriptor",
                            lambda *_: pytest.fail("work done on a bad timestamp"))
        with pytest.raises(NonMonotonicTimestamp, match="not finite"):
            p.on_observation(obs, timestamp)
        assert p.mode is mode and p.consecutive_failures == 0
        assert_graph_kept(p, graph, before)

    @pytest.mark.parametrize("mode", list(PipelineMode))
    @pytest.mark.parametrize("color, fault", [
        (np.zeros((15, 15), dtype=np.uint8), "side under 16"),
        # one NaN pixel, at (40, 70), in a float image
        (np.pad([[np.nan]], ((40, 87), (70, 57)), constant_values=0.5), "not finite"),
    ], ids=["15x15", "nan"])
    def test_indescribable_image(self, corridor_map, mode, color, fault):
        world, topo = corridor_map
        p = self.pipeline_in(mode, corridor_map, "oracle")
        obs = render(world, topo.nodes[3].pose, K).observation()
        graph, before = p.fusion, graph_arrays(p.fusion)
        with pytest.raises(ValueError, match=fault):
            p.on_observation(dataclasses.replace(obs, color=color), 1.0)
        assert p.mode is mode and p.consecutive_failures == 0
        assert_graph_kept(p, graph, before)

    @pytest.mark.parametrize("mode", list(PipelineMode))
    def test_map_image_smaller_than_a_patch(self, corridor_map, mode):
        # the classical matcher finds no corner in an 8x8 node image: an
        # empty match set, so a failed localization and no error
        world, topo = corridor_map
        small = copy.deepcopy(topo)
        rng = np.random.default_rng(5)
        for node in small.nodes:
            node.image = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        p = self.pipeline_in(mode, (world, small), "oracle")
        p.matcher = match_classical
        obs = render(world, topo.nodes[3].pose, K).observation()
        self.assert_failed(p, p.on_observation(obs, 1.0), mode, "GlUnverified")

    @staticmethod
    def assert_valid(pose):
        assert np.all(np.isfinite(pose.t)) and np.all(np.isfinite(pose.q))
        assert abs(float(np.linalg.norm(pose.q)) - 1.0) <= 1e-9

    def assert_contracts(self, p, view, t, monkeypatch):
        """From Tracking: a fix 3 m off the estimate is gated, not raised;
        ``max_failures`` failed observations lose track; ``view`` then
        reacquires. Every pose on the way is finite with a unit quaternion."""
        assert p.mode is PipelineMode.TRACKING
        self.assert_valid(p.current_world_pose()[0])
        estimate = p.current_world_pose()[0]
        far = Pose(estimate.t + [3.0, 0.0, 0.0], estimate.q)
        left = p.config.max_failures - p.consecutive_failures
        with monkeypatch.context() as m:
            m.setattr(pipeline_module, "localize_against_node",
                      lambda *_: RelocResult(pose=far, inliers=40, total=40,
                                             status=RelocStatus.SUCCESS))
            out = p.on_observation(view, t)
        assert out.status == "FixGated" and out.fix is None
        for k in range(1, left):
            assert p.mode is PipelineMode.TRACKING
            assert p.on_observation(flat_observation(), t + k).fix is None
        assert p.mode is PipelineMode.LOST
        with pytest.raises(NotLocalized):
            p.current_world_pose()
        t += left
        for k in range(3):
            out = p.on_observation(view, t + k)
            if out.fix is not None:
                self.assert_valid(out.fix)
                break
        assert p.mode is PipelineMode.TRACKING
        self.assert_valid(p.current_world_pose()[0])
        self.assert_valid(p.on_odometry(Pose.identity(), t + 10.0))

    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_one_node_map(self, corridor_map, monkeypatch, matcher):
        world, topo = corridor_map
        node = dataclasses.replace(topo.nodes[3], id=0)
        one = dataclasses.replace(topo, nodes=[node], cng_edges=[], cvg_edges=[])
        p = Pipeline(one, K, MATCHERS[matcher])
        view = render(world, node.pose, K).observation()
        assert p.on_observation(flat_observation(), 0.0).status == "GlRejected"
        out = p.on_observation(view, 1.0)
        assert out.status == "Success" and p.mode is PipelineMode.TRACKING
        self.assert_valid(out.fix)
        self.assert_valid(p.on_odometry(Pose(np.array([0.0, 0.0, 0.1]),
                                             [1, 0, 0, 0]), 1.5))
        out = p.on_observation(view, 2.0)
        assert out.reference_node == 0 and out.status == "Success"
        self.assert_contracts(p, view, 3.0, monkeypatch)

    @pytest.mark.parametrize("matcher", MATCHERS)
    @pytest.mark.parametrize("jump", [
        Pose(np.array([0.0, 0.0, 1e3]), [1, 0, 0, 0]),
        Pose(np.zeros(3), [0, 0, 1, 0]),
        Pose(np.array([0.0, 0.0, 1e9]), [0, 0, 1, 0]),
    ], ids=["1km", "yaw_pi", "1e9m_yaw_pi"])
    def test_odometry_jump(self, corridor_map, monkeypatch, matcher, jump):
        world, topo = corridor_map
        p = self.pipeline_in(PipelineMode.TRACKING, corridor_map, matcher)
        self.assert_valid(p.on_odometry(jump, 1.0))
        view = render(world, topo.nodes[3].pose, K).observation()
        out = p.on_observation(view, 2.0)
        assert out.fix is None
        assert out.status in ("FixGated", "TooFewMatches", "RansacFailed")
        self.assert_contracts(p, view, 3.0, monkeypatch)

    def test_map_without_images_rejected(self, corridor_map):
        _, topo = corridor_map
        nodes = list(topo.nodes)
        nodes[2] = dataclasses.replace(nodes[2], image=None)
        with pytest.raises(ValueError, match="node 2 has no stored image"):
            Pipeline(dataclasses.replace(topo, nodes=nodes), K, oracle)

    def test_odometry_at_equal_timestamp(self, corridor_map):
        p = self.pipeline_in(PipelineMode.TRACKING, corridor_map, "oracle")
        p.on_odometry(Pose.identity(), 1.0)
        before = p.current_world_pose()
        with pytest.raises(NonMonotonicTimestamp):
            p.on_odometry(Pose.identity(), 1.0)
        assert p.mode is PipelineMode.TRACKING
        assert p.current_world_pose() == before

    @pytest.mark.parametrize("graph", ["empty", "after_tracking"])
    def test_fix_about_pi_from_seed(self, corridor_map, monkeypatch, graph):
        # an upright fix 0.5 m from the retrieved node, turned pi about
        # world z. On the stale graph its prior residual sits on the log
        # map's singularity: that solve fails and the stale graph is
        # dropped. Either way a new graph starts at the fix
        world, topo = corridor_map
        p = Pipeline(topo, K, oracle)
        if graph == "after_tracking":
            p = self.pipeline_in(PipelineMode.TRACKING, corridor_map, "oracle")
            p.on_odometry(Pose(np.array([0.0, 0.0, 0.3]), [1, 0, 0, 0]), 1.0)
            for k in range(p.config.max_failures):
                p.on_observation(flat_observation(), 2.0 + k)
            assert p.mode is PipelineMode.LOST
            with pytest.raises(NotLocalized):
                p.on_odometry(Pose(np.array([0.0, 0.0, 0.2]), [1, 0, 0, 0]), 8.0)
        yaw_pi = Pose(np.zeros(3), [0.0, 0.0, 0.0, 1.0])

        def turned_fix(node, obs, K, matcher, pnp):
            fix = yaw_pi.compose(node.pose)
            fix = Pose(node.pose.t + [0.5, 0.0, 0.0], fix.q)
            return RelocResult(pose=fix, inliers=40, total=40,
                               status=RelocStatus.SUCCESS)

        fusion = p.fusion
        assert (fusion is None) == (graph == "empty")
        obs = render(world, topo.nodes[3].pose, K).observation()
        monkeypatch.setattr(pipeline_module, "localize_against_node", turned_fix)
        out = p.on_observation(obs, 9.0)
        assert out.status == "Success" and p.mode is PipelineMode.TRACKING
        assert out.fix == turned_fix(topo.nodes[3], obs, K, oracle, None).pose
        assert p.fusion is not fusion
        assert p.current_world_pose() == (out.fix, 9.0)
        assert p.fusion.timestamps == [9.0]
        assert len(p.fusion.priors) == 1 and p.fusion.last_cost_trace == []


@pytest.fixture(scope="module")
def corridor_views(corridor_map):
    """Observations a stream may carry: views from four map nodes, one of
    them stripped of its landmarks (a real image the oracle finds no match
    in), and a featureless frame."""
    world, topo = corridor_map
    views = [render(world, topo.nodes[i].pose, K).observation() for i in (0, 3, 4, 9)]
    views.append(dataclasses.replace(views[1], landmark_ids=np.zeros(0, dtype=np.int64),
                                     landmark_uv=np.zeros((0, 2)),
                                     landmark_depth=np.zeros(0)))
    return views + [flat_observation(), dataclasses.replace(views[1], depth=None)]


# a stream event: odometry (up to 5 m along each axis and up to pi about
# one) or an observation of one of the views, each a step of time after or
# before the latest timestamp, or at any timestamp, non-finite ones included
_times = st.one_of(st.tuples(st.sampled_from(["after", "before"]), st.floats(0.01, 2.0)),
                   st.tuples(st.just("at"), st.floats()))
_deltas = st.builds(
    lambda t, axis, angle: se3_exp(np.r_[t, angle * np.eye(3)[axis]]),
    st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
    st.integers(0, 2), st.floats(-math.pi, math.pi))
_YAW_PI = Pose(np.zeros(3), [0.0, 0.0, 1.0, 0.0])   # pi about the camera's y axis
_STEP = Pose(np.array([0.0, 0.0, 0.05]), [1, 0, 0, 0])
_events = st.lists(
    st.one_of(st.tuples(st.just("odometry"), _deltas, _times),
              st.tuples(st.just("observation"), st.integers(0, 6), _times)),
    max_size=12)


assert_valid = TestHostileInput.assert_valid


class TestContractProperties:
    """The documented contracts over generated streams of odometry and
    observations on the corridor map."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(boot=st.booleans(), events=_events)
    # two turns of pi bring the estimate back to the view's pose, and the
    # view's fix, timed between them, attaches to the state turned by pi
    @example(boot=True, events=[("odometry", _YAW_PI, ("after", 1.0)),
                                ("odometry", _YAW_PI, ("after", 1.0)),
                                ("observation", 1, ("before", 1.0))])
    # bad input in either mode: a non-finite timestamp, a view without depth
    @example(boot=False, events=[("odometry", _YAW_PI, ("at", math.nan)),
                                 ("observation", 6, ("after", 1.0)),
                                 ("observation", 1, ("at", math.inf))])
    @example(boot=True, events=[("odometry", _YAW_PI, ("at", -math.inf)),
                                ("observation", 6, ("after", 1.0))])
    # Lost on a stale graph: odometry dead-reckons on it, one tick out of
    # order is rejected, and the view reacquires on it at a timestamp the
    # next tick shares
    @example(boot=True, events=[("observation", 5, ("after", 1.0))] * 5 + [
        ("odometry", _STEP, ("after", 0.1)),
        ("odometry", _STEP, ("before", 0.05)),
        ("observation", 1, ("after", 0.1)),
        ("odometry", _STEP, ("after", 0.0))])
    def test_stream_contracts(self, corridor_map, corridor_views, boot, events):
        _, topo = corridor_map
        p = Pipeline(topo, K, oracle)
        assert p.fusion is None
        last = 0.0
        if boot:
            assert p.on_observation(corridor_views[1], last).status == "Success"
        fixed = boot
        for kind, arg, (how, t) in events:
            t = {"after": last + t, "before": last - t, "at": t}[how]
            payload = corridor_views[arg] if kind == "observation" else arg
            if not math.isfinite(t) or (kind == "observation" and payload.depth is None):
                self.assert_rejected(p, kind, payload, t)
                continue
            last = max(last, t)
            lost = p.mode is PipelineMode.LOST
            graph = p.fusion
            sizes = [len(a) for a in graph_arrays(graph)]
            out = None
            if kind == "odometry":
                try:
                    assert_valid(p.on_odometry(arg, t))
                except NotLocalized:
                    assert lost
                    if p.fusion is not None:
                        assert_valid(p.fusion.current_pose()[0])
                except NonMonotonicTimestamp:
                    assert p.fusion is not None and t <= p.fusion.timestamps[-1]
            else:
                out = p.on_observation(payload, t)
                if out.fix is not None:
                    assert_valid(out.fix)
                    assert out.status == "Success"
                    fixed = True
            # no graph before the first fix; then one that only grows and
            # holds a prior, until a fix from Lost mode that the stale graph
            # does not take starts a new one at the fix itself, with no solve
            assert (p.fusion is None) is not fixed
            if p.fusion is not None:
                assert len(p.fusion.priors) >= 1
            if graph is not None and p.fusion is graph:
                assert all(len(a) >= n for a, n in zip(graph_arrays(graph), sizes))
            elif p.fusion is not graph:
                assert lost and out is not None and out.fix is not None
                assert p.mode is PipelineMode.TRACKING
                assert p.fusion.timestamps == [t]
                assert np.array_equal(p.fusion.states, [np.r_[out.fix.t, out.fix.q]])
            if p.mode is PipelineMode.TRACKING:
                assert_valid(p.current_world_pose()[0])
            else:
                with pytest.raises(NotLocalized):
                    p.current_world_pose()

    @staticmethod
    def assert_rejected(p, kind, payload, t):
        """Bad input raises its documented error and changes nothing."""
        before = (p.mode, p.consecutive_failures)
        graph, arrays = p.fusion, graph_arrays(p.fusion)
        error = NonMonotonicTimestamp if not math.isfinite(t) else NoDepth
        with pytest.raises(error):
            if kind == "odometry":
                p.on_odometry(payload, t)
            else:
                p.on_observation(payload, t)
        assert (p.mode, p.consecutive_failures) == before
        assert_graph_kept(p, graph, arrays)


class TestReplayRegression:
    def test_fix_rate_and_accuracy_on_mapped_corridor(self, corridor_map):
        # threshold from the seeded oracle run; queries within 1 m of the
        # mapping route must nearly always produce Success fixes
        world, topo = corridor_map
        rng = np.random.default_rng(5)
        p = Pipeline(topo, K, oracle)
        boot = render(world, topo.nodes[0].pose, K)
        assert p.on_observation(boot.observation(), 0.0).status == "Success"
        ok = total = 0
        t = 1.0
        for _ in range(60):
            x = rng.uniform(2.0, 32.0)
            pose = planar_camera_pose(x, 2.25 + rng.uniform(-0.3, 0.3),
                                      rng.uniform(-0.2, 0.2))
            frame = render(world, pose, K)
            # reset the estimate to the true vicinity: this probes LL
            # quality, not dead reckoning between distant pokes
            p.fusion.states[-1] = np.concatenate([pose.t, pose.q])
            p.mode = PipelineMode.TRACKING
            out = p.on_observation(frame.observation(), t)
            total += 1
            if out.status == "Success":
                ok += 1
                assert np.linalg.norm(out.fix.t - pose.t) < 0.05
            t += 1.0
        assert ok / total >= 0.95

    def test_fused_stream_beats_raw_odometry(self, corridor_map):
        # interleaved 15 Hz odometry + 1 Hz fixes (replayed drive): the
        # fused stream's ATE beats raw dead reckoning on every seeded run
        world, topo = corridor_map
        for seed in (0, 1, 2):
            rec = generate_segment(world, [(2.0, 2.25), (31.0, 2.25)], K,
                                   camera_rate=1.0, odom_rate=15.0, seed=seed,
                                   noise=OdomNoise())
            p = Pipeline(topo, K, oracle)
            frames = {round(f.timestamp, 6): f for f in rec.segment.frames}
            p.on_observation(rec.segment.frames[0].obs, 0.0)
            assert p.mode is PipelineMode.TRACKING
            gt = dict((round(ts, 6), pose) for ts, pose in rec.gt_stream)
            est, raw = [], []
            acc = rec.gt_stream[0][1]
            for ts, delta in rec.odometry:
                key = round(ts, 6)
                acc = acc.compose(delta)
                est.append((ts, p.on_odometry(delta, ts)))
                raw.append((ts, acc))
                if key in frames and ts > 0:
                    p.on_observation(frames[key].obs, ts)
            gt_list = sorted((k, v) for k, v in gt.items())
            ate_est = compute_ate(gt_list, est, max_dt=0.01).rmse
            ate_raw = compute_ate(gt_list, raw, max_dt=0.01).rmse
            assert ate_est < ate_raw

    def test_relocalization_after_lost_bridges_odometry(self, corridor_map):
        world, topo = corridor_map
        p = Pipeline(topo, K, oracle)
        start = topo.nodes[2].pose
        frame = render(world, start, K)
        p.on_observation(frame.observation(), 0.0)
        # force Lost, then dead-reckon forward 1 m while lost
        p.mode = PipelineMode.LOST
        delta = Pose(np.array([0.0, 0.0, 0.2]), [1, 0, 0, 0])
        for k in range(5):
            with pytest.raises(NotLocalized):
                p.on_odometry(delta, 1.0 + 0.1 * k)
        moved = planar_camera_pose(start.t[0] + 1.0, start.t[1], 0.0)
        frame2 = render(world, moved, K)
        out = p.on_observation(frame2.observation(), 2.0)
        assert p.mode is PipelineMode.TRACKING
        assert out.status == "Success"
        # the lost-period motion entered the graph as one between factor
        # per odometry tick
        assert len(p.fusion.states) == 6
        est, _ = p.fusion.current_pose()
        assert np.linalg.norm(est.t - moved.t) < 0.1


def fresh_map(topo):
    """The map over copies of its nodes, none of which has kept features."""
    return dataclasses.replace(topo, nodes=[dataclasses.replace(n) for n in topo.nodes])


@pytest.fixture
def feature_calls(monkeypatch):
    """The images ``matching.classical_features`` runs on, in call order."""
    images = []
    real = matching.classical_features

    def record(image):
        images.append(image)
        return real(image)

    monkeypatch.setattr(matching, "classical_features", record)
    return images


def same_matches(a, b):
    return all(np.array_equal(x, y) for x, y in
               zip((a.uv_ref, a.uv_query, a.confidence),
                   (b.uv_ref, b.uv_query, b.confidence)))


class TestNodeFeatures:
    """A map node's classical features are computed on its first classical
    match and kept in memory; a query's never are."""

    def test_once_per_reference_node_across_pipelines(self, corridor_map,
                                                      feature_calls, monkeypatch):
        world, topo = corridor_map
        topo = fresh_map(topo)
        harris = []
        real_harris = matching._harris
        monkeypatch.setattr(matching, "_harris",
                            lambda imgf: harris.append(1) or real_harris(imgf))
        views = [(4.0, 0.1, 0.05), (9.5, -0.2, -0.1), (15.0, 0.0, 0.1),
                 (4.3, 0.0, 0.0), (20.0, 0.2, -0.05)]
        queries = [render(world, planar_camera_pose(x, 2.25 + dy, yaw), K).observation()
                   for x, dy, yaw in views]
        config = PipelineConfig(pnp=PnPParams(min_inliers=6))
        matched = []
        for p in (Pipeline(topo, K, match_classical, config),
                  Pipeline(topo, K, match_classical, config)):
            for t, obs in enumerate(queries):
                out = p.on_observation(obs, float(t))
                if out.status != "GlRejected":
                    matched.append(out.reference_node)
        assert len(matched) > len(set(matched)) >= 2
        node_of = {id(node.image): node.id for node in topo.nodes}
        node_calls = [node_of[id(im)] for im in feature_calls if id(im) in node_of]
        assert sorted(node_calls) == sorted(set(matched))
        assert len(feature_calls) - len(node_calls) == len(matched)
        assert len(harris) == len(feature_calls)

    def test_query_features_never_kept(self, corridor_map, feature_calls):
        world, topo = corridor_map
        node = dataclasses.replace(topo.nodes[3])
        obs = render(world, planar_camera_pose(node.pose.t[0] + 0.3, 2.3, 0.05),
                     K).observation()
        before = dict(vars(obs))
        first = match_classical(node, obs)
        second = match_classical(node, obs)
        assert vars(obs).keys() == before.keys()
        assert all(vars(obs)[k] is v for k, v in before.items())
        assert len(feature_calls) == 3
        assert feature_calls[0] is node.image
        assert feature_calls[1] is obs.color and feature_calls[2] is obs.color
        assert len(first) > 0 and same_matches(first, second)
        assert same_matches(first, match_classical(node.image, obs.color))

    def test_oracle_navigation_computes_none(self, corridor_map, feature_calls):
        world, topo = corridor_map
        topo = fresh_map(topo)
        start = topo.nodes[0].pose.t
        rep, = run_mission(world, topo, [topo.nodes[2].image], K, oracle,
                           start=(start[0], start[1], 0.0), seed=1,
                           config=NavConfig(timeout=10.0))
        assert len(rep.trajectory) > 0
        assert feature_calls == []

    def test_replaced_image_gets_its_own_features(self, corridor_map, feature_calls):
        _, topo = corridor_map
        node = dataclasses.replace(topo.nodes[3])
        old = node.classical_features()
        assert node.classical_features() is old
        node.image = topo.nodes[5].image.copy()
        assert node.color is node.image
        with pytest.raises(AttributeError):
            node.color = old
        new = node.classical_features()
        assert len(feature_calls) == 2 and feature_calls[1] is node.image
        want = matching.classical_features(topo.nodes[5].image)
        assert all(np.array_equal(a, b) for a, b in zip(new, want))
        assert not all(np.array_equal(a, b) for a, b in zip(new, old))

    def test_map_round_trip_ignores_kept_features(self, corridor_map, feature_calls,
                                                  tmp_path):
        _, topo = corridor_map
        topo = fresh_map(topo)
        for node in topo.nodes:
            node.classical_features()
        text = repr(topo.nodes[0])
        assert text == repr(dataclasses.replace(topo.nodes[0]))
        save_map(topo, tmp_path)
        assert sorted(os.listdir(tmp_path)) == [
            "cng_edges.csv", "cvg_edges.csv", "descriptors.f32", "images",
            "manifest.txt", "nodes.csv"]
        loaded = load_map(tmp_path)
        assert maps_equal(topo, loaded) and maps_equal(loaded, topo)
        del feature_calls[:]
        loaded.nodes[0].classical_features()
        assert len(feature_calls) == 1 and feature_calls[0] is loaded.nodes[0].image


class TestLogFormat:
    def test_log_row_fields(self, corridor_map):
        world, topo = corridor_map
        p = Pipeline(topo, K, oracle)
        frame = render(world, topo.nodes[0].pose, K)
        out = p.on_observation(frame.observation(), 0.25)
        row = out.csv_fields()
        assert len(row) == len(ObservationOutcome.CSV_HEADER.split(","))
        assert row[1] == "Tracking" and row[5] == "Success"

    def test_exact_text_reads_back(self, tmp_path):
        out = ObservationOutcome(timestamp=0.1, mode=PipelineMode.TRACKING, fix=None,
                                 reference_node=3, inliers=42, total=57,
                                 status="Success", sim_top1=2 / 3)
        path = tmp_path / "frames.csv"
        write_csv(path, ObservationOutcome.CSV_HEADER, [out.csv_fields()])
        assert path.read_text() == (
            "timestamp,mode,reference_node,inliers,total,status,sim_top1\n"
            "0.10000000000000001,Tracking,3,42,57,Success,0.666666667\n")
        _, rows = read_csv_rows(path, ObservationOutcome.CSV_HEADER, list)
        assert rows == [out.csv_fields()]


class TestConfigValidation:
    # a window below one gates every fix as "before the window", and fewer
    # than one inlier scales the fix sigmas to zero
    @pytest.mark.parametrize("field, config", [
        ("window", dict(window=0)), ("window", dict(window=-3)),
        ("pnp.min_inliers", dict(pnp=PnPParams(min_inliers=0))),
        ("pnp.min_inliers", dict(pnp=PnPParams(min_inliers=-1))),
        # a max_failures below one acts as one; a NaN similarity floor
        # compares false with everything and so gates nothing
        ("max_failures", dict(max_failures=0)), ("max_failures", dict(max_failures=-1)),
        ("gl_min_sim", dict(gl_min_sim=math.nan))])
    def test_settings_that_break_the_loop_are_rejected(self, corridor_map, field,
                                                       config):
        _, topo = corridor_map
        with pytest.raises(ValueError, match=f"^{field} "):
            Pipeline(topo, K, oracle, PipelineConfig(**config))

    def test_the_least_settings_are_accepted(self, corridor_map):
        _, topo = corridor_map
        config = PipelineConfig(window=1, pnp=PnPParams(min_inliers=1))
        assert Pipeline(topo, K, oracle, config).config is config

    def test_fix_radius_is_no_setting(self):
        # nothing sets it; it stays readable on every config
        assert PipelineConfig().gl_fix_radius == 3.0
        with pytest.raises(TypeError, match="gl_fix_radius"):
            PipelineConfig(gl_fix_radius=1.0)
