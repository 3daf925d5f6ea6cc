"""The three closed-loop workloads, one client each.

Every workload has a set-up (the map write path plus the workload's own
inputs, generated from the seed and the set-up's index, so each set-up of
a run covers other inputs) and a pass: one run over those fixed inputs. Passes over the same inputs do the same calls in the same order and
must give identical results, so the runner can take each call's best time
over them and the quality figures do not depend on the pass count.

The world of each workload is the preset at WORLD_SEED, as a deployment's
map is fixed; the seed drives the traffic against it: drift and matcher
noise (track), query poses (kidnap), the robot's odometry noise (nav).
"""

from __future__ import annotations

import math
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from vloc import mapgraph, matching, pipeline, planning, simworld
from vloc.errors import NotLocalized
from vloc.geometry import CameraIntrinsics, rotation_angle
from vloc.relocal import PnPParams
from vloc.simworld import OdomNoise

from .metrics import FixScore, rate, spl
from .timing import CallTimer
from .tracing import Patches

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0, width=128, height=128)
WORLD_SEED = 7
MAPPING_RATE_HZ = 2.0
QUAT_NORM_TOL = 1e-9


@dataclass
class PassResult:
    """One pass over a workload's inputs."""

    timings: dict                # series -> (seconds, probe seconds) per call
    wall_s: float                # the whole pass
    sim_s: float | None          # sensor or simulated seconds the pass covered
    failed: int                  # calls that raised anything but NotLocalized
    score: FixScore              # every localization attempt against the truth
    pose_errors: list            # metres off the truth of each estimate scored
    extra: dict                  # printed figures: name -> (value, unit, n)
    fingerprint: tuple           # equal across passes over the same inputs
    poses: list                  # every pose the program emitted
    checks: list = field(default_factory=list)   # (name, ok, detail)

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.timings.values()) + self.failed


@dataclass
class MapSetup:
    world: object
    route: list
    mapping: object
    topo: object                 # the map after save_map -> load_map
    roundtrip_equal: bool


def pose_valid(pose) -> bool:
    return (bool(np.all(np.isfinite(pose.t))) and bool(np.all(np.isfinite(pose.q)))
            and abs(float(np.linalg.norm(pose.q)) - 1.0) <= QUAT_NORM_TOL)


def pose_error(est, truth):
    """(metres, degrees) between an estimate and the ground truth."""
    return (float(np.linalg.norm(est.t - truth.t)),
            math.degrees(rotation_angle(est.q, truth.q)))


def draw_seed(seed: int, tag: int, index: int) -> int:
    """The simulator's integer seed for set-up ``index`` of a run."""
    return int(np.random.default_rng([seed, tag, index]).integers(2**31))


def route_length(route) -> float:
    return sum(float(np.linalg.norm(np.asarray(b) - np.asarray(a)))
               for a, b in zip(route, route[1:]))


def oracle(ref, query):
    return matching.match_oracle(ref, query, seed=0)


def classical(ref, query):
    return matching.match_classical(ref, query)


class NoisyOracle:
    """Oracle matches with 0.5 px noise and 20% outliers, seeded per call
    so a pass is reproducible and RANSAC has outliers to reject."""

    def __init__(self, seed: int):
        self.seed = seed
        self.calls = 0

    def __call__(self, ref, query):
        self.calls += 1
        return matching.match_oracle(ref, query, outlier_rate=0.2, noise_px=0.5,
                                     seed=[self.seed, self.calls])


def build_map(preset: str, budget, workdir) -> MapSetup:
    """The write path: mapping drive, keyframes, map build, save, load.
    ``budget`` maps the route length to the keyframe budget."""
    world, route = simworld.make_preset(preset, seed=WORLD_SEED)
    mapping = simworld.generate_segment(world, route, K, camera_rate=MAPPING_RATE_HZ,
                                        seed=1, noise=OdomNoise.zero())
    keyframes = mapgraph.select_keyframes(mapping.segment,
                                          budget=budget(route_length(route)),
                                          grid_res=0.1)
    built = mapgraph.build_map(mapping.segment, keyframes, matcher=oracle,
                               covis_threshold=30, world=world)
    with tempfile.TemporaryDirectory(dir=workdir) as mapdir:
        mapgraph.save_map(built, mapdir)
        loaded = mapgraph.load_map(mapdir)
    equal = mapgraph.maps_equal(built, loaded)
    # simulator annotations for the oracle matcher are not part of the map
    # format; carry them over instead of re-rendering every node
    for src, dst in zip(built.nodes, loaded.nodes):
        dst.landmark_ids = src.landmark_ids
        dst.landmark_uv = src.landmark_uv
        dst.landmark_depth = src.landmark_depth
    return MapSetup(world, route, mapping, loaded, equal)


def demo_budget(length: float) -> int:
    """Keyframe budget of the navigation demo: one per 1.2 m plus 8."""
    return int(length / 1.2) + 8


def _record_failure(failures: list) -> None:
    """Count a failed call; print the first traceback of the pass."""
    if not failures:
        traceback.print_exc()
    failures.append(1)


# ---------------------------------------------------------------------------
# track: on-robot localization of a long drifting replay
# ---------------------------------------------------------------------------

@dataclass
class TrackInputs:
    seed: int
    map: MapSetup
    replay: object
    events: list                 # (timestamp, kind, payload) in replay order
    dead_reckoning_ate: float


class Track:
    """Replay a drifting drive down the corridor route: 15 Hz odometry and
    2.5 Hz camera through ``Pipeline.on_odometry`` and
    ``on_observation`` in timestamp order (observations first on ties, as
    ``vloc localize`` orders them), closed by one full-graph solve as
    ``vloc localize --batch-out`` does. Each set-up draws its own drift and
    matcher noise, so a run's three set-ups cover three replays: how many
    windowed solves need rejected LM steps, and so the latency tail,
    depends on the noise."""

    name = "track"
    op_series = "observation"
    rate_name = "observations_per_s"
    camera_rate_hz = 2.5
    config = pipeline.PipelineConfig(max_failures=12)

    def setup(self, seed: int, index: int, workdir) -> TrackInputs:
        m = build_map("corridor", lambda length: 30, workdir)
        seed = draw_seed(seed, 0x7AC, index)
        replay = simworld.generate_segment(m.world, m.route, K,
                                           camera_rate=self.camera_rate_hz,
                                           odom_rate=15.0, seed=seed,
                                           noise=OdomNoise())
        events = [(ts, 1, delta) for ts, delta in replay.odometry]
        events += [(f.timestamp, 0, f) for f in replay.segment.frames]
        events.sort(key=lambda e: (e[0], e[1]))
        dead = replay.gt_stream[0][1]
        raw = []
        for ts, delta in replay.odometry:
            dead = dead.compose(delta)
            raw.append((ts, dead))
        dr_ate = planning.compute_ate(replay.gt_stream, raw, max_dt=0.01).rmse
        return TrackInputs(seed, m, replay, events, dr_ate)

    def run_pass(self, inp: TrackInputs, tracer) -> PassResult:
        pipe = pipeline.Pipeline(inp.map.topo, K, NoisyOracle(inp.seed), self.config)
        timer = CallTimer()
        fused, poses, failures = [], [], []
        score = FixScore()
        t_pass = time.perf_counter()
        for ts, kind, payload in inp.events:
            if kind == 0:
                tracer.op, tracer.truth = f"obs{score.attempts}", payload.pose
                t0 = timer.start()
                try:
                    outcome = pipe.on_observation(payload.obs, ts)
                except Exception:
                    _record_failure(failures)
                    continue
                timer.stop("observation", t0)
                if outcome.fix is None:
                    score.add(None)
                else:
                    score.add(pose_error(outcome.fix, payload.pose))
                    poses.append(outcome.fix)
            else:
                tracer.op, tracer.truth = f"odom{ts:.3f}", None
                t0 = timer.start()
                try:
                    fused.append((ts, pipe.on_odometry(payload, ts)))
                except NotLocalized:
                    pass
                except Exception:
                    _record_failure(failures)
                    continue
                timer.stop("odometry", t0)
        tracer.op = "batch"
        t0 = timer.start()
        try:
            batch, _cost = pipe.fusion.optimize()
            timer.stop("batch", t0)
        except Exception:
            _record_failure(failures)
            batch = []
        wall = time.perf_counter() - t_pass
        tracer.op = tracer.truth = None

        ate = planning.compute_ate(inp.replay.gt_stream, fused, max_dt=0.01)
        poses += [p for _, p in fused] + list(batch)
        return PassResult(
            timings=timer.series,
            wall_s=wall, sim_s=inp.events[-1][0] - inp.events[0][0],
            failed=len(failures), score=score,
            pose_errors=list(ate.errors),
            extra={"dead_reckoning_ate_m": (inp.dead_reckoning_ate, "m", ate.matched),
                   "batch_states": (len(batch), "count", 1)},
            fingerprint=(score.key(), ate.rmse, len(batch)),
            poses=poses,
            checks=[("fused ATE beats dead reckoning",
                     ate.rmse < inp.dead_reckoning_ate,
                     f"{ate.rmse:.4f} m vs {inp.dead_reckoning_ate:.4f} m"),
                    ("batch solve takes the sparse path (> 60 states)",
                     len(batch) > 60, f"{len(batch)} states")])


# ---------------------------------------------------------------------------
# kidnap: independent global relocalization queries
# ---------------------------------------------------------------------------

@dataclass
class KidnapInputs:
    map: MapSetup
    queries: list                # (observation, ground-truth pose)


class Kidnap:
    """Each query is a fresh Lost-mode ``Pipeline`` and one
    ``on_observation`` with the classical matcher at ``min_inliers=6``,
    against the campus map. Queries sit near the mapping route, every
    sixth off it (larger offsets, any heading). Each set-up renders its
    own queries, so a run's three set-ups cover three times as many: the
    queries whose RANSAC runs to its iteration cap make the p90, and their
    share changes with the query offsets, by 2x between seeds in 360."""

    name = "kidnap"
    op_series = "query"
    rate_name = "queries_per_s"
    n_queries = 160
    config = pipeline.PipelineConfig(pnp=PnPParams(min_inliers=6))

    def setup(self, seed: int, index: int, workdir) -> KidnapInputs:
        m = build_map("campus", demo_budget, workdir)
        rng = np.random.default_rng([seed, 0x4B1D, index])
        frames = m.mapping.segment.frames
        queries = []
        # stratified: query i starts from an evenly spaced mapping frame, so
        # seeds differ in the offsets only, not in which places are asked
        while len(queries) < self.n_queries:
            i = len(queries)
            base = frames[i * len(frames) // self.n_queries].pose
            x, y, yaw = simworld.pose_to_planar(base)
            if i % 6 == 5:
                x += rng.uniform(-1.0, 1.0)
                y += rng.uniform(-1.0, 1.0)
                yaw = rng.uniform(-math.pi, math.pi)
            else:
                x += rng.uniform(-0.25, 0.25)
                y += rng.uniform(-0.25, 0.25)
                yaw += rng.uniform(-0.15, 0.15)
            if not m.world.free_disc(x, y, 0.3):
                continue
            pose = simworld.planar_camera_pose(x, y, yaw)
            queries.append((simworld.render(m.world, pose, K).observation(), pose))
        return KidnapInputs(m, queries)

    def run_pass(self, inp: KidnapInputs, tracer) -> PassResult:
        timer = CallTimer()
        poses, failures, status = [], [], []
        score = FixScore()
        t_pass = time.perf_counter()
        for i, (obs, truth) in enumerate(inp.queries):
            tracer.op, tracer.truth = f"query{i}", truth
            t0 = timer.start()
            try:
                pipe = pipeline.Pipeline(inp.map.topo, K, classical, self.config)
                outcome = pipe.on_observation(obs, 0.0)
            except Exception:
                _record_failure(failures)
                continue
            timer.stop("query", t0)
            status.append(outcome.status)
            if outcome.fix is None:
                score.add(None)
            else:
                score.add(pose_error(outcome.fix, truth))
                poses.append(outcome.fix)
        wall = time.perf_counter() - t_pass
        tracer.op = tracer.truth = None
        return PassResult(
            timings=timer.series, wall_s=wall, sim_s=None,
            failed=len(failures), score=score,
            pose_errors=list(score.errors_m),
            extra={},
            fingerprint=(score.key(), tuple(status)),
            poses=poses,
            checks=[("fixes scored against simulator ground truth: false fixes "
                     "<= 5% of queries, at least one accurate",
                     score.false_fix_rate() <= 0.05 and score.accurate > 0,
                     f"{score.false} false, {score.accurate} accurate "
                     f"of {score.attempts}")])


# ---------------------------------------------------------------------------
# nav: closed-loop image-goal navigation
# ---------------------------------------------------------------------------

@dataclass
class NavInputs:
    seed: int
    map: MapSetup
    goal_images: list
    start: tuple


class Nav:
    """``planning.run_mission`` on the rooms map with the oracle matcher,
    as demo 03 does: from the dock (the pose of the map's first keyframe)
    to the images of the map nodes at the bottom-right and then the
    top-right room's centre, through the doors between the rooms. Ops are
    control ticks.

    Each set-up draws its own odometry noise from the seed, so a run's
    three set-ups cover three missions: how many of a mission's windowed
    solves need rejected LM steps, and so the tick latency tail, depends on
    the noise.

    The robot starts where the map starts, so the mission begins Tracking.
    Started Lost, it spins until a view verifies, and in the look-alike
    rooms whether that takes no turn, one or two depends on near-tied
    retrieval scores: across seeds and hosts the quality figures then
    split into clusters far wider than any bound. Lost-mode relocalization
    under that aliasing is what ``kidnap`` measures."""

    name = "nav"
    op_series = "tick"
    rate_name = "ticks_per_s"
    # indices of the room centres the rooms route visits, in goal order
    goal_route_points = (2, 4)
    config = planning.NavConfig(timeout=90.0)

    def setup(self, seed: int, index: int, workdir) -> NavInputs:
        m = build_map("rooms", demo_budget, workdir)
        goals = [planning.nearest_node(
            m.topo, np.append(m.route[i], simworld.CAMERA_HEIGHT_DEFAULT))
            for i in self.goal_route_points]
        start = simworld.pose_to_planar(m.mapping.segment.frames[0].pose)
        return NavInputs(draw_seed(seed, 0x6A7, index), m,
                         [m.topo.nodes[g].image for g in goals], start)

    def run_pass(self, inp: NavInputs, tracer) -> PassResult:
        timer = CallTimer()
        failures, poses = [], []
        score = FixScore()
        state = {"tick_start": None, "truth": None, "ticks": 0}

        # the tick loop lives inside run_navigation, so a tick is timed from
        # one render (the first step of every tick) to the next, and the last
        # tick of a goal until run_navigation returns
        def close_tick():
            if state["tick_start"] is not None:
                timer.stop("tick", state["tick_start"])
            state["tick_start"] = None

        def render_probe(fn):
            def probe(*args, **kwargs):
                close_tick()
                state["tick_start"] = timer.start()
                state["ticks"] += 1
                tracer.op = f"tick{state['ticks']}"
                frame = fn(*args, **kwargs)
                state["truth"] = tracer.truth = frame.gt_pose
                return frame
            return probe

        def navigation_probe(fn):
            def probe(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_tick()
            return probe

        def observation_probe(fn):
            def probe(self_, obs, timestamp):
                outcome = fn(self_, obs, timestamp)
                if outcome.fix is None:
                    score.add(None)
                else:
                    score.add(pose_error(outcome.fix, state["truth"]))
                    poses.append(outcome.fix)
                return outcome
            return probe

        probes = Patches([(planning, "render", render_probe),
                          (planning, "run_navigation", navigation_probe),
                          (pipeline.Pipeline, "on_observation", observation_probe)])
        t_pass = time.perf_counter()
        with probes:
            try:
                reports = planning.run_mission(
                    inp.map.world, inp.map.topo, inp.goal_images, K, oracle,
                    start=inp.start, seed=inp.seed, config=self.config)
            except Exception:
                _record_failure(failures)
                reports = []
        wall = time.perf_counter() - t_pass
        tracer.op = tracer.truth = None

        est = [p for r in reports for p in r.trajectory]
        gt = [p for r in reports for p in r.gt_trajectory]
        poses += [p for _, p in est]
        ate = planning.compute_ate(gt, est, max_dt=0.01) if est else None
        success = [r.success for r in reports]
        episodes = [(r.success, r.shortest_path_m, r.path_length_m) for r in reports]
        return PassResult(
            timings=timer.series, wall_s=wall,
            sim_s=sum(r.time_s for r in reports),
            failed=len(failures), score=score,
            pose_errors=list(ate.errors) if ate else [],
            extra={"success_rate": (rate(sum(success), len(success)) if success
                                    else 0.0, "ratio", len(success)),
                   "spl": (spl(episodes) if episodes else 0.0, "ratio", len(success))},
            fingerprint=(score.key(), ate.rmse if ate else None, tuple(episodes)),
            poses=poses,
            checks=[("every goal reached, SPL within [0, 1]",
                     len(success) == len(inp.goal_images) and all(success)
                     and 0.0 <= spl(episodes) <= 1.0,
                     f"{sum(success)} of {len(inp.goal_images)} goals")])


WORKLOADS = {w.name: w for w in (Track, Kidnap, Nav)}
