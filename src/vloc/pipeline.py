"""Localization pipeline: a state machine over {Lost, Tracking} wiring
place retrieval (global localization), per-node metric relocalization
(local localization), and the pose-graph fusion backend.

Lost mode retrieves the top-1 node and, above the similarity gate, seeds
the tracker with that node's pose and immediately attempts a metric fix.
Tracking mode gathers the nearest node plus its 1-hop covisibility
neighbors, localizes against the most similar candidate, feeds successful
fixes into the fusion graph (windowed optimization), and falls back to
Lost after enough consecutive failures. Odometry is propagated at high
rate; in Lost mode deltas are buffered so relocalization resumes from the
dead-reckoned motion instead of discarding it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NearSingularRotation, NotLocalized, SingularNormalEquations
from .geometry import CameraIntrinsics, Pose, fmt17, rotation_angle
from .poseslam import FusionGraph, odom_sigmas, vloc_fix_sigmas
from .relocal import PnPParams, RelocStatus, localize_against_node
from .retrieval import extract_descriptor, similarity, top_k

GL_MIN_SIM_DEFAULT = 0.5
MAX_FAILURES_DEFAULT = 5
WINDOW_DEFAULT = 20
# fix gating: a fix must keep the camera upright (planar ground robot;
# rejects the mirror solution of coplanar-landmark PnP) and, while
# tracking, stay consistent with the current estimate
ATTITUDE_GATE_DEG = 15.0
FIX_GATE_M = 2.0
FIX_GATE_DEG = 45.0


class PipelineMode(enum.Enum):
    LOST = "Lost"
    TRACKING = "Tracking"


@dataclass(frozen=True)
class PipelineConfig:
    gl_min_sim: float = GL_MIN_SIM_DEFAULT
    max_failures: int = MAX_FAILURES_DEFAULT
    window: int = WINDOW_DEFAULT
    pnp: PnPParams = PnPParams()
    # a global relocalization fix must land near the retrieved node (place
    # similarity implies geographic proximity)
    gl_fix_radius: float = 3.0


@dataclass(frozen=True)
class ObservationOutcome:
    """Per-observation record; one row of the frame log."""

    timestamp: float
    mode: PipelineMode
    fix: Pose | None
    reference_node: int
    inliers: int
    total: int
    status: str
    sim_top1: float

    def log_row(self) -> str:
        return (f"{fmt17(self.timestamp)},{self.mode.value},{self.reference_node},"
                f"{self.inliers},{self.total},{self.status},"
                f"{format(self.sim_top1, '.9g')}")

    @staticmethod
    def log_header() -> str:
        return "timestamp,mode,reference_node,inliers,total,status,sim_top1"


class Pipeline:
    """One localization session against a fixed map. Every node must hold
    an image (ValueError otherwise): localization matches against it."""

    def __init__(self, topo_map, K: CameraIntrinsics, matcher,
                 config: PipelineConfig = PipelineConfig()):
        for node in topo_map.nodes:
            if node.image is None:
                raise ValueError(f"node {node.id} has no stored image; "
                                 f"a map without images cannot localize")
        self.map = topo_map
        self.K = K
        self.matcher = matcher
        self.config = config
        self.mode = PipelineMode.LOST
        self.prior_pose: Pose | None = None
        self.consecutive_failures = 0
        self.fusion = FusionGraph()
        self._pending_lost_delta = Pose.identity()

    # -- observations ---------------------------------------------------------

    def on_observation(self, obs, timestamp: float) -> ObservationOutcome:
        """Process one camera observation; never raises on localization
        failure (failures drive the mode machine instead)."""
        desc = extract_descriptor(obs.color)

        if self.mode is PipelineMode.LOST:
            return self._global_localize(desc, obs, timestamp)

        reference = self._pick_reference(desc)
        result = localize_against_node(self.map.nodes[reference], obs, self.K,
                                       self.matcher, self.config.pnp)
        fix = None
        status = result.status.value
        if result.status is RelocStatus.SUCCESS:
            if self._fix_gated(result.pose, against_prior=True):
                status = "FixGated"
            else:
                fix = result.pose
                self._apply_fix(fix, result.inliers, timestamp)
        if fix is None:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.config.max_failures:
                self.mode = PipelineMode.LOST
                self.prior_pose = None
                self.consecutive_failures = 0

        return ObservationOutcome(
            timestamp=timestamp, mode=self.mode, fix=fix,
            reference_node=reference, inliers=result.inliers,
            total=result.total, status=status, sim_top1=-1.0)

    def _global_localize(self, desc, obs, timestamp: float) -> ObservationOutcome:
        """Lost-mode step: retrieval gated by similarity, then verified by a
        metric solve against the retrieved node before Tracking begins. An
        unverified retrieval leaves the pipeline Lost (a false place match
        would otherwise seed tracking with a bogus prior)."""
        node_id, sim_top1 = top_k(desc, self.map, k=1).top1()
        if sim_top1 < self.config.gl_min_sim:
            return ObservationOutcome(
                timestamp=timestamp, mode=self.mode, fix=None,
                reference_node=-1, inliers=0, total=0,
                status="GlRejected", sim_top1=sim_top1)
        node = self.map.nodes[node_id]
        result = localize_against_node(node, obs, self.K, self.matcher,
                                       self.config.pnp)
        verified = (result.status is RelocStatus.SUCCESS
                    and float(np.linalg.norm(result.pose.t - node.pose.t))
                    <= self.config.gl_fix_radius
                    and not self._fix_gated(result.pose, against_prior=False)
                    and self._start_tracking(node.pose, result.pose,
                                             result.inliers, timestamp))
        return ObservationOutcome(
            timestamp=timestamp, mode=self.mode,
            fix=result.pose if verified else None,
            reference_node=node_id, inliers=result.inliers, total=result.total,
            status=result.status.value if verified else "GlUnverified",
            sim_top1=sim_top1)

    def _start_tracking(self, seed: Pose, fix: Pose, inliers: int,
                        timestamp: float) -> bool:
        """Seed the graph at ``seed`` (or bridge the Lost gap with the
        buffered motion), apply the fix and enter Tracking. False, with the
        graph as it was, when the solve fails, as it does for a fix about pi
        from the seeded state (its prior residual has no tangent)."""
        n_states, n_priors = len(self.fusion.states), len(self.fusion.priors)
        try:
            if not n_states:
                self.fusion.initialize(seed, timestamp)
            elif timestamp > self.fusion.timestamps[-1]:
                step = float(np.linalg.norm(self._pending_lost_delta.t))
                self.fusion.propagate(self._pending_lost_delta,
                                      odom_sigmas(step), timestamp)
            self._apply_fix(fix, inliers, timestamp)
        except (NearSingularRotation, SingularNormalEquations):
            self.fusion.truncate(n_states, n_priors)
            return False
        self.mode = PipelineMode.TRACKING
        self._pending_lost_delta = Pose.identity()
        return True

    def _apply_fix(self, fix: Pose, inliers: int, timestamp: float) -> None:
        state_idx = self.fusion.nearest_state(timestamp)
        self.fusion.add_vloc_fix(
            state_idx, fix,
            vloc_fix_sigmas(inliers, self.config.pnp.min_inliers))
        self.fusion.optimize(window=self.config.window)
        self.prior_pose = self.fusion.current_pose()[0]
        self.consecutive_failures = 0

    def _fix_gated(self, fix: Pose, against_prior: bool) -> bool:
        """True when the fix must be rejected: camera not upright (mirror
        pose), or, while tracking, inconsistent with the current estimate."""
        down = fix.rotation_matrix()[:, 1]   # camera y axis in world
        if down[2] > -math.cos(math.radians(ATTITUDE_GATE_DEG)):
            return True
        if against_prior and self.prior_pose is not None:
            if float(np.linalg.norm(fix.t - self.prior_pose.t)) > FIX_GATE_M:
                return True
            if rotation_angle(fix.q, self.prior_pose.q) > math.radians(FIX_GATE_DEG):
                return True
        return False

    def _pick_reference(self, query_desc) -> int:
        positions = self.map.node_positions()
        dists = np.linalg.norm(positions - self.prior_pose.t, axis=1)
        nearest = int(np.argmin(dists))
        candidates = sorted({nearest, *self.map.cvg_neighbors(nearest)})
        sims = [similarity(query_desc, self.map.nodes[c].descriptor)
                for c in candidates]
        return candidates[int(np.argmax(sims))]

    # -- odometry --------------------------------------------------------------

    def on_odometry(self, delta: Pose, timestamp: float) -> Pose:
        """High-rate propagation; returns the world pose estimate.

        In Lost mode the delta is buffered into the pending chain (keeping
        dead-reckoning continuity for relocalization) and NotLocalized is
        raised since no world pose can be claimed."""
        if self.mode is not PipelineMode.TRACKING:
            self._pending_lost_delta = self._pending_lost_delta.compose(delta)
            raise NotLocalized("pipeline is in Lost mode")
        step = float(np.linalg.norm(delta.t))
        pose = self.fusion.propagate(delta, odom_sigmas(step), timestamp)
        self.prior_pose = pose
        return pose

    def current_world_pose(self):
        if self.mode is not PipelineMode.TRACKING or not len(self.fusion.states):
            raise NotLocalized("pipeline is in Lost mode")
        return self.fusion.current_pose()
