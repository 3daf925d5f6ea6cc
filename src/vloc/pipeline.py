"""Localization pipeline: a state machine over {Lost, Tracking} wiring
place retrieval (global localization), per-node metric relocalization
(local localization), and the pose-graph fusion backend.

Lost mode retrieves the top-1 node and, above the similarity gate,
verifies a metric fix against it; a verified fix re-attaches the stale
fusion graph or starts a new one at the fix, and tracking begins.
Tracking mode gathers the nearest node plus its 1-hop covisibility
neighbors, localizes against the most similar candidate, feeds successful
fixes into the fusion graph (windowed optimization), and falls back to
Lost after enough consecutive failures. Odometry is propagated at high
rate into the fusion graph in either mode, once there is one: in Lost
mode the graph keeps dead-reckoning, so relocalization resumes from the
motion made while lost instead of discarding it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    NearSingularRotation,
    NoDepth,
    NonMonotonicTimestamp,
    NotLocalized,
    SingularNormalEquations,
)
from .geometry import CameraIntrinsics, Pose, fmt17, rotation_angle
from .mapgraph import nearest_node
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
    # similarity implies geographic proximity); a constant, not a field
    gl_fix_radius: ClassVar[float] = 3.0

    def __post_init__(self):
        # a window below one puts every state before it, so every fix is
        # gated; fewer than one inlier scales the fix sigmas to zero; fewer
        # than one failure acts as one; a NaN similarity floor gates nothing
        for name, value in (("window", self.window),
                            ("pnp.min_inliers", self.pnp.min_inliers),
                            ("max_failures", self.max_failures)):
            if value < 1:
                raise ValueError(f"{name} {value} must be at least 1")
        if math.isnan(self.gl_min_sim):
            raise ValueError("gl_min_sim nan must be a number")


@dataclass(frozen=True)
class ObservationOutcome:
    """Per-observation record; one ``write_csv`` row of the frame log."""

    CSV_HEADER = "timestamp,mode,reference_node,inliers,total,status,sim_top1"

    timestamp: float
    mode: PipelineMode
    fix: Pose | None
    reference_node: int
    inliers: int
    total: int
    status: str
    sim_top1: float

    def csv_fields(self) -> list:
        return [fmt17(self.timestamp), self.mode.value, str(self.reference_node),
                str(self.inliers), str(self.total), self.status,
                format(self.sim_top1, ".9g")]


class Pipeline:
    """One localization session against a fixed map. Every node must hold
    an image (ValueError otherwise): localization matches against it. The
    estimate is the fusion graph's last state; ``current_world_pose`` reads
    it. ``fusion`` is None until the first verified fix starts it."""

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
        self.consecutive_failures = 0
        self.fusion: FusionGraph | None = None

    # -- observations ---------------------------------------------------------

    def on_observation(self, obs, timestamp: float) -> ObservationOutcome:
        """Process one camera observation; never raises on localization
        failure (failures drive the mode machine instead). Raises, before
        any work and changing nothing, NonMonotonicTimestamp for a
        timestamp that is not finite, NoDepth for an observation without
        depth, and, from ``extract_descriptor``, ValueError for an image it
        cannot describe: not 2-D, a side under 16 px (an empty image is
        one of these two), or a value that is not finite."""
        if not math.isfinite(timestamp):
            raise NonMonotonicTimestamp(f"timestamp {timestamp} is not finite")
        if obs.depth is None:
            raise NoDepth("observation has no depth; it cannot be localized")
        desc = extract_descriptor(obs.color)

        if self.mode is PipelineMode.LOST:
            return self._global_localize(desc, obs, timestamp)

        estimate = self.fusion.states[-1]
        reference = self._pick_reference(desc, estimate[:3])
        result = localize_against_node(self.map.nodes[reference], obs, self.K,
                                       self.matcher, self.config.pnp)
        fix = None
        status = result.status.value
        if result.status is RelocStatus.SUCCESS:
            # the fix attaches to the state nearest its timestamp, so it is
            # held to that state: one about pi from it has no prior
            # residual, and one before the optimization window would add a
            # prior that the windowed solve leaves out
            state_idx = self.fusion.nearest_state(timestamp)
            if self._before_window(state_idx) or \
                    self._fix_gated(result.pose, self.fusion.states[state_idx]):
                status = "FixGated"
            else:
                fix = result.pose
                self._apply_fix(fix, result.inliers, state_idx)
        if fix is None:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.config.max_failures:
                self.mode = PipelineMode.LOST
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
                    and not self._fix_gated(result.pose, None)
                    and self._start_tracking(result.pose, result.inliers,
                                             timestamp))
        return ObservationOutcome(
            timestamp=timestamp, mode=self.mode,
            fix=result.pose if verified else None,
            reference_node=node_id, inliers=result.inliers, total=result.total,
            status=result.status.value if verified else "GlUnverified",
            sim_top1=sim_top1)

    def _start_tracking(self, fix: Pose, inliers: int, timestamp: float) -> bool:
        """Apply the fix and enter Tracking. The fix goes to the stale graph,
        which dead-reckoned through the Lost period, if there is one. A fix
        about pi from the state it attaches to fails that solve (its prior
        residual has no tangent), and the stale graph is dropped as it
        stands. With no graph, or then, a new graph starts at the fix
        itself: one state under one prior equal to it is already the
        optimum, so no solve runs. False, changing nothing, only when the
        stale graph's state nearest the fix lies before its optimization
        window (a late fix, rejected as in Tracking mode)."""
        if self.fusion is not None:
            state_idx = self.fusion.nearest_state(timestamp)
            if self._before_window(state_idx):
                return False
            try:
                self._apply_fix(fix, inliers, state_idx)
            except (NearSingularRotation, SingularNormalEquations):
                self.fusion = None
        if self.fusion is None:
            self.fusion = FusionGraph(fix, timestamp)
            self.fusion.add_vloc_fix(
                0, fix, vloc_fix_sigmas(inliers, self.config.pnp.min_inliers))
        self.mode = PipelineMode.TRACKING
        return True

    def _apply_fix(self, fix: Pose, inliers: int, state_idx: int) -> None:
        self.fusion.add_vloc_fix(
            state_idx, fix,
            vloc_fix_sigmas(inliers, self.config.pnp.min_inliers))
        self.fusion.optimize(window=self.config.window)
        self.consecutive_failures = 0

    def _before_window(self, state_idx: int) -> bool:
        """True for a state before the optimization window: a fix attached
        to it would add a prior that the windowed solve leaves out."""
        return state_idx < len(self.fusion.timestamps) - self.config.window

    def _fix_gated(self, fix: Pose, estimate) -> bool:
        """True when the fix must be rejected: camera not upright (mirror
        pose), or inconsistent with the ``estimate`` pose row, the state it
        would attach to (None in Lost mode, where there is no estimate to
        hold it to)."""
        down = fix.rotation_matrix()[:, 1]   # camera y axis in world
        if down[2] > -math.cos(math.radians(ATTITUDE_GATE_DEG)):
            return True
        return estimate is not None and (
            float(np.linalg.norm(fix.t - estimate[:3])) > FIX_GATE_M
            or rotation_angle(fix.q, estimate[3:]) > math.radians(FIX_GATE_DEG))

    def _pick_reference(self, query_desc, position) -> int:
        nearest = nearest_node(self.map, position)
        candidates = sorted({nearest, *self.map.cvg_neighbors(nearest)})
        sims = [similarity(query_desc, self.map.nodes[c].descriptor)
                for c in candidates]
        return candidates[int(np.argmax(sims))]

    # -- odometry --------------------------------------------------------------

    def on_odometry(self, delta: Pose, timestamp: float) -> Pose:
        """High-rate propagation into the fusion graph, in either mode once
        the first fix has started one; returns the world pose estimate. In
        Lost mode the graph keeps dead-reckoning and NotLocalized is raised,
        since no world pose can be claimed; before the first fix there is no
        graph, NotLocalized is raised and nothing changes. Raises, changing
        nothing, NonMonotonicTimestamp for a timestamp that is not finite or
        not after the graph's last one."""
        if not math.isfinite(timestamp):
            raise NonMonotonicTimestamp(f"timestamp {timestamp} is not finite")
        if self.fusion is None:
            raise NotLocalized("pipeline has no fix yet")
        step = float(np.linalg.norm(delta.t))
        pose = self.fusion.propagate(delta, odom_sigmas(step), timestamp)
        if self.mode is not PipelineMode.TRACKING:
            raise NotLocalized("pipeline is in Lost mode")
        return pose

    def current_world_pose(self):
        """(pose, timestamp) of the estimate, the fusion graph's last state."""
        if self.mode is not PipelineMode.TRACKING:
            raise NotLocalized("pipeline is in Lost mode")
        return self.fusion.current_pose()
