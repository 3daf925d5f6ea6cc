"""Build a budgeted topo-metric map of a simulated corridor, then localize
a drifting replay against it and compare the fused trajectory with raw
dead reckoning.

Run:  python demos/01_map_and_localize.py
"""

import numpy as np

from vloc.geometry import CameraIntrinsics
from vloc.mapgraph import build_map, select_keyframes
from vloc.matching import match_oracle
from vloc.pipeline import Pipeline, PipelineConfig, PipelineMode
from vloc.planning import compute_ate
from vloc.simworld import OdomNoise, generate_segment, make_preset

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0, width=128, height=128)


def matcher(ref, query):
    return match_oracle(ref, query, seed=0)


# --- mapping pass: drive the corridor with ground-truth poses --------------

world, route = make_preset("corridor", seed=7)
mapping = generate_segment(world, route, K, camera_rate=2.0, seed=1,
                           noise=OdomNoise.zero())
print(f"mapping run: {len(mapping.segment)} posed frames over "
      f"{sum(np.linalg.norm(np.asarray(b) - np.asarray(a)) for a, b in zip(route, route[1:])):.0f} m")

keyframes = select_keyframes(mapping.segment, budget=30, grid_res=0.1)
print(f"keyframe budget 30 -> greedy coverage kept {len(keyframes)} frames")

topo = build_map(mapping.segment, keyframes, matcher=matcher,
                 covis_threshold=30, world=world)
print(f"map: {len(topo.nodes)} nodes, {len(topo.cng_edges)} connectivity edges, "
      f"{len(topo.cvg_edges)} covisibility edges, "
      f"{len(topo.components())} component(s)")

# --- localization pass: same corridor, drifting odometry -------------------

replay = generate_segment(world, route, K, camera_rate=1.0, odom_rate=15.0,
                          seed=42, noise=OdomNoise())
pipeline = Pipeline(topo, K, matcher, PipelineConfig(max_failures=12))
frames = {round(f.timestamp, 9): f for f in replay.segment.frames}
pipeline.on_observation(replay.segment.frames[0].obs, 0.0)
assert pipeline.mode is PipelineMode.TRACKING, "global localization failed"

fused, raw = [], []
dead_reckoned = replay.gt_stream[0][1]
for ts, delta in replay.odometry:
    dead_reckoned = dead_reckoned.compose(delta)
    raw.append((ts, dead_reckoned))
    fused.append((ts, pipeline.on_odometry(delta, ts)))
    if round(ts, 9) in frames:
        pipeline.on_observation(frames[round(ts, 9)].obs, ts)
        fused[-1] = (ts, pipeline.current_world_pose()[0])

ate_fused = compute_ate(replay.gt_stream, fused, max_dt=0.01)
ate_raw = compute_ate(replay.gt_stream, raw, max_dt=0.01)
print(f"\nraw dead-reckoning ATE : {ate_raw.rmse:.3f} m over {ate_raw.matched} poses")
print(f"fused trajectory ATE   : {ate_fused.rmse:.3f} m over {ate_fused.matched} poses")
print("low-rate fixes corrected the accumulated drift" if ate_fused.rmse < ate_raw.rmse
      else "unexpected: fusion did not improve on dead reckoning")
