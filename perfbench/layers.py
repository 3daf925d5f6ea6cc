"""Which vloc names the traced run wraps, and the per-layer metrics it
derives from their spans.

Layers are the modules. ``vloc.geometry`` and ``vloc.dataio`` are too
fine-grained to time from outside; their time is self time of the callers.
"""

from __future__ import annotations

import numpy as np

from vloc import mapgraph, matching, pipeline, planning, poseslam, relocal, retrieval, simworld

from .metrics import mean_or_zero, percentile, rate
from .tracing import Patches

LAYERS = ("pipeline", "retrieval", "matching", "relocal", "poseslam",
          "simworld", "planning", "mapgraph")
# a retrieved node this close to the true camera position counts as a hit:
# the radius within which the pipeline accepts a global fix near the node
TOP1_HIT_RADIUS_M = pipeline.PipelineConfig().gl_fix_radius
# spans that only run while the workload is set up; all others are
# reported per measured pass
SETUP_SPANS = ("simworld.generate_segment", "mapgraph.select_keyframes",
               "mapgraph.build_map", "mapgraph.save_map", "mapgraph.load_map")


def _optimize_name(args, kwargs):
    window = kwargs.get("window", args[1] if len(args) > 1 else None)
    return "poseslam.batch_optimize" if window is None else "poseslam.optimize"


def _note_observation(args, kwargs, outcome, was_lost):
    return {"lost": was_lost, "status": outcome.status,
            "fix": outcome.fix is not None}


def _note_top_k(tracer):
    def note(args, kwargs, result, _):
        if tracer.truth is None:
            return {}
        node, _sim = result.top1()
        dist = float(np.linalg.norm(args[1].nodes[node].pose.t - tracer.truth.t))
        return {"hit": dist <= TOP1_HIT_RADIUS_M}
    return note


def _note_matches(args, kwargs, match_set, _):
    return {"matches": len(match_set)}


def _note_lift(args, kwargs, result, _):
    return {"matches": len(args[0]), "dropped": result[2]}


def _note_pnp(args, kwargs, result, _):
    return {"inliers": result.inliers, "total": result.total,
            "success": result.status is relocal.RelocStatus.SUCCESS}


def _note_optimize(args, kwargs, result, _):
    graph = args[0]
    return {"lm_steps": len(graph.last_cost_trace) - 1,
            "states": len(graph.states)}


def _note_plan_local(args, kwargs, result, _):
    return {"rotate": result[1] == planning.ROTATE_IN_PLACE}


def _note_save_map(args, kwargs, manifest, _):
    return {"nodes": manifest["node_count"],
            "storage_bytes": manifest["storage_bytes_descriptors"]
            + manifest["storage_bytes_images"]}


def trace_patches(tracer) -> Patches:
    """Every lookup site of a public function the workloads reach."""
    sites = [
        (pipeline.Pipeline, "on_observation", "pipeline.on_observation",
         _note_observation, lambda a, kw: a[0].mode is pipeline.PipelineMode.LOST),
        (pipeline.Pipeline, "on_odometry", "pipeline.on_odometry", None, None),
        (pipeline, "extract_descriptor", "retrieval.extract_descriptor", None, None),
        (pipeline, "top_k", "retrieval.top_k", _note_top_k(tracer), None),
        (pipeline, "similarity", "retrieval.similarity", None, None),
        (planning, "extract_descriptor", "retrieval.extract_descriptor", None, None),
        (planning, "top_k", "retrieval.top_k", None, None),
        (retrieval, "extract_descriptor", "retrieval.extract_descriptor", None, None),
        (matching, "match_oracle", "matching.match_oracle", _note_matches, None),
        (matching, "match_classical", "matching.match_classical", _note_matches, None),
        (pipeline, "localize_against_node", "relocal.localize_against_node", None, None),
        (relocal, "lift", "relocal.lift", _note_lift, None),
        (relocal, "solve_pnp_ransac", "relocal.solve_pnp_ransac", _note_pnp, None),
        (poseslam.FusionGraph, "optimize", _optimize_name, _note_optimize, None),
        (poseslam.FusionGraph, "propagate", "poseslam.propagate", None, None),
        (simworld, "make_preset", "simworld.make_preset", None, None),
        (simworld, "generate_segment", "simworld.generate_segment", None, None),
        (simworld, "render", "simworld.render", None, None),
        (planning, "render", "simworld.render", None, None),
        (simworld.SimRobot, "step", "simworld.step", None, None),
        (planning, "run_mission", "planning.run_mission", None, None),
        (planning, "run_navigation", "planning.run_navigation", None, None),
        (planning, "plan_global", "planning.plan_global", None, None),
        (planning, "next_subgoal", "planning.next_subgoal", None, None),
        (planning, "plan_local", "planning.plan_local", _note_plan_local, None),
        (planning, "compute_ate", "planning.compute_ate", None, None),
        (mapgraph, "select_keyframes", "mapgraph.select_keyframes", None, None),
        (mapgraph, "build_map", "mapgraph.build_map", None, None),
        (mapgraph, "save_map", "mapgraph.save_map", _note_save_map, None),
        (mapgraph, "load_map", "mapgraph.load_map", None, None),
        (mapgraph, "maps_equal", "mapgraph.maps_equal", None, None),
    ]
    return Patches(
        (owner, attr,
         lambda fn, name=name, note=note, pre=pre: tracer.wrap(name, fn, note, pre))
        for owner, attr, name, note, pre in sites)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric name, unit): the BENCHMARK.json per_layer list, in order
PER_LAYER = [
    ("pipeline.on_observation.self_ms", "ms"),
    ("pipeline.on_observation.calls", "count"),
    ("pipeline.lost_share", "ratio"),
    ("pipeline.gated_share", "ratio"),
    ("pipeline.on_odometry.ms", "ms"),
    ("retrieval.extract_descriptor.ms", "ms"),
    ("retrieval.extract_descriptor.calls", "count"),
    ("retrieval.top_k.ms", "ms"),
    ("retrieval.top_k.calls", "count"),
    ("retrieval.top1_hit_rate", "ratio"),
    ("matching.match_classical.ms", "ms"),
    ("matching.match_classical.calls", "count"),
    ("matching.match_classical.matches_mean", "count"),
    ("matching.match_oracle.ms", "ms"),
    ("matching.match_oracle.calls", "count"),
    ("relocal.lift.ms", "ms"),
    ("relocal.lift.drop_rate", "ratio"),
    ("relocal.solve_pnp_ransac.ms", "ms"),
    ("relocal.solve_pnp_ransac.ms_p90", "ms"),
    ("relocal.solve_pnp_ransac.calls", "count"),
    ("relocal.inlier_ratio", "ratio"),
    ("relocal.success_rate", "ratio"),
    ("poseslam.optimize.ms", "ms"),
    ("poseslam.optimize.ms_p90", "ms"),
    ("poseslam.optimize.calls", "count"),
    ("poseslam.optimize.lm_steps", "count"),
    ("poseslam.propagate.ms", "ms"),
    ("poseslam.batch_optimize.ms", "ms"),
    ("poseslam.states", "count"),
    ("simworld.render.ms", "ms"),
    ("simworld.render.calls", "count"),
    ("simworld.generate_segment.ms", "ms"),
    ("planning.plan_local.ms", "ms"),
    ("planning.plan_local.calls", "count"),
    ("planning.rotate_share", "ratio"),
    ("planning.plan_global.ms", "ms"),
    ("mapgraph.select_keyframes.ms", "ms"),
    ("mapgraph.build_map.ms", "ms"),
    ("mapgraph.save_map.ms", "ms"),
    ("mapgraph.load_map.ms", "ms"),
    ("mapgraph.nodes", "count"),
    ("mapgraph.storage_bytes", "bytes"),
    *[(f"{layer}.self_s", "s") for layer in LAYERS if layer != "mapgraph"],
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
]


def _share(spans, attr):
    flagged = [s for s in spans if attr in s.attrs]
    return rate(sum(bool(s.attrs[attr]) for s in flagged), len(flagged)) \
        if flagged else 0.0


def per_layer_metrics(tracer, n_passes: int, overhead_s: float,
                      untraced_s: float) -> dict:
    """Per-layer figures from the spans of the traced passes (per pass, or
    mean per call) and of the traced set-ups (mean per call). A layer the
    workload does not call reports 0."""
    selfs = tracer.self_times()
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        if (s.phase == "setup") == (s.name in SETUP_SPANS):
            by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def ms(name):
        return mean_or_zero(s.duration * 1e3 for s in spans(name))

    def ms_p90(name):
        d = [s.duration * 1e3 for s in spans(name)]
        return percentile(d, 90) if d else 0.0

    def calls(name):
        return len(spans(name)) / n_passes

    def attr_mean(name, attr):
        return mean_or_zero(s.attrs[attr] for s in spans(name))

    def attr_ratio(name, num, den):
        total = sum(s.attrs[den] for s in spans(name))
        return rate(sum(s.attrs[num] for s in spans(name)), total) if total else 0.0

    obs = spans("pipeline.on_observation")
    saves = spans("mapgraph.save_map")
    out = {
        "pipeline.on_observation.self_ms":
            mean_or_zero(selfs[s.id] * 1e3 for s in obs),
        "pipeline.on_observation.calls": calls("pipeline.on_observation"),
        "pipeline.lost_share": _share(obs, "lost"),
        "pipeline.gated_share":
            rate(sum(s.attrs.get("status") == "FixGated" for s in obs), len(obs))
            if obs else 0.0,
        "pipeline.on_odometry.ms": ms("pipeline.on_odometry"),
        "retrieval.extract_descriptor.ms": ms("retrieval.extract_descriptor"),
        "retrieval.extract_descriptor.calls": calls("retrieval.extract_descriptor"),
        "retrieval.top_k.ms": ms("retrieval.top_k"),
        "retrieval.top_k.calls": calls("retrieval.top_k"),
        "retrieval.top1_hit_rate": _share(spans("retrieval.top_k"), "hit"),
        "matching.match_classical.ms": ms("matching.match_classical"),
        "matching.match_classical.calls": calls("matching.match_classical"),
        "matching.match_classical.matches_mean":
            attr_mean("matching.match_classical", "matches"),
        "matching.match_oracle.ms": ms("matching.match_oracle"),
        "matching.match_oracle.calls": calls("matching.match_oracle"),
        "relocal.lift.ms": ms("relocal.lift"),
        "relocal.lift.drop_rate": attr_ratio("relocal.lift", "dropped", "matches"),
        "relocal.solve_pnp_ransac.ms": ms("relocal.solve_pnp_ransac"),
        "relocal.solve_pnp_ransac.ms_p90": ms_p90("relocal.solve_pnp_ransac"),
        "relocal.solve_pnp_ransac.calls": calls("relocal.solve_pnp_ransac"),
        "relocal.inlier_ratio":
            attr_ratio("relocal.solve_pnp_ransac", "inliers", "total"),
        "relocal.success_rate": _share(spans("relocal.solve_pnp_ransac"), "success"),
        "poseslam.optimize.ms": ms("poseslam.optimize"),
        "poseslam.optimize.ms_p90": ms_p90("poseslam.optimize"),
        "poseslam.optimize.calls": calls("poseslam.optimize"),
        "poseslam.optimize.lm_steps": attr_mean("poseslam.optimize", "lm_steps"),
        "poseslam.propagate.ms": ms("poseslam.propagate"),
        "poseslam.batch_optimize.ms": ms("poseslam.batch_optimize"),
        "poseslam.states": attr_mean("poseslam.batch_optimize", "states"),
        "simworld.render.ms": ms("simworld.render"),
        "simworld.render.calls": calls("simworld.render"),
        "simworld.generate_segment.ms": ms("simworld.generate_segment"),
        "planning.plan_local.ms": ms("planning.plan_local"),
        "planning.plan_local.calls": calls("planning.plan_local"),
        "planning.rotate_share": _share(spans("planning.plan_local"), "rotate"),
        "planning.plan_global.ms": ms("planning.plan_global"),
        "mapgraph.select_keyframes.ms": ms("mapgraph.select_keyframes"),
        "mapgraph.build_map.ms": ms("mapgraph.build_map"),
        "mapgraph.save_map.ms": ms("mapgraph.save_map"),
        "mapgraph.load_map.ms": ms("mapgraph.load_map"),
        "mapgraph.nodes": attr_mean("mapgraph.save_map", "nodes") if saves else 0.0,
        "mapgraph.storage_bytes":
            attr_mean("mapgraph.save_map", "storage_bytes") if saves else 0.0,
    }
    layer_self = layer_self_seconds(tracer, selfs, "pass")
    for layer in LAYERS:
        if layer != "mapgraph":
            out[f"{layer}.self_s"] = layer_self.get(layer, 0.0) / n_passes
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_share"] = rate(overhead_s, untraced_s)
    if [name for name, _ in PER_LAYER] != list(out):
        raise RuntimeError("PER_LAYER and per_layer_metrics disagree")
    return out


def layer_self_seconds(tracer, selfs, phase) -> dict:
    """Layer -> total self seconds of its spans in one phase."""
    totals: dict[str, float] = {}
    for s in tracer.spans:
        if s.phase == phase:
            layer = s.name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + selfs[s.id]
    return totals


def span_table(tracer, phase: str, repeats: int, wall_s: float) -> list[str]:
    """Rows of the per-span table for one phase: calls and times per
    repeat (pass or set-up), mean per call, self time and its share."""
    selfs = tracer.self_times()
    rows: dict[str, list] = {}
    for s in tracer.spans:
        if s.phase == phase:
            rows.setdefault(s.name, []).append(s)
    lines = [f"{'span':38s} {'calls':>8s} {'total ms':>10s} {'mean ms':>9s} "
             f"{'self ms':>10s} {'self %':>7s}"]
    top_level = 0.0
    order = sorted(rows, key=lambda n: -sum(selfs[s.id] for s in rows[n]))
    for name in order:
        group = rows[name]
        total = sum(s.duration for s in group)
        own = sum(selfs[s.id] for s in group)
        top_level += sum(s.duration for s in group if s.parent is None)
        lines.append(
            f"{name:38s} {len(group) / repeats:8.1f} {total / repeats * 1e3:10.1f} "
            f"{total / len(group) * 1e3:9.3f} {own / repeats * 1e3:10.1f} "
            f"{100.0 * own / (wall_s * repeats):6.1f}%")
    outside = wall_s * repeats - top_level
    lines.append(f"{'(benchmark code, outside spans)':38s} {'':8s} {'':10s} {'':9s} "
                 f"{outside / repeats * 1e3:10.1f} "
                 f"{100.0 * outside / (wall_s * repeats):6.1f}%")
    layer_self = layer_self_seconds(tracer, selfs, phase)
    lines.append("layer self time: " + ", ".join(
        f"{layer} {layer_self[layer] / repeats * 1e3:.1f} ms"
        for layer in LAYERS if layer in layer_self))
    return lines
