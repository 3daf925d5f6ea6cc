"""Run one workload of the vloc benchmark and print its metrics.

    python3 perfbench/run.py --workload track --seed 1 --seconds 5 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run that
reports per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object; the exit code is 1 when a correctness
check fails and 2 on a usage error. See perfbench/README.md.
"""

import os

# pin the BLAS and OpenMP pools before numpy is first imported: the default
# pool spreads small solves over every core and makes timings erratic
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 3
# untraced and traced passes of a traced run, at least, over its one set-up
TRACED_PASSES = 2
# (name, unit) of the end-to-end metrics, as in BENCHMARK.json
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("fix_rate", "ratio"),
    ("recall_25cm_5deg", "ratio"),
    ("pose_err_m_p50", "m"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole passes until this much time has gone "
                        "(and at least the workload's pass count)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_info() -> str:
    """BLAS name and the thread count each loaded OpenBLAS reports."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    counts = []
    for pkg in ("numpy", "scipy"):
        mod = __import__(pkg)
        libdir = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)),
                              f"{pkg}.libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    counts.append(f"{pkg}:{fn()}")
                    break
    return (f"blas={blas.get('name')} {blas.get('version')}; "
            f"OPENBLAS/OMP/MKL_NUM_THREADS=1; openblas_get_num_threads "
            f"{' '.join(counts) or 'n/a'}; cpus={os.cpu_count()}")


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds, tracer, patches):
    """Set-ups and passes. Untraced: SETUP_REPEATS set-ups, each drawing
    its own inputs and followed by one pass over them; then passes over the
    last inputs until ``seconds`` of them have gone. Traced: one traced
    set-up, then untraced and traced passes alternate over its inputs,
    TRACED_PASSES of each at least. Returns (set-up seconds, every map round
    trip equal, untraced and traced passes keyed by the set-up whose inputs
    they ran on)."""
    setup_s, roundtrips = [], []
    untraced, traced = {}, {}
    inputs, key = None, 0

    def count(passes):
        return sum(map(len, passes.values()))

    def run_pass(traced_pass):
        tracer.phase = "pass"
        if traced_pass:
            with patches:
                traced.setdefault(key, []).append(workload.run_pass(inputs, tracer))
        else:
            untraced.setdefault(key, []).append(workload.run_pass(inputs, tracer))

    for index in range(1 if patches else SETUP_REPEATS):
        inputs = None           # let the previous set-up go before the next
        tracer.phase = "setup"
        t0 = time.perf_counter()
        if patches:
            with patches:
                inputs = workload.setup(seed, index, OUT_DIR)
        else:
            inputs = workload.setup(seed, index, OUT_DIR)
        setup_s.append(time.perf_counter() - t0)
        roundtrips.append(inputs.map.roundtrip_equal)
        key = index
        if not patches:
            run_pass(False)
    while (sum(r.wall_s for g in (untraced, traced) for ps in g.values() for r in ps)
           < seconds
           or (patches and (count(untraced) < TRACED_PASSES
                            or count(traced) < count(untraced)))):
        run_pass(bool(patches) and count(traced) < count(untraced))
    return setup_s, all(roundtrips), untraced, traced


def same_calls(passes) -> bool:
    return all({k: len(v) for k, v in p.timings.items()}
               == {k: len(v) for k, v in passes[0].timings.items()} for p in passes)


def combined_checks(groups) -> list:
    """Each workload check over the first pass of every input set."""
    out = {}
    for group in groups:
        for name, ok, detail in group[0].checks:
            prev = out.get(name)
            if prev is None or (prev[0] and not ok):
                out[name] = (ok, detail)
    return [(name, ok, detail) for name, (ok, detail) in out.items()]


def print_rows(title, rows):
    print(f"# {title}")
    for name, (value, unit, n) in rows.items():
        print(f"#   {name:24s} {value:>14.6g} {unit:6s} n={n}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "vloc")):
        print(f"error: no vloc sources under {SRC_DIR}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    sys.path.insert(0, REPO_ROOT)

    from perfbench import layers, metrics
    from perfbench.timing import call_seconds
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, pose_valid

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    os.makedirs(OUT_DIR, exist_ok=True)
    print(f"# vloc benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# {blas_info()}")

    tracer = Tracer()
    patches = layers.trace_patches(tracer) if args.trace else None
    setup_s, roundtrip_equal, untraced, traced = measure(
        workload, args.seed, args.seconds, tracer, patches)
    # passes over the same inputs, traced or not, one group per input set
    groups = [untraced.get(k, []) + traced.get(k, [])
              for k in sorted(set(untraced) | set(traced))]
    passes = [r for group in groups for r in group]
    firsts = [group[0] for group in groups]

    # correctness: the map round trips, the workload's own checks, every
    # emitted pose, identical results over identical inputs, no failed call
    checks = [("map survives save_map/load_map (maps_equal)", roundtrip_equal, "")]
    checks += combined_checks(groups)
    bad = sum(not pose_valid(p) for r in passes for p in r.poses)
    checks.append(("every emitted pose finite with a unit quaternion", bad == 0,
                   f"{bad} bad of {sum(len(r.poses) for r in passes)}"))
    checks.append(("passes over the same inputs agree",
                   all(same_calls(g) and all(r.fingerprint == g[0].fingerprint
                                             for r in g) for g in groups),
                   f"{len(passes)} passes over {len(groups)} input set(s)"))
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    checks.append(("no call raised (other than NotLocalized)", failed == 0,
                   f"{failed} of {attempted}"))
    if not args.trace:
        # the reported latencies pool the input sets
        n_ops = sum(len(r.timings.get(workload.op_series, ())) for r in firsts)
        q_top = metrics.highest_reportable_percentile(n_ops)
        checks.append((f"p90 has >= {metrics.TAIL_MIN} samples beyond it",
                       q_top is not None and q_top >= 90,
                       f"{n_ops} {workload.op_series} latencies"))
    correct = all(ok for _, ok, _ in checks)

    print(f"# set-up: {len(setup_s)}x " + ", ".join(f"{s:.3f}" for s in setup_s)
          + f" s; passes: {sum(map(len, untraced.values()))} untraced, "
          + f"{sum(map(len, traced.values()))} traced, wall "
          + ", ".join(f"{r.wall_s:.3f}" for r in passes) + " s")
    for name, ok, detail in checks:
        print(f"# check {'PASS' if ok else 'FAIL'}: {name}"
              + (f" ({detail})" if detail else ""))
    if not correct:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    if args.trace:
        n_untraced = sum(map(len, untraced.values()))
        n_traced = sum(map(len, traced.values()))
        untraced_s = sum(map(sum, call_seconds(list(untraced.values())).values()))
        traced_s = sum(map(sum, call_seconds(list(traced.values())).values()))
        # both sums hold one best time per call, so they compare per pass
        overhead = traced_s - untraced_s
        print(f"# tracing overhead: {overhead * 1e3:.1f} ms per pass "
              f"({100.0 * overhead / untraced_s:.1f}% of {untraced_s:.3f} s): best "
              f"call times of {n_traced} traced vs {n_untraced} untraced passes")
        print(f"# per-span table, set-up (1 traced set-up, {setup_s[0]:.3f} s):")
        for line in layers.span_table(tracer, "setup", 1, setup_s[0]):
            print("#   " + line)
        wall = statistics.mean(r.wall_s for ps in traced.values() for r in ps)
        print(f"# per-span table, per traced pass ({n_traced} passes, "
              f"mean wall {wall:.3f} s):")
        for line in layers.span_table(tracer, "pass", n_traced, wall):
            print("#   " + line)
        values = layers.per_layer_metrics(tracer, n_traced, overhead, untraced_s)
        units = dict(layers.PER_LAYER)
        tracer.write(os.path.join(
            OUT_DIR, f"trace-{workload.name}-seed{args.seed}.jsonl"))
    else:
        calls = call_seconds(groups)
        busy_s = sum(map(sum, calls.values()))
        latencies = [x * 1e3 for x in calls[workload.op_series]]
        score = metrics.FixScore.merged(r.score for r in firsts)
        errors = [e for r in firsts for e in r.pose_errors]
        values = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb(),
            "latency_ms_p50": metrics.percentile(latencies, 50),
            "latency_ms_p90": metrics.tail_percentile(latencies, 90),
            "ops_per_s": len(latencies) / busy_s,
            "fix_rate": score.fix_rate(),
            "recall_25cm_5deg": score.recall(),
            "pose_err_m_p50": metrics.percentile(errors, 50),
        }
        units = dict(END_TO_END)
        samples = {"setup_s": len(setup_s), "peak_rss_mb": 1,
                   "latency_ms_p50": len(latencies), "latency_ms_p90": len(latencies),
                   "ops_per_s": len(latencies), "fix_rate": score.attempts,
                   "recall_25cm_5deg": score.attempts, "pose_err_m_p50": len(errors)}
        print_rows(f"end-to-end ({workload.op_series} latency: each distinct call at "
                   f"its best over the passes on its inputs, at the reference host "
                   f"speed; highest percentile with >= {metrics.TAIL_MIN} "
                   f"beyond: p{metrics.highest_reportable_percentile(len(latencies))})",
                   {name: (values[name], units[name], samples[name])
                    for name in units})
        n = len(latencies)
        figures = {"error_rate": (metrics.rate(failed, attempted), "ratio", attempted),
                   workload.rate_name: (values["ops_per_s"], "1/s", n)}
        if firsts[0].sim_s is not None:
            figures["realtime_factor"] = (sum(r.sim_s for r in firsts) / busy_s, "x", n)
        if "odometry" in calls:
            figures["odom_ms_p50"] = (
                metrics.percentile([x * 1e3 for x in calls["odometry"]], 50),
                "ms", len(calls["odometry"]))
        if "batch" in calls:
            figures["batch_opt_s"] = (statistics.median(calls["batch"]), "s",
                                      len(calls["batch"]))
        figures["false_fix_rate"] = (score.false_fix_rate(), "ratio", score.attempts)
        figures["ate_m"] = (metrics.rms(errors), "m", len(errors))
        # a workload's own figures, averaged over its input sets by sample count
        for name, (_, unit, _) in firsts[0].extra.items():
            n_sum = sum(r.extra[name][2] for r in firsts)
            figures[name] = (sum(r.extra[name][0] * r.extra[name][2] for r in firsts)
                             / n_sum, unit, n_sum)
        raw = call_seconds(groups, corrected=False)
        raw_ms = [x * 1e3 for x in raw[workload.op_series]]
        figures["uncorrected_ms_p50"] = (metrics.percentile(raw_ms, 50), "ms", n)
        figures["uncorrected_ms_p90"] = (metrics.percentile(raw_ms, 90), "ms", n)
        figures["uncorrected_ops_per_s"] = (n / sum(map(sum, raw.values())), "1/s", n)
        figures["pass_wall_s"] = (statistics.median(r.wall_s for r in passes), "s",
                                  len(passes))
        print_rows("workload figures (printed, not bounded)", figures)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
