"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread against its bound.

    python3 perfbench/spread.py --workload track --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --compare perfbench/out/spread-a.json

Runs one process at a time from the repository root, with the command and
run length in BENCHMARK.json. The spread is (Q3 - Q1) / median over the
seeds; a benchmark is steady when every spread, set-up time aside, stays
below a third of its bound. ``--compare`` also reports how far each median
moved from an earlier result file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, REPO_ROOT)

from perfbench.metrics import quartile_spread  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   help="repeatable; default every workload")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--out", default=os.path.join(BENCH_DIR, "out", "spread.json"))
    p.add_argument("--compare", help="earlier --out file to compare medians with")
    args = p.parse_args()

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    results = {}
    for name in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True,
                                  text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                sys.stderr.write(proc.stdout + proc.stderr)
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}")
            result = json.loads(last)
            for metric, v in result["metrics"].items():
                values[metric].append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        results[name] = values

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    print(f"\n{'workload':8s} {'metric':18s} {'median':>11s} {'spread':>7s} "
          f"{'bound':>6s} {'steady':>6s} {'moved':>7s}")
    for name, values in results.items():
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            med = statistics.median(vals)
            spread = quartile_spread(vals)
            steady = "-" if m["name"] == "setup_s" else \
                ("yes" if spread < m["bound"] / 3 else "NO")
            moved = ""
            if name in earlier:
                before = statistics.median(earlier[name][m["name"]])
                worse = (med - before) / before
                if m["better"] == "higher":
                    worse = -worse
                moved = f"{100 * worse:+6.1f}%" + ("!" if worse > m["bound"] else "")
            print(f"{name:8s} {m['name']:18s} {med:11.5g} {100 * spread:6.1f}% "
                  f"{100 * m['bound']:5.0f}% {steady:>6s} {moved:>7s}")


if __name__ == "__main__":
    main()
