#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads bh,fmm] [--trace]
                               [--json OUT]

For every workload and end-to-end metric it prints the median of the
per-seed values and their spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median. A spread above a third of the metric's bound in BENCHMARK.json is
flagged (setup_s is exempt: its runs are not gated on spread). With
--trace it also makes one traced run per workload (first seed) and
records the per-layer metrics. --json writes the summary, the format of
perfbench/baseline.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--json")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = seeds_of(args.seeds)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary = {
        "machine": {
            "nproc": os.cpu_count(),
            "ocaml": subprocess.run(["ocamlopt", "-version"],
                                    stdout=subprocess.PIPE, text=True
                                    ).stdout.strip(),
            "platform": platform.platform(),
            "date": time.strftime("%Y-%m-%d"),
        },
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    steady = True
    for w in workloads:
        values, failed, attempted = {}, 0, 0
        for seed in seeds:
            r = run(w, seed, spec["run_seconds"], 0)
            failed += r["failed"]
            attempted += r["attempted"]
            if not r["correct"]:
                steady = False
            for n, m in r["metrics"].items():
                values.setdefault(n, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (n, m["value"]) for n, m in r["metrics"].items())),
                flush=True)
        row = {"attempted": attempted, "failed": failed, "metrics": {}}
        for n, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med
            bound = bounds[n]["bound"]
            flag = n != "setup_s" and spread > bound / 3
            steady = steady and not flag
            row["metrics"][n] = {"median": med, "spread": spread,
                                 "unit": bounds[n]["unit"], "values": vs}
            print("  %-22s median %-14.6g spread %.4f  bound %.2f%s"
                  % (n, med, spread, bound, "  (above a third)" if flag else ""),
                  flush=True)
        if args.trace:
            r = run(w, seeds[0], spec["run_seconds"], 1)
            row["per_layer_seed%d" % seeds[0]] = {
                n: m["value"] for n, m in r["metrics"].items()}
        summary["workloads"][w] = row
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    print("steady" if steady else "NOT steady")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
