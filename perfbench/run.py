#!/usr/bin/env python3
"""Build and run the benchmark for one workload; print its result.

    python3 perfbench/run.py --workload bh --seed 1 --seconds 25 --trace 0

Run from the repository root. The script builds perfbench/perfbench.exe
with dune, then makes timed runs of the workload until --seconds are spent
(at least three; five with --trace 1). Each timed run is its own process,
so peak RSS and the GC counters belong to that run alone and every run
starts from the same GC state. The first run is also checked against the
reference; every later run must reproduce its result bit for bit and its
deterministic figures exactly. A drift is a failure, not noise.

Human-readable lines go first; the last stdout line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones: odd runs untraced, even runs with spans, then one process
of probes. The spans go to .perfbench_out/spans-<workload>-<seed>.jsonl.
See perfbench/README.md for the metric definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("bh", "fmm", "upward_chaos", "bh_observed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 120
# Host times are rescaled to the machine speed at which the calibration
# kernel (perfbench.ml) takes this long; see README.md.
CAL_REF_S = 0.07


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    try:
        proc = subprocess.run(
            [dune, "build", "--root", ".", "./perfbench/perfbench.exe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        die("build failed")


def program(args):
    """Run perfbench.exe once and return its JSON result."""
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("perfbench.exe %s did not finish in time" % " ".join(args))
    sys.stderr.write(proc.stderr.decode(errors="replace"))
    if proc.returncode == 3:
        die("the workload is invalid")
    if proc.returncode != 0:
        die("perfbench.exe exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def at_ref_speed(run, key):
    return run[key] * CAL_REF_S / run["cal_s"]


def runs_of(args):
    """The timed runs. Returns (runs, errors): runs are (index, traced,
    result) for the runs that completed; errors maps a failed run's index
    to its reason."""
    min_runs = 5 if args.trace else 3
    runs, errors = [], {}
    start = time.monotonic()
    last = 0.0
    i = 0
    while i < min_runs or time.monotonic() - start + last < args.seconds:
        i += 1
        traced = bool(args.trace) and i % 2 == 0
        t = time.monotonic()
        out = program(["--workload", args.workload, "--seed", str(args.seed)]
                      + (["--check"] if i == 1 else [])
                      + (["--trace"] if traced else []))
        if i > 1:
            last = time.monotonic() - t
        if "error" in out:
            errors[i] = out["error"]
            continue
        run = out["run"]
        run["spans"] = out.get("spans", [])
        runs.append((i, traced, run))
    return runs, errors, i


def verify(runs, errors, attempted):
    """Every run must repeat the first: result digest, deterministic
    figures and allocated words (per tracing mode: spans allocate)."""
    if not runs:
        return
    _, _, first = runs[0]
    check = first.get("check")
    if check is None or not check["ok"]:
        reason = check["error"] if check else "the first run failed"
        for i in range(1, attempted + 1):
            errors.setdefault(i, reason)
        return
    words = {}
    for i, traced, run in runs:
        if run["digest"] != first["digest"]:
            errors.setdefault(i, "result differs from the first run")
        for k, v in first["figures"].items():
            if run["figures"][k] != v:
                errors.setdefault(i, "%s drifted: %r, then %r"
                                  % (k, v, run["figures"][k]))
        w = words.setdefault(traced, run["words"])
        if run["words"] != w:
            errors.setdefault(i, "allocated words drifted: %r, then %r"
                              % (w, run["words"]))


def end_to_end(runs):
    plain = [r for _, traced, r in runs if not traced]
    first = plain[0]
    return {
        "phase_s": (median([at_ref_speed(r, "phase_s") for r in plain]), "s"),
        "setup_s": (median([at_ref_speed(r, "setup_s") for r in plain]), "s"),
        "modelled_s": (first["figures"]["modelled_ns"] / 1e9, "sim_s"),
        "alloc_words_per_item": (first["words"] / first["items"], "words"),
        "peak_rss_mb": (median([r["rss_mb"] for r in plain]), "MB"),
    }


def spans_total(run, name):
    return sum(s["end"] - s["start"] for s in run["spans"] if s["name"] == name)


def per_layer(runs, probes):
    plain = [r for _, traced, r in runs if not traced]
    traced = [r for _, t, r in runs if t]
    first = runs[0][2]
    f, layer, check = first["figures"], first["layer"], first["check"]
    m = {}

    def ratio(a, b):
        return a / b if b else 0.0

    wall_phase = median([r["phase_s"] for r in plain])
    phase_ns = wall_phase * 1e9
    m["sim.events"] = (f["sim.events"], "count")
    m["sim.ns_per_event"] = (phase_ns / f["sim.events"], "ns")
    for k in ("sim.idle_frac", "sim.comm_frac", "sim.local_frac"):
        m[k] = (layer[k], "ratio")
    m["msg.msgs"] = (f["msg.msgs"], "count")
    m["msg.bytes"] = (f["msg.bytes"], "bytes")
    for k in ("msg.retransmits", "msg.acks", "msg.dups_suppressed",
              "msg.fenced"):
        m[k] = (f[k], "count")
    m["msg.retransmit_frac"] = (ratio(f["msg.retransmits"], f["msg.msgs"]),
                                "ratio")
    for k, v in f.items():
        if k.startswith("core."):
            m[k] = (v, "count")
    reuse = f["core.align_hits"] + f["core.merge_hits"]
    m["core.reqs_per_msg"] = (ratio(f["core.requests"],
                                    f["core.request_msgs"]), "ratio")
    m["core.reuse_frac"] = (ratio(reuse, reuse + f["core.requests"]), "ratio")
    for k in ("bh.cell_visits", "bh.body_cell", "bh.body_body", "fmm.m2l",
              "fmm.m2m", "fmm.p2p"):
        m[k] = (check[k], "count")
    m["kernel.seq_s"] = (check["kernel.seq_s"], "s")
    m["kernel.sim_overhead_x"] = (wall_phase / check["kernel.seq_s"], "x")
    m["heap.objects"] = (f["heap.objects"], "count")
    m["heap.bytes"] = (f["heap.bytes"], "bytes")
    m["obs.emitted"] = (f["obs.emitted"], "count")
    m["obs.streamed"] = (f["obs.streamed"], "count")
    m["gc.minor_collections"] = (layer["gc.minor_collections"], "count")
    m["gc.major_collections"] = (layer["gc.major_collections"], "count")
    m["gc.promoted_words"] = (layer["gc.promoted_words"], "words")
    for k in ("setup.generate", "setup.tree", "setup.distribute",
              "setup.engine"):
        m[k + "_s"] = (median([spans_total(r, k) for r in traced]), "s")
    for k, v in probes.items():
        m[k] = (v, "ns" if k.endswith("_ns") else "words")

    def share(x):
        return x / phase_ns

    send = ("msg.send_reliable_ns" if f["msg.retransmits"] or f["msg.acks"]
            else "msg.send_ns")
    m["est.sim_share"] = (share(probes["sim.post_run_ns"] * f["sim.events"]),
                          "ratio")
    m["est.msg_share"] = (share(probes[send] * f["msg.msgs"]), "ratio")
    m["est.core_share"] = (share(
        probes["core.local_read_ns"] * f["core.inline_local"]
        + probes["core.align_hit_ns"] * reuse
        + probes["core.remote_miss_ns"] * f["core.requests"]
        + probes["core.accumulate_ns"] * f["core.updates"]), "ratio")
    m["est.kernel_share"] = (share(
        probes["bh.accel_ns"] * (check["bh.body_cell"] + check["bh.body_body"])
        + probes["fmm.m2l_ns"] * check["fmm.m2l"]
        + probes["fmm.m2m_ns"] * check["fmm.m2m"]), "ratio")
    m["est.obs_share"] = (share(
        probes["obs.instant_ns"] * f["obs.emitted"]
        + probes["obs.jsonl_ns"] * f["obs.streamed"]), "ratio")
    m["host.phase_wall_s"] = (wall_phase, "s")
    m["host.setup_wall_s"] = (median([r["setup_s"] for r in plain]), "s")
    m["host.calib_s"] = (median([r["cal_s"] for r in plain]), "s")
    # Tracing overhead: the traced runs' phase spans against the untraced
    # phase timer, both at reference speed.
    traced_phase = median([spans_total(r, "phase") * CAL_REF_S / r["cal_s"]
                           for r in traced])
    plain_phase = median([at_ref_speed(r, "phase_s") for r in plain])
    m["trace.phase_s"] = (traced_phase, "s")
    m["trace.overhead_s"] = (traced_phase - plain_phase, "s")
    return m


def write_spans(args, runs, probe_spans):
    path = os.path.join(OUT, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    with open(path, "w") as f:
        for i, _, run in runs:
            for s in run["spans"]:
                f.write(json.dumps(dict(s, run=i)) + "\n")
        for s in probe_spans:
            f.write(json.dumps(dict(s, run=0)) + "\n")


def deterministic(name, unit):
    """Figures that must repeat exactly across runs of one seed."""
    if name in ("modelled_s", "alloc_words_per_item"):
        return True
    return unit in ("count", "bytes") and not name.startswith("gc.")


def exe_digest():
    h = hashlib.sha256()
    with open(EXE, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def cross_invocation_drift(args, metrics):
    """Compare the deterministic figures with an earlier invocation of the
    same seed and executable; record them on first sight."""
    path = os.path.join(OUT, "determinism.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    key = "%s/%s/%d/%d" % (exe_digest(), args.workload, args.seed, args.trace)
    figures = {n: v for n, (v, unit) in metrics.items()
               if deterministic(n, unit)}
    before = seen.get(key)
    if before is None:
        seen[key] = figures
        with open(path + ".tmp", "w") as f:
            json.dump(seen, f, sort_keys=True)
        os.replace(path + ".tmp", path)
        return []
    return ["%s drifted across invocations: %r, then %r" % (n, before.get(n), v)
            for n, v in sorted(figures.items()) if before.get(n) != v]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    runs, errors, attempted = runs_of(args)
    verify(runs, errors, attempted)
    metrics = {}
    if not errors:
        if args.trace:
            out = program(["--probes", "--trace"])
            metrics = per_layer(runs, out["probes"])
            write_spans(args, runs, out["spans"])
        else:
            metrics = end_to_end(runs)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        want = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
        got = {n: unit for n, (_, unit) in metrics.items()}
        if got != want:
            die("metrics differ from BENCHMARK.json: %s"
                % sorted(set(got.items()) ^ set(want.items())))
        for e in cross_invocation_drift(args, metrics):
            errors.setdefault(0, e)
    for i, e in sorted(errors.items()):
        print("perfbench: run %d: %s" % (i, e), file=sys.stderr)
    # A drift across invocations taints every run of this one.
    failed = attempted if 0 in errors else len(errors)
    print("workload %s, seed %d, %s: %d runs, %d failed (fail_frac %.3f)"
          % (args.workload, args.seed,
             "per-layer" if args.trace else "end-to-end",
             attempted, failed, failed / attempted))
    for n, (v, unit) in metrics.items():
        print("  %-28s %18.6f %s" % (n, v, unit))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit}
                    for n, (v, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
