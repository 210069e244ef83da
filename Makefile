# Convenience targets; the project itself is plain dune.

BENCH := bin/dpa_bench.exe

.PHONY: all build test fmt fmt-check smoke obs-smoke chaos-smoke adaptive-smoke critpath-smoke integrity-smoke a15-run optimality-smoke route-crash-smoke scale-smoke bench-obs-overhead bench-check clean

all: build

build:
	dune build

test:
	dune runtest

# ocamlformat is not pinned in this environment, so formatting is enabled
# for dune files only (see dune-project); these targets keep those clean.
fmt:
	dune fmt

# Also gates the API docs: every .mli must render through odoc without
# warnings (broken references, ambiguous doc comments).
fmt-check:
	dune build @fmt
	dune build @doc 2>&1 | tee /tmp/dpa_doc.log
	@! grep -qi warning /tmp/dpa_doc.log && echo "fmt-check: docs build warning-free"

# End-to-end observability smoke test: run a small experiment with the
# trace/metrics exporters on and make sure the artifacts appear and are
# non-trivial. The test suite validates the JSON itself (test/test_obs.ml).
smoke: build obs-smoke chaos-smoke adaptive-smoke critpath-smoke integrity-smoke optimality-smoke route-crash-smoke scale-smoke
	dune exec $(BENCH) -- f1 --scale small \
	  --trace /tmp/dpa_trace.json --metrics /tmp/dpa_metrics.json --profile
	@test -s /tmp/dpa_trace.json && test -s /tmp/dpa_metrics.json \
	  && echo "smoke: trace + metrics written"

# Streaming-observability smoke test: a small BH workload with --events
# streaming through a deliberately tiny ring (512 entries). The streamed
# file must hold far more events than the ring with none reported dropped
# (the writer captures each event at emission; the ring is only the
# in-memory flight recorder), every JSONL line must parse and stay
# time-ordered, and the per-node skew table must sum back to the global
# per-phase row — all validated by bin/obs_check.
obs-smoke: build
	dune exec $(BENCH) -- f1 --scale small --bodies 512 --ring 512 \
	  --events /tmp/dpa_events.jsonl --profile | tee /tmp/dpa_obs.txt
	@grep -q "wrote event log" /tmp/dpa_obs.txt \
	  && ! grep -q "overwritten in the ring" /tmp/dpa_obs.txt \
	  || { echo "obs-smoke: events dropped or log missing"; exit 1; }
	dune exec bin/obs_check.exe -- --min-lines 513 \
	  /tmp/dpa_events.jsonl /tmp/dpa_obs.txt
	@echo "obs-smoke: streamed events exceed the ring with zero drops; skew table consistent"

# Chaos smoke test: the a11 sweep and the a13 crash matrix at reduced
# scale with a fixed fault seed. Every row (including 10% drop, the heavy
# preset, and the crash-restart schedules) must report results
# bit-identical to the fault-free reference; any divergence prints
# DIVERGED and fails the target. The a13 summary line must also show that
# crash-restarts actually executed.
chaos-smoke: build
	dune exec $(BENCH) -- a11 --scale small --bodies 512 | tee /tmp/dpa_chaos.txt
	@! grep -q DIVERGED /tmp/dpa_chaos.txt \
	  && grep -cq bit-identical /tmp/dpa_chaos.txt \
	  && echo "chaos-smoke: forces bit-identical under all fault plans"
	dune exec $(BENCH) -- a13 --scale small --bodies 512 | tee /tmp/dpa_crash.txt
	@! grep -q DIVERGED /tmp/dpa_crash.txt \
	  && grep -q "a13 summary" /tmp/dpa_crash.txt \
	  && ! grep -q "a13 summary: 0 crash-restarts" /tmp/dpa_crash.txt \
	  && grep -q "0 schedule(s) diverged" /tmp/dpa_crash.txt \
	  && echo "chaos-smoke: crash-restart schedules reproduce fault-free results bit for bit"

# Adaptive-control smoke test: the a12 sweep at reduced scale. Both RTO
# rows must report forces bit-identical to the fault-free reference, and
# the adaptive strip controller must actually run (the auto row exists).
adaptive-smoke: build
	dune exec $(BENCH) -- a12 --scale small --bodies 512 | tee /tmp/dpa_adaptive.txt
	@! grep -q DIVERGED /tmp/dpa_adaptive.txt \
	  && grep -cq bit-identical /tmp/dpa_adaptive.txt \
	  && grep -q "^auto" /tmp/dpa_adaptive.txt \
	  && echo "adaptive-smoke: auto strip ran; forces bit-identical under both RTO policies"

# Causal-tracing smoke test: the BH sweep under the heavy fault preset
# plus two crash windows, with --critical-path on, so every decomposition
# bucket (retransmit and refetch included) can appear. obs_check then
# validates the full chain: each causal parent arg in the event stream
# resolves to an emitted span_id no later than its child, the report's
# segments sum exactly to the path length, 0 <= max span <= path <= phase
# wall, and actual bytes >= the communication lower bound in both the
# report and the profile's optimality table. No --trace-cats/--spans-only
# here: filters may drop the instants that define flight ids (see
# docs/OBSERVABILITY.md).
critpath-smoke: build
	dune exec $(BENCH) -- t2 --scale small --bodies 512 \
	  --faults heavy,crashes=2 --critical-path /tmp/dpa_critpath.json \
	  --events /tmp/dpa_cp_events.jsonl --profile | tee /tmp/dpa_cp.txt
	@grep -q "wrote critical-path report" /tmp/dpa_cp.txt \
	  || { echo "critpath-smoke: report missing"; exit 1; }
	dune exec bin/obs_check.exe -- --min-lines 1000 \
	  --critpath /tmp/dpa_critpath.json \
	  /tmp/dpa_cp_events.jsonl /tmp/dpa_cp.txt
	@echo "critpath-smoke: causal edges resolve; path decomposition exact; comm ratio >= 1"

# End-to-end integrity smoke test: the a14 matrix at reduced scale. Wire
# corruption must actually fire (nonzero corruptions dropped) and torn
# WAL tails must actually be cut and recovered, with every schedule
# still bit-identical to the fault-free reference. Then a BH run under
# the full fault cocktail streams its events so obs_check can validate
# the per-phase integrity tables (per-node rows summing to the "=" line,
# no negative counters) alongside the usual stream invariants.
integrity-smoke: build
	dune exec $(BENCH) -- a14 --scale small --bodies 512 | tee /tmp/dpa_integrity.txt
	@! grep -q DIVERGED /tmp/dpa_integrity.txt \
	  && grep -q "a14 summary" /tmp/dpa_integrity.txt \
	  && ! grep -q "a14 summary: 0 corruptions" /tmp/dpa_integrity.txt \
	  && ! grep -q "0 wal records truncated" /tmp/dpa_integrity.txt \
	  && grep -q "0 schedule(s) diverged" /tmp/dpa_integrity.txt \
	  && echo "integrity-smoke: corruption fenced and torn tails recovered bit for bit"
	dune exec $(BENCH) -- t2 --scale small --bodies 512 \
	  --faults heavy,crashes=2,corrupt=0.05,torn-wal=1 \
	  --events /tmp/dpa_integ_events.jsonl --profile | tee /tmp/dpa_integ.txt
	dune exec bin/obs_check.exe -- --min-lines 1000 \
	  /tmp/dpa_integ_events.jsonl /tmp/dpa_integ.txt
	@grep -q "Per-phase integrity" /tmp/dpa_integ.txt \
	  && echo "integrity-smoke: integrity tables consistent across nodes"

# The a15 matrix at reduced scale, run once; optimality-smoke and
# route-crash-smoke both check this one output.
a15-run: build
	dune exec $(BENCH) -- a15 --scale small --bodies 512 | tee /tmp/dpa_a15.txt

# Communication-optimality smoke test: the a15 matrix at reduced scale.
# Tree-routed aggregation and Morton repartitioning must both strictly
# lower the measured-volume / optimality-bound ratio of their workload
# (improved=yes in the summary line), with every cell — including the
# fault schedules — bit-identical to the flat/static reference.
optimality-smoke: a15-run
	@! grep -q DIVERGED /tmp/dpa_a15.txt \
	  && grep -q "a15 summary" /tmp/dpa_a15.txt \
	  && grep -q "improved=yes" /tmp/dpa_a15.txt \
	  && grep -q "0 cell(s) diverged" /tmp/dpa_a15.txt \
	  && echo "optimality-smoke: routed + repartitioned ratios strictly improved, results bit-identical"

# Route-crash smoke test: the routed fan-in cells of the a15 matrix under
# crash-restart schedules. The origin-anchored end-to-end ack must keep
# every crashed routed cell bit-identical to the flat fault-free
# reference (zero divergence), and the custody machinery must actually
# fire: the summary's route-crash re-issue count has to be non-zero, or
# the crash windows never hit a batch in flight.
route-crash-smoke: a15-run
	@! grep -q DIVERGED /tmp/dpa_a15.txt \
	  && grep -q "0 cell(s) diverged" /tmp/dpa_a15.txt \
	  && grep -Eq " [1-9][0-9]* route-crash re-issue" /tmp/dpa_a15.txt \
	  && echo "route-crash-smoke: routed crash cells bit-identical with live origin re-issues"

# Flat-heap scale smoke test: the a16 sweep at reduced scale. The
# allocation gate must pass (every boxed-baseline config re-run on the
# flat heap clears the committed words-per-body-step reduction
# threshold), and bin/scale_check must accept the JSON artifact — field
# presence, reduction-factor arithmetic, non-negative counters — and
# then re-measure the strip hot path directly, failing if a phase of
# local reads allocates beyond the per-poll-quantum simulator residue
# (docs/PERFORMANCE.md). The committed BENCH_scale.json is the same
# artifact produced by `a16 --scale full`.
scale-smoke: build
	dune exec $(BENCH) -- a16 --scale small --json /tmp/dpa_scale.json \
	  | tee /tmp/dpa_scale.txt
	@grep -q "a16 summary: gate=ok" /tmp/dpa_scale.txt \
	  && echo "scale-smoke: allocation gate passed on all boxed-baseline configs"
	dune exec bin/scale_check.exe -- /tmp/dpa_scale.json
	@echo "scale-smoke: artifact valid; strip hot path allocation-free"

# Observability-overhead benchmark: wall-clock time of t2 and f1 with
# observability off, with event streaming only, and with causal tracing +
# critical-path analysis on top. Writes BENCH_obs_overhead.json (the
# committed copy documents the overhead on the reference machine).
bench-obs-overhead: build
	dune exec bin/bench_obs_overhead.exe -- BENCH_obs_overhead.json

# Benchmark health: every perfbench workload at seeds 1 and 101. A timed
# run fails when it raises, misses its reference or does not repeat the
# first run's result digest and deterministic figures (allocated words
# included) exactly; the target fails on any such run, on an incorrect
# result, or when run.py aborts without a result line.
bench-check:
	@for w in bh fmm upward_chaos bh_observed; do \
	  for s in 1 101; do \
	    python3 perfbench/run.py --workload $$w --seed $$s --seconds 10 \
	      --trace 0 | tee /tmp/dpa_bench_check.txt; \
	    tail -n 1 /tmp/dpa_bench_check.txt | python3 -c 'import json, sys; \
	      r = json.load(sys.stdin); sys.exit(not (r["correct"] and r["failed"] == 0))' \
	      || { echo "bench-check: $$w seed $$s failed"; exit 1; }; \
	  done; \
	done; \
	echo "bench-check: every workload correct, no failed runs, seeds 1 and 101"

clean:
	dune clean
