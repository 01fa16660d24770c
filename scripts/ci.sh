#!/usr/bin/env bash
# Tier-1 verification, as CI runs it: configure with warnings-as-errors,
# build everything (library, tests, benches, examples), run ctest and a
# seed sweep over the id-rule property tests, compile the end-to-end
# benchmark project and run each of its workloads for one second as a
# correctness smoke, then smoke-run bench_parallel at a tiny scale so the
# bench binary and its BENCH_parallel.json emitter cannot bitrot. A second
# build under ThreadSanitizer reruns the concurrency-labelled test subset (morsel
# scheduler, parallel lineage intern, incremental parallel delta apply,
# storage epoch fence, catalog lookups), and a third under AddressSanitizer
# + UBSan reruns the whole suite.
#
# Env knobs: TPSET_TSAN_ONLY=1 / TPSET_ASAN_ONLY=1 run just the TSan / ASan
# stage (the dedicated CI jobs); TPSET_SKIP_TSAN=1 / TPSET_SKIP_ASAN=1 skip
# it (the main job skips both and runs everything else).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-ci}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"
JOBS="$(nproc 2>/dev/null || echo 2)"

run_tsan() {
  # ThreadSanitizer over the concurrency subset: a data race in the
  # work-stealing deques, the parallel lineage intern, the incremental
  # engine's overlapped sweeps and interns, the catalog or the epoch fence
  # fails CI here, not in production.
  cmake -B "$TSAN_BUILD_DIR" -S . -DTPSET_TSAN=ON
  cmake --build "$TSAN_BUILD_DIR" -j "$JOBS"
  ctest --test-dir "$TSAN_BUILD_DIR" -L concurrency --output-on-failure -j "$JOBS"
  echo "tsan concurrency suite OK"
}

run_asan() {
  # AddressSanitizer + UndefinedBehaviorSanitizer over the full suite: an
  # out-of-bounds index (the lineage leaf table's VarId lookups included),
  # a use-after-free, a leak or any UB fails CI here.
  cmake -B "$ASAN_BUILD_DIR" -S . -DTPSET_ASAN=ON
  cmake --build "$ASAN_BUILD_DIR" -j "$JOBS"
  ctest --test-dir "$ASAN_BUILD_DIR" --output-on-failure -j "$JOBS"
  echo "asan+ubsan suite OK"
}

if [[ "${TPSET_TSAN_ONLY:-0}" == "1" ]]; then
  run_tsan
  exit 0
fi
if [[ "${TPSET_ASAN_ONLY:-0}" == "1" ]]; then
  run_asan
  exit 0
fi

cmake -B "$BUILD_DIR" -S . -DTPSET_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Seed sweep over the id-rule tests: the property tests that hold parallel
# ids, arena contents and intern counts to the sequential loop, and the
# fused andNot node to the formula it stands for, rerun once for each of 8
# fixed seeds (LAWA_TEST_SEED replaces a test's default seed list).
for seed in 101 202 303 404 505 606 707 808; do
  for test in concat_block_property_test lawa_block_property_test \
      skew_property_test query_property_test lineage_andnot_property_test; do
    if ! LAWA_TEST_SEED="$seed" "$BUILD_DIR/$test" \
        > "$BUILD_DIR/seed_sweep.out" 2>&1; then
      cat "$BUILD_DIR/seed_sweep.out"
      echo "seed sweep failed: $test at LAWA_TEST_SEED=$seed"
      exit 1
    fi
  done
done
echo "seed sweep OK"

# End-to-end benchmark compile check: e2ebench/ is its own CMake project
# that builds the library from src/ and drives it through the public
# executor API, so an API change that breaks it fails here (configure and
# build only; the benchmark itself runs through e2ebench/run.py).
cmake -S e2ebench -B "$BUILD_DIR/e2ebench"
cmake --build "$BUILD_DIR/e2ebench" -j "$JOBS"
echo "e2ebench build OK"

# End-to-end correctness smoke: one second of each workload. The binary
# checks every output (against ReferenceSetOp, t4 against t1 and the
# replay against Execute, lineage id for lineage id) and exits 1 on any
# failed check.
for workload in oneshot_uniform oneshot_skewed_t4 stream_mixed; do
  "$BUILD_DIR/e2ebench/e2e_bench" --workload "$workload" --seed 1 \
    --seconds 1 --trace 0 > "$BUILD_DIR/e2e_smoke_$workload.out"
done
echo "e2ebench correctness smoke OK"

# Bench smoke: ~2K tuples/relation, JSON into the build dir (the committed
# BENCH_parallel.json is produced by a full-scale manual run, not by CI).
TPSET_BENCH_SCALE=0.002 "$BUILD_DIR/bench/bench_parallel" \
  --json "$BUILD_DIR/BENCH_parallel.json" \
  --metrics "$BUILD_DIR/metrics.jsonl" > "$BUILD_DIR/bench_parallel.out"
test -s "$BUILD_DIR/BENCH_parallel.json"
grep -q '"operations"' "$BUILD_DIR/BENCH_parallel.json"
grep -q '"skew"' "$BUILD_DIR/BENCH_parallel.json"
grep -q '"host_cpus"' "$BUILD_DIR/BENCH_parallel.json"
grep -q '"obs"' "$BUILD_DIR/BENCH_parallel.json"
grep -q '"kernel_ab"' "$BUILD_DIR/BENCH_parallel.json"
echo "bench_parallel smoke OK"

# Bit-identity gate: every LAWA-P entry (uniform operations and skew
# shapes, every thread count) records whether its output equalled
# sequential LAWA's on a fresh context, tuple for tuple and lineage id for
# id. bench_parallel already exits non-zero on a divergence; this asserts
# that the emitted flags agree.
python3 - "$BUILD_DIR/BENCH_parallel.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
entries = [(f"{e.get('scenario', 'uniform')}/{e['operation']}/{t}", v)
           for e in doc["operations"] + doc["skew"]
           for t, v in e["lawa_p"].items()]
assert entries, "no LAWA-P entries"
bad = [name for name, v in entries if v.get("identical") is not True]
assert not bad, f"LAWA-P diverged from sequential LAWA on: {bad}"
print(f"bit-identity gate OK ({len(entries)} entries identical)")
EOF

# Kernel A/B gate: the columnar sweep must emit the identical window stream
# (bench_parallel already exits non-zero on divergence; "identical": true is
# the belt to that suspender) and must not regress the pure t1 sweep below
# scalar on the majority of operations. The 1.25x tolerance absorbs smoke-
# scale timer noise — the committed full-scale run is where the >= 1.3x
# speedup claim is checked by hand.
python3 - "$BUILD_DIR/BENCH_parallel.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
ab = doc["kernel_ab"]
assert len(ab) == 3, f"expected 3 kernel_ab operations, got {len(ab)}"
bad = [e["operation"] for e in ab if not e["identical"]]
assert not bad, f"columnar kernel diverged from scalar on: {bad}"
slow = [e["operation"] for e in ab
        if e["sweep_columnar_t1_ms"] > 1.25 * e["sweep_scalar_t1_ms"]]
assert len(slow) <= 1, (
    f"columnar t1 sweep regressed vs scalar on {slow} "
    f"(> 1.25x tolerance on more than one operation)")
print("kernel A/B gate OK")
EOF

# Metrics export validation: the registry scrape the bench just wrote must
# match the checked-in schema — every required metric present with the right
# type, counters non-negative, histogram bucket sums consistent. A malformed
# export (dropped instrumentation, renamed metric, broken emitter) fails the
# build here.
python3 scripts/validate_metrics.py "$BUILD_DIR/metrics.jsonl" \
  scripts/metrics_schema.json
echo "metrics export OK"

# Streaming smoke: tiny relations, verifies the incremental-vs-recompute
# sweep and its BENCH_streaming.json emitter still run end to end (the
# committed BENCH_streaming.json comes from a full-scale manual run).
TPSET_BENCH_SCALE=0.002 "$BUILD_DIR/bench/bench_streaming" \
  --json "$BUILD_DIR/BENCH_streaming.json" > "$BUILD_DIR/bench_streaming.out"
test -s "$BUILD_DIR/BENCH_streaming.json"
grep -q '"points"' "$BUILD_DIR/BENCH_streaming.json"
echo "bench_streaming smoke OK"

# Streaming bit-identity gate: every point records whether the t8
# continuous query's result (lineage ids included) and arena size equalled
# the t1 run's on the same seed. bench_streaming already exits non-zero on
# a divergence; this asserts that the emitted flags agree.
python3 - "$BUILD_DIR/BENCH_streaming.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
points = doc["points"]
assert points, "no streaming points"
bad = [f"n={p['n']}/delta={p['delta_rows']}" for p in points
       if p.get("identical") is not True]
assert not bad, f"t8 continuous query diverged from t1 on: {bad}"
print(f"streaming bit-identity gate OK ({len(points)} points identical)")
EOF

# Flight-record smoke: drive a continuous workload through the REPL (which
# starts the obs::Recorder collector), hold the session open long enough for
# a few collector ticks, dump the flight record, and validate it against the
# checked-in schema. A malformed dump (broken seqlock read, bad JSON
# formatter, dropped field) fails the build here — the same validator is the
# oracle for the crash-handler test in tests/recorder_test.cc.
{
  printf '\\watch w1 c - (a | b)\n'
  printf '\\append a milk 12 14 0.5\n'
  printf '\\append b beer 1 9 0.25\n'
  printf '\\append a milk 2 6 0.75\n'
  sleep 1
  printf '\\dump %s/flight_record.json\n' "$BUILD_DIR"
  printf '\\quit\n'
} | "$BUILD_DIR/examples/query_repl" > "$BUILD_DIR/repl_smoke.out"
python3 scripts/validate_flight_record.py "$BUILD_DIR/flight_record.json" \
  scripts/flight_record_schema.json
echo "flight record smoke OK"

# Crash-dump validation: the recorder test's forked child writes its flight
# record from the SIGSEGV handler into TEST_TMPDIR, and that file must pass
# the same schema. It is the only dump of the three that is written on the
# signal path and the only one that holds a slow exemplar. Keep the
# trailing slash: gtest 1.11's TempDir() returns TEST_TMPDIR as given, and
# the test appends the file name to it.
CRASH_DIR="$BUILD_DIR/crash_dump"
mkdir -p "$CRASH_DIR"
rm -f "$CRASH_DIR/recorder_crash_dump.json"
TEST_TMPDIR="$CRASH_DIR/" "$BUILD_DIR/recorder_test" \
  --gtest_filter=RecorderCrashTest.ForkedChildSignalDumpIsWellFormed \
  > "$BUILD_DIR/crash_dump.out"
python3 scripts/validate_flight_record.py \
  "$CRASH_DIR/recorder_crash_dump.json" scripts/flight_record_schema.json
echo "crash dump validation OK"

# Introspection-server smoke: start the REPL with --serve=0 (ephemeral port)
# over a live parallel workload — 128-tuple CSV relations at two threads so
# the morsel scheduler registers its metric family — then scrape
# every contract from outside the process: /healthz, /metrics (Prometheus and
# JSON, the latter against metrics_schema.json), /flight against the
# flight-record schema, and /queries for continuous-query state. The wire
# and the in-process exporters must agree because they share one snapshot
# path (obs::TakeScrape).
python3 - "$BUILD_DIR" <<'EOF'
import sys
build = sys.argv[1]
for rel in ("a", "b", "c"):
    with open(f"{build}/serve_{rel}.csv", "w") as f:
        f.write("Product:str,ts,te,p,var\n")
        for i in range(128):
            f.write(f"p{i % 16},{i},{i + 7},0.5,{rel}x{i}\n")
EOF
SERVE_FIFO="$BUILD_DIR/serve_smoke.fifo"
rm -f "$SERVE_FIFO"; mkfifo "$SERVE_FIFO"
"$BUILD_DIR/examples/query_repl" --threads=2 --serve=0 \
  a="$BUILD_DIR/serve_a.csv" b="$BUILD_DIR/serve_b.csv" \
  c="$BUILD_DIR/serve_c.csv" \
  < "$SERVE_FIFO" > "$BUILD_DIR/serve_smoke.out" 2>&1 &
SERVE_PID=$!
exec 9> "$SERVE_FIFO"  # hold the fifo open so the REPL's stdin stays live
printf '\\watch w1 c - (a | b)\n' >&9
printf 'c - (a | b)\n' >&9
printf '\\append a milk 200 204 0.5\n' >&9
for _ in $(seq 1 100); do
  grep -q 'serving on http://' "$BUILD_DIR/serve_smoke.out" && break
  sleep 0.1
done
SERVE_ADDR="$(grep -o 'http://[0-9.]*:[0-9]*' "$BUILD_DIR/serve_smoke.out" \
  | head -1 | sed 's#http://##')"
test -n "$SERVE_ADDR"
sleep 1  # a few collector ticks so /flight and /top carry ring history
# Body checks read the whole body (grep > /dev/null, not grep -q): a grep
# that exits at its first match can close the pipe while curl is still
# writing a multi-chunk body, and under pipefail that curl's write error
# (exit 23) would fail the stage although the check passed.
curl -fsS "http://$SERVE_ADDR/healthz" | grep 'ok' > /dev/null
curl -fsS "http://$SERVE_ADDR/readyz" | grep 'ready' > /dev/null
curl -fsS "http://$SERVE_ADDR/metrics" \
  | grep '^tpset_net_http_requests_total ' > /dev/null
curl -fsS "http://$SERVE_ADDR/metrics" \
  | grep '^tpset_lineage_nodes ' > /dev/null
curl -fsS "http://$SERVE_ADDR/metrics" \
  | grep '^tpset_lineage_node_bytes ' > /dev/null
curl -fsS "http://$SERVE_ADDR/metrics" \
  | grep '^tpset_lineage_concat_usec_count ' > /dev/null
curl -fsS "http://$SERVE_ADDR/metrics?format=json" \
  > "$BUILD_DIR/serve_metrics.jsonl"
python3 scripts/validate_metrics.py "$BUILD_DIR/serve_metrics.jsonl" \
  scripts/metrics_schema.json
curl -fsS "http://$SERVE_ADDR/flight" > "$BUILD_DIR/serve_flight.json"
python3 scripts/validate_flight_record.py "$BUILD_DIR/serve_flight.json" \
  scripts/flight_record_schema.json
curl -fsS "http://$SERVE_ADDR/queries" | grep '"name":"w1"' > /dev/null
printf '\\quit\n' >&9
exec 9>&-
wait "$SERVE_PID"
rm -f "$SERVE_FIFO"
echo "introspection server smoke OK"

# Storage smoke: run-index append path vs MergeSortedAppend, compaction and
# the retention-bounds-resident-state sweep, plus the BENCH_storage.json
# emitter (the committed BENCH_storage.json comes from a full-scale run).
TPSET_BENCH_SCALE=0.002 "$BUILD_DIR/bench/bench_storage" \
  --json "$BUILD_DIR/BENCH_storage.json" > "$BUILD_DIR/bench_storage.out"
test -s "$BUILD_DIR/BENCH_storage.json"
grep -q '"append"' "$BUILD_DIR/BENCH_storage.json"
grep -q '"retention"' "$BUILD_DIR/BENCH_storage.json"
grep -q '"mixed"' "$BUILD_DIR/BENCH_storage.json"

# Snapshot-isolation gate: with a writer and background compaction active,
# the lock-free snapshot reader's p99 full-scan latency must not regress
# against the locked-View emulation (the pre-snapshot reader-blocks-writer
# engine). The 1.5x tolerance absorbs smoke-scale timer noise; the committed
# full-scale BENCH_storage.json is where the <= 1x claim is checked by hand.
python3 - "$BUILD_DIR/BENCH_storage.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
mixed = doc["mixed"]
snap, locked = mixed["snapshot"], mixed["locked"]
assert snap["reads"] > 0 and locked["reads"] > 0, \
    f"mixed bench sampled no reads: {mixed}"
assert snap["reader_p99_ms"] <= 1.5 * locked["reader_p99_ms"] + 0.005, (
    f"snapshot reader p99 {snap['reader_p99_ms']}ms regressed vs locked-View "
    f"baseline {locked['reader_p99_ms']}ms (> 1.5x + 5us smoke tolerance)")
print("snapshot mixed read/write gate OK")
EOF
echo "bench_storage smoke OK"

if [[ "${TPSET_SKIP_TSAN:-0}" != "1" ]]; then
  run_tsan
fi
if [[ "${TPSET_SKIP_ASAN:-0}" != "1" ]]; then
  run_asan
fi
