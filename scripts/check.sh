#!/usr/bin/env bash
# Full verification: configure, build, run the test suite and the
# rfidbench smoke test, re-run the
# guardrail/fault-injection/vectorized/WAL/fragment-cache suites under
# ASan+UBSan and the ingest/parallel/WAL-replay/server/fragment-cache
# concurrency suites under TSan
# (batching stays ON in both sanitizer passes), smoke every example plus
# a live server round (concurrent remote shells, fragment-cache hits
# over the wire, SIGTERM mid-query,
# WAL recovery of the fed rows), run a
# vectorized-vs-interpreted fingerprint sweep over the naive/expanded/
# join-back pipelines, run a randomized crash-recovery loop (N seeds of
# random fault firing across WAL/checkpoint I/O), and run the benchmark
# harnesses, which drop their BENCH_<harness>.json results at the repo
# root (RFID_BENCH_PALLETS scales the data; default 40).
#
# Usage: check.sh [--quick]
#   --quick   build + tests + fingerprint sweep + benchmarks only (skips
#             the sanitizer rebuilds); still refreshes BENCH_*.json.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
  [ "$arg" = "--quick" ] && QUICK=1
done

# Every run below executes with the static verification layer on (hard
# mode): the plan invariant checker fires after each planner phase, the
# bytecode verifier gates every compiled expression program, and the
# rewriter holds every candidate to the original projection schema.
export RFID_VERIFY_PLANS=1

# -Werror promotes the -Wall/-Wextra/-Wconversion set to errors; the
# main build compiles every target, so it is the warning gate for the
# whole tree. Compile commands are exported for the clang-tidy pass.
cmake -B build -G Ninja -DRFID_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build build
ctest --test-dir build --output-on-failure

# Benchmark smoke: rfidbench is its own CMake project (it pulls this
# tree in as a subdirectory), so configure it into its own build
# directory and run its short end-to-end test — every workload, the
# in-process server ones included, checked against the naive rewrite.
# rfidbench refuses to run with any RFID_* variable set (engine toggles
# would make its numbers incomparable), so drop the verifier switch.
cmake -S bench/rfidbench -B build-bench -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench --target rfidbench
env -u RFID_VERIFY_PLANS \
  ctest --test-dir build-bench -R rfidbench_smoke --output-on-failure

# Concurrency-primitive lint: src/ must go through the annotated
# wrappers in common/sync.h (the carriers of thread-safety annotations
# and lock ranks); any raw std::mutex/lock_guard fails the script.
./scripts/lint_sync.sh

# Clang Thread Safety Analysis: recompile the tree under clang with
# -Wthread-safety promoted to an error, proving every GUARDED_BY /
# REQUIRES contract in src/ holds at compile time. Skipped with a notice
# when no clang++ is installed (the annotations are no-ops under gcc);
# the lint gate above still guarantees new code lands on the annotated
# wrappers, so the analysis is complete whenever it does run.
if command -v clang++ > /dev/null 2>&1; then
  cmake -B build-tsa -G Ninja -DCMAKE_CXX_COMPILER=clang++ \
    -DRFID_WERROR=ON -DRFID_THREAD_SAFETY=ON \
    -DCMAKE_CXX_FLAGS="-Werror=thread-safety"
  cmake --build build-tsa
else
  echo "check.sh: clang++ not found; skipping the thread-safety analysis pass"
fi

# Static lint: clang-tidy over the library sources (config in
# .clang-tidy). Skipped with a notice on toolchains without clang-tidy;
# the -Werror gate above still enforces the compiler warning set.
if command -v clang-tidy > /dev/null 2>&1; then
  if command -v run-clang-tidy > /dev/null 2>&1; then
    run-clang-tidy -p build -quiet "$(pwd)/src/.*"
  else
    find src -name '*.cc' -print0 | xargs -0 -n 8 clang-tidy -p build --quiet
  fi
else
  echo "check.sh: clang-tidy not found; skipping the lint pass"
fi

# Vectorized-vs-interpreted fingerprint sweep: batch plans must be
# bit-identical to the row interpreter across all three cleansing rewrite
# strategies, at several batch sizes, serial and parallel.
./build/tests/vectorized_exec_test \
  --gtest_filter='VectorizedExecTest.AllRewriteStrategiesBitIdentical:VectorizedExecTest.ComposesWithMorselParallelism'

# Columnar encode/decode fuzz smoke: randomized segments across every
# column type (nulls, NaN, -0.0, empty/distinct strings) must round-trip
# bit-identically, and encoded-predicate evaluation must agree with the
# interpreter for all six comparison operators at every SIMD level.
./build/tests/columnar_test \
  --gtest_filter='ColumnarTest.RoundTripRandomized:ColumnarTest.RoundTripAdversarialProfiles:ColumnarTest.SerializationRoundTripAndCorruptInput:ColumnarTest.EncodedPredicatesMatchInterpreterAllOps'

# Crash-recovery loop: several randomized crash-point schedules on top
# of the exhaustive every-step sweep that already runs in ctest. Each
# seed drives SeededRandom fault firing across all WAL append /
# checkpoint / manifest-swap I/O steps; recovery must always land on a
# committed epoch boundary with bit-identical query results.
for seed in 1 2 3 4 5; do
  RFID_CRASH_SEED="$seed" ./build/tests/wal_recovery_test \
    --gtest_filter='CrashSweepTest.RandomizedCrashPoints'
done

if [ "$QUICK" -eq 0 ]; then
  # Sanitizer pass: the fault-injection sweeps fail at every injection
  # point; ASan+UBSan turns any leak or UB on those unwind paths into a
  # hard failure. Batching is ON by default, so the batch pipelines'
  # unwind paths and the bytecode kernels are swept too. parallel_exec_test
  # leak-checks the unwind of a guardrail-tripped morsel-parallel scan.
  cmake -B build-asan -G Ninja -DRFID_SANITIZE=ON
  cmake --build build-asan --target fault_injection_test guardrails_test \
    exec_test common_test ingest_fault_test expr_golden_test \
    vectorized_exec_test verify_test wal_test wal_recovery_test \
    fragment_cache_test server_test columnar_test sync_test \
    parallel_exec_test
  ./build-asan/tests/sync_test
  ./build-asan/tests/verify_test
  ./build-asan/tests/columnar_test
  ./build-asan/tests/fault_injection_test
  ./build-asan/tests/guardrails_test
  ./build-asan/tests/exec_test
  ./build-asan/tests/common_test
  ./build-asan/tests/ingest_fault_test
  ./build-asan/tests/expr_golden_test
  ./build-asan/tests/vectorized_exec_test
  ./build-asan/tests/wal_test
  ./build-asan/tests/wal_recovery_test
  ./build-asan/tests/fragment_cache_test
  ./build-asan/tests/server_test
  ./build-asan/tests/parallel_exec_test

  # UBSan-alone pass (-fno-sanitize-recover=all, no ASan interposition):
  # any undefined behavior in the planner, rewriter, bytecode kernels, or
  # the verifiers themselves — including the hand-corrupted plans and the
  # bytecode mutation sweep of verify_test, which feed the verifiers
  # deliberately hostile inputs — aborts the test.
  cmake -B build-ubsan -G Ninja -DRFID_SANITIZE=undefined
  cmake --build build-ubsan --target verify_test planner_test \
    expr_golden_test rewrite_property_test fault_injection_test \
    columnar_test sync_test
  ./build-ubsan/tests/sync_test
  ./build-ubsan/tests/columnar_test
  ./build-ubsan/tests/verify_test
  ./build-ubsan/tests/planner_test
  ./build-ubsan/tests/expr_golden_test
  ./build-ubsan/tests/rewrite_property_test
  ./build-ubsan/tests/fault_injection_test

  # TSan pass: queries pin epoch snapshots while an IngestDriver publishes
  # new ones, and the morsel-driven parallel scan fans work out to pool
  # threads (including while that writer runs); ThreadSanitizer proves the
  # publish/pin protocol and the parallel pipeline's atomics are proper
  # happens-before edges, not benign-looking races. vectorized_exec_test
  # runs batch pipelines under parallel workers (batching ON), and
  # wal_recovery_test runs live snapshot queries against a database
  # that WAL replay is still mutating.
  # The server suites run under TSan too: N client threads against the
  # per-connection threads, admission queue, shared plan cache, and the
  # shutdown drain — every cross-thread edge the server adds.
  # fragment_concurrency_test hammers the shared fragment cache from
  # query threads (Lookup/Insert) while a live IngestDriver invalidates
  # touched regions, proving the watermark protocol race-free.
  # Sanitizer builds also compile with the lock-rank checker active
  # (RFID_SYNC_CHECK=AUTO turns it on when RFID_SANITIZE != OFF), so
  # every suite below doubles as a deadlock-ordering test.
  cmake -B build-tsan -G Ninja -DRFID_SANITIZE=thread
  cmake --build build-tsan --target ingest_concurrency_test ingest_test \
    parallel_exec_test parallel_concurrency_test vectorized_exec_test \
    wal_recovery_test fragment_cache_test fragment_concurrency_test \
    server_test server_concurrency_test columnar_test sync_test
  # sync_test under TSan: the rank checker's thread_local bookkeeping and
  # the CondVar adopt/release bridge must themselves be race-free.
  # (Death tests are skipped under TSan — fork is unsupported there.)
  ./build-tsan/tests/sync_test --gtest_filter='-SyncDeathTest.*'
  # Encoded-segment publication (ingest's EncodeColdSegments) races scan
  # probes and the live-ingest on/off comparison; TSan proves the
  # directory mutex + shared_ptr pinning are real happens-before edges.
  ./build-tsan/tests/columnar_test
  ./build-tsan/tests/ingest_concurrency_test
  ./build-tsan/tests/ingest_test
  ./build-tsan/tests/parallel_exec_test
  ./build-tsan/tests/parallel_concurrency_test
  ./build-tsan/tests/vectorized_exec_test
  ./build-tsan/tests/wal_recovery_test
  ./build-tsan/tests/fragment_cache_test
  ./build-tsan/tests/fragment_concurrency_test
  ./build-tsan/tests/server_test
  ./build-tsan/tests/server_concurrency_test

  ./build/examples/quickstart > /dev/null
  ./build/examples/dwell_analysis 8 0.1 > /dev/null
  ./build/examples/site_audit 8 0.1 dc1 > /dev/null
  ./build/examples/epedigree 6 0.3 > /dev/null
  ./build/examples/multi_policy > /dev/null
  printf '.gen 3 10\nSELECT count(*) FROM caseR;\n.quit\n' | ./build/examples/rfidsql > /dev/null
  printf '.feed 5 100\nSELECT count(*) FROM caseR;\n.quit\n' | ./build/examples/rfidsql > /dev/null
  # Durability round trip: feed with a WAL attached, checkpoint, feed
  # more, then recover into a fresh shell and query the replayed state.
  WALDIR="$(mktemp -d)"
  printf '.wal %s epoch\n.feed 3 100\n.checkpoint\n.feed 2 100\n.quit\n' "$WALDIR" \
    | ./build/examples/rfidsql > /dev/null
  printf '.recover %s\nSELECT count(*) FROM caseR;\n.quit\n' "$WALDIR" \
    | ./build/examples/rfidsql > /dev/null
  rm -rf "$WALDIR"

  # Server smoke: serve, drive two concurrent remote shells (one attaches
  # a WAL and feeds, one defines rules and queries), then SIGTERM the
  # server while a third client is mid-query. The drain must exit 0
  # (final WAL checkpoint flushed) and a fresh embedded shell must
  # recover the fed rows.
  SRVDIR="$(mktemp -d)"
  ./build/examples/rfidsql --serve 127.0.0.1:20061 > "$SRVDIR/server.log" 2>&1 &
  SRVPID=$!
  for _ in $(seq 1 100); do
    grep -q "serving on" "$SRVDIR/server.log" && break
    sleep 0.1
  done
  printf '.wal %s epoch\n.feed 4 200\n.quit\n' "$SRVDIR/wal" \
    | ./build/examples/rfidsql --connect 127.0.0.1:20061 > "$SRVDIR/seed.log"
  printf '.rule DEFINE duplicate ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 5 MINUTES ACTION DELETE B\nSELECT count(*) FROM caseR;\nSELECT count(*) FROM caseR;\n.cache stats\n.quit\n' \
    | ./build/examples/rfidsql --connect 127.0.0.1:20061 > "$SRVDIR/c1.log" &
  C1=$!
  printf 'SELECT count(*) FROM caseR;\n.quit\n' \
    | ./build/examples/rfidsql --connect 127.0.0.1:20061 > "$SRVDIR/c2.log"
  wait "$C1"
  grep -q "rows)" "$SRVDIR/c1.log"
  grep -q "rows)" "$SRVDIR/c2.log"
  # Fragment-cache smoke: the repeated cleansed query above must have
  # reused a memoized fragment — .cache stats reports non-zero hits.
  grep -Eq 'fragment cache: on, [0-9]+ entries, [1-9][0-9]* hits' "$SRVDIR/c1.log"
  # Kill mid-query: .debug_hold parks an admission ticket server-side so
  # the SIGTERM lands while this client's work is in flight; the client
  # is expected to die with "server shutting down" or a closed socket.
  printf '.debug_hold 5000\n.quit\n' \
    | ./build/examples/rfidsql --connect 127.0.0.1:20061 > /dev/null 2>&1 &
  C3=$!
  sleep 0.5
  kill -TERM "$SRVPID"
  wait "$SRVPID"                     # set -e: non-zero drain fails here
  wait "$C3" || true
  printf '.recover %s\nSELECT count(*) FROM caseR;\n.quit\n' "$SRVDIR/wal" \
    | ./build/examples/rfidsql | grep -q "recovered"
  rm -rf "$SRVDIR"
fi

# DOP-sweep smoke: verifies parallel plans stay bit-identical to serial
# at DOP 1/2/4/8 (full sweep with repetitions is a manual run).
./build/bench/bench_parallel_scaling --quick

# Benchmark harnesses; each writes BENCH_<harness>.json into the repo
# root (we cd'd there above) for PR-over-PR trajectory tracking.
for b in build/bench/bench_*; do
  [ "$(basename "$b")" = bench_parallel_scaling ] && continue
  "$b"
done

# Columnar on/off pairs for the scan-bound harnesses: the off runs land
# in BENCH_<harness>_columnar_off.json so the encoded-kernel speedup is
# a committed, diffable artifact next to the on-path numbers above.
for b in bench_fig7_scan bench_fig7_selectivity bench_fig9_dirty; do
  RFID_COLUMNAR=0 "build/bench/$b"
done
