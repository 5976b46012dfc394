#!/usr/bin/env bash
# CI entry point: a lint pinning all environment access to util/env, then
# the standard RelWithDebInfo build + full ctest, a
# fault-injection job exercising the keep-going/quarantine path end to end,
# the solver microbenchmark (cache off, so every counter in the log is a
# fresh measurement — docs/SOLVER.md), a determinism gate holding every
# figure's CSV (microbench apart) byte-identical at 1 and 4 threads, a
# cell-zoo job qualifying every registered cell spec through signoff and
# the corner-sweep bench (docs/CELLZOO.md), short traced perfbench runs
# of all three benchmark workloads checked for correctness, counter
# repeatability and predicted zeros (perfbench/README.md), an
# ASan+UBSan build running the
# linear-kernel suites (the sparse LU's pointer-chasing DFS and in-place
# pivoting are exactly the code sanitizers exist for) plus the netlist
# parser suite, the runner suite (journal and BENCH emission build JSON
# strings), the dense-LU/value-only-C-V oracles, the C-V memo hazards, the
# compiled-assembly oracle, the folded-source and AMD dense-node oracles
# and the non-finite lookup/Newton cases
# (float-cast-overflow added to UBSan),
# then a
# ThreadSanitizer build running the concurrent subsystem's tests
# (the task-graph scheduler, thread pool, result cache, the Monte-Carlo
# engine and yield estimator that fan draws out through the shared pool,
# and the fault-injection suite, whose retry/censor/quarantine paths race
# by construction).
#
# The mixed-vs-flat differential lane (docs/HIERARCHY.md) rides both
# sanitizer jobs: the ASan+UBSan build runs the `diff`-labelled harnesses
# (sparse-vs-dense kernel parity AND mixed-vs-flat engine parity), and the
# TSan build runs the hier unit suite, whose counter contracts flow through
# the SolverStats sink of each array's context, which the context tests
# race on.
#
# Usage: ./ci.sh [--skip-tsan] [--skip-asan]
set -euo pipefail
cd "$(dirname "$0")"

SKIP_TSAN=0
SKIP_ASAN=0
for arg in "$@"; do
  [[ "$arg" == "--skip-tsan" ]] && SKIP_TSAN=1
  [[ "$arg" == "--skip-asan" ]] && SKIP_ASAN=1
done

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "=== lint: environment access goes through util/env ==="
# env::raw() in src/util/env.cpp is the repo's only sanctioned call into
# the libc environment accessor; everything else must use the typed
# env::get_* helpers or EnvSnapshot so TFETSRAM_* knobs stay defaults
# layered under programmatic config (docs/ARCHITECTURE.md).
STRAYS="$(grep -rn 'getenv *(' src bench examples tests --include='*.cpp' --include='*.hpp' | grep -v '^src/util/env\.cpp:' || true)"
if [[ -n "$STRAYS" ]]; then
  echo "direct getenv() outside src/util/env.cpp:" >&2
  echo "$STRAYS" >&2
  exit 1
fi
echo "env access centralized"

echo "=== build (RelWithDebInfo) ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DTFETSRAM_WERROR=ON
cmake --build build -j "$JOBS"

echo "=== ctest ==="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== lint: stable test names ==="
# A parameterized gtest whose parameter type has no PrintTo lists its
# parameter as raw object bytes ("176-byte object <00-64 ...>"), heap
# pointers included, so its ctest name changes from build to build.
UNSTABLE="$(ctest --test-dir build -N | grep -- '-byte object <' || true)"
if [[ -n "$UNSTABLE" ]]; then
  echo "test names carrying a raw parameter dump (add a PrintTo):" >&2
  echo "$UNSTABLE" >&2
  exit 1
fi
echo "test names stable"

echo "=== fault injection: degraded keep-going run ==="
# Force one sweep point's DC solve to fail; the run must still complete,
# quarantine the task, and mark the BENCH artifact degraded (see
# docs/ROBUSTNESS.md).
FAULT_OUT="build/ci_fault_out"
rm -rf "$FAULT_OUT"
# Single-threaded so the faulted dc-solve indices land deterministically in
# one sweep task (a lone failed solve is absorbed by the hold-state
# fallbacks — six consecutive ones guarantee a censor-worthy failure).
TFETSRAM_THREADS=1 TFETSRAM_FAULTS="dc@50,51,52,53,54,55" \
  TFETSRAM_KEEP_GOING=1 TFETSRAM_CACHE=off \
  TFETSRAM_OUT_DIR="$FAULT_OUT" \
  ./build/bench/run_all fig6_write_assist >/dev/null
grep -q '"degraded":true' "$FAULT_OUT"/BENCH_fig6_write_assist.json
grep -q '"cache":"quarantined"' "$FAULT_OUT"/fig6_write_assist_journal.jsonl
echo "degraded run journaled and marked as expected"

echo "=== fault injection: watchdog cancels a stalled task ==="
# Park one sweep task in the stall fault site; the runner's watchdog must
# notice the flatlined heartbeat, cancel the attempt through its token,
# quarantine the task, and let the rest of the run complete degraded
# (docs/ROBUSTNESS.md).
STALL_OUT="build/ci_stall_out"
rm -rf "$STALL_OUT"
TFETSRAM_THREADS=2 TFETSRAM_FAULTS="stall@0" \
  TFETSRAM_STALL_TIMEOUT=0.3 TFETSRAM_RETRIES=1 \
  TFETSRAM_KEEP_GOING=1 TFETSRAM_CACHE=off \
  TFETSRAM_OUT_DIR="$STALL_OUT" \
  ./build/bench/run_all fig6_write_assist >/dev/null
grep -q '"degraded":true' "$STALL_OUT"/BENCH_fig6_write_assist.json
grep -q '"watchdog":"stall"' "$STALL_OUT"/fig6_write_assist_journal.jsonl
echo "stalled task detected, cancelled, and quarantined as expected"

echo "=== microbench: solver hot-path counters ==="
# Cache off: counters must be measured, not replayed (docs/SOLVER.md).
BENCH_OUT="build/ci_bench_out"
rm -rf "$BENCH_OUT"
TFETSRAM_CACHE=off TFETSRAM_OUT_DIR="$BENCH_OUT" \
  ./build/bench/run_all microbench
grep -q '"failed":0' "$BENCH_OUT"/BENCH_microbench.json
echo "microbench counters recorded in $BENCH_OUT/BENCH_microbench.json"

echo "=== microbench: array64x64 wall regression gate ==="
# The sparse-kernel scale workload must stay within 1.5x of the
# checked-in baseline wall (bench_csv/BENCH_microbench.json, measured on
# the machine class that recorded it — the generous factor absorbs run
# noise while still catching an ordering/fast-path regression, which
# costs well over 2x at this size; docs/SOLVER.md).
extract_wall() {
  sed -n 's/.*"task_wall_s":{[^}]*"'"$2"'":\([0-9.eE+-]*\).*/\1/p' "$1"
}
gate_wall() {
  local workload="$1"
  local base fresh
  base="$(extract_wall bench_csv/BENCH_microbench.json "$workload")"
  fresh="$(extract_wall "$BENCH_OUT"/BENCH_microbench.json "$workload")"
  if [[ -z "$base" || -z "$fresh" ]]; then
    echo "$workload wall missing from BENCH artifact" >&2
    exit 1
  fi
  if ! awk -v fresh="$fresh" -v base="$base" \
      'BEGIN { exit !(fresh <= 1.5 * base) }'; then
    echo "$workload regressed: ${fresh}s vs baseline ${base}s (>1.5x)" >&2
    exit 1
  fi
  echo "$workload wall ${fresh}s within 1.5x of baseline ${base}s"
}
gate_wall array64x64

echo "=== microbench: mc_yield wall regression gate ==="
# The rare-event yield workload runs the whole adaptive loop through
# mc::run_monte_carlo (docs/YIELD.md); its wall gate catches a regression
# in the estimator's sample economy or the engine's per-sample cost.
gate_wall mc_yield

echo "=== determinism: figure CSVs identical at 1 and 4 threads ==="
# The Monte-Carlo figures fan samples out over the pool and the runner
# schedules sweep points dynamically; neither may change an output byte.
# Every registered figure runs except microbench, whose CSV records wall
# times. Cache off so both runs compute every point; a reduced sample
# count keeps the two runs to seconds.
DET_OUT="build/ci_determinism"
rm -rf "$DET_OUT"
mapfile -t FIGURES < <(./build/bench/run_all --list |
  awk 'NR > 1 && $1 != "microbench" { print $1 }')
if [[ "${#FIGURES[@]}" -eq 0 ]]; then
  echo "run_all --list named no figures" >&2
  exit 1
fi
for threads in 1 4; do
  out="$DET_OUT/threads$threads"
  mkdir -p "$out"
  TFETSRAM_THREADS="$threads" TFETSRAM_CACHE=off TFETSRAM_MC_SAMPLES=12 \
    TFETSRAM_OUT_DIR="$out" ./build/bench/run_all "${FIGURES[@]}" >/dev/null
done
diff <(cd "$DET_OUT/threads1" && ls -- *.csv) \
  <(cd "$DET_OUT/threads4" && ls -- *.csv)
CSVS=0
for csv in "$DET_OUT"/threads1/*.csv; do
  cmp "$csv" "$DET_OUT/threads4/$(basename "$csv")"
  CSVS=$((CSVS + 1))
done
echo "$CSVS CSVs from ${#FIGURES[@]} figures byte-identical at 1 and 4 threads"

echo "=== cell zoo: every registered spec through signoff + bench ==="
# The zoo-labelled suite instantiates every cell-zoo entry, runs the full
# signoff battery at one corner, and round-trips the example decks through
# the netlist spec loader (docs/CELLZOO.md).
ctest --test-dir build --output-on-failure -L zoo -j "$JOBS"
# The bench figure must produce a per-cell x per-corner BENCH artifact
# with no failed or quarantined tasks; cache off so every metric in the
# artifact is freshly measured.
ZOO_OUT="build/ci_zoo_out"
rm -rf "$ZOO_OUT"
TFETSRAM_CACHE=off TFETSRAM_ZOO_CORNERS=smoke \
  TFETSRAM_OUT_DIR="$ZOO_OUT" \
  ./build/bench/run_all cell_zoo >/dev/null
grep -q '"failed":0' "$ZOO_OUT"/BENCH_cell_zoo.json
grep -q '"quarantined":0' "$ZOO_OUT"/BENCH_cell_zoo.json
# The tasks' "bench:" values reach the journal with the prefix stripped,
# as each line's "metrics" object (docs/RUNNER.md).
grep -q '"metrics":{"wlcrit":' "$ZOO_OUT"/cell_zoo_journal.jsonl
echo "cell-zoo signoff and bench artifacts verified"

echo "=== perfbench: traced smoke runs of every workload ==="
# Short --trace 1 runs of the repository benchmark (perfbench/README.md).
# Each must be correct (every simulated output equals perfbench/reference),
# repeat its counters exactly when an episode runs again, and keep every
# zero perfbench/predictions.json predicts.
for workload in mc_variation assist_sweep array_column; do
  PB_OUT="build/ci_perfbench_${workload}"
  if ! python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 5 \
      --trace 1 >"$PB_OUT.json" 2>"$PB_OUT.log" ||
    grep -q 'predicted 0 but measured' "$PB_OUT.log" ||
    ! python3 -c '
import json, sys
rec = json.loads(open(sys.argv[1]).read().splitlines()[-1])
ok = rec["correct"] and rec["metrics"]["trace.counter_mismatches"]["value"] == 0
sys.exit(0 if ok else 1)' "$PB_OUT.json"; then
    echo "perfbench $workload: failed, not correct, counters differ between" \
      "reruns, or a predicted zero broke" >&2
    cat "$PB_OUT.log" >&2
    exit 1
  fi
  echo "perfbench $workload: correct, counters repeat, predicted zeros hold"
done

if [[ "$SKIP_ASAN" == "1" ]]; then
  echo "=== asan job skipped ==="
else
  echo "=== build (Address+UndefinedBehaviorSanitizer) ==="
  # float-cast-overflow is not part of GCC's -fsanitize=undefined; it is
  # what catches a NaN or out-of-range double converted to an index.
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTFETSRAM_SANITIZE=address,undefined,float-cast-overflow
  cmake --build build-asan -j "$JOBS" --target test_la test_sparse_diff test_hier_diff test_yield test_netlist test_runner test_transient_resume test_kernel_diff test_cv_memo test_nonfinite test_assembly_diff test_source_fold test_amd_dense

  echo "=== asan+ubsan: linear-kernel and differential suites ==="
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/test_la
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/test_sparse_diff
  # Mixed-vs-flat engine parity: the mixed engine's partition rebuild and
  # latched-load stamping are fresh pointer-heavy code; run its drift
  # detector under the memory sanitizers (docs/HIERARCHY.md).
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/test_hier_diff
  # The statistical yield harness sweeps the estimator's tail math
  # (mixture pdfs, weighted intervals) — cheap enough to ride the memory
  # sanitizers in full (docs/YIELD.md).
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/test_yield
  # The netlist front-end parses untrusted text (duplicate-name, dangling-
  # and undeclared-node diagnostics walk every token with line tracking);
  # string handling like that belongs under the memory sanitizers.
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/test_netlist
  # Telemetry renders every task's journal line and the BENCH artifact as
  # JSON strings; the schema contract test drives every counter group.
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/test_runner
  # Transient tapes restore device state from a flat buffer by pointer
  # and copy trajectory prefixes; the resume differential runs both ways.
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/test_transient_resume
  # The dense LU and the value-only C-V lookup walk raw row pointers
  # behind one entry check; their reference oracles and the C-V memo's
  # hazard cases run under the memory sanitizers.
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/test_kernel_diff
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/test_cv_memo
  # Compiled assembly writes through slots bound once per topology, with
  # no per-write bounds check; the slot arithmetic and every rebinding
  # path run under the memory sanitizers against the reference stamper.
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/test_assembly_diff
  # The dense Newton solve gathers its free block and scatters the folded
  # sources' nodes and branch currents through index maps built once per
  # topology; the AMD dense-node rule prunes adjacency arenas in place.
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/test_source_fold
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/test_amd_dense
  # Non-finite coordinates must never reach the table lookup's
  # float-to-index conversion; NaN Newton updates must fail the iteration.
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/test_nonfinite
fi

if [[ "$SKIP_TSAN" == "1" ]]; then
  echo "=== tsan job skipped ==="
  exit 0
fi

echo "=== build (ThreadSanitizer) ==="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTFETSRAM_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" --target test_runner test_mc test_mc_engine test_yield test_faults test_deadline test_sparse_diff test_context test_hier test_la

echo "=== tsan: scheduler/cache/pool/fault/context tests ==="
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_runner
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_mc
# The Monte-Carlo engine's per-sample slots and index-ordered stats fold
# are exactly the shared-state-across-a-pool shape TSan exists for; the
# 4-thread oracle test races it on purpose.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_mc_engine
# Yield rounds extract every draw's device tables on the pool threads
# that evaluate it (docs/YIELD.md), so the estimator runs under TSan too.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_yield
# Concurrent tasks pinning conflicting solver backends through their own
# SimContexts, plus the MC inner-pool stats aggregation, under TSan.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_context
# The sparse/dense kernel-selection override is an atomic read in the
# Newton hot path; the diff suite exercises it across backends under TSan.
# Assembly slots live on each circuit's devices, never in shared state.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_sparse_diff
# The AMD ordering and static-pivot refactor tests run here too: the
# reused pivot sequence and ordering arenas are per-SparseLu state that
# concurrent contexts must never share.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_la
# The death test aborts by design; its fork/exec interacts badly with TSan,
# so it runs (and passes) in the regular job only.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_faults \
  --gtest_filter='-ThreadPoolDeathTest.*'
# Cancellation is cross-thread by design: the watchdog thread cancels
# tokens that solver threads poll, and request_cancel() races the
# scheduler's drain. The deadline suite must be TSan-clean.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_deadline
# Mixed-engine counter contracts: hier promotions/demotions bump the
# operation's context's SolverStats; the exact-count assertions must hold
# under TSan's scheduling too.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_hier

echo "=== ci.sh: all green ==="
