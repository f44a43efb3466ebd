#!/usr/bin/env bash
# CI entry point: build + test the release config, then the
# ASan/UBSan config. Both must pass. The chaos suite (seed-replayable
# fault injection) runs inside ctest in both configs; the sanitizer
# config additionally re-runs it with --repeat-until-fail to shake out
# flaky interleavings, and the fault benchmark's JSON lands in
# artifacts/ for trend diffing.
#
# Usage: scripts/ci.sh [jobs]

set -euo pipefail

jobs="${1:-$(nproc)}"
root="$(cd "$(dirname "$0")/.." && pwd)"
artifacts="${root}/artifacts"
mkdir -p "${artifacts}"

# The size of src/ is a tracked figure: the ROADMAP asks for the same
# behaviour from fewer lines, so every run reports it. Code that moved
# out of src/ into the test-only reference library is counted next to
# it, so a move never reads as a deletion.
count_lines() {
  find "$1" \( -name '*.h' -o -name '*.cc' \) -print0 | xargs -0 cat | wc -l
}
echo "==> src/ size: $(count_lines "${root}/src") lines in *.h and *.cc"
echo "==> tests/reference/ size: $(count_lines "${root}/tests/reference")" \
  "lines in *.h and *.cc"
# So is the number of knobs: the fields of each options struct, counted
# as the lines ending in ';' between `struct X {` and `};` once `//`
# comments are stripped.
count_fields() {
  awk -v open="struct $2 {" '
    index($0, open) == 1 { inside = 1; next }
    inside && /^};/ { exit }
    inside { sub(/\/\/.*/, ""); if ($0 ~ /;[ \t]*$/) n++ }
    END { print n + 0 }' "${root}/$1"
}
echo "==> option fields:" \
  "ThreadedOptions $(count_fields src/exec/threaded_runtime.h ThreadedOptions)," \
  "ExecutorOptions $(count_fields src/exec/executor.h ExecutorOptions)," \
  "StreamLoaderOptions $(count_fields src/core/streamloader.h StreamLoaderOptions)," \
  "OperatorOptions $(count_fields src/ops/operator.h OperatorOptions)," \
  "TransferOptions $(count_fields src/net/network.h TransferOptions)"

run_config() {
  local build_dir="$1"
  shift
  echo "==> configuring ${build_dir} ($*)"
  cmake -S "${root}" -B "${root}/${build_dir}" "$@"
  echo "==> building ${build_dir}"
  cmake --build "${root}/${build_dir}" -j "${jobs}"
  echo "==> testing ${build_dir}"
  ctest --test-dir "${root}/${build_dir}" --output-on-failure -j "${jobs}"
}

run_config build

# The wall-clock benchmark (perfbench/) compiles src/ as its own package
# and calls Broker, Network and Executor directly. Its self-test builds
# it, checks its reference outputs and asserts its rate path, so a src/
# API change that breaks the benchmark fails here, not when the
# benchmark runs.
echo "==> wall-clock benchmark self-test"
python3 "${root}/perfbench/run.py" --selftest

run_config build-asan -DSL_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
# ThreadSanitizer config: the multithreaded runtime's memory-ordering
# proof. The full suite runs (TSan also re-checks the single-threaded
# paths cheaply), then the threaded chaos tests repeat below.
run_config build-tsan -DSL_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo

# Clang-only thread-safety configuration: compiles the annotated
# locking discipline (util/thread_annotations.h) with
# -Wthread-safety -Werror=thread-safety. GCC has no such analysis, so
# the config only runs when a clang++ is available.
if command -v clang++ >/dev/null 2>&1; then
  run_config build-tsafety -DSL_THREAD_SAFETY=ON \
    -DCMAKE_CXX_COMPILER=clang++
else
  echo "==> clang++ not installed; skipping thread-safety config"
fi

echo "==> sl-lint: examples must be clean (analysis included)"
sl_lint="${root}/build/tools/sl_lint"
registry="${root}/examples/dsn/sensors.reg"
"${sl_lint}" --registry="${registry}" --analyze --werror \
  "${root}"/examples/dsn/*.dsn

echo "==> sl-lint: corpus programs must report their expected codes"
for f in "${root}"/tests/lint_corpus/*.dsn; do
  want="$(head -1 "$f" | sed 's/# expect: //')"
  if [ "${want}" = "clean" ]; then
    # Near-miss programs must survive --analyze --werror untouched.
    if ! "${sl_lint}" --registry="${registry}" --analyze --werror \
        "$f" >/dev/null; then
      echo "FAIL: ${f} expected a clean analysis" >&2
      exit 1
    fi
    continue
  fi
  got="$("${sl_lint}" --registry="${registry}" --analyze --format=json "$f" \
         || true)"
  for code in ${want}; do
    if ! grep -q "${code}" <<<"${got}"; then
      echo "FAIL: ${f} expected ${code}" >&2
      exit 1
    fi
  done
done

echo "==> sl-lint: archiving JSON reports"
"${sl_lint}" --registry="${registry}" --format=json \
  "${root}"/examples/dsn/*.dsn "${root}"/tests/lint_corpus/*.dsn \
  > "${artifacts}/LINT_report.json" || true
# The analysis report carries the per-edge inferred value facts
# (ranges, null/NaN-ness, rates) for the two clean example pipelines.
"${sl_lint}" --registry="${registry}" --analyze --format=json \
  "${root}"/examples/dsn/*.dsn \
  > "${artifacts}/ANALYZE_report.json"

if command -v clang-tidy >/dev/null 2>&1; then
  echo "==> clang-tidy over src/ (compile_commands from build/)"
  mapfile -t tidy_sources < <(find "${root}/src" -name '*.cc' | sort)
  clang-tidy -p "${root}/build" --quiet "${tidy_sources[@]}"
else
  echo "==> clang-tidy not installed; skipping"
fi

echo "==> chaos suite under sanitizers, repeated"
ctest --test-dir "${root}/build-asan" --output-on-failure \
  -R 'Chaos' --repeat-until-fail 3 -j "${jobs}"

# Threaded runtime interleaving shake-out: repeat the threaded chaos
# suite (backpressure saturation, shutdown-while-draining, abort from a
# second thread, pooled release, SPSC stress) under TSan, where
# scheduler jitter between repeats explores different interleavings of
# the worker and driver threads.
echo "==> threaded chaos suite under TSan, repeated"
ctest --test-dir "${root}/build-tsan" --output-on-failure \
  -R 'Chaos' --repeat-until-fail 3 -j "${jobs}"

# The live queue-depth gauge once read one slot above the ring capacity
# in most TSan runs; repeating its test turns a return into a failure
# instead of a flake.
echo "==> live stage-sample gauges under TSan, repeated"
ctest --test-dir "${root}/build-tsan" --output-on-failure \
  -R 'LiveStageSamplesAreSane' --repeat-until-fail 10

# The execution-mode matrix (pool sizes with producers that help,
# batched rings — and all of them combined — plus the Feed-driven
# run perfbench uses) is where new lock-free orderings live; repeat
# those differential identities under TSan too. The full 50-seed
# batteries already ran once in the build-tsan ctest pass above.
echo "==> threaded mode-matrix oracle under TSan, repeated"
ctest --test-dir "${root}/build-tsan" --output-on-failure \
  -R 'Pooled|Batched|AllModesCombined|Columnar|Feed' \
  --repeat-until-fail 2 -j "${jobs}"

echo "==> fault benchmark"
(cd "${root}/build" && ./bench/bench_faults --benchmark_min_time=0.01)
cp "${root}/build/BENCH_faults.json" "${artifacts}/BENCH_faults.json"

echo "==> late-data benchmark"
(cd "${root}/build" && ./bench/bench_latedata --benchmark_min_time=0.01)
cp "${root}/build/BENCH_latedata.json" "${artifacts}/BENCH_latedata.json"

# The operator hot-path suites carry paired before/after series (the
# *Naive / *Nested entries run the test-only reference implementations
# from tests/reference, the rest the production fast paths); their
# artifacts live at the repo root so the hash-join and
# incremental-aggregation speedups are diffable per run.
echo "==> operator benchmark (hash equi-join / incremental agg vs naive)"
(cd "${root}/build" && ./bench/bench_operators --benchmark_min_time=0.01)
cp "${root}/build/BENCH_operators.json" "${root}/BENCH_operators.json"
cp "${root}/build/BENCH_operators.json" "${artifacts}/BENCH_operators.json"

echo "==> blocking benchmark (interval sweeps, system-level blocking paths)"
(cd "${root}/build" && ./bench/bench_blocking --benchmark_min_time=0.01)
cp "${root}/build/BENCH_blocking.json" "${root}/BENCH_blocking.json"
cp "${root}/build/BENCH_blocking.json" "${artifacts}/BENCH_blocking.json"

# Key-partitioned parallelism curve (throughput and flush latency vs
# parallelism N, uniform vs Zipf keys); N is a gauge, so the curve is
# flat. The partitioned chaos suite itself runs in the 'Chaos' repeat
# block above.
echo "==> partition benchmark (throughput vs parallelism N)"
(cd "${root}/build" && ./bench/bench_partition --benchmark_min_time=0.01)
cp "${root}/build/BENCH_partition.json" "${root}/BENCH_partition.json"
cp "${root}/build/BENCH_partition.json" "${artifacts}/BENCH_partition.json"

# Threaded-runtime throughput/latency: delivered tuples/sec plus
# p50/p95/p99 Feed->sink latency counters per pipeline. Root copy so
# the sim-vs-threaded performance gap is diffable per run.
echo "==> threaded runtime benchmark (tuples/sec + latency percentiles)"
(cd "${root}/build" && ./bench/bench_threaded --benchmark_min_time=0.05)
cp "${root}/build/BENCH_threaded.json" "${root}/BENCH_threaded.json"
cp "${root}/build/BENCH_threaded.json" "${artifacts}/BENCH_threaded.json"

# Columnar batch execution: scalar-vs-vectorized series per operator
# (batch 1/64/1024), the filter->transform chain the acceptance bar
# reads (>= 3x at batch 1024), and the end-to-end threaded pipeline
# (its batchable stages run kBatch messages through ProcessBatch). Root
# copy for per-run diffing.
echo "==> vectorized expression VM benchmark (scalar vs columnar batches)"
(cd "${root}/build" && ./bench/bench_vector --benchmark_min_time=0.05)
cp "${root}/build/BENCH_vector.json" "${root}/BENCH_vector.json"
cp "${root}/build/BENCH_vector.json" "${artifacts}/BENCH_vector.json"

# What production runs: the share of src/'s executable lines that the
# example programs, sl_lint and perfbench execute, printed next to the
# line count above. It fails the run when a function no driver ran is
# missing from scripts/census_allow.txt.
"${root}/scripts/census.sh" "${jobs}"

echo "==> all configs green (artifacts in ${artifacts}/)"
