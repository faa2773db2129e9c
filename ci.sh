#!/usr/bin/env bash
# CI entry point.
#
# Usage: ./ci.sh [build-dir]        # configure + build + full test suite
#                                   # (the repository's tier-1 verify) in a
#                                   # fresh build directory
#        ./ci.sh bench [build-dir]  # build micro_fdd_ops + micro_support +
#                                   # micro_linalg + fig07 + fig08
#                                   # (serial p=8 compile, median of 3
#                                   # runs) + scenario_sweep +
#                                   # serve_throughput and emit
#                                   # bench/results/BENCH_<name>.json
#                                   # (the recorded performance trajectory;
#                                   # each file records build type,
#                                   # repetitions and host concurrency)
#        ./ci.sh tsan [build-dir]   # ThreadSanitizer pass over the code
#                                   # threads share: serial block and
#                                   # prime solves racing on one engine
#                                   # and the prime table, the compile
#                                   # cache, serve sessions sharing one
#                                   # service (default dir: build-tsan)
#        ./ci.sh fuzz [build-dir]   # cross-engine differential fuzz: the
#                                   # conformance suite with fixed seeds
#                                   # plus the `mcnk fuzz` CLI oracle
#        ./ci.sh tidy [build-dir]   # clang-tidy over src/ + examples/ +
#                                   # bench/ via compile_commands.json
#                                   # (skips with a notice when the tool
#                                   # is not installed)
#        ./ci.sh serve-smoke [build-dir]  # build mcnk_serve + mcnk_cli and
#                                   # run the daemon restart / fix-no-op
#                                   # smoke tests plus the serve suite
#        ./ci.sh lint [build-dir]   # mcnk_cli lint --json over the
#                                   # examples/pnk corpus and the scenario
#                                   # registry, diffed against the
#                                   # checked-in tests/lint/baseline.json
#                                   # (zero new diagnostics allowed)
#   BUILD_TYPE=Debug ./ci.sh        # non-Release build
#   MCNK_SANITIZE=ON ./ci.sh        # ASan/UBSan run
#   MCNK_SANITIZE=ON ./ci.sh fuzz   # fuzz pass under ASan/UBSan
#   MCNK_FUZZ_ITERS=2000 ./ci.sh fuzz     # longer local fuzz runs
#   MCNK_BENCH_MIN_TIME=2 ./ci.sh bench   # longer per-benchmark runtime
set -euo pipefail

cd "$(dirname "$0")"

MODE=verify
if [ "${1:-}" = "bench" ]; then
  MODE=bench
  shift
elif [ "${1:-}" = "tsan" ]; then
  MODE=tsan
  shift
elif [ "${1:-}" = "fuzz" ]; then
  MODE=fuzz
  shift
elif [ "${1:-}" = "tidy" ]; then
  MODE=tidy
  shift
elif [ "${1:-}" = "serve-smoke" ]; then
  MODE=serve-smoke
  shift
elif [ "${1:-}" = "lint" ]; then
  MODE=lint
  shift
fi

DEFAULT_DIR=build
[ "$MODE" = "tsan" ] && DEFAULT_DIR=build-tsan
BUILD_DIR="${1:-$DEFAULT_DIR}"
BUILD_TYPE="${BUILD_TYPE:-Release}"
SANITIZE="${MCNK_SANITIZE:-OFF}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [ "$MODE" = "tsan" ]; then
  # Data-race pass over the state that threads share: concurrent serial
  # loop solves on one engine, which share the lazily extended modular
  # prime table, and CompileCache inserts (fdd_parallel_test); serve
  # sessions sharing one service's cache and store, and the TCP
  # accept/connection threads (serve_test). Compilation and loop solves
  # are serial. A dedicated build tree keeps TSan instrumentation out of
  # the main build.
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMCNK_WERROR=ON \
    -DMCNK_TSAN=ON \
    -DMCNK_BUILD_BENCH=OFF \
    -DMCNK_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target fdd_parallel_test serve_test
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    "$BUILD_DIR/fdd_parallel_test"
  # The serving layer's concurrency: sessions racing on one shared
  # CompileCache + CacheStore, and the TCP accept/connection threads.
  # Death tests fork, which TSan dislikes; they are covered by the
  # regular suite, so skip them here.
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    "$BUILD_DIR/serve_test" \
    --gtest_filter='-*DeathTest*'
  echo "ThreadSanitizer pass clean"
  exit 0
fi

if [ "$MODE" = "tidy" ]; then
  # Static-analysis pass: clang-tidy (check set pinned in .clang-tidy)
  # over the library, tool, and bench sources, driven by the build tree's
  # compilation database. Containers without clang-tidy skip with a
  # notice (exit 0) so the pass is safe to wire into every pipeline; the
  # check set still gates merges wherever the tool exists.
  TIDY="${CLANG_TIDY:-clang-tidy}"
  if ! command -v "$TIDY" >/dev/null 2>&1; then
    echo "ci.sh tidy: clang-tidy not found; skipping (install it or set CLANG_TIDY=<path>)"
    exit 0
  fi
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    cmake -B "$BUILD_DIR" -S . \
      -DCMAKE_BUILD_TYPE="$BUILD_TYPE" \
      -DMCNK_WERROR=ON
  fi
  mapfile -t files < <(git ls-files 'src/*.cpp' 'src/**/*.cpp' \
    'examples/*.cpp' 'bench/*.cpp')
  if [ "${#files[@]}" -eq 0 ]; then
    echo "error: no sources found for clang-tidy" >&2
    exit 1
  fi
  "$TIDY" -p "$BUILD_DIR" --quiet --warnings-as-errors='*' "${files[@]}"
  echo "clang-tidy pass clean (${#files[@]} files)"
  exit 0
fi

if [ "$MODE" = "fuzz" ]; then
  # Differential-fuzz pass: the conformance suite (fixed seeds, iteration
  # count scaled by MCNK_FUZZ_ITERS) plus the `mcnk fuzz` CLI oracle.
  # Composes with the sanitizer modes: MCNK_SANITIZE=ON ./ci.sh fuzz runs
  # the same pass under ASan/UBSan (use a fresh build dir so the
  # instrumented objects do not pollute the main tree).
  if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    cmake -B "$BUILD_DIR" -S . \
      -DCMAKE_BUILD_TYPE="$BUILD_TYPE" \
      -DMCNK_WERROR=ON \
      -DMCNK_SANITIZE="$SANITIZE"
  elif [ "$SANITIZE" = "ON" ] && \
       ! grep -q '^MCNK_SANITIZE:BOOL=ON$' "$BUILD_DIR/CMakeCache.txt"; then
    # Reusing an unsanitized tree would "pass" without any ASan/UBSan
    # coverage; refuse rather than report false assurance.
    echo "error: '$BUILD_DIR' was configured without MCNK_SANITIZE; use a fresh dir" >&2
    echo "hint: MCNK_SANITIZE=ON ./ci.sh fuzz build-asan" >&2
    exit 1
  fi
  cmake --build "$BUILD_DIR" -j "$JOBS" --target conformance_test mcnk_cli
  MCNK_FUZZ_ITERS="${MCNK_FUZZ_ITERS:-170}" "$BUILD_DIR/conformance_test"
  "$BUILD_DIR/mcnk_cli" fuzz --seed "${MCNK_FUZZ_SEED:-0xC1A0}" \
    --iters "${MCNK_CLI_FUZZ_ITERS:-25}"
  echo "Differential fuzz pass clean"
  exit 0
fi

if [ "$MODE" = "serve-smoke" ]; then
  # Serving-layer smoke (ARCHITECTURE S16): the daemon restart cycle
  # (cold store -> warm store, byte-identical answers), the lint --fix
  # no-op contract, and the full serve_test suite. Composes with
  # MCNK_SANITIZE=ON for an ASan/UBSan pass over the socket and store
  # paths (use a fresh build dir, as with fuzz).
  if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    cmake -B "$BUILD_DIR" -S . \
      -DCMAKE_BUILD_TYPE="$BUILD_TYPE" \
      -DMCNK_WERROR=ON \
      -DMCNK_SANITIZE="$SANITIZE"
  fi
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target mcnk_serve mcnk_cli serve_test
  "$BUILD_DIR/serve_test"
  (cd "$BUILD_DIR" && ctest -R 'serve_smoke|fix_noop_smoke' \
    --output-on-failure)
  echo "Serve smoke pass clean"
  exit 0
fi

if [ "$MODE" = "lint" ]; then
  # Lint-baseline pass (ARCHITECTURE S15/S17): every diagnostic the CLI
  # emits over the examples/pnk corpus and the scenario registry must
  # match tests/lint/baseline.json byte for byte — new findings (or
  # vanished ones) fail the pass so diagnostic drift is always a
  # deliberate, reviewed baseline update. Exit 1 from the CLI just means
  # "findings exist" (expected for most of the corpus); exit >= 2 is a
  # real error and fails immediately.
  if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    cmake -B "$BUILD_DIR" -S . \
      -DCMAKE_BUILD_TYPE="$BUILD_TYPE" \
      -DMCNK_WERROR=ON \
      -DMCNK_SANITIZE="$SANITIZE"
  fi
  cmake --build "$BUILD_DIR" -j "$JOBS" --target mcnk_cli
  CURRENT="$BUILD_DIR/lint_current.json"
  : > "$CURRENT"
  for f in examples/pnk/*.pnk; do
    rc=0
    "$BUILD_DIR/mcnk_cli" lint --json "$f" >> "$CURRENT" || rc=$?
    if [ "$rc" -ge 2 ]; then
      echo "error: mcnk_cli lint failed on $f (exit $rc)" >&2
      exit 1
    fi
  done
  rc=0
  "$BUILD_DIR/mcnk_cli" lint --json --registry >> "$CURRENT" || rc=$?
  if [ "$rc" -ge 2 ]; then
    echo "error: mcnk_cli lint --registry failed (exit $rc)" >&2
    exit 1
  fi
  if ! diff -u tests/lint/baseline.json "$CURRENT"; then
    echo "error: lint diagnostics drifted from tests/lint/baseline.json" >&2
    echo "hint: review the diff above; if intended, copy $CURRENT over the baseline" >&2
    exit 1
  fi
  echo "Lint baseline pass clean ($(wc -l < "$CURRENT") corpus lines)"
  exit 0
fi

if [ "$MODE" = "bench" ]; then
  # Bench mode reuses an existing build tree (benchmarks want a warm
  # Release build, not a from-scratch rebuild) — but refuses Debug or
  # sanitized trees so slow-by-10x numbers never land in bench/results/.
  if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    cmake -B "$BUILD_DIR" -S . \
      -DCMAKE_BUILD_TYPE="$BUILD_TYPE" \
      -DMCNK_WERROR=ON \
      -DMCNK_SANITIZE="$SANITIZE"
  fi
  if ! grep -q '^CMAKE_BUILD_TYPE:STRING=Release$' "$BUILD_DIR/CMakeCache.txt"; then
    echo "error: '$BUILD_DIR' is not a Release build; bench numbers would be meaningless" >&2
    echo "hint: ./ci.sh bench <fresh-dir>  or reconfigure with -DCMAKE_BUILD_TYPE=Release" >&2
    exit 1
  fi
  if grep -Eq '^MCNK_(SANITIZE|TSAN):BOOL=ON$' "$BUILD_DIR/CMakeCache.txt"; then
    echo "error: '$BUILD_DIR' has sanitizers enabled; refusing to record bench numbers" >&2
    exit 1
  fi
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target micro_fdd_ops micro_support micro_linalg fig08_parallel_speedup \
             fig07_fattree_scalability scenario_sweep serve_throughput
  mkdir -p bench/results
  for bench in micro_fdd_ops micro_support micro_linalg; do
    if [ ! -x "$BUILD_DIR/$bench" ]; then
      echo "error: $bench was not built (is Google Benchmark installed?)" >&2
      exit 1
    fi
    # Fixed repetitions: the JSON records median/mean/stddev/cv per
    # benchmark instead of one sample.
    "$BUILD_DIR/$bench" \
      --benchmark_out="bench/results/BENCH_${bench}.json" \
      --benchmark_out_format=json \
      --benchmark_min_time="${MCNK_BENCH_MIN_TIME:-0.2}" \
      --benchmark_repetitions=5 \
      --benchmark_report_aggregates_only=true
  done
  # Fig 8 trajectory point: the serial p=8 compile time, median of 3 runs
  # (the JSON records build type, repetitions and host concurrency).
  MCNK_FIG8_JSON=bench/results/BENCH_fig08_parallel.json \
    "$BUILD_DIR/fig08_parallel_speedup"
  # Compile-cache trajectory point: the per-ingress query sweep across the
  # registry, cached vs uncached (reference-equality enforced; the run
  # fails on any mismatch). The same invocation records the modular-solver
  # registry sweep (Rational Exact vs multi-prime ModularExact,
  # ARCHITECTURE S14).
  # The same invocation also records the simplify-sweep point: the cached
  # per-ingress family with the S15 verified simplifier in front of every
  # compile (reference equality enforced; hit-rate and node-count deltas
  # recorded) — and the slice-sweep point: every registry scenario,
  # plain Exact vs S17 delivery-cone-sliced Exact (answer equality
  # enforced; wall-clock and FDD-node deltas recorded).
  MCNK_SWEEP_TABLE=0 \
    MCNK_SWEEP_CACHE_JSON=bench/results/BENCH_sweep_cache.json \
    MCNK_SWEEP_MODULAR_JSON=bench/results/BENCH_sweep_modular.json \
    MCNK_SWEEP_SIMPLIFY_JSON=bench/results/BENCH_sweep_simplify.json \
    MCNK_SWEEP_SLICE_JSON=bench/results/BENCH_sweep_slice.json \
    "$BUILD_DIR/scenario_sweep"
  # Modular-solver trajectory point: Rational Exact vs multi-prime
  # ModularExact on the Fig 7 FatTree family and the Fig 10 diamond-chain
  # family (reference-equality enforced; the chains are where the wide
  # CRT moduli live).
  MCNK_FIG7_MODULAR_JSON=bench/results/BENCH_solver_modular.json \
    "$BUILD_DIR/fig07_fattree_scalability"
  # Serving-layer trajectory point: the registry replayed through one
  # daemon session, cold store vs restart-warmed store (warm answers must
  # come from disk and be byte-identical; the run fails otherwise).
  MCNK_SERVE_JSON=bench/results/BENCH_serve_throughput.json \
    "$BUILD_DIR/serve_throughput"
  echo "Wrote bench/results/BENCH_micro_{fdd_ops,support,linalg}.json, BENCH_fig08_parallel.json, BENCH_sweep_{cache,modular,simplify,slice}.json, BENCH_solver_modular.json, and BENCH_serve_throughput.json"
  exit 0
fi

# Only clobber directories that are clearly CMake build trees.
if [ -e "$BUILD_DIR" ] && [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  echo "error: '$BUILD_DIR' exists but is not a CMake build directory; refusing to delete it" >&2
  exit 1
fi
rm -rf "$BUILD_DIR"
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE="$BUILD_TYPE" \
  -DMCNK_WERROR=ON \
  -DMCNK_SANITIZE="$SANITIZE"
cmake --build "$BUILD_DIR" -j "$JOBS"
cd "$BUILD_DIR"
ctest --output-on-failure -j "$JOBS"
