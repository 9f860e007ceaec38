#!/usr/bin/env bash
# Local CI driver. Runs one leg or all of them; .github/workflows/ci.yml
# runs the same legs, one matrix job each, so local and hosted CI cannot
# drift.
#
#   plain         Release, no sanitizer           — full ctest suite
#   asan-ubsan    -DRTP_SANITIZE=address,undefined — full ctest suite
#                 (includes the fuzz-corpus replay test, so every corpus
#                 entry runs under ASan/UBSan here)
#   tsan          -DRTP_SANITIZE=thread           — `ctest -L 'exec|serve'`:
#                 the exec label marks the concurrency suite (rtp::exec
#                 engine, parallel differential battery, oracle battery)
#                 and the serve label marks the rtpd end-to-end battery.
#                 TSan slows everything ~10x and the rest of the suite is
#                 single-threaded, so the labels keep the leg focused on
#                 code that actually runs concurrently.
#   perf          one pass over the allowlisted benchmarks in the plain
#                 (Release) tree, compared against the committed
#                 BENCH_pr10.json via tools/bench_compare.py (>10% cpu-time
#                 regression fails; see docs/PERFORMANCE.md).
#   fuzz          -DRTP_FUZZ=ON -DRTP_SANITIZE=address,undefined build of
#                 the fuzz/ harnesses; replays fuzz/corpus/, then fuzzes
#                 each harness for RTP_FUZZ_SECONDS (default 30) seconds.
#                 Non-zero on any crash / oracle violation. See
#                 docs/FUZZING.md.
#   failpoints    -DRTP_FAILPOINTS=ON -DRTP_SANITIZE=address,undefined —
#                 the guard + status suites with fault injection compiled
#                 in (the failpoint tests GTEST_SKIP themselves everywhere
#                 else). See docs/ROBUSTNESS.md.
#   obs-off       -DRTP_OBS_DISABLED=ON — full ctest suite with every
#                 rtp::obs macro compiled to a no-op, so the disabled
#                 path (and the tests' SKIP guards) cannot rot. See
#                 docs/OBSERVABILITY.md.
#   serve         builds rtpd + rtp_cli + the serve battery in the
#                 plain and tsan trees, runs `ctest -L serve` in both,
#                 then smoke-tests a real daemon: starts rtpd on a temp
#                 socket, loads examples/data/exam.xml, and diffs the
#                 `rtp_cli --socket=` eval, checkfd (fd1) and matrix
#                 (fd1,fd5 x update_u with exam.schema) round-trips
#                 against in-process `rtp_cli` output (the bit-identity
#                 contract of docs/SERVING.md).
#   load          builds rtpd + rtp_cli + rtp_load in the plain tree,
#                 starts a real daemon, and runs the committed
#                 examples/workloads/smoke.json twice with the same seed
#                 (4 client threads). rtp_load exits non-zero on any
#                 error-status response or zero completed ops, and the leg
#                 diffs the two --counts-out files: same-seed runs must
#                 produce byte-identical per-node op counts (the
#                 reproducibility contract of docs/WORKLOADS.md).
#   chaos         the fault-injection leg (docs/ROBUSTNESS.md). Three
#                 phases: (1) a real daemon under the committed
#                 examples/workloads/chaos.json — client-side seeded fault
#                 injection — twice with one seed, diffing the two
#                 --counts-out files (which include the per-node
#                 fault.<kind> injection counts); (2) the smoke spec driven
#                 through rtp_chaos_proxy with wire-level faults against
#                 the same daemon, asserting the run completes and the
#                 daemon still answers afterwards; (3) `ctest -R
#                 'Chaos|Framer|Overload|Degradation'` in the tsan tree.
#                 Every phase requires: zero hangs, zero daemon exits,
#                 every fault retried or surfaced as a structured error.
#   format        clang-format --dry-run --Werror over src/ tests/ tools/
#                 fuzz/ (skipped with a notice when clang-format is not
#                 installed).
#
# usage: tools/run_ci.sh [leg] [build-dir-prefix]
#
#   leg               all (default) | plain | asan-ubsan | tsan | perf |
#                     fuzz | failpoints | obs-off | serve | load | chaos |
#                     format
#   build-dir-prefix  defaults to ./build-ci; the build trees are
#                     <prefix>-plain, <prefix>-asan-ubsan, <prefix>-tsan,
#                     <prefix>-fuzz, <prefix>-failpoints, <prefix>-obs-off.
#
# Exits non-zero on the first failing leg.
set -euo pipefail

leg="all"
case "${1:-}" in
  all|plain|asan-ubsan|tsan|perf|fuzz|failpoints|obs-off|serve|load|chaos|format)
    leg="$1"
    shift
    ;;
esac
prefix="${1:-build-ci}"
jobs="$(nproc 2>/dev/null || echo 2)"
source_dir="$(cd "$(dirname "$0")/.." && pwd)"

run_leg() {
  local name="$1" sanitize="$2" ctest_args="$3" extra_cmake="${4:-}"
  local build_dir="${prefix}-${name}"
  echo "==== [$name] configure (RTP_SANITIZE='${sanitize}'" \
    "${extra_cmake:+extra: $extra_cmake})" >&2
  # shellcheck disable=SC2086  # extra_cmake is a deliberate word list
  cmake -B "$build_dir" -S "$source_dir" -DRTP_SANITIZE="$sanitize" \
    $extra_cmake > /dev/null
  echo "==== [$name] build" >&2
  cmake --build "$build_dir" -j "$jobs"
  echo "==== [$name] ctest $ctest_args" >&2
  # shellcheck disable=SC2086  # ctest_args is a deliberate word list
  (cd "$build_dir" && ctest --output-on-failure -j "$jobs" $ctest_args)
}

run_perf() {
  local build_dir="${prefix}-plain"
  echo "==== [perf] configure + build (Release)" >&2
  cmake -B "$build_dir" -S "$source_dir" -DRTP_SANITIZE="" > /dev/null
  cmake --build "$build_dir" -j "$jobs" --target bench_pattern_eval \
    bench_fd_check
  local out
  out="$(mktemp)"
  # shellcheck disable=SC2064  # expand $out now, not at trap time
  trap "rm -f '$out'" RETURN
  echo "==== [perf] running allowlisted benchmarks" >&2
  RTP_BENCH_JSON="$out" "$build_dir/bench/bench_pattern_eval" \
    --benchmark_filter='(BM_MatchTablesR1|BM_MatchTablesR3|BM_EnumerateR2|BM_EnumerateR3)/4096$' \
    --benchmark_min_time=0.1 >&2
  RTP_BENCH_JSON="$out" "$build_dir/bench/bench_fd_check" \
    --benchmark_filter='(BM_CheckFd1|BM_CheckFd2|BM_CheckFd3|BM_CheckFd5)/4096$' \
    --benchmark_min_time=0.1 >&2
  echo "==== [perf] comparing against BENCH_pr10.json" >&2
  python3 "$source_dir/tools/bench_compare.py" \
    "$source_dir/BENCH_pr10.json" "$out"
}

run_fuzz() {
  local build_dir="${prefix}-fuzz"
  local seconds="${RTP_FUZZ_SECONDS:-30}"
  echo "==== [fuzz] configure (RTP_FUZZ=ON, ASan+UBSan)" >&2
  cmake -B "$build_dir" -S "$source_dir" -DRTP_FUZZ=ON \
    -DRTP_SANITIZE="address,undefined" > /dev/null
  echo "==== [fuzz] build harnesses" >&2
  cmake --build "$build_dir" -j "$jobs" --target \
    fuzz_regex fuzz_pattern fuzz_schema fuzz_xml fuzz_differential fuzz_serve
  local scratch
  scratch="$(mktemp -d)"
  # shellcheck disable=SC2064  # expand $scratch now, not at trap time
  trap "rm -rf '$scratch'" RETURN
  local name
  for name in regex pattern schema xml differential serve; do
    echo "==== [fuzz] $name: replay fuzz/corpus/$name" >&2
    "$build_dir/fuzz/fuzz_$name" -runs=0 "$source_dir/fuzz/corpus/$name"
    echo "==== [fuzz] $name: ${seconds}s smoke" >&2
    # The writable corpus dir comes first so new units land in the
    # scratch dir, never in the repo; the committed corpus only seeds.
    mkdir -p "$scratch/$name"
    "$build_dir/fuzz/fuzz_$name" -max_total_time="$seconds" \
      "$scratch/$name" "$source_dir/fuzz/corpus/$name"
  done
}

run_failpoints() {
  local build_dir="${prefix}-failpoints"
  echo "==== [failpoints] configure (RTP_FAILPOINTS=ON, ASan+UBSan)" >&2
  cmake -B "$build_dir" -S "$source_dir" -DRTP_FAILPOINTS=ON \
    -DRTP_SANITIZE="address,undefined" > /dev/null
  echo "==== [failpoints] build" >&2
  cmake --build "$build_dir" -j "$jobs" --target rtp_tests
  echo "==== [failpoints] ctest -R '(Guard|Status)'" >&2
  # --no-tests=error: a rename that empties the name match fails the leg
  # instead of passing it with zero tests run.
  (cd "$build_dir" && ctest --output-on-failure -j "$jobs" \
    --no-tests=error -R '(Guard|Status)')
}

run_serve_smoke() {
  local build_dir="$1"
  local sock workdir
  workdir="$(mktemp -d)"
  sock="$workdir/rtpd.sock"
  echo "==== [serve] smoke: rtpd round-trip on $sock" >&2
  "$build_dir/tools/rtpd" --socket="$sock" --jobs=2 &
  local rtpd_pid=$!
  # shellcheck disable=SC2064  # expand now: kill the daemon we started
  trap "kill $rtpd_pid 2>/dev/null || true; wait $rtpd_pid 2>/dev/null || true; rm -rf '$workdir'" RETURN
  local i
  for i in $(seq 1 50); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  [ -S "$sock" ] || { echo "rtpd did not come up" >&2; return 1; }
  local cli="$build_dir/tools/rtp_cli" d="$source_dir/examples/data"
  local u="$d/update_u.pattern" fds="$d/fd1.fd,$d/fd5.fd"
  "$cli" --socket="$sock" load smoke exam "$d/exam.xml"
  {
    "$cli" --socket="$sock" eval smoke exam "$u"
    "$cli" --socket="$sock" checkfd smoke exam "$d/fd1.fd"
    "$cli" --socket="$sock" matrix smoke "$fds" "$u" "$d/exam.schema"
  } > "$workdir/served.txt"
  {
    "$cli" eval "$u" "$d/exam.xml"
    "$cli" checkfd "$d/fd1.fd" "$d/exam.xml"
    "$cli" matrix "$fds" "$u" "$d/exam.schema"
  } > "$workdir/serial.txt"
  diff -u "$workdir/serial.txt" "$workdir/served.txt"
  "$cli" --socket="$sock" shutdown
  wait "$rtpd_pid"
  echo "==== [serve] smoke: resident output identical to serial rtp_cli" >&2
}

run_serve() {
  local build_dir="${prefix}-plain"
  echo "==== [serve] configure + build (plain)" >&2
  cmake -B "$build_dir" -S "$source_dir" -DRTP_SANITIZE="" > /dev/null
  cmake --build "$build_dir" -j "$jobs" --target \
    rtpd rtp_cli rtp_serve_tests
  echo "==== [serve] ctest -L serve (plain)" >&2
  (cd "$build_dir" &&
    ctest --output-on-failure --no-tests=error -j "$jobs" -L serve)
  run_serve_smoke "$build_dir"
  local tsan_dir="${prefix}-tsan"
  echo "==== [serve] configure + build (tsan)" >&2
  cmake -B "$tsan_dir" -S "$source_dir" -DRTP_SANITIZE="thread" > /dev/null
  cmake --build "$tsan_dir" -j "$jobs" --target rtp_serve_tests
  echo "==== [serve] ctest -L serve (tsan)" >&2
  (cd "$tsan_dir" &&
    ctest --output-on-failure --no-tests=error -j "$jobs" -L serve)
}

# The load leg: a real daemon under the committed smoke workload spec,
# run twice with one seed. Reproducibility is enforced by diffing the
# per-node op counts; rtp_load itself exits non-zero on any error-status
# response or a zero-op run.
run_load() {
  local build_dir="${prefix}-plain"
  echo "==== [load] configure + build (plain)" >&2
  cmake -B "$build_dir" -S "$source_dir" -DRTP_SANITIZE="" > /dev/null
  cmake --build "$build_dir" -j "$jobs" --target rtpd rtp_cli rtp_load
  local workdir sock
  workdir="$(mktemp -d)"
  sock="$workdir/rtpd.sock"
  echo "==== [load] starting rtpd on $sock" >&2
  "$build_dir/tools/rtpd" --socket="$sock" --jobs=4 &
  local rtpd_pid=$!
  # shellcheck disable=SC2064  # expand now: kill the daemon we started
  trap "kill $rtpd_pid 2>/dev/null || true; wait $rtpd_pid 2>/dev/null || true; rm -rf '$workdir'" RETURN
  local i
  for i in $(seq 1 50); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  [ -S "$sock" ] || { echo "rtpd did not come up" >&2; return 1; }
  local run
  for run in 1 2; do
    echo "==== [load] smoke workload run $run (4 threads, seed 42)" >&2
    "$build_dir/tools/rtp_load" \
      --spec="$source_dir/examples/workloads/smoke.json" \
      --socket="$sock" --threads=4 --seed=42 \
      --counts-out="$workdir/counts$run.txt"
  done
  echo "==== [load] diffing per-node op counts across the two runs" >&2
  diff -u "$workdir/counts1.txt" "$workdir/counts2.txt"
  "$build_dir/tools/rtp_cli" --socket="$sock" shutdown
  wait "$rtpd_pid"
  echo "==== [load] same-seed runs produced identical per-node counts" >&2
}

# The chaos leg: a real daemon must survive seeded fault schedules from
# both injection paths — in-process (the workload spec's chaos block) and
# wire-level (rtp_chaos_proxy) — with every fault either transparently
# retried or surfaced as a structured error, and identical per-node
# fault-injection counts across same-seed runs.
run_chaos() {
  local build_dir="${prefix}-plain"
  echo "==== [chaos] configure + build (plain)" >&2
  cmake -B "$build_dir" -S "$source_dir" -DRTP_SANITIZE="" > /dev/null
  cmake --build "$build_dir" -j "$jobs" --target \
    rtpd rtp_cli rtp_load rtp_chaos_proxy
  local workdir sock front
  workdir="$(mktemp -d)"
  sock="$workdir/rtpd.sock"
  front="$workdir/chaos.sock"
  echo "==== [chaos] starting rtpd on $sock" >&2
  "$build_dir/tools/rtpd" --socket="$sock" --jobs=4 \
    --idle-timeout-ms=30000 &
  local rtpd_pid=$!
  # shellcheck disable=SC2064  # expand now: kill what we started
  trap "kill $rtpd_pid 2>/dev/null || true; wait $rtpd_pid 2>/dev/null || true; rm -rf '$workdir'" RETURN
  local i
  for i in $(seq 1 50); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  [ -S "$sock" ] || { echo "rtpd did not come up" >&2; return 1; }

  local run
  for run in 1 2; do
    echo "==== [chaos] in-process injection run $run (chaos.json, seed 42)" >&2
    "$build_dir/tools/rtp_load" \
      --spec="$source_dir/examples/workloads/chaos.json" \
      --socket="$sock" --threads=4 --seed=42 --allow-errors \
      --counts-out="$workdir/counts$run.txt"
  done
  echo "==== [chaos] diffing per-node op + fault counts across runs" >&2
  diff -u "$workdir/counts1.txt" "$workdir/counts2.txt"
  grep -q '\.fault\.' "$workdir/counts1.txt" || {
    echo "chaos.json run injected no faults" >&2; return 1; }

  echo "==== [chaos] wire-level injection through rtp_chaos_proxy" >&2
  "$build_dir/tools/rtp_chaos_proxy" --listen="$front" --upstream="$sock" \
    --seed=7 --read-stall=200 --torn-write=300 --corrupt-byte=150 \
    --premature-close=150 --response-delay=200 --stall-ms=5 --delay-ms=5 &
  local proxy_pid=$!
  for i in $(seq 1 50); do
    [ -S "$front" ] && break
    sleep 0.1
  done
  [ -S "$front" ] || { echo "proxy did not come up" >&2; return 1; }
  "$build_dir/tools/rtp_load" \
    --spec="$source_dir/examples/workloads/smoke.json" \
    --socket="$front" --threads=4 --seed=42 --allow-errors --quiet
  kill "$proxy_pid" 2>/dev/null
  wait "$proxy_pid"

  echo "==== [chaos] daemon still answers after both schedules" >&2
  "$build_dir/tools/rtp_cli" --socket="$sock" load chaosci exam \
    "$source_dir/examples/data/exam.xml"
  "$build_dir/tools/rtp_cli" --socket="$sock" shutdown
  wait "$rtpd_pid"

  local tsan_dir="${prefix}-tsan"
  echo "==== [chaos] configure + build (tsan)" >&2
  cmake -B "$tsan_dir" -S "$source_dir" -DRTP_SANITIZE="thread" > /dev/null
  cmake --build "$tsan_dir" -j "$jobs" --target rtp_serve_tests
  echo "==== [chaos] ctest -R 'Chaos|Framer|Overload|Degradation' (tsan)" >&2
  (cd "$tsan_dir" && ctest --output-on-failure --no-tests=error -j "$jobs" \
    -R 'Chaos|Framer|Overload|Degradation')
}

run_format() {
  if ! command -v clang-format > /dev/null 2>&1; then
    echo "==== [format] clang-format not installed — skipping" >&2
    return 0
  fi
  echo "==== [format] clang-format --dry-run --Werror" >&2
  (cd "$source_dir" &&
    find src tests tools fuzz \( -name '*.cc' -o -name '*.h' \) -print0 |
    xargs -0 clang-format --dry-run --Werror)
}

case "$leg" in
  plain)      run_leg plain      ""                  "" ;;
  asan-ubsan) run_leg asan-ubsan "address,undefined" "" ;;
  tsan)       run_leg tsan       "thread"            "-L 'exec|serve'" ;;
  obs-off)    run_leg obs-off    ""                  "" "-DRTP_OBS_DISABLED=ON" ;;
  perf)       run_perf ;;
  fuzz)       run_fuzz ;;
  failpoints) run_failpoints ;;
  serve)      run_serve ;;
  load)       run_load ;;
  chaos)      run_chaos ;;
  format)     run_format ;;
  all)
    run_format
    run_leg plain      ""                  ""
    run_leg asan-ubsan "address,undefined" ""
    run_leg tsan       "thread"            "-L 'exec|serve'"
    run_leg obs-off    ""                  "" "-DRTP_OBS_DISABLED=ON"
    run_serve
    run_load
    run_chaos
    run_perf
    run_fuzz
    run_failpoints
    ;;
esac

echo "==== CI leg(s) '$leg' passed" >&2
