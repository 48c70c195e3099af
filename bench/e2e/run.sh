#!/usr/bin/env bash
# End-to-end in situ step benchmark.
#
#   bench/e2e/run.sh --workload NAME [--seed S] [--seconds T] [--trace 0|1]
#       build, then run one workload; the last stdout line is its JSON result
#   bench/e2e/run.sh [--seed S] [--seconds T] [--trace 0|1]
#       build, then run all four workloads, each in its own process, and
#       write their results to .bench_build/e2e/results.json
#   bench/e2e/run.sh --smoke
#       build, then run e2e_step --selftest
#
# Builds the main tree's libraries and bench/e2e under .bench_build/e2e in
# the repository root (build log: .bench_build/e2e/build.log). Traced runs
# write their Chrome trace into .bench_build/e2e/traces. Exits nonzero when
# the build fails or any output check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: $root holds no source tree (CMakeLists.txt and src/)" >&2
  exit 2
fi

build="$root/.bench_build/e2e"
mkdir -p "$build/tmp" "$build/traces"
export TMPDIR="$build/tmp"
jobs="$(nproc 2>/dev/null || echo 4)"
((jobs > 4)) && jobs=4

# the main tree's libraries (not its tests), then the benchmark against them
build_all() {
  { [[ -f "$build/main/CMakeCache.txt" ]] ||
    cmake -S "$root" -B "$build/main" -DCMAKE_BUILD_TYPE=RelWithDebInfo; } &&
    cmake --build "$build/main" --target campaign -j "$jobs" &&
    { [[ -f "$build/bench/CMakeCache.txt" ]] ||
      cmake -S "$here" -B "$build/bench" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSENSEI_SOURCE_DIR="$root" -DSENSEI_BUILD_DIR="$build/main"; } &&
    cmake --build "$build/bench" -j "$jobs"
}

log="$build/build.log"
if ! build_all >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (log: $log)" >&2
  exit 2
fi

bin="$build/bench/e2e_step"
if [[ "${1:-}" == "--smoke" ]]; then
  exec "$bin" --selftest
fi
for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$bin" "$@" --trace-dir "$build/traces"
  fi
done

status=0
json="{"
for w in solve campaign_lockstep campaign_async intransit_viz; do
  out="$("$bin" --workload "$w" "$@" --trace-dir "$build/traces")" || status=1
  grep -v '^{' <<<"$out" || true
  json+="$([[ "$json" == "{" ]] || echo ", ")\"$w\": $(tail -n 1 <<<"$out")"
done
echo "$json}" >"$build/results.json"
echo "run.sh: results in $build/results.json"
exit "$status"
