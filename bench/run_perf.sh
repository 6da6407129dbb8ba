#!/usr/bin/env bash
# Runs the release-preset benches and writes their JSON outputs at the repo
# root: BENCH_perf_kernels.json, BENCH_runtime_chaos.json, BENCH_obs.json.
#
# The checked-in kernel JSON carries a "baseline_pre_pr" block (the
# tree-based kernels, same -O2/NDEBUG config) so speedups stay computable;
# this script preserves that block across re-runs.
#
# Every bench output is validated as JSON before it replaces the checked-in
# file, and a missing bench binary aborts the run — a broken bench must
# fail the harness, not silently persist garbage.
#
# Usage: bench/run_perf.sh [build-dir] [extra benchmark args...]
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-release"}
shift $(( $# > 0 ? 1 : 0 ))

die() { echo "run_perf.sh: $*" >&2; exit 1; }

# Abort unless $1 exists and parses as JSON.
check_json() {
  [ -s "$1" ] || die "$2 produced no output"
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$1" \
    || die "$2 emitted invalid JSON"
}

if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  cmake --preset release -S "$repo_root"
fi
cmake --build "$build_dir" --target bench_perf_kernels -j "$(nproc)"

kernels_bin="$build_dir/bench/bench_perf_kernels"
[ -x "$kernels_bin" ] || die "bench binary missing: $kernels_bin"

out="$repo_root/BENCH_perf_kernels.json"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
"$kernels_bin" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  "$@" > "$tmp"
check_json "$tmp" "$kernels_bin"

# Merge: keep the baseline_pre_pr block from the existing file (if any).
python3 - "$out" "$tmp" <<'EOF'
import json, sys
out_path, new_path = sys.argv[1], sys.argv[2]
with open(new_path) as f:
    fresh = json.load(f)
try:
    with open(out_path) as f:
        old = json.load(f)
    if "baseline_pre_pr" in old:
        fresh["baseline_pre_pr"] = old["baseline_pre_pr"]
except (OSError, ValueError):
    pass
with open(out_path, "w") as f:
    json.dump(fresh, f, indent=1)
    f.write("\n")
EOF
echo "wrote $out"

# Chaos/fault-tolerance bench: survival rates, retry overhead, and warm
# resume counts (self-checking; see EXPERIMENTS.md §R1).
cmake --build "$build_dir" --target bench_runtime_chaos -j "$(nproc)"
chaos_bin="$build_dir/bench/bench_runtime_chaos"
[ -x "$chaos_bin" ] || die "bench binary missing: $chaos_bin"
chaos_out="$repo_root/BENCH_runtime_chaos.json"
"$chaos_bin" > "$tmp"
check_json "$tmp" "$chaos_bin"
cp "$tmp" "$chaos_out"
echo "wrote $chaos_out"

# Observability overhead bench: disarmed hook cost and traced-vs-disarmed
# flow overhead (self-checking; see src/obs/ and EXPERIMENTS.md).
cmake --build "$build_dir" --target bench_obs -j "$(nproc)"
obs_bin="$build_dir/bench/bench_obs"
[ -x "$obs_bin" ] || die "bench binary missing: $obs_bin"
obs_out="$repo_root/BENCH_obs.json"
"$obs_bin" > "$tmp"
check_json "$tmp" "$obs_bin"
cp "$tmp" "$obs_out"
echo "wrote $obs_out"

# Scheduler bench: the executor at 4 workers vs a 1-worker run —
# per-workload speedup, worker utilization (busy/wall), claim/steal
# counts, warm-cache replay (self-checking; see EXPERIMENTS.md §P2). The
# fanout journal dump is for ad-hoc inspection and is stripped from the
# checked-in file to keep it reviewable.
cmake --build "$build_dir" --target bench_runtime_parallel -j "$(nproc)"
sched_bin="$build_dir/bench/bench_runtime_parallel"
[ -x "$sched_bin" ] || die "bench binary missing: $sched_bin"
sched_out="$repo_root/BENCH_sched.json"
"$sched_bin" > "$tmp"
check_json "$tmp" "$sched_bin"
python3 - "$sched_out" "$tmp" <<'EOF'
import json, sys
out_path, new_path = sys.argv[1], sys.argv[2]
with open(new_path) as f:
    fresh = json.load(f)
fresh.get("fanout", {}).pop("journal", None)
with open(out_path, "w") as f:
    json.dump(fresh, f, indent=1)
    f.write("\n")
EOF
echo "wrote $sched_out"

# Service bench: closed-loop multi-tenant load against the interop service
# core — throughput/latency percentiles, cross-tenant warm-cache replay,
# overload shedding with retry-after, graceful drain (self-checking; see
# EXPERIMENTS.md §S1).
cmake --build "$build_dir" --target bench_service -j "$(nproc)"
service_bin="$build_dir/bench/bench_service"
[ -x "$service_bin" ] || die "bench binary missing: $service_bin"
service_out="$repo_root/BENCH_service.json"
"$service_bin" > "$tmp"
check_json "$tmp" "$service_bin"
cp "$tmp" "$service_out"
echo "wrote $service_out"

# Persistent-store bench: WAL append throughput (fsync on/off), verified
# lookup rate, cold-open recovery scan speed, and service warm-restart
# latency vs cold (self-checking: warm restart must execute zero actions;
# see EXPERIMENTS.md §D1 and README "Persistence").
cmake --build "$build_dir" --target bench_store -j "$(nproc)"
store_bin="$build_dir/bench/bench_store"
[ -x "$store_bin" ] || die "bench binary missing: $store_bin"
store_out="$repo_root/BENCH_store.json"
"$store_bin" > "$tmp"
check_json "$tmp" "$store_bin"
cp "$tmp" "$store_out"
echo "wrote $store_out"

# a/L engine bench: migration-callback throughput on the bytecode VM vs
# the tree-walking interpreter, end-to-end migration split, and raw
# dispatch (self-checking: engines must transform objects byte-identically
# and the VM must clear the 10x callback bar; see EXPERIMENTS.md §V1).
cmake --build "$build_dir" --target bench_al_vm -j "$(nproc)"
al_bin="$build_dir/bench/bench_al_vm"
[ -x "$al_bin" ] || die "bench binary missing: $al_bin"
al_out="$repo_root/BENCH_al_vm.json"
"$al_bin" > "$tmp"
check_json "$tmp" "$al_bin"
cp "$tmp" "$al_out"
echo "wrote $al_out"

# Fuzz-throughput smoke: a fixed-seed run of the differential fuzzer —
# designs/sec, coverage growth, and the jobs-invariance determinism check
# (self-checking; see EXPERIMENTS.md §F1 and README "Fuzzing").
cmake --build "$build_dir" --target bench_fuzz -j "$(nproc)"
fuzz_bin="$build_dir/bench/bench_fuzz"
[ -x "$fuzz_bin" ] || die "bench binary missing: $fuzz_bin"
fuzz_out="$repo_root/BENCH_fuzz.json"
"$fuzz_bin" > "$tmp"
check_json "$tmp" "$fuzz_bin"
cp "$tmp" "$fuzz_out"
echo "wrote $fuzz_out"
