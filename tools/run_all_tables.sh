#!/usr/bin/env bash
# Run the four job-graph table benchmarks serially (no cache) and then
# in parallel with a shared artifact cache, verify that the table
# output is byte-identical, and emit BENCH_tables.json with wall-clock
# and cache statistics per table. Also runs the interpreter microbench
# (decoded vs reference hot loop) and merges its result into the JSON
# so the engine's perf trajectory is tracked per PR.
#
# Finally boots a `pibe serve` daemon, replays a concurrent loadgen
# mix against it, and merges its BENCH_serve.json (p50/p99 latency,
# throughput, cold vs warm cache) into the output as well.
#
# It also runs `pibe scalebench` (Linux-scale generated modules
# through core::buildImage: image digests, build-time and peak-RSS
# curves) and merges its BENCH_scale.json under the same provenance
# stamp.
#
# It also runs `pibe surface` (interprocedural target-set analysis +
# residual-attack-surface report) over a freshly built paper kernel and
# merges its BENCH_surface.json under the same provenance stamp.
#
# Usage: tools/run_all_tables.sh [BUILD_DIR] [OUT_JSON] [INTERP_JSON] [SERVE_JSON] [SCALE_JSON] [SURFACE_JSON]
#   BUILD_DIR   cmake build tree holding the bench binaries (default: build)
#   OUT_JSON    output metrics file (default: BENCH_tables.json)
#   INTERP_JSON interpreter microbench output (default: BENCH_interpreter.json)
#   SERVE_JSON  serve loadgen output (default: BENCH_serve.json)
#   SCALE_JSON  scalebench output (default: BENCH_scale.json)
#   SURFACE_JSON surface report output (default: BENCH_surface.json)
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_tables.json}"
INTERP_JSON="${3:-BENCH_interpreter.json}"
SERVE_JSON="${4:-BENCH_serve.json}"
SCALE_JSON="${5:-BENCH_scale.json}"
SURFACE_JSON="${6:-BENCH_surface.json}"
JOBS="$(nproc)"
TABLES=(table5_all_defenses table6_per_defense table3_retpolines
        table7_macrobenchmarks)

for bin in bench/table5_all_defenses bench/table6_per_defense \
           bench/table3_retpolines bench/table7_macrobenchmarks \
           tools/pibe; do
    if [[ ! -x "$BUILD_DIR/$bin" ]]; then
        echo "error: $BUILD_DIR/$bin not found;" \
             "build with: cmake -B $BUILD_DIR -S . &&" \
             "cmake --build $BUILD_DIR -j" >&2
        exit 1
    fi
done

WORK="$(mktemp -d /tmp/pibe_tables.XXXXXX)"
CACHE_DIR="$WORK/cache"
trap 'rm -rf "$WORK"' EXIT

now_ms() { date +%s%3N; }

echo "== serial reference run (--jobs 1 --no-cache) =="
serial_t0=$(now_ms)
for t in "${TABLES[@]}"; do
    t0=$(now_ms)
    "$BUILD_DIR/bench/$t" --jobs 1 --no-cache > "$WORK/$t.serial.txt"
    echo "  $t: $(( $(now_ms) - t0 )) ms"
done
serial_ms=$(( $(now_ms) - serial_t0 ))

echo "== parallel run (--jobs $JOBS, shared cache) =="
parallel_t0=$(now_ms)
for t in "${TABLES[@]}"; do
    t0=$(now_ms)
    "$BUILD_DIR/bench/$t" --jobs "$JOBS" --cache-dir "$CACHE_DIR" \
        --metrics-json "$WORK/$t.metrics.json" > "$WORK/$t.parallel.txt"
    echo "  $t: $(( $(now_ms) - t0 )) ms"
done
parallel_ms=$(( $(now_ms) - parallel_t0 ))

echo "== verifying byte-identical table output =="
for t in "${TABLES[@]}"; do
    if ! cmp -s "$WORK/$t.serial.txt" "$WORK/$t.parallel.txt"; then
        echo "FAIL: $t output differs between serial and parallel:" >&2
        diff "$WORK/$t.serial.txt" "$WORK/$t.parallel.txt" >&2 || true
        exit 1
    fi
    echo "  $t: identical"
done

speedup=$(awk -v s="$serial_ms" -v p="$parallel_ms" \
    'BEGIN { printf "%.2f", (p > 0) ? s / p : 0 }')

echo "== interpreter microbench (decoded vs reference) =="
"$BUILD_DIR/bench/microbench_interpreter" \
    --interpreter-json "$INTERP_JSON"

echo "== serve daemon loadgen (cold + warm cache) =="
SERVE_SOCK="$WORK/serve.sock"
"$BUILD_DIR/tools/pibe" serve --socket "$SERVE_SOCK" --jobs "$JOBS" \
    --drivers 64 --profile-iters 30 --cache-dir "$WORK/serve-cache" \
    > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    "$BUILD_DIR/tools/pibe" client --socket "$SERVE_SOCK" --op ping \
        > /dev/null 2>&1 && break
    sleep 0.2
done
"$BUILD_DIR/tools/pibe" loadgen --socket "$SERVE_SOCK" \
    --requests 200 --clients 8 --out "$SERVE_JSON"
"$BUILD_DIR/tools/pibe" client --socket "$SERVE_SOCK" \
    --op shutdown > /dev/null
wait "$SERVE_PID"

echo "== scalebench (generated modules through buildImage) =="
"$BUILD_DIR/tools/pibe" scalebench --out "$SCALE_JSON"

echo "== check suite timing (pibe check --timing) =="
"$BUILD_DIR/tools/pibe" genkernel --insts 100000 --seed 42 \
    -o "$WORK/check-scale.pir" --profile "$WORK/check-scale.prof" \
    > /dev/null
"$BUILD_DIR/tools/pibe" check -m "$WORK/check-scale.pir" \
    -p "$WORK/check-scale.prof" --timing --json \
    > "$WORK/check-timing.json"
# Graft the checker timing breakdown into the scale artifact so one
# file carries the whole pipeline's perf curves.
python3 - "$SCALE_JSON" "$WORK/check-timing.json" <<'EOF'
import json, sys
scale_path, timing_path = sys.argv[1], sys.argv[2]
with open(scale_path) as f:
    doc = json.load(f)
with open(timing_path) as f:
    doc["check_timing"] = json.load(f).get("timing", {})
with open(scale_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF

echo "== residual-attack-surface report (pibe surface) =="
"$BUILD_DIR/tools/pibe" kernel -o "$WORK/surface-kernel.pir" --drivers 64
"$BUILD_DIR/tools/pibe" profile -m "$WORK/surface-kernel.pir" \
    -o "$WORK/surface-prof.txt" --iters 10
"$BUILD_DIR/tools/pibe" surface -m "$WORK/surface-kernel.pir" \
    -p "$WORK/surface-prof.txt" --json "$SURFACE_JSON" --fail-on warn

# Provenance stamp: every BENCH_*.json records where its numbers came
# from, so checked-in baselines are auditable. git_sha is the checked
# out commit, not an uncommitted change; source_digest names the tree
# measured, as perfbench/run.py's source_digest() digests its own:
# sha256 over the path and bytes of each file, in os.walk order with
# sorted names.
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
GIT_SHA=$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null \
    || echo unknown)
SOURCE_DIGEST=$(cd "$ROOT" && python3 -c '
import hashlib, os
h = hashlib.sha256()
for top in ("src", "bench", "tools", "CMakeLists.txt"):
    walk = os.walk(top) if os.path.isdir(top) else [("", [], [top])]
    for dirpath, dirnames, filenames in walk:
        dirnames.sort()
        for path in (os.path.join(dirpath, n) for n in sorted(filenames)):
            h.update(path.encode() + open(path, "rb").read())
print(h.hexdigest()[:16])')
CPU_MODEL=$(awk -F': ' '/model name/ { print $2; exit }' \
    /proc/cpuinfo 2>/dev/null || echo unknown)
CXX_ID=$("${CXX:-c++}" --version 2>/dev/null | head -1 || echo unknown)
STAMP_UTC=$(date -u +%Y-%m-%dT%H:%M:%SZ)

{
    echo "{"
    echo "  \"provenance\": {"
    echo "    \"git_sha\": \"$GIT_SHA\","
    echo "    \"source_digest\": \"$SOURCE_DIGEST\","
    echo "    \"compiler\": \"$CXX_ID\","
    echo "    \"cpu\": \"$CPU_MODEL\","
    echo "    \"timestamp_utc\": \"$STAMP_UTC\""
    echo "  },"
    echo "  \"jobs\": $JOBS,"
    echo "  \"serial_wall_s\": $(awk -v ms="$serial_ms" \
        'BEGIN { printf "%.3f", ms / 1000 }'),"
    echo "  \"parallel_wall_s\": $(awk -v ms="$parallel_ms" \
        'BEGIN { printf "%.3f", ms / 1000 }'),"
    echo "  \"speedup\": $speedup,"
    echo "  \"output_identical\": true,"
    echo "  \"interpreter\": $(sed 's/^/  /' "$INTERP_JSON" \
        | sed '1s/^  //'),"
    echo "  \"serve\": $(cat "$SERVE_JSON"),"
    echo "  \"scale\": $(cat "$SCALE_JSON"),"
    echo "  \"surface\": $(cat "$SURFACE_JSON"),"
    echo "  \"tables\": ["
    sep=""
    for t in "${TABLES[@]}"; do
        printf '%s    %s' "$sep" "$(cat "$WORK/$t.metrics.json")"
        sep=$',\n'
    done
    printf '\n  ]\n}\n'
} > "$OUT_JSON"

echo "== done =="
echo "serial:   ${serial_ms} ms"
echo "parallel: ${parallel_ms} ms (speedup ${speedup}x)"
echo "metrics:  $OUT_JSON (serve: $SERVE_JSON, scale: $SCALE_JSON," \
     "surface: $SURFACE_JSON)"
