#!/usr/bin/env bash
# Perf smoke gates: fail if a freshly measured benchmark regresses
# more than 10% below/above the checked-in baseline.
#
#   tools/check_perf_baseline.sh NEW.json [BASELINE.json]
#   tools/check_perf_baseline.sh --scale NEW_SCALE.json [BASELINE.json]
#
# Default mode gates BENCH_interpreter.json artifacts (written by
# `microbench_interpreter --interpreter-json`) on
# decoded_minstr_per_s, the peak-window throughput of the fused
# decoded engine (its one switch-dispatch loop). BASELINE defaults to
# the BENCH_interpreter.json committed at the repo root.
#
# --scale gates BENCH_scale.json artifacts (written by
# `pibe scalebench`). Hard gate: every measured row's image digest
# must equal the baseline row of the same size, and the seeds must
# match — the build is deterministic, so any difference is a changed
# image, not noise. Coarse gate: the 10^5-instruction build time must
# not exceed the baseline's by more than the margin
# (PIBE_SCALE_MARGIN, default 1.5 — wall-clock on a shared or
# cross-machine runner is far noisier than the interpreter's
# peak-window throughput, so this only guards against
# order-of-magnitude blow-ups; tighten the margin locally when
# comparing against a baseline regenerated on the same idle box).
#
# The 10% margin absorbs run-to-run noise on shared CI runners (the
# interpreter benchmark already reports a peak window, which removes
# most scheduler-induced variance); a real regression shows up far
# larger than that.
set -euo pipefail

MODE=interpreter
if [ "${1:-}" = "--scale" ]; then
    MODE=scale
    shift
fi

NEW="${1:?usage: check_perf_baseline.sh [--scale] NEW.json [BASELINE.json]}"

if [ "$MODE" = "scale" ]; then
    BASELINE="${2:-$(dirname "$0")/../BENCH_scale.json}"
    MARGIN="${PIBE_SCALE_MARGIN:-1.5}"
    python3 - "$NEW" "$BASELINE" "$MARGIN" <<'EOF'
import json, sys

new_path, base_path, margin = sys.argv[1], sys.argv[2], float(sys.argv[3])

def load(path):
    with open(path) as f:
        return json.load(f)

def row_at(doc, insts):
    for row in doc["sizes"]:
        if row.get("target_insts") == insts:
            return row
    sys.exit(f"FAIL: no {insts}-inst row in a scalebench artifact")

new_doc, base_doc = load(new_path), load(base_path)

if new_doc.get("seed") != base_doc.get("seed"):
    sys.exit(f"FAIL: seed {new_doc.get('seed')} differs from the "
             f"baseline's {base_doc.get('seed')}; digests are not "
             "comparable")
for row in new_doc["sizes"]:
    insts = row["target_insts"]
    want = row_at(base_doc, insts)["digest"]
    print(f"digest @ {insts}: measured {row['digest']}, baseline {want}")
    if row["digest"] != want:
        print(f"FAIL: image digest at {insts} insts differs from the "
              "checked-in baseline", file=sys.stderr)
        sys.exit(1)

GATE_INSTS = 100000
new_ms = row_at(new_doc, GATE_INSTS)["build_ms"]
base_ms = row_at(base_doc, GATE_INSTS)["build_ms"]
ceiling = base_ms * margin
print(f"build_ms @ 10^5: measured {new_ms:.0f}, "
      f"baseline {base_ms:.0f}, ceiling {ceiling:.0f} "
      f"({margin:.0%} of baseline)")
if new_ms > ceiling:
    print("FAIL: pipeline build time regressed "
          f"{new_ms / base_ms - 1:.1%} above the checked-in baseline",
          file=sys.stderr)
    sys.exit(1)
print("OK")
EOF
    exit 0
fi

BASELINE="${2:-$(dirname "$0")/../BENCH_interpreter.json}"
MARGIN="${PIBE_PERF_MARGIN:-0.90}"

extract() {
    python3 - "$1" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    print(json.load(f)["decoded_minstr_per_s"])
EOF
}

new_rate=$(extract "$NEW")
base_rate=$(extract "$BASELINE")

python3 - "$new_rate" "$base_rate" "$MARGIN" <<'EOF'
import sys
new, base, margin = map(float, sys.argv[1:4])
floor = base * margin
print(f"decoded_minstr_per_s: measured {new:.1f}, "
      f"baseline {base:.1f}, floor {floor:.1f} "
      f"({margin:.0%} of baseline)")
if new < floor:
    print("FAIL: interpreter throughput regressed "
          f"{(1 - new / base):.1%} below the checked-in baseline",
          file=sys.stderr)
    sys.exit(1)
print("OK")
EOF
