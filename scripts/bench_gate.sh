#!/usr/bin/env bash
# Benchmark regression gate: regenerate every BENCH_*.json with the
# current tree and compare against the committed baselines with a +/-20%
# tolerance (scripts/bench_compare.py documents the exact per-field
# policy: deterministic counts gate symmetrically, speedups/ratios gate
# one-sided, raw wall-clock numbers are reported but never gated).
#
# Run directly, or from scripts/ci.sh via CI_BENCH=1. Knobs:
#   BENCH_GATE_TOL  relative tolerance (default 0.20)
#   BENCH_GATE_ABS  absolute slack for near-zero baselines (default 5)
set -euo pipefail
cd "$(dirname "$0")/.."

fresh="$(mktemp -d)"
trap 'rm -rf "$fresh"' EXIT

echo "== bench gate: regenerating benchmarks =="
cargo build --release -q -p adapt-bench
./target/release/perfdb_bench "$fresh/BENCH_perfdb.json"
./target/release/obs_bench "$fresh/BENCH_obs.json"
./target/release/load_bench "$fresh/BENCH_load.json"
./target/release/dst_bench "$fresh/BENCH_dst.json"
./target/release/arbiter_bench "$fresh/BENCH_arbiter.json"
./target/release/control_bench "$fresh/BENCH_control.json"
./target/release/export_bench "$fresh/BENCH_export.json"
./target/release/refine_bench "$fresh/BENCH_refine.json"

echo "== bench gate: comparing against committed baselines =="
status=0
for name in BENCH_perfdb.json BENCH_obs.json BENCH_load.json BENCH_dst.json BENCH_arbiter.json \
            BENCH_control.json BENCH_export.json BENCH_refine.json; do
    python3 scripts/bench_compare.py "$name" "$fresh/$name" || status=1
done

# DST digest cross-check: bench_compare treats digest strings as
# reported-only (toolchain updates may legitimately shift them), but a
# *stale committed baseline* must still fail CI — when the fresh run on
# this very tree disagrees with the committed BENCH_dst.json digests,
# the baseline was not regenerated alongside a behaviour change.
python3 - BENCH_dst.json "$fresh/BENCH_dst.json" <<'EOF' || status=1
import json, sys
with open(sys.argv[1]) as fh:
    base = json.load(fh)
with open(sys.argv[2]) as fh:
    fresh = json.load(fh)
stale = []
for section in ("deterministic", "knob_axis", "drift_axis"):
    b, f = base[section]["digest"], fresh[section]["digest"]
    if b != f:
        stale.append(f"{section}: committed {b} != fresh {f}")
if stale:
    print("BENCH_dst.json: committed explorer digests are stale — regenerate "
          "the baseline with ./target/release/dst_bench and commit it:",
          file=sys.stderr)
    for line in stale:
        print(f"  {line}", file=sys.stderr)
    sys.exit(1)
print("BENCH_dst.json: explorer digests match the committed baseline")
EOF

# Load digest cross-check, the same contract for the load generator:
# every sequential and sharded sweep row's outcome digest must match the
# committed BENCH_load.json, or a behaviour change shipped without its
# baseline.
python3 - BENCH_load.json "$fresh/BENCH_load.json" <<'EOF' || status=1
import json, sys
with open(sys.argv[1]) as fh:
    base = json.load(fh)["deterministic"]
with open(sys.argv[2]) as fh:
    fresh = json.load(fh)["deterministic"]
rows = {
    "sequential": (base["sequential"]["sweep"], fresh["sequential"]["sweep"]),
    "sharded": (base["sharded_sweep"], fresh["sharded_sweep"]),
}
stale = []
for name, (b_rows, f_rows) in rows.items():
    if len(b_rows) != len(f_rows):
        stale.append(f"{name}: committed {len(b_rows)} rows != fresh {len(f_rows)}")
        continue
    for b, f in zip(b_rows, f_rows):
        if b["digest"] != f["digest"]:
            stale.append(f"{name} sessions={b['sessions']}: committed {b['digest']} "
                         f"!= fresh {f['digest']}")
if stale:
    print("BENCH_load.json: committed load digests are stale — regenerate the "
          "baseline with ./target/release/load_bench and commit it:", file=sys.stderr)
    for line in stale:
        print(f"  {line}", file=sys.stderr)
    sys.exit(1)
print("BENCH_load.json: load digests match the committed baseline")
EOF

# Storm digest cross-check, the same contract for the arbiter storm:
# every sweep row's outcome digest must match the committed
# BENCH_arbiter.json.
python3 - BENCH_arbiter.json "$fresh/BENCH_arbiter.json" <<'EOF' || status=1
import json, sys
with open(sys.argv[1]) as fh:
    base = json.load(fh)["deterministic"]["sweep"]
with open(sys.argv[2]) as fh:
    fresh = json.load(fh)["deterministic"]["sweep"]
stale = []
if len(base) != len(fresh):
    stale.append(f"committed {len(base)} rows != fresh {len(fresh)}")
else:
    for b, f in zip(base, fresh):
        if b["digest"] != f["digest"]:
            stale.append(f"apps={b['apps']}: committed {b['digest']} != fresh {f['digest']}")
if stale:
    print("BENCH_arbiter.json: committed storm digests are stale — regenerate the "
          "baseline with ./target/release/arbiter_bench and commit it:", file=sys.stderr)
    for line in stale:
        print(f"  {line}", file=sys.stderr)
    sys.exit(1)
print("BENCH_arbiter.json: storm digests match the committed baseline")
EOF

# The chaos example writes BENCH_faults.json from a fully deterministic
# run: the fresh file must equal the committed one byte for byte.
cargo run --release -q --example chaos "$fresh/BENCH_faults.json" >/dev/null
if cmp -s BENCH_faults.json "$fresh/BENCH_faults.json"; then
    echo "BENCH_faults.json: chaos output matches the committed baseline byte for byte"
else
    echo "BENCH_faults.json: chaos output differs from the committed baseline — regenerate" \
         "it with cargo run --release --example chaos BENCH_faults.json and commit it:" >&2
    diff BENCH_faults.json "$fresh/BENCH_faults.json" >&2 || true
    status=1
fi

# Absolute zero-overhead gate on the *fresh* run (independent of the
# committed baseline): with exporters disabled, the span hot path must
# keep >= 95% of the no-exporter throughput measured in the same
# process. This is the "exporters are free until scraped" contract.
python3 - "$fresh/BENCH_export.json" <<'EOF' || status=1
import json, sys
with open(sys.argv[1]) as fh:
    fresh = json.load(fh)
ratio = fresh["span_hot_path"]["disabled_ratio"]
if ratio < 0.95:
    print(f"BENCH_export.json: disabled-exporter span throughput ratio "
          f"{ratio:.4f} < 0.95 of the no-exporter baseline", file=sys.stderr)
    sys.exit(1)
print(f"BENCH_export.json: disabled-exporter ratio {ratio:.4f} >= 0.95 (zero-overhead gate)")
EOF
exit "$status"
