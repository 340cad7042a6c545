#!/usr/bin/env bash
# Tier-1 gate: everything must build, every test must pass, and the
# headline experiment must run end to end. CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test --workspace -q

# Every example must run to a zero exit, not just build.
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    cargo run --release -q --example "$name" > /dev/null
done

# Smoke: the headline experiment, serial vs parallel — the reports must
# be byte-identical (each run is deterministic; only wall-clock changes).
bin=target/release/repro
serial=$(mktemp)
parallel=$(mktemp)
trap 'rm -f "$serial" "$parallel"' EXIT
"$bin" headline --quick --jobs 1 > "$serial"
"$bin" headline --quick --jobs 4 > "$parallel"
cmp "$serial" "$parallel"
echo "tier1: OK (headline --quick byte-identical at 1 and 4 jobs)"
