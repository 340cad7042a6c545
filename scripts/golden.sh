#!/usr/bin/env bash
# Golden-report gate: the checked-in quick reports under results/golden/
# must match what the current tree produces, byte for byte.
#
#   scripts/golden.sh --check   regenerate into a temp dir and diff (CI)
#   scripts/golden.sh --bless   regenerate results/golden/ in place
#
# Bless workflow: when a change intentionally alters a report, run
# `scripts/golden.sh --bless`, eyeball `git diff results/golden/`, and
# commit the new snapshots together with the change that caused them.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:---check}"
bin=target/release/repro

if [[ ! -x "$bin" ]]; then
  cargo build --release --workspace
fi

# Regenerates every golden artifact into $1: the per-experiment reports,
# the offline trace-analysis report, and the flight-recorder episode
# catalog (all pure functions of deterministic trace bytes). Along the
# way the regeneration itself fails unless:
#   - the bake-off matrix reports the same bytes at 1/2/8 workers and
#     with tight shard boundaries, and the wavelength ablation (the
#     longest single runs) does too when sharded;
#   - the same sharded fig9 run recorded as JSONL and as .mcdt converts
#     back to identical JSONL, and `trace analyze` reports identically
#     on both files.
regenerate() {
  local dir="$1"
  local tmp
  tmp=$(mktemp -d)
  fail() {
    echo "golden: $1" >&2
    rm -rf "$tmp"
    exit 1
  }
  # same_report EXPERIMENT ARGS...: rerun one experiment and require the
  # report the --jobs 4 sweep just wrote into $dir.
  same_report() {
    local name="$1"
    shift
    "$bin" "$name" --quick "$@" --out "$tmp" > /dev/null
    cmp -s "$dir/$name.txt" "$tmp/$name.txt" || fail "$name $* differs from the --jobs 4 report"
  }
  "$bin" all --quick --jobs 4 --out "$dir" > /dev/null
  for jobs in 1 2 8; do
    same_report bakeoff --jobs "$jobs"
  done
  same_report bakeoff --jobs 2 --shard-ops 50000
  same_report ablate-wavelength --jobs 2 --shard-ops 50000
  "$bin" fig9 --quick --jobs 4 --trace-out "$tmp/fig9.trace.jsonl" > /dev/null
  "$bin" trace analyze "$tmp/fig9.trace.jsonl" --out "$dir/trace-analyze.txt" > /dev/null
  "$bin" fig9 --quick --jobs 4 --shard-ops 5000 --trace-out "$tmp/sharded.jsonl" > /dev/null
  "$bin" fig9 --quick --jobs 4 --shard-ops 5000 --trace-out "$tmp/sharded.mcdt" > /dev/null
  "$bin" trace convert "$tmp/sharded.mcdt" --out "$tmp/back.jsonl" > /dev/null
  cmp -s "$tmp/sharded.jsonl" "$tmp/back.jsonl" || fail ".mcdt -> JSONL conversion is not lossless"
  "$bin" trace analyze "$tmp/sharded.mcdt" --out "$tmp/analyze-mcdt.txt" > /dev/null
  "$bin" trace analyze "$tmp/sharded.jsonl" --out "$tmp/analyze-jsonl.txt" > /dev/null
  cmp -s "$tmp/analyze-mcdt.txt" "$tmp/analyze-jsonl.txt" ||
    fail "trace analyze reports differently on the .mcdt and JSONL forms of one run"
  "$bin" trace analyze "$tmp/sharded.mcdt" --episodes --worst 10 \
    --out "$dir/trace-episodes.txt" > /dev/null
  rm -rf "$tmp"
}

case "$mode" in
  --bless)
    rm -rf results/golden
    mkdir -p results/golden
    regenerate results/golden
    echo "golden: blessed $(ls results/golden | wc -l) reports into results/golden/"
    ;;
  --check)
    fresh=$(mktemp -d)
    trap 'rm -rf "$fresh"' EXIT
    regenerate "$fresh"
    if ! diff -ru results/golden "$fresh"; then
      echo "golden: MISMATCH — if intentional, run scripts/golden.sh --bless and commit" >&2
      exit 1
    fi
    echo "golden: OK ($(ls results/golden | wc -l) reports byte-identical)"
    ;;
  *)
    echo "usage: scripts/golden.sh [--check|--bless]" >&2
    exit 2
    ;;
esac
