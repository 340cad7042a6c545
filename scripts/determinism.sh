#!/usr/bin/env bash
# Determinism gate: reports must be byte-identical whatever the worker
# count — each simulation is single-threaded and deterministic;
# parallelism only reorders wall-clock. `headline` alone is one driver;
# `headline table2` is two drivers submitting to one run set at once,
# sharing its run permits and its baseline memo.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=target/release/repro
if [[ ! -x "$bin" ]]; then
  cargo build --release --workspace
fi

ref=$(mktemp)
other=$(mktemp)
trap 'rm -f "$ref" "$other"' EXIT

for experiments in "headline" "headline table2"; do
  # shellcheck disable=SC2086 # one word per experiment
  "$bin" $experiments --quick --jobs 1 > "$ref"
  for jobs in 2 8; do
    # shellcheck disable=SC2086
    "$bin" $experiments --quick --jobs "$jobs" > "$other"
    if ! cmp "$ref" "$other"; then
      echo "determinism: '$experiments --quick' differs between --jobs 1 and --jobs $jobs" >&2
      exit 1
    fi
  done
done
echo "determinism: OK (headline and headline+table2 --quick byte-identical at 1, 2 and 8 jobs)"
