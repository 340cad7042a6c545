#!/usr/bin/env python3
"""Benchmark-regression gate.

Compares a freshly produced `repro all --quick --bench-out` record against
the checked-in reference (results/bench_sim.json).

Exact comparisons — these are deterministic counts, so any drift means the
workload actually changed:
  * total_runs, total_instructions, total_baseline_requests
  * total_events_processed, total_cycles_skipped (the event-driven
    scheduler dispatches a deterministic event sequence, so its dispatch
    and skip counters are as reproducible as instruction counts)
  * per-experiment runs, instructions, baseline_requests, kind,
    events_processed and cycles_skipped
  * analysis-kind experiments must report zero runs
  * every field of each domain's controller_activity object (relay
    arms/fires/resets, frequency steps, sync stalls, f_min/f_max cycles,
    slew time, and mean_reaction_ns, which is printed from exact integer
    sums and counts)

Wall-clock is compared within a generous tolerance (CI machines vary
wildly); the default allows the fresh run to take up to WALL_TOLERANCE
times the reference total. Simulated throughput is gated the same way but
as a ratio: aggregate_simulated_mips must stay above MIPS_FLOOR times the
reference figure — an absolute MIPS threshold would encode one machine's
speed, a ratio floor catches a real simulator slowdown on any machine.
The sweep wall tail is gated the same way: each simulation experiment's
run_wall_p99_s must stay under WALL_P99_TOLERANCE times the reference
figure, so a change that serializes runs or bloats one run's wall time
(the thing run-granularity sharding exists to cut) fails loudly even
when the aggregate stays within budget.

The per-experiment wall quantiles are also sanity-checked for shape
(present, non-negative, p50 <= p99). The derived
cycles_skipped_per_event field is checked for consistency with the two
exact counters it is computed from.

A record missing a gated field (e.g. a reference written by an older
binary, before a schema rename) is a hard, named failure — never a
Python traceback, and never silently passed over: the fix is to
re-baseline the reference, and the message says so.

With --http, the inputs are instead mcd-bench-http records (the
checked-in reference is results/bench_http.json) and the gate shifts
from simulation counters to serving SLOs:

Hard invariants on the fresh record — machine-independent, any failure
means the serving path broke:
  * every phase: errors == 0, resets == 0, unexpected_status == 0
  * the phase set matches the reference (keepalive + oneshot)
  * keepalive reuse_ratio >= REUSE_FLOOR (connections actually persist)
  * oneshot reuse_ratio <= 1 (the baseline stayed a baseline)

Tolerance comparisons — CI machines vary, so these are ratios/slack
against the reference, overridable via environment:
  * p99_us <= reference p99 * HTTP_P99_TOLERANCE   (default 5.0)
  * shed_rate <= reference shed_rate + HTTP_SHED_SLACK (default 0.10)
  * achieved_rps >= reference achieved_rps * HTTP_RPS_FLOOR (default 0.5)

Usage: bench_gate.py REFERENCE FRESH
       bench_gate.py --http REFERENCE FRESH
"""

import json
import os
import sys

WALL_TOLERANCE = float(os.environ.get("WALL_TOLERANCE", "4.0"))
# Regression floor on simulated MIPS, as a fraction of the reference
# figure. The inverse of WALL_TOLERANCE by default: the two express the
# same budget, one in wall time and one in throughput.
MIPS_FLOOR = float(os.environ.get("MIPS_FLOOR", str(1.0 / WALL_TOLERANCE)))
# Ceiling on each simulation experiment's run_wall_p99_s, as a multiple
# of the reference figure. Shares WALL_TOLERANCE's default: the same
# machine-variance budget, applied to the tail instead of the total.
WALL_P99_TOLERANCE = float(os.environ.get("WALL_P99_TOLERANCE", str(WALL_TOLERANCE)))

HTTP_P99_TOLERANCE = float(os.environ.get("HTTP_P99_TOLERANCE", "5.0"))
HTTP_SHED_SLACK = float(os.environ.get("HTTP_SHED_SLACK", "0.10"))
HTTP_RPS_FLOOR = float(os.environ.get("HTTP_RPS_FLOOR", "0.5"))
REUSE_FLOOR = float(os.environ.get("REUSE_FLOOR", "5.0"))

EXACT_TOTALS = [
    "total_runs",
    "total_instructions",
    "total_baseline_requests",
    "total_events_processed",
    "total_cycles_skipped",
]
EXACT_FIELDS = [
    "kind",
    "runs",
    "instructions",
    "baseline_requests",
    "events_processed",
    "cycles_skipped",
]

# The controller bake-off matrix and its companion resonance sweep are
# shape-checked only: their record blocks must exist (with the same
# EXACT_FIELDS every experiment gets), but no matrix-specific value is
# ever gated — rankings shift whenever a controller is tuned, and that
# is the matrix doing its job, not a regression. A reference written
# before the matrix existed fails here by name instead of drowning in
# set-difference noise.
MATRIX_EXPERIMENTS = ["bakeoff", "resonance"]

# The flight recorder's bench-out block. Shape-checked only: the fields
# must exist with non-negative numeric values (a reference written
# before the recorder existed fails here by name), but the values are
# not gated — encode timings are machine-dependent and byte counts are
# zero unless the run also traced.
TRACE_RECORDER_FIELDS = [
    "events",
    "episodes",
    "jsonl_bytes",
    "mcdt_bytes",
    "jsonl_encode_ns_per_event",
    "mcdt_encode_ns_per_event",
]

# Every field the HTTP gate reads from a phase record. Checked up front
# so an old-schema record fails with its missing fields named instead of
# a KeyError traceback mid-comparison.
HTTP_PHASE_FIELDS = [
    "requests",
    "errors",
    "resets",
    "unexpected_status",
    "p99_us",
    "shed_rate",
    "achieved_rps",
    "reuse_ratio",
]


def load(path):
    with open(path) as f:
        return json.load(f)


def missing_fields(record, fields):
    return [k for k in fields if k not in record]


def gate_controller_activity(ref, fresh):
    """Exact per-domain comparison of the controller counters; returns
    error strings."""
    blocks = [rec.get("controller_activity") for rec in (ref, fresh)]
    errors = [
        f"{label} record has no controller_activity list — old-schema "
        f"record; re-baseline it (repro all --quick --bench-out)"
        for label, block in zip(("reference", "fresh"), blocks)
        if not isinstance(block, list)
    ]
    if errors:
        return errors
    ref_domains, fresh_domains = blocks
    if len(ref_domains) != len(fresh_domains):
        return [
            f"controller_activity: reference has {len(ref_domains)} domains, "
            f"fresh has {len(fresh_domains)}"
        ]
    for r, f in zip(ref_domains, fresh_domains):
        domain = r.get("domain")
        for key in sorted(set(r) | set(f)):
            if key not in r or key not in f:
                side = "fresh" if key in r else "reference"
                errors.append(f"controller_activity.{domain}.{key}: missing from {side}")
            elif r[key] != f[key]:
                errors.append(
                    f"controller_activity.{domain}.{key}: reference "
                    f"{r[key]!r} != fresh {f[key]!r}"
                )
    return errors


def gate_http(ref, fresh):
    """SLO gate over two mcd-bench-http records; returns error strings."""
    errors = []
    for label, rec in (("reference", ref), ("fresh", fresh)):
        if not isinstance(rec.get("phases"), list):
            errors.append(
                f"{label} record has no 'phases' list — not an "
                f"mcd-bench-http record (old schema? re-baseline it)"
            )
    if errors:
        return errors
    ref_phases = {p["mode"]: p for p in ref["phases"] if "mode" in p}
    fresh_phases = {p["mode"]: p for p in fresh["phases"] if "mode" in p}
    if set(ref_phases) != set(fresh_phases):
        errors.append(
            f"phase sets differ: reference={sorted(ref_phases)} "
            f"fresh={sorted(fresh_phases)}"
        )

    for mode in sorted(set(ref_phases) & set(fresh_phases)):
        r, f = ref_phases[mode], fresh_phases[mode]
        bad_schema = False
        for label, rec in (("reference", r), ("fresh", f)):
            missing = missing_fields(rec, HTTP_PHASE_FIELDS)
            if missing:
                errors.append(
                    f"{mode}: {label} phase is missing {missing} — "
                    f"old-schema record; re-baseline it"
                )
                bad_schema = True
        if bad_schema:
            continue
        if f["requests"] == 0:
            errors.append(f"{mode}: zero requests completed")
            continue
        for hard in ("errors", "resets", "unexpected_status"):
            if f[hard] != 0:
                errors.append(f"{mode}: {hard} = {f[hard]} (must be 0)")
        # A zero-throughput reference can't anchor a ratio: every p99
        # passes a 0-based budget and every rps clears a 0 floor. That is
        # a broken baseline, not a pass.
        if r["p99_us"] <= 0 or r["achieved_rps"] <= 0:
            errors.append(
                f"{mode}: reference p99_us={r['p99_us']} "
                f"achieved_rps={r['achieved_rps']} — a zero-throughput "
                f"reference cannot anchor ratio gates; re-baseline it"
            )
            continue
        p99_budget = r["p99_us"] * HTTP_P99_TOLERANCE
        if f["p99_us"] > p99_budget:
            errors.append(
                f"{mode}: p99 {f['p99_us']}us exceeds "
                f"{HTTP_P99_TOLERANCE:.1f}x reference ({p99_budget:.0f}us)"
            )
        shed_budget = r["shed_rate"] + HTTP_SHED_SLACK
        if f["shed_rate"] > shed_budget:
            errors.append(
                f"{mode}: shed_rate {f['shed_rate']:.4f} exceeds "
                f"reference + slack ({shed_budget:.4f})"
            )
        rps_floor = r["achieved_rps"] * HTTP_RPS_FLOOR
        if f["achieved_rps"] < rps_floor:
            errors.append(
                f"{mode}: achieved {f['achieved_rps']:.1f} rps below "
                f"{HTTP_RPS_FLOOR:.2f}x reference ({rps_floor:.1f} rps)"
            )

    keepalive = fresh_phases.get("keepalive")
    if keepalive and keepalive["reuse_ratio"] < REUSE_FLOOR:
        errors.append(
            f"keepalive: reuse_ratio {keepalive['reuse_ratio']:.2f} below "
            f"the {REUSE_FLOOR:.1f}x floor — connections are not persisting"
        )
    oneshot = fresh_phases.get("oneshot")
    if oneshot and oneshot["reuse_ratio"] > 1.0 + 1e-9:
        errors.append(
            f"oneshot: reuse_ratio {oneshot['reuse_ratio']:.2f} above 1 — "
            f"the baseline phase reused connections"
        )
    return errors


def main_http(ref_path, fresh_path):
    ref = load(ref_path)
    fresh = load(fresh_path)
    errors = gate_http(ref, fresh)
    if errors:
        print("load gate: FAIL", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        sys.exit(1)
    phases = {p["mode"]: p for p in fresh["phases"]}
    summary = ", ".join(
        f"{mode} {p['requests']} reqs p99 {p['p99_us'] / 1000.0:.1f}ms "
        f"shed {p['shed_rate']:.2%} reuse {p['reuse_ratio']:.1f}x"
        for mode, p in sorted(phases.items())
    )
    print(f"load gate: OK ({summary})")


def main():
    args = sys.argv[1:]
    if args and args[0] == "--http":
        if len(args) != 3:
            sys.exit(f"usage: {sys.argv[0]} --http REFERENCE FRESH")
        main_http(args[1], args[2])
        return
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} [--http] REFERENCE FRESH")
    ref = load(sys.argv[1])
    fresh = load(sys.argv[2])
    errors = []

    for label, rec in (("reference", ref), ("fresh", fresh)):
        missing = missing_fields(
            rec, EXACT_TOTALS + ["total_wall_s", "aggregate_simulated_mips"]
        )
        if missing:
            print("bench gate: FAIL", file=sys.stderr)
            print(
                f"  {label} record is missing {missing} — old-schema "
                f"record; re-baseline it (repro all --quick --bench-out)",
                file=sys.stderr,
            )
            sys.exit(1)

    for key in EXACT_TOTALS:
        if ref[key] != fresh[key]:
            errors.append(f"{key}: reference {ref[key]} != fresh {fresh[key]}")

    for label, rec in (("reference", ref), ("fresh", fresh)):
        tr = rec.get("trace_recorder")
        if not isinstance(tr, dict):
            errors.append(
                f"{label} record has no trace_recorder block — old-schema "
                f"record (pre-flight-recorder); re-baseline it "
                f"(repro all --quick --bench-out)"
            )
            continue
        missing = missing_fields(tr, TRACE_RECORDER_FIELDS)
        if missing:
            errors.append(
                f"{label} trace_recorder block is missing {missing} — "
                f"old-schema record; re-baseline it"
            )
            continue
        bad = [
            k
            for k in TRACE_RECORDER_FIELDS
            if not isinstance(tr[k], (int, float)) or tr[k] < 0
        ]
        if bad:
            errors.append(
                f"{label} trace_recorder fields {bad} must be "
                f"non-negative numbers"
            )

    errors += gate_controller_activity(ref, fresh)

    ref_exps = {e["experiment"]: e for e in ref["experiments"]}
    fresh_exps = {e["experiment"]: e for e in fresh["experiments"]}
    for name in MATRIX_EXPERIMENTS:
        for label, exps in (("reference", ref_exps), ("fresh", fresh_exps)):
            if name not in exps:
                errors.append(
                    f"{name}: {label} record has no block for it — "
                    f"old-schema record (pre-bakeoff matrix); re-baseline "
                    f"it (repro all --quick --bench-out)"
                )
    if set(ref_exps) != set(fresh_exps):
        errors.append(
            f"experiment sets differ: only-reference={sorted(set(ref_exps) - set(fresh_exps))} "
            f"only-fresh={sorted(set(fresh_exps) - set(ref_exps))}"
        )
    for name in sorted(set(ref_exps) & set(fresh_exps)):
        r, f = ref_exps[name], fresh_exps[name]
        bad_schema = False
        for label, rec in (("reference", r), ("fresh", f)):
            missing = missing_fields(rec, EXACT_FIELDS)
            if missing:
                errors.append(
                    f"{name}: {label} record is missing {missing} — "
                    f"old-schema record; re-baseline it"
                )
                bad_schema = True
        if bad_schema:
            continue
        for key in EXACT_FIELDS:
            if r[key] != f[key]:
                errors.append(f"{name}.{key}: reference {r[key]!r} != fresh {f[key]!r}")
        if f["kind"] == "analysis" and f["runs"] != 0:
            errors.append(f"{name}: analysis experiment reports {f['runs']} runs")
        p50, p99 = f.get("run_wall_p50_s"), f.get("run_wall_p99_s")
        if p50 is None or p99 is None:
            errors.append(f"{name}: missing run_wall_p50_s/run_wall_p99_s")
        elif p50 < 0 or p99 < 0 or p50 > p99:
            errors.append(f"{name}: malformed wall quantiles p50={p50} p99={p99}")
        elif f["kind"] == "simulation":
            # The tail gate: sharding splits long runs into segments, so
            # the per-run (per-segment) wall p99 must stay in the same
            # ballpark as the reference. A reference tail of 0 (a run too
            # fast to measure) can't anchor a ratio and is skipped.
            ref_p99 = r.get("run_wall_p99_s")
            if ref_p99 is not None and ref_p99 > 0:
                p99_budget = ref_p99 * WALL_P99_TOLERANCE
                if p99 > p99_budget:
                    errors.append(
                        f"{name}: run_wall_p99_s {p99:.3f}s exceeds "
                        f"{WALL_P99_TOLERANCE:.1f}x reference ({p99_budget:.3f}s)"
                    )
        spe = f.get("cycles_skipped_per_event")
        want = f["cycles_skipped"] / f["events_processed"] if f["events_processed"] else 0.0
        if spe is None or abs(spe - want) > 0.005 + 1e-9:
            errors.append(
                f"{name}: cycles_skipped_per_event {spe} inconsistent with "
                f"counters (expected ~{want:.2f})"
            )

    budget = ref["total_wall_s"] * WALL_TOLERANCE
    if fresh["total_wall_s"] > budget:
        errors.append(
            f"total_wall_s {fresh['total_wall_s']:.3f}s exceeds "
            f"{WALL_TOLERANCE:.1f}x reference ({budget:.3f}s)"
        )

    ref_mips = ref["aggregate_simulated_mips"]
    fresh_mips = fresh["aggregate_simulated_mips"]
    mips_ratio = fresh_mips / ref_mips if ref_mips > 0 else float("inf")
    if mips_ratio < MIPS_FLOOR:
        errors.append(
            f"aggregate_simulated_mips {fresh_mips:.2f} is "
            f"{mips_ratio:.2f}x the reference ({ref_mips:.2f}); "
            f"floor is {MIPS_FLOOR:.2f}x"
        )

    if errors:
        print("bench gate: FAIL", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        sys.exit(1)
    skipped = fresh["total_cycles_skipped"]
    events = fresh["total_events_processed"]
    print(
        f"bench gate: OK ({fresh['total_runs']} runs, "
        f"{fresh['total_instructions']} instructions, "
        f"wall {fresh['total_wall_s']:.1f}s <= {budget:.1f}s budget, "
        f"{fresh_mips:.2f} MIPS = {mips_ratio:.2f}x reference, "
        f"{skipped / max(events, 1):.2f} cycles skipped per event)"
    )


if __name__ == "__main__":
    main()
