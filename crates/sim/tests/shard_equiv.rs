//! Snapshot/restore ≡ uninterrupted execution.
//!
//! A machine paused at a shard boundary, serialized with
//! [`Machine::snapshot`], restored into a *freshly built* machine, and
//! run to completion must be indistinguishable from one uninterrupted
//! run — the shard-equivalence invariant the bench harness's sharded
//! sweeps and warm starts stand on. These properties segment the same
//! simulation at arbitrary boundaries (including degenerate and
//! back-to-back ones) and require:
//!
//! * an identical result fingerprint (instructions, simulated time,
//!   per-domain cycle counts and energy breakdowns down to the f64 bit
//!   pattern, stall/sync/relay counters, occupancy statistics), and
//! * an identical trace-event stream when a sink is attached, with
//!   segments stitched into one stream across restores.
//!
//! The suite also pins the *rejection* half of the contract: a snapshot
//! whose magic, format version, or config hash does not match the
//! restoring machine — or whose bytes were truncated — must fail with a
//! structural error, never restore into silently wrong state.

use mcd_baselines::{FeedbackDvsController, IntegralGainController};
use mcd_power::OpIndex;
use mcd_sim::{
    ControllerCtx, DomainId, DvfsAction, DvfsController, Machine, QueueSample, SimConfig,
    SimResult, SyncModel, TraceSink, VecSink,
};
use mcd_workloads::{registry, TraceGenerator};
use proptest::prelude::*;

/// A deliberately *stateful* controller: an occupancy-error integrator
/// whose every decision depends on the entire sample history. If
/// snapshot/restore dropped or mangled controller state, the restored
/// run's decisions — and with them frequencies, energies and sync
/// behavior — would diverge almost immediately.
#[derive(Debug)]
struct Integrator {
    acc: i64,
}

impl DvfsController for Integrator {
    fn on_sample(&mut self, ctx: &ControllerCtx<'_>, sample: QueueSample) -> Option<DvfsAction> {
        self.acc += sample.occupancy as i64 - (sample.capacity / 2) as i64;
        let want = if self.acc > 0 {
            OpIndex(300)
        } else {
            OpIndex(80)
        };
        (ctx.current != want).then_some(DvfsAction::Set(want))
    }
    fn name(&self) -> &'static str {
        "integrator"
    }
    fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        w.put_u64(self.acc as u64);
    }
    fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        self.acc = r.take_u64()? as i64;
        Ok(())
    }
}

/// Exact bit-level fingerprint of everything a report can observe
/// (kept in lockstep with `sched_equiv.rs`).
fn fingerprint(r: &SimResult) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let f = |x: f64| x.to_bits();
    writeln!(
        s,
        "instructions={} sim_time={}",
        r.instructions,
        r.sim_time.as_ps()
    )
    .unwrap();
    writeln!(s, "regulator_energy={}", f(r.regulator_energy.as_joules())).unwrap();
    writeln!(
        s,
        "peaks={:?} l1d={} l2={} bpred={}",
        r.queue_peaks,
        f(r.l1d_miss_rate),
        f(r.l2_miss_rate),
        f(r.mispredict_rate)
    )
    .unwrap();
    for d in &r.domains {
        writeln!(
            s,
            "{} cycles={} clk={} cmp={} mem={} pipe={} leak={} freq={} trans={}",
            d.domain,
            d.cycles,
            f(d.energy.clock.as_joules()),
            f(d.energy.compute.as_joules()),
            f(d.energy.memory.as_joules()),
            f(d.energy.pipeline.as_joules()),
            f(d.energy.leakage.as_joules()),
            f(d.mean_rel_freq),
            d.transitions
        )
        .unwrap();
    }
    let m = &r.metrics;
    writeln!(
        s,
        "samples={} events={} skipped={} occ_sum={:?} stalls={:?} sync={:?} fmin={:?} fmax={:?} slew={:?}",
        m.samples,
        m.events_processed,
        m.cycles_skipped,
        m.occupancy_sum,
        m.dispatch_stalls,
        m.sync_enqueues,
        m.fmin_cycles,
        m.fmax_cycles,
        m.transition_time_ps
    )
    .unwrap();
    writeln!(
        s,
        "dvfs={:?} up={:?} down={:?} arms={:?} fires={:?} resets={:?} rsum={:?} rcnt={:?}",
        m.dvfs_actions,
        m.freq_steps_up,
        m.freq_steps_down,
        m.relay_arms,
        m.relay_fires,
        m.relay_resets,
        m.reaction_sum_ps,
        m.reaction_count
    )
    .unwrap();
    writeln!(s, "hist={:?}", m.occupancy_hist).unwrap();
    writeln!(s, "occ={:?} retired={:?}", m.occupancy, m.retired_trace).unwrap();
    for bi in 0..3 {
        for p in &m.frequency[bi] {
            writeln!(s, "f[{bi}] {} {}", p.time.as_ps(), f(p.rel_freq)).unwrap();
        }
    }
    s
}

#[derive(Debug, Clone)]
struct Case {
    name: &'static str,
    ops: u64,
    seed: u64,
    jitter: bool,
    sync: SyncModel,
    traces: bool,
    /// Which backend controller drives the run: 0 = uncontrolled,
    /// 1 = the test-local [`Integrator`], 2 = the shipped integral-gain
    /// regulator, 3 = the shipped feedback-DVS scheme. Shipped
    /// controllers ride the same equivalence properties as the
    /// adversarially stateful one.
    controller: u8,
}

fn attach_controllers(mut m: Machine<TraceGenerator>, controller: u8) -> Machine<TraceGenerator> {
    for &d in &DomainId::BACKEND {
        m = match controller {
            0 => return m,
            1 => m.with_controller(d, Box::new(Integrator { acc: 0 })),
            2 => m.with_controller(d, Box::new(IntegralGainController::for_domain(d))),
            3 => m.with_controller(d, Box::new(FeedbackDvsController::for_domain(d))),
            other => panic!("unknown controller selector {other}"),
        };
    }
    m
}

fn cases() -> impl Strategy<Value = Case> {
    (
        proptest::sample::select(vec![
            "adpcm_encode",
            "adpcm_decode",
            "gzip",
            "mcf",
            "swim",
            "epic_decode",
        ]),
        2_000u64..12_000,
        0u64..64,
        any::<bool>(),
        proptest::sample::select(vec![SyncModel::Arbitration, SyncModel::TokenRing]),
        any::<bool>(),
        0u8..4,
    )
        .prop_map(|(name, ops, seed, jitter, sync, traces, controller)| Case {
            name,
            ops,
            seed,
            jitter,
            sync,
            traces,
            controller,
        })
}

fn build(case: &Case) -> Machine<TraceGenerator> {
    let spec = registry::by_name(case.name).expect("registered benchmark");
    let mut cfg = SimConfig {
        sync_model: case.sync,
        ..SimConfig::default()
    };
    if !case.jitter {
        cfg.jitter_sigma_ps = 0.0;
    }
    if case.traces {
        cfg = cfg.with_traces();
    }
    let m = Machine::new(cfg, TraceGenerator::new(&spec, case.ops, case.seed));
    attach_controllers(m, case.controller)
}

/// Runs `case` segmented at `boundaries` (retired-instruction counts, in
/// ascending order): at each boundary the machine is serialized, thrown
/// away, and the snapshot restored into a freshly built machine — the
/// exact lifecycle of a sharded sweep run. All segments stream into the
/// same `sink`.
fn run_segmented(case: &Case, boundaries: &[u64], sink: &mut dyn TraceSink) -> SimResult {
    let mut machine = build(case);
    for &b in boundaries {
        match machine.try_advance_traced(b, sink).expect("no divergence") {
            true => return machine.finish_traced(sink),
            false => {
                let snapshot = machine.snapshot();
                machine = build(case);
                machine.restore(&snapshot).expect("round-trip restores");
            }
        }
    }
    let done = machine
        .try_advance_traced(u64::MAX, sink)
        .expect("no divergence");
    assert!(done, "no boundary can precede u64::MAX retirements");
    machine.finish_traced(sink)
}

/// Ascending, possibly-duplicated boundaries inside the run (duplicates
/// exercise zero-progress segments: back-to-back snapshot/restore).
fn boundaries(ops: u64) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(1u64..2 * ops, 1..5).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Untraced runs segmented at arbitrary snapshot boundaries produce
    /// bit-identical observable results.
    #[test]
    fn segmented_run_matches_whole_run_untraced(
        case in cases(),
        cuts in proptest::collection::vec(1u64..24_000, 1..5),
    ) {
        let mut cuts = cuts;
        cuts.sort_unstable();
        let whole = build(&case).run();
        let segmented = run_segmented(&case, &cuts, &mut mcd_sim::NullSink);
        prop_assert_eq!(
            fingerprint(&whole),
            fingerprint(&segmented),
            "case {:?} cuts {:?}",
            case,
            cuts
        );
    }

    /// Traced runs stitch their per-segment streams into the identical
    /// event sequence an uninterrupted run emits: same events, same
    /// payloads, same order, across every restore.
    #[test]
    fn segmented_trace_stream_stitches_byte_identically(
        case in cases(),
        cuts in boundaries(12_000),
    ) {
        let mut whole_sink = VecSink::new();
        let mut seg_sink = VecSink::new();
        let whole = build(&case).run_traced(&mut whole_sink);
        let segmented = run_segmented(&case, &cuts, &mut seg_sink);
        prop_assert_eq!(fingerprint(&whole), fingerprint(&segmented), "case {:?}", case);
        let a: Vec<String> = whole_sink.into_events().iter().map(|e| e.to_json()).collect();
        let b: Vec<String> = seg_sink.into_events().iter().map(|e| e.to_json()).collect();
        prop_assert_eq!(a, b, "trace streams diverged for {:?} cuts {:?}", case, cuts);
    }
}

fn controlled_case() -> Case {
    Case {
        name: "gzip",
        ops: 8_000,
        seed: 7,
        jitter: true,
        sync: SyncModel::Arbitration,
        traces: false,
        controller: 1,
    }
}

/// A paused machine's snapshot restores into a *fresh* controller whose
/// internal integrator is back at zero — restore must reload it, or the
/// remaining decisions (and everything downstream of them) diverge.
#[test]
fn stateful_controller_round_trips_through_a_snapshot() {
    let case = controlled_case();
    let whole = build(&case).run();
    let segmented = run_segmented(&case, &[1_000, 2_500, 2_500, 6_000], &mut mcd_sim::NullSink);
    assert_eq!(fingerprint(&whole), fingerprint(&segmented));
}

/// Grabs a mid-run snapshot of the reference case.
fn mid_run_snapshot(case: &Case) -> Vec<u8> {
    let mut machine = build(case);
    let paused = machine.try_advance_traced(2_000, &mut mcd_sim::NullSink);
    assert_eq!(paused, Ok(false), "run pauses at the boundary");
    machine.snapshot()
}

#[test]
fn stale_format_version_is_rejected() {
    let case = controlled_case();
    let mut bytes = mid_run_snapshot(&case);
    // Layout: u32 magic, u32 format version, u64 config hash.
    bytes[4] ^= 0xFF;
    let err = build(&case).restore(&bytes).expect_err("version must gate");
    assert!(
        err.to_string().contains("snapshot format version"),
        "unexpected error: {err}"
    );
}

#[test]
fn corrupted_magic_is_rejected() {
    let case = controlled_case();
    let mut bytes = mid_run_snapshot(&case);
    bytes[0] ^= 0xFF;
    let err = build(&case).restore(&bytes).expect_err("magic must gate");
    assert!(
        err.to_string().contains("snapshot magic"),
        "unexpected error: {err}"
    );
}

/// A snapshot only restores into a machine built with the *same*
/// configuration: any knob that shapes simulation (here: the sync
/// model, then jitter) flips the embedded config hash.
#[test]
fn config_hash_mismatch_is_rejected() {
    let case = controlled_case();
    let bytes = mid_run_snapshot(&case);

    let mut other_sync = case.clone();
    other_sync.sync = SyncModel::TokenRing;
    let err = build(&other_sync)
        .restore(&bytes)
        .expect_err("sync model is part of the config hash");
    assert!(err.to_string().contains("config hash"), "got: {err}");

    let mut other_jitter = case.clone();
    other_jitter.jitter = false;
    let err = build(&other_jitter)
        .restore(&bytes)
        .expect_err("jitter sigma is part of the config hash");
    assert!(err.to_string().contains("config hash"), "got: {err}");
}

/// A jittered clock serializes `edges: u64, has_jitter: bool, chunk_idx:
/// u64, pos: u64`, and draws one jitter value per edge, so `chunk_idx ×
/// 4096 + pos == edges`. A cursor that breaks that is rejected before the
/// restore seeks to it: seeking generates every jitter chunk up to the
/// position, so a flipped high bit would cost unbounded time and memory.
#[test]
fn a_jitter_cursor_that_disagrees_with_its_edge_count_is_rejected() {
    let case = controlled_case();
    let mut bytes = mid_run_snapshot(&case);
    let u64_at = |b: &[u8], o: usize| u64::from_le_bytes(b[o..o + 8].try_into().unwrap());
    // The first (edges, true, chunk_idx, pos) run: the front-end clock's.
    let at = (0..bytes.len() - 25)
        .find(|&o| {
            let edges = u64_at(&bytes, o);
            edges > 0
                && bytes[o + 8] == 1
                && u64_at(&bytes, o + 9)
                    .checked_mul(4096)
                    .and_then(|x| x.checked_add(u64_at(&bytes, o + 17)))
                    == Some(edges)
        })
        .expect("a jittered clock's cursor");
    build(&case)
        .restore(&bytes)
        .expect("the snapshot as taken restores");
    let chunk = at + 9;
    let raised = u64_at(&bytes, chunk) + 64;
    bytes[chunk..chunk + 8].copy_from_slice(&raised.to_le_bytes());
    let err = build(&case)
        .restore(&bytes)
        .expect_err("a cursor past the clock's edges must not restore");
    assert!(err.to_string().contains("jitter cursor"), "got: {err}");
}

#[test]
fn truncated_snapshots_are_rejected_at_every_prefix_length() {
    let case = controlled_case();
    let bytes = mid_run_snapshot(&case);
    for cut in [0, 1, 4, 8, 16, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            build(&case).restore(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes must not restore"
        );
    }
}
