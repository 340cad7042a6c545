//! The harness's parallelism must be observably free: every simulation is
//! single-threaded and deterministic, so fanning runs across workers can
//! change only wall-clock time, never a result. These tests pin that down
//! to the bit.

use mcd_bench::parallel::par_map;
use mcd_bench::{RunConfig, RunSet, Scheme};

/// The same (benchmark, scheme) runs through a serial and a 4-worker
/// `par_map` produce bit-identical simulation results.
#[test]
fn parallel_runs_match_serial_runs_bit_for_bit() {
    let cfg = RunConfig::quick().with_ops(20_000);
    let tasks: Vec<&str> = vec!["gzip", "swim"];
    let run_all = |jobs: usize| {
        par_map(jobs, tasks.clone(), |name| {
            mcd_bench::runner::run(name, Scheme::Adaptive, &cfg).expect("valid run")
        })
    };
    let serial = run_all(1);
    let parallel = run_all(4);
    assert_eq!(serial.len(), parallel.len());
    for (name, (s, p)) in tasks.iter().zip(serial.iter().zip(&parallel)) {
        assert_eq!(s.sim_time, p.sim_time, "{name}: sim_time diverged");
        assert_eq!(
            s.instructions, p.instructions,
            "{name}: instruction count diverged"
        );
        assert_eq!(
            s.total_energy().as_joules().to_bits(),
            p.total_energy().as_joules().to_bits(),
            "{name}: total energy diverged"
        );
    }
}

/// A full experiment report is byte-identical whatever the worker count:
/// `par_map` returns results in input order, and the baseline memo cache
/// only changes *when* a baseline is simulated, not its result.
#[test]
fn headline_report_is_byte_identical_across_worker_counts() {
    let cfg = RunConfig::quick().with_ops(10_000);
    let serial = mcd_bench::experiments::run_on(&RunSet::new(1), "fig9", &cfg);
    let parallel = mcd_bench::experiments::run_on(&RunSet::new(8), "fig9", &cfg);
    assert_eq!(serial, parallel);
}

/// The baseline memo cache answers repeated requests without re-running,
/// and cached results are shared, not recomputed.
#[test]
fn baseline_cache_dedupes_repeat_requests() {
    let cfg = RunConfig::quick().with_ops(5_000);
    let rs = RunSet::new(4);
    let first = rs.baseline("gzip", &cfg).expect("valid run");
    let again = rs.baseline("gzip", &cfg).expect("valid run");
    assert_eq!(first.sim_time, again.sim_time);
    let stats = rs.stats();
    assert_eq!(stats.runs, 1, "second request must hit the cache");
    assert_eq!(
        stats.baseline_requests, 2,
        "every lookup counts as a request"
    );

    // A controller-only knob must not split the cache key...
    let mut pid_cfg = cfg.clone();
    pid_cfg.pid_interval *= 2;
    let _ = rs.baseline("gzip", &pid_cfg);
    assert_eq!(rs.stats().runs, 1, "pid_interval must not split the key");

    // ...but anything that changes the simulated machine must.
    let mut traced = cfg.clone();
    traced.traces = true;
    let _ = rs.baseline("gzip", &traced);
    assert_eq!(rs.stats().runs, 2, "traces flag must split the key");
}

/// An experiment record has one meaning wherever it is built: the
/// counters `experiments::complete` returns for an experiment alone on a
/// fresh one-worker set (how the service runs it) equal the ones it
/// returns inside a two-driver concurrent sweep on a shared set (how
/// `repro` runs it). Memoized baseline computes land on whichever
/// experiment's run first asks, so they must count in neither record.
#[test]
fn records_count_the_same_alone_and_inside_a_shared_sweep() {
    use mcd_bench::checkpoint::CompletedRun;
    use mcd_bench::experiments::complete;

    let cfg = RunConfig::quick().with_ops(20_000);
    let ids = vec!["fig9", "table2"];
    let counters = |r: &CompletedRun| {
        (
            r.runs,
            r.instructions,
            r.baseline_requests,
            r.events_processed,
            r.cycles_skipped,
        )
    };
    let alone: Vec<_> = ids
        .iter()
        .map(|id| counters(&complete(&RunSet::new(1), id, &cfg).expect("valid run")))
        .collect();
    let shared = RunSet::new(2);
    let swept: Vec<_> = par_map(2, ids.clone(), |id| {
        counters(&complete(&shared, id, &cfg).expect("valid run"))
    });
    assert_eq!(alone, swept);
    assert_eq!(alone[0].0, 17, "fig9 counts its adaptive runs only");
    assert_eq!(alone[1].0, 0, "table2 runs only memoized baselines");
    assert_eq!(alone[1].2, 17, "but its baseline requests count");
}
