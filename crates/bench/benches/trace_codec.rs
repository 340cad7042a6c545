//! What a replay pays to read its recording: `crc32` throughput, and
//! per call the three reads `replay_episode` makes of a `.mcdt` file —
//! the index, the restored anchor, and the recorded segment from that
//! anchor to the events block holding the episode's close.
//!
//! The fixture is one adaptive `gzip` run of 100 k instructions, sharded
//! every 10 k and recorded in memory (the shape the benchmark's
//! `record-replay` workload replays).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcd_bench::runner::{RunConfig, RunSet, Scheme};
use mcd_trace::{crc32, read_anchor_at, read_index, read_segment, write_mcdt};

fn crc(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    for len in [64usize, 4 << 10, 1 << 20] {
        let buf: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.sample_size(20);
        group.bench_with_input(BenchmarkId::from_parameter(len), &buf, |b, buf| {
            b.iter(|| crc32(buf));
        });
    }
    group.finish();
}

fn replay_reads(c: &mut Criterion) {
    let rs = RunSet::new(1).with_tracing();
    let cfg = RunConfig::quick().with_ops(100_000).with_shard_ops(10_000);
    rs.run("gzip", Scheme::Adaptive, &cfg)
        .expect("run succeeds");
    let bytes = write_mcdt(&rs.drain_recordings().expect("tracing on"));
    let index = read_index(&bytes).expect("index decodes");
    let run = &index.runs[0];
    // The middle episode of the catalog, bounded as a replay bounds it.
    let ep = run.episodes[run.episodes.len() / 2];
    let from = run
        .anchors
        .iter()
        .rposition(|a| a.event_index <= ep.onset_event_index);
    let anchor = run.anchors[from.expect("a warm episode")];
    let to = (ep.close_event_index + 1).min(run.event_count);
    println!(
        "fixture: {} bytes, {} events, {} anchors, {} episodes; segment [{}, {to})",
        bytes.len(),
        run.event_count,
        run.anchors.len(),
        run.episodes.len(),
        anchor.event_index,
    );

    let mut group = c.benchmark_group("replay_reads");
    group.sample_size(20);
    group.bench_function("read_index", |b| b.iter(|| read_index(&bytes)));
    group.bench_function("read_anchor_at", |b| {
        b.iter(|| read_anchor_at(&bytes, anchor.offset))
    });
    group.throughput(Throughput::Elements(to - anchor.event_index));
    group.bench_function("read_segment", |b| {
        b.iter(|| read_segment(&bytes, &index, 0, from, to))
    });
    group.finish();
}

criterion_group!(benches, crc, replay_reads);
criterion_main!(benches);
