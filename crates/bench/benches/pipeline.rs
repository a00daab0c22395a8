//! End-to-end pipeline throughput: events/sec through `run_lba` and
//! `run_live` for all four lifeguards; the sharded `run_live_parallel`
//! series across shard counts for the lifeguards that support address
//! interleaving; plus the isolated `pop_frame`+`deliver_batch`
//! consumption path.
//!
//! `cargo bench -p lba-bench --bench pipeline` prints a median-of-N summary
//! before the Criterion samples; `cargo bench -p lba-bench -- --test` runs
//! everything once as a smoke check (see the vendored criterion's test
//! mode).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use lba::{run_lba, run_live, run_live_parallel, SystemConfig};
use lba_bench::pipeline::{self, PipelineRow, SHARD_COUNTS};
use lba_workloads::Benchmark;

fn bench_pipeline(c: &mut Criterion) {
    let samples = if criterion::is_test_mode() { 1 } else { 5 };

    // Headline summary, printed before the Criterion samples: median-of-N
    // events/sec for every mode × lifeguard.
    let rows = pipeline::measure_pipeline(samples);
    println!("{}", pipeline::render_pipeline(&rows));

    let records: u64 = rows.iter().find(|r| r.records > 0).map_or(0, |r| r.records);
    let program = Benchmark::Gzip.build();
    let cfg = SystemConfig::default();

    let mut group = c.benchmark_group("pipeline");
    group
        .sample_size(samples)
        .throughput(Throughput::Elements(records));
    for PipelineRow {
        mode, lifeguard, ..
    } in rows
        .iter()
        .filter(|r| (r.mode == "lba" || r.mode == "live") && r.window == 0)
    {
        let id = format!("{mode}_{lifeguard}");
        let make = pipeline::lifeguards()
            .into_iter()
            .find(|(name, _)| name == lifeguard)
            .expect("known lifeguard")
            .1;
        let cfg = &cfg;
        let program = &program;
        if *mode == "lba" {
            group.bench_function(id, |b| {
                b.iter(|| {
                    let mut lg = make();
                    run_lba(program, lg.as_mut(), cfg)
                        .expect("runs")
                        .log
                        .records
                })
            });
        } else {
            group.bench_function(id, |b| {
                b.iter(|| {
                    let mut lg = make();
                    run_live(program, lg.as_mut(), cfg)
                        .expect("runs")
                        .log
                        .records
                })
            });
        }
    }
    group.finish();

    // The sharded live pipeline: 1 producer + N consumer threads, each
    // shard decoding its own compressed frame stream.
    let mut group = c.benchmark_group("live_parallel");
    group
        .sample_size(samples)
        .throughput(Throughput::Elements(records));
    for (name, make) in pipeline::sharded_lifeguards() {
        for shards in SHARD_COUNTS {
            let cfg = &cfg;
            let program = &program;
            group.bench_function(format!("{name}_x{shards}"), |b| {
                b.iter(|| {
                    // Retired records, not per-shard shipped records: the
                    // group's Throughput::Elements is the single-stream
                    // count, and broadcasts are transport duplication.
                    run_live_parallel(program, make, shards, cfg)
                        .expect("runs")
                        .trace
                        .instructions()
                })
            });
        }
    }
    group.finish();

    // The filtered pipeline: the capture-side idempotency window on, for
    // the one lifeguard pair that shows both contracts (AddrCheck drops
    // duplicates outright, MemProfile folds them into Repeat summaries).
    let mut group = c.benchmark_group("filtered");
    group
        .sample_size(samples)
        .throughput(Throughput::Elements(records));
    for (name, make) in pipeline::idempotent_lifeguards()
        .into_iter()
        .filter(|(name, _)| *name == "addrcheck" || *name == "memprofile")
    {
        let mut cfg = SystemConfig::default();
        cfg.log.idempotency_window = pipeline::IDEMPOTENT_WINDOW;
        let program = &program;
        group.bench_function(format!("lba_{name}_window"), |b| {
            b.iter(|| {
                let mut lg = make();
                run_lba(program, lg.as_mut(), &cfg)
                    .expect("runs")
                    .log
                    .records
            })
        });
    }
    group.finish();

    // The isolated consumption path: a pre-captured stream through the
    // channel fill and the frame-granular consume loop.
    let stream = pipeline::capture_stream();
    let mut group = c.benchmark_group("consume");
    group
        .sample_size(samples)
        .throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("addrcheck_frames", |b| {
        b.iter(|| pipeline::consume_frames(&stream))
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
