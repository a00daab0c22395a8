//! Figure 2 benchmarks: end-to-end LBA and DBI runs per lifeguard.
//!
//! Before timing, the harness prints the full Figure 2 panels (the paper's
//! reported series); Criterion then measures representative
//! benchmark × lifeguard × mode simulations.

use criterion::{criterion_group, criterion_main, Criterion};

use lba::experiment;
use lba::{
    run_dbi, run_lba, run_unmonitored, SystemConfig, ADDRCHECK, LOCKSET, MONITORS, TAINTCHECK,
};
use lba_bench::{render_fig2, render_summary};
use lba_workloads::Benchmark;

fn print_figures() {
    let config = SystemConfig::default();
    let mut summaries = Vec::new();
    for monitor in MONITORS.iter().filter(|m| m.figure2.is_some()) {
        let rows = experiment::figure2(monitor, &config, 1).expect("figure 2 panel");
        println!("{}", render_fig2(monitor, &rows));
        summaries.extend(experiment::summarize(monitor, &rows));
    }
    println!("{}", render_summary(&summaries));
}

fn bench_modes(c: &mut Criterion) {
    print_figures();
    let config = SystemConfig::default();
    let pairs = [
        (Benchmark::Gzip, ADDRCHECK),
        (Benchmark::Gzip, TAINTCHECK),
        (Benchmark::Water, LOCKSET),
    ];
    let mut group = c.benchmark_group("fig2_lifeguards");
    group.sample_size(10);
    let mut baselines_done = std::collections::HashSet::new();
    for (benchmark, monitor) in pairs {
        let program = benchmark.build();
        // Benchmark IDs must be unique: gzip appears with two lifeguards,
        // but its unmonitored baseline only needs timing once.
        if baselines_done.insert(benchmark) {
            group.bench_function(format!("unmonitored/{benchmark}"), |b| {
                b.iter(|| run_unmonitored(&program, &config).expect("runs"))
            });
        }
        group.bench_function(format!("lba/{}/{benchmark}", monitor.name), |b| {
            b.iter(|| {
                let mut lg = (monitor.make)();
                run_lba(&program, lg.as_mut(), &config).expect("runs")
            })
        });
        group.bench_function(format!("dbi/{}/{benchmark}", monitor.name), |b| {
            b.iter(|| {
                let mut lg = (monitor.make_dbi)();
                run_dbi(&program, lg.as_mut(), &config).expect("runs")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_modes);
criterion_main!(benches);
