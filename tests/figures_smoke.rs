//! Shape assertions on the reproduced figures: the relationships the paper
//! reports must hold in our reproduction (who wins, by roughly what
//! factor), even though absolute numbers come from our substitute
//! substrate (EXPERIMENTS.md).

use lba::experiment::{self, summarize};
use lba::{MonitorSpec, Run, RunMode, SystemConfig, ADDRCHECK, LOCKSET, MONITORS, TAINTCHECK};

fn config() -> SystemConfig {
    SystemConfig::default()
}

#[test]
fn figure2_lockset_panel_shape() {
    let rows = experiment::figure2(&LOCKSET, &config(), 1).unwrap();
    assert_eq!(rows.len(), 2, "water and zchaff");
    for row in &rows {
        // Valgrind lifeguards incur large slowdowns…
        assert!(
            row.valgrind > 8.0,
            "{}: valgrind only {:.1}x",
            row.benchmark,
            row.valgrind
        );
        // …and LBA is markedly faster, though still a slowdown.
        assert!(row.lba > 1.5, "{}: lba suspiciously fast", row.benchmark);
        assert!(
            row.speedup() > 2.0,
            "{}: speedup {:.1}x too small",
            row.benchmark,
            row.speedup()
        );
    }
}

#[test]
fn figure2_addrcheck_panel_shape() {
    let rows = experiment::figure2(&ADDRCHECK, &config(), 1).unwrap();
    assert_eq!(rows.len(), 7);
    let summary = summarize(&ADDRCHECK, &rows).expect("addrcheck has a panel");
    // Paper: 3.9x average; we accept the band around it.
    assert!(
        (2.0..6.5).contains(&summary.lba_avg),
        "AddrCheck LBA average {:.1}x out of band",
        summary.lba_avg
    );
    // Paper: Valgrind 10-85x band (averages well above LBA).
    assert!(summary.valgrind_avg > 3.0 * summary.lba_avg);
    // Paper: LBA lifeguards are 4-19x faster than Valgrind lifeguards.
    assert!(
        summary.speedup_min > 2.5,
        "min speedup {:.1}",
        summary.speedup_min
    );
    assert!(
        summary.speedup_max < 25.0,
        "max speedup {:.1}",
        summary.speedup_max
    );
}

#[test]
fn lifeguard_cost_ordering_matches_paper() {
    // Paper §3: AddrCheck 3.9x < TaintCheck 4.8x < LockSet 9.7x.
    let lba_avg = |monitor: &'static MonitorSpec| {
        let rows = experiment::figure2(monitor, &config(), 1).unwrap();
        summarize(monitor, &rows).expect("a Figure 2 panel").lba_avg
    };
    let (addr, taint, lock) = (lba_avg(&ADDRCHECK), lba_avg(&TAINTCHECK), lba_avg(&LOCKSET));
    assert!(
        addr < taint && taint < lock,
        "ordering violated: {addr:.1} / {taint:.1} / {lock:.1}"
    );
}

#[test]
fn builder_dbi_mode_is_the_figure2_dbi_baseline() {
    // `Run`'s DBI mode and Figure 2's Valgrind bars run one instance, the
    // registry row's `make_dbi` (LockSet recomputes its locksets in
    // software), so they report the same cycles: over the same
    // unmonitored run, the same slowdown to the bit, on every panel's
    // every benchmark.
    let config = config();
    let mut diverged = Vec::new();
    for monitor in MONITORS.iter().filter(|m| m.figure2.is_some()) {
        for row in experiment::figure2(monitor, &config, 1).unwrap() {
            let program = row.benchmark.build_scaled(1);
            let run = |mode| {
                Run::new(&program)
                    .mode(mode)
                    .monitor(monitor)
                    .config(&config)
                    .run()
                    .unwrap()
            };
            let dbi = run(RunMode::Dbi).slowdown_vs(&run(RunMode::Unmonitored));
            if dbi != row.valgrind {
                diverged.push(format!(
                    "{} on {}: builder {dbi:.2}x, figure 2 {:.2}x",
                    monitor.name, row.benchmark, row.valgrind
                ));
            }
        }
    }
    assert!(diverged.is_empty(), "DBI runs diverge: {diverged:?}");
}

#[test]
fn compression_average_is_below_one_byte_per_instruction() {
    let rows = experiment::compression_table(&config(), 1).unwrap();
    let avg: f64 = rows.iter().map(|r| r.bytes_per_instruction).sum::<f64>() / rows.len() as f64;
    assert!(avg < 1.0, "average {avg:.3} B/inst");
    for row in &rows {
        assert!(
            row.bytes_per_instruction < 1.0,
            "{}: {:.3}",
            row.benchmark,
            row.bytes_per_instruction
        );
    }
}

#[test]
fn filtering_extension_reduces_slowdown_without_losing_soundness() {
    let rows = experiment::ext_filtering(&config(), 1).unwrap();
    for row in &rows {
        assert!(
            row.filtered <= row.unfiltered + 1e-9,
            "{}: filtering must not slow things down",
            row.benchmark
        );
        assert!(
            row.dropped_fraction > 0.0,
            "{}: nothing dropped",
            row.benchmark
        );
    }
}

#[test]
fn bench_pipeline_trajectory_has_every_series() {
    // The committed `BENCH_pipeline.json` is the host-throughput ledger
    // the `figures` bin regenerates each PR. The shape validation —
    // every series present, every row fully keyed, the filtered series
    // demonstrably shipping fewer records/wire bits, TaintCheck out of
    // the sharded and filtered series — lives in
    // `lba_bench::pipeline::validate_trajectory`, shared with the
    // `figures --bench-smoke` CI gate so the two cannot drift.
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_pipeline.json"))
        .expect("committed BENCH_pipeline.json at the repo root");
    lba_bench::pipeline::validate_trajectory(&json).expect("committed trajectory validates");
    let keys = lba_bench::pipeline::trajectory_keys(&json).expect("rows parse");
    assert!(keys.len() >= 30, "expected the full matrix, got {keys:?}");
    // One sample per row cannot tell a change from scheduler jitter: the
    // committed rates are medians of at least five interleaved rounds.
    let samples = lba_bench::pipeline::trajectory_samples(&json).expect("samples header");
    assert!(samples >= 5, "committed rates rest on {samples} sample(s)");
}

#[test]
fn committed_paper_tables_are_a_scale_1_run() {
    // `figures` writes `BENCH_paper.txt` at scale 1 only, and
    // `figures --bench-smoke` compares a fresh scale-1 rendering with it
    // byte for byte.
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_paper.txt"))
        .expect("committed BENCH_paper.txt at the repo root");
    assert!(
        text.starts_with("== LBA reproduction: all paper tables and figures (scale 1) ==\n"),
        "not a scale-1 run: {:?}",
        text.lines().next()
    );
}

#[test]
fn parallel_extension_scales_lockset() {
    let rows = experiment::ext_parallel(&config(), 1).unwrap();
    assert!(rows.len() >= 3);
    // More shards, less slowdown (weakly monotone).
    for pair in rows.windows(2) {
        assert!(
            pair[1].slowdown <= pair[0].slowdown + 0.05,
            "sharding must not hurt: {} -> {}",
            pair[0].slowdown,
            pair[1].slowdown
        );
    }
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    assert!(
        last.slowdown < first.slowdown * 0.75,
        "4 shards should pay off"
    );
}
