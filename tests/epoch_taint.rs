//! Epoch-parallel TaintCheck acceptance: the summarize-then-stitch
//! pipeline is *byte-identical* to the sequential lifeguard — same
//! findings in the same order with the same messages, same final taint
//! accounting — across programs, epoch sizes, worker counts, and the
//! modeled/live execution models; degenerate configurations (one epoch,
//! one worker) collapse to the sequential behaviour; and a recorded
//! epoch run replays to the same findings offline.

use proptest::prelude::*;

use lba::{
    run_epoch_parallel, run_lba, run_live_epoch_parallel, run_replay_epoch, RecordConfig,
    RunReport, SystemConfig,
};
use lba_lifeguards::TaintCheck;
use lba_workloads::{bugs, Benchmark};

/// The sequential ground truth: `run_lba` with a concrete TaintCheck.
fn sequential(program: &lba_isa::Program, config: &SystemConfig) -> (RunReport, u64) {
    let mut lg = TaintCheck::new();
    let report = run_lba(program, &mut lg, config).expect("sequential run");
    (report, lg.tainted_bytes_introduced())
}

fn program_for(idx: usize) -> lba_isa::Program {
    match idx {
        0 => bugs::exploit(),
        1 => bugs::tainted_syscall(),
        2 => bugs::memory_bugs(), // no taint findings: the clean case
        _ => Benchmark::Gzip.build(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The equivalence grid: programs × epoch sizes × worker counts ×
    /// modeled/live. Findings (order, pc, kind, tid, message), the
    /// master's final taint accounting, and the record totals all match
    /// the sequential run — epochs partition the stream, so the workers
    /// together carry exactly the sequential record stream.
    #[test]
    fn epoch_parallel_equals_sequential_across_the_grid(
        program_idx in 0usize..4,
        epoch_records in prop_oneof![Just(1usize), Just(7), Just(64), Just(1024)],
        workers in 1usize..5,
        live in any::<bool>(),
    ) {
        let program = program_for(program_idx);
        let mut config = SystemConfig::default();
        config.log.epoch_records = epoch_records;
        let (seq, seq_tainted) = sequential(&program, &config);

        if live {
            let mut master = TaintCheck::new();
            let report = run_live_epoch_parallel(&program, &mut master, workers, &config)
                .expect("live epoch run");
            prop_assert_eq!(&report.findings, &seq.findings);
            prop_assert_eq!(master.tainted_bytes_introduced(), seq_tainted);
            prop_assert_eq!(report.log.records, seq.log.records);
            prop_assert_eq!(report.worker_log.len(), workers);
        } else {
            let mut master = TaintCheck::new();
            let report = run_epoch_parallel(&program, &mut master, workers, &config)
                .expect("modeled epoch run");
            prop_assert_eq!(&report.findings, &seq.findings);
            prop_assert_eq!(master.tainted_bytes_introduced(), seq_tainted);
            prop_assert_eq!(report.log.records, seq.log.records);
            prop_assert_eq!(report.log.captured, seq.log.records);
            prop_assert_eq!(report.worker_cycles.len(), workers);
        }
    }
}

#[test]
fn degenerate_single_epoch_single_worker_still_matches() {
    // One epoch (cap larger than any trace here) on one worker: the
    // pipeline collapses to summarize-everything-then-absorb-once, the
    // purest test of the symbolic transfer function.
    let mut config = SystemConfig::default();
    config.log.epoch_records = usize::MAX >> 1;
    for program in [bugs::exploit(), bugs::tainted_syscall()] {
        let (seq, seq_tainted) = sequential(&program, &config);
        let mut master = TaintCheck::new();
        let report = run_epoch_parallel(&program, &mut master, 1, &config).expect("epoch run");
        // Syscalls still close epochs (the containment boundary), so the
        // count is the syscall count, not 1 — but with a single worker the
        // stitch order is trivially sequential either way.
        assert!(report.epochs >= 1);
        assert_eq!(report.findings, seq.findings, "{}", report.program);
        assert_eq!(master.tainted_bytes_introduced(), seq_tainted);
    }
}

#[test]
fn single_record_epochs_are_the_other_degenerate_end() {
    // Every record its own epoch: maximal stitch traffic, zero symbolic
    // slack — each summary resolves against fully concrete state.
    let mut config = SystemConfig::default();
    config.log.epoch_records = 1;
    let program = bugs::exploit();
    let (seq, seq_tainted) = sequential(&program, &config);
    let mut master = TaintCheck::new();
    let report = run_epoch_parallel(&program, &mut master, 3, &config).expect("epoch run");
    assert_eq!(report.epochs, seq.log.records, "one epoch per record");
    assert_eq!(report.findings, seq.findings);
    assert_eq!(master.tainted_bytes_introduced(), seq_tainted);
}

#[test]
fn modeled_and_live_epoch_modes_agree_with_each_other() {
    // The two execution models share the router and summarizer; their
    // findings and aggregate record totals must agree record-for-record.
    let program = Benchmark::Gzip.build();
    let mut config = SystemConfig::default();
    config.log.epoch_records = 128;
    let mut modeled_master = TaintCheck::new();
    let modeled =
        run_epoch_parallel(&program, &mut modeled_master, 3, &config).expect("modeled run");
    let mut live_master = TaintCheck::new();
    let live = run_live_epoch_parallel(&program, &mut live_master, 3, &config).expect("live run");
    assert_eq!(modeled.findings, live.findings);
    assert_eq!(modeled.epochs, live.epochs);
    assert_eq!(modeled.log.records, live.log.records);
    assert_eq!(
        modeled_master.tainted_bytes_introduced(),
        live_master.tainted_bytes_introduced()
    );
}

#[test]
fn recorded_epoch_run_replays_byte_identical() {
    // Both epoch modes leave one recorded stream per worker with the
    // epoch marks in the frame headers; offline replay rebuilds the
    // epochs from the marks and stitches to the same findings.
    let program = bugs::exploit();
    for live in [false, true] {
        let dir = std::env::temp_dir().join(format!(
            "lba-epoch-replay-{}-{}",
            std::process::id(),
            if live { "live" } else { "modeled" }
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut config = SystemConfig::default();
        config.log.epoch_records = 16;
        config.log.record_to = Some(RecordConfig::new(&dir));
        let (seq, seq_tainted) = sequential(&program, &config);

        let mut master = TaintCheck::new();
        let (findings, workers) = if live {
            let r = run_live_epoch_parallel(&program, &mut master, 2, &config).expect("live run");
            (r.pipeline.findings, r.workers)
        } else {
            let r = run_epoch_parallel(&program, &mut master, 2, &config).expect("modeled run");
            (r.pipeline.findings, r.workers)
        };
        assert_eq!(findings, seq.findings);

        let mut replay_master = TaintCheck::new();
        let replay = run_replay_epoch(&dir, &mut replay_master, &config).expect("replay");
        assert_eq!(replay.findings, seq.findings, "live={live}");
        assert_eq!(replay.streams.len(), workers, "one stream per worker");
        assert_eq!(
            replay.streams.iter().map(|s| s.records).sum::<u64>(),
            seq.log.records
        );
        assert_eq!(replay_master.tainted_bytes_introduced(), seq_tainted);
        std::fs::remove_dir_all(&dir).ok();
    }
}
