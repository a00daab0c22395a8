//! Adaptive-capture acceptance: contract-governed degradation engages
//! under injected back-pressure, never changes findings for any
//! lifeguard whose policy promises soundness, accounts for every record
//! it removes, and leaves TaintCheck's stream provably untouched. The
//! fault-injection satellites ride along: quiet injection is
//! transparent, and a genuinely stalled live consumer surfaces as
//! `LbaError::ChannelStalled` instead of a livelock.

use std::time::Duration;

use proptest::prelude::*;

use lba::{
    parallel::run_lba_parallel, run_lba, run_live, run_live_parallel, run_remote, DegradationStats,
    FaultProfile, LbaError, SystemConfig, ADDRCHECK, MAX_RECORDED_INTERVALS, MONITORS,
};
use lba_isa::Program;
use lba_lifeguard::Lifeguard;
use lba_lifeguards::{AddrCheck, MemProfile, TaintCheck};
use lba_workloads::{bugs, Benchmark};

fn degraded_config() -> SystemConfig {
    let mut config = SystemConfig::default();
    config.log.adaptive = true;
    config.log.fault = Some(FaultProfile::slow_drain());
    // A small buffer makes back-pressure real: the modeled channel only
    // drains under pressure, so occupancy genuinely climbs past the
    // engage threshold (and the injected stalls keep it there).
    config.log.buffer_bytes = 2 << 10;
    config
}

/// Every invariant `DegradationStats` promises, checkable on any run:
/// interval bounds are ordered, and when no interval was dropped by the
/// recording cap, the per-interval ledgers sum exactly to the totals —
/// the intervals *cover* everything degradation removed.
fn assert_stats_consistent(stats: &DegradationStats) {
    for interval in &stats.intervals {
        assert!(
            interval.from_record <= interval.to_record,
            "interval bounds ordered: {interval:?}"
        );
    }
    assert_eq!(stats.removed(), stats.sampled_out + stats.kind_dropped);
    if (stats.engagements as usize) <= MAX_RECORDED_INTERVALS {
        assert_eq!(stats.intervals.len() as u64, stats.engagements);
        let sampled: u64 = stats.intervals.iter().map(|i| i.sampled_out).sum();
        let dropped: u64 = stats.intervals.iter().map(|i| i.kind_dropped).sum();
        let span: u64 = stats
            .intervals
            .iter()
            .map(|i| i.to_record - i.from_record)
            .sum();
        assert_eq!(sampled, stats.sampled_out, "intervals cover sampled-out");
        assert_eq!(dropped, stats.kind_dropped, "intervals cover kind-drops");
        assert_eq!(span, stats.degraded_records, "intervals cover the spans");
        assert!(stats.removed() <= stats.degraded_records);
    }
}

#[test]
fn quiet_fault_injection_is_transparent() {
    // The injector always wraps the modeled channel; with the quiet
    // default profile it must be pure delegation — same findings, same
    // wire stream, same modeled time.
    let program = bugs::memory_bugs();
    let mut lg = AddrCheck::new();
    let clean = run_lba(&program, &mut lg, &SystemConfig::default()).unwrap();
    let mut config = SystemConfig::default();
    config.log.fault = Some(FaultProfile::default());
    let mut lg = AddrCheck::new();
    let quiet = run_lba(&program, &mut lg, &config).unwrap();
    assert_eq!(quiet.findings, clean.findings);
    assert_eq!(quiet.log.wire_bits, clean.log.wire_bits);
    assert_eq!(quiet.app_cycles, clean.app_cycles);
    assert!(quiet.degradation.is_empty());
}

#[test]
fn controller_off_runs_lose_nothing_under_injected_faults() {
    // With `adaptive` unset the controller does not exist; injected
    // consumer stalls may reshape timing but never content — the drain
    // loops retry refused pops until the channel is empty.
    let program = bugs::memory_bugs();
    let mut lg = AddrCheck::new();
    let clean = run_lba(&program, &mut lg, &SystemConfig::default()).unwrap();
    let mut config = SystemConfig::default();
    config.log.fault = Some(FaultProfile::slow_drain());
    let mut lg = AddrCheck::new();
    let faulted = run_lba(&program, &mut lg, &config).unwrap();
    assert_eq!(faulted.findings, clean.findings);
    assert_eq!(faulted.log.records, clean.log.records);
    assert_eq!(faulted.log.wire_bits, clean.log.wire_bits);
    assert!(faulted.degradation.is_empty(), "no controller, no stats");
}

#[test]
fn controller_engages_under_slow_drain_and_findings_are_identical() {
    // The tentpole acceptance, deterministic flavour: injected slow
    // drain pushes the load signal past threshold, the controller
    // engages and removes records, and the findings still match the
    // undegraded run byte for byte.
    let program = Benchmark::Gzip.build();
    let mut lg = AddrCheck::new();
    let clean = run_lba(&program, &mut lg, &SystemConfig::default()).unwrap();
    let config = degraded_config();
    let mut lg = AddrCheck::new();
    let degraded = run_lba(&program, &mut lg, &config).unwrap();
    assert!(
        !degraded.degradation.is_empty(),
        "slow drain must engage the controller: {:?}",
        degraded.degradation
    );
    assert_eq!(degraded.findings, clean.findings);
    assert_stats_consistent(&degraded.degradation);
    // Degradation must actually relieve the wire, not just bookkeep.
    assert!(
        degraded.degradation.removed() > 0,
        "an engaged interval on a hot workload should remove records"
    );
    assert!(degraded.log.records < clean.log.records);
    // Exact ledger: controller drops happen before the capture pass, so
    // the shipped-record deficit is degradation's removals plus whatever
    // extra dedup the widened window bought (the clean run's window is
    // the default zero-entry one, so its dedup term is zero).
    assert_eq!(
        clean.log.records - degraded.log.records,
        degraded.degradation.removed() + degraded.capture.deduped - clean.capture.deduped,
        "every missing wire record is accounted to degradation or widening"
    );
}

#[test]
fn memprofile_sampling_is_fully_accounted() {
    // MemProfile samples unconditionally (AlwaysSettled) and drops every
    // profile-irrelevant kind, so it exercises both ledgers at once.
    let program = Benchmark::Gzip.build();
    let config = degraded_config();
    let mut lg = MemProfile::new();
    let degraded = run_lba(&program, &mut lg, &config).unwrap();
    assert!(!degraded.degradation.is_empty());
    assert!(degraded.degradation.sampled_out > 0, "sampling must bite");
    assert!(degraded.degradation.kind_dropped > 0, "kind-drop must bite");
    assert_stats_consistent(&degraded.degradation);
    assert!(degraded.findings.is_empty(), "MemProfile has no findings");
}

#[test]
fn taintcheck_is_provably_untouched() {
    // No declared policy means no controller is constructed: same
    // findings, same wire stream, empty stats — under the same injected
    // fault profile and adaptive config that degrade AddrCheck.
    let program = bugs::exploit();
    let mut lg = TaintCheck::new();
    let clean = run_lba(&program, &mut lg, &SystemConfig::default()).unwrap();
    let config = degraded_config();
    let mut lg = TaintCheck::new();
    let faulted = run_lba(&program, &mut lg, &config).unwrap();
    assert!(faulted.degradation.is_empty());
    assert_eq!(faulted.findings, clean.findings);
    assert_eq!(faulted.log.records, clean.log.records);
    assert_eq!(faulted.log.wire_bits, clean.log.wire_bits);
}

#[test]
fn live_mode_engages_and_findings_are_identical() {
    // Live flavour: the receiver's injected drag keeps the real SPSC
    // queue full (depth 1 under a sub-frame buffer budget), so the
    // occupancy signal pins to the ceiling and the controller engages.
    let program = Benchmark::Gzip.build();
    let mut lg = AddrCheck::new();
    let clean = run_live(&program, &mut lg, &SystemConfig::default()).unwrap();
    let mut config = degraded_config();
    config.log.buffer_bytes = 64;
    config.log.fault = Some(FaultProfile {
        drain_drag: 20_000,
        ..FaultProfile::default()
    });
    let mut lg = AddrCheck::new();
    let degraded = run_live(&program, &mut lg, &config).unwrap();
    assert!(
        !degraded.degradation.is_empty(),
        "a dragged consumer with a one-deep queue must engage: {:?}",
        degraded.degradation
    );
    assert_eq!(degraded.findings, clean.findings);
    assert_stats_consistent(&degraded.degradation);
}

#[test]
fn remote_mode_engages_and_findings_are_identical() {
    // Socket flavour: the controller's one signal is the credit window's
    // load sample. A one-frame window and a dragged worker keep it
    // spent, so the controller engages across the socket hop.
    let program = Benchmark::Gzip.build();
    let clean = run_remote(&program, ADDRCHECK.make, 1, &SystemConfig::default()).unwrap();
    let mut config = degraded_config();
    config.log.buffer_bytes = 64;
    config.log.fault = Some(FaultProfile {
        drain_drag: 20_000,
        ..FaultProfile::default()
    });
    let degraded = run_remote(&program, ADDRCHECK.make, 1, &config).unwrap();
    assert!(
        !degraded.degradation.is_empty(),
        "a dragged worker behind a one-frame credit window must engage: {:?}",
        degraded.degradation
    );
    assert_eq!(degraded.findings, clean.findings);
    assert_stats_consistent(&degraded.degradation);
}

#[test]
fn stalled_live_consumer_surfaces_as_channel_stalled() {
    // Satellite regression: the producer used to spin unboundedly when
    // the consumer stopped draining. With a stall timeout configured,
    // the injected near-dead consumer (a huge per-frame drag against a
    // one-deep queue) must surface as `LbaError::ChannelStalled`.
    let program = bugs::memory_bugs();
    let mut config = SystemConfig::default();
    config.log.buffer_bytes = 64;
    config.log.channel_stall_timeout = Some(Duration::from_millis(20));
    config.log.fault = Some(FaultProfile {
        drain_drag: 200_000_000,
        ..FaultProfile::default()
    });
    let mut lg = AddrCheck::new();
    let err = run_live(&program, &mut lg, &config).unwrap_err();
    assert!(matches!(err, LbaError::ChannelStalled), "got: {err:?}");
    assert!(err.to_string().contains("stall"));
}

#[test]
fn live_runs_without_timeout_still_complete_under_drag() {
    // The pre-timeout contract is preserved: no configured timeout means
    // the producer waits out any drag, losslessly.
    let program = bugs::memory_bugs();
    let mut lg = AddrCheck::new();
    let clean = run_live(&program, &mut lg, &SystemConfig::default()).unwrap();
    let mut config = SystemConfig::default();
    config.log.buffer_bytes = 64;
    config.log.fault = Some(FaultProfile {
        drain_drag: 50_000,
        ..FaultProfile::default()
    });
    let mut lg = AddrCheck::new();
    let dragged = run_live(&program, &mut lg, &config).unwrap();
    assert_eq!(dragged.findings, clean.findings);
    assert_eq!(dragged.log.records, clean.log.records);
}

/// The degradation grid's program axis: the planted-bug programs.
fn grid_program(idx: usize) -> Program {
    match idx {
        0 => bugs::memory_bugs(),
        1 => bugs::data_race(),
        _ => bugs::exploit(),
    }
}

/// `config` with the degradation grid's frame size. The grid's programs
/// retire 46 to 223 records, less than one default 256-record frame, so
/// at the default no channel ever fills and nothing degrades; 8-record
/// frames let the load build.
fn grid_config(mut config: SystemConfig) -> SystemConfig {
    config.log.records_per_frame = 8;
    config
}

/// The degradation grid's lifeguard axis: the registry rows whose
/// lifeguard declares a degradation policy, in table order (AddrCheck,
/// LockSet, MemProfile). TaintCheck is pinned separately — its guarantee
/// is the *absence* of the controller.
fn make_kind(idx: usize) -> Box<dyn Lifeguard> {
    let degradable: Vec<_> = (MONITORS.iter())
        .filter(|m| (m.make)().degradation().is_some())
        .collect();
    (degradable[idx].make)()
}

#[test]
fn the_degradation_grid_engages_both_modeled_modes() {
    // The grid below compares degraded findings with undegraded ones, so
    // it pins something only where the controller engages. The modeled
    // modes are deterministic: each must engage on some program ×
    // lifeguard cell of the grid.
    let config = grid_config(degraded_config());
    let cells = || (0..3).flat_map(|program| (0..3).map(move |kind| (program, kind)));
    let lba = cells()
        .filter(|&(program, kind)| {
            let mut lg = make_kind(kind);
            let report = run_lba(&grid_program(program), lg.as_mut(), &config).unwrap();
            !report.degradation.is_empty()
        })
        .count();
    let parallel = cells()
        .filter(|&(program, kind)| {
            let report =
                run_lba_parallel(&grid_program(program), || make_kind(kind), 3, &config).unwrap();
            !report.degradation.is_empty()
        })
        .count();
    assert!(lba > 0, "run_lba engaged on none of the 9 cells");
    assert!(
        parallel > 0,
        "run_lba_parallel engaged on none of the 9 cells"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (b) of the acceptance grid: for every lifeguard, as its
    /// degradation policy promises, findings under injected slow-drain
    /// degradation are identical to the undegraded run's, in every run
    /// mode with a producer; and (c) the stats ledgers stay exactly
    /// covering. Both sides ship the grid's 8-record frames.
    #[test]
    fn degraded_findings_match_undegraded_across_the_grid(
        program_idx in 0usize..3,
        kind_idx in 0usize..3,
        mode_idx in 0usize..5,
    ) {
        let program = grid_program(program_idx);
        let clean_config = grid_config(SystemConfig::default());
        let degraded_config = grid_config(degraded_config());
        let (clean_findings, degraded_findings, stats) = match mode_idx {
            0 => {
                let mut lg = make_kind(kind_idx);
                let clean = run_lba(&program, lg.as_mut(), &clean_config).unwrap();
                let mut lg = make_kind(kind_idx);
                let degraded = run_lba(&program, lg.as_mut(), &degraded_config).unwrap();
                (clean.pipeline.findings, degraded.pipeline.findings, degraded.pipeline.degradation)
            }
            1 => {
                let mut lg = make_kind(kind_idx);
                let clean = run_live(&program, lg.as_mut(), &clean_config).unwrap();
                let mut lg = make_kind(kind_idx);
                let degraded = run_live(&program, lg.as_mut(), &degraded_config).unwrap();
                (clean.pipeline.findings, degraded.pipeline.findings, degraded.pipeline.degradation)
            }
            2 => {
                let clean =
                    run_lba_parallel(&program, || make_kind(kind_idx), 3, &clean_config).unwrap();
                let degraded =
                    run_lba_parallel(&program, || make_kind(kind_idx), 3, &degraded_config)
                        .unwrap();
                (clean.pipeline.findings, degraded.pipeline.findings, degraded.pipeline.degradation)
            }
            3 => {
                let clean =
                    run_live_parallel(&program, || make_kind(kind_idx), 3, &clean_config).unwrap();
                let degraded =
                    run_live_parallel(&program, || make_kind(kind_idx), 3, &degraded_config)
                        .unwrap();
                (clean.pipeline.findings, degraded.pipeline.findings, degraded.pipeline.degradation)
            }
            _ => {
                let clean = run_remote(&program, || make_kind(kind_idx), 3, &clean_config).unwrap();
                let degraded =
                    run_remote(&program, || make_kind(kind_idx), 3, &degraded_config).unwrap();
                (clean.pipeline.findings, degraded.pipeline.findings, degraded.pipeline.degradation)
            }
        };
        prop_assert_eq!(degraded_findings, clean_findings);
        assert_stats_consistent(&stats);
    }
}
