//! Parallel lifeguards: splitting one lifeguard across multiple cores.
//!
//! §1 of the paper: "the lifeguard functionality can be split across
//! multiple cores, exploiting further parallelism to speed up lifeguards";
//! §3 names "parallelizing lifeguards" as ongoing work. This module
//! implements the address-interleaved variant for lifeguards whose
//! per-address state is independent (AddrCheck, LockSet):
//!
//! * load/store events are **routed** to the shard owning their cache
//!   line ([`shard_of`](lba_transport::shard_of));
//! * all other events (alloc/free, lock/unlock, …) are **broadcast**,
//!   because they update state every shard needs;
//! * each shard is a lifeguard core of the co-simulation with its own
//!   framed channel, lifeguard instance and clock, so every shard's stream
//!   is a real compressed frame sequence and the report carries per-shard
//!   wire statistics and cycles;
//! * lifeguard time is the *maximum* over the shards' clocks, each shard
//!   running on its own core with its own L1.
//!
//! [`run_lba_parallel`] is the co-simulation behind
//! [`run_lba`](crate::run_lba) at N shards, with `run_lba`'s timing model:
//! each shard's channel has the full `buffer_bytes` budget, back-pressure
//! stalls the application, and shipped lines charge the L2 transfer. The
//! producer side is the sharded modes' one producer: the shared capture
//! pass runs *before* routing, so the per-shard streams stay
//! byte-identical with the live sharded mode.
//!
//! TaintCheck is deliberately not supported: its register state forms a
//! sequential dependence chain through every instruction, so address
//! interleaving is unsound for it, and it runs on one lifeguard core.

use lba_isa::Program;
use lba_lifeguard::Lifeguard;

use crate::config::SystemConfig;
use crate::cosim::run_modeled;
use crate::error::LbaError;
use crate::pipeline::Producer;
use crate::report::RunReport;
use crate::runner::RunMode;

/// Runs `program` with the lifeguard sharded `shards` ways by address, on
/// modeled clocks. The report's `lifeguard_cycles` is the slowest shard's,
/// with every shard's in `shard_cycles` and its wire statistics in
/// `shard_log`.
///
/// `make_lifeguard` builds one (identical) lifeguard instance per shard.
/// The shards' findings merge in shard order, as every mode's do
/// ([`RunReport::pipeline`]). Three `LogConfig` fields are deliberately
/// **ignored**: `filter` and `syscall_stall`, as in `run_live_parallel`,
/// and `decoupled`, because the sharded modes' producer always runs
/// decoupled, so the co-simulation's syscall containment and lock-step
/// ablation never run here.
///
/// # Errors
///
/// [`LbaError::InvalidRequest`] when `shards` is zero, and otherwise as
/// [`run_lba`](crate::run_lba).
pub fn run_lba_parallel(
    program: &Program,
    make_lifeguard: impl Fn() -> Box<dyn Lifeguard>,
    shards: usize,
    config: &SystemConfig,
) -> Result<RunReport, LbaError> {
    let mode = RunMode::LbaParallel;
    LbaError::check_shards(mode, shards)?;
    let mut lifeguards: Vec<Box<dyn Lifeguard>> = (0..shards).map(|_| make_lifeguard()).collect();
    // The shared capture pass (idempotency window, no range filter) plus
    // the adaptive controller, pre-routing on the producer.
    let producer = Producer::sharded(lifeguards[0].as_ref(), config);
    let lifeguards = lifeguards
        .iter_mut()
        .map(|lg| lg.as_mut() as &mut dyn Lifeguard);
    run_modeled(program, lifeguards.collect(), producer, mode, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::run_lba;
    use crate::live_parallel::{run_live, run_live_parallel};
    use crate::pipeline::{ADDRCHECK, LOCKSET};
    use crate::run::{run_dbi, run_unmonitored};
    use lba_lifeguard::FindingKind;
    use lba_workloads::{bugs, Benchmark};

    #[test]
    fn sharded_lockset_scales() {
        let program = Benchmark::Zchaff.build();
        let config = SystemConfig::default();
        let one = run_lba_parallel(&program, LOCKSET.make, 1, &config).unwrap();
        let four = run_lba_parallel(&program, LOCKSET.make, 4, &config).unwrap();
        assert!(
            four.lifeguard_cycles * 2 < one.lifeguard_cycles,
            "4 shards ({}) should at least halve one shard ({})",
            four.lifeguard_cycles,
            one.lifeguard_cycles
        );
    }

    #[test]
    fn sharded_addrcheck_still_detects_bugs() {
        let program = bugs::memory_bugs();
        let config = SystemConfig::default();
        let report = run_lba_parallel(&program, ADDRCHECK.make, 4, &config).unwrap();
        use FindingKind::*;
        for kind in [UnallocatedAccess, DoubleFree, InvalidFree, Leak] {
            assert!(
                report.findings.iter().any(|f| f.kind == kind),
                "missing {kind} in sharded run"
            );
        }
        // And duplicates from broadcast events were merged away.
        let doubles = report
            .findings
            .iter()
            .filter(|f| f.kind == DoubleFree)
            .count();
        assert_eq!(doubles, 1);
    }

    #[test]
    fn every_mode_reports_a_repeated_finding_once() {
        // The same double free at one pc, three times over: AddrCheck
        // reports each, and every mode merges them to one, the
        // single-consumer modes and the sharded ones at one shard alike.
        let program = bugs::repeated_double_free();
        let config = SystemConfig::default();
        let addrcheck = ADDRCHECK.make;
        let double_frees = |report: &RunReport| report.findings_of(FindingKind::DoubleFree).count();

        let single = run_lba(&program, addrcheck().as_mut(), &config).unwrap();
        let live = run_live(&program, addrcheck().as_mut(), &config).unwrap();
        let dbi = run_dbi(&program, addrcheck().as_mut(), &config).unwrap();
        let modeled = run_lba_parallel(&program, addrcheck, 1, &config).unwrap();
        let live_sharded = run_live_parallel(&program, addrcheck, 1, &config).unwrap();
        for report in [&live, &dbi, &modeled, &live_sharded] {
            assert_eq!(double_frees(report), 1, "{}", report.mode);
            assert_eq!(report.findings, single.findings, "{}", report.mode);
        }
        assert_eq!(double_frees(&single), 1);
    }

    #[test]
    fn shards_ship_real_frames() {
        let program = bugs::memory_bugs();
        let config = SystemConfig::default();
        let report = run_lba_parallel(&program, ADDRCHECK.make, 3, &config).unwrap();
        assert_eq!(report.shard_log.len(), 3);
        let records: u64 = report.shard_log.iter().map(|s| s.records).sum();
        // Broadcast events are counted once per shard, so the shards
        // together carry at least the retired event stream.
        assert!(records >= report.trace.instructions());
        for stats in &report.shard_log {
            assert!(stats.frames > 0);
            assert!(stats.wire_bits >= stats.payload_bits);
        }
        // The aggregate pipeline log is the sum over the shard channels.
        assert_eq!(report.log.records, records);
    }

    #[test]
    fn tiny_buffer_budget_stalls_yet_ships_the_same_streams() {
        // Every shard's channel gets the whole byte budget, as every live
        // shard's queue gets the whole depth: a 64-byte budget stalls the
        // application on back-pressure, but the shards receive the same
        // streams and report the same findings as under the default.
        let program = Benchmark::Bc.build();
        let lockset = LOCKSET.make;
        let roomy = run_lba_parallel(&program, lockset, 2, &SystemConfig::default()).unwrap();
        let mut tight = SystemConfig::default();
        tight.log.buffer_bytes = 64;
        let constrained = run_lba_parallel(&program, lockset, 2, &tight).unwrap();
        assert!(
            constrained.stalls.buffer_full_cycles > roomy.stalls.buffer_full_cycles,
            "a 64-byte budget must stall: {} vs {} cycles",
            constrained.stalls.buffer_full_cycles,
            roomy.stalls.buffer_full_cycles
        );
        assert_eq!(constrained.findings, roomy.findings);
        let streams = |report: &RunReport| -> Vec<_> {
            (report.shard_log.iter())
                .map(|s| (s.records, s.frames, s.payload_bits, s.wire_bits))
                .collect()
        };
        assert_eq!(streams(&constrained), streams(&roomy));

        // A budget below one cache-line frame is a configuration error at
        // every width.
        tight.log.buffer_bytes = 1;
        let err = run_lba_parallel(&program, lockset, 2, &tight).unwrap_err();
        assert!(
            matches!(
                err,
                LbaError::LogBufferTooSmall {
                    buffer_bytes: 1,
                    frame_bytes: 64
                }
            ),
            "got: {err}"
        );
    }

    #[test]
    fn parallel_beats_app_bound_eventually() {
        // With enough shards the lifeguard stops being the bottleneck.
        let program = Benchmark::Water.build();
        let config = SystemConfig::default();
        let base = run_unmonitored(&program, &config).unwrap();
        let eight = run_lba_parallel(&program, LOCKSET.make, 8, &config).unwrap();
        let slowdown = eight.total_cycles as f64 / base.total_cycles as f64;
        let single = run_lba_parallel(&program, LOCKSET.make, 1, &config).unwrap();
        let single_slowdown = single.total_cycles as f64 / base.total_cycles as f64;
        assert!(
            slowdown < single_slowdown / 2.0,
            "8 shards ({slowdown:.1}x) should far outpace 1 ({single_slowdown:.1}x)"
        );
    }

    #[test]
    fn zero_shards_rejected() {
        let program = bugs::memory_bugs();
        let err = run_lba_parallel(&program, ADDRCHECK.make, 0, &SystemConfig::default());
        assert!(
            matches!(err, Err(LbaError::InvalidRequest { .. })),
            "got: {err:?}"
        );
    }
}
