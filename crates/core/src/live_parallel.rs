//! Sharded live lifeguards: one producer thread, N consumer threads, N
//! independent compressed frame streams.
//!
//! [`run_lba_parallel`](crate::parallel::run_lba_parallel) *models*
//! splitting a lifeguard across cores; this module actually does it on OS
//! threads. The producer runs the machine and routes each load/store
//! record to the shard owning its cache line (broadcasting everything
//! else — the identical [`ShardedByLine`] topology the modeled mode uses),
//! pushing into one [`FrameSender`](lba_transport::live::FrameSender) per
//! shard. Because every shard owns a full compressor/decompressor pair,
//! the value predictors never thread state across shards, and the N
//! consumer threads decode their frame streams *concurrently* — closing
//! the ROADMAP's "parallel value decompression" item as a by-product of
//! sharding: the per-stream codec stays sequential, but there are now N
//! streams.
//!
//! Fidelity contract with the modeled mode: the router, the per-shard
//! record order, and the frame boundaries (seal every
//! `records_per_frame`, flush only at end of program; no range filter,
//! mirroring the modeled parallel study) are identical — both modes drive
//! [`Producer::sharded`] — so each shard's wire stream matches
//! `run_lba_parallel`'s shard byte for byte, and the merged findings are
//! equal. Integration tests pin both.
//!
//! Like the modeled mode, TaintCheck is unsupported: its register state is
//! a sequential dependence chain through every instruction, so address
//! interleaving is unsound for it — use the epoch-parallel mode
//! ([`crate::run_live_epoch_parallel`]) for taint on real threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use lba_cache::MemSystem;
use lba_cpu::{Machine, RunError};
use lba_isa::Program;
use lba_lifeguard::{DispatchEngine, Finding, Lifeguard};
use lba_record::EventRecord;
use lba_transport::live::shard_frame_channels;
use lba_transport::{ChannelStats, LoadSample};

use crate::config::SystemConfig;
use crate::pipeline::{ConsumerTopology, Producer, ProducerLink, Route, ShardedByLine};
use crate::report::{LiveParallelReport, LogStats, PipelineReport};

/// The lifeguard-core MemSystem index used by every consumer thread (each
/// thread owns a private dual-core memory system; live mode reports no
/// modeled clocks, so the geometry only feeds shadow-cost accounting).
const LG_CORE: usize = 1;

/// The live sharded mode's [`ProducerLink`]: one framed SPSC sender per
/// shard, the [`ShardedByLine`] topology deciding routed-vs-broadcast,
/// and the consumers' published finding count as the snapback signal.
struct LiveShardLink<'a> {
    topology: ShardedByLine,
    senders: Vec<lba_transport::live::FrameSender>,
    finding_count: &'a AtomicU64,
}

impl ProducerLink for LiveShardLink<'_> {
    fn ship(&mut self, rec: &EventRecord) {
        match self.topology.route(rec) {
            Route::Shard(owner) => self.senders[owner].push(rec),
            _ => {
                for tx in self.senders.iter_mut() {
                    tx.push(rec);
                }
            }
        }
    }

    fn on_engage(&mut self) {
        for tx in self.senders.iter_mut() {
            tx.flush();
            tx.set_degraded(true);
        }
    }

    fn on_disengage(&mut self) {
        for tx in self.senders.iter_mut() {
            tx.flush();
            tx.set_degraded(false);
        }
    }

    fn load_sample(&self) -> LoadSample {
        // The sharded producer's load signal: the fullest shard's queue —
        // one overloaded shard is what blocks the producer.
        self.senders
            .iter()
            .map(|tx| tx.load_sample())
            .max_by_key(LoadSample::occupancy_permille)
            .unwrap_or_default()
    }

    fn finding_count(&self) -> u64 {
        self.finding_count.load(Ordering::Relaxed)
    }
}

/// Runs `program` on one thread with the lifeguard sharded `shards` ways
/// by address, each shard on its own OS thread with its own framed
/// compressed channel, dispatch engine, and lifeguard instance.
///
/// `make_lifeguard` builds one (identical) lifeguard instance per shard;
/// it is called on each consumer thread, so the instances never migrate.
/// The channel depth per shard comes from
/// [`LogConfig::live_channel_frames`](crate::LogConfig::live_channel_frames),
/// the same budget-derived depth `run_live` uses.
///
/// Unlike [`run_live`](crate::run_live), this mode mirrors the modeled
/// parallel study exactly, so two `LogConfig` fields are deliberately
/// **ignored**: `filter` (the address-range filter has no sharded
/// soundness story) and `syscall_stall` (frames seal only when full or at
/// end of program; there is no containment flush). The
/// `idempotency_window` **does** apply: the capture pass runs on the
/// producer before routing — a suppressed duplicate would have landed on
/// the same shard as its first occurrence, so the per-lifeguard soundness
/// contract carries over unchanged — and `run_lba_parallel` runs the
/// identical pass, which keeps each shard's wire stream byte-identical
/// between the two modes.
///
/// # Errors
///
/// Propagates any [`RunError`] from the machine thread.
///
/// # Panics
///
/// Panics if `shards` is zero, or if a consumer thread panics (a codec or
/// lifeguard bug, not an I/O condition).
pub fn run_live_parallel(
    program: &Program,
    make_lifeguard: impl Fn() -> Box<dyn Lifeguard> + Sync,
    shards: usize,
    config: &SystemConfig,
) -> Result<LiveParallelReport, RunError> {
    assert!(shards > 0, "need at least one shard");
    config.log.validate_framing()?;
    let (mut senders, mut receivers) = shard_frame_channels(
        shards,
        config.log.live_channel_frames(),
        config.log.frame_config(),
    );
    // Flight recorder: one segmented stream per shard, mirrored on the
    // producer as each shard's frames ship.
    if let Some(record) = &config.log.record_to {
        for (idx, tx) in senders.iter_mut().enumerate() {
            let stream = u32::try_from(idx).expect("shard count fits u32");
            tx.tee_into(crate::recorder::open_sink(record, stream)?);
        }
    }
    // Stall detection and fault injection, per shard (see `run_live`).
    for tx in senders.iter_mut() {
        tx.set_stall_timeout(config.log.channel_stall_timeout);
    }
    if let Some(fault) = &config.log.fault {
        for rx in receivers.iter_mut() {
            rx.set_drag(fault.drain_drag);
        }
    }
    let make_lifeguard = &make_lifeguard;
    // The finding-snapback signal: consumers accumulate their finding
    // counts here; any growth the producer's controller observes snaps
    // capture back to full fidelity.
    let finding_count = AtomicU64::new(0);
    let finding_count = &finding_count;

    thread::scope(|scope| {
        let consumers: Vec<_> = receivers
            .into_iter()
            .map(|mut rx| {
                scope.spawn(move || -> (Vec<Finding>, ChannelStats) {
                    let mut lifeguard = make_lifeguard();
                    let engine = DispatchEngine::new(config.dispatch);
                    let mut mem = MemSystem::new(config.mem_dual());
                    let mut findings = Vec::new();
                    let mut published = 0usize;
                    while let Some(frame) = rx.recv_batch() {
                        engine.deliver_batch(
                            lifeguard.as_mut(),
                            frame.records,
                            &mut mem,
                            LG_CORE,
                            &mut findings,
                        );
                        if findings.len() > published {
                            finding_count
                                .fetch_add((findings.len() - published) as u64, Ordering::Relaxed);
                            published = findings.len();
                        }
                    }
                    engine.finish(lifeguard.as_mut(), &mut mem, LG_CORE, &mut findings);
                    (findings, rx.stats())
                })
            })
            .collect();

        // Produce on this thread: run the machine, apply the shared
        // capture pass (identical to `run_lba_parallel`'s) and fan the
        // log out. The link — and with it every sender — drops when this
        // closure returns, closing the shard streams so the consumers can
        // finish whether or not the run errored.
        let produced = (|| -> Result<crate::pipeline::ProducerFinish, RunError> {
            let mut machine = Machine::new(program, config.machine);
            let mut mem = MemSystem::new(config.mem_single());
            let seed = make_lifeguard();
            let mut producer = Producer::sharded(seed.as_ref(), config);
            drop(seed);
            let mut link = LiveShardLink {
                topology: ShardedByLine::new(shards),
                senders,
                finding_count,
            };
            machine.run(&mut mem, |r| producer.observe(&r.record, &mut link))?;
            if link.senders.iter().any(|tx| tx.stalled()) {
                return Err(RunError::ChannelStalled);
            }
            // Snap back out of degradation, settle fold counts, ship the
            // tail.
            let finish = producer.finish(&mut link);
            // Seal each shard's final partial frame before taking the
            // tees back, so the recordings carry the complete per-shard
            // wire streams (the drop-flush below then ships nothing).
            for tx in link.senders.iter_mut() {
                tx.flush();
                crate::recorder::finish_tee(tx.take_tee())?;
            }
            if link.senders.iter().any(|tx| tx.stalled()) {
                return Err(RunError::ChannelStalled);
            }
            Ok(finish)
        })();

        let mut shard_findings = Vec::with_capacity(shards);
        let mut shard_log = Vec::with_capacity(shards);
        for handle in consumers {
            let (findings, stats) = handle.join().expect("consumer thread must not panic");
            shard_findings.push(findings);
            shard_log.push(stats);
        }
        let findings = crate::parallel::merge_shard_findings(shard_findings);
        let finish = produced?;
        Ok(LiveParallelReport {
            program: program.name().to_string(),
            shards,
            pipeline: PipelineReport {
                findings,
                log: LogStats::from_channels(
                    &shard_log,
                    finish.capture,
                    finish.trace.instructions(),
                ),
                capture: finish.capture,
                degradation: finish.degradation,
            },
            trace: finish.trace,
            shard_log,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::LifeguardKind;
    use lba_lifeguard::FindingKind;
    use lba_workloads::{bugs, Benchmark};

    #[test]
    fn sharded_live_addrcheck_detects_bugs_once() {
        let program = bugs::memory_bugs();
        let config = SystemConfig::default();
        let report =
            run_live_parallel(&program, || LifeguardKind::AddrCheck.make_lba(), 4, &config)
                .unwrap();
        use FindingKind::*;
        for kind in [UnallocatedAccess, DoubleFree, InvalidFree, Leak] {
            assert!(
                report.findings.iter().any(|f| f.kind == kind),
                "missing {kind} in sharded live run"
            );
        }
        // Broadcast duplicates were merged away.
        let doubles = report
            .findings
            .iter()
            .filter(|f| f.kind == DoubleFree)
            .count();
        assert_eq!(doubles, 1);
    }

    #[test]
    fn every_shard_ships_real_compressed_frames() {
        let program = Benchmark::Gzip.build();
        let config = SystemConfig::default();
        let report =
            run_live_parallel(&program, || LifeguardKind::AddrCheck.make_lba(), 3, &config)
                .unwrap();
        assert_eq!(report.shard_log.len(), 3);
        // Broadcast records count once per shard, so together the shards
        // carry at least the retired event stream.
        assert!(report.log.records >= report.trace.instructions());
        for stats in &report.shard_log {
            assert!(stats.frames > 0, "every shard must ship frames");
            assert!(stats.wire_bits >= stats.payload_bits);
            assert!(stats.high_water_bits > 0);
        }
    }

    #[test]
    fn one_shard_degenerates_to_the_whole_stream() {
        let program = bugs::data_race();
        let config = SystemConfig::default();
        let report =
            run_live_parallel(&program, || LifeguardKind::LockSet.make_lba(), 1, &config).unwrap();
        assert_eq!(report.shards, 1);
        // A single shard owns every record: no routing, no broadcast dups.
        assert_eq!(report.shard_log[0].records, report.trace.instructions());
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DataRace));
    }

    #[test]
    fn tiny_buffer_budget_still_completes() {
        // A sub-frame budget leaves each shard a one-deep queue: the
        // producer blocks more, but nothing deadlocks or drops.
        let program = bugs::memory_bugs();
        let mut config = SystemConfig::default();
        config.log.buffer_bytes = 64;
        assert_eq!(config.log.live_channel_frames(), 1);
        let report =
            run_live_parallel(&program, || LifeguardKind::AddrCheck.make_lba(), 2, &config)
                .unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DoubleFree));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let program = bugs::memory_bugs();
        let _ = run_live_parallel(
            &program,
            || LifeguardKind::AddrCheck.make_lba(),
            0,
            &SystemConfig::default(),
        );
    }

    #[test]
    fn zero_records_per_frame_is_a_config_error() {
        let program = bugs::memory_bugs();
        let mut config = SystemConfig::default();
        config.log.records_per_frame = 0;
        let err = run_live_parallel(&program, || LifeguardKind::AddrCheck.make_lba(), 2, &config)
            .unwrap_err();
        assert_eq!(err, RunError::ZeroRecordsPerFrame);
    }
}
