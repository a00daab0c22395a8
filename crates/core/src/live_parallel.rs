//! Sharded live lifeguards: one producer thread, N consumer threads, N
//! independent compressed frame streams.
//!
//! [`run_lba_parallel`](crate::parallel::run_lba_parallel) *models*
//! splitting a lifeguard across cores; this module actually does it on OS
//! threads. The producer runs the machine and routes each load/store
//! record to the shard owning its cache line (broadcasting everything
//! else — the identical [`shard_of`] routing the modeled mode uses),
//! pushing into one [`FrameSender`] per shard. Because every shard owns a
//! full compressor/decompressor pair,
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
//! The wire under each shard is a parameter of the one runner here:
//! [`run_live_parallel`] connects producer and consumers with in-process
//! queues, [`run_remote`](crate::run_remote) with Unix-domain sockets.
//! Everything else — routing, capture, recording, stall handling,
//! consumption and the merge — is the same code.
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
use lba_lifeguard::{DispatchEngine, Lifeguard};
use lba_record::EventRecord;
use lba_transport::live::{shard_frame_channels, FrameReceiver, FrameSender, FrameWire};
use lba_transport::{shard_of, FrameSource, LoadSample};

use crate::config::SystemConfig;
use crate::error::LbaError;
use crate::pipeline::{Producer, ProducerLink};
use crate::report::{LiveParallelReport, LogStats, PipelineReport};

/// The lifeguard-core MemSystem index used by every consumer thread (each
/// thread owns a private dual-core memory system; live mode reports no
/// modeled clocks, so the geometry only feeds shadow-cost accounting).
const LG_CORE: usize = 1;

/// The sharded live modes' [`ProducerLink`]: one frame sender per shard
/// over either wire, [`shard_of`] deciding routed-vs-broadcast, and the
/// consumers' published finding count as the snapback signal.
struct ShardLink<'a, W: FrameWire> {
    senders: Vec<FrameSender<W>>,
    finding_count: &'a AtomicU64,
}

impl<W: FrameWire> ProducerLink for ShardLink<'_, W> {
    fn ship(&mut self, rec: &EventRecord) {
        match shard_of(rec, self.senders.len()) {
            Some(owner) => self.senders[owner].push(rec),
            None => {
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
        // The sharded producer's load signal: the fullest shard's wire —
        // one overloaded shard is what blocks the producer.
        self.senders
            .iter()
            .map(FrameSender::load_sample)
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
/// between the two modes. The adaptive controller applies on the
/// producer, `record_to` tees each shard's stream to disk,
/// `channel_stall_timeout` bounds how long the producer waits on a full
/// shard, and `fault.drain_drag` slows the consumers' drain.
///
/// # Errors
///
/// [`LbaError::Run`] for machine/config failures and a stalled shard
/// ([`RunError::ChannelStalled`]).
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
) -> Result<LiveParallelReport, LbaError> {
    assert!(shards > 0, "need at least one shard");
    config.log.validate_framing()?;
    let (senders, receivers) = shard_frame_channels(
        shards,
        config.log.live_channel_frames(),
        config.log.frame_config(),
    );
    run_sharded(program, make_lifeguard, senders, receivers, config)
}

/// The sharded live runner both [`run_live_parallel`] and
/// [`run_remote`](crate::run_remote) are: one producer on this thread
/// fanning records out over `senders`, one consumer thread per
/// `receivers` entry, whichever wire connects them.
pub(crate) fn run_sharded<W, S>(
    program: &Program,
    make_lifeguard: impl Fn() -> Box<dyn Lifeguard> + Sync,
    mut senders: Vec<FrameSender<W>>,
    mut receivers: Vec<FrameReceiver<S>>,
    config: &SystemConfig,
) -> Result<LiveParallelReport, LbaError>
where
    W: FrameWire,
    S: FrameSource + Send,
    LbaError: From<W::Error>,
{
    let shards = senders.len();
    for (idx, tx) in senders.iter_mut().enumerate() {
        // Flight recorder: one segmented stream per shard, mirrored on
        // the producer as each shard's frames ship.
        if let Some(record) = &config.log.record_to {
            let stream = u32::try_from(idx).expect("shard count fits u32");
            tx.tee_into(crate::recorder::open_sink(record, stream)?);
        }
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
                scope.spawn(move || -> Result<_, LbaError> {
                    let mut lifeguard = make_lifeguard();
                    let engine = DispatchEngine::new(config.dispatch);
                    let mut mem = MemSystem::new(config.mem_dual());
                    let mut findings = Vec::new();
                    let mut published = 0usize;
                    while let Some(frame) = rx.recv_batch()? {
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
                    Ok(findings)
                })
            })
            .collect();

        // Produce on this thread: run the machine, apply the shared
        // capture pass (identical to `run_lba_parallel`'s) and fan the
        // log out. The link — and with it every sender — drops when this
        // closure returns, ending the shard streams so the consumers can
        // finish whether or not the run errored.
        let produced = (|| -> Result<_, LbaError> {
            let mut machine = Machine::new(program, config.machine);
            let mut mem = MemSystem::new(config.mem_single());
            let seed = make_lifeguard();
            let mut producer = Producer::sharded(seed.as_ref(), config);
            drop(seed);
            let mut link = ShardLink {
                senders,
                finding_count,
            };
            machine.run(&mut mem, |r| producer.observe(&r.record, &mut link))?;
            if link.senders.iter().any(FrameSender::stalled) {
                return Err(RunError::ChannelStalled.into());
            }
            // Snap back out of degradation, settle fold counts, ship the
            // tail, then end each shard's stream: seal the final partial
            // frame before taking the recording tee back, so the
            // recording carries the complete stream.
            let finish = producer.finish(&mut link);
            let mut shard_log = Vec::with_capacity(shards);
            for mut tx in link.senders.drain(..) {
                tx.flush();
                crate::recorder::finish_tee(tx.take_tee())?;
                if tx.stalled() {
                    return Err(RunError::ChannelStalled.into());
                }
                shard_log.push(tx.finish()?);
            }
            Ok((finish, shard_log))
        })();

        let mut shard_findings = Vec::with_capacity(shards);
        let mut consumer_err: Option<LbaError> = None;
        for handle in consumers {
            match handle.join().expect("consumer thread must not panic") {
                Ok(findings) => shard_findings.push(findings),
                Err(e) => {
                    consumer_err.get_or_insert(e);
                }
            }
        }
        // A producer-side error explains any consumer-side tear, so it
        // wins.
        let (finish, shard_log) = produced?;
        if let Some(e) = consumer_err {
            return Err(e);
        }
        let findings = crate::parallel::merge_shard_findings(shard_findings);
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
        assert!(
            matches!(err, LbaError::Run(RunError::ZeroRecordsPerFrame)),
            "got: {err}"
        );
    }
}
