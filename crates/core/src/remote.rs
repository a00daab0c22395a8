//! Remote lifeguard workers: sealed frames over real sockets, one
//! lifeguard worker per shard — the production topology for heavy
//! traffic.
//!
//! [`run_live_parallel`](crate::run_live_parallel) shards the lifeguard
//! across OS threads sharing an address space; this module keeps the
//! identical sharded pipeline but moves each shard's frame stream onto a
//! Unix-domain socket speaking the `lbas/1` wire protocol
//! ([`lba_transport::socket`]) — the shape where capture and lifeguards
//! run in different *processes* (and, with the TCP `WireStream`, on
//! different hosts). Each worker owns a full decoder, dispatch engine and
//! lifeguard instance and drives its socket exactly as replay drives a
//! recorded stream: the wire is the flight-recorder format, minus the
//! disk.
//!
//! Back-pressure crosses the wire as an explicit credit window sized from
//! [`LogConfig::live_channel_frames`](crate::LogConfig::live_channel_frames)
//! — the same budget-derived depth the in-process channels use — so
//! `buffer_bytes` semantics, [`LoadSample`]-driven adaptive degradation,
//! and the stall-timeout discipline all survive the socket hop.
//!
//! Fidelity contract: the router ([`ShardedByLine`]), per-shard record
//! order, frame boundaries, and capture pass are identical to
//! `run_live_parallel` — both drive [`Producer::sharded`] and the same
//! [`FrameEncoder`](lba_compress::FrameEncoder) per shard — so each
//! shard's wire stream is byte-identical to the in-process live mode's
//! and the merged findings are equal. `tests/remote.rs` pins both across
//! worker counts.
//!
//! Like the other sharded modes, TaintCheck is unsupported here (use
//! [`crate::run_live_epoch_parallel`]); the registry's capability flags
//! enforce this through the unified [`Run`](crate::Run) entry point.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use lba_cache::MemSystem;
use lba_compress::FrameDecoder;
use lba_cpu::{Machine, RunError};
use lba_isa::Program;
use lba_lifeguard::{DispatchEngine, Finding, Lifeguard};
use lba_record::EventRecord;
use lba_transport::socket::{socket_pair, SocketSender, SocketSource};
use lba_transport::{ChannelStats, FrameSource, LoadSample};

use crate::config::SystemConfig;
use crate::error::LbaError;
use crate::pipeline::{ConsumerTopology, Producer, ProducerLink, Route, ShardedByLine};
use crate::replay::ReplayError;
use crate::report::{LiveParallelReport, LogStats, PipelineReport};

/// The lifeguard-core MemSystem index used by every worker (shadow-cost
/// accounting only; the socket modes report no modeled clocks).
const LG_CORE: usize = 1;

/// The remote mode's [`ProducerLink`]: one credit-windowed socket sender
/// per shard, the [`ShardedByLine`] topology deciding routed-vs-broadcast
/// — the socket twin of the live mode's `LiveShardLink`.
struct RemoteShardLink<'a> {
    topology: ShardedByLine,
    senders: Vec<SocketSender>,
    finding_count: &'a AtomicU64,
}

impl ProducerLink for RemoteShardLink<'_> {
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
        // The fullest shard's credit window — one overloaded worker is
        // what blocks the producer. Credits are absorbed at every ship,
        // so the sample is at most one frame stale.
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

/// Runs `program` on one thread with the lifeguard sharded `workers` ways
/// by address, each shard's sealed frames crossing a Unix-domain socket
/// (credit-windowed, `lbas/1`-framed) to its own worker thread with its
/// own decoder, dispatch engine, and lifeguard instance.
///
/// The workers here are threads for test determinism, but they speak the
/// real socket protocol end to end — handing a listener-accepted
/// [`UnixStream`](std::os::unix::net::UnixStream) (or `TcpStream`) from
/// another process to the same worker loop is deployment, not new code.
///
/// Configuration mirrors [`run_live_parallel`](crate::run_live_parallel):
/// `filter` and `syscall_stall` are ignored, `idempotency_window` and the
/// adaptive controller apply on the producer, `record_to` tees each
/// shard's stream to disk, `channel_stall_timeout` bounds how long the
/// producer parks on an exhausted credit window, and
/// `fault.drain_drag` slows the workers' drain for overload experiments.
///
/// # Errors
///
/// [`LbaError::Run`] for machine/config failures and a stalled credit
/// window ([`RunError::ChannelStalled`]); [`LbaError::Socket`] when a
/// wire tears (a worker died mid-run); [`LbaError::Replay`] when a frame
/// that crossed the wire intact fails to decode.
///
/// # Panics
///
/// Panics if `workers` is zero, or if a worker thread panics.
pub fn run_remote(
    program: &Program,
    make_lifeguard: impl Fn() -> Box<dyn Lifeguard> + Sync,
    workers: usize,
    config: &SystemConfig,
) -> Result<LiveParallelReport, LbaError> {
    assert!(workers > 0, "need at least one remote worker");
    config.log.validate_framing()?;
    let window = u32::try_from(config.log.live_channel_frames()).expect("window fits u32");
    let mut senders = Vec::with_capacity(workers);
    let mut sources = Vec::with_capacity(workers);
    for shard in 0..workers {
        let stream = u32::try_from(shard).expect("worker count fits u32");
        let (sink, source) = socket_pair(stream, window)?;
        let mut tx = SocketSender::new(sink, config.log.frame_config());
        tx.set_stall_timeout(config.log.channel_stall_timeout);
        // Flight recorder: one segmented stream per shard, mirrored on
        // the producer as each shard's frames ship — the recording is
        // identical to the live mode's.
        if let Some(record) = &config.log.record_to {
            tx.tee_into(crate::recorder::open_sink(record, stream)?);
        }
        senders.push(tx);
        sources.push(source);
    }
    let drag = config.log.fault.as_ref().map_or(0, |f| f.drain_drag);
    let make_lifeguard = &make_lifeguard;
    // The finding-snapback signal, published by workers exactly as the
    // in-process consumers publish theirs.
    let finding_count = AtomicU64::new(0);
    let finding_count = &finding_count;

    thread::scope(|scope| {
        let consumers: Vec<_> = sources
            .into_iter()
            .map(|source| {
                scope
                    .spawn(move || worker_loop(source, drag, make_lifeguard, config, finding_count))
            })
            .collect();

        // Produce on this thread. The link — and with it every sender —
        // drops when this closure returns, closing the sockets so the
        // workers see EOF and finish whether or not the run errored.
        let produced =
            (|| -> Result<(crate::pipeline::ProducerFinish, Vec<ChannelStats>), LbaError> {
                let mut machine = Machine::new(program, config.machine);
                let mut mem = MemSystem::new(config.mem_single());
                let seed = make_lifeguard();
                let mut producer = Producer::sharded(seed.as_ref(), config);
                drop(seed);
                let mut link = RemoteShardLink {
                    topology: ShardedByLine::new(workers),
                    senders,
                    finding_count,
                };
                machine.run(&mut mem, |r| producer.observe(&r.record, &mut link))?;
                if link.senders.iter().any(SocketSender::stalled) {
                    return Err(RunError::ChannelStalled.into());
                }
                // Snap back out of degradation, settle fold counts, ship the
                // tail, then close each stream: seal the final partial frame,
                // take the recording tee back, and write the End record.
                let finish = producer.finish(&mut link);
                let mut stalled = false;
                let mut shard_log = Vec::with_capacity(workers);
                for mut tx in link.senders.drain(..) {
                    tx.flush();
                    crate::recorder::finish_tee(tx.take_tee())?;
                    stalled |= tx.stalled();
                    shard_log.push(tx.finish()?);
                }
                if stalled {
                    return Err(RunError::ChannelStalled.into());
                }
                Ok((finish, shard_log))
            })();

        let mut shard_findings = Vec::with_capacity(workers);
        let mut worker_err: Option<LbaError> = None;
        for handle in consumers {
            match handle.join().expect("worker thread must not panic") {
                Ok(findings) => shard_findings.push(findings),
                Err(e) => {
                    worker_err.get_or_insert(e);
                }
            }
        }
        // A producer-side error explains any worker-side tear, so it wins.
        let (finish, shard_log) = produced?;
        if let Some(e) = worker_err {
            return Err(e);
        }
        let findings = crate::parallel::merge_shard_findings(shard_findings);
        Ok(LiveParallelReport {
            program: program.name().to_string(),
            shards: workers,
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

/// One worker: drain the socket to its End record, decode each frame,
/// and deliver the records — structurally the replay consumer over a
/// live wire.
fn worker_loop(
    mut source: SocketSource,
    drag: u32,
    make_lifeguard: &(impl Fn() -> Box<dyn Lifeguard> + Sync),
    config: &SystemConfig,
    finding_count: &AtomicU64,
) -> Result<Vec<Finding>, LbaError> {
    let stream = source.stream_id();
    let mut decoder = FrameDecoder::new(config.log.frame_config());
    let mut lifeguard = make_lifeguard();
    let engine = DispatchEngine::new(config.dispatch);
    let mut mem = MemSystem::new(config.mem_dual());
    let mut findings = Vec::new();
    let mut batch: Vec<EventRecord> = Vec::new();
    let mut frames = 0u64;
    let mut published = 0usize;
    loop {
        // Fault injection: a worker that drains slowly, so the credit
        // window fills and the producer's LoadSample climbs.
        for _ in 0..drag {
            std::hint::spin_loop();
        }
        let bytes = match source.next_frame_bytes() {
            Ok(Some(bytes)) => bytes,
            Ok(None) => break,
            Err(e) => return Err(LbaError::from_sink(e)),
        };
        batch.clear();
        decoder
            .decode_frame(&bytes, &mut batch)
            .map_err(|source| ReplayError::Decode {
                stream,
                frame: frames,
                source,
            })?;
        frames += 1;
        engine.deliver_batch(lifeguard.as_mut(), &batch, &mut mem, LG_CORE, &mut findings);
        if findings.len() > published {
            finding_count.fetch_add((findings.len() - published) as u64, Ordering::Relaxed);
            published = findings.len();
        }
    }
    engine.finish(lifeguard.as_mut(), &mut mem, LG_CORE, &mut findings);
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::LifeguardKind;
    use crate::live_parallel::run_live_parallel;
    use lba_lifeguard::FindingKind;
    use lba_workloads::bugs;

    #[test]
    fn remote_addrcheck_detects_bugs_once() {
        let program = bugs::memory_bugs();
        let config = SystemConfig::default();
        let report =
            run_remote(&program, || LifeguardKind::AddrCheck.make_lba(), 4, &config).unwrap();
        use FindingKind::*;
        for kind in [UnallocatedAccess, DoubleFree, InvalidFree, Leak] {
            assert!(
                report.findings.iter().any(|f| f.kind == kind),
                "missing {kind} in remote run"
            );
        }
        let doubles = report
            .findings
            .iter()
            .filter(|f| f.kind == DoubleFree)
            .count();
        assert_eq!(doubles, 1, "broadcast duplicates must merge away");
    }

    #[test]
    fn per_shard_wire_streams_match_the_in_process_live_mode() {
        let program = bugs::data_race();
        let config = SystemConfig::default();
        let remote =
            run_remote(&program, || LifeguardKind::LockSet.make_lba(), 2, &config).unwrap();
        let live =
            run_live_parallel(&program, || LifeguardKind::LockSet.make_lba(), 2, &config).unwrap();
        assert_eq!(remote.shard_log.len(), live.shard_log.len());
        for (shard, (r, l)) in remote.shard_log.iter().zip(&live.shard_log).enumerate() {
            assert_eq!(
                (r.records, r.frames, r.wire_bits, r.payload_bits),
                (l.records, l.frames, l.wire_bits, l.payload_bits),
                "shard {shard} wire must be byte-identical to live-parallel"
            );
        }
        assert_eq!(remote.trace.instructions(), live.trace.instructions());
    }

    #[test]
    fn stalled_credit_window_is_a_run_error_not_a_hang() {
        // A one-frame window and a worker dragged hard enough to out-wait
        // the stall timeout: the producer must park, latch, and error.
        let program = bugs::memory_bugs();
        let mut config = SystemConfig::default();
        config.log.buffer_bytes = 64; // one-frame credit window
        config.log.records_per_frame = 8;
        config.log.channel_stall_timeout = Some(std::time::Duration::from_millis(20));
        config.log.fault = Some(lba_transport::FaultProfile {
            drain_drag: 100_000_000,
            ..lba_transport::FaultProfile::default()
        });
        let start = std::time::Instant::now();
        let err =
            run_remote(&program, || LifeguardKind::AddrCheck.make_lba(), 1, &config).unwrap_err();
        assert!(
            matches!(err, LbaError::Run(RunError::ChannelStalled)),
            "got: {err}"
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "the stall must latch once, not hang"
        );
    }

    #[test]
    #[should_panic(expected = "at least one remote worker")]
    fn zero_workers_rejected() {
        let program = bugs::memory_bugs();
        let _ = run_remote(
            &program,
            || LifeguardKind::AddrCheck.make_lba(),
            0,
            &SystemConfig::default(),
        );
    }
}
