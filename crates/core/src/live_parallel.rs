//! The live runner: the application and its lifeguards on real OS
//! threads, one compressed frame stream per shard.
//!
//! The timing results come from the deterministic co-simulation, one
//! design at one shard ([`run_lba`](crate::run_lba)) or N
//! ([`run_lba_parallel`](crate::parallel::run_lba_parallel)); this module
//! runs the same pipeline with genuine parallelism. The paper's single
//! lifeguard core and a lifeguard "split across multiple cores" are one
//! design at two widths, so one runner serves every live mode:
//! [`run_live`] is its one-shard case (with the co-simulation's capture
//! pass and syscall containment), [`run_live_parallel`] shards the log N
//! ways, and
//! [`run_remote`](crate::run_remote) puts a Unix-domain socket under each
//! shard instead of an in-process queue.
//!
//! Sharding routes each load/store record to the shard owning its cache
//! line and broadcasts everything else ([`shard_of`]). Every shard owns a
//! full compressor/decompressor pair, so the value predictors never thread
//! state across shards and the consumers decode concurrently; findings
//! merge in shard order, as every mode's do
//! ([`RunReport::pipeline`]). Routing, per-shard record order and frame
//! boundaries are the modeled mode's — both drive the one sharded
//! producer — so each shard's wire stream matches `run_lba_parallel`'s
//! byte for byte.
//! TaintCheck does not shard (its register state is a sequential
//! dependence chain), so it runs live only under [`run_live`].
//!
//! The live modes report wire statistics and findings in a
//! [`RunReport`] whose cycle fields stay zero: they have no modeled
//! clock, so both threads run untimed: the machine and the dispatch engine
//! get no cache model to charge ([`Machine::run`] and
//! [`DispatchEngine::deliver_batch`] with `None`). The scheduler switches
//! threads on retired-instruction quanta and no handler reads its cycles,
//! so the records, frames and findings are the timed runs' exactly.
//!
//! # Thread layout
//!
//! The calling thread consumes shard 0 with the lifeguard it holds —
//! `run_live`'s borrowed one, or the one a sharded mode builds there to
//! configure its producer. The producer (machine, capture pass, encoders)
//! and the consumers of shards 1..N run on spawned threads; each spawned
//! consumer builds its own lifeguard, so no lifeguard crosses a thread.
//! A panic on any thread becomes [`LbaError::Panicked`], and the other
//! threads still end: a dead consumer's wire tells the producer nobody
//! drains it, and the producer's wires close when it returns or unwinds.
//! Replay ([`run_replay`](crate::run_replay)) runs these consumer threads
//! with no producer thread, one receiver per recorded stream.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use lba_cpu::Machine;
use lba_isa::Program;
use lba_lifeguard::{DispatchEngine, Finding, Lifeguard};
use lba_record::EventRecord;
use lba_transport::live::{shard_frame_channels, FrameReceiver, FrameSender, FrameWire};
use lba_transport::{shard_of, FrameSource, LoadSample, SocketError};

use crate::config::SystemConfig;
use crate::error::LbaError;
use crate::pipeline::{Producer, ProducerLink};
use crate::report::{merge_shard_findings, LogStats, PipelineReport, RunReport};
use crate::runner::RunMode;

/// The live modes' [`ProducerLink`]: one frame sender per shard over
/// either wire, [`shard_of`] deciding routed-vs-broadcast, and the
/// consumers' finding count, which snaps degraded capture back.
struct ShardLink<'a, W: FrameWire> {
    senders: Vec<FrameSender<W>>,
    /// Findings so far over all shards, published by the consumers.
    found: &'a AtomicU64,
}

impl<W: FrameWire> ProducerLink for ShardLink<'_, W> {
    fn ship(&mut self, rec: &EventRecord) {
        match self.senders.as_mut_slice() {
            // One shard owns every record, as `shard_of` would route it.
            // Pushing directly measured 2.7% and 6.2% more events/s than
            // routing (medians of two sets of ten perfbench `live-record`
            // pairs, better in 7/10 and 9/10; 2-vCPU Xeon VM).
            [only] => only.push(rec),
            senders => match shard_of(rec, senders.len()) {
                Some(owner) => senders[owner].push(rec),
                None => senders.iter_mut().for_each(|tx| tx.push(rec)),
            },
        }
    }

    fn mark_degraded(&mut self, on: bool) {
        for tx in &mut self.senders {
            tx.flush();
            tx.set_degraded(on);
        }
    }

    fn load_sample(&self) -> LoadSample {
        // The fullest shard's wire: one overloaded shard is what blocks
        // the producer.
        self.senders
            .iter()
            .map(FrameSender::load_sample)
            .max_by_key(LoadSample::occupancy_permille)
            .unwrap_or_default()
    }

    fn finding_count(&self) -> u64 {
        self.found.load(Ordering::Relaxed)
    }

    fn contain_syscall(&mut self) {
        // Real threads cannot stall a modeled clock; containment reduces
        // to sealing the open frames so the consumers observe everything
        // that precedes the syscall.
        self.senders.iter_mut().for_each(FrameSender::flush);
    }

    /// Real threads always run decoupled: only the co-simulation models
    /// the lock-step ablation.
    fn lockstep(&mut self) {}
}

/// Runs `program` on one thread and the lifeguard on another (this one),
/// returning its findings with the measured wire statistics: the
/// one-shard case of [`run_live_parallel`]. The capture pass and syscall
/// containment are the co-simulation's: filtered records never reach the
/// channel, and each syscall seals the open frame so the lifeguard sees
/// everything that precedes it. `decoupled` has no effect.
///
/// # Errors
///
/// The framing errors of
/// [`LogConfig::validate_framing`](crate::LogConfig::validate_framing),
/// [`LbaError::Stream`] when a recording cannot be written,
/// [`LbaError::Run`] for a machine fault, [`LbaError::ChannelStalled`]
/// for a stalled consumer, and [`LbaError::Panicked`] when the lifeguard
/// or the producer panics.
pub fn run_live(
    program: &Program,
    lifeguard: &mut dyn Lifeguard,
    config: &SystemConfig,
) -> Result<RunReport, LbaError> {
    config.log.validate_framing()?;
    let depth = config.log.live_channel_frames();
    let wires = shard_frame_channels(1, depth, config.log.frame_config());
    let producer = Producer::single(lifeguard, config);
    let mode = RunMode::Live;
    run_sharded(program, mode, lifeguard, None, producer, wires, config)
}

/// Runs `program` on one thread with the lifeguard sharded `shards` ways
/// by address, each shard on its own OS thread with its own framed
/// compressed channel, dispatch engine, and lifeguard instance.
///
/// `make_lifeguard` builds one (identical) lifeguard instance per shard,
/// on the thread that consumes it, so the instances never migrate. The
/// channel depth per shard comes from
/// [`LogConfig::live_channel_frames`](crate::LogConfig::live_channel_frames),
/// the same budget-derived depth `run_live` uses.
///
/// Unlike [`run_live`], this mode mirrors the modeled parallel study
/// exactly, so two `LogConfig` fields are deliberately **ignored**:
/// `filter` (the address-range filter has no sharded soundness story) and
/// `syscall_stall` (frames seal only when full or at end of program;
/// there is no containment flush). The `idempotency_window` **does**
/// apply: the capture pass runs on the producer before routing — a
/// suppressed duplicate would have landed on the same shard as its first
/// occurrence, so the per-lifeguard soundness contract carries over
/// unchanged — and `run_lba_parallel` runs the identical pass, which
/// keeps each shard's wire stream byte-identical between the two modes.
/// The adaptive controller applies on the producer, `record_to` tees each
/// shard's stream to disk, `channel_stall_timeout` bounds how long the
/// producer waits on a full shard, and `fault.drain_drag` slows the
/// consumers' drain.
///
/// # Errors
///
/// [`LbaError::InvalidRequest`] when `shards` is zero, and otherwise as
/// [`run_live`], a stalled shard included.
pub fn run_live_parallel(
    program: &Program,
    make_lifeguard: impl Fn() -> Box<dyn Lifeguard> + Sync,
    shards: usize,
    config: &SystemConfig,
) -> Result<RunReport, LbaError> {
    let mode = RunMode::LiveParallel;
    LbaError::check_shards(mode, shards)?;
    config.log.validate_framing()?;
    let depth = config.log.live_channel_frames();
    let wires = shard_frame_channels(shards, depth, config.log.frame_config());
    run_sharded_from(program, mode, &make_lifeguard, wires, config)
}

/// The sharded modes' entry to [`run_sharded`] (`run_live_parallel` over
/// in-process queues, `run_remote` over sockets): shard 0's lifeguard is
/// built here, on the calling thread that consumes it, and configures the
/// [`Producer::sharded`] capture pass; handing the runner the factory too
/// gives shards 1..N their lifeguards.
pub(crate) fn run_sharded_from<W, S>(
    program: &Program,
    mode: RunMode,
    make_lifeguard: &(dyn Fn() -> Box<dyn Lifeguard> + Sync),
    wires: (Vec<FrameSender<W>>, Vec<FrameReceiver<S>>),
    config: &SystemConfig,
) -> Result<RunReport, LbaError>
where
    W: FrameWire + Send,
    S: FrameSource + Send,
    LbaError: From<W::Error>,
{
    let mut first = make_lifeguard();
    let producer = Producer::sharded(first.as_ref(), config);
    run_sharded(
        program,
        mode,
        first.as_mut(),
        Some(make_lifeguard),
        producer,
        wires,
        config,
    )
}

/// The live runner every live mode is (see the [module docs](self)):
/// `producer` fans the log out over each shard's sender on a spawned
/// thread while [`consume_shards`] drains them, and the report names
/// `mode`. A `make_lifeguard` of `None` is `run_live`: one shard, whose
/// lifeguard the caller holds.
fn run_sharded<W, S>(
    program: &Program,
    mode: RunMode,
    lifeguard: &mut dyn Lifeguard,
    make_lifeguard: Option<&(dyn Fn() -> Box<dyn Lifeguard> + Sync)>,
    mut producer: Producer,
    (mut senders, receivers): (Vec<FrameSender<W>>, Vec<FrameReceiver<S>>),
    config: &SystemConfig,
) -> Result<RunReport, LbaError>
where
    W: FrameWire + Send,
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
        // Bound the producer's wait on a full wire: a consumer that stops
        // draining surfaces as `LbaError::ChannelStalled`, not a livelock.
        tx.set_stall_timeout(config.log.channel_stall_timeout);
    }
    let found = &AtomicU64::new(0);

    let (produced, consumed) = thread::scope(|scope| {
        // The producer ends every shard's stream, and its senders drop
        // when it returns, errs or unwinds, so the consumers always end.
        let producer_thread = scope.spawn(move || -> Result<_, LbaError> {
            let mut link = ShardLink { senders, found };
            let mut machine = Machine::new(program, config.machine);
            machine.run(None, |r| producer.observe(&r.record, &mut link))?;
            // A latched stall means frames were silently discarded past
            // the timeout: the run is no longer lossless and must fail.
            if link.senders.iter().any(FrameSender::stalled) {
                return Err(LbaError::ChannelStalled);
            }
            // Snap back out of degradation, settle fold counts, ship the
            // tail, then seal each shard's final frame before taking the
            // recording tee back, so the recording is the complete stream.
            let finish = producer.finish(&mut link);
            let mut shard_log = Vec::with_capacity(shards);
            for mut tx in link.senders.drain(..) {
                tx.flush();
                crate::recorder::finish_tee(tx.take_tee())?;
                if tx.stalled() {
                    return Err(LbaError::ChannelStalled);
                }
                shard_log.push(tx.finish()?);
            }
            Ok((finish, shard_log))
        });
        let consumed = consume_shards(receivers, lifeguard, make_lifeguard, found, config);
        (producer_thread.join(), consumed)
    });

    let produced = produced.unwrap_or_else(|payload| Err(panicked("the producer thread", payload)));
    let consumed = (consumed.into_iter())
        .map(|consumed| consumed.map(|(findings, _)| findings))
        .collect();
    let ((finish, shard_log), shard_findings) = settle(produced, consumed)?;
    // No modeled clock runs: the cycle fields stay zero.
    Ok(RunReport {
        program: program.name().to_string(),
        mode,
        pipeline: PipelineReport {
            findings: merge_shard_findings(shard_findings),
            log: LogStats::from_channels(&shard_log, finish.trace.instructions()),
            capture: finish.capture,
            degradation: finish.degradation,
        },
        trace: finish.trace,
        shard_log,
        ..RunReport::default()
    })
}

/// The run's result from its threads' results: the producer's, and each
/// shard consumer's in shard order. A producer-side error explains the
/// tear (a wire that ended mid-stream) it leaves on the consumers' wires,
/// so it wins — except a socket error when a consumer failed in its own
/// right: a consumer that dies tears the producer's wire too, and its own
/// error says why. Among the consumers, the first failure that is not a
/// tear wins.
fn settle<T>(
    produced: Result<T, LbaError>,
    consumed: Vec<Result<Vec<Finding>, LbaError>>,
) -> Result<(T, Vec<Vec<Finding>>), LbaError> {
    let is_tear = |e: &LbaError| matches!(e, LbaError::Socket(SocketError::Torn { .. }));
    let mut shard_findings = Vec::with_capacity(consumed.len());
    let mut failures = Vec::new();
    for result in consumed {
        match result {
            Ok(findings) => shard_findings.push(findings),
            Err(e) => failures.push(e),
        }
    }
    // A stable sort: shard order holds among the failures and the tears.
    failures.sort_by_key(is_tear);
    match (produced, failures.into_iter().next()) {
        (Ok(done), None) => Ok((done, shard_findings)),
        (Err(LbaError::Socket(_)), Some(consumer)) if !is_tear(&consumer) => Err(consumer),
        (Ok(_), Some(consumer)) => Err(consumer),
        (Err(producer), _) => Err(producer),
    }
}

/// A consumer's findings and its spent receiver.
type Consumed<S> = (Vec<Finding>, FrameReceiver<S>);

/// The consumer threads of every live run and of a replay: shard 0 on
/// the calling thread with `lifeguard`, and each further shard on a
/// spawned thread with a lifeguard `make_lifeguard` builds there. Every
/// consumer adds its findings to `found` as it reports them. Returns each
/// shard's findings and spent receiver in shard order; a consumer's panic
/// is [`LbaError::Panicked`] naming its shard and lifeguard.
pub(crate) fn consume_shards<S: FrameSource + Send>(
    receivers: Vec<FrameReceiver<S>>,
    lifeguard: &mut dyn Lifeguard,
    make_lifeguard: Option<&(dyn Fn() -> Box<dyn Lifeguard> + Sync)>,
    found: &AtomicU64,
    config: &SystemConfig,
) -> Vec<Result<Consumed<S>, LbaError>> {
    let name = lifeguard.name();
    let mut receivers = receivers.into_iter();
    let first = receivers.next().expect("every run has a shard");
    let consumed = thread::scope(|scope| {
        let others: Vec<_> = receivers
            .map(|rx| {
                let make = make_lifeguard.expect("more than one shard comes with a factory");
                scope.spawn(move || consume(rx, make().as_mut(), found, config))
            })
            .collect();
        let mut consumed = vec![panic::catch_unwind(AssertUnwindSafe(|| {
            consume(first, lifeguard, found, config)
        }))];
        consumed.extend(others.into_iter().map(|handle| handle.join()));
        consumed
    });
    (consumed.into_iter().enumerate())
        .map(|(shard, consumed)| {
            let thread = || format!("shard {shard} consumer (lifeguard `{name}`)");
            consumed.unwrap_or_else(|payload| Err(panicked(&thread(), payload)))
        })
        .collect()
}

/// One shard's consumer: a blocking receive, decode and untimed batch
/// dispatch per frame, publishing the lifeguard's findings count, until
/// the stream ends. A failed consumer drops its receiver at once, so a
/// producer waiting on the wire sees the consumer gone.
fn consume<S: FrameSource>(
    mut rx: FrameReceiver<S>,
    lifeguard: &mut dyn Lifeguard,
    found: &AtomicU64,
    config: &SystemConfig,
) -> Result<Consumed<S>, LbaError> {
    if let Some(fault) = &config.log.fault {
        rx.set_drag(fault.drain_drag);
    }
    let engine = DispatchEngine::new(config.dispatch);
    let mut findings = Vec::new();
    while let Some(frame) = rx.recv_batch()? {
        let before = findings.len();
        // Untimed: no memory system, so the core index is never read.
        engine.deliver_batch(lifeguard, frame.records, None, 0, &mut findings);
        let added = (findings.len() - before) as u64;
        if added > 0 {
            found.fetch_add(added, Ordering::Relaxed);
        }
    }
    engine.finish(lifeguard, None, 0, &mut findings);
    Ok((findings, rx))
}

/// The error for a `thread` that panicked, carrying the panic message
/// (the payload of a `panic!` with a message is a `&str` or a `String`).
fn panicked(thread: &str, payload: Box<dyn Any + Send>) -> LbaError {
    let message = (payload.downcast_ref::<String>().map(String::as_str))
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("(no message)");
    LbaError::Panicked {
        thread: thread.to_string(),
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::run_lba;
    use crate::pipeline::{ADDRCHECK, LOCKSET};
    use lba_lifeguard::FindingKind;
    use lba_lifeguards::{AddrCheck, TaintCheck};
    use lba_workloads::{bugs, Benchmark};

    #[test]
    fn live_mode_detects_bugs() {
        let program = bugs::memory_bugs();
        let mut lg = AddrCheck::new();
        let report = run_live(&program, &mut lg, &SystemConfig::default()).unwrap();
        assert_eq!(report.shard_log.len(), 1);
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DoubleFree));
    }

    #[test]
    fn live_findings_match_deterministic_mode() {
        let config = SystemConfig::default();
        let program = bugs::exploit();
        let mut lg = TaintCheck::new();
        let live = run_live(&program, &mut lg, &config).unwrap();
        let mut lg = TaintCheck::new();
        let cosim = run_lba(&program, &mut lg, &config).unwrap();
        assert_eq!(live.findings, cosim.findings);
    }

    #[test]
    fn live_mode_measures_sub_byte_wire_traffic() {
        // The acceptance bar for the framed transport: with compression
        // on, the *live* path ships less than one real byte per
        // instruction, padding and headers included.
        let program = Benchmark::Gzip.build();
        let config = SystemConfig::default();
        let mut lg = AddrCheck::new();
        let report = run_live(&program, &mut lg, &config).unwrap();
        assert!(report.log.records > 0);
        assert!(report.log.frames > 0);
        assert!(
            report.log.wire_bytes_per_instruction < 1.0,
            "live wire traffic {:.3} B/inst must stay below one byte",
            report.log.wire_bytes_per_instruction
        );
        // And it agrees with the modeled channel's accounting of the same
        // program (both run the identical frame codec).
        let mut lg = AddrCheck::new();
        let cosim = run_lba(&program, &mut lg, &config).unwrap();
        assert_eq!(report.log.records, cosim.log.records);
        assert_eq!(report.log.compressed_bits, cosim.log.compressed_bits);
        assert_eq!(report.log.frames, cosim.log.frames);
        assert_eq!(report.log.wire_bits, cosim.log.wire_bits);
    }

    #[test]
    fn live_back_pressure_depth_follows_the_buffer_budget() {
        // Regression: the live mode used to hard-code a 64-frame queue and
        // silently ignore `buffer_bytes`. A sub-frame budget now means a
        // one-deep queue — maximal back-pressure — and the pipeline must
        // still complete, lossless, with the same wire stream the default
        // budget ships.
        let program = bugs::memory_bugs();
        let mut tight = SystemConfig::default();
        tight.log.buffer_bytes = 64;
        assert_eq!(tight.log.live_channel_frames(), 1);
        let mut lg = AddrCheck::new();
        let constrained = run_live(&program, &mut lg, &tight).unwrap();
        let mut lg = AddrCheck::new();
        let roomy = run_live(&program, &mut lg, &SystemConfig::default()).unwrap();
        assert_eq!(constrained.findings, roomy.findings);
        assert_eq!(constrained.log.records, roomy.log.records);
        assert_eq!(constrained.log.wire_bits, roomy.log.wire_bits);
    }

    #[test]
    fn live_mode_honours_the_capture_filter() {
        let program = Benchmark::Gzip.build();
        let mut config = SystemConfig::default();
        config.log.filter = Some(lba_lifeguard::AddrRangeFilter::new(vec![(
            lba_mem::layout::HEAP_BASE,
            lba_mem::layout::HEAP_END,
        )]));
        let mut lg = AddrCheck::new();
        let live = run_live(&program, &mut lg, &config).unwrap();
        assert!(
            live.capture.range_filtered > 0,
            "filter must drop events in live mode too"
        );
        let mut lg = AddrCheck::new();
        let cosim = run_lba(&program, &mut lg, &config).unwrap();
        assert_eq!(live.findings, cosim.findings);
        assert_eq!(live.capture.range_filtered, cosim.capture.range_filtered);
    }

    #[test]
    fn sharded_live_addrcheck_detects_bugs_once() {
        let program = bugs::memory_bugs();
        let config = SystemConfig::default();
        let report = run_live_parallel(&program, ADDRCHECK.make, 4, &config).unwrap();
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
        let report = run_live_parallel(&program, ADDRCHECK.make, 3, &config).unwrap();
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
        let report = run_live_parallel(&program, LOCKSET.make, 1, &config).unwrap();
        assert_eq!(report.shard_log.len(), 1);
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
        let report = run_live_parallel(&program, ADDRCHECK.make, 2, &config).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DoubleFree));
    }

    #[test]
    fn zero_shards_rejected() {
        let program = bugs::memory_bugs();
        let err = run_live_parallel(&program, ADDRCHECK.make, 0, &SystemConfig::default());
        assert!(
            matches!(err, Err(LbaError::InvalidRequest { .. })),
            "got: {err:?}"
        );
    }

    #[test]
    fn a_consumer_failure_outranks_a_producer_socket_error_but_a_tear_does_not() {
        let socket = |e| Err(LbaError::Socket(e));
        let endpoint = || "shard 0".to_string();
        let torn = || {
            socket(SocketError::Torn {
                endpoint: endpoint(),
                frames: 3,
            })
        };
        let source = || std::io::ErrorKind::BrokenPipe.into();
        let write_failed = || {
            socket(SocketError::Io {
                endpoint: endpoint(),
                source: source(),
            })
        };
        let panic = || {
            Err(LbaError::Panicked {
                thread: "shard 1".into(),
                message: "bug".into(),
            })
        };
        // Which of the threads' results the run reports.
        let winner =
            |produced: Result<Vec<Finding>, LbaError>, consumed| match settle(produced, consumed) {
                Ok(_) => "none",
                Err(LbaError::Socket(SocketError::Torn { .. })) => "tear",
                Err(LbaError::Socket(_)) => "producer write",
                Err(LbaError::ChannelStalled) => "producer stall",
                Err(LbaError::Panicked { .. }) => "consumer panic",
                Err(e) => panic!("unexpected error: {e}"),
            };
        // The producer's own write failure tore the consumer's stream.
        assert_eq!(winner(write_failed(), vec![torn()]), "producer write");
        // A dead consumer tore the producer's wire, and the producer's early
        // return tore shard 0's stream: the consumer's own error says why.
        assert_eq!(winner(torn(), vec![torn(), panic()]), "consumer panic");
        assert_eq!(
            winner(write_failed(), vec![Ok(vec![]), panic()]),
            "consumer panic"
        );
        // Any other producer error wins; a consumer error fails a finished run.
        let stalled = Err(LbaError::ChannelStalled);
        assert_eq!(winner(stalled, vec![panic()]), "producer stall");
        assert_eq!(
            winner(Ok(vec![]), vec![Ok(vec![]), panic()]),
            "consumer panic"
        );
        assert_eq!(winner(Ok(vec![]), vec![Ok(vec![]), Ok(vec![])]), "none");
    }

    #[test]
    fn zero_records_per_frame_is_a_config_error() {
        let program = bugs::memory_bugs();
        let mut config = SystemConfig::default();
        config.log.records_per_frame = 0;
        let err = run_live_parallel(&program, ADDRCHECK.make, 2, &config).unwrap_err();
        assert!(matches!(err, LbaError::ZeroRecordsPerFrame), "got: {err}");
    }
}
