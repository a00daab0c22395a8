//! Epoch-parallel lifeguards: symbolic transfer-function summaries for
//! order-sensitive lifeguards.
//!
//! Address-interleaved sharding ([`run_lba_parallel`](crate::parallel))
//! deliberately excludes TaintCheck: its register taint forms a sequential
//! dependence chain through every instruction. This module closes that gap
//! with the follow-up LBA literature's *epoch* technique:
//!
//! * the producer — [`Producer::passthrough`] routing through an
//!   [`EpochRouter`] — cuts the record stream into contiguous **epochs** at
//!   every syscall (the natural containment point, where the log flushes
//!   anyway) and every `epoch_records` records; whole epochs fan out
//!   to `workers` workers round-robin, riding the existing framed
//!   transport — the epoch boundary is a one-bit mark in the sealed
//!   frame's wire header, so frames never straddle epochs;
//! * each **worker** consumes its epochs through the unmodified dispatch
//!   engine, but drives an
//!   [`EpochSummarizer`] instead of the
//!   concrete lifeguard: it computes a *symbolic transfer function* —
//!   per-register and per-touched-shadow-range out-state over unknown
//!   epoch-entry state, plus findings guarded by symbolic taint values —
//!   charging the same handler costs the concrete lifeguard would;
//! * a **merge** step stitches the summaries back in global epoch order,
//!   resolving each against the master's concrete state
//!   ([`EpochLifeguard::absorb`](lba_lifeguard::EpochLifeguard)). Because
//!   every summary is expressed over epoch-entry state and summaries are
//!   absorbed in order, the findings and final shadow state are
//!   byte-identical to the sequential run — proptest-pinned in
//!   `tests/epoch_taint.rs`.
//!
//! Three runners share the machinery: [`run_epoch_parallel`] (the modeled
//! mode: deterministic worker/stitch clocks, reporting the cycle-level
//! speedup), [`run_live_epoch_parallel`] (real OS threads: one producer,
//! `workers` summarizer threads, one merge thread), and
//! [`run_replay_epoch`] (offline: rebuild epochs from the recorded frame
//! marks of a live epoch run and re-stitch). Like the sharded parallel
//! study, the modeled mode isolates lifeguard-side scaling: no
//! back-pressure, syscall-stall, or line-transfer charges — compare
//! against `run_lba`'s lifeguard-bound totals. The passthrough producer
//! ships every retired record: epoch summaries are computed over the full
//! stream, so no capture filter or adaptive controller may drop records.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::thread;

use lba_cache::{MemSystem, MemSystemConfig};
use lba_cpu::{Machine, RunError, StepOutcome};
use lba_isa::Program;
use lba_lifeguard::{DispatchEngine, EpochLifeguard, EpochSummarizer, Finding, HandlerCtx};
use lba_record::{EventRecord, TraceStats};
use lba_transport::live::shard_frame_channels;
use lba_transport::{ChannelStats, EpochRouter, LogChannel, ModeledFrameChannel};

use crate::config::SystemConfig;
use crate::pipeline::{Producer, ProducerLink};
use crate::replay::ReplayError;
use crate::report::{LogStats, PipelineReport, ReplayReport, ReplayStreamStats};

/// Per-worker channel byte budget in the modeled mode. Epochs drain as
/// their frames seal, so this bounds transport memory, not the log; like
/// the sharded study, no back-pressure is modelled.
const EPOCH_BUFFER_BYTES: u64 = 1 << 20;

/// Result of a modeled epoch-parallel run ([`run_epoch_parallel`]).
#[derive(Debug, Clone)]
pub struct EpochParallelReport {
    /// Program name.
    pub program: String,
    /// Worker (summarizer) count.
    pub workers: usize,
    /// Epochs the stream decomposed into (and the merge step stitched).
    pub epochs: u64,
    /// Application-core cycles (no back-pressure or syscall-stall charges;
    /// this mode isolates lifeguard-side scaling, like the sharded study).
    pub app_cycles: u64,
    /// Per-worker summarizer-core cycles.
    pub worker_cycles: Vec<u64>,
    /// Merge-core clock after the last summary was absorbed: each epoch's
    /// stitch starts no earlier than the previous epoch's stitch *and* the
    /// epoch's own summary completion, so this is the pipelined critical
    /// path through workers and merge.
    pub stitch_cycles: u64,
    /// End-to-end cycles: `max(app, stitch)` (the stitch clock already
    /// dominates every worker clock it waited on).
    pub total_cycles: u64,
    /// Retired-instruction statistics.
    pub trace: TraceStats,
    /// Per-worker transport statistics. Every record lands on exactly one
    /// worker (epochs partition the stream — nothing is broadcast), so the
    /// record totals sum to the sequential stream's.
    pub worker_log: Vec<ChannelStats>,
    /// The shared pipeline core: findings in program order (identical to
    /// the sequential run's), log statistics summed over the worker
    /// streams, and the (passthrough) capture ledger.
    pub pipeline: PipelineReport,
}

crate::report::deref_pipeline!(EpochParallelReport);

impl EpochParallelReport {
    /// The slowest worker's cycles.
    #[must_use]
    pub fn max_worker_cycles(&self) -> u64 {
        self.worker_cycles.iter().copied().max().unwrap_or(0)
    }
}

/// Result of a live epoch-parallel run ([`run_live_epoch_parallel`]): real
/// threads, so findings and wire statistics but no modeled clocks.
#[derive(Debug, Clone)]
pub struct LiveEpochParallelReport {
    /// Program name.
    pub program: String,
    /// Worker (summarizer) thread count.
    pub workers: usize,
    /// Epochs stitched by the merge thread.
    pub epochs: u64,
    /// Retired-instruction statistics, gathered on the producer thread.
    pub trace: TraceStats,
    /// Per-worker transport statistics, in worker order.
    pub worker_log: Vec<ChannelStats>,
    /// The shared pipeline core: findings in program order (identical to
    /// the sequential run's) plus aggregate log statistics.
    pub pipeline: PipelineReport,
}

crate::report::deref_pipeline!(LiveEpochParallelReport);

/// One modeled worker: its channel, summarizer, clock, and the summaries
/// it has sealed (with their completion times), oldest first.
struct ModeledWorker<S: EpochSummarizer> {
    channel: ModeledFrameChannel,
    summarizer: S,
    clock: u64,
    /// Whether records arrived since the last epoch-end mark — the open
    /// tail epoch. Tracked here rather than via
    /// [`EpochSummarizer::is_open`] because the dispatch engine masks
    /// unsubscribed records before the summarizer sees them, yet the
    /// router still counts them toward the epoch.
    open: bool,
    done: VecDeque<(S::Summary, u64)>,
}

impl<S: EpochSummarizer> ModeledWorker<S> {
    /// Drains every available frame into the summarizer, sealing a
    /// summary at each epoch-end mark.
    fn drain(&mut self, engine: &DispatchEngine, mem: &mut MemSystem, core: usize) {
        // Summarizers pend findings symbolically instead of reporting, so
        // this sink stays empty; the master reports at absorb time.
        let mut no_findings = Vec::new();
        while let Some(frame) = self.channel.pop_frame() {
            self.clock = self.clock.max(frame.ready_at);
            self.open = self.open || !frame.records.is_empty();
            self.clock += engine.deliver_batch(
                &mut self.summarizer,
                frame.records,
                mem,
                core,
                &mut no_findings,
            );
            if frame.epoch_end {
                self.done
                    .push_back((self.summarizer.finish_epoch(), self.clock));
                self.open = false;
            }
        }
        debug_assert!(no_findings.is_empty(), "summarizers never report directly");
    }
}

/// The modeled epoch mode's [`ProducerLink`]: the [`EpochRouter`] fans
/// whole epochs out to the modeled workers, each ship
/// opportunistically drains sealed frames into the owning summarizer, and
/// the merge core stitches completed summaries into the master in global
/// epoch order as soon as they become available.
struct EpochModelLink<'m, E: EpochLifeguard> {
    router: EpochRouter,
    pool: Vec<ModeledWorker<E::Summarizer>>,
    engine: DispatchEngine,
    mem: MemSystem,
    master: &'m mut E,
    merge_core: usize,
    findings: Vec<Finding>,
    app_cycles: u64,
    stitch_clock: u64,
    next_epoch: u64,
}

impl<E: EpochLifeguard> EpochModelLink<'_, E> {
    /// Absorbs every summary that is next in global epoch order.
    fn stitch(&mut self) {
        loop {
            let w = (self.next_epoch % self.pool.len() as u64) as usize;
            let Some((summary, t_done)) = self.pool[w].done.pop_front() else {
                break;
            };
            self.stitch_clock = self.stitch_clock.max(t_done);
            let mut ctx = HandlerCtx::new(&mut self.mem, self.merge_core, &mut self.findings);
            self.master.absorb(summary, &mut ctx);
            self.stitch_clock += ctx.cycles();
            self.next_epoch += 1;
        }
    }
}

impl<E: EpochLifeguard> ProducerLink for EpochModelLink<'_, E> {
    fn ship(&mut self, rec: &EventRecord) {
        let route = self.router.route(rec);
        let worker = &mut self.pool[route.worker];
        worker
            .channel
            .push_record_epoch(rec, self.app_cycles, route.end_epoch);
        worker.drain(&self.engine, &mut self.mem, 1 + route.worker);
        self.stitch();
    }
}

/// Runs `program` under the modeled epoch-parallel pipeline: `master` is
/// the concrete lifeguard (it ends the run holding the same state a
/// sequential run would), `workers` summarizers consume whole epochs
/// round-robin, and the merge core stitches their summaries in epoch
/// order.
///
/// The clock model: worker cycles follow the ordinary dispatch charges
/// over each worker's frames (a frame is consumable once shipped, so the
/// worker clock first catches up to the frame's `ready_at`); each epoch's
/// absorb on the merge core starts at
/// `max(previous stitch, this epoch's summary completion)` and costs the
/// resolve/apply work [`EpochLifeguard::absorb`] charges. End-to-end time
/// is `max(app, stitch)`.
///
/// Epoch boundaries come from [`LogConfig::epoch_records`](crate::LogConfig)
/// and syscalls; see [`EpochRouter`].
///
/// # Errors
///
/// Propagates any [`RunError`] from the machine.
///
/// # Panics
///
/// Panics if `workers` or `config.log.epoch_records` is zero.
pub fn run_epoch_parallel<E: EpochLifeguard>(
    program: &Program,
    master: &mut E,
    workers: usize,
    config: &SystemConfig,
) -> Result<EpochParallelReport, RunError> {
    assert!(workers > 0, "need at least one epoch worker");
    config.log.validate_framing()?;
    let mut machine = Machine::new(program, config.machine);
    let mut pool: Vec<ModeledWorker<E::Summarizer>> = (0..workers)
        .map(|_| ModeledWorker {
            channel: ModeledFrameChannel::new(EPOCH_BUFFER_BYTES, config.log.frame_config(), false),
            summarizer: master.summarizer(),
            clock: 0,
            open: false,
            done: VecDeque::new(),
        })
        .collect();
    // Flight recorder: one segmented stream per worker, so replay can
    // rebuild each worker's epoch sequence from the recorded frame marks.
    if let Some(record) = &config.log.record_to {
        for (idx, worker) in pool.iter_mut().enumerate() {
            let stream = u32::try_from(idx).expect("worker count fits u32");
            worker
                .channel
                .tee_into(crate::recorder::open_sink(record, stream)?);
        }
    }

    // The passthrough producer: every retired record ships (summaries are
    // computed over the full stream), so no filter or controller.
    let mut producer = Producer::passthrough();
    let mut link = EpochModelLink::<E> {
        router: EpochRouter::new(workers, config.log.epoch_records),
        pool,
        engine: DispatchEngine::new(config.dispatch),
        // Core 0: application. Cores 1..=workers: summarizers. Last: merge.
        mem: MemSystem::new(MemSystemConfig::multi_core(workers + 2)),
        master,
        merge_core: workers + 1,
        findings: Vec::new(),
        app_cycles: 0,
        stitch_clock: 0,
        next_epoch: 0,
    };

    loop {
        match machine.step(&mut link.mem)? {
            StepOutcome::Finished => break,
            StepOutcome::Retired(r) => {
                link.app_cycles += r.cycles;
                producer.observe(&r.record, &mut link);
            }
        }
    }
    let finish = producer.finish(&mut link);

    // End of program: the tail epoch (if open) ships via a plain unmarked
    // flush; its worker finalises the dangling summary after draining.
    let app_cycles = link.app_cycles;
    for idx in 0..workers {
        link.pool[idx].channel.flush(app_cycles);
        let worker = &mut link.pool[idx];
        worker.drain(&link.engine, &mut link.mem, 1 + idx);
        if worker.open || worker.summarizer.is_open() {
            worker
                .done
                .push_back((worker.summarizer.finish_epoch(), worker.clock));
            worker.open = false;
        }
    }
    link.stitch();
    debug_assert_eq!(
        link.next_epoch,
        link.router.epochs(),
        "every epoch stitched"
    );
    let mut findings = link.findings;
    let mut stitch_clock = link.stitch_clock;
    stitch_clock += link
        .engine
        .finish(link.master, &mut link.mem, link.merge_core, &mut findings);

    // Close each worker's flight recording (End records + flush).
    for worker in &mut link.pool {
        crate::recorder::finish_tee(worker.channel.take_tee())?;
    }

    let worker_cycles: Vec<u64> = link.pool.iter().map(|w| w.clock).collect();
    let worker_log: Vec<ChannelStats> = link.pool.iter().map(|w| w.channel.stats()).collect();
    let total_cycles = app_cycles.max(stitch_clock);
    Ok(EpochParallelReport {
        program: program.name().to_string(),
        workers,
        epochs: link.router.epochs(),
        app_cycles,
        worker_cycles,
        stitch_cycles: stitch_clock,
        total_cycles,
        pipeline: PipelineReport {
            findings,
            log: LogStats::from_channels(&worker_log, finish.capture, finish.trace.instructions()),
            capture: finish.capture,
            degradation: finish.degradation,
        },
        trace: finish.trace,
        worker_log,
    })
}

/// The live epoch mode's [`ProducerLink`]: the [`EpochRouter`] fans whole
/// epochs out over one framed SPSC sender per worker thread, with the
/// epoch-end mark riding the sealed frame's wire header.
struct LiveEpochLink {
    router: EpochRouter,
    senders: Vec<lba_transport::live::FrameSender>,
}

impl ProducerLink for LiveEpochLink {
    fn ship(&mut self, rec: &EventRecord) {
        let route = self.router.route(rec);
        self.senders[route.worker].push_epoch(rec, route.end_epoch);
    }
}

/// Runs `program` under the live epoch-parallel pipeline: the producer
/// thread runs the machine and fans whole epochs out to `workers`
/// summarizer threads (each decoding its own compressed frame stream);
/// a merge thread stitches the summaries into `master` in global epoch
/// order — epochs go round-robin, so the merge polls the worker summary
/// queues round-robin and stops at the first disconnect (a closed worker
/// can hold no later epoch).
///
/// Functional, not timed (like the other live modes); findings and final
/// master state are byte-identical to the sequential run.
///
/// # Errors
///
/// Propagates any [`RunError`] from the machine thread.
///
/// # Panics
///
/// Panics if `workers` or `config.log.epoch_records` is zero, or if a
/// worker or merge thread panics (a codec or lifeguard bug).
pub fn run_live_epoch_parallel<E>(
    program: &Program,
    master: &mut E,
    workers: usize,
    config: &SystemConfig,
) -> Result<LiveEpochParallelReport, RunError>
where
    E: EpochLifeguard + Send,
{
    assert!(workers > 0, "need at least one epoch worker");
    config.log.validate_framing()?;
    let (mut senders, receivers) = shard_frame_channels(
        workers,
        config.log.live_channel_frames(),
        config.log.frame_config(),
    );
    if let Some(record) = &config.log.record_to {
        for (idx, tx) in senders.iter_mut().enumerate() {
            let stream = u32::try_from(idx).expect("worker count fits u32");
            tx.tee_into(crate::recorder::open_sink(record, stream)?);
        }
    }
    let summarizers: Vec<E::Summarizer> = (0..workers).map(|_| master.summarizer()).collect();
    let (sum_txs, sum_rxs): (Vec<_>, Vec<_>) = (0..workers).map(|_| mpsc::channel()).unzip();
    let engine = DispatchEngine::new(config.dispatch);

    thread::scope(|scope| {
        let consumers: Vec<_> = receivers
            .into_iter()
            .zip(summarizers)
            .zip(sum_txs)
            .map(|((mut rx, mut summarizer), sum_tx)| {
                let engine = &engine;
                let config = &*config;
                scope.spawn(move || {
                    let mut mem = MemSystem::new(config.mem_dual());
                    let mut no_findings = Vec::new();
                    // Tail-epoch openness is tracked over *all* records
                    // (the dispatch engine masks unsubscribed kinds before
                    // the summarizer counts them, yet the router counts
                    // every record toward the epoch).
                    let mut open = false;
                    // In-process frames only fail to decode on a codec bug.
                    while let Some(frame) = rx.recv_batch().expect("in-process frames decode") {
                        open = open || !frame.records.is_empty();
                        engine.deliver_batch(
                            &mut summarizer,
                            frame.records,
                            &mut mem,
                            1,
                            &mut no_findings,
                        );
                        if frame.epoch_end {
                            let _ = sum_tx.send(summarizer.finish_epoch());
                            open = false;
                        }
                    }
                    // The stream tail ships unmarked: finalise the open
                    // epoch once the channel closes.
                    if open || summarizer.is_open() {
                        let _ = sum_tx.send(summarizer.finish_epoch());
                    }
                    debug_assert!(no_findings.is_empty(), "summarizers never report");
                })
            })
            .collect();

        let merge = {
            let master = &mut *master;
            let engine = &engine;
            let config = &*config;
            scope.spawn(move || -> (Vec<Finding>, u64) {
                let mut mem = MemSystem::new(config.mem_dual());
                let mut findings = Vec::new();
                let mut epochs = 0u64;
                loop {
                    // Epochs are contiguous round-robin: a disconnect at
                    // epoch `e` means worker `e % workers` is done, and it
                    // would have carried every later epoch's predecessor
                    // slot — no epoch ≥ e exists anywhere.
                    let Ok(summary) = sum_rxs[(epochs % workers as u64) as usize].recv() else {
                        break;
                    };
                    let mut ctx = HandlerCtx::new(&mut mem, 1, &mut findings);
                    master.absorb(summary, &mut ctx);
                    epochs += 1;
                }
                engine.finish(master, &mut mem, 1, &mut findings);
                (findings, epochs)
            })
        };

        // Produce on this thread: run the machine and fan epochs out. The
        // link — and every sender — drops when this closure returns,
        // closing the worker streams so the consumers and merge finish
        // whether or not the run errored.
        let produced =
            (|| -> Result<(crate::pipeline::ProducerFinish, Vec<ChannelStats>), RunError> {
                let mut machine = Machine::new(program, config.machine);
                let mut mem = MemSystem::new(config.mem_single());
                let mut producer = Producer::passthrough();
                let mut link = LiveEpochLink {
                    router: EpochRouter::new(workers, config.log.epoch_records),
                    senders,
                };
                machine.run(&mut mem, |r| producer.observe(&r.record, &mut link))?;
                let finish = producer.finish(&mut link);
                let mut worker_log = Vec::with_capacity(workers);
                for mut tx in link.senders.drain(..) {
                    tx.flush();
                    crate::recorder::finish_tee(tx.take_tee())?;
                    let Ok(stats) = tx.finish();
                    worker_log.push(stats);
                }
                Ok((finish, worker_log))
            })();

        for handle in consumers {
            handle.join().expect("worker thread must not panic");
        }
        let (findings, epochs) = merge.join().expect("merge thread must not panic");
        let (finish, worker_log) = produced?;
        Ok(LiveEpochParallelReport {
            program: program.name().to_string(),
            workers,
            epochs,
            pipeline: PipelineReport {
                findings,
                log: LogStats::from_channels(
                    &worker_log,
                    finish.capture,
                    finish.trace.instructions(),
                ),
                capture: finish.capture,
                degradation: finish.degradation,
            },
            trace: finish.trace,
            worker_log,
        })
    })
}

/// Replays a recorded epoch-parallel stream set (one stream per worker,
/// left behind by [`run_epoch_parallel`] or [`run_live_epoch_parallel`]
/// with [`LogConfig::record_to`](crate::LogConfig) set) through a fresh
/// epoch pipeline: each stream's frames are decoded in order and cut back
/// into epochs at the recorded frame marks (a stream tail with no closing
/// mark is the run's final, open epoch), then the summaries are stitched
/// into `master` in global epoch order — worker count equals stream
/// count, epochs round-robin, exactly as they were recorded. This is the
/// [`TopologyKind::Replay`](crate::pipeline::TopologyKind::Replay)
/// topology: the recorded streams *are* the producer.
///
/// Findings and final `master` state are byte-identical to the recording
/// run's (and therefore to the sequential run's).
///
/// # Errors
///
/// See [`ReplayError`]: stream-layer damage, a codec-version mismatch, or
/// a frame that fails to decode.
pub fn run_replay_epoch<E: EpochLifeguard>(
    dir: impl AsRef<std::path::Path>,
    master: &mut E,
    config: &SystemConfig,
) -> Result<ReplayReport, ReplayError> {
    use lba_compress::{Frame, FrameDecoder, CODEC_VERSION};
    use lba_record::{stream_ids, SegmentReader};

    let dir = dir.as_ref();
    let ids = stream_ids(dir)?;
    if ids.is_empty() {
        return Err(ReplayError::NoStreams {
            dir: dir.display().to_string(),
        });
    }

    let engine = DispatchEngine::new(config.dispatch);
    let mut mem = MemSystem::new(config.mem_dual());
    let mut codec_version = CODEC_VERSION;
    let mut queues: Vec<VecDeque<<E::Summarizer as EpochSummarizer>::Summary>> =
        Vec::with_capacity(ids.len());
    let mut streams = Vec::with_capacity(ids.len());
    let mut no_findings = Vec::new();
    for &stream in &ids {
        let mut reader = SegmentReader::open(dir, stream)?;
        if reader.codec_version() != CODEC_VERSION {
            return Err(ReplayError::CodecMismatch {
                stream,
                recorded: reader.codec_version(),
                running: CODEC_VERSION,
            });
        }
        codec_version = reader.codec_version();

        let mut decoder = FrameDecoder::new(config.log.frame_config());
        let mut summarizer = master.summarizer();
        let mut batch: Vec<EventRecord> = Vec::new();
        let mut done = VecDeque::new();
        // As in the other runners: openness over all records, since the
        // dispatch mask hides unsubscribed kinds from the summarizer.
        let mut open = false;
        let mut stats = ReplayStreamStats {
            stream,
            frames: 0,
            records: 0,
            wire_bits: 0,
            degraded_frames: 0,
        };
        while let Some(frame) = reader.next_frame()? {
            batch.clear();
            decoder
                .decode_frame(&frame.bytes, &mut batch)
                .map_err(|source| ReplayError::Decode {
                    stream,
                    frame: stats.frames,
                    source,
                })?;
            open = open || !batch.is_empty();
            engine.deliver_batch(&mut summarizer, &batch, &mut mem, 1, &mut no_findings);
            if Frame::header_epoch_end(&frame.bytes) {
                done.push_back(summarizer.finish_epoch());
                open = false;
            }
            stats.frames += 1;
            stats.records += batch.len() as u64;
            stats.wire_bits += frame.wire_bits();
            if Frame::header_degraded(&frame.bytes) {
                stats.degraded_frames += 1;
            }
        }
        if open || summarizer.is_open() {
            done.push_back(summarizer.finish_epoch());
        }
        queues.push(done);
        streams.push(stats);
    }
    debug_assert!(no_findings.is_empty(), "summarizers never report");

    // Stitch in global epoch order: epochs went to streams round-robin.
    let mut findings = Vec::new();
    let mut epoch = 0u64;
    loop {
        let w = (epoch % queues.len() as u64) as usize;
        let Some(summary) = queues[w].pop_front() else {
            break;
        };
        let mut ctx = HandlerCtx::new(&mut mem, 1, &mut findings);
        master.absorb(summary, &mut ctx);
        epoch += 1;
    }
    debug_assert!(
        queues.iter().all(VecDeque::is_empty),
        "round-robin stitch must drain every stream"
    );
    engine.finish(master, &mut mem, 1, &mut findings);
    Ok(ReplayReport {
        dir: dir.display().to_string(),
        codec_version,
        pipeline: ReplayReport::stream_pipeline(&streams, findings),
        streams,
        salvaged: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::run_lba;
    use lba_lifeguard::FindingKind;
    use lba_lifeguards::TaintCheck;
    use lba_workloads::{bugs, Benchmark};

    fn run_taint(
        program: &Program,
        workers: usize,
        config: &SystemConfig,
    ) -> Result<EpochParallelReport, RunError> {
        run_epoch_parallel(program, &mut TaintCheck::new(), workers, config)
    }

    #[test]
    fn epoch_parallel_taint_matches_sequential_on_the_exploit() {
        let program = bugs::exploit();
        let config = SystemConfig::default();
        let mut seq = TaintCheck::new();
        let sequential = run_lba(&program, &mut seq, &config).unwrap();
        for workers in [1, 3] {
            let mut master = TaintCheck::new();
            let report = run_epoch_parallel(&program, &mut master, workers, &config).unwrap();
            assert_eq!(report.findings, sequential.findings, "workers={workers}");
            assert_eq!(
                master.tainted_bytes_introduced(),
                seq.tainted_bytes_introduced()
            );
            assert!(report
                .findings
                .iter()
                .any(|f| f.kind == FindingKind::TaintedJump));
        }
    }

    #[test]
    fn epoch_workers_split_the_record_stream_exactly() {
        let program = Benchmark::Gzip.build();
        let config = SystemConfig::default();
        let mut seq = TaintCheck::new();
        let sequential = run_lba(&program, &mut seq, &config).unwrap();
        let report = run_taint(&program, 4, &config).unwrap();
        // Epochs partition the stream: no broadcast, no duplication.
        assert_eq!(report.log.records, sequential.log.records);
        assert!(report.epochs >= 2, "gzip must decompose into epochs");
        assert_eq!(report.worker_log.len(), 4);
    }

    #[test]
    fn modeled_epoch_speedup_scales_with_workers() {
        let program = Benchmark::Gzip.build();
        let mut config = SystemConfig::default();
        config.log.epoch_records = 256;
        let one = run_taint(&program, 1, &config).unwrap();
        let four = run_taint(&program, 4, &config).unwrap();
        assert_eq!(one.findings, four.findings);
        let speedup = one.total_cycles as f64 / four.total_cycles as f64;
        assert!(
            speedup >= 1.5,
            "4 workers ({}) vs 1 ({}): {speedup:.2}x",
            four.total_cycles,
            one.total_cycles
        );
    }

    #[test]
    fn live_epoch_taint_matches_sequential() {
        let program = bugs::exploit();
        let config = SystemConfig::default();
        let mut seq = TaintCheck::new();
        let sequential = run_lba(&program, &mut seq, &config).unwrap();
        let mut master = TaintCheck::new();
        let report = run_live_epoch_parallel(&program, &mut master, 3, &config).unwrap();
        assert_eq!(report.findings, sequential.findings);
        assert_eq!(
            master.tainted_bytes_introduced(),
            seq.tainted_bytes_introduced()
        );
        assert_eq!(report.log.records, sequential.log.records);
    }

    #[test]
    #[should_panic(expected = "at least one epoch worker")]
    fn zero_workers_rejected() {
        let program = bugs::exploit();
        let _ = run_taint(&program, 0, &SystemConfig::default());
    }
}
