//! The LBA co-simulation: the application core and its lifeguard cores
//! on modeled clocks, coordinating only through framed log channels.
//!
//! The paper's single lifeguard core and a lifeguard "split across
//! multiple cores" (§1, §3) are one design at two widths, so one
//! co-simulation serves both: [`run_lba`] is its one-shard case, and
//! [`run_lba_parallel`](crate::parallel::run_lba_parallel) shards the log
//! N ways, as [`run_live`](crate::run_live) and
//! [`run_live_parallel`](crate::run_live_parallel) share the live runner.
//! Each shard is a lifeguard core of its own, with its own
//! [`ModeledFrameChannel`] holding the full `buffer_bytes` budget, its own
//! lifeguard, its own clock, and its own L1 in the shared [`MemSystem`]
//! (the application is core 0, shard `i` is core `1 + i`).
//!
//! One timing model holds at every width:
//!
//! * a shard's clock catches up to each frame's `ready_at`, then adds the
//!   frame's dispatch cost;
//! * every cache line of log data shipped to a shard charges the
//!   application and that shard the shared-L2 transfer;
//! * a frame that does not fit its shard's buffer parks, and the
//!   application stalls while that shard drains (back-pressure);
//! * syscall containment and the lock-step ablation flush every shard,
//!   drain every shard, and make the application wait for the slowest.
//!
//! End-to-end time is the later of the application clock and the slowest
//! shard's.

use lba_cache::{MemSystem, MemSystemConfig};
use lba_compress::FRAME_LINE_BYTES;
use lba_cpu::{Machine, StepOutcome};
use lba_isa::Program;
use lba_lifeguard::{DispatchEngine, Finding, Lifeguard};
use lba_record::EventRecord;
use lba_transport::{shard_of, ChannelStats, LoadSample, ModeledFrameChannel, PushOutcome};

use crate::config::SystemConfig;
use crate::error::LbaError;
use crate::pipeline::{Producer, ProducerLink};
use crate::report::{merge_shard_findings, LogStats, PipelineReport, RunReport, StallBreakdown};
use crate::runner::RunMode;

/// Bits per transferred cache line of log data.
const LINE_BITS: u64 = FRAME_LINE_BYTES as u64 * 8;

/// Shared-L2 occupancy cycles charged per line of log data moved
/// (written by the capture engine, read by the dispatch engine).
const LINE_TRANSFER_CYCLES: u64 = 4;

/// One lifeguard core: its log channel, its lifeguard, what the lifeguard
/// found, and its clock.
struct Shard<'a> {
    channel: ModeledFrameChannel,
    lifeguard: &'a mut dyn Lifeguard,
    findings: Vec<Finding>,
    /// Lifeguard-core clock (cycles).
    t_lg: u64,
}

struct Cosim<'a> {
    mem: MemSystem,
    shards: Vec<Shard<'a>>,
    engine: DispatchEngine,
    /// Application-core clock (cycles).
    t_app: u64,
    stalls: StallBreakdown,
}

impl Cosim<'_> {
    /// Charges the application and shard `idx` the shared-L2 occupancy of
    /// a shipped frame: written line by line by the capture engine, later
    /// read by dispatch. Returns the cycles charged to each clock.
    fn charge_lines(&mut self, idx: usize, wire_bits: u64) -> u64 {
        let cycles = (wire_bits / LINE_BITS) * LINE_TRANSFER_CYCLES;
        self.t_app += cycles;
        self.shards[idx].t_lg += cycles;
        cycles
    }

    /// Consumes one whole frame on shard `idx`'s lifeguard core, advancing
    /// its clock. Returns `false` when the channel is empty.
    ///
    /// Every record of a frame shares its `ready_at` (the frame ships as a
    /// unit), so the clock catches up once per frame; handler costs are
    /// additive, and the frame's buffer lines free when it is popped.
    fn consume(&mut self, idx: usize) -> bool {
        let shard = &mut self.shards[idx];
        let Some(frame) = shard.channel.pop_frame() else {
            return false;
        };
        shard.t_lg = shard.t_lg.max(frame.ready_at);
        shard.t_lg += self.engine.deliver_batch(
            shard.lifeguard,
            frame.records,
            &mut self.mem,
            1 + idx,
            &mut shard.findings,
        );
        true
    }

    /// Resolves back-pressure on shard `idx`: its lifeguard drains frames
    /// until the parked frame is admitted, and the application clock
    /// absorbs the wait. Out of line, so [`absorb`](Self::absorb) stays
    /// small enough to inline into every push.
    #[inline(never)]
    fn resolve_back_pressure(&mut self, idx: usize) {
        let before = self.t_app;
        // Line-transfer cycles for the admitted frame are the ordinary
        // shipping cost every frame pays; keep them out of the stall
        // counter.
        let mut shipped_cycles = 0;
        while self.shards[idx].channel.has_parked() {
            let stamp = self.t_app.max(self.shards[idx].t_lg);
            if let Some(wire_bits) = self.shards[idx].channel.retry_parked(stamp) {
                shipped_cycles += self.charge_lines(idx, wire_bits);
                continue;
            }
            assert!(
                self.consume(idx),
                "a parked frame must be admitted once the buffer drains"
            );
        }
        self.t_app = self.t_app.max(self.shards[idx].t_lg);
        self.stalls.buffer_full_cycles += (self.t_app - before).saturating_sub(shipped_cycles);
    }

    /// Applies a producer-side push/flush outcome on shard `idx` to the
    /// clocks.
    fn absorb(&mut self, idx: usize, outcome: PushOutcome) {
        match outcome {
            PushOutcome::Buffered => {}
            PushOutcome::Sealed { wire_bits } => {
                self.charge_lines(idx, wire_bits);
            }
            PushOutcome::BackPressure { .. } => self.resolve_back_pressure(idx),
        }
    }

    /// Pushes one record into shard `idx`'s channel.
    fn push(&mut self, idx: usize, rec: &EventRecord) {
        let outcome = self.shards[idx].channel.push_record(rec, self.t_app);
        self.absorb(idx, outcome);
    }

    /// Address-interleaved routing over several shards, shared with the
    /// live runner ([`shard_of`]; `None` broadcasts to every shard). Kept
    /// out of line so the one-shard path of [`ship`](ProducerLink::ship)
    /// stays inlined in the run loop.
    #[inline(never)]
    fn route(&mut self, rec: &EventRecord) {
        match shard_of(rec, self.shards.len()) {
            Some(owner) => self.push(owner, rec),
            None => (0..self.shards.len()).for_each(|idx| self.push(idx, rec)),
        }
    }

    /// Seals every shard's open frame. Any back-pressure this hits is
    /// buffer stall, kept disjoint from the containment stall measured by
    /// [`wait_for_lifeguards`](Self::wait_for_lifeguards).
    fn flush(&mut self) {
        for idx in 0..self.shards.len() {
            let outcome = self.shards[idx].channel.flush(self.t_app);
            self.absorb(idx, outcome);
        }
    }

    /// Drains shard `idx` completely, parked frames included (syscall
    /// stall and end-of-program). Loops until the channel reports
    /// [`drained`](ModeledFrameChannel::drained), not merely until one pop
    /// comes back empty: under fault injection a pop refusal models a
    /// stalled consumer, and mistaking it for emptiness would truncate the
    /// drain and lose findings. Injected stall bursts are bounded, so the
    /// loop always terminates.
    fn drain(&mut self, idx: usize) {
        loop {
            if self.consume(idx) {
                continue;
            }
            let stamp = self.t_app.max(self.shards[idx].t_lg);
            if let Some(wire_bits) = self.shards[idx].channel.retry_parked(stamp) {
                self.charge_lines(idx, wire_bits);
                continue;
            }
            if self.shards[idx].channel.drained() {
                break;
            }
        }
    }

    fn drain_all(&mut self) {
        (0..self.shards.len()).for_each(|idx| self.drain(idx));
    }

    /// Drains every shard, then holds the application until the slowest
    /// lifeguard core has caught up. Returns the cycles it waited.
    fn wait_for_lifeguards(&mut self) -> u64 {
        let before = self.t_app;
        self.drain_all();
        let slowest = self.shards.iter().map(|s| s.t_lg).max().unwrap_or(0);
        self.t_app = self.t_app.max(slowest);
        self.t_app - before
    }
}

/// The co-simulation's transport plumbing under the shared [`Producer`]:
/// pushes and flushes absorb modeled timing, syscall containment drains
/// the log on the application clock, and the lock-step ablation
/// synchronises the clocks after every record.
impl ProducerLink for Cosim<'_> {
    fn ship(&mut self, rec: &EventRecord) {
        // One shard owns every record, as `shard_of` would route it.
        if self.shards.len() == 1 {
            self.push(0, rec);
        } else {
            self.route(rec);
        }
    }

    fn mark_degraded(&mut self, on: bool) {
        self.flush();
        for shard in &mut self.shards {
            shard.channel.mark_degraded(on);
        }
    }

    fn load_sample(&self) -> LoadSample {
        // The fullest shard's channel: one overloaded shard is what stalls
        // the producer.
        self.shards
            .iter()
            .map(|s| s.channel.load_sample())
            .max_by_key(LoadSample::occupancy_permille)
            .unwrap_or_default()
    }

    fn finding_count(&self) -> u64 {
        self.shards.iter().map(|s| s.findings.len() as u64).sum()
    }

    fn contain_syscall(&mut self) {
        self.flush();
        self.stalls.syscall_stall_cycles += self.wait_for_lifeguards();
        self.stalls.syscalls += 1;
    }

    fn lockstep(&mut self) {
        // Synchronise after every record, paying a one-record frame each
        // time.
        self.flush();
        self.wait_for_lifeguards();
    }
}

/// Runs `program` under LBA: the application executes on core 0 while the
/// lifeguard consumes the compressed, framed log on core 1. This is the
/// one-shard case of the co-simulation that
/// [`run_lba_parallel`](crate::parallel::run_lba_parallel) runs N shards
/// wide, under one timing model.
///
/// The two cores are decoupled (per §2 of the paper): the application only
/// waits when (i) the log buffer is full — back-pressure — or (ii) it
/// enters a syscall and the OS enforces the containment policy by flushing
/// the open frame and draining the log first. End-to-end time is the later
/// of the two core clocks. The transport is the deterministic
/// [`ModeledFrameChannel`], which runs the real frame codec so the timing
/// model ships the same wire bytes as the live mode.
///
/// Consumption is frame-granular: the lifeguard takes each frame as one
/// slice ([`ModeledFrameChannel::pop_frame`]) and the dispatch engine
/// delivers it as a batch, charging exactly what per-record delivery would
/// (pinned by the `tests/batching.rs` proptest against
/// `DispatchEngine::deliver`).
///
/// Capture runs one filter pass per retired record
/// ([`LogConfig::adaptive_capture_filter`](crate::LogConfig::adaptive_capture_filter)): the
/// optional address-range filter composed with the idempotency window,
/// which drops duplicate load/stores the lifeguard's declared contract
/// (`Lifeguard::idempotency`) proves re-derive an already-reached
/// verdict — before they cost compression, wire, or dispatch. Findings
/// are proptest-pinned identical to unfiltered runs
/// (`tests/idempotency.rs`).
///
/// # Errors
///
/// [`LbaError::LogBufferTooSmall`] when `config.log.buffer_bytes` cannot
/// hold even one cache-line frame, the framing errors of
/// [`LogConfig::validate_framing`](crate::LogConfig::validate_framing),
/// [`LbaError::Stream`] when a recording cannot be written, and
/// [`LbaError::Run`] for a machine fault.
///
/// # Panics
///
/// Panics if `config.log.verify_compression` is set and the framed stream
/// fails to round-trip (a codec bug, not a user error).
pub fn run_lba(
    program: &Program,
    lifeguard: &mut dyn Lifeguard,
    config: &SystemConfig,
) -> Result<RunReport, LbaError> {
    // The shared producer stage chain: trace accounting, the capture-pass
    // predicate (address-range filter composed with the per-lifeguard
    // idempotency window, with a widen reserve under adaptive capture),
    // the adaptive controller when configured, and syscall containment.
    let producer = Producer::single(lifeguard, config);
    run_modeled(program, vec![lifeguard], producer, RunMode::Lba, config)
}

/// The co-simulation every modeled mode is (see the [module docs](self)):
/// `lifeguards[i]` consumes shard `i` of the log on lifeguard core `1 + i`,
/// and `producer` decides what ships; the report names `mode`. Its
/// findings are the shards' merged in shard order, as every mode merges
/// them ([`RunReport::pipeline`]).
///
/// # Errors
///
/// As [`run_lba`].
pub(crate) fn run_modeled(
    program: &Program,
    lifeguards: Vec<&mut dyn Lifeguard>,
    mut producer: Producer,
    mode: RunMode,
    config: &SystemConfig,
) -> Result<RunReport, LbaError> {
    config.log.validate_framing()?;
    if config.log.buffer_bytes < FRAME_LINE_BYTES as u64 {
        return Err(LbaError::LogBufferTooSmall {
            buffer_bytes: config.log.buffer_bytes,
            frame_bytes: FRAME_LINE_BYTES as u64,
        });
    }
    let mut machine = Machine::new(program, config.machine);
    let mut shards = Vec::with_capacity(lifeguards.len());
    for (idx, lifeguard) in lifeguards.into_iter().enumerate() {
        // The hardware decompressor's work is modeled, not re-run in host
        // software; `verify_compression` decodes and cross-checks every
        // frame.
        let mut channel = ModeledFrameChannel::new(
            config.log.buffer_bytes,
            config.log.frame_config(),
            config.log.verify_compression,
        );
        // Flight recorder: one segmented stream per shard (stream 0
        // unsharded), so replay can rebuild each shard's independent
        // predictor stream.
        if let Some(record) = &config.log.record_to {
            let stream = u32::try_from(idx).expect("shard count fits u32");
            channel.tee_into(crate::recorder::open_sink(record, stream)?);
        }
        // Fault injection: each shard gets its own deterministic stall
        // schedule from the shared profile.
        if let Some(fault) = config.log.fault {
            channel.set_fault(fault);
        }
        shards.push(Shard {
            channel,
            lifeguard,
            findings: Vec::new(),
            t_lg: 0,
        });
    }
    let mut sim = Cosim {
        // Core 0: application. Cores 1..=shards: lifeguard shards.
        mem: MemSystem::new(MemSystemConfig {
            cores: shards.len() + 1,
            ..config.mem_dual()
        }),
        shards,
        engine: DispatchEngine::new(config.dispatch),
        t_app: 0,
        stalls: StallBreakdown::default(),
    };

    // One stage-chain call per retired record: the shared producer decides
    // what ships, when fidelity transitions and how syscalls contain; the
    // Cosim link absorbs the modeled timing.
    loop {
        match machine.step(&mut sim.mem)? {
            StepOutcome::Finished => break,
            StepOutcome::Retired(r) => {
                sim.t_app += r.cycles;
                producer.observe(&r.record, &mut sim);
            }
        }
    }

    // End of stream: the producer snaps back out of any open degraded
    // interval and settles outstanding fold counts; then flush the
    // partial frames, let the lifeguards finish the remaining log, and run
    // their final checks.
    let finish = producer.finish(&mut sim);
    sim.flush();
    sim.drain_all();
    for (idx, shard) in sim.shards.iter_mut().enumerate() {
        let core = 1 + idx;
        shard.t_lg += sim
            .engine
            .finish(shard.lifeguard, &mut sim.mem, core, &mut shard.findings);
        // Close the flight recording (End record + flush) and surface any
        // mirror error the channel latched mid-run.
        crate::recorder::finish_tee(shard.channel.take_tee())?;
    }

    let shard_log: Vec<ChannelStats> = sim.shards.iter().map(|s| s.channel.stats()).collect();
    let shard_cycles: Vec<u64> = sim.shards.iter().map(|s| s.t_lg).collect();
    let lifeguard_cycles = shard_cycles.iter().copied().max().unwrap_or(0);
    let findings = merge_shard_findings(sim.shards.into_iter().map(|s| s.findings).collect());
    Ok(RunReport {
        program: program.name().to_string(),
        mode,
        total_cycles: sim.t_app.max(lifeguard_cycles),
        app_cycles: sim.t_app,
        lifeguard_cycles,
        shard_cycles,
        pipeline: PipelineReport {
            findings,
            log: LogStats::from_channels(&shard_log, finish.trace.instructions()),
            capture: finish.capture,
            degradation: finish.degradation,
        },
        shard_log,
        trace: finish.trace,
        stalls: sim.stalls,
        salvaged: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_dbi, run_unmonitored};
    use lba_lifeguard::FindingKind;
    use lba_lifeguards::{AddrCheck, LockSet, TaintCheck};
    use lba_workloads::{bugs, Benchmark};

    #[test]
    fn lba_slower_than_baseline_faster_than_dbi() {
        let program = Benchmark::Gzip.build();
        let config = SystemConfig::default();
        let base = run_unmonitored(&program, &config).unwrap();

        let mut lg = AddrCheck::new();
        let lba = run_lba(&program, &mut lg, &config).unwrap();
        let mut lg = AddrCheck::new();
        let dbi = run_dbi(&program, &mut lg, &config).unwrap();

        let lba_x = lba.slowdown_vs(&base);
        let dbi_x = dbi.slowdown_vs(&base);
        assert!(lba_x > 1.0, "monitoring is not free: {lba_x:.2}");
        assert!(
            dbi_x > 2.0 * lba_x,
            "LBA ({lba_x:.1}x) must beat DBI ({dbi_x:.1}x) well"
        );
    }

    #[test]
    fn lba_detects_planted_memory_bugs() {
        let program = bugs::memory_bugs();
        let mut lg = AddrCheck::new();
        let report = run_lba(&program, &mut lg, &SystemConfig::default()).unwrap();
        use FindingKind::*;
        for kind in [UnallocatedAccess, DoubleFree, InvalidFree, Leak] {
            assert!(report.findings_of(kind).next().is_some(), "missing {kind}");
        }
    }

    #[test]
    fn lba_detects_exploit() {
        let program = bugs::exploit();
        let mut lg = TaintCheck::new();
        let report = run_lba(&program, &mut lg, &SystemConfig::default()).unwrap();
        assert!(report
            .findings_of(FindingKind::TaintedJump)
            .next()
            .is_some());
    }

    #[test]
    fn lba_detects_data_race() {
        let program = bugs::data_race();
        let mut lg = LockSet::new();
        let report = run_lba(&program, &mut lg, &SystemConfig::default()).unwrap();
        assert!(report.findings_of(FindingKind::DataRace).next().is_some());
    }

    #[test]
    fn clean_benchmarks_have_no_findings() {
        let config = SystemConfig::default();
        for benchmark in [Benchmark::Gzip, Benchmark::Water] {
            let program = benchmark.build();
            let mut addr = AddrCheck::new();
            let report = run_lba(&program, &mut addr, &config).unwrap();
            assert!(
                report.findings.is_empty(),
                "{}/addrcheck: {:?}",
                benchmark.name(),
                report.findings
            );
            let mut lock = LockSet::new();
            let report = run_lba(&program, &mut lock, &config).unwrap();
            assert!(
                report.findings.is_empty(),
                "{}/lockset: {:?}",
                benchmark.name(),
                report.findings
            );
        }
    }

    #[test]
    fn compression_round_trip_verified_inline() {
        let program = Benchmark::Tidy.build();
        let mut config = SystemConfig::default();
        config.log.verify_compression = true;
        let mut lg = AddrCheck::new();
        // The channel panics internally if any frame fails to round-trip.
        let report = run_lba(&program, &mut lg, &config).unwrap();
        assert!(report.log.records > 0);
    }

    #[test]
    fn compressed_log_is_below_one_byte_per_instruction() {
        let config = SystemConfig::default();
        let program = Benchmark::Gzip.build();
        let mut lg = AddrCheck::new();
        let report = run_lba(&program, &mut lg, &config).unwrap();
        assert!(
            report.log.bytes_per_instruction < 1.0,
            "got {:.3} B/inst",
            report.log.bytes_per_instruction
        );
        // The claim must survive framing: headers and line padding
        // included, the wire stays under a byte per instruction.
        assert!(
            report.log.wire_bytes_per_instruction < 1.0,
            "got {:.3} wire B/inst",
            report.log.wire_bytes_per_instruction
        );
        assert!(report.log.wire_bits >= report.log.compressed_bits);
        assert!(report.log.frames > 0);
    }

    #[test]
    fn tiny_buffer_causes_back_pressure() {
        let program = Benchmark::Bc.build();
        let mut config = SystemConfig::default();
        config.log.buffer_bytes = 64;
        let mut lg = TaintCheck::new();
        let report = run_lba(&program, &mut lg, &config).unwrap();
        assert!(
            report.stalls.buffer_full_cycles > 0,
            "64-byte buffer must stall"
        );
    }

    #[test]
    fn sub_frame_buffer_is_a_config_error_not_a_panic() {
        // Regression: this configuration used to reach deep into the
        // transport before failing; it must be a descriptive error.
        let program = Benchmark::Bc.build();
        let mut config = SystemConfig::default();
        config.log.buffer_bytes = 1;
        let mut lg = AddrCheck::new();
        let err = run_lba(&program, &mut lg, &config).unwrap_err();
        assert!(
            matches!(
                err,
                LbaError::LogBufferTooSmall {
                    buffer_bytes: 1,
                    frame_bytes: 64
                }
            ),
            "expected a log-buffer config error, got: {err}"
        );
        assert!(
            err.to_string().contains("cannot hold"),
            "descriptive message: {err}"
        );
    }

    #[test]
    fn zero_records_per_frame_is_a_config_error_not_a_panic() {
        // One error from every entry point: the modeled and live runners
        // and the builder.
        let program = Benchmark::Bc.build();
        let mut config = SystemConfig::default();
        config.log.records_per_frame = 0;
        let mut lg = AddrCheck::new();
        let modeled = run_lba(&program, &mut lg, &config).unwrap_err();
        let mut lg = AddrCheck::new();
        let live = crate::run_live(&program, &mut lg, &config).unwrap_err();
        let built = crate::Run::new(&program).config(&config).run().unwrap_err();
        for err in [modeled, live, built] {
            assert!(matches!(err, LbaError::ZeroRecordsPerFrame), "got: {err}");
        }
    }

    #[test]
    fn syscall_stalls_are_charged() {
        let program = Benchmark::Gs.build();
        let config = SystemConfig::default();
        let mut lg = AddrCheck::new();
        let report = run_lba(&program, &mut lg, &config).unwrap();
        assert!(report.stalls.syscalls > 0);
        assert!(report.stalls.syscall_stall_cycles > 0);
    }

    #[test]
    fn lockstep_is_no_faster_than_decoupled() {
        let program = Benchmark::Bc.build();
        let mut config = SystemConfig::default();
        let mut lg = TaintCheck::new();
        let decoupled = run_lba(&program, &mut lg, &config).unwrap();
        config.log.decoupled = false;
        let mut lg = TaintCheck::new();
        let lockstep = run_lba(&program, &mut lg, &config).unwrap();
        assert!(lockstep.total_cycles >= decoupled.total_cycles);
    }

    #[test]
    fn heap_filter_cuts_lifeguard_work() {
        let program = Benchmark::Gzip.build();
        let config = SystemConfig::default();
        let mut lg = AddrCheck::new();
        let unfiltered = run_lba(&program, &mut lg, &config).unwrap();

        let mut filtered_cfg = SystemConfig::default();
        filtered_cfg.log.filter = Some(lba_lifeguard::AddrRangeFilter::new(vec![(
            lba_mem::layout::HEAP_BASE,
            lba_mem::layout::HEAP_END,
        )]));
        let mut lg = AddrCheck::new();
        let filtered = run_lba(&program, &mut lg, &filtered_cfg).unwrap();

        assert!(
            filtered.capture.range_filtered > 0,
            "filter must drop events"
        );
        assert!(
            filtered.lifeguard_cycles < unfiltered.lifeguard_cycles,
            "filtering must reduce lifeguard time"
        );
        // Heap-range filtering is sound for AddrCheck: same findings.
        assert_eq!(filtered.findings, unfiltered.findings);
    }

    #[test]
    fn frame_size_trades_wire_overhead_for_lag() {
        // Bigger frames amortise header+padding: wire B/inst must not
        // increase when the batch grows.
        let program = Benchmark::Gzip.build();
        let mut small = SystemConfig::default();
        small.log.records_per_frame = 16;
        let mut big = SystemConfig::default();
        big.log.records_per_frame = 1024;
        let mut lg = AddrCheck::new();
        let small = run_lba(&program, &mut lg, &small).unwrap();
        let mut lg = AddrCheck::new();
        let big = run_lba(&program, &mut lg, &big).unwrap();
        assert!(
            big.log.wire_bytes_per_instruction <= small.log.wire_bytes_per_instruction,
            "1024-record frames ({:.3} B/inst) vs 16-record frames ({:.3} B/inst)",
            big.log.wire_bytes_per_instruction,
            small.log.wire_bytes_per_instruction
        );
        // Payload is identical either way: framing only changes overhead.
        assert_eq!(big.log.compressed_bits, small.log.compressed_bits);
        assert_eq!(big.findings, small.findings);
    }
}
