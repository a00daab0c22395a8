//! Execution reports.
//!
//! Every run mode's report embeds the same [`PipelineReport`] core —
//! findings, log accounting, capture-filter ledger and degradation
//! ledger — and adds only what its execution model genuinely measures on
//! top: modeled clocks and per-shard wire statistics ([`RunReport`], for
//! the co-simulation at one shard or N and for the baselines), per-shard
//! wire statistics alone ([`LiveReport`], for the live runner), or replay
//! stream accounting ([`ReplayReport`]). The mode reports deref to the
//! core, so `report.findings`, `report.log` and `report.degradation` read
//! the same way in all of them.

use std::fmt;

use lba_compress::CODEC_VERSION;
use lba_lifeguard::{CaptureStats, DegradationStats, Finding};
use lba_record::TraceStats;
use lba_transport::ChannelStats;

/// Which execution model produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No monitoring.
    Unmonitored,
    /// LBA: lifeguard on a second core fed by the hardware log.
    Lba,
    /// Valgrind-style DBI: lifeguard inline on the application core.
    Dbi,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Mode::Unmonitored => "unmonitored",
            Mode::Lba => "lba",
            Mode::Dbi => "dbi",
        })
    }
}

/// Where the application core lost time to monitoring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Cycles stalled because the log buffer was full (back-pressure).
    pub buffer_full_cycles: u64,
    /// Cycles stalled at syscalls waiting for the lifeguard to drain the
    /// log (the containment policy).
    pub syscall_stall_cycles: u64,
    /// Number of syscalls that stalled.
    pub syscalls: u64,
}

/// Log-pipeline statistics for an LBA run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LogStats {
    /// Records that entered the log (after the capture pass — what the
    /// transport actually shipped, fold summaries included).
    pub records: u64,
    /// Records observed at capture, before any filtering. `captured =
    /// records + filtered + deduped − folded`.
    pub captured: u64,
    /// Records dropped by the capture-side address filter.
    pub filtered: u64,
    /// Duplicate records suppressed by the capture-side idempotency
    /// window (zero when `LogConfig::idempotency_window` is 0 or the
    /// lifeguard's contract is `IdempotencyClass::None`).
    pub deduped: u64,
    /// `Repeat` summary records synthesized for fold-class lifeguards
    /// (already counted in `records`).
    pub folded: u64,
    /// Transport frames shipped (cache-line-multiple wire units).
    pub frames: u64,
    /// Total payload bits written (compressed, or raw when compression is
    /// off).
    pub compressed_bits: u64,
    /// Total bits on the wire: payload plus frame headers and line padding.
    pub wire_bits: u64,
    /// Average payload bytes per retired instruction — the paper's
    /// < 1 B/instruction claim.
    pub bytes_per_instruction: f64,
    /// Average *wire* bytes per retired instruction, framing overhead
    /// included — what the cache hierarchy actually carries.
    pub wire_bytes_per_instruction: f64,
}

impl LogStats {
    /// The log accounting every mode reports: the shipped-record, frame
    /// and bit counters summed over its channels (one unsharded; broadcast
    /// records count once per receiving channel), joined with the
    /// producer-side capture ledger and normalised per retired instruction.
    #[must_use]
    pub fn from_channels(stats: &[ChannelStats], capture: CaptureStats, instructions: u64) -> Self {
        let instructions = instructions.max(1) as f64;
        let sum = |bits: fn(&ChannelStats) -> u64| stats.iter().map(bits).sum::<u64>();
        let (payload_bits, wire_bits) = (sum(|s| s.payload_bits), sum(|s| s.wire_bits));
        LogStats {
            records: sum(|s| s.records),
            captured: capture.captured,
            filtered: capture.range_filtered,
            deduped: capture.deduped,
            folded: capture.folded,
            frames: sum(|s| s.frames),
            compressed_bits: payload_bits,
            wire_bits,
            bytes_per_instruction: payload_bits as f64 / 8.0 / instructions,
            wire_bytes_per_instruction: wire_bits as f64 / 8.0 / instructions,
        }
    }
}

/// The mode-independent core every run report embeds: what the pipeline
/// shipped, what capture did to it, how it degraded, and what the
/// lifeguard(s) found. The mode reports deref here, so these fields read
/// identically across all of them.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Problems the lifeguard(s) reported (merged and deduplicated in the
    /// fan-out modes).
    pub findings: Vec<Finding>,
    /// Log-pipeline statistics (aggregated over channels in the fan-out
    /// modes; see the mode report for per-channel detail).
    pub log: LogStats,
    /// What the producer-side capture pass did (records captured vs.
    /// shipped, range-filtered, deduped, folded).
    pub capture: CaptureStats,
    /// What the adaptive capture controller did (empty when
    /// `LogConfig::adaptive` is unset, the lifeguard's policy tolerates
    /// nothing, or the mode never runs a controller).
    pub degradation: DegradationStats,
}

/// Implements `Deref`/`DerefMut` from a mode report to its embedded
/// [`PipelineReport`] core (field name `pipeline`).
macro_rules! deref_pipeline {
    ($ty:ty) => {
        impl std::ops::Deref for $ty {
            type Target = crate::report::PipelineReport;
            fn deref(&self) -> &crate::report::PipelineReport {
                &self.pipeline
            }
        }
        impl std::ops::DerefMut for $ty {
            fn deref_mut(&mut self) -> &mut crate::report::PipelineReport {
                &mut self.pipeline
            }
        }
    };
}

/// The result of the live runner behind [`run_live`](crate::run_live) (one
/// shard), [`run_live_parallel`](crate::run_live_parallel) and
/// [`run_remote`](crate::run_remote): functional findings plus real wire
/// statistics, kept per shard because each shard is an independent wire
/// stream with its own predictor state. No modeled clocks — for timing,
/// see [`RunReport`], which the co-simulation reports at either width.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Program name.
    pub program: String,
    /// Shard count: 1 for `run_live`, else consumer threads or socket
    /// workers.
    pub shards: usize,
    /// Retired-instruction statistics, gathered on the producer thread.
    pub trace: TraceStats,
    /// Per-shard transport statistics (records, frames, wire bits), in
    /// shard order, from the producer side of each stream.
    pub shard_log: Vec<ChannelStats>,
    /// The shared pipeline core: the findings (`run_live`'s exactly as its
    /// lifeguard reported them; the sharded modes' merged over shards and
    /// deduplicated on `(kind, pc, addr, tid)`, since broadcast events
    /// surface the same finding on every shard), log statistics summed
    /// over the shards (broadcast records count once per shard), the
    /// producer-side capture ledger, and the degradation ledger.
    pub pipeline: PipelineReport,
}

deref_pipeline!(LiveReport);

impl fmt::Display for LiveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [live]: {} instructions; log: {} records in {} frames, {:.3} B/inst on the wire",
            self.program,
            self.trace.instructions(),
            self.log.records,
            self.log.frames,
            self.log.wire_bytes_per_instruction,
        )?;
        write_degradation(f, &self.degradation)?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// Shared one-line degradation summary for report `Display` impls;
/// silent when the controller never engaged.
fn write_degradation(f: &mut fmt::Formatter<'_>, d: &DegradationStats) -> fmt::Result {
    if d.is_empty() {
        return Ok(());
    }
    writeln!(
        f,
        "  degraded: {} interval(s), {} records sampled out, {} kind-dropped, {} snapback(s)",
        d.engagements, d.sampled_out, d.kind_dropped, d.snapbacks,
    )
}

/// Per-stream accounting of an offline replay
/// ([`run_replay`](crate::run_replay)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStreamStats {
    /// The stream id (shard index of the recording run; 0 unsharded).
    pub stream: u32,
    /// Frames replayed from the recording.
    pub frames: u64,
    /// Records decoded and delivered.
    pub records: u64,
    /// Wire bits of the replayed frames — byte-identical to what the
    /// recording run's transport shipped on this stream.
    pub wire_bits: u64,
    /// Frames whose header carried the degraded mark — the recording
    /// run's adaptive controller was engaged while they sealed, so the
    /// degraded spans ride the flight-recorder stream into replay.
    pub degraded_frames: u64,
}

/// A torn or truncated tail a
/// [`SalvagePrefix`](crate::ReplayMode::SalvagePrefix) replay cut away:
/// the checksummed prefix of the stream was replayed, this is what was
/// abandoned past it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvagedTail {
    /// The stream whose tail was torn.
    pub stream: u32,
    /// Frames salvaged before the tear (the replayed prefix).
    pub frames_salvaged: u64,
    /// What the stream layer reported at the tear point.
    pub detail: String,
}

/// The result of replaying a recorded flight-recorder stream set through
/// a lifeguard ([`run_replay`](crate::run_replay)). The recording was
/// sealed under this build's [`CODEC_VERSION`]: replay refuses any other.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Recording directory the replay consumed.
    pub dir: String,
    /// Per-stream accounting, ascending by stream id.
    pub streams: Vec<ReplayStreamStats>,
    /// Torn tails a [`SalvagePrefix`](crate::ReplayMode::SalvagePrefix)
    /// replay cut away, one entry per damaged stream. Always empty under
    /// [`Strict`](crate::ReplayMode::Strict), which fails instead.
    pub salvaged: Vec<SalvagedTail>,
    /// The shared pipeline core. Findings of the replayed lifeguard(s) —
    /// for a multi-stream (sharded) recording, merged exactly as the
    /// sharded run modes merge theirs, so equality with the original run
    /// holds per mode. The log statistics aggregate the replayed streams
    /// (no payload-bit or capture detail: the recording carries sealed
    /// wire frames, not the capture pass that produced them).
    pub pipeline: PipelineReport,
}

deref_pipeline!(ReplayReport);

impl ReplayReport {
    /// Frames that sealed while the recording run was degraded, across
    /// all streams.
    #[must_use]
    pub fn total_degraded_frames(&self) -> u64 {
        self.streams.iter().map(|s| s.degraded_frames).sum()
    }

    /// Whether the replay lost anything to a torn tail.
    #[must_use]
    pub fn is_lossy(&self) -> bool {
        !self.salvaged.is_empty()
    }
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "replay of {} [codec v{CODEC_VERSION}]: {} stream(s), {} records, {} wire bits",
            self.dir,
            self.streams.len(),
            self.log.records,
            self.log.wire_bits,
        )?;
        if self.total_degraded_frames() > 0 {
            writeln!(
                f,
                "  degraded frames replayed: {}",
                self.total_degraded_frames()
            )?;
        }
        for tail in &self.salvaged {
            writeln!(
                f,
                "  stream {}: salvaged {} frame(s), tail lost ({})",
                tail.stream, tail.frames_salvaged, tail.detail
            )?;
        }
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// The result of one execution on modeled clocks: the co-simulation
/// ([`run_lba`](crate::run_lba) with one lifeguard core,
/// [`run_lba_parallel`](crate::parallel::run_lba_parallel) with N) or a
/// baseline.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Program name.
    pub program: String,
    /// Execution model.
    pub mode: Mode,
    /// End-to-end time in cycles (for LBA: the later of the application
    /// clock and the slowest lifeguard core's).
    pub total_cycles: u64,
    /// Application-core time including monitoring-induced stalls.
    pub app_cycles: u64,
    /// Lifeguard-core time: the slowest shard's for LBA, zero for
    /// unmonitored, the inline monitoring overhead for DBI.
    pub lifeguard_cycles: u64,
    /// Lifeguard cores the log was sharded over: 1 for `run_lba`, N for
    /// `run_lba_parallel`, 0 for the baselines, which run none.
    pub shards: usize,
    /// Per-shard lifeguard-core cycles, in shard order (empty for the
    /// baselines).
    pub shard_cycles: Vec<u64>,
    /// Per-shard transport statistics (records, frames, wire bits), in
    /// shard order (empty for the baselines).
    pub shard_log: Vec<ChannelStats>,
    /// Retired-instruction statistics.
    pub trace: TraceStats,
    /// The shared pipeline core: findings (`run_lba`'s exactly as its
    /// lifeguard reported them; `run_lba_parallel`'s merged over shards
    /// and deduplicated at every shard count, as the live sharded modes
    /// merge theirs), log statistics (LBA only, summed over the shards;
    /// default for the unmonitored and DBI baselines, which ship no log),
    /// capture ledger and degradation ledger.
    pub pipeline: PipelineReport,
    /// Application stall breakdown (LBA only; default elsewhere).
    pub stalls: StallBreakdown,
}

deref_pipeline!(RunReport);

impl RunReport {
    /// Slowdown of this run relative to a baseline (usually the
    /// unmonitored run of the same program).
    ///
    /// # Panics
    ///
    /// Panics if the baseline ran zero cycles.
    #[must_use]
    pub fn slowdown_vs(&self, baseline: &RunReport) -> f64 {
        assert!(baseline.total_cycles > 0, "baseline must have run");
        self.total_cycles as f64 / baseline.total_cycles as f64
    }

    /// Findings of a particular kind.
    pub fn findings_of(
        &self,
        kind: lba_lifeguard::FindingKind,
    ) -> impl Iterator<Item = &Finding> + '_ {
        self.findings.iter().filter(move |f| f.kind == kind)
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [{}]: {} cycles ({} instructions, CPI {:.2})",
            self.program,
            self.mode,
            self.total_cycles,
            self.trace.instructions(),
            self.total_cycles as f64 / self.trace.instructions().max(1) as f64,
        )?;
        if self.mode == Mode::Lba {
            writeln!(
                f,
                "  log: {} records in {} frames, {:.3} B/inst ({:.3} on the wire); \
                 stalls: buffer {} cy, syscall {} cy ({} syscalls)",
                self.log.records,
                self.log.frames,
                self.log.bytes_per_instruction,
                self.log.wire_bytes_per_instruction,
                self.stalls.buffer_full_cycles,
                self.stalls.syscall_stall_cycles,
                self.stalls.syscalls,
            )?;
        }
        write_degradation(f, &self.degradation)?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(mode: Mode, cycles: u64) -> RunReport {
        RunReport {
            program: "t".into(),
            mode,
            total_cycles: cycles,
            app_cycles: cycles,
            lifeguard_cycles: 0,
            shards: 0,
            shard_cycles: Vec::new(),
            shard_log: Vec::new(),
            trace: TraceStats::new(),
            pipeline: PipelineReport::default(),
            stalls: StallBreakdown::default(),
        }
    }

    #[test]
    fn reports_deref_to_the_pipeline_core() {
        let mut r = report(Mode::Lba, 1);
        r.pipeline.log.records = 7;
        assert_eq!(r.log.records, 7, "field reads go through the core");
        r.log.frames = 3; // DerefMut: writes do too
        assert_eq!(r.pipeline.log.frames, 3);
    }

    #[test]
    fn slowdown_is_a_ratio() {
        let base = report(Mode::Unmonitored, 100);
        let lba = report(Mode::Lba, 390);
        assert!((lba.slowdown_vs(&base) - 3.9).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "baseline")]
    fn zero_baseline_panics() {
        let base = report(Mode::Unmonitored, 0);
        let lba = report(Mode::Lba, 10);
        let _ = lba.slowdown_vs(&base);
    }

    #[test]
    fn display_includes_mode_and_cycles() {
        let r = report(Mode::Dbi, 1234);
        let s = r.to_string();
        assert!(s.contains("dbi"));
        assert!(s.contains("1234"));
    }
}
