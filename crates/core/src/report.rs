//! Execution reports.
//!
//! Every run mode returns one [`RunReport`]: the co-simulation at one
//! lifeguard core or N, the two baselines, the live runner over queues or
//! sockets, and a replay of a recording. Each mode is the same pipeline
//! over another carrier, so the modes differ only in which fields their
//! carrier can fill. The cycle fields, `shard_cycles` and `stalls` stay
//! zero where no modeled clock runs (the live modes and replay),
//! `shard_log` holds one [`ChannelStats`] per stream wherever a log ships
//! or is read back, and `salvaged` is empty except after a
//! [`SalvagePrefix`](crate::ReplayMode::SalvagePrefix) replay. The
//! mode-independent core (findings, log accounting, capture ledger and
//! degradation ledger) is the embedded [`PipelineReport`], which
//! `RunReport` derefs to, so `report.findings`, `report.log` and
//! `report.degradation` read the same way for every mode.
//!
//! Every mode assembles its findings one way, too: its consumers' lists
//! in consumer order, merged on `(kind, pc, addr, tid)`. So a run and a
//! replay of its recording report the same list whatever their widths.

use std::collections::HashSet;
use std::fmt;
use std::ops::{Deref, DerefMut};

use lba_compress::CODEC_VERSION;
use lba_lifeguard::{CaptureStats, DegradationStats, Finding};
use lba_record::TraceStats;
use lba_transport::ChannelStats;

use crate::runner::RunMode;

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

/// Log-pipeline statistics for an LBA run: what the transport carried.
/// What the capture pass did before it (records captured, range-filtered,
/// deduped and folded) is the report's `capture` ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LogStats {
    /// Records that entered the log (after the capture pass — what the
    /// transport actually shipped, fold summaries included).
    pub records: u64,
    /// Transport frames shipped (cache-line-multiple wire units).
    pub frames: u64,
    /// Total payload bits written (compressed, or raw when compression is
    /// off).
    pub compressed_bits: u64,
    /// Total bits on the wire: payload plus frame headers and line padding.
    pub wire_bits: u64,
    /// Average payload bytes per retired instruction — the paper's
    /// < 1 B/instruction claim (zero when nothing retired, as in a
    /// replay).
    pub bytes_per_instruction: f64,
    /// Average *wire* bytes per retired instruction, framing overhead
    /// included — what the cache hierarchy actually carries (zero when
    /// nothing retired).
    pub wire_bytes_per_instruction: f64,
}

impl LogStats {
    /// The log accounting every mode reports: the shipped-record, frame
    /// and bit counters summed over its channels (one unsharded; broadcast
    /// records count once per receiving channel), normalised per retired
    /// instruction.
    #[must_use]
    pub fn from_channels(stats: &[ChannelStats], instructions: u64) -> Self {
        let sum = |bits: fn(&ChannelStats) -> u64| stats.iter().map(bits).sum::<u64>();
        let (payload_bits, wire_bits) = (sum(|s| s.payload_bits), sum(|s| s.wire_bits));
        let per_instruction = |bits: u64| match instructions {
            0 => 0.0,
            n => bits as f64 / 8.0 / n as f64,
        };
        LogStats {
            records: sum(|s| s.records),
            frames: sum(|s| s.frames),
            compressed_bits: payload_bits,
            wire_bits,
            bytes_per_instruction: per_instruction(payload_bits),
            wire_bytes_per_instruction: per_instruction(wire_bits),
        }
    }
}

/// The mode-independent core every [`RunReport`] embeds and derefs to:
/// what the pipeline shipped, what capture did to it, how it degraded,
/// and what the lifeguard(s) found.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Problems the lifeguard(s) reported, merged in every mode: each
    /// `(kind, pc, addr, tid)` once, where first reported (see
    /// [`RunReport::pipeline`]).
    pub findings: Vec<Finding>,
    /// Log-pipeline statistics, summed over the streams (see
    /// [`RunReport::shard_log`] for each stream's).
    pub log: LogStats,
    /// What the producer-side capture pass did (records captured vs.
    /// shipped, range-filtered, deduped, folded).
    pub capture: CaptureStats,
    /// What the adaptive capture controller did (empty when
    /// `LogConfig::adaptive` is unset, the lifeguard's policy tolerates
    /// nothing, or the mode never runs a controller).
    pub degradation: DegradationStats,
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

/// The result of one run, whatever the mode ([`RunMode`]).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// What ran: the program's name, or the recording directory a replay
    /// read.
    pub program: String,
    /// The execution model that produced this report.
    pub mode: RunMode,
    /// End-to-end time in cycles (for LBA: the later of the application
    /// clock and the slowest lifeguard core's); zero where no modeled
    /// clock runs.
    pub total_cycles: u64,
    /// Application-core time including monitoring-induced stalls.
    pub app_cycles: u64,
    /// Lifeguard-core time: the slowest shard's for LBA, zero for
    /// unmonitored, the inline monitoring overhead for DBI.
    pub lifeguard_cycles: u64,
    /// Per-shard lifeguard-core cycles, in shard order (modeled modes
    /// only; empty elsewhere).
    pub shard_cycles: Vec<u64>,
    /// Per-stream transport statistics (records, frames, wire bits,
    /// degraded frames), in stream order: stream `i` is `shard_log[i]`.
    /// One per log stream the run shipped or read back: one for `lba` and
    /// `live`, the shard or worker count for the sharded modes, the
    /// recorded stream count for a replay, none for the baselines.
    /// The modeled and live modes count what their producer shipped, a
    /// replay what its receivers read back; payload bits and the
    /// high-water mark are producer-side figures, zero for a replay.
    pub shard_log: Vec<ChannelStats>,
    /// Retired-instruction statistics (empty for a replay, which retires
    /// none).
    pub trace: TraceStats,
    /// The shared pipeline core: findings (every mode's consumers' lists
    /// in consumer order, merged on `(kind, pc, addr, tid)`: broadcast
    /// events surface the same finding on every shard, and a lifeguard
    /// that reports one finding again at the same place adds nothing, so
    /// a replay reports its recording run's findings at any width), log
    /// statistics summed over the streams (broadcast records count once
    /// per shard; default for the baselines, which ship no log; a replay
    /// knows no payload bits), capture ledger (zero for a replay, which
    /// captures nothing) and degradation ledger.
    pub pipeline: PipelineReport,
    /// Application stall breakdown (the modeled modes only; default
    /// elsewhere).
    pub stalls: StallBreakdown,
    /// Torn tails a [`SalvagePrefix`](crate::ReplayMode::SalvagePrefix)
    /// replay cut away, one per damaged stream; empty for every other run.
    pub salvaged: Vec<SalvagedTail>,
}

/// Merges per-consumer finding lists in consumer order, keeping the first
/// report of each `(kind, pc, addr, tid)`: the one findings rule of every
/// mode, whatever its width. Out of line: it runs once per run, after the
/// run loops, and inlined it would grow them.
#[inline(never)]
pub(crate) fn merge_shard_findings(shard_findings: Vec<Vec<Finding>>) -> Vec<Finding> {
    let mut seen = HashSet::new();
    let mut findings = Vec::new();
    for shard in shard_findings {
        for f in shard {
            if seen.insert((f.kind, f.pc, f.addr, f.tid)) {
                findings.push(f);
            }
        }
    }
    findings
}

impl Deref for RunReport {
    type Target = PipelineReport;

    fn deref(&self) -> &PipelineReport {
        &self.pipeline
    }
}

impl DerefMut for RunReport {
    fn deref_mut(&mut self) -> &mut PipelineReport {
        &mut self.pipeline
    }
}

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
        write!(f, "{} [{}]: ", self.program, self.mode)?;
        let instructions = self.trace.instructions();
        if self.total_cycles > 0 {
            writeln!(
                f,
                "{} cycles ({instructions} instructions, CPI {:.2})",
                self.total_cycles,
                self.total_cycles as f64 / instructions.max(1) as f64,
            )?;
        } else if instructions > 0 {
            writeln!(f, "{instructions} instructions")?;
        } else {
            // A replay retires nothing; it read frames of this codec only.
            writeln!(f, "frames sealed under codec v{CODEC_VERSION}")?;
        }
        if !self.shard_log.is_empty() {
            write!(
                f,
                "  log: {} records in {} frames over {} stream(s), {} wire bits",
                self.log.records,
                self.log.frames,
                self.shard_log.len(),
                self.log.wire_bits,
            )?;
            if instructions > 0 {
                write!(
                    f,
                    ", {:.3} B/inst ({:.3} on the wire)",
                    self.log.bytes_per_instruction, self.log.wire_bytes_per_instruction,
                )?;
            }
            writeln!(f)?;
        }
        if self.stalls != StallBreakdown::default() {
            writeln!(
                f,
                "  stalls: buffer {} cy, syscall {} cy ({} syscalls)",
                self.stalls.buffer_full_cycles,
                self.stalls.syscall_stall_cycles,
                self.stalls.syscalls,
            )?;
        }
        let degraded: u64 = self.shard_log.iter().map(|s| s.degraded_frames).sum();
        if degraded > 0 {
            let verb = if self.mode == RunMode::Replay {
                "replayed"
            } else {
                "shipped"
            };
            writeln!(f, "  degraded frames {verb}: {degraded}")?;
        }
        let d = &self.degradation;
        if !d.is_empty() {
            writeln!(
                f,
                "  degraded: {} interval(s), {} records sampled out, {} kind-dropped, {} snapback(s)",
                d.engagements, d.sampled_out, d.kind_dropped, d.snapbacks,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn report(mode: RunMode, cycles: u64) -> RunReport {
        RunReport {
            program: "t".into(),
            mode,
            total_cycles: cycles,
            app_cycles: cycles,
            ..RunReport::default()
        }
    }

    #[test]
    fn reports_deref_to_the_pipeline_core() {
        let mut r = report(RunMode::Lba, 1);
        r.pipeline.log.records = 7;
        assert_eq!(r.log.records, 7, "field reads go through the core");
        r.log.frames = 3; // DerefMut: writes do too
        assert_eq!(r.pipeline.log.frames, 3);
    }

    #[test]
    fn slowdown_is_a_ratio() {
        let base = report(RunMode::Unmonitored, 100);
        let lba = report(RunMode::Lba, 390);
        assert!((lba.slowdown_vs(&base) - 3.9).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "baseline")]
    fn zero_baseline_panics() {
        let base = report(RunMode::Unmonitored, 0);
        let lba = report(RunMode::Lba, 10);
        let _ = lba.slowdown_vs(&base);
    }

    #[test]
    fn display_includes_mode_and_cycles() {
        let r = report(RunMode::Dbi, 1234);
        let s = r.to_string();
        assert!(s.contains("dbi"));
        assert!(s.contains("1234"));
    }
}
