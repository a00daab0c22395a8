//! Offline replay: drive any lifeguard over a recorded flight-recorder
//! stream set.
//!
//! A run with [`LogConfig::record_to`](crate::LogConfig) set leaves a
//! directory of segmented `lbas/1` streams behind — the exact sealed wire
//! frames its transport shipped, one stream per shard. [`run_replay`]
//! opens that directory, validates the headers, and runs the live
//! runner's consumer threads over it with no producer: each stream is a
//! [`FrameReceiver`] over a [`StreamSource`], decoded and dispatched to a
//! fresh lifeguard exactly as a live shard is. Yesterday's traffic,
//! today's (possibly *different*) analysis — the paper's
//! retroactive-monitoring story, and the shape Jahier & Ducassé's
//! one-trace-many-analyses monitor takes. In pipeline terms this is the
//! [`TopologyKind::Replay`](crate::pipeline::TopologyKind::Replay)
//! topology: the recorded streams stand in for the producer.
//!
//! Fidelity contract: the recorded frames are the sealed wire images, so
//! the replay's per-stream wire-bit totals equal the recording run's
//! transport accounting bit for bit, and the findings equal the original
//! run's: every mode merges its consumers' findings one way
//! ([`RunReport::pipeline`]), so the replay needs no guess at which rule
//! the recording run used. Integration tests pin both for all four run
//! modes.
//!
//! A replay reports in the [`RunReport`] every mode returns, with `mode`
//! [`RunMode::Replay`] and `program` the recording directory. Stream `i`
//! is `shard_log[i]`, the receiver's count of what it read back, so its
//! records, frames, wire bits and degraded frames compare directly with
//! the recording run's own `shard_log[i]`. No modeled clock runs, so the
//! cycle fields stay zero.
//!
//! Replay decodes with the codec parameters in the caller's
//! [`SystemConfig`] — use the same `compression` / `records_per_frame`
//! settings the recording run used. A stream sealed under a different
//! codec *version* is refused before any consumer starts
//! ([`LbaError::CodecMismatch`]). Damage, an undecodable frame and a
//! lifeguard panic are the live modes' errors ([`LbaError::Stream`],
//! [`LbaError::Decode`], [`LbaError::Panicked`]), never a panic of the
//! caller. Like the live modes, replay dispatches untimed.

use std::path::Path;
use std::sync::atomic::AtomicU64;

use lba_compress::CODEC_VERSION;
use lba_lifeguard::Lifeguard;
use lba_record::{stream_ids, SegmentReader};
use lba_transport::live::FrameReceiver;
use lba_transport::StreamSource;

use crate::config::SystemConfig;
use crate::error::LbaError;
use crate::live_parallel::consume_shards;
use crate::report::{merge_shard_findings, LogStats, PipelineReport, RunReport, SalvagedTail};
use crate::runner::RunMode;

/// How a replay treats a damaged recording.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReplayMode {
    /// Any stream damage is fatal: the replay fails with a descriptive
    /// [`LbaError`]. The default, and what [`run_replay`] always does.
    #[default]
    Strict,
    /// A torn or truncated *tail* is survivable: the checksummed prefix
    /// of each damaged stream is replayed in full, the tear point is
    /// reported as a [`SalvagedTail`], and the replay completes with
    /// whatever the recording still proves. Damage that precedes any
    /// frame — an unopenable stream, a codec-version mismatch — stays
    /// fatal: there is no trustworthy prefix to salvage.
    SalvagePrefix,
}

/// Replays every stream recorded in `dir` through a fresh lifeguard per
/// stream, returning the merged findings and per-stream wire accounting.
///
/// `make_lifeguard` builds one lifeguard instance per recorded stream, on
/// the thread that consumes it — it does **not** have to be the lifeguard
/// that ran live; any lifeguard whose event subscriptions are satisfied by
/// the recorded stream works (recordings are unfiltered full streams
/// unless the original run filtered at capture). For a sharded recording
/// the streams replay in parallel, one consumer thread each, and the
/// per-stream findings merge in stream order as every mode's do.
///
/// Replay is functional, not timed: records are delivered frame-at-a-time
/// at maximum speed, with no transport model in the loop.
/// `fault.drain_drag` slows each stream's consumer as it slows a live one.
///
/// # Errors
///
/// [`LbaError::Stream`] for stream-layer damage, including
/// [`StreamError::NoSuchStream`](lba_record::StreamError::NoSuchStream)
/// for a stream missing below the highest one recorded (a lost shard),
/// [`LbaError::NoStreams`],
/// [`LbaError::CodecMismatch`], [`LbaError::Decode`] for a frame that
/// fails to decode, and [`LbaError::Panicked`] when a lifeguard panics.
pub fn run_replay(
    dir: impl AsRef<Path>,
    make_lifeguard: impl Fn() -> Box<dyn Lifeguard> + Sync,
    config: &SystemConfig,
) -> Result<RunReport, LbaError> {
    run_replay_with(dir, make_lifeguard, config, ReplayMode::Strict)
}

/// [`run_replay`] with an explicit damage policy — see [`ReplayMode`].
///
/// # Errors
///
/// As [`run_replay`] under [`ReplayMode::Strict`]. Under
/// [`ReplayMode::SalvagePrefix`] a mid-stream tear is *not* an error:
/// the damaged stream's checksummed prefix is delivered and the loss is
/// reported in [`RunReport::salvaged`]. Errors that precede any frame
/// (unopenable stream, codec mismatch, no streams at all) and decode
/// failures of *intact* frames remain fatal in both modes.
pub fn run_replay_with(
    dir: impl AsRef<Path>,
    make_lifeguard: impl Fn() -> Box<dyn Lifeguard> + Sync,
    config: &SystemConfig,
    mode: ReplayMode,
) -> Result<RunReport, LbaError> {
    let dir = dir.as_ref();
    let Some(&last) = stream_ids(dir)?.last() else {
        return Err(LbaError::NoStreams {
            dir: dir.display().to_string(),
        });
    };
    // Every stream opens and passes the codec check before any consumer
    // starts. A run records streams 0..N, so a gap is a lost shard: the
    // first missing stream fails to open. Each receiver has its own
    // decoder, as each shard had its own encoder.
    let frames = config.log.frame_config();
    let mut receivers = Vec::new();
    for stream in 0..=last {
        let mut source = StreamSource::new(SegmentReader::open(dir, stream)?);
        if source.codec_version() != CODEC_VERSION {
            return Err(LbaError::CodecMismatch {
                stream,
                recorded: source.codec_version(),
                running: CODEC_VERSION,
            });
        }
        source.set_salvage(mode == ReplayMode::SalvagePrefix);
        receivers.push(FrameReceiver::new(source, stream, frames));
    }

    let mut first = make_lifeguard();
    let consumed = consume_shards(
        receivers,
        first.as_mut(),
        Some(&make_lifeguard),
        &AtomicU64::new(0),
        config,
    );
    let (mut shard_findings, mut shard_log, mut salvaged) = (Vec::new(), Vec::new(), Vec::new());
    for (stream, consumed) in (0..).zip(consumed) {
        let (findings, rx) = consumed?;
        let stats = rx.stats();
        if let Some(tear) = rx.source().tear() {
            salvaged.push(SalvagedTail {
                stream,
                frames_salvaged: stats.frames,
                detail: tear.to_string(),
            });
        }
        shard_log.push(stats);
        shard_findings.push(findings);
    }

    // Nothing retires and nothing is captured in a replay, and payload bits
    // are unknowable, as only sealed wire frames are recorded.
    let log = LogStats::from_channels(&shard_log, 0);
    Ok(RunReport {
        program: dir.display().to_string(),
        mode: RunMode::Replay,
        shard_log,
        pipeline: PipelineReport {
            findings: merge_shard_findings(shard_findings),
            log,
            ..PipelineReport::default()
        },
        salvaged,
        ..RunReport::default()
    })
}
