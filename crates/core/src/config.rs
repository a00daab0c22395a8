//! System configuration.

use std::path::PathBuf;
use std::time::Duration;

use lba_cache::MemSystemConfig;
use lba_compress::FrameConfig;
use lba_cpu::MachineConfig;
use lba_dbi::DbiConfig;
use lba_lifeguard::{
    AddrRangeFilter, CaptureFilter, DegradationPolicy, DispatchConfig, IdempotencyClass,
};
use lba_record::{FrameCountWord, StreamConfig};
use lba_transport::FaultProfile;

use crate::controller::WIDEN_ENTRIES;
use crate::error::LbaError;

/// Where (and under what bounds) a run records its sealed wire frames as
/// a durable `lbas/1` flight-recorder stream — set [`LogConfig::record_to`]
/// to enable recording in any of the four run modes.
///
/// The single-stream modes (`run_lba`, `run_live`) write stream 0; the
/// sharded modes write one stream per shard, all into the same directory.
/// `lba_core::run_replay` later replays the directory through any
/// lifeguard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordConfig {
    /// Recording directory, created if missing. Segments are named
    /// `shard-SS.NNNNNN.lbas` inside it.
    pub dir: PathBuf,
    /// Each stream's segment size and retention cap (`retain_bytes` of
    /// `u64::MAX` retains everything; replay needs the full stream).
    pub stream: StreamConfig,
}

impl RecordConfig {
    /// Records into `dir` with the default segment size and unbounded
    /// retention (everything kept, so the run stays replayable).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        RecordConfig {
            dir: dir.into(),
            stream: StreamConfig::default(),
        }
    }

    /// Each stream's segment size and retention cap.
    #[must_use]
    pub fn stream_config(&self) -> StreamConfig {
        self.stream
    }
}

/// Ceiling on the live channel queue depth derived by
/// [`LogConfig::live_channel_frames`] — the queues are allocated eagerly,
/// so the depth must stay bounded no matter the byte budget. At the
/// default frame size this is ~6.3 MiB of in-flight wire per channel,
/// far past the point where back-pressure has any effect.
pub const MAX_LIVE_CHANNEL_FRAMES: usize = 1024;

/// Configuration of the log pipeline (capture → compress → buffer →
/// dispatch).
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Log buffer capacity in bytes (a region carried by the cache
    /// hierarchy in the paper's design), per lifeguard core: each shard of
    /// a sharded run gets the whole budget.
    pub buffer_bytes: u64,
    /// Whether the VPC compression engine is enabled (ablation C turns it
    /// off to show the bandwidth pressure of a raw log).
    pub compression: bool,
    /// Records batched into one transport frame before it ships (a frame
    /// seals early at syscalls and end of program). Larger frames amortise
    /// the 8-byte header and cache-line padding over more records; smaller
    /// frames bound the lifeguard's lag more tightly.
    pub records_per_frame: usize,
    /// Whether the OS stalls each application syscall until the lifeguard
    /// drains the preceding log entries (§2 containment policy).
    pub syscall_stall: bool,
    /// Whether the application and lifeguard cores run decoupled. When
    /// `false` the application waits for the lifeguard after *every*
    /// record (the lock-step ablation). Only the co-simulation models the
    /// ablation; the live modes always run decoupled.
    pub decoupled: bool,
    /// Optional capture-side address-range filter (§3 future work).
    pub filter: Option<AddrRangeFilter>,
    /// Entries in the capture-side idempotency window that suppresses
    /// duplicate load/store records under the lifeguard's declared
    /// soundness contract
    /// ([`Lifeguard::idempotency`](lba_lifeguard::Lifeguard::idempotency)).
    /// Rounded up to a power of two and clamped to
    /// [`MAX_WINDOW_ENTRIES`](lba_lifeguard::MAX_WINDOW_ENTRIES) — the
    /// window is allocated eagerly, like the live channel queues; `0`
    /// (the default) disables the window, degenerating bit-for-bit to
    /// the unfiltered pipeline. A lifeguard declaring
    /// [`IdempotencyClass::None`](lba_lifeguard::IdempotencyClass::None)
    /// is never filtered regardless of this setting.
    pub idempotency_window: usize,
    /// Decode each frame with the real codec as it passes and check it
    /// against the records pushed into it (test/debug aid; one frame of
    /// scratch memory). The co-simulation checks each frame as it seals;
    /// the live modes decode every frame anyway and ignore this flag.
    pub verify_compression: bool,
    /// When set, the run mirrors every sealed wire frame into a durable
    /// segmented stream under this recording configuration (the flight
    /// recorder). `None` (the default) records nothing.
    pub record_to: Option<RecordConfig>,
    /// Whether the producer runs the adaptive capture controller, whose
    /// one trigger is the transport's load: occupancy past the
    /// controller's fixed engage threshold degrades capture along exactly
    /// the axes the lifeguard's
    /// [`DegradationPolicy`](lba_lifeguard::DegradationPolicy) permits,
    /// and every degraded span is accounted in the report's
    /// [`DegradationStats`](lba_lifeguard::DegradationStats). `false`
    /// (the default) keeps the pipeline bit-for-bit identical to a
    /// controller-free build; so does `true` when the lifeguard declares
    /// no policy
    /// ([`Lifeguard::degradation`](lba_lifeguard::Lifeguard::degradation)
    /// returns `None`).
    pub adaptive: bool,
    /// When set, the run's consumers drain slowly on purpose: the modeled
    /// channels refuse pops on this profile's deterministic stall schedule
    /// ([`ModeledFrameChannel::set_fault`](lba_transport::ModeledFrameChannel::set_fault)),
    /// and the live receivers drag per frame
    /// ([`FrameReceiver::set_drag`](lba_transport::live::FrameReceiver::set_drag)).
    /// `None` (the default) injects nothing.
    pub fault: Option<FaultProfile>,
    /// How long the live producer may wait on a full queue or an
    /// exhausted credit window before it latches a stall and the run
    /// fails with [`LbaError::ChannelStalled`] instead of waiting forever
    /// on a wedged consumer. `None` (the default) preserves the original
    /// unbounded wait. Only the live modes consult it; the modeled
    /// transport has no wall clock.
    pub channel_stall_timeout: Option<Duration>,
}

impl LogConfig {
    /// The frame-codec parameters this log configuration implies (shared
    /// by the modeled and live transports).
    #[must_use]
    pub fn frame_config(&self) -> FrameConfig {
        FrameConfig {
            records_per_frame: self.records_per_frame,
            compress: self.compression,
        }
    }

    /// Frames the live SPSC queue may hold before the producer blocks —
    /// the live analogue of the modeled buffer's byte budget: the depth at
    /// which `buffer_bytes` worth of nominal (raw-encoded, line-padded)
    /// frames fills the queue, but always at least one frame so every
    /// configuration can make progress.
    ///
    /// The depth is capped at [`MAX_LIVE_CHANNEL_FRAMES`]: unlike the
    /// modeled buffer, whose budget is pure accounting, the live channel
    /// eagerly allocates two queues of this depth per shard, so an
    /// astronomical `buffer_bytes` must not translate into an
    /// astronomical allocation.
    ///
    /// Every live mode sizes each shard's wire with it — the queue depth
    /// of `run_live` (one shard) and `run_live_parallel`, and the credit
    /// window of `run_remote` — so shrinking `buffer_bytes` tightens live
    /// back-pressure the same way it does in the co-simulation.
    #[must_use]
    pub fn live_channel_frames(&self) -> usize {
        let frame_bytes = self.frame_config().nominal_wire_bytes() as u64;
        usize::try_from(self.buffer_bytes / frame_bytes)
            .unwrap_or(usize::MAX)
            .clamp(1, MAX_LIVE_CHANNEL_FRAMES)
    }

    /// The reserve capacity the capture filter's window may widen to
    /// under adaptive degradation: the controller's reserve when
    /// `adaptive` is set *and* the lifeguard declares a policy, zero (no
    /// reserve, bit-for-bit the plain filter) otherwise. The filter's
    /// reserve is then the one record of the widen decision.
    fn widen_entries(&self, policy: &Option<DegradationPolicy>) -> usize {
        if self.adaptive && policy.is_some() {
            WIDEN_ENTRIES
        } else {
            0
        }
    }

    /// The capture pass of the single-lifeguard modes (`run_lba` and
    /// `run_live` build it here, so the two cannot drift): the address-range
    /// filter and the idempotency window under the lifeguard's `class`,
    /// with the widen reserve the adaptive controller needs for the
    /// lifeguard's `policy` (none when `adaptive` is unset or the
    /// lifeguard declares no policy).
    #[must_use]
    pub fn adaptive_capture_filter(
        &self,
        class: IdempotencyClass,
        policy: &Option<DegradationPolicy>,
    ) -> CaptureFilter {
        CaptureFilter::new(
            self.filter.clone(),
            self.idempotency_window,
            self.widen_entries(policy),
            class,
        )
    }

    /// The capture filter for the sharded modes, which mirror the modeled
    /// parallel study and deliberately ignore the address-range filter
    /// (see `run_lba_parallel`) but do run the idempotency window — the
    /// suppression happens before routing, so both sharded modes ship
    /// identical per-shard streams. The widen reserve is
    /// [`adaptive_capture_filter`](Self::adaptive_capture_filter)'s.
    #[must_use]
    pub fn adaptive_shard_capture_filter(
        &self,
        class: IdempotencyClass,
        policy: &Option<DegradationPolicy>,
    ) -> CaptureFilter {
        CaptureFilter::new(
            None,
            self.idempotency_window,
            self.widen_entries(policy),
            class,
        )
    }

    /// Validates the transport-related fields, returning a descriptive
    /// error instead of letting the codec panic deeper in the pipeline.
    ///
    /// # Errors
    ///
    /// [`LbaError::ZeroRecordsPerFrame`] when `records_per_frame` is zero,
    /// and [`LbaError::RecordsPerFrameTooLarge`] when it exceeds
    /// [`FrameCountWord::MAX_RECORDS`].
    pub fn validate_framing(&self) -> Result<(), LbaError> {
        if self.records_per_frame == 0 {
            return Err(LbaError::ZeroRecordsPerFrame);
        }
        let max = FrameCountWord::MAX_RECORDS as usize;
        if self.records_per_frame > max {
            return Err(LbaError::RecordsPerFrameTooLarge {
                records_per_frame: self.records_per_frame,
                max,
            });
        }
        Ok(())
    }
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            buffer_bytes: 64 << 10,
            compression: true,
            records_per_frame: 256,
            syscall_stall: true,
            decoupled: true,
            filter: None,
            idempotency_window: 0,
            verify_compression: false,
            record_to: None,
            adaptive: false,
            fault: None,
            channel_stall_timeout: None,
        }
    }
}

/// Top-level configuration shared by all three execution models.
///
/// # Examples
///
/// ```
/// use lba::SystemConfig;
///
/// let mut config = SystemConfig::default();
/// config.log.buffer_bytes = 8 << 10; // small buffer: more back-pressure
/// assert!(config.log.compression);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SystemConfig {
    /// CPU/runtime model (quantum, heap size, runtime-event costs).
    pub machine: MachineConfig,
    /// Log pipeline parameters.
    pub log: LogConfig,
    /// Lifeguard-core dispatch cycle model.
    pub dispatch: DispatchConfig,
    /// DBI baseline cycle model.
    pub dbi: DbiConfig,
}

impl SystemConfig {
    /// Memory-system geometry for the unmonitored and DBI runs (one core).
    #[must_use]
    pub fn mem_single(&self) -> MemSystemConfig {
        MemSystemConfig::single_core()
    }

    /// Memory-system geometry for the LBA run (application + lifeguard).
    #[must_use]
    pub fn mem_dual(&self) -> MemSystemConfig {
        MemSystemConfig::dual_core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_parameters() {
        let c = SystemConfig::default();
        assert_eq!(c.log.buffer_bytes, 64 << 10);
        assert!(c.log.compression);
        assert_eq!(c.log.records_per_frame, 256);
        assert!(c.log.syscall_stall);
        assert!(c.log.decoupled);
        assert_eq!(c.log.idempotency_window, 0, "capture-side dedup is opt-in");
        assert!(c.log.record_to.is_none(), "flight recording is opt-in");
        assert!(!c.log.adaptive, "adaptive capture is opt-in");
        assert!(c.log.fault.is_none(), "fault injection is opt-in");
        assert!(
            c.log.channel_stall_timeout.is_none(),
            "stall detection is opt-in"
        );
        assert_eq!(c.mem_dual().cores, 2);
        assert_eq!(c.mem_single().cores, 1);
        // The paper's cache geometry flows through from lba-cache.
        assert_eq!(c.mem_dual().l1d.size_bytes, 16 << 10);
        assert_eq!(c.mem_dual().l2.size_bytes, 512 << 10);
    }

    #[test]
    fn live_channel_depth_tracks_the_buffer_budget() {
        // Default: 64 KiB budget over 6464-byte nominal frames = 10 deep.
        let mut c = LogConfig::default();
        assert_eq!(c.live_channel_frames(), 10);
        // A bigger budget deepens the queue proportionally…
        c.buffer_bytes = 256 << 10;
        assert_eq!(c.live_channel_frames(), 40);
        // …bigger frames shallow it…
        c.records_per_frame = 1024;
        assert!(c.live_channel_frames() < 40);
        // …and a sub-frame budget still leaves one slot (the live mode is
        // functional: the producer just blocks more).
        c.buffer_bytes = 64;
        assert_eq!(c.live_channel_frames(), 1);
        // An astronomical budget cannot become an astronomical eager
        // allocation: the depth caps out.
        c.buffer_bytes = 1 << 40;
        assert_eq!(c.live_channel_frames(), MAX_LIVE_CHANNEL_FRAMES);
    }
}
