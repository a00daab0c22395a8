//! The transport vocabulary both execution models share: the
//! address-interleaved router ([`shard_of`]), the producer-visible
//! occupancy signal ([`LoadSample`]), per-channel wire statistics
//! ([`ChannelStats`]), the frame shape consumers take ([`PoppedFrame`]),
//! and what a push or flush did ([`PushOutcome`]).
//!
//! The two transports built on it are separate types: the co-simulation's
//! [`ModeledFrameChannel`](crate::ModeledFrameChannel) and the live
//! [`FrameSender`](crate::live::FrameSender) /
//! [`FrameReceiver`](crate::live::FrameReceiver) pair. Both hand the
//! dispatch engine one [`PoppedFrame`] at a time.

use lba_record::{EventKind, EventRecord};

/// The shard owning `record` under address-interleaved routing, or `None`
/// for records every shard must see.
///
/// Load/store records belong to the shard owning their 64-byte cache line
/// (`(addr / 64) % shards`), and a capture-side `Repeat` fold summary
/// routes with the line-local accesses it summarizes; every other kind
/// (alloc/free, lock/unlock, syscalls, …) is broadcast because it updates
/// state all shards need. Both the modeled (`run_lba_parallel`) and live
/// (`run_live_parallel`) sharded modes route with this function, so their
/// per-shard record streams — and therefore their per-shard wire
/// streams — are identical.
///
/// # Panics
///
/// Panics if `shards` is zero.
#[must_use]
pub fn shard_of(record: &EventRecord, shards: usize) -> Option<usize> {
    assert!(shards > 0, "need at least one shard");
    match record.kind {
        EventKind::Load | EventKind::Store | EventKind::Repeat => {
            Some(((record.addr / 64) % shards as u64) as usize)
        }
        _ => None,
    }
}

/// A cheap producer-side snapshot of transport occupancy — the load
/// signal the adaptive capture controller steers by.
///
/// Units are transport-specific: bits for the modeled byte-budget buffer,
/// frames for the live queue and the socket window. Only the *ratio*
/// matters, which is what [`occupancy_permille`](Self::occupancy_permille)
/// exposes; the controller's hysteresis thresholds are expressed in
/// permille so they apply uniformly to every transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadSample {
    /// Occupied transport units currently in flight toward the consumer:
    /// the admitted frames' bits in the modeled buffer, the queued frames
    /// of the live queue, the uncredited frames of the socket window.
    pub inflight: u64,
    /// The transport's capacity in the same units.
    pub capacity: u64,
}

impl LoadSample {
    /// Occupancy as a permille ratio (0 = empty, 1000 = full). Exceeds
    /// 1000 only when the modeled channel admits a frame larger than its
    /// whole budget into an empty buffer; the live queue and the socket
    /// window never exceed it.
    #[must_use]
    pub fn occupancy_permille(&self) -> u32 {
        if self.capacity == 0 {
            return 0;
        }
        let ratio = u128::from(self.inflight) * 1000 / u128::from(self.capacity);
        u32::try_from(ratio).unwrap_or(u32::MAX)
    }
}

/// Aggregate statistics for one channel, in the units the paper cares
/// about: records, frames, and bytes on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Records carried by sealed frames.
    pub records: u64,
    /// Frames sealed and shipped.
    pub frames: u64,
    /// Compressed (or raw) payload bits, before framing.
    pub payload_bits: u64,
    /// Bits on the wire: payload plus frame headers and line padding.
    pub wire_bits: u64,
    /// High-water mark of in-flight wire bits (how full the buffer got).
    pub high_water_bits: u64,
    /// Frames carrying the degraded-capture mark: they sealed while the
    /// adaptive controller was engaged.
    pub degraded_frames: u64,
}

/// A frame's worth of decoded records handed to the consumer in one call,
/// borrowed from the channel's decode buffer.
///
/// All records in a frame became visible at the same instant (the frame
/// ships as a unit), so one `ready_at` stamp covers the whole slice. The
/// borrow ends before the next channel call, which is exactly the dispatch
/// engine's consumption pattern: take a frame, deliver it, come back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoppedFrame<'a> {
    /// The frame's records, in capture order.
    pub records: &'a [EventRecord],
    /// Producer-core cycle at which the frame became visible (zero for
    /// live receivers, which have no modeled clock).
    pub ready_at: u64,
}

/// Result of a producer-side push or flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The record joined the open partial frame; nothing shipped.
    Buffered,
    /// The record sealed a frame that was admitted to the transport.
    Sealed {
        /// Wire bits shipped (header and padding included).
        wire_bits: u64,
    },
    /// The record sealed a frame that does not fit: it is parked and the
    /// producer is stalled until space frees (see
    /// [`ModeledFrameChannel`](crate::ModeledFrameChannel)'s back-pressure
    /// protocol).
    BackPressure {
        /// Wire bits of the parked frame.
        wire_bits: u64,
    },
}
