//! The co-simulation's transport: a deterministic, timed log-buffer model
//! accounted in frames ([`LogBufferModel`]) and the framed channel built on
//! it ([`ModeledFrameChannel`]), one per modeled lifeguard core.

use std::collections::VecDeque;
use std::fmt;

use lba_compress::{Frame, FrameConfig, FrameDecoder, FrameEncoder, FRAME_LINE_BYTES};
use lba_record::EventRecord;

use crate::channel::{ChannelStats, LoadSample, PoppedFrame, PushOutcome};
use crate::fault::{FaultProfile, StallSchedule};
use crate::sink::{ChannelTee, FrameSink, SealedFrame, SinkError};

/// A sealed log frame annotated with its production time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedFrame {
    /// The frame's wire image (header + payload + padding).
    pub bytes: Vec<u8>,
    /// Records carried.
    pub records: u32,
    /// Producer-core cycle at which the frame became available.
    pub ready_at: u64,
}

impl TimedFrame {
    /// Wire bits this frame occupies in the buffer.
    #[must_use]
    pub fn wire_bits(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }
}

/// Error returned by [`LogBufferModel::try_push`] when the buffer cannot
/// accept the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferFullError {
    /// The frame that was rejected, handed back to the caller.
    pub frame: TimedFrame,
    /// Bits currently free.
    pub free_bits: u64,
}

impl fmt::Display for BufferFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "log buffer full: need {} bits, {} free",
            self.frame.wire_bits(),
            self.free_bits
        )
    }
}

impl std::error::Error for BufferFullError {}

/// Occupancy statistics for a [`LogBufferModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames pushed over the buffer's lifetime.
    pub frames: u64,
    /// Total wire bits pushed.
    pub wire_bits: u64,
    /// High-water mark of occupancy, in bits.
    pub high_water_bits: u64,
}

/// The bounded log buffer connecting the two cores, with timestamped
/// frames for exact back-pressure simulation.
///
/// Capacity is a *byte* budget: the paper sizes the buffer as a memory
/// region in the cache hierarchy. Occupancy is accounted in whole frames —
/// the transport unit is a cache-line multiple, not a record.
///
/// # Examples
///
/// ```
/// use lba_transport::{LogBufferModel, TimedFrame};
///
/// let mut buf = LogBufferModel::new(256); // 256-byte budget: four lines
/// let frame = TimedFrame { bytes: vec![0; 64], records: 10, ready_at: 100 };
/// assert!(buf.try_push(frame).is_ok());
/// let frame = buf.pop().expect("one frame queued");
/// assert_eq!(frame.ready_at, 100);
/// ```
#[derive(Debug, Clone)]
pub struct LogBufferModel {
    capacity_bits: u64,
    queue: VecDeque<TimedFrame>,
    occupied_bits: u64,
    stats: TransportStats,
}

impl LogBufferModel {
    /// Creates a buffer with a capacity of `capacity_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    #[must_use]
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "log buffer capacity must be non-zero");
        LogBufferModel {
            capacity_bits: capacity_bytes * 8,
            queue: VecDeque::new(),
            occupied_bits: 0,
            stats: TransportStats::default(),
        }
    }

    /// Capacity in bits.
    #[must_use]
    pub fn capacity_bits(&self) -> u64 {
        self.capacity_bits
    }

    /// Occupied bits.
    #[must_use]
    pub fn occupied_bits(&self) -> u64 {
        self.occupied_bits
    }

    /// Whether a frame of `bits` fits right now.
    ///
    /// Oversized frames (larger than the whole buffer) are admitted when
    /// the buffer is empty, so a single huge frame cannot wedge the
    /// pipeline.
    #[must_use]
    pub fn fits(&self, bits: u64) -> bool {
        self.occupied_bits + bits <= self.capacity_bits || self.queue.is_empty()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Lifetime statistics.
    #[must_use]
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Pushes a sealed frame.
    ///
    /// # Errors
    ///
    /// Returns [`BufferFullError`] (carrying the frame back) when it does
    /// not fit; the caller must drain frames and retry, charging the
    /// producer core the stall time.
    pub fn try_push(&mut self, frame: TimedFrame) -> Result<(), BufferFullError> {
        let bits = frame.wire_bits();
        if !self.fits(bits) {
            return Err(BufferFullError {
                frame,
                // Saturating: an admitted oversized frame can leave the
                // buffer over-full.
                free_bits: self.capacity_bits.saturating_sub(self.occupied_bits),
            });
        }
        self.occupied_bits += bits;
        self.stats.frames += 1;
        self.stats.wire_bits += bits;
        self.stats.high_water_bits = self.stats.high_water_bits.max(self.occupied_bits);
        self.queue.push_back(frame);
        Ok(())
    }

    /// Removes and returns the oldest frame, freeing its bits.
    pub fn pop(&mut self) -> Option<TimedFrame> {
        let frame = self.queue.pop_front()?;
        self.occupied_bits -= frame.wire_bits();
        Some(frame)
    }
}

/// The deterministic framed log channel: a real [`FrameEncoder`] feeding a
/// [`LogBufferModel`], consumed frame-at-a-time by the dispatch engine.
///
/// The co-simulation drives one per lifeguard core. Records are pushed on
/// the producer side, whole frames are popped on the consumer side with
/// their production timestamps, and statistics are kept in wire bytes, so
/// back-pressure (the producer stalls on a full buffer) and lag (the
/// consumer waits on an empty one) are exact. The paper's decompressor is a
/// *hardware* engine on the lifeguard core — its cost is part of the
/// dispatch cycle model, not host work — so popping a frame hands back the
/// pushed records instead of re-running the decoder in software: sealed
/// frames carry their records alongside the wire bytes, while the wire
/// accounting (and back-pressure timing) comes from the genuinely encoded
/// frames. With `verify` set, every popped frame is additionally decoded
/// with the real codec and cross-checked against the pushed records;
/// losslessness is further enforced by the live channel (which always
/// decodes for real) and the round-trip suites.
///
/// # Back-pressure protocol
///
/// [`push_record`](Self::push_record) or [`flush`](Self::flush) returning
/// [`PushOutcome::BackPressure`] means a sealed frame did not fit and is
/// *parked*. The producer must free space — pop frames via
/// [`pop_frame`](Self::pop_frame) — and call
/// [`retry_parked`](Self::retry_parked) until it succeeds.
#[derive(Debug)]
pub struct ModeledFrameChannel {
    encoder: FrameEncoder,
    decoder: FrameDecoder,
    buffer: LogBufferModel,
    /// Sealed frames awaiting space, oldest first.
    parked: VecDeque<Frame>,
    verify: bool,
    scratch: Vec<EventRecord>,
    /// The popped frame's records, lent out by
    /// [`pop_frame`](Self::pop_frame).
    batch: Vec<EventRecord>,
    /// Records of the frame currently being staged (not yet sealed by the
    /// encoder).
    staging: Vec<EventRecord>,
    /// Sealed frames' record batches in seal order, which is also pop
    /// order (parked frames preserve FIFO).
    ready: VecDeque<Vec<EventRecord>>,
    /// Spent record batches recycled to avoid per-frame allocations.
    batch_pool: Vec<Vec<EventRecord>>,
    /// Optional mirror of every sealed frame into a [`FrameSink`] (the
    /// flight recorder); see [`tee_into`](Self::tee_into).
    tee: ChannelTee,
    /// Pops refused on purpose; see [`set_fault`](Self::set_fault).
    stalls: StallSchedule,
}

impl ModeledFrameChannel {
    /// Creates a channel with a `capacity_bytes` buffer budget. With
    /// `verify` set, every popped frame is decoded with the real codec and
    /// cross-checked against the pushed records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is smaller than one cache-line frame
    /// ([`FRAME_LINE_BYTES`]) — callers should reject such configurations
    /// with a proper error first.
    #[must_use]
    pub fn new(capacity_bytes: u64, config: FrameConfig, verify: bool) -> Self {
        assert!(
            capacity_bytes >= FRAME_LINE_BYTES as u64,
            "log buffer of {capacity_bytes} B cannot hold a single {FRAME_LINE_BYTES} B frame"
        );
        ModeledFrameChannel {
            encoder: FrameEncoder::new(config),
            decoder: FrameDecoder::new(config),
            buffer: LogBufferModel::new(capacity_bytes),
            parked: VecDeque::new(),
            verify,
            scratch: Vec::new(),
            batch: Vec::new(),
            staging: Vec::new(),
            ready: VecDeque::new(),
            batch_pool: Vec::new(),
            tee: ChannelTee::default(),
            stalls: StallSchedule::default(),
        }
    }

    /// Fault injection: refuse pops on `profile`'s deterministic stall
    /// schedule, simulating a lifeguard core that falls behind. Pops pass
    /// while a frame is parked, so the drain slows but never deadlocks.
    /// The quiet default profile (the initial state) refuses nothing.
    pub fn set_fault(&mut self, profile: FaultProfile) {
        self.stalls = StallSchedule::new(profile);
    }

    /// Mirrors every subsequently sealed frame into `sink` — the
    /// flight-recorder hook. The mirror happens at the moment of sealing
    /// (before admission), so the recorded stream is the exact wire
    /// traffic in seal order, back-pressure parking included. A failing
    /// sink never disturbs the channel: the first error is latched, the
    /// sink dropped, and the error surfaces from
    /// [`take_tee`](Self::take_tee).
    pub fn tee_into(&mut self, sink: Box<dyn FrameSink + Send>) {
        self.tee.install(sink);
    }

    /// Takes the tee sink back (for finishing), or reports the first
    /// mirror error if the sink failed mid-run.
    ///
    /// # Errors
    ///
    /// The first error a mirror write hit.
    pub fn take_tee(&mut self) -> Result<Option<Box<dyn FrameSink + Send>>, SinkError> {
        self.tee.take()
    }

    /// Pushes one captured record. `now` is the producer-core cycle used to
    /// timestamp the frame this record ends up in.
    pub fn push_record(&mut self, record: &EventRecord, now: u64) -> PushOutcome {
        self.staging.push(*record);
        match self.encoder.push(record) {
            Some(frame) => self.seal(frame, now),
            None => PushOutcome::Buffered,
        }
    }

    /// Seals the open partial frame so every pushed record becomes visible
    /// to the consumer — called at syscalls (containment) and end of
    /// program.
    pub fn flush(&mut self, now: u64) -> PushOutcome {
        match self.encoder.flush() {
            Some(frame) => self.seal(frame, now),
            None => PushOutcome::Buffered,
        }
    }

    /// Pops the oldest available frame as one slice with a single
    /// `ready_at` stamp, consuming the frame whole (its buffer space frees
    /// immediately). `None` means no frame is currently available: the
    /// channel is empty, or the fault schedule refused the pop.
    pub fn pop_frame(&mut self) -> Option<PoppedFrame<'_>> {
        if self.stalls.refuse(!self.parked.is_empty()) {
            return None;
        }
        // The whole frame is consumed in one step, so its lines free now.
        let frame = self.buffer.pop()?;
        let mut spent = self.take_frame_records(&frame);
        std::mem::swap(&mut self.batch, &mut spent);
        if self.batch_pool.len() < 4 {
            spent.clear();
            self.batch_pool.push(spent);
        }
        Some(PoppedFrame {
            records: &self.batch,
            ready_at: frame.ready_at,
        })
    }

    /// Whether a sealed frame is parked awaiting space.
    #[must_use]
    pub fn has_parked(&self) -> bool {
        !self.parked.is_empty()
    }

    /// Whether nothing remains for the consumer — no queued or parked
    /// frame. Drain loops use this to tell a transient pop refusal (fault
    /// injection modeling a stalled consumer) from a truly empty channel,
    /// so injected stalls can never truncate an end-of-run drain.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.parked.is_empty() && self.buffer.is_empty()
    }

    /// Attempts to admit the oldest parked frame, timestamped `now`;
    /// returns its wire bits on success.
    pub fn retry_parked(&mut self, now: u64) -> Option<u64> {
        let frame = self.parked.front()?;
        if !self.buffer.fits(frame.wire_bits()) {
            return None;
        }
        let frame = self.parked.pop_front().expect("checked above");
        let wire_bits = frame.wire_bits();
        let timed = TimedFrame {
            bytes: frame.bytes,
            records: frame.records,
            ready_at: now,
        };
        self.buffer.try_push(timed).expect("fits was checked");
        Some(wire_bits)
    }

    /// Lifetime statistics over sealed frames.
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        let enc = self.encoder.stats();
        ChannelStats {
            records: enc.records,
            frames: enc.frames,
            payload_bits: enc.payload_bits,
            wire_bits: enc.wire_bits,
            high_water_bits: self.buffer.stats().high_water_bits,
        }
    }

    /// A cheap occupancy snapshot for the adaptive capture controller.
    #[must_use]
    pub fn load_sample(&self) -> LoadSample {
        // Parked frames count as in-flight: they are sealed wire traffic
        // the consumer has not absorbed, and the clearest overload signal
        // (occupancy reads over 1000 permille while anything is parked).
        let parked_bits: u64 = self.parked.iter().map(Frame::wire_bits).sum();
        LoadSample {
            inflight: self.buffer.occupied_bits() + parked_bits,
            capacity: self.buffer.capacity_bits(),
        }
    }

    /// Sets or clears the degraded-capture mark carried by subsequently
    /// sealed frames (`FrameEncoder::set_degraded`), so degraded spans
    /// survive the flight recorder and replay. Callers flush before
    /// toggling, keeping the mark frame-accurate.
    pub fn mark_degraded(&mut self, on: bool) {
        self.encoder.set_degraded(on);
    }

    /// Frame-seal bookkeeping: the staged records become the sealed
    /// frame's batch (pop order equals seal order, parked or not), and the
    /// wire image is mirrored into the tee before admission.
    fn seal(&mut self, frame: Frame, now: u64) -> PushOutcome {
        let empty = self.batch_pool.pop().unwrap_or_default();
        let batch = std::mem::replace(&mut self.staging, empty);
        self.ready.push_back(batch);
        self.tee.mirror(&SealedFrame {
            bytes: &frame.bytes,
            records: frame.records,
            sealed_at: now,
        });
        self.admit_or_park(frame, now)
    }

    /// The records of a just-popped frame: the pushed originals, decoded
    /// and cross-checked under `verify`.
    fn take_frame_records(&mut self, frame: &TimedFrame) -> Vec<EventRecord> {
        let records = self
            .ready
            .pop_front()
            .expect("a popped frame has a staged record batch");
        assert_eq!(
            records.len(),
            frame.records as usize,
            "staged batch must match the frame's record count"
        );
        if self.verify {
            self.scratch.clear();
            self.decoder
                .decode_frame(&frame.bytes, &mut self.scratch)
                .unwrap_or_else(|e| panic!("modeled frame failed to decode: {e}"));
            assert_eq!(
                self.scratch, records,
                "frame round-trip mismatch between decoded and pushed records"
            );
        }
        records
    }

    fn admit_or_park(&mut self, frame: Frame, now: u64) -> PushOutcome {
        let wire_bits = frame.wire_bits();
        // Preserve frame order behind earlier parked frames.
        if !self.parked.is_empty() || !self.buffer.fits(wire_bits) {
            self.parked.push_back(frame);
            return PushOutcome::BackPressure { wire_bits };
        }
        let timed = TimedFrame {
            bytes: frame.bytes,
            records: frame.records,
            ready_at: now,
        };
        self.buffer.try_push(timed).expect("fits was checked");
        PushOutcome::Sealed { wire_bits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(bytes: usize, ready_at: u64) -> TimedFrame {
        TimedFrame {
            bytes: vec![0; bytes],
            records: 1,
            ready_at,
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut buf = LogBufferModel::new(1024);
        for i in 0..10 {
            let mut f = frame(64, i);
            f.records = i as u32;
            buf.try_push(f).unwrap();
        }
        for i in 0..10 {
            let f = buf.pop().unwrap();
            assert_eq!(f.records, i as u32);
            assert_eq!(f.ready_at, i);
        }
        assert!(buf.pop().is_none());
    }

    #[test]
    fn occupancy_tracks_wire_bits() {
        let mut buf = LogBufferModel::new(128); // two lines
        buf.try_push(frame(64, 0)).unwrap();
        assert_eq!(buf.occupied_bits(), 512);
        buf.try_push(frame(64, 1)).unwrap();
        let err = buf.try_push(frame(64, 2)).unwrap_err();
        assert_eq!(err.free_bits, 0);
        assert_eq!(err.frame.ready_at, 2, "rejected frame is handed back");
        buf.pop().unwrap();
        assert_eq!(buf.occupied_bits(), 512);
        buf.try_push(frame(64, 2)).unwrap();
    }

    #[test]
    fn oversized_frame_admitted_when_empty() {
        let mut buf = LogBufferModel::new(64);
        assert!(
            buf.try_push(frame(192, 0)).is_ok(),
            "oversized frame must not wedge"
        );
        assert!(
            buf.try_push(frame(64, 0)).is_err(),
            "but the buffer is now over-full"
        );
        buf.pop().unwrap();
        assert!(buf.try_push(frame(64, 0)).is_ok());
    }

    #[test]
    fn high_water_mark_recorded() {
        let mut buf = LogBufferModel::new(256);
        buf.try_push(frame(64, 0)).unwrap();
        buf.try_push(frame(128, 0)).unwrap();
        buf.pop().unwrap();
        assert_eq!(buf.stats().high_water_bits, 192 * 8);
        assert_eq!(buf.stats().frames, 2);
        assert_eq!(buf.stats().wire_bits, 192 * 8);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = LogBufferModel::new(0);
    }

    mod channel {
        use super::*;

        fn rec(i: u64) -> EventRecord {
            EventRecord::load(0x1000, 0, Some(1), None, 0x4000_0000 + i * 8, 8)
        }

        fn config(records_per_frame: usize) -> FrameConfig {
            FrameConfig {
                records_per_frame,
                compress: true,
            }
        }

        /// Pops every available frame, returning `(records, ready_at)`
        /// per frame.
        fn drain(ch: &mut ModeledFrameChannel) -> Vec<(Vec<EventRecord>, u64)> {
            let mut frames = Vec::new();
            while let Some(frame) = ch.pop_frame() {
                frames.push((frame.records.to_vec(), frame.ready_at));
            }
            frames
        }

        #[test]
        fn push_pop_round_trips_with_frame_timestamps() {
            let mut ch = ModeledFrameChannel::new(1 << 16, config(4), true);
            for i in 0..10 {
                ch.push_record(&rec(i), 100 + i);
            }
            assert!(matches!(ch.flush(200), PushOutcome::Sealed { .. }));
            // Records 0..3 sealed when record 3 was pushed (t=103), etc.
            let frames = drain(&mut ch);
            let stamps: Vec<u64> = frames.iter().map(|(_, t)| *t).collect();
            assert_eq!(stamps, [103, 107, 200]);
            let records: Vec<EventRecord> = frames.into_iter().flat_map(|(r, _)| r).collect();
            assert_eq!(records, (0..10).map(rec).collect::<Vec<_>>());
            let stats = ch.stats();
            assert_eq!(stats.records, 10);
            assert_eq!(stats.frames, 3);
            assert!(stats.wire_bits >= stats.payload_bits);
        }

        #[test]
        fn back_pressure_parks_and_retries_in_order() {
            // One-line budget: the second frame must park.
            let mut ch = ModeledFrameChannel::new(64, config(2), false);
            ch.push_record(&rec(0), 0);
            assert!(matches!(
                ch.push_record(&rec(1), 1),
                PushOutcome::Sealed { .. }
            ));
            ch.push_record(&rec(2), 2);
            let outcome = ch.push_record(&rec(3), 3);
            assert!(matches!(outcome, PushOutcome::BackPressure { .. }));
            assert!(ch.has_parked());
            assert!(!ch.drained());
            assert!(ch.retry_parked(4).is_none(), "no space freed yet");
            // Popping the first frame frees its lines.
            assert_eq!(ch.pop_frame().unwrap().records, [rec(0), rec(1)]);
            assert!(ch.retry_parked(4).is_some());
            assert!(!ch.has_parked());
            let frame = ch.pop_frame().unwrap();
            assert_eq!(frame.records, [rec(2), rec(3)]);
            assert_eq!(frame.ready_at, 4, "stamped when admitted");
            assert!(ch.pop_frame().is_none());
            assert!(ch.drained());
        }

        #[test]
        fn raw_mode_round_trips() {
            let mut ch = ModeledFrameChannel::new(
                1 << 16,
                FrameConfig {
                    records_per_frame: 3,
                    compress: false,
                },
                true,
            );
            for i in 0..7 {
                ch.push_record(&rec(i), i);
            }
            ch.flush(7);
            let records: usize = drain(&mut ch).iter().map(|(r, _)| r.len()).sum();
            assert_eq!(records, 7);
        }

        #[test]
        #[should_panic(expected = "cannot hold a single")]
        fn sub_line_budget_rejected() {
            let _ = ModeledFrameChannel::new(1, config(4), false);
        }
    }
}
