//! The co-simulation's transport: [`ModeledFrameChannel`], the
//! deterministic, timed log buffer one modeled lifeguard core drains a
//! frame at a time.

use std::collections::VecDeque;

use lba_compress::{Frame, FrameConfig, FrameDecoder, FrameEncoder, FRAME_LINE_BYTES};
use lba_record::EventRecord;

use crate::channel::{ChannelStats, LoadSample, PoppedFrame, PushOutcome};
use crate::fault::{FaultProfile, StallSchedule};
use crate::sink::{ChannelTee, FrameSink, SealedFrame, SinkError};

/// One sealed frame in the channel's queue.
#[derive(Debug)]
struct QueuedFrame {
    /// The records the frame carries, in capture order.
    records: Vec<EventRecord>,
    /// Bits the frame's wire image occupies in the buffer.
    wire_bits: u64,
    /// Producer-core cycle at which the frame entered the buffer (its seal
    /// stamp while it is parked).
    ready_at: u64,
}

/// The deterministic framed log channel: a real [`FrameEncoder`] feeding a
/// bounded byte-budget buffer, consumed frame-at-a-time by the dispatch
/// engine.
///
/// The co-simulation drives one per lifeguard core. Records are pushed on
/// the producer side, whole frames are popped on the consumer side with
/// their production timestamps, and the buffer is accounted in wire bits,
/// so back-pressure (the producer stalls on a full buffer) and lag (the
/// consumer waits on an empty one) are exact. Capacity is a *byte* budget,
/// as the paper sizes the buffer as a region of the cache hierarchy, and
/// occupancy moves in whole frames: the transport unit is a cache-line
/// multiple, not a record. A frame larger than the whole budget is
/// admitted into an empty buffer, so one huge frame cannot wedge the
/// pipeline.
///
/// The paper's decompressor is a *hardware* engine on the lifeguard core —
/// its cost is part of the dispatch cycle model, not host work — so popping
/// a frame hands back the pushed records instead of re-running the decoder
/// in software, while the wire accounting (and back-pressure timing) comes
/// from the genuinely encoded frames. No wire image outlives its seal: the
/// tee mirrors it, then its buffer goes back to the encoder. With `verify`
/// set, each frame is decoded with the real codec as it seals, in the
/// order it will be popped, and cross-checked against the pushed records;
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
    /// The real decoder, present only under `verify`.
    verifier: Option<FrameDecoder>,
    capacity_bits: u64,
    /// Sealed frames in seal order, which is also pop order. The first
    /// `admitted` occupy the buffer; the rest are parked awaiting space.
    queue: VecDeque<QueuedFrame>,
    admitted: usize,
    /// Wire bits of the admitted frames.
    occupied_bits: u64,
    /// Counted as each frame seals; the high-water mark as each is
    /// admitted.
    stats: ChannelStats,
    /// Records of the frame currently being staged (not yet sealed by the
    /// encoder).
    staging: Vec<EventRecord>,
    /// The popped frame's records, lent out by
    /// [`pop_frame`](Self::pop_frame).
    batch: Vec<EventRecord>,
    /// Spent record batches recycled to avoid per-frame allocations.
    batch_pool: Vec<Vec<EventRecord>>,
    /// The verifier's decode buffer: one frame's records.
    scratch: Vec<EventRecord>,
    /// Optional mirror of every sealed frame into a [`FrameSink`] (the
    /// flight recorder); see [`tee_into`](Self::tee_into).
    tee: ChannelTee,
    /// Pops refused on purpose; see [`set_fault`](Self::set_fault).
    stalls: StallSchedule,
}

impl ModeledFrameChannel {
    /// Creates a channel with a `capacity_bytes` buffer budget. With
    /// `verify` set, every sealed frame is decoded with the real codec and
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
            verifier: verify.then(|| FrameDecoder::new(config)),
            // Saturating: a budget of 2^61 bytes or more would wrap to a
            // near-zero bit count that parks every frame behind the first.
            capacity_bits: capacity_bytes.saturating_mul(8),
            queue: VecDeque::new(),
            admitted: 0,
            occupied_bits: 0,
            stats: ChannelStats::default(),
            staging: Vec::new(),
            batch: Vec::new(),
            batch_pool: Vec::new(),
            scratch: Vec::new(),
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

    /// Pops the oldest admitted frame as one slice with a single
    /// `ready_at` stamp, consuming the frame whole (its buffer space frees
    /// immediately). `None` means no frame is currently available: the
    /// fault schedule refused the pop, or no frame is admitted. The
    /// schedule is asked first, so an empty pop counts toward its period.
    pub fn pop_frame(&mut self) -> Option<PoppedFrame<'_>> {
        if self.stalls.refuse(self.has_parked()) || self.admitted == 0 {
            return None;
        }
        let frame = self.queue.pop_front()?;
        self.admitted -= 1;
        self.occupied_bits -= frame.wire_bits;
        let mut spent = std::mem::replace(&mut self.batch, frame.records);
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
        self.queue.len() > self.admitted
    }

    /// Whether nothing remains for the consumer — no queued or parked
    /// frame. Drain loops use this to tell a transient pop refusal (fault
    /// injection modeling a stalled consumer) from a truly empty channel,
    /// so injected stalls can never truncate an end-of-run drain.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.queue.is_empty()
    }

    /// Attempts to admit the oldest parked frame, timestamped `now`;
    /// returns its wire bits on success.
    pub fn retry_parked(&mut self, now: u64) -> Option<u64> {
        let frame = self.queue.get_mut(self.admitted)?;
        // A frame larger than the whole budget still enters an empty
        // buffer, so it cannot wedge the pipeline.
        if self.admitted > 0 && self.occupied_bits + frame.wire_bits > self.capacity_bits {
            return None;
        }
        frame.ready_at = now;
        self.admitted += 1;
        self.occupied_bits += frame.wire_bits;
        self.stats.high_water_bits = self.stats.high_water_bits.max(self.occupied_bits);
        Some(frame.wire_bits)
    }

    /// Lifetime statistics over sealed frames.
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// A cheap occupancy snapshot for the adaptive capture controller:
    /// the admitted frames' bits. Parked frames are left out, as the
    /// co-simulation resolves back-pressure before any call on its link
    /// returns, so the controller never samples while one is parked.
    #[must_use]
    pub fn load_sample(&self) -> LoadSample {
        LoadSample {
            inflight: self.occupied_bits,
            capacity: self.capacity_bits,
        }
    }

    /// Sets or clears the degraded-capture mark carried by subsequently
    /// sealed frames (`FrameEncoder::set_degraded`), so degraded spans
    /// survive the flight recorder and replay. Callers flush before
    /// toggling, keeping the mark frame-accurate.
    pub fn mark_degraded(&mut self, on: bool) {
        self.encoder.set_degraded(on);
    }

    /// Frame-seal bookkeeping: the frame is counted, its wire image
    /// mirrored into the tee, checked under `verify` and handed back to
    /// the encoder; the staged records join the queue behind every
    /// earlier frame, admitted if nothing is parked and the frame fits.
    fn seal(&mut self, frame: Frame, now: u64) -> PushOutcome {
        self.tee.mirror(&SealedFrame {
            bytes: &frame.bytes,
            records: frame.records,
            sealed_at: now,
        });
        let empty = self.batch_pool.pop().unwrap_or_default();
        let records = std::mem::replace(&mut self.staging, empty);
        if let Some(decoder) = &mut self.verifier {
            self.scratch.clear();
            decoder
                .decode_frame(&frame.bytes, &mut self.scratch)
                .unwrap_or_else(|e| panic!("modeled frame failed to decode: {e}"));
            assert_eq!(
                self.scratch, records,
                "frame round-trip mismatch between decoded and pushed records"
            );
        }
        let wire_bits = frame.wire_bits();
        self.stats.records += u64::from(frame.records);
        self.stats.frames += 1;
        self.stats.payload_bits += frame.payload_bits;
        self.stats.wire_bits += wire_bits;
        self.stats.degraded_frames += u64::from(frame.degraded);
        self.encoder.recycle(frame.bytes);
        let behind_parked = self.has_parked();
        self.queue.push_back(QueuedFrame {
            records,
            wire_bits,
            ready_at: now,
        });
        if !behind_parked && self.retry_parked(now).is_some() {
            PushOutcome::Sealed { wire_bits }
        } else {
            PushOutcome::BackPressure { wire_bits }
        }
    }
}

#[cfg(test)]
mod tests {
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

    /// Raw one-record frames: 8 header + 25 record bytes, one line each.
    fn one_line_frames() -> FrameConfig {
        FrameConfig {
            records_per_frame: 1,
            compress: false,
        }
    }

    /// Pops every available frame, returning `(records, ready_at)` per
    /// frame.
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
    fn popping_frees_the_frames_bits() {
        let mut ch = ModeledFrameChannel::new(128, one_line_frames(), false); // two lines
        ch.push_record(&rec(0), 0);
        assert_eq!(ch.load_sample().inflight, 512);
        ch.push_record(&rec(1), 1);
        assert_eq!(ch.load_sample().occupancy_permille(), 1000);
        assert_eq!(
            ch.push_record(&rec(2), 2),
            PushOutcome::BackPressure { wire_bits: 512 }
        );
        assert!(ch.retry_parked(3).is_none(), "no space freed yet");
        assert_eq!(ch.pop_frame().unwrap().records, [rec(0)]);
        assert_eq!(ch.load_sample().inflight, 512);
        assert_eq!(ch.retry_parked(3), Some(512));
        assert_eq!(ch.load_sample().inflight, 1024);
    }

    #[test]
    fn an_oversized_frame_is_admitted_into_an_empty_buffer() {
        // Four raw records make a two-line frame; the budget is one line.
        let raw = FrameConfig {
            records_per_frame: 4,
            compress: false,
        };
        let mut ch = ModeledFrameChannel::new(64, raw, false);
        for i in 0..3 {
            ch.push_record(&rec(i), i);
        }
        assert_eq!(
            ch.push_record(&rec(3), 3),
            PushOutcome::Sealed { wire_bits: 1024 },
            "an oversized frame must not wedge"
        );
        assert_eq!(ch.load_sample().occupancy_permille(), 2000);
        ch.push_record(&rec(4), 4);
        assert!(
            matches!(ch.flush(5), PushOutcome::BackPressure { .. }),
            "but the buffer is now over-full"
        );
        assert_eq!(ch.pop_frame().unwrap().records.len(), 4);
        assert!(ch.retry_parked(6).is_some());
    }

    #[test]
    fn the_high_water_mark_is_recorded() {
        let mut ch = ModeledFrameChannel::new(256, one_line_frames(), false);
        for i in 0..3 {
            ch.push_record(&rec(i), i);
        }
        ch.pop_frame().unwrap();
        ch.push_record(&rec(3), 3);
        let stats = ch.stats();
        assert_eq!(stats.high_water_bits, 3 * 512);
        assert_eq!(stats.frames, 4);
        assert_eq!(stats.wire_bits, 4 * 512);
    }

    #[test]
    fn a_budget_past_the_bit_range_saturates_instead_of_wrapping() {
        let mut ch = ModeledFrameChannel::new(1 << 61, one_line_frames(), false);
        for i in 0..3 {
            assert_eq!(
                ch.push_record(&rec(i), i),
                PushOutcome::Sealed { wire_bits: 512 }
            );
        }
        assert_eq!(ch.load_sample().capacity, u64::MAX);
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
