//! Real cross-thread log transport for live monitoring.
//!
//! The deterministic [`ModeledFrameChannel`](crate::ModeledFrameChannel)
//! gives exact timing; this module gives the *functional* equivalent with
//! genuine parallelism: [`frame_channel`] is a framed SPSC transport. The
//! producer compresses records into cache-line-multiple frames
//! ([`FrameEncoder`]) and ships each frame as one byte buffer, amortising a
//! queue operation over `records_per_frame` records; the consumer
//! decompresses on its own thread and takes one frame per
//! [`recv_batch`](FrameReceiver::recv_batch). This is the live analogue of
//! the paper's compressed log moving through the cache hierarchy, and it
//! measures real wire bytes per record.
//!
//! # Examples
//!
//! ```
//! use lba_compress::FrameConfig;
//! use lba_record::EventRecord;
//! use lba_transport::live;
//!
//! let (mut tx, mut rx) = live::frame_channel(16, FrameConfig::default());
//! let writer = std::thread::spawn(move || {
//!     for i in 0..100 {
//!         tx.push(&EventRecord::alu(0x1000 + i * 8, 0, None, None, None));
//!     }
//!     // tx dropped here: flushes the partial frame and closes the channel
//! });
//! let mut seen = 0;
//! while let Some(frame) = rx.recv_batch() {
//!     seen += frame.records.len();
//! }
//! writer.join().unwrap();
//! assert_eq!(seen, 100);
//! assert!(rx.stats().frames >= 1);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::queue::ArrayQueue;

use lba_compress::{Frame, FrameConfig, FrameDecoder, FrameEncoder};
use lba_record::EventRecord;

use crate::channel::{ChannelStats, LoadSample, PoppedFrame};
use crate::sink::{ChannelTee, FrameSink, FrameSource, SealedFrame, SinkError};

/// Spin briefly before yielding to the scheduler: the peer is typically
/// mid-frame (microseconds away), so burning a few dozen pause
/// instructions is cheaper than a syscall per poll.
fn backoff(spins: &mut u32) {
    if *spins < 128 {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        thread::yield_now();
    }
}

struct FrameShared {
    queue: ArrayQueue<Vec<u8>>,
    /// Spent wire buffers returned by the consumer for the producer to
    /// refill, sparing an allocation (and a cross-thread free) per frame.
    pool: ArrayQueue<Vec<u8>>,
    closed: AtomicBool,
    /// Set when the receiver is dropped, so a sender blocked on a full
    /// queue (including the flush in its own Drop) cannot hang.
    consumer_gone: AtomicBool,
    /// Wire bits currently queued (producer adds, consumer subtracts); a
    /// lone relaxed counter so the consumer's pop path stays lock-free.
    inflight_bits: AtomicU64,
    /// Cumulative statistics, written by the producer once per frame.
    stats: Mutex<ChannelStats>,
}

/// A sealed frame's metadata, captured before its byte buffer moves into
/// the queue so the accounting can be committed (or abandoned) after the
/// enqueue attempt resolves.
#[derive(Clone, Copy)]
struct ShipTicket {
    records: u32,
    payload_bits: u64,
    wire_bits: u64,
    /// In-flight wire bits the instant this frame was sealed (the
    /// high-water candidate).
    inflight_bits: u64,
}

impl FrameShared {
    fn snapshot(&self) -> ChannelStats {
        *self.stats.lock().expect("stats lock")
    }

    /// Marks a sealed frame in flight and captures its accounting ticket.
    /// Must be called before the enqueue attempt (so the consumer's
    /// [`account_pop`](Self::account_pop) can never run first and underflow
    /// the counter); pair with [`commit_ship`](Self::commit_ship) once the
    /// frame is queued, or [`abort_ship`](Self::abort_ship) if it is
    /// discarded — cumulative statistics must only ever describe frames the
    /// consumer can actually receive.
    fn begin_ship(&self, frame: &Frame) -> ShipTicket {
        let wire_bits = frame.wire_bits();
        let inflight = self.inflight_bits.fetch_add(wire_bits, Ordering::Relaxed) + wire_bits;
        ShipTicket {
            records: frame.records,
            payload_bits: frame.payload_bits,
            wire_bits,
            inflight_bits: inflight,
        }
    }

    /// Folds a successfully enqueued frame into the cumulative statistics.
    fn commit_ship(&self, ticket: ShipTicket) {
        let mut guard = self.stats.lock().expect("stats lock");
        guard.records += u64::from(ticket.records);
        guard.frames += 1;
        guard.payload_bits += ticket.payload_bits;
        guard.wire_bits += ticket.wire_bits;
        guard.high_water_bits = guard.high_water_bits.max(ticket.inflight_bits);
    }

    /// Releases a discarded frame's in-flight occupancy without touching
    /// the cumulative statistics.
    fn abort_ship(&self, ticket: ShipTicket) {
        self.inflight_bits
            .fetch_sub(ticket.wire_bits, Ordering::Relaxed);
    }

    fn account_pop(&self, bytes: &[u8]) {
        self.inflight_bits
            .fetch_sub(bytes.len() as u64 * 8, Ordering::Relaxed);
    }
}

/// Producer half of the framed live channel: owns the compressor.
pub struct FrameSender {
    encoder: FrameEncoder,
    shared: Arc<FrameShared>,
    /// Optional mirror of every shipped frame into a [`FrameSink`] (the
    /// flight recorder); see [`tee_into`](Self::tee_into).
    tee: ChannelTee,
    /// How long [`ship`](Self::ship) may spin against a full queue before
    /// declaring the consumer stalled; `None` (the default) spins forever,
    /// the pre-timeout behaviour.
    stall_timeout: Option<Duration>,
    /// Latched once a ship attempt exceeded `stall_timeout`. Every later
    /// frame is discarded immediately — the run is reporting a fatal
    /// stall, so there is no consumer left worth waiting for.
    stalled: bool,
}

impl FrameSender {
    /// Mirrors every subsequently shipped frame into `sink` — the
    /// flight-recorder hook. Frames are mirrored before entering the
    /// queue, so the recording is the exact wire traffic in ship order
    /// with `sealed_at` 0 (the live transport has no modeled clock). A
    /// failing sink never disturbs the channel: the first error is
    /// latched, the sink dropped, and the error surfaces from
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

    /// Bounds how long a ship may spin against a full queue before the
    /// consumer is declared stalled (see [`stalled`](Self::stalled)).
    /// `None` restores the unbounded spin.
    pub fn set_stall_timeout(&mut self, timeout: Option<Duration>) {
        self.stall_timeout = timeout;
    }

    /// Whether a ship attempt exceeded the stall timeout. Once set, the
    /// sender discards every further frame; the driver surfaces the
    /// condition as a run error.
    #[must_use]
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// The producer-visible transport load: queued frames against the
    /// queue's slot capacity. One relaxed length read — cheap enough to
    /// sample on every capture-controller step.
    #[must_use]
    pub fn load_sample(&self) -> LoadSample {
        LoadSample {
            inflight: self.shared.queue.len() as u64,
            capacity: self.shared.queue.capacity() as u64,
        }
    }

    /// Sets or clears the degraded-capture mark on subsequently sealed
    /// frames; callers flush first so the mark is frame-accurate.
    pub fn set_degraded(&mut self, on: bool) {
        self.encoder.set_degraded(on);
    }

    /// Appends one record; when it completes a frame, ships the frame,
    /// spinning (with yields) while the queue is full.
    pub fn push(&mut self, record: &EventRecord) {
        if let Some(frame) = self.encoder.push(record) {
            self.ship(frame);
        }
    }

    /// Like [`push`](Self::push), but seals and ships the open frame
    /// immediately — with the epoch-end mark in its wire header — when
    /// `end_epoch` is set, so frames never straddle epoch boundaries (see
    /// [`EpochRouter`](crate::EpochRouter)). With `end_epoch` false this
    /// is exactly `push`.
    pub fn push_epoch(&mut self, record: &EventRecord, end_epoch: bool) {
        if let Some(frame) = self.encoder.push_epoch(record, end_epoch) {
            self.ship(frame);
        }
    }

    /// Hands a consumer-returned buffer to the encoder for the next frame.
    fn refill(&mut self) {
        if let Some(buf) = self.shared.pool.pop() {
            self.encoder.recycle(buf);
        }
    }

    /// Seals and ships the open partial frame — call at syscalls so the
    /// consumer sees every preceding record (containment), and rely on
    /// [`Drop`] for the end-of-program flush.
    pub fn flush(&mut self) {
        if let Some(frame) = self.encoder.flush() {
            self.ship(frame);
        }
    }

    /// Producer-side statistics over shipped frames.
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        self.shared.snapshot()
    }

    fn ship(&mut self, frame: Frame) {
        if self.stalled {
            // A stall was already declared: the run is on its way to a
            // fatal error, so discard instead of re-paying the timeout on
            // every sealed frame (the Drop-driven flush included).
            return;
        }
        self.tee.mirror(&SealedFrame {
            bytes: &frame.bytes,
            records: frame.records,
            sealed_at: 0,
        });
        let ticket = self.shared.begin_ship(&frame);
        let mut bytes = frame.bytes;
        let mut spins = 0;
        // The stall clock starts at the first failed push, so the fast
        // path never reads the OS clock.
        let mut stall_start: Option<Instant> = None;
        loop {
            match self.shared.queue.push(bytes) {
                Ok(()) => break,
                Err(back) => {
                    if self.shared.consumer_gone.load(Ordering::Acquire) {
                        // Receiver dropped (e.g. panicked): discard rather
                        // than spin forever — and back the accounting out,
                        // so the statistics describe only frames that
                        // actually shipped.
                        self.shared.abort_ship(ticket);
                        return;
                    }
                    if let Some(limit) = self.stall_timeout {
                        let start = stall_start.get_or_insert_with(Instant::now);
                        if start.elapsed() >= limit {
                            // Consumer alive but not draining: latch the
                            // stall instead of spinning unboundedly. The
                            // frame is discarded with its accounting
                            // backed out, exactly like the
                            // consumer-gone path.
                            self.shared.abort_ship(ticket);
                            self.stalled = true;
                            return;
                        }
                    }
                    bytes = back;
                    backoff(&mut spins);
                }
            }
        }
        self.shared.commit_ship(ticket);
        self.refill();
    }
}

impl Drop for FrameSender {
    fn drop(&mut self) {
        self.flush();
        self.shared.closed.store(true, Ordering::Release);
    }
}

/// Consumer half of the framed live channel: owns the decompressor.
pub struct FrameReceiver {
    decoder: FrameDecoder,
    /// Decoded records of the current frame; the buffer is reused across
    /// frames to avoid a per-frame allocation.
    pending: Vec<EventRecord>,
    /// Fault injection: spin iterations burned before each frame receive,
    /// simulating a lifeguard core that drains slowly (see
    /// [`set_drag`](Self::set_drag)).
    drag: u32,
    shared: Arc<FrameShared>,
}

impl FrameReceiver {
    /// Fault injection: burn `spins` pause iterations before every frame
    /// receive, simulating a slow-draining consumer so the queue fills
    /// and the producer's [`LoadSample`] climbs. Zero (the default)
    /// disables the drag.
    pub fn set_drag(&mut self, spins: u32) {
        self.drag = spins;
    }

    /// Receives the next frame's records as one slice, blocking until a
    /// frame arrives — one queue operation and one decode per
    /// `records_per_frame` records. The frame's epoch-end mark rides along
    /// (see [`EpochRouter`](crate::EpochRouter) and
    /// [`FrameSender::push_epoch`]); `ready_at` is always zero, since live
    /// threads have no modeled clock. Returns `None` once the producer is
    /// dropped and the queue drained.
    ///
    /// # Panics
    ///
    /// Panics if a frame fails to decode — the producer is in-process, so
    /// corruption is a codec bug, not an I/O condition.
    pub fn recv_batch(&mut self) -> Option<PoppedFrame<'_>> {
        let bytes = self.recv_frame()?;
        let epoch_end = Frame::header_epoch_end(&bytes);
        self.pending.clear();
        self.decoder
            .decode_frame(&bytes, &mut self.pending)
            .unwrap_or_else(|e| panic!("live frame failed to decode: {e}"));
        let _ = self.shared.pool.push(bytes); // return for reuse
        Some(PoppedFrame {
            records: &self.pending,
            ready_at: 0,
            epoch_end,
        })
    }

    /// Channel statistics (complete once the producer has been dropped).
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        self.shared.snapshot()
    }

    fn recv_frame(&self) -> Option<Vec<u8>> {
        for _ in 0..self.drag {
            std::hint::spin_loop();
        }
        let mut spins = 0;
        loop {
            if let Some(bytes) = self.shared.queue.pop() {
                self.shared.account_pop(&bytes);
                return Some(bytes);
            }
            if self.shared.closed.load(Ordering::Acquire) {
                // Drain anything that raced with the close flag.
                let bytes = self.shared.queue.pop()?;
                self.shared.account_pop(&bytes);
                return Some(bytes);
            }
            backoff(&mut spins);
        }
    }
}

impl Drop for FrameReceiver {
    fn drop(&mut self) {
        self.shared.consumer_gone.store(true, Ordering::Release);
    }
}

/// The consumer half as a raw frame drain: blocks for the next sealed
/// wire image, `Ok(None)` once the producer closed and the queue drained.
/// A raw drain bypasses the decode — do not interleave with
/// [`recv_batch`](FrameReceiver::recv_batch).
impl FrameSource for FrameReceiver {
    fn next_frame_bytes(&mut self) -> Result<Option<Vec<u8>>, SinkError> {
        Ok(self.recv_frame())
    }
}

/// Creates the framed SPSC channel holding up to `capacity_frames`
/// in-flight frames.
///
/// Dropping the [`FrameSender`] flushes the partial frame and closes the
/// channel; [`FrameReceiver::recv_batch`] then drains what remains and
/// returns `None`.
///
/// # Panics
///
/// Panics if `capacity_frames` is zero.
#[must_use]
pub fn frame_channel(capacity_frames: usize, config: FrameConfig) -> (FrameSender, FrameReceiver) {
    assert!(
        capacity_frames > 0,
        "live channel capacity must be non-zero"
    );
    let shared = Arc::new(FrameShared {
        queue: ArrayQueue::new(capacity_frames),
        pool: ArrayQueue::new(capacity_frames),
        closed: AtomicBool::new(false),
        consumer_gone: AtomicBool::new(false),
        inflight_bits: AtomicU64::new(0),
        stats: Mutex::new(ChannelStats::default()),
    });
    (
        FrameSender {
            encoder: FrameEncoder::new(config),
            shared: Arc::clone(&shared),
            tee: ChannelTee::default(),
            stall_timeout: None,
            stalled: false,
        },
        FrameReceiver {
            decoder: FrameDecoder::new(config),
            pending: Vec::new(),
            drag: 0,
            shared,
        },
    )
}

/// Creates `shards` independent framed SPSC channels — the live-parallel
/// fan-out. Each pair is a [`frame_channel`] of its own: its own compressor
/// and decompressor (so predictor state never crosses shards and the shard
/// streams decode concurrently on different cores), its own frame queue of
/// `capacity_frames`, and its own [`ChannelStats`].
///
/// Routing records to shards is the caller's job; see
/// [`shard_of`](crate::shard_of) for the address-interleaved policy both
/// sharded run modes use.
///
/// # Panics
///
/// Panics if `shards` or `capacity_frames` is zero.
#[must_use]
pub fn shard_frame_channels(
    shards: usize,
    capacity_frames: usize,
    config: FrameConfig,
) -> (Vec<FrameSender>, Vec<FrameReceiver>) {
    assert!(shards > 0, "need at least one shard");
    (0..shards)
        .map(|_| frame_channel(capacity_frames, config))
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pc: u64) -> EventRecord {
        EventRecord::alu(pc, 0, None, None, None)
    }

    fn config(records_per_frame: usize, compress: bool) -> FrameConfig {
        FrameConfig {
            records_per_frame,
            compress,
        }
    }

    /// Drains the receiver frame by frame, returning every record's pc.
    fn drain_pcs(rx: &mut FrameReceiver) -> Vec<u64> {
        let mut pcs = Vec::new();
        while let Some(frame) = rx.recv_batch() {
            pcs.extend(frame.records.iter().map(|r| r.pc));
        }
        pcs
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = frame_channel(0, FrameConfig::default());
    }

    #[test]
    fn close_with_empty_queue_returns_none() {
        let (tx, mut rx) = frame_channel(4, FrameConfig::default());
        drop(tx);
        assert!(rx.recv_batch().is_none());
    }

    #[test]
    fn framed_records_arrive_in_order_across_threads() {
        let (mut tx, mut rx) = frame_channel(4, config(64, true));
        let writer = thread::spawn(move || {
            for i in 0..5000 {
                tx.push(&rec(0x1000 + i * 8));
            }
        });
        let pcs = drain_pcs(&mut rx);
        writer.join().unwrap();
        assert_eq!(pcs, (0..5000).map(|i| 0x1000 + i * 8).collect::<Vec<_>>());
        let stats = rx.stats();
        assert_eq!(stats.records, 5000);
        // 5000 records at 64/frame, plus the flush-on-drop partial frame.
        assert_eq!(stats.frames, 5000 / 64 + 1);
        assert!(stats.wire_bits >= stats.payload_bits);
        assert!(stats.high_water_bits > 0);
    }

    #[test]
    fn framed_tiny_queue_exerts_back_pressure_without_loss() {
        let (mut tx, mut rx) = frame_channel(1, config(8, true));
        let writer = thread::spawn(move || {
            for i in 0..500 {
                tx.push(&rec(0x1000 + i * 8));
            }
        });
        let pcs = drain_pcs(&mut rx);
        writer.join().unwrap();
        assert_eq!(pcs.len(), 500);
    }

    #[test]
    fn framed_raw_mode_round_trips() {
        let (mut tx, mut rx) = frame_channel(4, config(16, false));
        let writer = thread::spawn(move || {
            for i in 0..100 {
                tx.push(&rec(0x2000 + i * 4));
            }
        });
        let pcs = drain_pcs(&mut rx);
        writer.join().unwrap();
        assert_eq!(pcs, (0..100).map(|i| 0x2000 + i * 4).collect::<Vec<_>>());
    }

    #[test]
    fn flush_makes_partial_frames_visible() {
        let (mut tx, mut rx) = frame_channel(4, config(1000, true));
        tx.push(&rec(0x1000));
        tx.push(&rec(0x1008));
        assert_eq!(tx.stats().frames, 0, "partial frame not shipped yet");
        tx.flush();
        assert_eq!(tx.stats().frames, 1);
        let frame = rx.recv_batch().expect("the flushed frame");
        let pcs: Vec<u64> = frame.records.iter().map(|r| r.pc).collect();
        assert_eq!(pcs, [0x1000, 0x1008]);
        assert_eq!(frame.ready_at, 0, "live frames carry no modeled clock");
        assert!(!frame.epoch_end);
    }

    #[test]
    fn discarded_frames_leave_stats_untouched() {
        // Regression: `ship` used to account records/frames/wire bits (and
        // add in-flight occupancy) *before* the enqueue, so a frame
        // discarded because the receiver vanished inflated the statistics
        // and leaked `inflight_bits`, skewing `high_water_bits` forever.
        let (mut tx, rx) = frame_channel(1, config(4, true));
        // Seal one frame: it occupies the queue's only slot.
        for i in 0..4 {
            tx.push(&rec(0x1000 + i * 8));
        }
        let queued = tx.stats();
        assert_eq!(queued.frames, 1);
        assert_eq!(queued.records, 4);

        // Receiver gone mid-stream: every further sealed frame hits the
        // full queue and is discarded.
        drop(rx);
        for i in 0..40 {
            tx.push(&rec(0x2000 + i * 8));
        }
        assert_eq!(tx.stats(), queued, "discarded frames must not count");

        // The flush of a partial frame is discarded the same way — and the
        // high-water mark cannot creep from leaked in-flight bits.
        tx.push(&rec(0x3000));
        tx.flush();
        assert_eq!(tx.stats(), queued);
    }

    #[test]
    fn epoch_marks_cross_the_live_channel() {
        let (mut tx, mut rx) = frame_channel(8, config(4, true));
        let writer = thread::spawn(move || {
            for i in 0..20u64 {
                // Epochs of 7: boundaries after records 6 and 13; the tail
                // (14..20) ships unmarked via the flush-on-drop.
                tx.push_epoch(&rec(0x1000 + i * 8), i % 7 == 6);
            }
        });
        let mut epochs = Vec::new();
        let mut current = 0u64;
        while let Some(frame) = rx.recv_batch() {
            current += frame.records.len() as u64;
            if frame.epoch_end {
                epochs.push(current);
                current = 0;
            }
        }
        if current > 0 {
            epochs.push(current); // the unmarked tail epoch
        }
        writer.join().unwrap();
        assert_eq!(epochs, [7, 7, 6]);
        assert_eq!(rx.stats().records, 20);
    }

    #[test]
    fn shard_channels_are_independent_streams() {
        let (txs, rxs) = shard_frame_channels(3, 4, config(8, true));
        assert_eq!(txs.len(), 3);
        let writers: Vec<_> = txs
            .into_iter()
            .enumerate()
            .map(|(shard, mut tx)| {
                thread::spawn(move || {
                    for i in 0..100u64 {
                        tx.push(&rec(0x1000 * (shard as u64 + 1) + i * 8));
                    }
                })
            })
            .collect();
        for (shard, mut rx) in rxs.into_iter().enumerate() {
            let base = 0x1000 * (shard as u64 + 1);
            let pcs = drain_pcs(&mut rx);
            assert_eq!(
                pcs,
                (0..100).map(|i| base + i * 8).collect::<Vec<_>>(),
                "shard {shard} stream stays in order"
            );
            let stats = rx.stats();
            assert_eq!(stats.records, 100);
            assert!(stats.frames >= 100 / 8);
            assert!(stats.wire_bits >= stats.payload_bits);
        }
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn stall_timeout_latches_instead_of_spinning_forever() {
        let (mut tx, rx) = frame_channel(1, config(2, true));
        tx.set_stall_timeout(Some(Duration::from_millis(5)));
        // Fill the queue's only slot; the consumer never drains it.
        tx.push(&rec(0x1000));
        tx.push(&rec(0x1008));
        assert!(!tx.stalled());
        let full = tx.load_sample();
        assert_eq!((full.inflight, full.capacity), (1, 1));
        assert_eq!(full.occupancy_permille(), 1000);
        // The next sealed frame cannot ship: the sender must latch the
        // stall within the timeout instead of spinning unboundedly.
        tx.push(&rec(0x1010));
        tx.push(&rec(0x1018));
        assert!(tx.stalled(), "stall must latch once the timeout elapses");
        // Later frames (the flush-on-drop included) are discarded
        // immediately — no repeated timeout, and the stats stay honest.
        let stats = tx.stats();
        tx.push(&rec(0x1020));
        tx.push(&rec(0x1028));
        assert_eq!(tx.stats(), stats, "discarded frames must not count");
        drop(tx);
        drop(rx);
    }

    #[test]
    fn receiver_drag_slows_the_drain() {
        let (mut tx, mut rx) = frame_channel(4, config(4, true));
        rx.set_drag(10_000);
        let writer = thread::spawn(move || {
            for i in 0..40 {
                tx.push(&rec(0x1000 + i * 8));
            }
        });
        let pcs = drain_pcs(&mut rx);
        writer.join().unwrap();
        assert_eq!(pcs.len(), 40, "drag slows the drain but loses nothing");
    }
}
