//! The live transport: sealed frames between threads, or across a socket.
//!
//! The deterministic [`ModeledFrameChannel`](crate::ModeledFrameChannel)
//! gives exact timing; this module gives the *functional* equivalent with
//! genuine parallelism. A [`FrameSender`] compresses records into
//! cache-line-multiple frames ([`FrameEncoder`]) and ships each frame as
//! one byte buffer over a [`FrameWire`]; a [`FrameReceiver`] takes one
//! frame at a time from a [`FrameSource`] and decodes it on its own thread
//! ([`recv_batch`](FrameReceiver::recv_batch)). Two wires plug in under the
//! same sender and receiver:
//!
//! * the in-process SPSC queue ([`QueueSink`] / [`QueueSource`], built by
//!   [`frame_channel`]) — the live analogue of the paper's compressed log
//!   moving through the cache hierarchy, one queue operation per frame;
//! * a socket ([`SocketSink`] / [`SocketSource`](crate::SocketSource),
//!   built by [`socket_pair`](crate::socket_pair)) — the same frames as
//!   `lbas/1` records under a credit window, for lifeguards in other
//!   processes ([`SocketSender`](crate::SocketSender) names that sender).
//!
//! The sender owns everything above the wire exactly once: the encoder,
//! the recording tee, the degraded mark, the stall latch and the
//! statistics. The receiver owns the decoder, its buffer and the drain
//! drag. Either way the measured wire bytes are real.
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
//! while let Some(frame) = rx.recv_batch()? {
//!     seen += frame.records.len();
//! }
//! writer.join().unwrap();
//! assert_eq!(seen, 100);
//! assert!(rx.stats().frames >= 1);
//! # Ok::<(), live::RecvError>(())
//! ```

use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::queue::ArrayQueue;

use lba_compress::{Frame, FrameConfig, FrameDecodeError, FrameDecoder, FrameEncoder};
use lba_record::EventRecord;

use crate::channel::{ChannelStats, LoadSample, PoppedFrame};
use crate::sink::{ChannelTee, FrameSink, FrameSource, SealedFrame, SinkError};
use crate::socket::SocketSink;

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

/// A producer's wait for room on its wire, [`backoff`] under the sender's
/// stall clock. The clock starts at the first pause, so the fast path
/// never reads it.
pub(crate) struct Wait {
    limit: Option<Duration>,
    start: Option<Instant>,
    spins: u32,
}

impl Wait {
    /// A wait that gives up after `limit`; `None` waits as long as it
    /// takes.
    pub(crate) fn new(limit: Option<Duration>) -> Self {
        Wait {
            limit,
            start: None,
            spins: 0,
        }
    }

    /// Backs off once; `false` when the wait has outlasted its limit.
    pub(crate) fn pause(&mut self) -> bool {
        if let Some(limit) = self.limit {
            if self.start.get_or_insert_with(Instant::now).elapsed() >= limit {
                return false;
            }
        }
        backoff(&mut self.spins);
        true
    }
}

/// Where a [`FrameSender`] ships its sealed frames: the in-process queue
/// ([`QueueSink`]) or a socket ([`SocketSink`]). A wire only moves frames
/// and reports room; everything above it belongs to the sender.
pub trait FrameWire {
    /// What can go wrong on this wire.
    type Error: std::error::Error + Send + Sync + 'static;

    /// Ships one sealed frame, waiting while the wire is full. A wait
    /// longer than `stall_timeout` gives the frame up as
    /// [`Shipped::Stalled`]; `None` waits as long as it takes.
    ///
    /// # Errors
    ///
    /// The wire's own failures, such as a torn socket.
    fn ship(
        &mut self,
        frame: Frame,
        stall_timeout: Option<Duration>,
    ) -> Result<Shipped, Self::Error>;

    /// Frames in flight against the wire's capacity: the load signal the
    /// capture controller steers by.
    fn load_sample(&self) -> LoadSample;

    /// A spent frame buffer for the encoder to fill next, if one is free.
    fn spare(&mut self) -> Option<Vec<u8>>;

    /// Ends the stream cleanly after its last frame.
    ///
    /// # Errors
    ///
    /// The wire's own failures.
    fn close(&mut self) -> Result<(), Self::Error>;
}

/// What became of a frame offered to a [`FrameWire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shipped {
    /// The frame is on the wire.
    Sent {
        /// Wire bits in flight right after the send, this frame's
        /// included: the high-water candidate.
        inflight_bits: u64,
    },
    /// The consumer is gone, so the frame was dropped.
    Dropped,
    /// The wait for room outlasted the stall timeout; the frame was
    /// dropped.
    Stalled,
}

/// The in-process queue both ends share.
struct Queue {
    frames: ArrayQueue<Vec<u8>>,
    /// Spent wire buffers returned by the consumer for the producer to
    /// refill, sparing an allocation (and a cross-thread free) per frame.
    pool: ArrayQueue<Vec<u8>>,
    /// Set when the sink is dropped: the consumer drains what is left.
    closed: AtomicBool,
    /// Set when the source is dropped, so a sender blocked on a full
    /// queue (including the flush in its own Drop) cannot hang.
    consumer_gone: AtomicBool,
    /// Wire bits currently queued (producer adds, consumer subtracts); a
    /// lone relaxed counter so the consumer's pop path stays lock-free.
    inflight_bits: AtomicU64,
}

/// The in-process wire's producer end: a bounded lock-free SPSC queue of
/// sealed frames. Dropping it closes the stream; the consumer drains what
/// is queued and then ends.
pub struct QueueSink {
    queue: Arc<Queue>,
}

/// The in-process wire's consumer end. Dropping it tells a producer
/// waiting on a full queue that nobody will drain it.
pub struct QueueSource {
    queue: Arc<Queue>,
}

fn queue(capacity_frames: usize) -> (QueueSink, QueueSource) {
    assert!(
        capacity_frames > 0,
        "live channel capacity must be non-zero"
    );
    let queue = Arc::new(Queue {
        frames: ArrayQueue::new(capacity_frames),
        pool: ArrayQueue::new(capacity_frames),
        closed: AtomicBool::new(false),
        consumer_gone: AtomicBool::new(false),
        inflight_bits: AtomicU64::new(0),
    });
    (
        QueueSink {
            queue: Arc::clone(&queue),
        },
        QueueSource { queue },
    )
}

impl FrameWire for QueueSink {
    type Error = Infallible;

    /// Spins (with yields) while the queue is full.
    fn ship(
        &mut self,
        frame: Frame,
        stall_timeout: Option<Duration>,
    ) -> Result<Shipped, Infallible> {
        let queue = &*self.queue;
        let wire_bits = frame.wire_bits();
        // In flight before the enqueue, so the consumer's pop can never
        // subtract first and underflow the counter.
        let inflight_bits = queue.inflight_bits.fetch_add(wire_bits, Ordering::Relaxed) + wire_bits;
        let mut bytes = frame.bytes;
        let mut wait = Wait::new(stall_timeout);
        loop {
            let Err(back) = queue.frames.push(bytes) else {
                return Ok(Shipped::Sent { inflight_bits });
            };
            let outcome = if queue.consumer_gone.load(Ordering::Acquire) {
                Shipped::Dropped
            } else if !wait.pause() {
                Shipped::Stalled
            } else {
                bytes = back;
                continue;
            };
            // A dropped frame leaves nothing in flight.
            queue.inflight_bits.fetch_sub(wire_bits, Ordering::Relaxed);
            return Ok(outcome);
        }
    }

    /// Queued frames against the queue's slot capacity: one relaxed
    /// length read, cheap enough for every capture-controller step.
    fn load_sample(&self) -> LoadSample {
        LoadSample {
            inflight: self.queue.frames.len() as u64,
            capacity: self.queue.frames.capacity() as u64,
        }
    }

    fn spare(&mut self) -> Option<Vec<u8>> {
        self.queue.pool.pop()
    }

    /// Nothing to write: dropping the sink closes the queue.
    fn close(&mut self) -> Result<(), Infallible> {
        Ok(())
    }
}

impl Drop for QueueSink {
    fn drop(&mut self) {
        self.queue.closed.store(true, Ordering::Release);
    }
}

impl FrameSource for QueueSource {
    /// Blocks for the next frame; `Ok(None)` once the sink is dropped and
    /// the queue drained.
    fn next_frame_bytes(&mut self) -> Result<Option<Vec<u8>>, SinkError> {
        let queue = &*self.queue;
        let taken = |bytes: Vec<u8>| {
            queue
                .inflight_bits
                .fetch_sub(bytes.len() as u64 * 8, Ordering::Relaxed);
            bytes
        };
        let mut spins = 0;
        loop {
            if let Some(bytes) = queue.frames.pop() {
                return Ok(Some(taken(bytes)));
            }
            if queue.closed.load(Ordering::Acquire) {
                // Drain anything that raced with the close flag.
                return Ok(queue.frames.pop().map(taken));
            }
            backoff(&mut spins);
        }
    }

    fn recycle(&mut self, spent: Vec<u8>) {
        let _ = self.queue.pool.push(spent);
    }
}

impl Drop for QueueSource {
    fn drop(&mut self) {
        self.queue.consumer_gone.store(true, Ordering::Release);
    }
}

/// The producer half of the live transport: owns the compressor and ships
/// each sealed frame over its wire `W` — the in-process queue by default,
/// a socket as [`SocketSender`](crate::SocketSender).
///
/// Dropping a sender seals and ships its open partial frame. A dropped
/// queue sender then closes the queue cleanly; a socket sender must be
/// [`finish`](Self::finish)ed, and one dropped unfinished never writes the
/// End record, so its consumer sees a torn stream.
pub struct FrameSender<W: FrameWire = QueueSink> {
    encoder: FrameEncoder,
    wire: W,
    /// Optional mirror of every shipped frame into a [`FrameSink`] (the
    /// flight recorder); see [`tee_into`](Self::tee_into).
    tee: ChannelTee,
    /// How long a ship may wait for room before the consumer is declared
    /// stalled; `None` (the default) waits forever.
    stall_timeout: Option<Duration>,
    /// Latched once a ship outlasted `stall_timeout`. Every later frame
    /// is discarded immediately — the run is reporting a fatal stall, so
    /// there is no consumer left worth waiting for.
    stalled: bool,
    stats: ChannelStats,
    /// The first wire error, latched: pushes cannot return errors, so
    /// [`finish`](Self::finish) reports it.
    error: Option<W::Error>,
}

impl<W: FrameWire> FrameSender<W> {
    /// A sender with a fresh encoder over `wire`.
    #[must_use]
    pub fn new(wire: W, config: FrameConfig) -> Self {
        FrameSender {
            encoder: FrameEncoder::new(config),
            wire,
            tee: ChannelTee::default(),
            stall_timeout: None,
            stalled: false,
            stats: ChannelStats::default(),
            error: None,
        }
    }

    /// Mirrors every subsequently shipped frame into `sink` — the
    /// flight-recorder hook. Frames are mirrored before they enter the
    /// wire, so the recording is the exact wire traffic in ship order
    /// with `sealed_at` 0 (the live transport has no modeled clock). A
    /// failing sink never disturbs the wire: the first error is latched,
    /// the sink dropped, and the error surfaces from
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

    /// Bounds how long a ship may wait for room before the consumer is
    /// declared stalled (see [`stalled`](Self::stalled)). `None` restores
    /// the unbounded wait.
    pub fn set_stall_timeout(&mut self, timeout: Option<Duration>) {
        self.stall_timeout = timeout;
    }

    /// Whether a ship outlasted the stall timeout. Once set, the sender
    /// discards every further frame; the driver surfaces the condition as
    /// a run error.
    #[must_use]
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// The producer-visible transport load (see [`FrameWire::load_sample`]).
    #[must_use]
    pub fn load_sample(&self) -> LoadSample {
        self.wire.load_sample()
    }

    /// Sets or clears the degraded-capture mark on subsequently sealed
    /// frames; callers flush first so the mark is frame-accurate.
    pub fn set_degraded(&mut self, on: bool) {
        self.encoder.set_degraded(on);
    }

    /// Appends one record; when it completes a frame, ships the frame,
    /// waiting while the wire is full.
    pub fn push(&mut self, record: &EventRecord) {
        if let Some(frame) = self.encoder.push(record) {
            self.ship(frame);
        }
    }

    /// Seals and ships the open partial frame — call at syscalls so the
    /// consumer sees every preceding record (containment).
    pub fn flush(&mut self) {
        if let Some(frame) = self.encoder.flush() {
            self.ship(frame);
        }
    }

    /// Producer-side statistics over the frames that reached the wire.
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Ends the stream: ships the partial frame, closes the wire cleanly,
    /// and returns the final producer-side statistics.
    ///
    /// # Errors
    ///
    /// The first wire error, including one latched by an earlier push.
    pub fn finish(mut self) -> Result<ChannelStats, W::Error> {
        self.flush();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.wire.close()?;
        Ok(self.stats)
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
        if self.error.is_some() {
            return; // the wire already failed; the error is latched
        }
        let (records, payload_bits, wire_bits) =
            (frame.records, frame.payload_bits, frame.wire_bits());
        let degraded = frame.degraded;
        match self.wire.ship(frame, self.stall_timeout) {
            Ok(Shipped::Sent { inflight_bits }) => {
                self.stats.records += u64::from(records);
                self.stats.frames += 1;
                self.stats.payload_bits += payload_bits;
                self.stats.wire_bits += wire_bits;
                self.stats.high_water_bits = self.stats.high_water_bits.max(inflight_bits);
                self.stats.degraded_frames += u64::from(degraded);
            }
            Ok(Shipped::Dropped) => {}
            Ok(Shipped::Stalled) => self.stalled = true,
            Err(e) => self.error = Some(e),
        }
        if let Some(buf) = self.wire.spare() {
            self.encoder.recycle(buf);
        }
    }
}

impl FrameSender<SocketSink> {
    /// Absorbs the credits already on the wire without blocking, so
    /// [`load_sample`](Self::load_sample) tracks the consumer's drain
    /// between ships; a broken credit channel is latched like a push-path
    /// error.
    pub fn poll_credits(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.wire.drain_credits() {
                self.error = Some(e);
            }
        }
    }
}

impl<W: FrameWire> Drop for FrameSender<W> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Why [`FrameReceiver::recv_batch`] could not hand out a frame.
#[derive(Debug)]
pub enum RecvError {
    /// The source failed: a socket tore or carried inconsistent bytes.
    Wire(SinkError),
    /// A frame arrived whole but does not decode.
    Decode {
        /// The stream the frame belongs to.
        stream: u32,
        /// Zero-based index of the frame within its stream.
        frame: u64,
        /// The decoder's error.
        source: FrameDecodeError,
    },
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Wire(e) => write!(f, "{e}"),
            RecvError::Decode {
                stream,
                frame,
                source,
            } => write!(
                f,
                "frame {frame} of stream {stream} failed to decode: {source}"
            ),
        }
    }
}

impl std::error::Error for RecvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecvError::Wire(e) => Some(e.as_ref()),
            RecvError::Decode { source, .. } => Some(source),
        }
    }
}

/// The consumer half of the live transport: takes one sealed frame at a
/// time from its source `S` — the in-process queue by default, a
/// [`SocketSource`](crate::SocketSource) for a socket, a
/// [`StreamSource`](crate::StreamSource) for a recording — and decodes it.
pub struct FrameReceiver<S: FrameSource = QueueSource> {
    source: S,
    /// The stream id decode errors name: the shard index, 0 unsharded.
    stream: u32,
    decoder: FrameDecoder,
    /// Decoded records of the current frame; the buffer is reused across
    /// frames to avoid a per-frame allocation.
    pending: Vec<EventRecord>,
    /// Fault injection: spin iterations burned before each frame receive,
    /// simulating a lifeguard core that drains slowly (see
    /// [`set_drag`](Self::set_drag)).
    drag: u32,
    stats: ChannelStats,
}

impl<S: FrameSource> FrameReceiver<S> {
    /// A receiver with a fresh decoder over `source`, the frames of
    /// stream `stream`.
    #[must_use]
    pub fn new(source: S, stream: u32, config: FrameConfig) -> Self {
        FrameReceiver {
            source,
            stream,
            decoder: FrameDecoder::new(config),
            pending: Vec::new(),
            drag: 0,
            stats: ChannelStats::default(),
        }
    }

    /// Fault injection: burn `spins` pause iterations before every frame
    /// receive, simulating a slow-draining consumer so the wire fills and
    /// the producer's [`LoadSample`] climbs. Zero (the default) disables
    /// the drag.
    pub fn set_drag(&mut self, spins: u32) {
        self.drag = spins;
    }

    /// Receives the next frame's records as one slice, blocking until a
    /// frame arrives — one wire operation and one decode per
    /// `records_per_frame` records. `ready_at` is always zero, since live
    /// threads have no modeled clock. Returns `Ok(None)` at the clean end
    /// of the stream.
    ///
    /// # Errors
    ///
    /// [`RecvError::Wire`] when the source fails, and
    /// [`RecvError::Decode`], naming the stream and frame, when a frame
    /// does not decode.
    pub fn recv_batch(&mut self) -> Result<Option<PoppedFrame<'_>>, RecvError> {
        let Some(bytes) = self.next_bytes().map_err(RecvError::Wire)? else {
            return Ok(None);
        };
        self.pending.clear();
        let decoded = self.decoder.decode_frame(&bytes, &mut self.pending);
        self.source.recycle(bytes);
        if let Err(source) = decoded {
            return Err(RecvError::Decode {
                stream: self.stream,
                frame: self.stats.frames - 1,
                source,
            });
        }
        Ok(Some(PoppedFrame {
            records: &self.pending,
            ready_at: 0,
        }))
    }

    /// Consumer-side statistics over the frames received so far: records
    /// and degraded frames (as their headers count them), frames and wire
    /// bits. Payload bits and the high-water mark are producer-side
    /// figures; see [`FrameSender::stats`].
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// The source the frames come from, for what only it knows (where a
    /// recording tore, say).
    #[must_use]
    pub fn source(&self) -> &S {
        &self.source
    }

    fn next_bytes(&mut self) -> Result<Option<Vec<u8>>, SinkError> {
        for _ in 0..self.drag {
            std::hint::spin_loop();
        }
        let bytes = self.source.next_frame_bytes()?;
        if let Some(bytes) = &bytes {
            self.stats.records += u64::from(Frame::header_records(bytes));
            self.stats.degraded_frames += u64::from(Frame::header_degraded(bytes));
            self.stats.frames += 1;
            self.stats.wire_bits += bytes.len() as u64 * 8;
        }
        Ok(bytes)
    }
}

/// The consumer half as a raw frame drain: blocks for the next sealed
/// wire image, `Ok(None)` at the clean end of the stream. A raw drain
/// bypasses the decode — do not interleave with
/// [`recv_batch`](FrameReceiver::recv_batch).
impl<S: FrameSource> FrameSource for FrameReceiver<S> {
    fn next_frame_bytes(&mut self) -> Result<Option<Vec<u8>>, SinkError> {
        self.next_bytes()
    }
}

/// Creates the framed SPSC channel holding up to `capacity_frames`
/// in-flight frames (stream 0).
///
/// Dropping the [`FrameSender`] flushes the partial frame and closes the
/// channel; [`FrameReceiver::recv_batch`] then drains what remains and
/// returns `Ok(None)`.
///
/// # Panics
///
/// Panics if `capacity_frames` is zero.
#[must_use]
pub fn frame_channel(capacity_frames: usize, config: FrameConfig) -> (FrameSender, FrameReceiver) {
    let (mut senders, mut receivers) = shard_frame_channels(1, capacity_frames, config);
    (senders.remove(0), receivers.remove(0))
}

/// Creates `shards` independent framed SPSC channels, one per shard of a
/// live run. Each is a [`frame_channel`] of its own carrying stream id
/// `shard` — its own compressor, decompressor, queue and statistics — so
/// predictor state never crosses shards and the streams decode
/// concurrently. Routing records to shards is the caller's job (see
/// [`shard_of`](crate::shard_of)).
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
        .map(|shard| {
            let stream = u32::try_from(shard).expect("shard count fits u32");
            let (sink, source) = queue(capacity_frames);
            let receiver = FrameReceiver::new(source, stream, config);
            (FrameSender::new(sink, config), receiver)
        })
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
        while let Some(frame) = rx.recv_batch().unwrap() {
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
        assert!(rx.recv_batch().unwrap().is_none());
    }

    #[test]
    fn framed_records_arrive_in_order_across_threads() {
        let (mut tx, mut rx) = frame_channel(4, config(64, true));
        let writer = thread::spawn(move || {
            for i in 0..5000 {
                tx.push(&rec(0x1000 + i * 8));
            }
            tx.finish().unwrap()
        });
        let pcs = drain_pcs(&mut rx);
        let sent = writer.join().unwrap();
        assert_eq!(pcs, (0..5000).map(|i| 0x1000 + i * 8).collect::<Vec<_>>());
        assert_eq!(sent.records, 5000);
        // 5000 records at 64/frame, plus the flushed partial frame.
        assert_eq!(sent.frames, 5000 / 64 + 1);
        assert!(sent.wire_bits >= sent.payload_bits);
        assert!(sent.high_water_bits > 0);
        // The consumer counts the same stream from its side.
        let received = rx.stats();
        assert_eq!(
            (received.records, received.frames, received.wire_bits),
            (sent.records, sent.frames, sent.wire_bits)
        );
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
        let frame = rx.recv_batch().unwrap().expect("the flushed frame");
        let pcs: Vec<u64> = frame.records.iter().map(|r| r.pc).collect();
        assert_eq!(pcs, [0x1000, 0x1008]);
        assert_eq!(frame.ready_at, 0, "live frames carry no modeled clock");
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
    fn both_ends_count_the_degraded_frames() {
        let (mut tx, mut rx) = frame_channel(8, config(4, true));
        // Flush, then toggle, as the capture controller does: frames 1
        // and 3 of 5 seal degraded.
        for (i, degraded) in [false, true, false, true, false].into_iter().enumerate() {
            tx.flush();
            tx.set_degraded(degraded);
            tx.push(&rec(0x1000 + i as u64 * 8));
        }
        let sent = tx.finish().unwrap();
        assert_eq!((sent.frames, sent.degraded_frames), (5, 2));
        assert_eq!(drain_pcs(&mut rx).len(), 5);
        assert_eq!(rx.stats().degraded_frames, sent.degraded_frames);
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
