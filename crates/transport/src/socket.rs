//! The socket wire: sealed frames over a Unix-domain connection.
//!
//! The in-process queue ships frames between threads; this wire ships them
//! between *processes*: the production topology where one monitored
//! application fans frame streams out to a pool of lifeguard workers. It is a second wire under the one
//! live transport, not a second transport: [`SocketSink`] is a
//! [`FrameWire`] under a [`FrameSender`] ([`SocketSender`] names that
//! pairing), and [`SocketSource`] is a [`FrameSource`] under a
//! [`FrameReceiver`](crate::live::FrameReceiver). The encoder, recording
//! tee, marks, stall latch and statistics above the sink, and the decoder
//! and drain drag above the source, are the live transport's own.
//!
//! # Wire protocol
//!
//! A connection is one frame stream in the durable `lbas/1` format. The
//! consumer reads it through `lba_record`'s [`RecordReader`], the one
//! reader the segment files use too, and the producer writes it with the
//! same encoders, so torn wires and torn recordings fail alike:
//!
//! ```text
//! hello (24 B): b"lbas/1\n\0" | codec version u32 | stream id u32 |
//!               credit window u32 | reserved u32        (producer→consumer)
//! frame record: 0x01 | seal timestamp u64 | record count u32 |
//!               payload length u32 | FNV-1a checksum u32 | payload
//! end record:   0x02 | total frame count u64
//! credit:       one 0x06 byte per drained frame         (consumer→producer)
//! ```
//!
//! All integers are little-endian. The wire is a plain byte stream over a
//! full-duplex [`UnixStream`].
//!
//! Neither end trusts the other's bytes. The consumer refuses a hello that
//! announces another codec version than the one it decodes
//! ([`SocketError::CodecMismatch`]), checks each payload against its
//! checksum and its record count against the frame image, and
//! reserves at most 64 KiB for a payload before its bytes arrive, so a
//! header claiming 4 GiB costs no more until 4 GiB do arrive. The producer
//! treats any byte on the credit channel that is not a credit, and any
//! credit for a frame it never sent, as corruption.
//!
//! # Syscalls per frame
//!
//! The producer stages each frame record, header and payload, in one
//! reused buffer and ships it with one `write`. After the hello its end of
//! the connection stays non-blocking, so one `read` per ship drains the
//! credits already returned without toggling the socket's mode. The
//! consumer reads through a buffer: one `read` usually brings a whole
//! frame record, often several, and it writes one credit byte per frame.
//! The consumer blocks; the producer never does. When the credit window is
//! spent, or the kernel's socket buffer is full (a window of large frames
//! can outgrow it), the producer waits with the in-process queue's
//! spin-then-yield backoff under the same stall clock, re-reading credits
//! as it goes, so a vanished consumer ends the wait in both cases.
//!
//! # Credit window: `buffer_bytes` semantics survive the wire
//!
//! The in-process queue bounds in-flight frames by its capacity, which is
//! how `LogConfig::buffer_bytes` back-pressure reaches the producer. A
//! kernel socket buffer would hide that bound, so the wire carries an
//! explicit **credit window**: the producer may have at most `window`
//! un-acknowledged frames outstanding; the consumer returns one credit per
//! frame, only once the whole frame has arrived; a producer out of credits
//! waits, exactly like a push against a full queue. A credit with no frame
//! outstanding is [`SocketError::Corrupt`]: the peer is not speaking the
//! protocol, and counting it would overrun the window's arithmetic. The
//! sink's load sample is outstanding frames against the window, so
//! [`crate::LoadSample`]-driven adaptive degradation keeps working across
//! the socket, and a consumer that stops returning credits trips the
//! sender's stall timeout like a full queue does.
//!
//! # Examples
//!
//! ```
//! use lba_compress::FrameConfig;
//! use lba_record::EventRecord;
//! use lba_transport::live::FrameReceiver;
//! use lba_transport::socket::{socket_pair, SocketSender};
//!
//! let config = FrameConfig::default();
//! let (sink, source) = socket_pair(0, 8)?;
//! let mut tx = SocketSender::new(sink, config);
//! for i in 0..100 {
//!     tx.push(&EventRecord::alu(0x1000 + i * 8, 0, None, None, None));
//! }
//! let sent = tx.finish()?;
//! let mut rx = FrameReceiver::new(source, 0, config);
//! let mut records = 0;
//! while let Some(frame) = rx.recv_batch()? {
//!     records += frame.records.len();
//! }
//! assert_eq!(records, 100);
//! assert_eq!(rx.stats().frames, sent.frames);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use lba_compress::{Frame, CODEC_VERSION};
use lba_record::{
    end_record, FrameRecordHeader, ReadError, RecordReader, StreamHeader, SEGMENT_HEADER_BYTES,
};

use crate::channel::LoadSample;
use crate::live::{FrameSender, FrameWire, Shipped, Wait};
use crate::sink::{FrameSource, SinkError};

/// Size of the connection hello: the `lbas/1` stream header, with the
/// credit window in the word a segment file uses for its sequence number.
pub const SOCKET_HELLO_BYTES: usize = SEGMENT_HEADER_BYTES;

/// The credit byte the consumer returns per drained frame (ASCII ACK).
const CREDIT: u8 = 0x06;

/// A human-readable name for the peer, used in error messages.
fn endpoint(stream: &UnixStream) -> String {
    match stream.peer_addr() {
        Ok(addr) => match addr.as_pathname() {
            Some(path) => format!("uds:{}", path.display()),
            None => "uds:<unnamed>".to_string(),
        },
        Err(_) => "uds:<disconnected>".to_string(),
    }
}

/// Everything that can go wrong on the socket wire. Every variant names
/// the endpoint involved and, where it matters, how many frames made it
/// across first — the same descriptive discipline as
/// [`lba_record::StreamError`]. A consumer that stops returning credits is
/// not among them: the sender latches it as a stall, as it does for a
/// full queue.
#[derive(Debug)]
pub enum SocketError {
    /// An underlying socket operation failed.
    Io {
        /// Peer the operation addressed.
        endpoint: String,
        /// The OS error.
        source: io::Error,
    },
    /// The connection does not open with the `lbas/` identifier.
    NotAStream {
        /// Offending peer.
        endpoint: String,
    },
    /// The peer speaks an `lbas/` protocol version this side does not
    /// understand.
    UnknownVersion {
        /// Offending peer.
        endpoint: String,
        /// The version string found after `lbas/`.
        version: String,
    },
    /// The hello announces frames sealed under another codec version than
    /// the one this build decodes: decoding them would yield garbage.
    CodecMismatch {
        /// Offending peer.
        endpoint: String,
        /// The codec version the hello announced.
        announced: u32,
        /// The codec version this build decodes
        /// (`lba_compress::CODEC_VERSION`).
        running: u32,
    },
    /// The connection tore mid-record — the peer died or the wire dropped
    /// before the stream's End record.
    Torn {
        /// Peer whose stream tore.
        endpoint: String,
        /// Complete frames received before the tear (the credit protocol
        /// guarantees these were whole).
        frames: u64,
    },
    /// The wire's bytes are internally inconsistent (bad tag, checksum or
    /// record-count mismatch, End-count disagreement, a stray byte or a
    /// surplus credit on the credit channel).
    Corrupt {
        /// Offending peer.
        endpoint: String,
        /// Frame index at which the inconsistency was found.
        frame: u64,
        /// What exactly disagreed.
        detail: String,
    },
}

impl fmt::Display for SocketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocketError::Io { endpoint, source } => {
                write!(f, "socket I/O error on {endpoint}: {source}")
            }
            SocketError::NotAStream { endpoint } => {
                write!(
                    f,
                    "{endpoint} did not open with the lbas/ identifier: not an LBA frame stream"
                )
            }
            SocketError::UnknownVersion { endpoint, version } => {
                write!(
                    f,
                    "{endpoint} speaks lbas/{version}; this side understands lbas/1"
                )
            }
            SocketError::CodecMismatch {
                endpoint,
                announced,
                running,
            } => {
                write!(
                    f,
                    "{endpoint} announces frames sealed under codec v{announced}; \
                     this build decodes v{running}"
                )
            }
            SocketError::Torn { endpoint, frames } => {
                write!(
                    f,
                    "connection to {endpoint} tore mid-stream after {frames} complete \
                     frame(s), before the End record (peer died or wire dropped)"
                )
            }
            SocketError::Corrupt {
                endpoint,
                frame,
                detail,
            } => {
                write!(
                    f,
                    "stream from {endpoint} is corrupt at frame {frame}: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for SocketError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SocketError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl SocketError {
    fn io(endpoint: &str, source: io::Error) -> Self {
        SocketError::Io {
            endpoint: endpoint.to_string(),
            source,
        }
    }
}

/// Producer end of the socket wire: ships sealed frames as `lbas/1`
/// records under the credit window, one `write` per frame record. Drive
/// it through a [`SocketSender`].
pub struct SocketSink {
    stream: UnixStream,
    endpoint: String,
    /// Maximum un-acknowledged frames in flight.
    window: u32,
    /// Frames shipped and credits received over the connection's life.
    sent: u64,
    acked: u64,
    /// Wire bits of each outstanding frame, oldest first — credits are
    /// FIFO, so popping the front converts a credit back into bits. Holds
    /// exactly `sent - acked` entries.
    outstanding_bits: VecDeque<u64>,
    inflight_bits: u64,
    /// Latched when the peer disappears (EOF or a reset on the credit
    /// channel, a broken-pipe or reset write).
    consumer_gone: bool,
    /// Latched when a stall interrupted the write of a frame record, which
    /// may then be partly on the wire: the stream can only end torn, never
    /// with an End record.
    record_cut: bool,
    /// The frame record being written, header and payload, reused across
    /// frames.
    record: Vec<u8>,
    /// The last shipped frame's buffer, handed back to the encoder.
    spare: Option<Vec<u8>>,
}

impl SocketSink {
    /// Opens the producer side over `stream`: writes the connection hello
    /// (stream id, codec version, credit window), then puts the stream in
    /// non-blocking mode for good, and returns the sink.
    ///
    /// `window` is the credit window in frames — derive it from the same
    /// budget as the in-process queue's capacity
    /// (`LogConfig::live_channel_frames`) and `buffer_bytes` back-pressure
    /// semantics survive the wire.
    ///
    /// # Errors
    ///
    /// [`SocketError::Io`] when the hello cannot be written or the mode
    /// not set.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero — a zero window could never ship.
    pub fn connect(
        mut stream: UnixStream,
        stream_id: u32,
        codec_version: u32,
        window: u32,
    ) -> Result<Self, SocketError> {
        assert!(window > 0, "socket credit window must be non-zero");
        let endpoint = endpoint(&stream);
        let hello = StreamHeader {
            codec_version,
            stream: stream_id,
            word: window,
        };
        stream
            .write_all(&hello.encode())
            .and_then(|()| stream.set_nonblocking(true))
            .map_err(|e| SocketError::io(&endpoint, e))?;
        Ok(SocketSink {
            stream,
            endpoint,
            window,
            sent: 0,
            acked: 0,
            outstanding_bits: VecDeque::new(),
            inflight_bits: 0,
            consumer_gone: false,
            record_cut: false,
            record: Vec::new(),
            spare: None,
        })
    }

    fn torn(&self) -> SocketError {
        SocketError::Torn {
            endpoint: self.endpoint.clone(),
            frames: self.sent,
        }
    }

    fn corrupt_credit(&self, detail: String) -> SocketError {
        SocketError::Corrupt {
            endpoint: self.endpoint.clone(),
            frame: self.acked,
            detail,
        }
    }

    /// Consumes one credit per byte read. A byte that is not a credit, or
    /// a credit with no frame outstanding, means the peer is not speaking
    /// the credit protocol.
    fn absorb_credits(&mut self, bytes: &[u8]) -> Result<(), SocketError> {
        for &b in bytes {
            if b != CREDIT {
                return Err(self.corrupt_credit(format!(
                    "byte {b:#04x} on the credit channel is not a credit"
                )));
            }
            let Some(bits) = self.outstanding_bits.pop_front() else {
                return Err(self.corrupt_credit(format!(
                    "credit for a frame never sent ({} sent, all acknowledged)",
                    self.sent
                )));
            };
            self.acked += 1;
            self.inflight_bits -= bits;
        }
        Ok(())
    }

    /// Absorbs the credits already on the wire with one non-blocking read.
    /// EOF latches the consumer as gone, and so does a reset: a consumer
    /// that closes with frames unread resets the connection.
    pub(crate) fn drain_credits(&mut self) -> Result<(), SocketError> {
        let mut buf = [0u8; 64];
        match self.stream.read(&mut buf) {
            Ok(0) => {
                self.consumer_gone = true;
                Ok(())
            }
            Ok(n) => self.absorb_credits(&buf[..n]),
            Err(e) => match e.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted => Ok(()),
                io::ErrorKind::ConnectionReset => {
                    self.consumer_gone = true;
                    Ok(())
                }
                _ => Err(SocketError::io(&self.endpoint, e)),
            },
        }
    }

    /// Writes all of `bytes`, waiting under `wait` while the kernel buffer
    /// is full. Returns `false` when the wait outlasted the stall timeout.
    fn write_waiting(&mut self, mut bytes: &[u8], wait: &mut Wait) -> Result<bool, SocketError> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => {
                    let source = io::Error::from(io::ErrorKind::WriteZero);
                    return Err(SocketError::io(&self.endpoint, source));
                }
                Ok(n) => bytes = &bytes[n..],
                Err(e) => match e.kind() {
                    io::ErrorKind::WouldBlock => {
                        // Credits keep arriving while the buffer drains, and
                        // EOF or a reset on them means nobody will drain it.
                        self.drain_credits()?;
                        if self.consumer_gone {
                            return Err(self.torn());
                        }
                        if !wait.pause() {
                            return Ok(false);
                        }
                    }
                    io::ErrorKind::Interrupted => {}
                    io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset => {
                        self.consumer_gone = true;
                        return Err(self.torn());
                    }
                    _ => return Err(SocketError::io(&self.endpoint, e)),
                },
            }
        }
        Ok(true)
    }
}

impl FrameWire for SocketSink {
    type Error = SocketError;

    /// Drains the returned credits, waits while the window is spent, then
    /// writes the frame record.
    fn ship(
        &mut self,
        frame: Frame,
        stall_timeout: Option<Duration>,
    ) -> Result<Shipped, SocketError> {
        self.drain_credits()?;
        let mut wait = Wait::new(stall_timeout);
        while self.sent - self.acked >= u64::from(self.window) {
            if self.consumer_gone {
                return Err(self.torn());
            }
            if !wait.pause() {
                return Ok(Shipped::Stalled);
            }
            self.drain_credits()?;
        }
        let mut record = std::mem::take(&mut self.record);
        record.clear();
        record.extend_from_slice(&FrameRecordHeader::new(0, frame.records, &frame.bytes).encode());
        record.extend_from_slice(&frame.bytes);
        let written = self.write_waiting(&record, &mut wait);
        self.record = record;
        if !written? {
            self.record_cut = true;
            return Ok(Shipped::Stalled);
        }
        let wire_bits = frame.wire_bits();
        self.sent += 1;
        self.outstanding_bits.push_back(wire_bits);
        self.inflight_bits += wire_bits;
        self.spare = Some(frame.bytes);
        Ok(Shipped::Sent {
            inflight_bits: self.inflight_bits,
        })
    }

    /// Un-acknowledged frames against the credit window. Credits are
    /// absorbed at every ship, so the sample is at most one frame stale.
    fn load_sample(&self) -> LoadSample {
        LoadSample {
            inflight: self.sent - self.acked,
            capacity: u64::from(self.window),
        }
    }

    fn spare(&mut self) -> Option<Vec<u8>> {
        self.spare.take()
    }

    /// Writes the End record, waiting as long as the kernel buffer stays
    /// full; a consumer already gone is owed nothing, and a stream cut
    /// mid-record by a stall ends torn. The connection stays open for late
    /// credits; dropping the sink closes it.
    fn close(&mut self) -> Result<(), SocketError> {
        if self.consumer_gone || self.record_cut {
            return Ok(());
        }
        self.write_waiting(&end_record(self.sent), &mut Wait::new(None))
            .map(drop)
    }
}

/// A [`FrameSender`] over a socket: the same encoder, recording tee,
/// marks, stall latch and statistics as the in-process sender, shipping
/// under the credit window. End it with [`finish`](FrameSender::finish):
/// a sender dropped unfinished never writes the End record, so its
/// consumer sees a torn stream.
pub type SocketSender = FrameSender<SocketSink>;

/// Consumer end of the socket wire: reads the stream through a
/// [`RecordReader`] over a read buffer and returns one credit per whole
/// frame — a [`FrameSource`] that a
/// [`FrameReceiver`](crate::live::FrameReceiver) decodes exactly like the
/// in-process queue. Its reads block.
#[derive(Debug)]
pub struct SocketSource {
    records: RecordReader<BufReader<UnixStream>>,
    endpoint: String,
}

impl SocketSource {
    /// Opens the consumer side over `stream`: reads and validates the
    /// connection hello.
    ///
    /// # Errors
    ///
    /// [`SocketError::NotAStream`] when the peer does not open with the
    /// `lbas/` identifier (one that leaves before sending its 8 bytes does
    /// not), [`SocketError::UnknownVersion`] for a protocol
    /// version this side does not speak, [`SocketError::CodecMismatch`]
    /// for frames sealed under another codec than this build's,
    /// [`SocketError::Torn`] when the peer leaves inside the hello after
    /// its identifier, and [`SocketError::Io`] when the hello cannot be
    /// read.
    pub fn accept(stream: UnixStream) -> Result<Self, SocketError> {
        let endpoint = endpoint(&stream);
        let (hello, records) = match RecordReader::open(BufReader::new(stream)) {
            Ok(opened) => opened,
            Err(e) => return Err(wire_error(e, endpoint, 0)),
        };
        if hello.codec_version != CODEC_VERSION {
            return Err(SocketError::CodecMismatch {
                endpoint,
                announced: hello.codec_version,
                running: CODEC_VERSION,
            });
        }
        Ok(SocketSource { records, endpoint })
    }

    fn next_wire_frame(&mut self) -> Result<Option<Vec<u8>>, SocketError> {
        let frame = match self.records.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(None),
            Err(e) => return Err(wire_error(e, self.endpoint.clone(), self.records.frames())),
        };
        // Return the credit *after* the frame is whole: a credit promises
        // the producer this slot of the window is truly free.
        if let Err(e) = self.records.get_mut().get_mut().write_all(&[CREDIT]) {
            // A producer that already left does not need credits. Its
            // close shuts this end (a broken pipe), but a write racing the
            // close can meet the reset it leaves when credits were still
            // unread.
            if !matches!(
                e.kind(),
                io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset
            ) {
                return Err(SocketError::io(&self.endpoint, e));
            }
        }
        Ok(Some(frame.bytes))
    }
}

/// The socket's error for what the record reader met on the wire from
/// `endpoint` after `frames` whole frames. A producer that left before
/// its End record tears the stream, whether its bytes ended, mid-record
/// or between records, or the connection was reset (the producer closed
/// with credits unread).
fn wire_error(e: ReadError, endpoint: String, frames: u64) -> SocketError {
    match e {
        ReadError::Cut(_) | ReadError::Ended => SocketError::Torn { endpoint, frames },
        ReadError::Io(source) if source.kind() == io::ErrorKind::ConnectionReset => {
            SocketError::Torn { endpoint, frames }
        }
        ReadError::Io(source) => SocketError::Io { endpoint, source },
        ReadError::NotAStream => SocketError::NotAStream { endpoint },
        ReadError::UnknownVersion(version) => SocketError::UnknownVersion { endpoint, version },
        ReadError::Corrupt { detail, .. } => SocketError::Corrupt {
            endpoint,
            frame: frames,
            detail,
        },
    }
}

impl FrameSource for SocketSource {
    fn next_frame_bytes(&mut self) -> Result<Option<Vec<u8>>, SinkError> {
        self.next_wire_frame().map_err(Into::into)
    }
}

/// A connected producer/consumer pair over an anonymous Unix-domain
/// socket pair — the in-machine deployment, and the shape every remote
/// worker uses (a listener-accepted stream drops into the same types).
///
/// `stream_id` names the shard; `window` is the credit window in frames.
/// The codec version announced is `lba_compress::CODEC_VERSION`.
///
/// # Errors
///
/// [`SocketError::Io`] when the socket pair cannot be created, plus any
/// hello exchange error.
pub fn socket_pair(stream_id: u32, window: u32) -> Result<(SocketSink, SocketSource), SocketError> {
    let (a, b) = UnixStream::pair().map_err(|e| SocketError::io("uds:<socketpair>", e))?;
    let sink = SocketSink::connect(a, stream_id, CODEC_VERSION, window)?;
    let source = SocketSource::accept(b)?;
    Ok((sink, source))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::{FrameReceiver, RecvError};
    use lba_compress::{FrameConfig, FrameDecoder, FrameEncoder};
    use lba_record::EventRecord;
    use std::thread;
    use std::time::Instant;

    fn record(i: u64) -> EventRecord {
        EventRecord::load(0x1000 + i * 8, 0, None, Some(1), 0x10_0000 + i * 8, 8)
    }

    fn small_frames() -> FrameConfig {
        FrameConfig {
            records_per_frame: 4,
            ..FrameConfig::default()
        }
    }

    /// One frame record around `image`, claiming `records` records.
    fn frame_record(records: u32, image: &[u8]) -> Vec<u8> {
        let mut wire = FrameRecordHeader::new(0, records, image).encode().to_vec();
        wire.extend_from_slice(image);
        wire
    }

    /// A consumer over a connection spoken by hand: the hello for
    /// `stream`, then `wire`, then EOF.
    fn source_over(stream: u32, wire: &[u8]) -> SocketSource {
        let (mut a, b) = UnixStream::pair().unwrap();
        let hello = StreamHeader {
            codec_version: CODEC_VERSION,
            stream,
            word: 4,
        };
        a.write_all(&hello.encode()).unwrap();
        a.write_all(wire).unwrap();
        drop(a);
        SocketSource::accept(b).unwrap()
    }

    #[test]
    fn frames_round_trip_bit_identically_over_the_wire() {
        let config = FrameConfig::default();
        let (sink, source) = socket_pair(3, 8).unwrap();

        let mut tx = SocketSender::new(sink, config);
        let mut reference = FrameEncoder::new(config);
        let mut expected: Vec<Vec<u8>> = Vec::new();
        for i in 0..1000 {
            tx.push(&record(i));
            if let Some(frame) = reference.push(&record(i)) {
                expected.push(frame.bytes);
            }
        }
        let consumer = thread::spawn(move || {
            let mut rx = FrameReceiver::new(source, 3, config);
            let mut frames = Vec::new();
            while let Some(bytes) = rx.next_frame_bytes().unwrap() {
                frames.push(bytes);
            }
            (frames, rx.stats())
        });
        let stats = tx.finish().unwrap();
        if let Some(frame) = reference.flush() {
            expected.push(frame.bytes);
        }
        let (frames, rx_stats) = consumer.join().unwrap();
        assert_eq!(frames, expected, "socket wire must be byte-identical");
        assert_eq!(stats.records, 1000);
        assert_eq!(rx_stats.records, 1000);
        assert_eq!(stats.wire_bits, rx_stats.wire_bits);
        assert_eq!(stats.frames, frames.len() as u64);

        // And the frames decode back to the records.
        let mut decoder = FrameDecoder::new(config);
        let mut records = Vec::new();
        for bytes in &frames {
            decoder.decode_frame(bytes, &mut records).unwrap();
        }
        assert_eq!(records.len(), 1000);
        assert_eq!(records[7], record(7));
    }

    #[test]
    fn credit_window_bounds_inflight_and_stall_latches_instead_of_hanging() {
        let (sink, _source) = socket_pair(0, 2).unwrap();
        let mut tx = SocketSender::new(sink, small_frames());
        tx.set_stall_timeout(Some(Duration::from_millis(50)));
        // The consumer never drains, so never returns a credit: the first
        // two frames ship on the window, the third must wait and then
        // latch the stall instead of hanging.
        let start = Instant::now();
        for i in 0..64 {
            tx.push(&record(i));
        }
        assert!(tx.stalled(), "exhausted window with no credits must latch");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "stall must latch once, not re-pay the timeout per frame"
        );
        let sample = tx.load_sample();
        assert_eq!(
            (sample.inflight, sample.capacity),
            (2, 2),
            "occupancy must report the window exhausted"
        );
        let stats = tx.stats();
        assert_eq!(stats.frames, 2, "only windowed frames may ship");
    }

    #[test]
    fn a_full_kernel_buffer_stalls_like_a_spent_window_and_ends_torn() {
        // 200 raw frames of 6.4 KB each under a 1024-frame window outgrow
        // the kernel's socket buffer long before the window is spent.
        let config = FrameConfig {
            records_per_frame: 256,
            compress: false,
        };
        let (sink, source) = socket_pair(0, 1024).unwrap();
        let mut tx = SocketSender::new(sink, config);
        tx.set_stall_timeout(Some(Duration::from_millis(50)));
        let start = Instant::now();
        for i in 0..256 * 200 {
            tx.push(&record(i));
        }
        assert!(tx.stalled(), "a buffer nobody drains must latch a stall");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "stall must latch once, not re-pay the timeout per frame"
        );
        let shipped = tx.finish().expect("a stall is latched, not an error");
        assert!(
            (1..200).contains(&shipped.frames),
            "{} frames shipped",
            shipped.frames
        );
        // The frames before the stall arrive whole; the record the stall
        // cut short ends the stream torn, with no End record after it.
        let mut rx = FrameReceiver::new(source, 0, config);
        for _ in 0..shipped.frames {
            assert!(rx.recv_batch().unwrap().is_some());
        }
        let err = rx.recv_batch().unwrap_err();
        assert!(err.to_string().contains("tore mid-stream"), "got: {err}");
    }

    #[test]
    fn consumer_disconnect_is_a_descriptive_error_not_a_hang() {
        let (sink, source) = socket_pair(0, 2).unwrap();
        let mut tx = SocketSender::new(sink, small_frames());
        drop(source); // worker dies mid-run
        let start = Instant::now();
        for i in 0..64 {
            tx.push(&record(i));
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a dead consumer must not hang the producer"
        );
        let err = tx.finish().unwrap_err();
        assert!(matches!(err, SocketError::Torn { .. }), "got: {err}");
        let msg = err.to_string();
        assert!(msg.contains("tore mid-stream"), "got: {msg}");
    }

    #[test]
    fn a_consumer_gone_with_frames_unread_is_a_tear() {
        // Closing a Unix-domain socket with bytes still unread resets the
        // connection, so the producer's next credit read meets a reset
        // rather than EOF. It still means the worker left.
        let (sink, source) = socket_pair(0, 16).unwrap();
        let mut tx = SocketSender::new(sink, small_frames());
        for i in 0..4 {
            tx.push(&record(i)); // one frame, never read
        }
        drop(source);
        for i in 4..8 {
            tx.push(&record(i));
        }
        let err = tx.finish().unwrap_err();
        assert!(
            matches!(err, SocketError::Torn { frames: 1, .. }),
            "got: {err}"
        );
    }

    #[test]
    fn dropped_sender_tears_instead_of_ending_cleanly() {
        // Only `finish` writes the End record: a producer that dies
        // unfinished leaves its consumer a tear, not a short clean stream.
        let (sink, mut source) = socket_pair(0, 16).unwrap();
        let mut tx = SocketSender::new(sink, small_frames());
        for i in 0..12 {
            tx.push(&record(i)); // 3 complete frames
        }
        drop(tx);
        for _ in 0..3 {
            assert!(source.next_frame_bytes().unwrap().is_some());
        }
        let err = source.next_frame_bytes().unwrap_err();
        assert!(err.to_string().contains("tore mid-stream"), "got: {err}");
    }

    #[test]
    fn a_producer_gone_with_credits_unread_ends_the_stream_as_it_left_it() {
        // The producer reads credits only while it ships, so it leaves with
        // the last ones unread, and closing a Unix-domain socket with
        // unread bytes resets the connection. The worker still behind must
        // read on to what the producer wrote: an End record is a clean end,
        // and a producer that died before writing one is a tear.
        for finished in [true, false] {
            let (sink, mut source) = socket_pair(0, 16).unwrap();
            let mut tx = SocketSender::new(sink, small_frames());
            for i in 0..8 {
                tx.push(&record(i)); // 2 complete frames
            }
            assert!(source.next_frame_bytes().unwrap().is_some()); // 1 credit
            if finished {
                tx.finish().unwrap();
            } else {
                drop(tx);
            }
            assert!(source.next_frame_bytes().unwrap().is_some());
            match source.next_frame_bytes() {
                Ok(None) => assert!(finished, "a dead producer ended cleanly"),
                Err(e) => assert!(
                    !finished && e.to_string().contains("tore mid-stream"),
                    "finished {finished}: {e}"
                ),
                Ok(Some(_)) => panic!("only two frames were sent"),
            }
        }
    }

    #[test]
    fn torn_wire_surfaces_descriptively_after_the_complete_prefix() {
        let mut encoder = FrameEncoder::new(small_frames());
        let mut wire = Vec::new();
        for i in 0..12 {
            if let Some(frame) = encoder.push(&record(i)) {
                wire.extend(frame_record(frame.records, &frame.bytes)); // 3 frames
            }
        }
        // Tear the wire mid-frame: a frame header with no payload behind it.
        wire.extend_from_slice(&FrameRecordHeader::new(0, 4, &[0u8; 512]).encode());
        let mut source = source_over(0, &wire);
        for _ in 0..3 {
            assert!(source.next_frame_bytes().unwrap().is_some());
        }
        let err = source.next_frame_bytes().unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("after 3 complete frame(s)"),
            "tear must name the complete prefix: {msg}"
        );
    }

    #[test]
    fn corrupt_payload_and_end_count_are_descriptive_errors() {
        // Flip the checksum of a payload on the wire by speaking the
        // protocol by hand.
        let payload = vec![0xABu8; 64];
        let mut header = FrameRecordHeader::new(0, 1, &payload);
        header.checksum ^= 1;
        let mut wire = header.encode().to_vec();
        wire.extend_from_slice(&payload);
        let msg = source_over(0, &wire)
            .next_frame_bytes()
            .unwrap_err()
            .to_string();
        assert!(msg.contains("checksum mismatch"), "got: {msg}");

        // An End record whose count disagrees with the wire.
        let msg = source_over(0, &end_record(7))
            .next_frame_bytes()
            .unwrap_err()
            .to_string();
        assert!(msg.contains("End record says 7"), "got: {msg}");
    }

    #[test]
    fn record_count_disagreeing_with_the_frame_image_is_corrupt() {
        // Regression: the reader used to add the record header's count to
        // its statistics unchecked. A header claiming a million records
        // around a 10-record frame must be refused, not believed.
        let mut encoder = FrameEncoder::new(FrameConfig::default());
        for i in 0..10 {
            assert!(encoder.push(&record(i)).is_none());
        }
        let frame = encoder.flush().expect("ten records pending");
        let mut source = source_over(0, &frame_record(1_000_000, &frame.bytes));
        let err = source.next_wire_frame().unwrap_err();
        assert!(
            matches!(&err, SocketError::Corrupt { frame: 0, .. }),
            "got: {err}"
        );
        assert!(
            err.to_string()
                .contains("says 1000000 records, frame image says 10"),
            "got: {err}"
        );
    }

    #[test]
    fn oversized_length_claim_tears_without_allocating_it() {
        // Regression: a frame header claiming u32::MAX payload bytes used
        // to allocate 4 GiB up front. With the allocation bounded by what
        // arrives, the 45-byte connection below ends as a tear after zero
        // frames.
        let header = FrameRecordHeader {
            timestamp: 0,
            records: 1,
            len: u32::MAX,
            checksum: 0,
        };
        let mut source = source_over(0, &header.encode());
        let err = source.next_wire_frame().unwrap_err();
        assert!(
            matches!(err, SocketError::Torn { frames: 0, .. }),
            "got: {err}"
        );
    }

    #[test]
    fn a_stray_byte_on_the_credit_channel_is_an_error() {
        // Regression: any byte used to count as a credit in release
        // builds. A peer answering with something else is not speaking
        // the protocol.
        let (a, mut b) = UnixStream::pair().unwrap();
        let sink = SocketSink::connect(a, 0, CODEC_VERSION, 4).unwrap();
        let mut hello = [0u8; SOCKET_HELLO_BYTES];
        b.read_exact(&mut hello).unwrap();
        b.write_all(b"X").unwrap();
        let mut tx = SocketSender::new(sink, small_frames());
        for i in 0..8 {
            tx.push(&record(i));
        }
        let err = tx.finish().unwrap_err();
        assert!(matches!(err, SocketError::Corrupt { .. }), "got: {err}");
        assert!(err.to_string().contains("not a credit"), "got: {err}");
        drop(b);
    }

    #[test]
    fn a_credit_for_a_frame_never_sent_is_an_error() {
        // Regression: surplus credits were counted, so `sent - acked`
        // underflowed. Debug builds panicked; release builds read the
        // window as full and stalled (or, with no stall timeout, hung).
        let (a, mut b) = UnixStream::pair().unwrap();
        let sink = SocketSink::connect(a, 0, CODEC_VERSION, 2).unwrap();
        let mut hello = [0u8; SOCKET_HELLO_BYTES];
        b.read_exact(&mut hello).unwrap();
        b.write_all(&[CREDIT; 3]).unwrap();
        let mut tx = SocketSender::new(sink, small_frames());
        tx.set_stall_timeout(Some(Duration::from_millis(200)));
        for i in 0..8 {
            tx.push(&record(i));
        }
        assert!(!tx.stalled(), "a surplus credit is not a full window");
        let err = tx.finish().unwrap_err();
        assert!(
            matches!(err, SocketError::Corrupt { frame: 0, .. }),
            "got: {err}"
        );
        assert!(
            err.to_string().contains("credit for a frame never sent"),
            "got: {err}"
        );
        drop(b);
    }

    #[test]
    fn undecodable_frame_is_an_error_naming_stream_and_frame() {
        // A frame that crosses the wire intact — valid checksum, record
        // header agreeing with the image — but whose image claims more
        // records than its payload holds. The receiver over a socket must
        // report it, not panic.
        let mut encoder = FrameEncoder::new(small_frames());
        let mut wire = Vec::new();
        for i in 0..4 {
            if let Some(frame) = encoder.push(&record(i)) {
                wire.extend(frame_record(frame.records, &frame.bytes));
            }
        }
        let mut image = vec![0u8; 64];
        image[0..4].copy_from_slice(&1000u32.to_le_bytes()); // 1000 records...
        image[4..8].copy_from_slice(&8u32.to_le_bytes()); // ...in 8 payload bytes
        wire.extend(frame_record(1000, &image));
        let mut rx = FrameReceiver::new(source_over(5, &wire), 5, small_frames());
        assert_eq!(
            rx.recv_batch()
                .unwrap()
                .expect("a good frame")
                .records
                .len(),
            4
        );
        let err = rx.recv_batch().unwrap_err();
        assert!(
            matches!(
                err,
                RecvError::Decode {
                    stream: 5,
                    frame: 1,
                    ..
                }
            ),
            "got: {err}"
        );
        assert!(
            err.to_string().contains("frame 1 of stream 5"),
            "got: {err}"
        );
    }

    #[test]
    fn bad_hello_is_told_apart_from_a_future_version() {
        let (mut a, b) = UnixStream::pair().unwrap();
        a.write_all(b"GET / HTTP/1.1\r\nHost: no\r\n").unwrap();
        let err = SocketSource::accept(b).unwrap_err();
        assert!(matches!(err, SocketError::NotAStream { .. }), "got: {err}");

        let (mut a, b) = UnixStream::pair().unwrap();
        let mut hello = [0u8; SOCKET_HELLO_BYTES];
        hello[0..8].copy_from_slice(b"lbas/9\n\0");
        a.write_all(&hello).unwrap();
        let err = SocketSource::accept(b).unwrap_err();
        assert!(
            matches!(&err, SocketError::UnknownVersion { version, .. } if version == "9"),
            "got: {err}"
        );
        assert!(err.to_string().contains("lbas/9"));
    }

    #[test]
    fn a_hello_under_another_codec_is_refused() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let announced = CODEC_VERSION + 7;
        let hello = StreamHeader {
            codec_version: announced,
            stream: 0,
            word: 4,
        };
        a.write_all(&hello.encode()).unwrap();
        let err = SocketSource::accept(b).unwrap_err();
        assert!(
            matches!(
                &err,
                SocketError::CodecMismatch { announced: a, running: r, .. }
                    if (*a, *r) == (announced, CODEC_VERSION)
            ),
            "got: {err}"
        );
        let message = err.to_string();
        assert!(
            message.contains("uds:")
                && message.contains(&format!("v{announced}"))
                && message.contains(&format!("v{CODEC_VERSION}")),
            "the message names the endpoint and both versions: {message}"
        );
    }

    #[test]
    fn credits_refresh_the_load_sample_as_the_consumer_drains() {
        let (sink, mut source) = socket_pair(0, 4).unwrap();
        let mut tx = SocketSender::new(sink, small_frames());
        for i in 0..8 {
            tx.push(&record(i)); // 2 frames, window 4
        }
        assert_eq!(tx.load_sample().inflight, 2);
        for _ in 0..2 {
            source.next_frame_bytes().unwrap().unwrap();
        }
        // The credits are on the wire; the next push's poll absorbs them.
        for i in 8..12 {
            tx.push(&record(i));
        }
        // Give the poll a beat: credits travel a real socket.
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut inflight = tx.load_sample().inflight;
        while inflight > 1 && Instant::now() < deadline {
            thread::yield_now();
            tx.poll_credits();
            inflight = tx.load_sample().inflight;
        }
        assert!(
            inflight <= 2,
            "returned credits must lower the occupancy sample: {inflight}"
        );
    }
}
