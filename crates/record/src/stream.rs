//! Durable flight-recorder streams: the `lbas/1` on-disk segment format.
//!
//! The in-memory transports ship sealed compressed frames between cores;
//! this module makes those frames *durable*, so a deployed run leaves a
//! recording behind — the crash-post-mortem and run-a-different-lifeguard-
//! later stories the paper motivates. A recording is one **stream** per
//! wire stream (the single-lifeguard modes have one; the sharded modes
//! have one per shard), and each stream is a sequence of bounded **segment
//! files**.
//!
//! # Segment layout
//!
//! Every segment file starts with a 24-byte header:
//!
//! ```text
//! offset  size  field
//!      0     8  format identifier: b"lbas/1\n\0" (readable via `head -c8`)
//!      8     4  codec version (u32 LE) — the compressed wire format the
//!               frame payloads were sealed under
//!     12     4  stream id (u32 LE) — shard index; 0 for unsharded modes
//!     16     4  segment sequence number (u32 LE), contiguous from 0
//!     20     4  reserved (zero)
//! ```
//!
//! followed by records, each introduced by a one-byte tag:
//!
//! * **Frame** (`0x01`): `u64` LE seal timestamp (producer-core cycle in
//!   the co-simulation; 0 in the live modes, which have no modeled clock),
//!   `u32` LE record count, `u32` LE payload length in bytes, `u32` LE
//!   FNV-1a checksum of the payload, then the payload — the sealed frame's
//!   complete wire image (frame header, compressed payload, line padding),
//!   so a stream's replayed wire-bit total is exactly the recorded run's.
//! * **End** (`0x02`): `u64` LE count of frame records in this segment.
//!   Written when a segment closes — at rotation and at
//!   [`SegmentWriter::finish`] — so a segment *without* one is positively
//!   identified as truncated (crash or disk-full mid-write) rather than
//!   silently short.
//!
//! The socket transport (`lba_transport::socket`) speaks the same format
//! over a connection — the same header (its word at offset 16 is the
//! credit window instead of a sequence number), the same frame records and
//! the same End record. Both carriers read it through the one
//! [`RecordReader`] and write it with the same encoders ([`StreamHeader`],
//! [`FrameRecordHeader`], [`end_record`]), so a torn wire and a torn
//! recording fail alike.
//!
//! # Segment naming, rotation, retention
//!
//! Segments are named `shard-SS.NNNNNN.lbas` (stream id, then sequence
//! number, both zero-padded decimal) inside the recording directory. A
//! segment rotates when appending the next frame would push it past
//! [`StreamConfig::segment_bytes`]; once the stream's total on-disk size
//! exceeds [`StreamConfig::retain_bytes`], the oldest *closed* segments
//! are deleted (the segment being written is never deleted), bounding disk
//! from day one. Retention is a trade: the compressed stream's predictor
//! state threads through every frame from the start, so replay needs the
//! stream complete from sequence 0 — a reader that finds the early
//! segments aged out reports it descriptively instead of decoding garbage.

use std::collections::VecDeque;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

/// The stream format identifier, also the first line of every segment.
pub const STREAM_FORMAT: &str = "lbas/1";

/// The 8-byte on-disk form of [`STREAM_FORMAT`].
const IDENT: [u8; 8] = *b"lbas/1\n\0";

/// Size of the header opening every `lbas/1` byte stream (identifier +
/// codec version + stream id + carrier word + reserved word): a segment
/// file's header, a socket connection's hello.
pub const SEGMENT_HEADER_BYTES: usize = 24;

/// Tag of a frame record.
pub const TAG_FRAME: u8 = 0x01;
/// Tag of an End record.
const TAG_END: u8 = 0x02;

/// Size of a frame record's fixed part (tag + timestamp + record count +
/// payload length + checksum).
pub const FRAME_RECORD_HEADER_BYTES: usize = 1 + 8 + 4 + 4 + 4;

/// Size of an End record (tag + frame count).
pub const END_RECORD_BYTES: usize = 1 + 8;

/// The first word of a sealed frame image (`u32` LE, see
/// `lba_compress`): the record count in the low 30 bits and the
/// degraded-capture mark in bit 30 (codec v4). Bit 31 was codec v3's
/// epoch-end mark; it is retired and no encoder sets it. Readers mask off
/// only the degraded mark, so a set bit 31 reads as a count of at least
/// 2^31 records, which no frame payload can hold: the frame decoder
/// rejects it as too many records, and the [`RecordReader`] as a count
/// mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameCountWord {
    /// Records the frame carries.
    pub records: u32,
    /// Whether the frame was sealed while degraded capture was engaged.
    pub degraded: bool,
}

impl FrameCountWord {
    const DEGRADED_MARK: u32 = 1 << 30;

    /// The most records one frame can carry: the count's 30 bits.
    pub const MAX_RECORDS: u32 = Self::DEGRADED_MARK - 1;

    /// The word's wire form; `records` must be at most
    /// [`MAX_RECORDS`](Self::MAX_RECORDS).
    #[must_use]
    pub fn encode(self) -> [u8; 4] {
        debug_assert!(self.records <= Self::MAX_RECORDS);
        let mark = if self.degraded {
            Self::DEGRADED_MARK
        } else {
            0
        };
        (self.records | mark).to_le_bytes()
    }

    /// Reads the word opening a frame image, or `None` when the image is
    /// shorter than the word.
    #[must_use]
    pub fn read(image: &[u8]) -> Option<Self> {
        let word = u32::from_le_bytes(*image.first_chunk::<4>()?);
        Some(FrameCountWord {
            records: word & !Self::DEGRADED_MARK,
            degraded: word & Self::DEGRADED_MARK != 0,
        })
    }
}

/// FNV-1a over the payload, folded to 32 bits — cheap enough to run at
/// capture (the tee's only per-byte work) yet positively identifies
/// mid-frame corruption that length checks cannot see.
fn payload_checksum(bytes: &[u8]) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    #[allow(clippy::cast_possible_truncation)]
    {
        (h ^ (h >> 32)) as u32
    }
}

/// Checks that `head` opens with the `lbas/1` identifier, telling a
/// foreign byte stream apart from a future format version.
fn check_ident(head: &[u8]) -> Result<(), ReadError> {
    if head.len() < IDENT.len() || head[0..5] != IDENT[0..5] {
        return Err(ReadError::NotAStream);
    }
    let version_end = head[5..8]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(8, |p| 5 + p);
    let version = String::from_utf8_lossy(&head[5..version_end]).into_owned();
    if version != "1" {
        return Err(ReadError::UnknownVersion(version));
    }
    Ok(())
}

/// The header opening every `lbas/1` byte stream, after the identifier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamHeader {
    /// Codec version the frame payloads were sealed under.
    pub codec_version: u32,
    /// Stream id: the shard index, 0 for unsharded modes.
    pub stream: u32,
    /// The carrier's own word: a segment's sequence number, a socket
    /// connection's credit window.
    pub word: u32,
}

impl StreamHeader {
    /// Encodes the header: identifier, the three words as `u32` LE, then
    /// a reserved zero word.
    #[must_use]
    pub fn encode(&self) -> [u8; SEGMENT_HEADER_BYTES] {
        let mut bytes = [0u8; SEGMENT_HEADER_BYTES];
        bytes[0..8].copy_from_slice(&IDENT);
        bytes[8..12].copy_from_slice(&self.codec_version.to_le_bytes());
        bytes[12..16].copy_from_slice(&self.stream.to_le_bytes());
        bytes[16..20].copy_from_slice(&self.word.to_le_bytes());
        bytes
    }

    /// Decodes the words of a header whose identifier `check_ident`
    /// accepted.
    fn decode(bytes: &[u8; SEGMENT_HEADER_BYTES]) -> Self {
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        StreamHeader {
            codec_version: word(8),
            stream: word(12),
            word: word(16),
        }
    }
}

/// The fixed part of a frame record: everything between the tag and the
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRecordHeader {
    /// Seal timestamp (producer-core cycle; 0 on live transports).
    pub timestamp: u64,
    /// Records the frame carries.
    pub records: u32,
    /// Payload length in bytes. Untrusted on read: a reader bounds its
    /// allocation by the bytes that actually arrive, not by this.
    pub len: u32,
    /// FNV-1a checksum of the payload.
    pub checksum: u32,
}

impl FrameRecordHeader {
    /// The header of a record carrying `payload`, a sealed frame image.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is 4 GiB or longer (sealed frames are a few
    /// cache lines).
    #[must_use]
    pub fn new(timestamp: u64, records: u32, payload: &[u8]) -> Self {
        FrameRecordHeader {
            timestamp,
            records,
            len: u32::try_from(payload.len()).expect("a sealed frame is far below 4 GiB"),
            checksum: payload_checksum(payload),
        }
    }

    /// Encodes the record's fixed part, tag included.
    #[must_use]
    pub fn encode(&self) -> [u8; FRAME_RECORD_HEADER_BYTES] {
        let mut bytes = [0u8; FRAME_RECORD_HEADER_BYTES];
        bytes[0] = TAG_FRAME;
        bytes[1..9].copy_from_slice(&self.timestamp.to_le_bytes());
        bytes[9..13].copy_from_slice(&self.records.to_le_bytes());
        bytes[13..17].copy_from_slice(&self.len.to_le_bytes());
        bytes[17..21].copy_from_slice(&self.checksum.to_le_bytes());
        bytes
    }

    /// Decodes the fields that follow a frame record's tag.
    fn decode(fields: &[u8; FRAME_RECORD_HEADER_BYTES - 1]) -> Self {
        let word = |at: usize| u32::from_le_bytes(fields[at..at + 4].try_into().expect("4 bytes"));
        FrameRecordHeader {
            timestamp: u64::from_le_bytes(fields[0..8].try_into().expect("8 bytes")),
            records: word(8),
            len: word(12),
            checksum: word(16),
        }
    }

    /// Checks a received payload against this header: its checksum, and
    /// the record count, which the sealed frame image repeats in its
    /// [`FrameCountWord`].
    ///
    /// # Errors
    ///
    /// What disagreed, for the reader's corruption error.
    fn verify(&self, payload: &[u8]) -> Result<(), String> {
        if payload_checksum(payload) != self.checksum {
            return Err("frame payload checksum mismatch".to_string());
        }
        if let Some(word) = FrameCountWord::read(payload) {
            if word.records != self.records {
                return Err(format!(
                    "frame record says {} records, frame image says {}",
                    self.records, word.records
                ));
            }
        }
        Ok(())
    }
}

/// Encodes an End record closing a run of `frames` frame records.
#[must_use]
pub fn end_record(frames: u64) -> [u8; END_RECORD_BYTES] {
    let mut bytes = [0u8; END_RECORD_BYTES];
    bytes[0] = TAG_END;
    bytes[1..9].copy_from_slice(&frames.to_le_bytes());
    bytes
}

/// The canonical file name of a segment.
#[must_use]
pub fn segment_file_name(stream: u32, seq: u32) -> String {
    format!("shard-{stream:02}.{seq:06}.lbas")
}

/// Parses a segment file name back into `(stream, seq)`.
fn parse_segment_file_name(name: &str) -> Option<(u32, u32)> {
    let rest = name.strip_prefix("shard-")?.strip_suffix(".lbas")?;
    let (stream, seq) = rest.split_once('.')?;
    Some((stream.parse().ok()?, seq.parse().ok()?))
}

/// Size and retention policy of a recorded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Rotate to a new segment once appending the next frame would push
    /// the current file past this many bytes (a single oversized frame
    /// still lands whole — segments never split a frame).
    pub segment_bytes: u64,
    /// Delete the oldest closed segments once the stream's total on-disk
    /// bytes exceed this cap. `u64::MAX` (the default) retains everything,
    /// which full-stream replay requires.
    pub retain_bytes: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            segment_bytes: 4 << 20,
            retain_bytes: u64::MAX,
        }
    }
}

/// What [`SegmentWriter::finish`] reports about the completed stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Frame records written over the stream's lifetime.
    pub frames: u64,
    /// Bytes written over the stream's lifetime (deleted segments
    /// included).
    pub bytes_written: u64,
    /// Segments currently on disk after retention.
    pub segments_retained: usize,
    /// Bytes currently on disk after retention.
    pub bytes_retained: u64,
}

/// One recorded frame, as handed back by [`SegmentReader::next_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFrame {
    /// Producer-core cycle at which the frame sealed (0 in live modes).
    pub timestamp: u64,
    /// Records the frame carries.
    pub records: u32,
    /// The sealed frame's complete wire image.
    pub bytes: Vec<u8>,
}

impl StreamFrame {
    /// Wire bits this frame occupied on the original run's transport.
    #[must_use]
    pub fn wire_bits(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }
}

/// Everything that can go wrong writing or reading a stream. Every
/// variant names the file (or directory) involved; none of them panic.
#[derive(Debug)]
pub enum StreamError {
    /// An underlying filesystem operation failed.
    Io {
        /// File or directory involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// The file does not start with the `lbas/` identifier.
    NotAStream {
        /// Offending file.
        path: PathBuf,
    },
    /// The file is an LBA stream of a format version this reader does not
    /// understand.
    UnknownVersion {
        /// Offending file.
        path: PathBuf,
        /// The version string found after `lbas/`.
        version: String,
    },
    /// The segment ended in the middle of a record — a crash or disk-full
    /// cut the writer off mid-write.
    Truncated {
        /// Offending file.
        path: PathBuf,
        /// Byte offset at which the record began.
        offset: u64,
    },
    /// The segment ended at a record boundary but without an End record,
    /// so frames may be missing off its tail.
    MissingEnd {
        /// Offending file.
        path: PathBuf,
    },
    /// The segment's bytes are internally inconsistent (bad tag, checksum
    /// mismatch, frame/record-count disagreement, End-count mismatch).
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// Byte offset of the inconsistent record.
        offset: u64,
        /// What exactly disagreed.
        detail: String,
    },
    /// The stream's segments do not start at sequence 0 (retention aged
    /// the early ones out) or have a gap. The compressed stream's
    /// predictor state threads through every frame, so replay needs the
    /// segments contiguous from 0.
    MissingSegments {
        /// Recording directory.
        dir: PathBuf,
        /// Stream id.
        stream: u32,
        /// First sequence number expected but not found.
        expected_seq: u32,
    },
    /// The recording directory holds no segments for this stream id.
    NoSuchStream {
        /// Recording directory.
        dir: PathBuf,
        /// Stream id.
        stream: u32,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io { path, source } => {
                write!(f, "stream I/O error on {}: {source}", path.display())
            }
            StreamError::NotAStream { path } => {
                write!(
                    f,
                    "{} is not an LBA stream segment (missing lbas/ identifier)",
                    path.display()
                )
            }
            StreamError::UnknownVersion { path, version } => {
                write!(
                    f,
                    "{} is an lbas/{version} segment; this reader understands {STREAM_FORMAT}",
                    path.display()
                )
            }
            StreamError::Truncated { path, offset } => {
                write!(
                    f,
                    "{} is truncated mid-record at byte {offset} (writer was cut off)",
                    path.display()
                )
            }
            StreamError::MissingEnd { path } => {
                write!(
                    f,
                    "{} has no End record: the stream was not closed cleanly \
                     and frames may be missing off its tail",
                    path.display()
                )
            }
            StreamError::Corrupt {
                path,
                offset,
                detail,
            } => {
                write!(
                    f,
                    "{} is corrupt at byte {offset}: {detail}",
                    path.display()
                )
            }
            StreamError::MissingSegments {
                dir,
                stream,
                expected_seq,
            } => {
                write!(
                    f,
                    "stream {stream} in {} is missing segment {expected_seq} \
                     (aged out by retention or deleted); replay needs the \
                     stream contiguous from segment 0",
                    dir.display()
                )
            }
            StreamError::NoSuchStream { dir, stream } => {
                write!(f, "no segments for stream {stream} in {}", dir.display())
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StreamError {
    fn io(path: &Path, source: std::io::Error) -> Self {
        StreamError::Io {
            path: path.to_path_buf(),
            source,
        }
    }

    fn corrupt(path: PathBuf, offset: u64, detail: String) -> Self {
        StreamError::Corrupt {
            path,
            offset,
            detail,
        }
    }

    /// The error for what the record reader met in segment `path`.
    fn read(path: PathBuf, e: ReadError) -> Self {
        match e {
            ReadError::Cut(offset) => StreamError::Truncated { path, offset },
            ReadError::Ended => StreamError::MissingEnd { path },
            ReadError::NotAStream => StreamError::NotAStream { path },
            ReadError::UnknownVersion(version) => StreamError::UnknownVersion { path, version },
            ReadError::Corrupt { offset, detail } => StreamError::corrupt(path, offset, detail),
            ReadError::Io(source) => StreamError::Io { path, source },
        }
    }
}

/// Writes one stream as a sequence of rotating, retained segment files.
///
/// # Examples
///
/// ```
/// use lba_record::{SegmentReader, SegmentWriter, StreamConfig};
///
/// let dir = std::env::temp_dir().join(format!("lbas-doc-{}", std::process::id()));
/// let mut writer = SegmentWriter::create(&dir, 0, 1, StreamConfig::default())?;
/// let mut image = [0u8; 64]; // a sealed frame's wire image; first word = record count
/// image[0..4].copy_from_slice(&2u32.to_le_bytes());
/// writer.append(7, 2, &image)?;
/// let summary = writer.finish()?;
/// assert_eq!(summary.frames, 1);
///
/// let mut reader = SegmentReader::open(&dir, 0)?;
/// assert_eq!(reader.codec_version(), 1);
/// let frame = reader.next_frame()?.expect("one frame recorded");
/// assert_eq!((frame.timestamp, frame.records), (7, 2));
/// assert!(reader.next_frame()?.is_none(), "clean end of stream");
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), lba_record::StreamError>(())
/// ```
#[derive(Debug)]
pub struct SegmentWriter {
    dir: PathBuf,
    stream: u32,
    codec_version: u32,
    config: StreamConfig,
    /// Open segment (None only transiently and after `finish`).
    file: Option<BufWriter<File>>,
    seq: u32,
    segment_bytes: u64,
    segment_frames: u64,
    /// Closed segments still on disk, oldest first: `(seq, bytes)`.
    retained: VecDeque<(u32, u64)>,
    total_frames: u64,
    total_bytes: u64,
}

impl SegmentWriter {
    /// Creates the recording directory (if needed) and opens segment 0.
    ///
    /// `codec_version` is stamped into every segment header — pass the
    /// version of the codec that seals the frames being recorded (for the
    /// LBA pipeline, `lba_compress::CODEC_VERSION`).
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] when the directory or first segment cannot be
    /// created.
    pub fn create(
        dir: &Path,
        stream: u32,
        codec_version: u32,
        config: StreamConfig,
    ) -> Result<Self, StreamError> {
        fs::create_dir_all(dir).map_err(|e| StreamError::io(dir, e))?;
        let mut writer = SegmentWriter {
            dir: dir.to_path_buf(),
            stream,
            codec_version,
            config,
            file: None,
            seq: 0,
            segment_bytes: 0,
            segment_frames: 0,
            retained: VecDeque::new(),
            total_frames: 0,
            total_bytes: 0,
        };
        writer.open_segment()?;
        Ok(writer)
    }

    fn segment_path(&self, seq: u32) -> PathBuf {
        self.dir.join(segment_file_name(self.stream, seq))
    }

    fn open_segment(&mut self) -> Result<(), StreamError> {
        let path = self.segment_path(self.seq);
        let file = File::create(&path).map_err(|e| StreamError::io(&path, e))?;
        let mut file = BufWriter::new(file);
        let header = StreamHeader {
            codec_version: self.codec_version,
            stream: self.stream,
            word: self.seq,
        };
        file.write_all(&header.encode())
            .map_err(|e| StreamError::io(&path, e))?;
        self.file = Some(file);
        self.segment_bytes = SEGMENT_HEADER_BYTES as u64;
        self.segment_frames = 0;
        self.total_bytes += SEGMENT_HEADER_BYTES as u64;
        Ok(())
    }

    /// Writes the End record and closes the current segment file.
    fn close_segment(&mut self) -> Result<(), StreamError> {
        let path = self.segment_path(self.seq);
        let mut file = self.file.take().expect("segment open");
        file.write_all(&end_record(self.segment_frames))
            .map_err(|e| StreamError::io(&path, e))?;
        file.flush().map_err(|e| StreamError::io(&path, e))?;
        self.segment_bytes += END_RECORD_BYTES as u64;
        self.total_bytes += END_RECORD_BYTES as u64;
        self.retained.push_back((self.seq, self.segment_bytes));
        self.segment_bytes = 0; // now accounted under `retained`
        Ok(())
    }

    /// Deletes the oldest closed segments until the stream's on-disk bytes
    /// fit the retention cap (the open segment is never deleted).
    fn enforce_retention(&mut self) -> Result<(), StreamError> {
        while self.bytes_retained() > self.config.retain_bytes {
            let Some((seq, bytes)) = self.retained.pop_front() else {
                break; // only the open segment is left; nothing to delete
            };
            let path = self.segment_path(seq);
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) => {
                    self.retained.push_front((seq, bytes));
                    return Err(StreamError::io(&path, e));
                }
            }
        }
        Ok(())
    }

    /// Bytes currently on disk: closed segments plus the open one.
    #[must_use]
    pub fn bytes_retained(&self) -> u64 {
        self.retained.iter().map(|(_, b)| b).sum::<u64>() + self.segment_bytes
    }

    /// Appends one sealed frame's wire image, rotating and enforcing
    /// retention as configured.
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] when a write, rotation, or retention delete
    /// fails. After an error the writer is broken; drop it.
    ///
    /// # Panics
    ///
    /// Panics if called after [`finish`](Self::finish) (the writer is
    /// consumed by value there, so this requires unsafe shenanigans) or
    /// after a previous append error.
    pub fn append(
        &mut self,
        timestamp: u64,
        records: u32,
        frame: &[u8],
    ) -> Result<(), StreamError> {
        let record_bytes = (FRAME_RECORD_HEADER_BYTES + frame.len()) as u64;
        // Rotate when this frame would overflow the segment — unless the
        // segment is still empty (an oversized frame lands whole).
        if self.segment_frames > 0
            && self.segment_bytes + record_bytes + END_RECORD_BYTES as u64
                > self.config.segment_bytes
        {
            self.close_segment()?;
            self.seq += 1;
            self.open_segment()?;
        }
        let path = self.segment_path(self.seq);
        let file = self.file.as_mut().expect("segment open");
        let header = FrameRecordHeader::new(timestamp, records, frame);
        file.write_all(&header.encode())
            .and_then(|()| file.write_all(frame))
            .map_err(|e| StreamError::io(&path, e))?;
        self.segment_bytes += record_bytes;
        self.segment_frames += 1;
        self.total_bytes += record_bytes;
        self.total_frames += 1;
        self.enforce_retention()
    }

    /// Closes the stream cleanly: writes the final segment's End record
    /// and flushes it.
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] when the final write or flush fails.
    pub fn finish(mut self) -> Result<StreamSummary, StreamError> {
        self.close_segment()?;
        self.enforce_retention()?;
        Ok(StreamSummary {
            frames: self.total_frames,
            bytes_written: self.total_bytes,
            segments_retained: self.retained.len(),
            bytes_retained: self.retained.iter().map(|(_, b)| b).sum(),
        })
    }
}

/// Every segment file in `dir`, as sorted `(stream, seq)` pairs.
fn segments_in(dir: &Path) -> Result<Vec<(u32, u32)>, StreamError> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| StreamError::io(dir, e))? {
        let entry = entry.map_err(|e| StreamError::io(dir, e))?;
        found.extend(entry.file_name().to_str().and_then(parse_segment_file_name));
    }
    found.sort_unstable();
    Ok(found)
}

/// The stream ids with at least one segment in `dir`, ascending.
///
/// # Errors
///
/// [`StreamError::Io`] when the directory cannot be listed.
pub fn stream_ids(dir: &Path) -> Result<Vec<u32>, StreamError> {
    let mut ids: Vec<u32> = segments_in(dir)?.into_iter().map(|(s, _)| s).collect();
    ids.dedup();
    Ok(ids)
}

/// Payload bytes a frame record's claimed length may reserve before they
/// arrive: sealed frames are a few cache lines, so this covers every real
/// one, and a hostile length buys no more than this.
const PAYLOAD_RESERVE: usize = 64 << 10;

/// How the bytes of an `lbas/1` stream failed to read. Each carrier maps
/// it into its own error, which names the file or the peer.
#[derive(Debug)]
pub enum ReadError {
    /// The bytes ended inside the record (the header counts as one) that
    /// began at this byte offset.
    Cut(u64),
    /// The bytes ended between records, before an End record.
    Ended,
    /// The bytes do not open with the `lbas/` identifier.
    NotAStream,
    /// An `lbas/` stream of a format version this reader does not
    /// understand; carries the version string found after `lbas/`.
    UnknownVersion(String),
    /// A record is inconsistent (bad tag, checksum or record-count
    /// mismatch, End-count disagreement).
    Corrupt {
        /// Byte offset at which the record began.
        offset: u64,
        /// What exactly disagreed.
        detail: String,
    },
    /// The underlying read failed.
    Io(io::Error),
}

/// The one reader of `lbas/1` bytes, a segment file's or a socket
/// connection's, over any [`Read`] (give it a buffered one). It trusts
/// none of them: it checks every record, and a payload reserves at most
/// 64 KiB before its bytes arrive, so a length claiming 4 GiB costs no
/// more until 4 GiB do arrive.
#[derive(Debug)]
pub struct RecordReader<R> {
    inner: R,
    /// Bytes read so far: where the next record begins.
    offset: u64,
    /// Frame records read so far (checked against the End record).
    frames: u64,
    /// Whether the End record closed the stream.
    ended: bool,
}

impl<R: Read> RecordReader<R> {
    /// Reads and checks the 24-byte header opening the stream, and returns
    /// it with the reader at the first record.
    ///
    /// # Errors
    ///
    /// [`ReadError::NotAStream`] or [`ReadError::UnknownVersion`] when the
    /// bytes that arrived fail the identifier check (fewer than 8 always
    /// do), [`ReadError::Cut`] when they pass it but end inside the
    /// header, and [`ReadError::Io`] when the read fails.
    pub fn open(mut inner: R) -> Result<(StreamHeader, Self), ReadError> {
        let mut head = Vec::with_capacity(SEGMENT_HEADER_BYTES);
        (&mut inner)
            .take(SEGMENT_HEADER_BYTES as u64)
            .read_to_end(&mut head)
            .map_err(ReadError::Io)?;
        check_ident(&head)?;
        let head = head.first_chunk().ok_or(ReadError::Cut(0))?;
        let reader = RecordReader {
            inner,
            offset: SEGMENT_HEADER_BYTES as u64,
            frames: 0,
            ended: false,
        };
        Ok((StreamHeader::decode(head), reader))
    }

    /// Frame records read so far.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// The underlying reader, for what a carrier does beside the records.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Fills `buf`, or fails with `short` when the bytes end first.
    fn read_exact(&mut self, buf: &mut [u8], short: ReadError) -> Result<(), ReadError> {
        self.inner.read_exact(buf).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => short,
            _ => ReadError::Io(e),
        })?;
        self.offset += buf.len() as u64;
        Ok(())
    }

    /// The next frame record, checked against its checksum and its image's
    /// count word, or `Ok(None)` once an End record whose count matches
    /// the frames read has closed the stream.
    ///
    /// # Errors
    ///
    /// [`ReadError::Ended`] when the bytes end before an End record,
    /// [`ReadError::Cut`] when they end inside a record,
    /// [`ReadError::Corrupt`] for an inconsistent record, and
    /// [`ReadError::Io`] when the read fails.
    pub fn next_frame(&mut self) -> Result<Option<StreamFrame>, ReadError> {
        if self.ended {
            return Ok(None);
        }
        let start = self.offset;
        let corrupt = |detail| ReadError::Corrupt {
            offset: start,
            detail,
        };
        let mut tag = [0u8; 1];
        self.read_exact(&mut tag, ReadError::Ended)?;
        match tag[0] {
            TAG_FRAME => {
                let mut fields = [0u8; FRAME_RECORD_HEADER_BYTES - 1];
                self.read_exact(&mut fields, ReadError::Cut(start))?;
                let header = FrameRecordHeader::decode(&fields);
                // The length is the writer's claim: past the reserve, the
                // buffer grows only as bytes arrive.
                let mut payload = Vec::with_capacity((header.len as usize).min(PAYLOAD_RESERVE));
                (&mut self.inner)
                    .take(u64::from(header.len))
                    .read_to_end(&mut payload)
                    .map_err(ReadError::Io)?;
                self.offset += payload.len() as u64;
                if payload.len() < header.len as usize {
                    return Err(ReadError::Cut(start));
                }
                header.verify(&payload).map_err(corrupt)?;
                self.frames += 1;
                Ok(Some(StreamFrame {
                    timestamp: header.timestamp,
                    records: header.records,
                    bytes: payload,
                }))
            }
            TAG_END => {
                let mut count = [0u8; 8];
                self.read_exact(&mut count, ReadError::Cut(start))?;
                let (count, seen) = (u64::from_le_bytes(count), self.frames);
                if count != seen {
                    return Err(corrupt(format!(
                        "End record says {count} frames, {seen} arrived"
                    )));
                }
                self.ended = true;
                Ok(None)
            }
            other => Err(corrupt(format!("unknown record tag {other:#04x}"))),
        }
    }
}

/// One segment file, opened and its header checked against its name.
#[derive(Debug)]
struct Segment {
    path: PathBuf,
    records: RecordReader<BufReader<File>>,
    codec_version: u32,
}

impl Segment {
    fn open(dir: &Path, stream: u32, seq: u32) -> Result<Self, StreamError> {
        let path = dir.join(segment_file_name(stream, seq));
        let file = File::open(&path).map_err(|e| StreamError::io(&path, e))?;
        let (header, records) = match RecordReader::open(BufReader::new(file)) {
            Ok(opened) => opened,
            Err(e) => return Err(StreamError::read(path, e)),
        };
        if (header.stream, header.word) != (stream, seq) {
            let detail = format!(
                "header says stream {} segment {}, file name says stream {stream} segment {seq}",
                header.stream, header.word
            );
            return Err(StreamError::corrupt(path, 8, detail));
        }
        Ok(Segment {
            path,
            records,
            codec_version: header.codec_version,
        })
    }
}

/// Reads one stream's segments back in sequence order, yielding frames
/// until the clean end of the final segment. Each segment streams through
/// a [`RecordReader`].
#[derive(Debug)]
pub struct SegmentReader {
    dir: PathBuf,
    stream: u32,
    /// Sequence numbers of the segments still to open.
    next_seqs: RangeInclusive<u32>,
    /// The segment being read. Its codec is the stream's: the first
    /// segment's, which every later one must repeat.
    segment: Segment,
}

impl SegmentReader {
    /// Opens stream `stream` inside recording directory `dir`, validating
    /// that its segments are contiguous from sequence 0 and that the first
    /// segment's header is well-formed.
    ///
    /// # Errors
    ///
    /// [`StreamError::NoSuchStream`] when no segment of this stream
    /// exists, [`StreamError::MissingSegments`] when the stream does not
    /// start at sequence 0 or has a gap, plus any header-validation error
    /// from the first segment.
    pub fn open(dir: &Path, stream: u32) -> Result<Self, StreamError> {
        let seqs: Vec<u32> = (segments_in(dir)?.into_iter())
            .filter_map(|(s, seq)| (s == stream).then_some(seq))
            .collect();
        let Some(&last) = seqs.last() else {
            return Err(StreamError::NoSuchStream {
                dir: dir.to_path_buf(),
                stream,
            });
        };
        if let Some((expected_seq, _)) = (0..).zip(&seqs).find(|(want, got)| want != *got) {
            return Err(StreamError::MissingSegments {
                dir: dir.to_path_buf(),
                stream,
                expected_seq,
            });
        }
        Ok(SegmentReader {
            dir: dir.to_path_buf(),
            stream,
            next_seqs: 1..=last,
            segment: Segment::open(dir, stream, 0)?,
        })
    }

    /// The codec version stamped in the stream's segment headers.
    #[must_use]
    pub fn codec_version(&self) -> u32 {
        self.segment.codec_version
    }

    /// The next recorded frame, in seal order across segments, or
    /// `Ok(None)` at the clean end of the stream.
    ///
    /// # Errors
    ///
    /// [`StreamError::Truncated`] when a segment ends mid-record,
    /// [`StreamError::MissingEnd`] when it ends without an End record,
    /// and [`StreamError::Corrupt`] for checksum, tag, or count
    /// inconsistencies.
    pub fn next_frame(&mut self) -> Result<Option<StreamFrame>, StreamError> {
        loop {
            let Segment { path, records, .. } = &mut self.segment;
            match records.next_frame() {
                Ok(Some(frame)) => return Ok(Some(frame)),
                Ok(None) => {}
                Err(e) => return Err(StreamError::read(path.clone(), e)),
            }
            // The End record closes its segment: nothing may follow it.
            let end = records.offset - END_RECORD_BYTES as u64;
            let after = records.get_mut().fill_buf();
            if !after.map_err(|e| StreamError::io(path, e))?.is_empty() {
                let detail = "data after the End record".to_string();
                return Err(StreamError::corrupt(path.clone(), end, detail));
            }
            let Some(seq) = self.next_seqs.next() else {
                return Ok(None);
            };
            let segment = Segment::open(&self.dir, self.stream, seq)?;
            // The first segment set the stream's codec; every later one
            // must agree with it, or its frames would reach a decoder of
            // the wrong version.
            let codec = self.segment.codec_version;
            if segment.codec_version != codec {
                let detail = format!(
                    "segment codec version {} differs from the stream's {codec}",
                    segment.codec_version
                );
                return Err(StreamError::corrupt(segment.path, 8, detail));
            }
            self.segment = segment;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "lbas-test-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A fake sealed frame image: record count embedded in the first word,
    /// line-padded length like the real codec produces.
    fn frame_image(records: u32, lines: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; lines * 64];
        bytes[0..4].copy_from_slice(&records.to_le_bytes());
        bytes[8] = 0xAB; // some payload
        bytes
    }

    #[test]
    fn round_trips_frames_across_rotated_segments() {
        let dir = temp_dir("roundtrip");
        let config = StreamConfig {
            segment_bytes: 256, // tiny: forces rotation every couple frames
            retain_bytes: u64::MAX,
        };
        let mut writer = SegmentWriter::create(&dir, 3, 2, config).unwrap();
        let frames: Vec<_> = (0..10u32).map(|i| (u64::from(i) * 100, i + 1)).collect();
        for &(ts, recs) in &frames {
            writer.append(ts, recs, &frame_image(recs, 1)).unwrap();
        }
        let summary = writer.finish().unwrap();
        assert_eq!(summary.frames, 10);
        assert!(summary.segments_retained > 1, "tiny segments must rotate");

        assert_eq!(stream_ids(&dir).unwrap(), vec![3]);
        let mut reader = SegmentReader::open(&dir, 3).unwrap();
        assert_eq!(reader.codec_version(), 2);
        for &(ts, recs) in &frames {
            let frame = reader.next_frame().unwrap().expect("frame present");
            assert_eq!((frame.timestamp, frame.records), (ts, recs));
            assert_eq!(frame.bytes, frame_image(recs, 1));
        }
        assert!(reader.next_frame().unwrap().is_none(), "clean end");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_cap_bounds_disk_and_reader_reports_aged_out_start() {
        let dir = temp_dir("retention");
        let config = StreamConfig {
            segment_bytes: 256,
            retain_bytes: 600,
        };
        let mut writer = SegmentWriter::create(&dir, 0, 1, config).unwrap();
        for i in 0..50u32 {
            writer.append(u64::from(i), 1, &frame_image(1, 1)).unwrap();
            assert!(
                writer.bytes_retained() <= 600,
                "retention must bound disk during the run: {} B",
                writer.bytes_retained()
            );
        }
        let summary = writer.finish().unwrap();
        assert!(summary.bytes_retained <= 600);
        assert!(summary.bytes_written > 600, "more was written than kept");

        // The on-disk files agree with the summary's accounting.
        let on_disk: u64 = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        assert_eq!(on_disk, summary.bytes_retained);

        // Replay from the middle is impossible (predictor state): the
        // reader says so instead of decoding garbage.
        let err = SegmentReader::open(&dir, 0).unwrap_err();
        assert!(
            matches!(
                err,
                StreamError::MissingSegments {
                    expected_seq: 0,
                    ..
                }
            ),
            "got: {err}"
        );
        assert!(err.to_string().contains("contiguous from segment 0"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_segment_is_a_descriptive_error() {
        let dir = temp_dir("truncated");
        let mut writer = SegmentWriter::create(&dir, 0, 1, StreamConfig::default()).unwrap();
        writer.append(1, 2, &frame_image(2, 2)).unwrap();
        writer.finish().unwrap();
        let path = dir.join(segment_file_name(0, 0));
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 30); // cut mid-frame-record
        fs::write(&path, &bytes).unwrap();

        let mut reader = SegmentReader::open(&dir, 0).unwrap();
        let err = reader.next_frame().unwrap_err();
        assert!(matches!(err, StreamError::Truncated { .. }), "got: {err}");
        assert!(err.to_string().contains("truncated mid-record"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_end_record_is_a_descriptive_error() {
        let dir = temp_dir("noend");
        let mut writer = SegmentWriter::create(&dir, 0, 1, StreamConfig::default()).unwrap();
        writer.append(1, 2, &frame_image(2, 1)).unwrap();
        writer.finish().unwrap();
        let path = dir.join(segment_file_name(0, 0));
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - END_RECORD_BYTES);
        fs::write(&path, &bytes).unwrap();

        let mut reader = SegmentReader::open(&dir, 0).unwrap();
        let frame = reader.next_frame().unwrap().expect("frame still intact");
        assert_eq!(frame.records, 2);
        let err = reader.next_frame().unwrap_err();
        assert!(matches!(err, StreamError::MissingEnd { .. }), "got: {err}");
        assert!(err.to_string().contains("not closed cleanly"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_format_version_is_a_descriptive_error() {
        let dir = temp_dir("version");
        let mut writer = SegmentWriter::create(&dir, 0, 1, StreamConfig::default()).unwrap();
        writer.append(1, 1, &frame_image(1, 1)).unwrap();
        writer.finish().unwrap();
        let path = dir.join(segment_file_name(0, 0));
        let mut bytes = fs::read(&path).unwrap();
        bytes[5] = b'9'; // lbas/9
        fs::write(&path, &bytes).unwrap();

        let err = SegmentReader::open(&dir, 0).unwrap_err();
        assert!(
            matches!(&err, StreamError::UnknownVersion { version, .. } if version == "9"),
            "got: {err}"
        );
        assert!(err.to_string().contains("lbas/9"));

        // And a non-stream file is told apart from a future version.
        fs::write(&path, b"totally not a stream").unwrap();
        let err = SegmentReader::open(&dir, 0).unwrap_err();
        assert!(matches!(err, StreamError::NotAStream { .. }), "got: {err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_later_segment_with_another_codec_is_corrupt() {
        let dir = temp_dir("codec-skew");
        let config = StreamConfig {
            segment_bytes: 128, // one frame per segment
            retain_bytes: u64::MAX,
        };
        let mut writer = SegmentWriter::create(&dir, 0, 4, config).unwrap();
        for i in 0..6u64 {
            writer.append(i, 1, &frame_image(1, 1)).unwrap();
        }
        assert_eq!(writer.finish().unwrap().segments_retained, 6);
        let path = dir.join(segment_file_name(0, 1));
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&999u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();

        let mut reader = SegmentReader::open(&dir, 0).unwrap();
        assert_eq!(reader.codec_version(), 4);
        reader.next_frame().unwrap().expect("segment 0 is intact");
        let err = reader.next_frame().unwrap_err();
        assert!(
            matches!(&err, StreamError::Corrupt { path: p, offset: 8, .. } if *p == path),
            "got: {err}"
        );
        assert!(err.to_string().contains("codec version 999"), "got: {err}");
        assert_eq!(reader.codec_version(), 4, "the stream's codec stands");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_frame_corruption_is_a_descriptive_error() {
        let dir = temp_dir("corrupt");
        let mut writer = SegmentWriter::create(&dir, 0, 1, StreamConfig::default()).unwrap();
        writer.append(1, 4, &frame_image(4, 2)).unwrap();
        writer.finish().unwrap();
        let path = dir.join(segment_file_name(0, 0));
        let mut bytes = fs::read(&path).unwrap();
        let flip = SEGMENT_HEADER_BYTES + FRAME_RECORD_HEADER_BYTES + 40;
        bytes[flip] ^= 0xFF; // flip one payload byte
        fs::write(&path, &bytes).unwrap();

        let mut reader = SegmentReader::open(&dir, 0).unwrap();
        let err = reader.next_frame().unwrap_err();
        assert!(matches!(err, StreamError::Corrupt { .. }), "got: {err}");
        assert!(err.to_string().contains("checksum mismatch"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_record_frame_count_is_verified() {
        let dir = temp_dir("endcount");
        let mut writer = SegmentWriter::create(&dir, 0, 1, StreamConfig::default()).unwrap();
        writer.append(1, 1, &frame_image(1, 1)).unwrap();
        writer.append(2, 1, &frame_image(1, 1)).unwrap();
        writer.finish().unwrap();
        let path = dir.join(segment_file_name(0, 0));
        let mut bytes = fs::read(&path).unwrap();
        let end_count_at = bytes.len() - 8;
        bytes[end_count_at] = 9; // claim 9 frames
        fs::write(&path, &bytes).unwrap();

        let mut reader = SegmentReader::open(&dir, 0).unwrap();
        reader.next_frame().unwrap();
        reader.next_frame().unwrap();
        let err = reader.next_frame().unwrap_err();
        assert!(matches!(err, StreamError::Corrupt { .. }), "got: {err}");
        assert!(err.to_string().contains("End record says 9"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn data_after_the_end_record_is_corrupt() {
        let dir = temp_dir("trailing");
        let mut writer = SegmentWriter::create(&dir, 0, 1, StreamConfig::default()).unwrap();
        writer.append(1, 1, &frame_image(1, 1)).unwrap();
        writer.finish().unwrap();
        let path = dir.join(segment_file_name(0, 0));
        let mut bytes = fs::read(&path).unwrap();
        let end_at = (bytes.len() - END_RECORD_BYTES) as u64;
        bytes.push(0);
        fs::write(&path, &bytes).unwrap();

        let mut reader = SegmentReader::open(&dir, 0).unwrap();
        reader.next_frame().unwrap().expect("the frame is intact");
        let err = reader.next_frame().unwrap_err();
        assert!(
            matches!(err, StreamError::Corrupt { offset, .. } if offset == end_at),
            "got: {err}"
        );
        assert!(err.to_string().contains("data after the End record"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_frame_lands_whole() {
        let dir = temp_dir("oversized");
        let config = StreamConfig {
            segment_bytes: 128,
            retain_bytes: u64::MAX,
        };
        let mut writer = SegmentWriter::create(&dir, 0, 1, config).unwrap();
        // 4 lines = 256 B > the 128 B segment budget.
        writer.append(1, 7, &frame_image(7, 4)).unwrap();
        writer.finish().unwrap();
        let mut reader = SegmentReader::open(&dir, 0).unwrap();
        let frame = reader.next_frame().unwrap().expect("oversized frame kept");
        assert_eq!(frame.bytes.len(), 256);
        assert!(reader.next_frame().unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_stream_round_trips() {
        let dir = temp_dir("empty");
        let writer = SegmentWriter::create(&dir, 0, 1, StreamConfig::default()).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.frames, 0);
        let mut reader = SegmentReader::open(&dir, 0).unwrap();
        assert!(reader.next_frame().unwrap().is_none());
        // A stream id that was never recorded is its own error.
        let err = SegmentReader::open(&dir, 7).unwrap_err();
        assert!(matches!(err, StreamError::NoSuchStream { stream: 7, .. }));
        fs::remove_dir_all(&dir).ok();
    }
}
