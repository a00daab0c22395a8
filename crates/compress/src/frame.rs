//! Chunked (framed) encoding of the compressed log stream.
//!
//! The paper ships the log through the cache hierarchy, so the transport
//! unit is not a record but a *cache-line multiple*: the capture hardware
//! accumulates compressed records and writes whole lines. This module
//! packages the streaming codec ([`LogCompressor`]/[`LogDecompressor`])
//! into self-contained frames that both transport implementations (the
//! deterministic timing model and the live SPSC channel) can ship as
//! opaque byte buffers.
//!
//! # Wire format
//!
//! ```text
//! ┌───────────────┬───────────────┬──────────────────┬─────────────┐
//! │ record count  │ payload bytes │ payload           │ zero padding│
//! │ u32 LE        │ u32 LE        │ (compressed bits  │ to a 64 B   │
//! │               │               │  or raw records)  │ multiple    │
//! └───────────────┴───────────────┴──────────────────┴─────────────┘
//! ```
//!
//! The record-count word is a [`FrameCountWord`]: the count in the low
//! 30 bits, the degraded-capture mark in bit 30. Every frame's total
//! length is a multiple of [`FRAME_LINE_BYTES`]; the minimum frame is one
//! line.
//!
//! # Predictor-state policy
//!
//! Predictor state (PC successor tables, per-PC address predictors, FCM)
//! is **carried across frames**: a frame is decodable given the stream
//! prefix — the decoder must have consumed frames 0..n in order before
//! frame n+1. Only the *bit alignment* resets at a frame boundary: each
//! frame's payload starts byte-aligned with a fresh bit stream, and the
//! padding bits after its last record are discarded. Carrying state keeps
//! the compression ratio intact (a reset would re-pay every cold-predictor
//! miss each frame); the prefix requirement is exactly what an in-order
//! log transport guarantees.

use std::fmt;

use lba_record::{DecodeRecordError, EventRecord, FrameCountWord, RAW_RECORD_BYTES};

use crate::bits::{BitReader, BitWriter};
use crate::compressor::{DecodeStreamError, LogCompressor, LogDecompressor};

/// Frame granularity: every frame is a multiple of one 64-byte cache line.
pub const FRAME_LINE_BYTES: usize = 64;

/// Bytes of frame header (record count + payload length, both `u32` LE).
pub const FRAME_HEADER_BYTES: usize = 8;

/// Configuration shared by [`FrameEncoder`] and [`FrameDecoder`].
///
/// Both ends of a channel must agree on `compress`. The count of each
/// frame travels in its header, so `records_per_frame` is where the
/// encoder seals and, for the decoder, the most records a frame may
/// claim: a larger count is refused before anything is allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameConfig {
    /// Records per sealed frame (a frame seals early on [`FrameEncoder::flush`]).
    pub records_per_frame: usize,
    /// `true`: VPC-compressed payload; `false`: raw 25-byte records.
    pub compress: bool,
}

impl FrameConfig {
    /// Nominal wire size of one sealed full frame under this configuration:
    /// header plus `records_per_frame` raw-encoded records, padded to the
    /// cache-line multiple. Compression typically shrinks the payload well
    /// below this, so the figure serves as the budget-to-frame-count
    /// conversion (e.g. turning a byte budget into a live queue depth), not
    /// as a hard per-frame bound.
    #[must_use]
    pub fn nominal_wire_bytes(&self) -> usize {
        let unpadded = FRAME_HEADER_BYTES + self.records_per_frame * RAW_RECORD_BYTES;
        unpadded.div_ceil(FRAME_LINE_BYTES) * FRAME_LINE_BYTES
    }
}

impl Default for FrameConfig {
    fn default() -> Self {
        FrameConfig {
            records_per_frame: 256,
            compress: true,
        }
    }
}

/// One sealed frame: an opaque, self-delimiting wire buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Number of records carried.
    pub records: u32,
    /// The wire image: header + payload + padding (length a multiple of
    /// [`FRAME_LINE_BYTES`]).
    pub bytes: Vec<u8>,
    /// Payload bits before framing (excludes header and padding).
    pub payload_bits: u64,
    /// Whether this frame was sealed while degraded capture was engaged
    /// (see [`FrameEncoder::set_degraded`]). Degraded spans thereby ride
    /// the wire, and the flight recorder, frame-accurately, so offline
    /// replay can report them without any side channel. Carried on the
    /// wire as the [`FrameCountWord`]'s degraded mark.
    pub degraded: bool,
}

impl Frame {
    /// Total bits on the wire, padding included.
    #[must_use]
    pub fn wire_bits(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    /// Reads the record count straight from a frame's wire image, the
    /// degraded mark masked off, without decoding the payload (0 for an
    /// image too short to hold the count) — what a receiver counts before
    /// it decodes.
    #[must_use]
    pub fn header_records(bytes: &[u8]) -> u32 {
        FrameCountWord::read(bytes).map_or(0, |word| word.records)
    }

    /// Reads the degraded-capture mark straight from a frame's wire
    /// image, without decoding the payload (false for an image too short
    /// to hold the count) — what a receiver counts as a degraded frame,
    /// so a replay reports the degraded spans its recording carries.
    #[must_use]
    pub fn header_degraded(bytes: &[u8]) -> bool {
        FrameCountWord::read(bytes).is_some_and(|word| word.degraded)
    }

    /// Cache lines this frame occupies in transit.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.bytes.len() as u64 / FRAME_LINE_BYTES as u64
    }
}

/// Error produced when parsing or decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameDecodeError {
    /// The buffer is shorter than a header or its declared payload.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The frame length is not a multiple of [`FRAME_LINE_BYTES`].
    Misaligned {
        /// The offending length.
        len: usize,
    },
    /// The header claims more records than its payload can hold (every
    /// compressed record costs at least one bit, every raw record
    /// [`RAW_RECORD_BYTES`]) or than the stream's
    /// [`FrameConfig::records_per_frame`], past which no encoder seals.
    /// Rejected before anything is allocated.
    TooManyRecords {
        /// Records the header claims.
        records: u32,
        /// The most records the frame can hold.
        max: usize,
    },
    /// The compressed payload failed to decode.
    Codec(DecodeStreamError),
    /// A raw-mode record failed to decode.
    RawRecord(DecodeRecordError),
}

impl fmt::Display for FrameDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameDecodeError::Truncated { need, have } => {
                write!(f, "frame truncated: need {need} bytes, have {have}")
            }
            FrameDecodeError::Misaligned { len } => {
                write!(
                    f,
                    "frame length {len} is not a multiple of {FRAME_LINE_BYTES}"
                )
            }
            FrameDecodeError::TooManyRecords { records, max } => write!(
                f,
                "frame header claims {records} records, but the frame holds at most {max}"
            ),
            FrameDecodeError::Codec(e) => write!(f, "frame payload: {e}"),
            FrameDecodeError::RawRecord(e) => write!(f, "raw frame payload: {e}"),
        }
    }
}

impl std::error::Error for FrameDecodeError {}

/// Accumulates records into cache-line-multiple frames.
///
/// Wraps [`LogCompressor`] + [`BitWriter`] (or the raw record encoding when
/// `compress` is off). [`push`](FrameEncoder::push) seals and returns a
/// frame every `records_per_frame` records; [`flush`](FrameEncoder::flush)
/// seals a partial frame early — the transports call it at syscalls (so the
/// containment drain sees every preceding record) and at end of program.
///
/// # Examples
///
/// ```
/// use lba_compress::{FrameConfig, FrameDecoder, FrameEncoder};
/// use lba_record::EventRecord;
///
/// let config = FrameConfig { records_per_frame: 4, compress: true };
/// let mut enc = FrameEncoder::new(config);
/// let mut frames = Vec::new();
/// for i in 0..10u64 {
///     let rec = EventRecord::load(0x1000, 0, Some(1), None, 0x4000_0000 + 8 * i, 8);
///     frames.extend(enc.push(&rec)); // seals after records 4 and 8
/// }
/// frames.extend(enc.flush()); // seals the partial frame of 2
/// assert_eq!(frames.len(), 3);
///
/// let mut dec = FrameDecoder::new(config);
/// let mut out = Vec::new();
/// for frame in &frames {
///     dec.decode_frame(&frame.bytes, &mut out).unwrap();
/// }
/// assert_eq!(out.len(), 10);
/// ```
#[derive(Debug)]
pub struct FrameEncoder {
    config: FrameConfig,
    compressor: LogCompressor,
    writer: BitWriter,
    raw: Vec<u8>,
    pending: u32,
    degraded: bool,
    /// Spent wire buffer donated via [`recycle`](Self::recycle), reused by
    /// the next seal to avoid an allocation per frame.
    scratch: Vec<u8>,
}

impl FrameEncoder {
    /// Creates an encoder with cold predictors.
    ///
    /// # Panics
    ///
    /// Panics if `config.records_per_frame` is zero or more than a
    /// [`FrameCountWord`] can count.
    #[must_use]
    pub fn new(config: FrameConfig) -> Self {
        assert!(
            (1..=FrameCountWord::MAX_RECORDS as usize).contains(&config.records_per_frame),
            "records_per_frame must be non-zero and fit the frame count word"
        );
        let mut enc = FrameEncoder {
            config,
            compressor: LogCompressor::new(),
            writer: BitWriter::new(),
            raw: Vec::new(),
            pending: 0,
            degraded: false,
            scratch: Vec::new(),
        };
        enc.begin_frame();
        enc
    }

    /// Reserves the header placeholder at the front of the next frame's
    /// buffer, so the payload is encoded in place and sealing never copies
    /// it.
    fn begin_frame(&mut self) {
        if self.config.compress {
            self.writer.write_bits(0, FRAME_HEADER_BYTES as u32 * 8);
        } else {
            self.raw.extend_from_slice(&[0u8; FRAME_HEADER_BYTES]);
        }
    }

    /// Donates a spent wire buffer (a consumed [`Frame::bytes`]) for reuse
    /// by the next sealed frame, sparing an allocation per frame.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.scratch = buf;
    }

    /// Appends one record; returns the sealed frame when this record
    /// completes one.
    pub fn push(&mut self, record: &EventRecord) -> Option<Frame> {
        if self.config.compress {
            self.compressor.encode(record, &mut self.writer);
        } else {
            self.raw.extend_from_slice(&record.encode_raw());
        }
        self.pending += 1;
        (self.pending as usize >= self.config.records_per_frame).then(|| self.seal())
    }

    /// Seals the current partial frame, if any records are pending.
    pub fn flush(&mut self) -> Option<Frame> {
        (self.pending > 0).then(|| self.seal())
    }

    /// Marks frames sealed from now on as carrying degraded capture (the
    /// wire-level [`Frame::header_degraded`] bit). Callers flush the open
    /// frame *before* toggling, so the mark is frame-accurate: a frame is
    /// marked iff every record in it was captured while degraded.
    pub fn set_degraded(&mut self, on: bool) {
        self.degraded = on;
    }

    fn seal(&mut self) -> Frame {
        let records = self.pending;
        self.pending = 0;

        // The buffer already holds [header placeholder | payload]: swap it
        // out whole (recycling the donated scratch buffer), patch the
        // header, and pad — the payload itself is never copied.
        let (mut bytes, payload_bits) = if self.config.compress {
            // Swapping pads the payload to a byte: take its exact bit
            // count, less the header placeholder, first.
            let payload_bits = self.writer.len_bits() - FRAME_HEADER_BYTES as u64 * 8;
            let bytes = self.writer.swap_bytes(std::mem::take(&mut self.scratch));
            (bytes, payload_bits)
        } else {
            let mut next = std::mem::take(&mut self.scratch);
            next.clear();
            let bytes = std::mem::replace(&mut self.raw, next);
            let payload_bits = (bytes.len() - FRAME_HEADER_BYTES) as u64 * 8;
            (bytes, payload_bits)
        };
        let payload_len = bytes.len() - FRAME_HEADER_BYTES;
        let word = FrameCountWord {
            records,
            degraded: self.degraded,
        };
        bytes[0..4].copy_from_slice(&word.encode());
        bytes[4..8].copy_from_slice(&(payload_len as u32).to_le_bytes());
        let padded = bytes.len().div_ceil(FRAME_LINE_BYTES) * FRAME_LINE_BYTES;
        bytes.resize(padded, 0);
        self.begin_frame();

        Frame {
            records,
            bytes,
            payload_bits,
            degraded: self.degraded,
        }
    }
}

/// Mirrors [`FrameEncoder`]: consumes frame byte buffers in stream order
/// and reproduces the record sequence.
#[derive(Debug)]
pub struct FrameDecoder {
    config: FrameConfig,
    decompressor: LogDecompressor,
}

impl FrameDecoder {
    /// Creates a decoder with cold predictors (pair it with a fresh
    /// [`FrameEncoder`] of the same `compress` setting).
    #[must_use]
    pub fn new(config: FrameConfig) -> Self {
        FrameDecoder {
            config,
            decompressor: LogDecompressor::new(),
        }
    }

    /// Decodes one frame, appending its records to `out`; returns the
    /// record count.
    ///
    /// Frames must arrive in the order they were sealed (the predictor
    /// state carries across frames; see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`FrameDecodeError`] on a truncated, misaligned, or corrupt
    /// frame, and on a header claiming more records than the payload can
    /// hold or than `records_per_frame` (the count is untrusted input: it
    /// bounds the reservation only after this check).
    pub fn decode_frame(
        &mut self,
        bytes: &[u8],
        out: &mut Vec<EventRecord>,
    ) -> Result<u32, FrameDecodeError> {
        if bytes.len() < FRAME_HEADER_BYTES {
            return Err(FrameDecodeError::Truncated {
                need: FRAME_HEADER_BYTES,
                have: bytes.len(),
            });
        }
        if !bytes.len().is_multiple_of(FRAME_LINE_BYTES) {
            return Err(FrameDecodeError::Misaligned { len: bytes.len() });
        }
        let records = Frame::header_records(bytes);
        let payload_len = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
        let need = FRAME_HEADER_BYTES + payload_len;
        if bytes.len() < need {
            return Err(FrameDecodeError::Truncated {
                need,
                have: bytes.len(),
            });
        }
        let payload = &bytes[FRAME_HEADER_BYTES..need];
        let payload_max = if self.config.compress {
            payload_len * 8
        } else {
            payload_len / RAW_RECORD_BYTES
        };
        let max = payload_max.min(self.config.records_per_frame);
        if records as usize > max {
            return Err(FrameDecodeError::TooManyRecords { records, max });
        }

        if self.config.compress {
            let mut reader = BitReader::new(payload);
            out.reserve(records as usize);
            for _ in 0..records {
                out.push(
                    self.decompressor
                        .decode(&mut reader)
                        .map_err(FrameDecodeError::Codec)?,
                );
            }
        } else {
            if payload_len != records as usize * RAW_RECORD_BYTES {
                return Err(FrameDecodeError::Truncated {
                    need: FRAME_HEADER_BYTES + records as usize * RAW_RECORD_BYTES,
                    have: bytes.len(),
                });
            }
            for chunk in payload.chunks_exact(RAW_RECORD_BYTES) {
                let raw: &[u8; RAW_RECORD_BYTES] = chunk.try_into().expect("exact chunk");
                out.push(EventRecord::decode_raw(raw).map_err(FrameDecodeError::RawRecord)?);
            }
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lba_record::EventKind;

    fn stream(n: u64) -> Vec<EventRecord> {
        let mut out = Vec::new();
        for i in 0..n {
            out.push(EventRecord::alu(0x1000, 0, Some(1), Some(2), Some(1)));
            out.push(EventRecord::load(
                0x1008,
                0,
                Some(3),
                None,
                0x4000_0000 + i * 8,
                8,
            ));
        }
        out
    }

    fn round_trip(config: FrameConfig, records: &[EventRecord], flush_every: Option<usize>) {
        let mut enc = FrameEncoder::new(config);
        let mut frames = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            frames.extend(enc.push(rec));
            if flush_every.is_some_and(|k| (i + 1) % k == 0) {
                frames.extend(enc.flush());
            }
        }
        frames.extend(enc.flush());

        let mut dec = FrameDecoder::new(config);
        let mut out = Vec::new();
        for frame in &frames {
            assert_eq!(
                frame.bytes.len() % FRAME_LINE_BYTES,
                0,
                "line-multiple frames"
            );
            let n = dec
                .decode_frame(&frame.bytes, &mut out)
                .expect("frame decodes");
            assert_eq!(n, frame.records);
        }
        assert_eq!(out, records);
    }

    #[test]
    fn compressed_frames_round_trip() {
        round_trip(FrameConfig::default(), &stream(500), None);
    }

    #[test]
    fn raw_frames_round_trip() {
        round_trip(
            FrameConfig {
                records_per_frame: 64,
                compress: false,
            },
            &stream(300),
            None,
        );
    }

    #[test]
    fn flush_boundaries_preserve_the_stream() {
        for flush_every in [1, 3, 7, 50] {
            round_trip(
                FrameConfig {
                    records_per_frame: 16,
                    compress: true,
                },
                &stream(100),
                Some(flush_every),
            );
        }
    }

    #[test]
    fn predictor_state_carries_across_frames() {
        // A strided load stream stays cheap even with tiny frames: the
        // stride predictor is not reset at frame boundaries.
        let records: Vec<EventRecord> = (0..1000u64)
            .map(|i| EventRecord::load(0x1000, 0, Some(1), None, 0x4000_0000 + i * 8, 8))
            .collect();
        let mut enc = FrameEncoder::new(FrameConfig {
            records_per_frame: 8,
            compress: true,
        });
        let mut frames: Vec<Frame> = records.iter().filter_map(|rec| enc.push(rec)).collect();
        frames.extend(enc.flush());
        let sealed: u64 = frames.iter().map(|f| u64::from(f.records)).sum();
        assert_eq!(sealed, 1000);
        // Payload (not wire) cost must match the unframed compressor: well
        // under a byte per record on this stream.
        let bits_per_record = frames.iter().map(|f| f.payload_bits).sum::<u64>() / sealed;
        assert!(
            bits_per_record < 8,
            "carried predictors should keep the stream < 1 B/record, got {bits_per_record} bits/record"
        );
    }

    #[test]
    fn wire_accounting_includes_header_and_padding() {
        let mut enc = FrameEncoder::new(FrameConfig {
            records_per_frame: 4,
            compress: true,
        });
        for rec in stream(1) {
            enc.push(&rec);
        }
        let frame = enc.flush().expect("partial frame seals");
        assert_eq!(frame.records, 2);
        assert_eq!(
            frame.bytes.len(),
            FRAME_LINE_BYTES,
            "tiny frame pads to one line"
        );
        assert_eq!(frame.lines(), 1);
        assert!(frame.payload_bits < frame.wire_bits());
        assert_eq!(frame.wire_bits(), FRAME_LINE_BYTES as u64 * 8);
    }

    #[test]
    fn degraded_marks_ride_the_header_and_round_trip() {
        let config = FrameConfig {
            records_per_frame: 4,
            compress: true,
        };
        let mut enc = FrameEncoder::new(config);
        let records = stream(6); // 12 records
        let mut frames = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            // Engage over records 4..8, flushing at each transition the
            // way the capture controller does.
            if i == 4 || i == 8 {
                frames.extend(enc.flush());
                enc.set_degraded(i == 4);
            }
            frames.extend(enc.push(rec));
        }
        frames.extend(enc.flush());
        let marks: Vec<bool> = frames.iter().map(|f| f.degraded).collect();
        assert_eq!(marks, [false, true, false]);
        // The mark is readable off the wire image, and decoding masks it
        // out of the record count.
        let mut dec = FrameDecoder::new(config);
        let mut out = Vec::new();
        for frame in &frames {
            assert_eq!(Frame::header_degraded(&frame.bytes), frame.degraded);
            let n = dec.decode_frame(&frame.bytes, &mut out).expect("decodes");
            assert_eq!(n, frame.records);
        }
        assert_eq!(out, records);
    }

    #[test]
    fn empty_flush_is_a_no_op() {
        let mut enc = FrameEncoder::new(FrameConfig::default());
        assert!(enc.flush().is_none());
        // Nothing was left behind: the next frame holds only its record.
        let rec = EventRecord::alu(0x1000, 0, Some(1), Some(2), Some(1));
        assert!(enc.push(&rec).is_none());
        assert_eq!(enc.flush().map(|f| f.records), Some(1));
    }

    #[test]
    fn misaligned_and_truncated_frames_are_rejected() {
        let config = FrameConfig::default();
        let mut dec = FrameDecoder::new(config);
        let mut out = Vec::new();
        assert!(matches!(
            dec.decode_frame(&[0u8; 4], &mut out),
            Err(FrameDecodeError::Truncated { .. })
        ));
        assert!(matches!(
            dec.decode_frame(&[0u8; 65], &mut out),
            Err(FrameDecodeError::Misaligned { len: 65 })
        ));
        // Header claims a payload longer than the buffer.
        let mut bytes = vec![0u8; FRAME_LINE_BYTES];
        bytes[0..4].copy_from_slice(&1u32.to_le_bytes());
        bytes[4..8].copy_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(
            dec.decode_frame(&bytes, &mut out),
            Err(FrameDecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupt_compressed_payload_reports_codec_error() {
        let config = FrameConfig {
            records_per_frame: 2,
            compress: true,
        };
        let mut enc = FrameEncoder::new(config);
        enc.push(&EventRecord {
            pc: 0x1000,
            kind: EventKind::Syscall,
            tid: 0,
            in1: None,
            in2: None,
            out: None,
            addr: 0,
            size: 7,
        });
        let mut frame = enc.flush().expect("frame");
        // Claim one record per payload bit — the most a decoder that
        // admits frames that long accepts: the real record takes several
        // bits, so the stream runs dry.
        let payload_len = u32::from_le_bytes(frame.bytes[4..8].try_into().unwrap());
        let claim = payload_len * 8;
        frame.bytes[0..4].copy_from_slice(&claim.to_le_bytes());
        let mut dec = FrameDecoder::new(FrameConfig {
            records_per_frame: claim as usize,
            ..config
        });
        let mut out = Vec::new();
        assert!(matches!(
            dec.decode_frame(&frame.bytes, &mut out),
            Err(FrameDecodeError::Codec(DecodeStreamError::UnexpectedEof))
        ));
    }

    #[test]
    fn hostile_record_count_is_rejected_before_allocating() {
        // Regression: a 64-byte frame claiming 2^30 - 1 records used to
        // reserve 34 GB for them and abort the process.
        let mut bytes = vec![0u8; FRAME_LINE_BYTES];
        bytes[0..4].copy_from_slice(&((1u32 << 30) - 1).to_le_bytes());
        bytes[4..8].copy_from_slice(&56u32.to_le_bytes());
        let mut out = Vec::new();
        let err = FrameDecoder::new(FrameConfig::default())
            .decode_frame(&bytes, &mut out)
            .unwrap_err();
        // The payload could hold 448 records, but no frame of the stream
        // holds more than the default 256.
        assert_eq!(
            err,
            FrameDecodeError::TooManyRecords {
                records: (1 << 30) - 1,
                max: 256
            }
        );
        assert!(err.to_string().contains("holds at most 256"), "got: {err}");
        // Raw mode caps at whole raw records: 56 bytes hold two.
        let raw = FrameConfig {
            records_per_frame: 4,
            compress: false,
        };
        let err = FrameDecoder::new(raw)
            .decode_frame(&bytes, &mut out)
            .unwrap_err();
        assert!(matches!(
            err,
            FrameDecodeError::TooManyRecords { max: 2, .. }
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn a_count_above_records_per_frame_is_refused() {
        // Every encoder seals at or below its `records_per_frame`, so a
        // decoder configured for 4-record frames refuses an 8-record one,
        // in either payload mode, before reserving room for it.
        for compress in [true, false] {
            let frames_of = |records_per_frame| FrameConfig {
                records_per_frame,
                compress,
            };
            let mut enc = FrameEncoder::new(frames_of(8));
            let frame = (stream(4).iter())
                .find_map(|rec| enc.push(rec))
                .expect("the eighth record seals the frame");
            let mut out = Vec::new();
            let err = FrameDecoder::new(frames_of(4))
                .decode_frame(&frame.bytes, &mut out)
                .unwrap_err();
            assert_eq!(err, FrameDecodeError::TooManyRecords { records: 8, max: 4 });
            assert!(out.is_empty());
            let decoded = FrameDecoder::new(frames_of(8)).decode_frame(&frame.bytes, &mut out);
            assert_eq!(decoded, Ok(8), "the stream's own frame size decodes it");
        }
    }

    #[test]
    fn retired_top_count_bit_is_rejected_as_too_many_records() {
        // Bit 31 of the count word was codec v3's epoch-end mark. No
        // encoder sets it; a frame carrying it reads as 2^31 + n records.
        let config = FrameConfig::default();
        let mut enc = FrameEncoder::new(config);
        for rec in stream(3) {
            enc.push(&rec);
        }
        let mut frame = enc.flush().expect("partial frame seals");
        assert_eq!(frame.records, 6);
        frame.bytes[3] ^= 0x80;
        let mut out = Vec::new();
        let err = FrameDecoder::new(config)
            .decode_frame(&frame.bytes, &mut out)
            .unwrap_err();
        assert!(
            matches!(
                err,
                FrameDecodeError::TooManyRecords {
                    records: 0x8000_0006,
                    ..
                }
            ),
            "got: {err:?}"
        );
        assert!(out.is_empty());
    }

    #[test]
    fn nominal_wire_bytes_is_line_multiple_and_covers_raw_frames() {
        // One record: header + 25 B rounds up to one line.
        let one = FrameConfig {
            records_per_frame: 1,
            compress: false,
        };
        assert_eq!(one.nominal_wire_bytes(), FRAME_LINE_BYTES);
        // The default config: 8 + 256 * 25 = 6408 -> 101 lines.
        assert_eq!(FrameConfig::default().nominal_wire_bytes(), 101 * 64);
        // In raw mode the nominal size is exact: a sealed full frame's
        // wire image is header + records * RAW_RECORD_BYTES, padded.
        let mut enc = FrameEncoder::new(one);
        let frame = enc
            .push(&EventRecord::alu(0x1000, 0, None, None, None))
            .expect("one-record frames seal per push");
        assert_eq!(frame.bytes.len(), one.nominal_wire_bytes());
    }
}
