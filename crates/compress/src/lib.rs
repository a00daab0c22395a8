//! Value-prediction-based log compression (VPC-style).
//!
//! The paper compresses each event record in hardware "to reduce the
//! bandwidth pressure and buffer requirements on the log transport medium",
//! adapting value-prediction-based compression (Burtscher's VPC) to achieve
//! **less than one byte per instruction**. This crate reproduces that
//! scheme in a bit-exact, lossless, streaming form:
//!
//! * the **program counter** is predicted with a per-thread stride
//!   predictor (sequential execution hits with a single flag bit);
//! * the record's **static fields** (type, operand identifiers, access
//!   width, direct-branch targets) are cached in a per-PC table — after the
//!   first occurrence of a PC they cost one flag bit;
//! * **effective addresses** go through a per-PC predictor bank (stride,
//!   last-value, and a finite-context-method predictor over recent deltas),
//!   falling back to a zig-zag varint delta;
//! * remaining dynamic fields (branch direction, allocation sizes) use a
//!   flag bit plus varint escape.
//!
//! [`LogCompressor::encode`] appends each record to a [`BitWriter`], whose
//! [`len_bits`](BitWriter::len_bits) is the stream's exact bit cost;
//! [`FrameEncoder`] packs the stream into cache-line frames, and each
//! sealed [`Frame`] carries its payload bits and wire size, which the
//! transports count for buffer occupancy and bandwidth accounting.
//! [`LogDecompressor`] mirrors the predictor updates, so the stream
//! round-trips losslessly.
//!
//! # Examples
//!
//! ```
//! use lba_compress::{BitReader, BitWriter, LogCompressor, LogDecompressor};
//! use lba_record::EventRecord;
//!
//! let records: Vec<EventRecord> = (0..100)
//!     .map(|i| EventRecord::load(0x1000, 0, Some(1), Some(2), 0x4000_0000 + 8 * i, 8))
//!     .collect();
//!
//! let mut compressor = LogCompressor::new();
//! let mut writer = BitWriter::new();
//! for rec in &records {
//!     compressor.encode(rec, &mut writer);
//! }
//! // A strided load stream compresses far below one byte per record.
//! assert!(writer.len_bits() / 100 < 8);
//!
//! let bytes = writer.into_bytes();
//! let mut reader = BitReader::new(&bytes);
//! let mut decompressor = LogDecompressor::new();
//! for rec in &records {
//!     assert_eq!(decompressor.decode(&mut reader).unwrap(), *rec);
//! }
//! ```

mod bits;
mod compressor;
mod frame;
mod predictors;

/// Version of the compressed wire format, mirrored predictor-update rules
/// included. Durable flight-recorder streams record this value in their
/// segment headers so offline replay can refuse a stream encoded under a
/// different codec with a descriptive error instead of decoding garbage.
/// Bump it whenever the bit layout *or* any encoder/decoder-mirrored
/// predictor rule changes (version 1 was the single-entry successor
/// table; version 2 is the dedup-aware MRU successor stack with unary
/// depth codes, the two-bit alternate fast path, and the simplified
/// address escape; version 3 reserved the top bit of the frame header's
/// record-count word as an epoch-end mark; version 4 reserves the
/// second-from-top bit as the degraded-capture mark, so degraded spans
/// survive the flight recorder and replay can report them). Version 3's
/// bit is retired: no encoder sets it, and a frame that carries it is
/// rejected as claiming more records than its payload holds (see
/// [`lba_record::FrameCountWord`]). Streams written without it are
/// bit-identical to before, so retiring it kept the version at 4.
pub const CODEC_VERSION: u32 = 4;

pub use bits::{BitReader, BitWriter};
pub use compressor::{DecodeStreamError, LogCompressor, LogDecompressor};
pub use frame::{
    Frame, FrameConfig, FrameDecodeError, FrameDecoder, FrameEncoder, FRAME_HEADER_BYTES,
    FRAME_LINE_BYTES,
};
pub use predictors::FcmPredictor;
