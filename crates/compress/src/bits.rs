//! LSB-first bit-level I/O with zig-zag varints.

/// Appends bits (LSB-first within each byte) to a growable buffer.
///
/// # Examples
///
/// ```
/// use lba_compress::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bit(true);
/// w.write_bits(0b101, 3);
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// assert!(r.read_bit().unwrap());
/// assert_eq!(r.read_bits(3).unwrap(), 0b101);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits not yet flushed to `bytes` (LSB-first, < 8 of them).
    acc: u64,
    /// Number of valid bits in `acc`.
    acc_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bits written so far.
    #[must_use]
    pub fn len_bits(&self) -> u64 {
        self.bytes.len() as u64 * 8 + u64::from(self.acc_bits)
    }

    /// Writes a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.acc |= u64::from(bit) << self.acc_bits;
        self.acc_bits += 1;
        if self.acc_bits == 8 {
            self.flush_acc();
        }
    }

    /// Writes the low `n` bits of `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn write_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "cannot write more than 64 bits at once");
        if n == 0 {
            return;
        }
        let value = if n == 64 {
            value
        } else {
            value & ((1u64 << n) - 1)
        };
        // `acc` holds < 8 bits, so up to 56 more fit before a flush.
        let room = 64 - self.acc_bits;
        if n <= room {
            self.acc |= value << self.acc_bits;
            self.acc_bits += n;
        } else {
            self.acc |= value << self.acc_bits;
            let spilled = n - room;
            self.acc_bits = 64;
            self.flush_acc();
            self.acc = value >> (n - spilled);
            self.acc_bits = spilled;
        }
        if self.acc_bits >= 8 {
            self.flush_acc();
        }
    }

    /// Moves whole bytes from the accumulator into the buffer, leaving
    /// fewer than 8 bits pending.
    fn flush_acc(&mut self) {
        let whole = (self.acc_bits / 8) as usize;
        self.bytes
            .extend_from_slice(&self.acc.to_le_bytes()[..whole]);
        self.acc = if whole == 8 {
            0
        } else {
            self.acc >> (whole * 8)
        };
        self.acc_bits -= whole as u32 * 8;
    }

    /// Writes an unsigned value as nibble-group varint: groups of
    /// (1 continuation bit + 4 data bits), low nibble first.
    pub fn write_uvarint(&mut self, mut value: u64) {
        loop {
            let nibble = value & 0xf;
            value >>= 4;
            let more = value != 0;
            self.write_bit(more);
            self.write_bits(nibble, 4);
            if !more {
                break;
            }
        }
    }

    /// Writes a signed value with zig-zag encoding.
    pub fn write_ivarint(&mut self, value: i64) {
        self.write_uvarint(zigzag(value));
    }

    /// Consumes the writer, returning the backing bytes (final byte
    /// zero-padded).
    #[must_use]
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.acc_bits > 0 {
            self.bytes.push(self.acc as u8);
        }
        self.bytes
    }

    /// Resets the writer to empty, keeping its allocation.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.acc = 0;
        self.acc_bits = 0;
    }

    /// Flushes the partial byte, hands back the finished buffer, and
    /// adopts `replacement` (cleared) as the new backing storage — the
    /// zero-copy frame-sealing primitive.
    pub fn swap_bytes(&mut self, mut replacement: Vec<u8>) -> Vec<u8> {
        if self.acc_bits > 0 {
            self.bytes.push(self.acc as u8);
            self.acc = 0;
            self.acc_bits = 0;
        }
        replacement.clear();
        std::mem::replace(&mut self.bytes, replacement)
    }
}

/// Reads bits written by [`BitWriter`].
///
/// Bits are staged through a 64-bit window so the decoder's flag-bit-heavy
/// hot path costs a shift and a mask per read, with one buffered refill
/// every few records instead of per-bit byte indexing.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte index to pull into the window.
    next: usize,
    /// Buffered bits, LSB = next bit of the stream.
    window: u64,
    /// Valid bits in `window`.
    avail: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            next: 0,
            window: 0,
            avail: 0,
        }
    }

    /// Bits left in the stream.
    #[inline]
    fn bits_left(&self) -> u64 {
        u64::from(self.avail) + (self.bytes.len() - self.next) as u64 * 8
    }

    /// Tops the window up to at least 57 valid bits (or stream end).
    #[inline]
    fn refill(&mut self) {
        while self.avail <= 56 {
            let Some(&byte) = self.bytes.get(self.next) else {
                return;
            };
            self.window |= u64::from(byte) << self.avail;
            self.next += 1;
            self.avail += 8;
        }
    }

    /// Reads one bit, or `None` at end of stream.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.avail == 0 {
            self.refill();
            if self.avail == 0 {
                return None;
            }
        }
        let bit = self.window & 1 == 1;
        self.window >>= 1;
        self.avail -= 1;
        Some(bit)
    }

    /// Reads `n` bits (LSB first), or `None` if the stream is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        assert!(n <= 64, "cannot read more than 64 bits at once");
        if n == 0 {
            return Some(0);
        }
        if self.bits_left() < u64::from(n) {
            return None;
        }
        self.refill();
        if n <= self.avail {
            let out = if n == 64 {
                self.window // avail >= 64 is only possible when full
            } else {
                self.window & ((1u64 << n) - 1)
            };
            self.window = if n == 64 { 0 } else { self.window >> n };
            self.avail -= n;
            return Some(out);
        }
        // The window ran short (only possible near n = 64 with a partial
        // refill): take what is buffered, refill, take the rest.
        let low = self.window;
        let got = self.avail;
        self.window = 0;
        self.avail = 0;
        self.refill();
        let rest = n - got;
        let high = self.window & ((1u64 << rest) - 1);
        self.window >>= rest;
        self.avail -= rest;
        Some(low | high << got)
    }

    /// Reads a nibble-group unsigned varint.
    pub fn read_uvarint(&mut self) -> Option<u64> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let more = self.read_bit()?;
            let nibble = self.read_bits(4)?;
            out |= nibble << shift;
            if !more {
                return Some(out);
            }
            shift += 4;
            if shift >= 64 {
                return None;
            }
        }
    }

    /// Reads a zig-zag signed varint.
    pub fn read_ivarint(&mut self) -> Option<i64> {
        self.read_uvarint().map(unzigzag)
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.len_bits(), 9);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
    }

    #[test]
    fn multi_bit_values_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0xdead_beef, 32);
        w.write_bits(0x3, 2);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(32), Some(0xdead_beef));
        assert_eq!(r.read_bits(2), Some(0x3));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
    }

    #[test]
    fn uvarint_sizes_scale_with_magnitude() {
        for (value, max_bits) in [(0u64, 5), (15, 5), (16, 10), (255, 10), (1 << 20, 30)] {
            let mut w = BitWriter::new();
            w.write_uvarint(value);
            assert!(
                w.len_bits() <= max_bits,
                "uvarint({value}) took {} bits, expected <= {max_bits}",
                w.len_bits()
            );
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_uvarint(), Some(value));
        }
    }

    #[test]
    fn ivarint_round_trips_extremes() {
        for value in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::MAX,
            i64::MIN,
            0x7fff_ffff,
            -0x8000_0000,
        ] {
            let mut w = BitWriter::new();
            w.write_ivarint(value);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_ivarint(), Some(value), "value {value}");
        }
    }

    #[test]
    fn reader_returns_none_at_end() {
        let mut w = BitWriter::new();
        w.write_bits(0b10, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        // The final byte is padded, so reads succeed to the byte boundary…
        assert!(r.read_bits(8).is_some());
        // …and fail past it.
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(4), None);
    }

    #[test]
    fn zigzag_is_bijective_on_samples() {
        for v in [-5i64, -1, 0, 1, 5, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn reader_tracks_its_position() {
        let mut w = BitWriter::new();
        w.write_bits(0, 13);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let _ = r.read_bits(5);
        assert_eq!(r.bits_left(), 16 - 5, "two bytes, five bits consumed");
    }
}
