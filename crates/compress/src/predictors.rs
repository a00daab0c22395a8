//! Value predictors used by the VPC-style compressor.
//!
//! All predictors are deterministic and updated identically by the
//! compressor and decompressor, which is what makes flag-bit encoding
//! lossless.

/// A finite-context-method predictor over value deltas.
///
/// The context is a hash of the two most recent deltas (kept by the caller,
/// per log source); the table maps contexts to the predicted next delta.
/// This catches repeating non-constant stride patterns (e.g. struct-of-array
/// walks) that defeat a plain stride predictor.
#[derive(Debug, Clone)]
pub struct FcmPredictor {
    table: Vec<u64>,
    mask: u64,
}

impl FcmPredictor {
    /// Creates a predictor with `2^log2_entries` table entries.
    ///
    /// # Panics
    ///
    /// Panics if `log2_entries` is 0 or exceeds 24.
    #[must_use]
    pub fn new(log2_entries: u32) -> Self {
        assert!((1..=24).contains(&log2_entries), "table size out of range");
        let len = 1usize << log2_entries;
        FcmPredictor {
            table: vec![0; len],
            mask: (len - 1) as u64,
        }
    }

    fn index(&self, key: u64, d1: u64, d2: u64) -> usize {
        // Mix the source key and the two recent deltas (Fibonacci hashing).
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ d1.wrapping_mul(0xbf58_476d_1ce4_e5b9)
            ^ d2.wrapping_mul(0x94d0_49bb_1331_11eb);
        (h & self.mask) as usize
    }

    /// Predicted next delta for source `key` with recent deltas `d1`, `d2`.
    #[must_use]
    pub fn predict(&self, key: u64, d1: u64, d2: u64) -> u64 {
        self.table[self.index(key, d1, d2)]
    }

    /// Records the actual delta for the context.
    pub fn update(&mut self, key: u64, d1: u64, d2: u64, actual_delta: u64) {
        let idx = self.index(key, d1, d2);
        self.table[idx] = actual_delta;
    }
}

impl Default for FcmPredictor {
    fn default() -> Self {
        // 2^12 entries (32 KiB) keeps the table hot in L1/L2 on both ends
        // of the stream — the update is a random-indexed store on *every*
        // address-carrying record, so residency matters more than the last
        // percent of hit rate. Both sides build the same table, so the
        // stream stays losslessly decodable.
        Self::new(12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcm_learns_alternating_deltas() {
        // Pattern +8, +24, +8, +24… defeats a stride predictor but has a
        // deterministic delta given the previous two deltas.
        let mut p = FcmPredictor::new(10);
        let key = 0x1040;
        let (mut d1, mut d2) = (0u64, 0u64);
        let deltas = [8u64, 24, 8, 24, 8, 24, 8, 24];
        let mut hits = 0;
        for &d in &deltas {
            if p.predict(key, d1, d2) == d {
                hits += 1;
            }
            p.update(key, d1, d2, d);
            d2 = d1;
            d1 = d;
        }
        assert!(
            hits >= 4,
            "fcm should learn the alternation, got {hits} hits"
        );
    }

    #[test]
    fn fcm_sources_are_mostly_independent() {
        let mut p = FcmPredictor::new(14);
        p.update(1, 0, 0, 42);
        // A different key with the same delta context should (almost
        // certainly) map elsewhere.
        assert_ne!(p.predict(2, 0, 0), 42);
    }

    #[test]
    #[should_panic(expected = "table size")]
    fn fcm_rejects_zero_size() {
        let _ = FcmPredictor::new(0);
    }
}
