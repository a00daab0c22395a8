//! First-fit free-list heap allocator backing the `alloc`/`free`
//! instructions.
//!
//! The allocator's bookkeeping lives outside simulated memory (the cycle
//! model charges a fixed library cost per call instead of simulating
//! allocator instructions). It is deliberately *tolerant*:
//! erroneous frees return an error but leave the heap intact, so that a
//! buggy application can keep running while a lifeguard flags the bug — the
//! paper's deployed-code scenario.

use std::collections::BTreeMap;
use std::fmt;

/// Error returned by [`HeapAllocator`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapError {
    /// The arena has no free block large enough.
    OutOfMemory {
        /// The request that failed, in bytes.
        requested: u64,
    },
    /// `free` was called with an address that is not a live block start.
    InvalidFree {
        /// The offending address.
        addr: u64,
    },
    /// `free` was called twice on the same block.
    DoubleFree {
        /// The offending address.
        addr: u64,
    },
    /// `alloc` was called with a zero size.
    ZeroSize,
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::OutOfMemory { requested } => {
                write!(f, "heap exhausted allocating {requested} bytes")
            }
            HeapError::InvalidFree { addr } => write!(f, "invalid free of {addr:#x}"),
            HeapError::DoubleFree { addr } => write!(f, "double free of {addr:#x}"),
            HeapError::ZeroSize => write!(f, "zero-size allocation"),
        }
    }
}

impl std::error::Error for HeapError {}

/// Alignment of every returned block, in bytes.
pub const BLOCK_ALIGN: u64 = 16;

fn align_up(v: u64) -> u64 {
    (v + BLOCK_ALIGN - 1) & !(BLOCK_ALIGN - 1)
}

/// A first-fit free-list allocator over `[base, base + size)`.
///
/// Freed neighbours coalesce, so fragmentation stays bounded for the
/// workload generators' alloc/free churn.
///
/// # Examples
///
/// ```
/// use lba_mem::{HeapAllocator, HeapError};
///
/// let mut heap = HeapAllocator::new(0x4000_0000, 4096);
/// let a = heap.alloc(100)?;
/// let b = heap.alloc(100)?;
/// assert_ne!(a, b);
/// heap.free(a)?;
/// assert_eq!(heap.free(a), Err(HeapError::DoubleFree { addr: a }));
/// # Ok::<(), HeapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HeapAllocator {
    base: u64,
    size: u64,
    /// Free blocks: start -> length. Coalesced, non-overlapping, sorted.
    free: BTreeMap<u64, u64>,
    /// Live blocks: start -> length.
    live: BTreeMap<u64, u64>,
    /// Addresses that were freed (and not since re-allocated), for
    /// double-free classification.
    freed: BTreeMap<u64, u64>,
    peak_bytes: u64,
    live_bytes: u64,
    total_allocs: u64,
}

impl HeapAllocator {
    /// Creates an allocator over `[base, base + size)`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 16-byte aligned or `size` is zero.
    #[must_use]
    pub fn new(base: u64, size: u64) -> Self {
        assert_eq!(
            base % BLOCK_ALIGN,
            0,
            "heap base must be {BLOCK_ALIGN}-byte aligned"
        );
        assert!(size > 0, "heap size must be non-zero");
        let mut free = BTreeMap::new();
        free.insert(base, size);
        HeapAllocator {
            base,
            size,
            free,
            live: BTreeMap::new(),
            freed: BTreeMap::new(),
            peak_bytes: 0,
            live_bytes: 0,
            total_allocs: 0,
        }
    }

    /// Allocates `size` bytes, returning the block address.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::ZeroSize`] for zero-size requests and
    /// [`HeapError::OutOfMemory`] when no free block fits.
    pub fn alloc(&mut self, size: u64) -> Result<u64, HeapError> {
        if size == 0 {
            return Err(HeapError::ZeroSize);
        }
        let need = align_up(size);
        let found = self
            .free
            .iter()
            .find(|(_, &len)| len >= need)
            .map(|(&start, &len)| (start, len));
        let (start, len) = found.ok_or(HeapError::OutOfMemory { requested: size })?;
        self.free.remove(&start);
        if len > need {
            self.free.insert(start + need, len - need);
        }
        self.live.insert(start, need);
        self.freed.remove(&start);
        self.live_bytes += need;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
        self.total_allocs += 1;
        Ok(start)
    }

    /// Frees the block starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DoubleFree`] when `addr` was already freed and
    /// [`HeapError::InvalidFree`] when `addr` never named a live block. The
    /// heap is unchanged in both cases.
    pub fn free(&mut self, addr: u64) -> Result<(), HeapError> {
        let Some(len) = self.live.remove(&addr) else {
            if self.freed.contains_key(&addr) {
                return Err(HeapError::DoubleFree { addr });
            }
            return Err(HeapError::InvalidFree { addr });
        };
        self.live_bytes -= len;
        self.freed.insert(addr, len);
        self.insert_free(addr, len);
        Ok(())
    }

    /// Inserts and coalesces a free range.
    fn insert_free(&mut self, start: u64, len: u64) {
        let mut start = start;
        let mut len = len;
        // Coalesce with predecessor.
        if let Some((&pstart, &plen)) = self.free.range(..start).next_back() {
            if pstart + plen == start {
                self.free.remove(&pstart);
                start = pstart;
                len += plen;
            }
        }
        // Coalesce with successor.
        if let Some(&slen) = self.free.get(&(start + len)) {
            self.free.remove(&(start + len));
            len += slen;
        }
        self.free.insert(start, len);
    }

    /// The size recorded for the live block at `addr`, if any.
    #[must_use]
    pub fn live_block_len(&self, addr: u64) -> Option<u64> {
        self.live.get(&addr).copied()
    }

    /// Iterates over live blocks as `(addr, len)` pairs (leak reporting).
    pub fn live_blocks(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.live.iter().map(|(&a, &l)| (a, l))
    }

    /// Total bytes currently allocated (rounded to block alignment).
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// High-water mark of allocated bytes.
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Number of successful allocations.
    #[must_use]
    pub fn total_allocs(&self) -> u64 {
        self.total_allocs
    }

    /// The arena base address.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The arena size in bytes.
    #[must_use]
    pub fn arena_size(&self) -> u64 {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 0x4000_0000;

    #[test]
    fn alloc_returns_aligned_disjoint_blocks() {
        let mut h = HeapAllocator::new(BASE, 1 << 16);
        let a = h.alloc(10).unwrap();
        let b = h.alloc(10).unwrap();
        assert_eq!(a % BLOCK_ALIGN, 0);
        assert_eq!(b % BLOCK_ALIGN, 0);
        assert!(b >= a + 16 || a >= b + 16, "blocks must not overlap");
    }

    #[test]
    fn zero_size_rejected() {
        let mut h = HeapAllocator::new(BASE, 1 << 16);
        assert_eq!(h.alloc(0), Err(HeapError::ZeroSize));
    }

    #[test]
    fn out_of_memory_reported() {
        let mut h = HeapAllocator::new(BASE, 64);
        assert!(h.alloc(48).is_ok());
        assert_eq!(h.alloc(64), Err(HeapError::OutOfMemory { requested: 64 }));
    }

    #[test]
    fn free_then_realloc_reuses_space() {
        let mut h = HeapAllocator::new(BASE, 64);
        let a = h.alloc(64).unwrap();
        h.free(a).unwrap();
        let b = h.alloc(64).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn double_free_detected() {
        let mut h = HeapAllocator::new(BASE, 1 << 16);
        let a = h.alloc(8).unwrap();
        h.free(a).unwrap();
        assert_eq!(h.free(a), Err(HeapError::DoubleFree { addr: a }));
    }

    #[test]
    fn invalid_free_detected() {
        let mut h = HeapAllocator::new(BASE, 1 << 16);
        let _ = h.alloc(8).unwrap();
        assert_eq!(
            h.free(BASE + 8),
            Err(HeapError::InvalidFree { addr: BASE + 8 })
        );
    }

    #[test]
    fn realloc_after_free_clears_double_free_state() {
        let mut h = HeapAllocator::new(BASE, 64);
        let a = h.alloc(64).unwrap();
        h.free(a).unwrap();
        let b = h.alloc(64).unwrap();
        assert_eq!(a, b);
        // Freeing the re-allocated block is legitimate, not a double free.
        assert_eq!(h.free(b), Ok(()));
    }

    #[test]
    fn coalescing_allows_full_size_realloc() {
        let mut h = HeapAllocator::new(BASE, 3 * 16);
        let a = h.alloc(16).unwrap();
        let b = h.alloc(16).unwrap();
        let c = h.alloc(16).unwrap();
        h.free(b).unwrap();
        h.free(a).unwrap();
        h.free(c).unwrap();
        assert_eq!(
            h.alloc(48).unwrap(),
            BASE,
            "coalesced arena serves a full-size block"
        );
    }

    #[test]
    fn statistics_track_usage() {
        let mut h = HeapAllocator::new(BASE, 1 << 16);
        let a = h.alloc(16).unwrap();
        let b = h.alloc(16).unwrap();
        assert_eq!(h.live_bytes(), 32);
        assert_eq!(h.peak_bytes(), 32);
        h.free(a).unwrap();
        assert_eq!(h.live_bytes(), 16);
        assert_eq!(h.peak_bytes(), 32);
        assert_eq!(h.total_allocs(), 2);
        assert_eq!(h.live_blocks().collect::<Vec<_>>(), vec![(b, 16)]);
    }

    #[test]
    fn live_block_len_reports_aligned_size() {
        let mut h = HeapAllocator::new(BASE, 1 << 16);
        let a = h.alloc(10).unwrap();
        assert_eq!(h.live_block_len(a), Some(16));
        assert_eq!(h.live_block_len(a + 1), None);
    }
}
