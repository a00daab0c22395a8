//! Functional shadow state: shadow memory and shadow registers.

use lba_mem::PageDirectory;

const PAGE_SHIFT: u32 = 12;
const PAGE_CELLS: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_CELLS as u64) - 1;

/// Sparse per-address shadow state of cell type `T`, organised as a
/// two-level direct-mapped page table.
///
/// One cell shadows one *granule* of application memory; the granule size
/// is the lifeguard's choice (AddrCheck and TaintCheck shadow bytes,
/// LockSet shadows 4-byte words) — callers index by granule number.
/// Untouched cells read as `T::default()`.
///
/// Level 1 is a [`PageDirectory`] (direct-mapped, tag-checked slots with
/// a one-entry last-page cache — a software metadata-TLB); level 2 is a
/// flat 4096-cell page in an arena. The common case — consecutive
/// accesses landing in one shadow page — costs one compare and one
/// indexed load, no hashing anywhere.
///
/// Range operations work page-at-a-time: [`set_range`](Self::set_range)
/// fills each covered page with `slice::fill`, and
/// [`range_is`](Self::range_is) compares whole resident pages (an absent
/// page trivially matches `T::default()`). Writing `T::default()` over an
/// absent page does not allocate it.
///
/// This is the functional half of shadow state; the *cost* of shadow
/// accesses is charged separately through
/// [`HandlerCtx`](crate::HandlerCtx), mirroring how the paper separates
/// lifeguard correctness from lifeguard performance.
///
/// # Examples
///
/// ```
/// use lba_lifeguard::ShadowMemory;
///
/// let mut shadow: ShadowMemory<u8> = ShadowMemory::new();
/// assert_eq!(shadow.get(0x4000_0000), 0);
/// shadow.set(0x4000_0000, 1);
/// assert_eq!(shadow.get(0x4000_0000), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ShadowMemory<T> {
    dir: PageDirectory,
    /// Page arena; directory entries index into it and never move.
    pages: Vec<Box<[T]>>,
    /// Non-default cell count per arena slot — the
    /// [`range_any_nonzero`](Self::range_any_nonzero) fast path answers
    /// full-page chunks from this counter without touching the page.
    nonzero: Vec<u32>,
}

impl<T: Copy + Default + PartialEq> ShadowMemory<T> {
    /// Creates an empty shadow memory.
    #[must_use]
    pub fn new() -> Self {
        ShadowMemory {
            dir: PageDirectory::new(),
            pages: Vec::new(),
            nonzero: Vec::new(),
        }
    }

    /// The resident page holding `index`.
    #[inline]
    fn page_of(&self, index: u64) -> Option<&[T]> {
        let idx = self.dir.get(index >> PAGE_SHIFT)?;
        Some(&self.pages[idx as usize])
    }

    /// The arena slot of the page holding `index`, created when absent.
    fn slot_of_mut(&mut self, index: u64) -> usize {
        let idx = match self.dir.get(index >> PAGE_SHIFT) {
            Some(idx) => idx,
            None => {
                let idx = u32::try_from(self.pages.len()).expect("fewer than 2^32 shadow pages");
                self.pages
                    .push(vec![T::default(); PAGE_CELLS].into_boxed_slice());
                self.nonzero.push(0);
                self.dir.insert(index >> PAGE_SHIFT, idx);
                idx
            }
        };
        idx as usize
    }

    /// The shadow cell for granule `index`.
    #[must_use]
    #[inline]
    pub fn get(&self, index: u64) -> T {
        match self.page_of(index) {
            Some(page) => page[(index & PAGE_MASK) as usize],
            None => T::default(),
        }
    }

    /// Sets the shadow cell for granule `index`.
    #[inline]
    pub fn set(&mut self, index: u64, value: T) {
        let slot = self.slot_of_mut(index);
        let cell = &mut self.pages[slot][(index & PAGE_MASK) as usize];
        let was = *cell != T::default();
        let is = value != T::default();
        *cell = value;
        self.nonzero[slot] = self.nonzero[slot] - u32::from(was) + u32::from(is);
    }

    /// Sets `len` consecutive cells starting at `start`, page-at-a-time
    /// (`slice::fill` per covered page). Writing `T::default()` skips
    /// pages that are not resident — they already read as default.
    ///
    /// Indices wrap around the granule space, matching per-cell `set`
    /// semantics under wrapping arithmetic.
    pub fn set_range(&mut self, start: u64, len: u64, value: T) {
        let is_default = value == T::default();
        let mut index = start;
        let mut remaining = len;
        while remaining > 0 {
            let offset = (index & PAGE_MASK) as usize;
            let chunk = ((PAGE_CELLS - offset) as u64).min(remaining);
            let slot = if is_default {
                // Only touch pages that exist; absent pages stay absent.
                self.dir.get(index >> PAGE_SHIFT).map(|idx| idx as usize)
            } else {
                Some(self.slot_of_mut(index))
            };
            if let Some(slot) = slot {
                let cells = &mut self.pages[slot][offset..offset + chunk as usize];
                let was = cells.iter().filter(|cell| **cell != T::default()).count() as u32;
                cells.fill(value);
                let now = if is_default { 0 } else { chunk as u32 };
                self.nonzero[slot] = self.nonzero[slot] - was + now;
            }
            index = index.wrapping_add(chunk);
            remaining -= chunk;
        }
    }

    /// Whether all `len` cells starting at `start` equal `value`,
    /// page-at-a-time: an absent page matches exactly when `value` is
    /// `T::default()`; a resident page is compared as a slice.
    #[must_use]
    pub fn range_is(&self, start: u64, len: u64, value: T) -> bool {
        let is_default = value == T::default();
        let mut index = start;
        let mut remaining = len;
        while remaining > 0 {
            let offset = (index & PAGE_MASK) as usize;
            let chunk = ((PAGE_CELLS - offset) as u64).min(remaining);
            match self.page_of(index) {
                Some(page) => {
                    if !page[offset..offset + chunk as usize]
                        .iter()
                        .all(|cell| *cell == value)
                    {
                        return false;
                    }
                }
                None => {
                    if !is_default {
                        return false;
                    }
                }
            }
            index = index.wrapping_add(chunk);
            remaining -= chunk;
        }
        true
    }

    /// Whether any of the `len` cells starting at `start` differs from
    /// `T::default()` — the hot "any byte tainted?" probe, answered from
    /// the per-page non-default counters instead of a byte scan: an
    /// absent page or a zero-count page is skipped outright, a fully
    /// covered page with a non-zero count answers `true` without touching
    /// its cells, and only partially covered pages are actually scanned.
    /// Equivalent to `!range_is(start, len, T::default())`, which stays
    /// as the slice-compare baseline (see the transport bench's
    /// `shadow_range` group for the contrast).
    #[must_use]
    pub fn range_any_nonzero(&self, start: u64, len: u64) -> bool {
        let mut index = start;
        let mut remaining = len;
        while remaining > 0 {
            let offset = (index & PAGE_MASK) as usize;
            let chunk = ((PAGE_CELLS - offset) as u64).min(remaining);
            if let Some(idx) = self.dir.get(index >> PAGE_SHIFT) {
                let count = self.nonzero[idx as usize];
                if count > 0 {
                    if chunk == PAGE_CELLS as u64 {
                        return true;
                    }
                    if self.pages[idx as usize][offset..offset + chunk as usize]
                        .iter()
                        .any(|cell| *cell != T::default())
                    {
                        return true;
                    }
                }
            }
            index = index.wrapping_add(chunk);
            remaining -= chunk;
        }
        false
    }

    /// Number of resident shadow pages (memory-footprint introspection).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

impl<T: Copy + Default + PartialEq> Default for ShadowMemory<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-thread shadow register file of cell type `T`.
///
/// # Examples
///
/// ```
/// use lba_lifeguard::ShadowRegs;
///
/// let mut regs: ShadowRegs<bool> = ShadowRegs::new();
/// regs.set(0, 3, true);
/// assert!(regs.get(0, 3));
/// assert!(!regs.get(1, 3), "threads have independent shadow registers");
/// ```
#[derive(Debug, Clone)]
pub struct ShadowRegs<T> {
    threads: Vec<[T; 16]>,
}

impl<T: Copy + Default> ShadowRegs<T> {
    /// Creates an empty shadow register file.
    #[must_use]
    pub fn new() -> Self {
        ShadowRegs {
            threads: Vec::new(),
        }
    }

    fn ensure(&mut self, tid: u8) {
        let idx = tid as usize;
        if self.threads.len() <= idx {
            self.threads.resize_with(idx + 1, || [T::default(); 16]);
        }
    }

    /// The shadow value of register `reg` of thread `tid`.
    #[must_use]
    pub fn get(&self, tid: u8, reg: u8) -> T {
        self.threads
            .get(tid as usize)
            .map_or_else(T::default, |regs| regs[(reg & 0xf) as usize])
    }

    /// Sets the shadow value of register `reg` of thread `tid`.
    pub fn set(&mut self, tid: u8, reg: u8, value: T) {
        self.ensure(tid);
        self.threads[tid as usize][(reg & 0xf) as usize] = value;
    }
}

impl<T: Copy + Default> Default for ShadowRegs<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cells_read_default() {
        let s: ShadowMemory<u32> = ShadowMemory::new();
        assert_eq!(s.get(12345), 0);
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn set_get_round_trip() {
        let mut s: ShadowMemory<u8> = ShadowMemory::new();
        s.set(7, 3);
        s.set(1 << 20, 9);
        assert_eq!(s.get(7), 3);
        assert_eq!(s.get(1 << 20), 9);
        assert_eq!(s.get(8), 0);
    }

    #[test]
    fn range_operations() {
        let mut s: ShadowMemory<u8> = ShadowMemory::new();
        s.set_range(100, 50, 1);
        assert!(s.range_is(100, 50, 1));
        assert!(!s.range_is(99, 2, 1));
        assert!(!s.range_is(149, 2, 1));
    }

    #[test]
    fn range_spans_pages() {
        let mut s: ShadowMemory<u8> = ShadowMemory::new();
        let start = (PAGE_CELLS as u64) - 5;
        s.set_range(start, 10, 2);
        assert!(s.range_is(start, 10, 2));
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn default_set_range_does_not_allocate_absent_pages() {
        // Satellite regression: writing defaults over an absent page used
        // to allocate 4 KiB just to store zeros.
        let mut s: ShadowMemory<u8> = ShadowMemory::new();
        s.set_range(0, 10 * PAGE_CELLS as u64, 0);
        assert_eq!(s.resident_pages(), 0, "defaults over absent pages are free");
        assert!(s.range_is(0, 10 * PAGE_CELLS as u64, 0));
        // But defaults over a *resident* page must still clear it.
        s.set(5, 9);
        assert_eq!(s.resident_pages(), 1);
        s.set_range(0, 16, 0);
        assert_eq!(s.get(5), 0);
    }

    #[test]
    fn colliding_page_numbers_keep_distinct_state() {
        // Page numbers congruent modulo every power-of-two directory size
        // exercise the linear-probe fallback of the direct-mapped level.
        let mut s: ShadowMemory<u32> = ShadowMemory::new();
        let stride = 1u64 << 40; // same low bits for every directory size
        for i in 0..50u64 {
            s.set(i * stride, i as u32 + 1);
        }
        for i in 0..50u64 {
            assert_eq!(s.get(i * stride), i as u32 + 1, "page {i}");
        }
        assert_eq!(s.resident_pages(), 50);
    }

    #[test]
    fn directory_growth_preserves_all_pages() {
        // Many distinct pages force several directory doublings.
        let mut s: ShadowMemory<u16> = ShadowMemory::new();
        for i in 0..500u64 {
            s.set(i * PAGE_CELLS as u64 + (i % 7), (i + 1) as u16);
        }
        for i in 0..500u64 {
            assert_eq!(s.get(i * PAGE_CELLS as u64 + (i % 7)), (i + 1) as u16);
        }
        assert_eq!(s.resident_pages(), 500);
    }

    #[test]
    fn sparse_64bit_indices_work() {
        let mut s: ShadowMemory<u8> = ShadowMemory::new();
        for &index in &[0u64, u64::MAX, u64::MAX / 2, 1 << 52, (1 << 52) + 1] {
            s.set(index, 7);
            assert_eq!(s.get(index), 7, "index {index:#x}");
        }
    }

    #[test]
    fn last_page_cache_tracks_switches() {
        let mut s: ShadowMemory<u8> = ShadowMemory::new();
        let a = 0u64;
        let b = 10 * PAGE_CELLS as u64;
        s.set(a, 1);
        s.set(b, 2);
        // Alternate between the two pages: every access must still resolve
        // to the right one regardless of what the one-entry cache holds.
        for _ in 0..4 {
            assert_eq!(s.get(a), 1);
            assert_eq!(s.get(b), 2);
        }
    }

    #[test]
    fn range_ops_wrap_instead_of_overflowing() {
        let mut s: ShadowMemory<u8> = ShadowMemory::new();
        let start = u64::MAX - 2;
        s.set_range(start, 6, 3); // wraps into page 0
        assert_eq!(s.get(u64::MAX), 3);
        assert_eq!(s.get(0), 3);
        assert_eq!(s.get(2), 3);
        assert_eq!(s.get(3), 0);
        assert!(s.range_is(start, 6, 3));
    }

    #[test]
    fn range_is_rejects_partial_matches_across_pages() {
        let mut s: ShadowMemory<u8> = ShadowMemory::new();
        let start = PAGE_CELLS as u64 - 2;
        s.set_range(start, 4, 1);
        s.set(start + 1, 2); // poke a hole mid-range, first page
        assert!(!s.range_is(start, 4, 1));
        s.set(start + 1, 1);
        assert!(s.range_is(start, 4, 1));
        s.set(start + 3, 2); // hole in the second page
        assert!(!s.range_is(start, 4, 1));
    }

    #[test]
    fn range_any_nonzero_matches_range_is() {
        let mut s: ShadowMemory<u8> = ShadowMemory::new();
        assert!(!s.range_any_nonzero(0, 100 * PAGE_CELLS as u64));
        s.set(3 * PAGE_CELLS as u64 + 7, 1);
        // Probe windows around the single non-default cell, spanning
        // absent pages, zero-count pages, and partial chunks.
        for (start, len) in [
            (0u64, 3 * PAGE_CELLS as u64),
            (0, 4 * PAGE_CELLS as u64),
            (3 * PAGE_CELLS as u64, 8),
            (3 * PAGE_CELLS as u64 + 8, 100),
            (3 * PAGE_CELLS as u64 + 6, 2),
            (0, 100 * PAGE_CELLS as u64),
        ] {
            assert_eq!(
                s.range_any_nonzero(start, len),
                !s.range_is(start, len, 0),
                "window {start}+{len}"
            );
        }
        // Clearing through set_range keeps the counter honest.
        s.set_range(3 * PAGE_CELLS as u64, PAGE_CELLS as u64, 0);
        assert!(!s.range_any_nonzero(0, 100 * PAGE_CELLS as u64));
        // A fully non-default page answers through the counter alone.
        s.set_range(PAGE_CELLS as u64, PAGE_CELLS as u64, 2);
        assert!(s.range_any_nonzero(PAGE_CELLS as u64, PAGE_CELLS as u64));
        assert!(s.range_any_nonzero(0, 2 * PAGE_CELLS as u64));
    }

    #[test]
    fn counters_survive_mixed_writes() {
        let mut s: ShadowMemory<u8> = ShadowMemory::new();
        s.set(10, 1);
        s.set(10, 2); // non-default over non-default: count stays 1
        s.set(11, 1);
        s.set(10, 0); // back to default: count drops
        assert!(s.range_any_nonzero(0, 16));
        s.set(11, 0);
        assert!(!s.range_any_nonzero(0, PAGE_CELLS as u64));
        s.set_range(0, 8, 3);
        s.set_range(4, 8, 3); // overlapping fill: counted once per cell
        assert!(s.range_any_nonzero(0, 12));
        s.set_range(0, 12, 0);
        assert!(!s.range_any_nonzero(0, PAGE_CELLS as u64));
    }

    #[test]
    fn shadow_regs_per_thread() {
        let mut r: ShadowRegs<u8> = ShadowRegs::new();
        r.set(0, 1, 10);
        r.set(3, 1, 30);
        assert_eq!(r.get(0, 1), 10);
        assert_eq!(r.get(3, 1), 30);
        assert_eq!(r.get(1, 1), 0);
        assert_eq!(r.get(200, 5), 0, "unseen thread reads default");
    }
}
