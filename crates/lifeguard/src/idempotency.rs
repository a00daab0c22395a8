//! Capture-side idempotent-event filtering (§3).
//!
//! The paper observes that most dynamic checks are *idempotent*: once a
//! lifeguard has cleared an access, re-checking the same `pc`+`addr`
//! before anything relevant changes is pure overhead. This module drops
//! such duplicates at capture time — before compression, before the log
//! buffer, before dispatch — so the duplicate never costs wire bandwidth
//! or lifeguard-core cycles at all. It is the repo's first optimisation
//! that shrinks the log itself rather than moving it faster.
//!
//! Soundness is *per lifeguard*: each one declares, via
//! [`Lifeguard::idempotency`](crate::Lifeguard::idempotency), an
//! [`IdempotencyClass`] naming the key granularity under which its verdict
//! for a repeated access cannot change, and the events that *can* change a
//! verdict and therefore flush the window (allocation changes, lock
//! operations, cross-thread interleaving, syscalls). A lifeguard that
//! cannot tolerate any drop — TaintCheck, where every access propagates
//! state — declares [`IdempotencyClass::None`] and the filter provably
//! never touches its stream. Lifeguards whose duplicates carry information
//! only as *counts* (MemProfile) declare a [`Fold`](IdempotencyClass::Fold)
//! contract: suppressed duplicates accumulate in the window entry and are
//! re-emitted as one [`EventKind::Repeat`] summary record when the entry
//! is evicted, invalidated, or flushed, so end-of-run totals stay exact.
//!
//! [`CaptureFilter`] composes the idempotency window with the existing
//! [`AddrRangeFilter`] into a single capture-pass predicate shared by
//! every producer (co-simulated, live, and both sharded modes), so the two
//! filters cannot drift between modes.

use lba_record::{EventKind, EventMask, EventRecord};

use crate::filter::AddrRangeFilter;

/// A lifeguard's declared tolerance for capture-side duplicate
/// suppression — its *soundness contract* with the filter layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdempotencyClass {
    /// Every load/store carries analysis state; nothing may be dropped.
    /// The filter ships the stream untouched (TaintCheck: register taint
    /// is a sequential dependence chain through every instruction — the
    /// same property that excludes it from address-interleaved sharding).
    None,
    /// Duplicates under the spec's key may be dropped outright between
    /// flushes: a repeated access re-derives a verdict the lifeguard
    /// already reached and already deduplicates (AddrCheck, LockSet).
    Window(WindowSpec),
    /// Duplicates may be suppressed only if their *count* is preserved:
    /// each window entry accumulates its suppressed hits and re-emits them
    /// as one [`EventKind::Repeat`] summary on eviction, invalidation or
    /// flush, keeping totals exact (MemProfile).
    Fold(WindowSpec),
}

impl IdempotencyClass {
    /// The window parameters, when the class participates.
    #[must_use]
    pub fn spec(&self) -> Option<&WindowSpec> {
        match self {
            IdempotencyClass::None => None,
            IdempotencyClass::Window(spec) | IdempotencyClass::Fold(spec) => Some(spec),
        }
    }
}

/// Parameters of a dedup window: what makes two load/store records
/// "the same access", and which events invalidate cleared verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// log2 of the address granule folded into the key. Two records match
    /// only if `addr >> addr_granule_log2` agrees (plus `pc`, `tid`,
    /// `kind` and `size`). The granule must not be coarser than the
    /// granularity of the lifeguard's per-address verdict state: AddrCheck
    /// keys at its 16-byte allocation granule (4), LockSet at the exact
    /// address (0, its Eraser state is per 4-byte word and accesses may
    /// straddle), MemProfile at the 64-byte line its histogram uses (6).
    pub addr_granule_log2: u8,
    /// Event kinds whose arrival flushes the whole window, because they
    /// can change the verdict of an already-cleared access: alloc/free
    /// for allocation state, lock/unlock for held locksets, syscalls for
    /// fold-count visibility under the containment policy.
    pub invalidate_on: EventMask,
    /// Whether a thread interleave (a record from a different thread than
    /// the previous record) flushes the window. Required whenever another
    /// thread's access to the same location can move the lifeguard's
    /// state machine (LockSet); unnecessary when per-address state only
    /// changes through explicit events (AddrCheck: alloc/free).
    pub flush_on_thread_switch: bool,
}

/// Ceiling on the idempotency window's slot count. The window is
/// allocated eagerly (like the live channel queues, which are capped by
/// `MAX_LIVE_CHANNEL_FRAMES` for the same reason), so an astronomical
/// configuration value must clamp instead of attempting a multi-terabyte
/// allocation: 2^16 entries is a few megabytes — already far past the
/// point where a *recently-cleared* window stops resembling hardware.
pub const MAX_WINDOW_ENTRIES: usize = 1 << 16;

/// Counts of what the capture pass did, for `records captured vs. shipped`
/// visibility in run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureStats {
    /// Records observed at capture, before any filtering.
    pub captured: u64,
    /// Records that entered the log (fold summaries included).
    pub shipped: u64,
    /// Records dropped by the address-range filter.
    pub range_filtered: u64,
    /// Duplicate records suppressed by the idempotency window.
    pub deduped: u64,
    /// [`EventKind::Repeat`] summary records synthesized for fold-class
    /// lifeguards (already included in `shipped`).
    pub folded: u64,
}

/// One tracked access: the first occurrence of its key, plus the
/// duplicates suppressed since (only re-emitted for fold contracts).
#[derive(Debug, Clone, Copy)]
struct Entry {
    rec: EventRecord,
    hits: u64,
}

/// The direct-mapped window of recently-cleared accesses. A conflicting
/// key simply evicts the previous occupant — like the compressor's PC
/// tables, eviction only costs filtering efficiency, never soundness,
/// because an evicted access is merely re-checked on its next occurrence.
#[derive(Debug, Clone)]
struct IdempotencyWindow {
    slots: Vec<Option<Entry>>,
    mask: usize,
    /// Logical mask and liveness to restore on
    /// [`CaptureFilter::tighten_window_into`]. Equal to the current state
    /// for windows built without a widen reserve.
    base_mask: usize,
    base_live: bool,
    /// Mask covering the whole table — what widening switches to.
    wide_mask: usize,
    /// Whether the window currently participates in capture at all. A
    /// widen-only window (base entries zero) starts dormant and only
    /// filters while degradation holds it widened.
    live: bool,
    spec: WindowSpec,
    fold: bool,
    last_tid: Option<u8>,
}

impl IdempotencyWindow {
    fn new(entries: usize, widen_entries: usize, class: IdempotencyClass) -> Option<Self> {
        let spec = *class.spec()?;
        if entries == 0 && widen_entries == 0 {
            return None;
        }
        // Clamp before rounding: the ceiling is itself a power of two,
        // and `next_power_of_two` on an un-clamped huge value would
        // overflow in debug builds.
        let round = |n: usize| n.min(MAX_WINDOW_ENTRIES).next_power_of_two();
        let base_len = if entries == 0 { 0 } else { round(entries) };
        let len = round(widen_entries.max(1)).max(base_len.max(1));
        let base_live = base_len > 0;
        // A dormant base window keeps the base mask equal to the wide
        // one; liveness, not the mask, is what keeps it inert.
        let base_mask = if base_live { base_len - 1 } else { len - 1 };
        Some(IdempotencyWindow {
            slots: vec![None; len],
            mask: base_mask,
            base_mask,
            base_live,
            wide_mask: len - 1,
            live: base_live,
            spec,
            fold: matches!(class, IdempotencyClass::Fold(_)),
            last_tid: None,
        })
    }

    fn key_addr(&self, rec: &EventRecord) -> u64 {
        rec.addr >> self.spec.addr_granule_log2
    }

    fn index(&self, rec: &EventRecord) -> usize {
        let h = rec.pc.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ self.key_addr(rec).wrapping_mul(0xd6e8_feb8_6659_fd93)
            ^ u64::from(rec.tid).wrapping_mul(0xa24b_aed4_963e_e407);
        (h >> 32) as usize & self.mask
    }

    fn matches(entry: &Entry, rec: &EventRecord, granule_log2: u8) -> bool {
        entry.rec.pc == rec.pc
            && entry.rec.tid == rec.tid
            && entry.rec.kind == rec.kind
            && entry.rec.size == rec.size
            && entry.rec.addr >> granule_log2 == rec.addr >> granule_log2
    }

    /// Emits the fold summaries an entry owes (nothing for window-class
    /// contracts, or when no duplicate was suppressed).
    fn settle(fold: bool, entry: Entry, out: &mut Vec<EventRecord>, folded: &mut u64) {
        if !fold || entry.hits == 0 {
            return;
        }
        let width = entry.rec.size;
        let is_store = entry.rec.kind == EventKind::Store;
        let mut left = entry.hits;
        while left > 0 {
            let count = left.min(u64::from(u32::MAX));
            out.push(EventRecord::repeat(
                entry.rec.pc,
                entry.rec.tid,
                entry.rec.addr,
                width,
                is_store,
                count as u32,
            ));
            *folded += 1;
            left -= count;
        }
    }

    /// Drops every entry, emitting owed fold summaries in slot order.
    fn flush(&mut self, out: &mut Vec<EventRecord>, folded: &mut u64) {
        for slot in &mut self.slots {
            if let Some(entry) = slot.take() {
                Self::settle(self.fold, entry, out, folded);
            }
        }
    }
}

/// The single capture-pass predicate every producer runs: the optional
/// address-range filter composed with the per-lifeguard idempotency
/// window. One [`capture_into`](Self::capture_into) call per retired
/// record decides what enters the log; the two filters cannot drift
/// between execution modes because the modes share this code.
#[derive(Debug, Clone)]
pub struct CaptureFilter {
    range: Option<AddrRangeFilter>,
    window: Option<IdempotencyWindow>,
    stats: CaptureStats,
}

impl CaptureFilter {
    /// Creates the composed filter. `window_entries` is the requested
    /// window capacity (rounded up to a power of two, clamped to
    /// [`MAX_WINDOW_ENTRIES`]); zero — or an [`IdempotencyClass::None`]
    /// contract — disables dedup entirely, and with no range filter
    /// either, the pass degenerates to shipping every record untouched.
    ///
    /// `widen_entries` is the widen reserve adaptive degradation may
    /// switch to: the window's table is allocated at that size (clamped
    /// like everything else) but runs at `window_entries` until
    /// [`widen_window`](Self::widen_window) switches it over. With
    /// `window_entries == 0` the window starts dormant and only filters
    /// while widened — degradation can switch dedup *on*, not just make
    /// it bigger. Zero means no reserve.
    #[must_use]
    pub fn new(
        range: Option<AddrRangeFilter>,
        window_entries: usize,
        widen_entries: usize,
        class: IdempotencyClass,
    ) -> Self {
        CaptureFilter {
            range,
            window: IdempotencyWindow::new(window_entries, widen_entries, class),
            stats: CaptureStats::default(),
        }
    }

    /// Whether the pass is a no-op (no range filter, no active window):
    /// [`capture_into`](Self::capture_into) then ships the record
    /// directly, skipping the scratch-buffer plumbing on the default
    /// (unfiltered) hot path.
    fn is_passthrough(&self) -> bool {
        self.range.is_none() && !self.window.as_ref().is_some_and(|w| w.live)
    }

    /// Switches the window to its full (widened) capacity. Sound under
    /// any window contract: the spec is unchanged, so a wider window
    /// only suppresses more duplicates under the same contract; entries
    /// keyed under the old mask merely stop being found, costing dedup
    /// efficiency, never soundness (their pending fold counts still
    /// settle at the next flush, which walks the whole table). Returns
    /// whether anything changed: nothing does without a widen reserve.
    pub fn widen_window(&mut self) -> bool {
        match &mut self.window {
            Some(w) if !w.live || w.mask != w.wide_mask => {
                w.mask = w.wide_mask;
                w.live = true;
                true
            }
            _ => false,
        }
    }

    /// The scratch-buffer half of
    /// [`tighten_window_into`](Self::tighten_window_into): `out` is
    /// cleared and refilled with the summaries to ship.
    fn tighten_window(&mut self, out: &mut Vec<EventRecord>) {
        out.clear();
        if let Some(w) = &mut self.window {
            w.flush(out, &mut self.stats.folded);
            w.mask = w.base_mask;
            w.live = w.base_live;
            w.last_tid = None;
        }
        self.stats.shipped += out.len() as u64;
    }

    /// Ends a widened interval: restores the window to its configured
    /// capacity, flushing it first, and hands the flushed fold summaries
    /// to `ship`, mirroring [`finish_into`](Self::finish_into). The flush
    /// is the "what must flush on re-tightening" half of the degradation
    /// contract: every pending fold count settles and every cleared
    /// verdict is forgotten, so post-tighten capture behaves as if the
    /// widened interval never existed.
    pub fn tighten_window_into(
        &mut self,
        scratch: &mut Vec<EventRecord>,
        mut ship: impl FnMut(&EventRecord),
    ) {
        self.tighten_window(scratch);
        for rec in scratch.iter() {
            ship(rec);
        }
    }

    /// Runs the capture pass for one retired record. `out` is cleared and
    /// refilled with the records that must enter the log, in shipping
    /// order: any fold summaries this record's arrival flushed out of the
    /// window first, then the record itself unless it was filtered.
    fn capture(&mut self, rec: &EventRecord, out: &mut Vec<EventRecord>) {
        out.clear();
        self.stats.captured += 1;
        if let Some(range) = &self.range {
            if !range.passes(rec) {
                self.stats.range_filtered += 1;
                return;
            }
        }
        if let Some(window) = self.window.as_mut().filter(|w| w.live) {
            // Cross-thread interleaving can move per-address state the
            // cleared verdicts depend on (LockSet's Eraser machine).
            if window.spec.flush_on_thread_switch && window.last_tid != Some(rec.tid) {
                if window.last_tid.is_some() {
                    window.flush(out, &mut self.stats.folded);
                }
                window.last_tid = Some(rec.tid);
            }
            // Events that change verdicts wholesale flush everything —
            // *before* they ship, so the lifeguard observes the summaries
            // ahead of the invalidating event (syscall containment).
            if window.spec.invalidate_on.contains(rec.kind) {
                window.flush(out, &mut self.stats.folded);
            }
            if rec.is_memory() {
                let idx = window.index(rec);
                let granule_log2 = window.spec.addr_granule_log2;
                let fold = window.fold;
                let slot = &mut window.slots[idx];
                match slot {
                    Some(entry) if IdempotencyWindow::matches(entry, rec, granule_log2) => {
                        // Any flush this record triggered emptied every
                        // slot, so a duplicate match implies nothing was
                        // emitted ahead of it.
                        debug_assert!(out.is_empty(), "flush and dedup-hit are exclusive");
                        entry.hits += 1;
                        self.stats.deduped += 1;
                        return;
                    }
                    _ => {
                        if let Some(evicted) = slot.take() {
                            IdempotencyWindow::settle(fold, evicted, out, &mut self.stats.folded);
                        }
                        *slot = Some(Entry { rec: *rec, hits: 0 });
                    }
                }
            }
        }
        out.push(*rec);
        self.stats.shipped += out.len() as u64;
    }

    /// Ends the capture stream: flushes the window so fold-class
    /// lifeguards receive every outstanding duplicate count. `out` is
    /// cleared and refilled with the summaries to ship.
    fn finish(&mut self, out: &mut Vec<EventRecord>) {
        out.clear();
        if let Some(window) = &mut self.window {
            window.flush(out, &mut self.stats.folded);
        }
        self.stats.shipped += out.len() as u64;
    }

    /// The one capture loop every producer runs: decides `rec`'s fate and
    /// hands each record that must enter the log to `ship`, in order. On
    /// the passthrough fast path this is a ledger tally plus one `ship`
    /// call — no scratch-buffer traffic. Keeping the shipping protocol
    /// here (rather than copy-pasted into each run mode) is what makes
    /// "the modes cannot drift" true.
    ///
    /// # Examples
    ///
    /// ```
    /// use lba_lifeguard::{CaptureFilter, IdempotencyClass, WindowSpec};
    /// use lba_record::{EventMask, EventRecord};
    ///
    /// let class = IdempotencyClass::Window(WindowSpec {
    ///     addr_granule_log2: 4,
    ///     invalidate_on: EventMask::of(&[lba_record::EventKind::Free]),
    ///     flush_on_thread_switch: false,
    /// });
    /// let mut filter = CaptureFilter::new(None, 64, 0, class);
    /// let (mut scratch, mut shipped) = (Vec::new(), Vec::new());
    /// let load = EventRecord::load(0x1000, 0, None, None, 0x4000_0000, 4);
    /// filter.capture_into(&load, &mut scratch, |rec| shipped.push(*rec));
    /// assert_eq!(shipped.len(), 1, "first occurrence ships");
    /// filter.capture_into(&load, &mut scratch, |rec| shipped.push(*rec));
    /// assert_eq!(shipped.len(), 1, "duplicate suppressed");
    /// assert_eq!(filter.stats().deduped, 1);
    /// ```
    pub fn capture_into(
        &mut self,
        rec: &EventRecord,
        scratch: &mut Vec<EventRecord>,
        mut ship: impl FnMut(&EventRecord),
    ) {
        if self.is_passthrough() {
            self.stats.captured += 1;
            self.stats.shipped += 1;
            ship(rec);
        } else {
            self.capture(rec, scratch);
            for rec in scratch.iter() {
                ship(rec);
            }
        }
    }

    /// The end-of-stream counterpart of
    /// [`capture_into`](Self::capture_into): settles outstanding fold
    /// counts into `ship`.
    /// Producers call this once, after the last retired record and before
    /// closing their channel, or fold-class totals lose their tail.
    pub fn finish_into(
        &mut self,
        scratch: &mut Vec<EventRecord>,
        mut ship: impl FnMut(&EventRecord),
    ) {
        self.finish(scratch);
        for rec in scratch.iter() {
            ship(rec);
        }
    }

    /// What the capture pass did so far.
    #[must_use]
    pub fn stats(&self) -> CaptureStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_class(granule: u8, triggers: &[EventKind], thread_switch: bool) -> IdempotencyClass {
        IdempotencyClass::Window(WindowSpec {
            addr_granule_log2: granule,
            invalidate_on: EventMask::of(triggers),
            flush_on_thread_switch: thread_switch,
        })
    }

    fn fold_class(granule: u8, triggers: &[EventKind]) -> IdempotencyClass {
        IdempotencyClass::Fold(WindowSpec {
            addr_granule_log2: granule,
            invalidate_on: EventMask::of(triggers),
            flush_on_thread_switch: false,
        })
    }

    fn load(pc: u64, addr: u64) -> EventRecord {
        EventRecord::load(pc, 0, Some(1), Some(2), addr, 4)
    }

    fn drive(filter: &mut CaptureFilter, records: &[EventRecord]) -> Vec<EventRecord> {
        let mut shipped = Vec::new();
        let mut out = Vec::new();
        for rec in records {
            filter.capture(rec, &mut out);
            shipped.extend_from_slice(&out);
        }
        filter.finish(&mut out);
        shipped.extend_from_slice(&out);
        shipped
    }

    #[test]
    fn duplicates_within_the_window_are_suppressed() {
        let mut f = CaptureFilter::new(None, 16, 0, window_class(0, &[], false));
        let shipped = drive(&mut f, &[load(0x1000, 0x40), load(0x1000, 0x40)]);
        assert_eq!(shipped.len(), 1);
        let stats = f.stats();
        assert_eq!(stats.captured, 2);
        assert_eq!(stats.shipped, 1);
        assert_eq!(stats.deduped, 1);
    }

    #[test]
    fn different_pc_addr_tid_kind_or_size_is_not_a_duplicate() {
        let base = load(0x1000, 0x40);
        let variants = [
            load(0x1008, 0x40),                                       // pc
            load(0x1000, 0x80),                                       // addr
            EventRecord::load(0x1000, 1, Some(1), Some(2), 0x40, 4),  // tid
            EventRecord::store(0x1000, 0, Some(1), Some(2), 0x40, 4), // kind
            EventRecord::load(0x1000, 0, Some(1), Some(2), 0x40, 8),  // size
        ];
        for variant in variants {
            let mut f = CaptureFilter::new(None, 1024, 0, window_class(0, &[], false));
            let shipped = drive(&mut f, &[base, variant]);
            assert_eq!(shipped.len(), 2, "{variant:?} must not be suppressed");
        }
    }

    #[test]
    fn granule_groups_addresses() {
        let mut f = CaptureFilter::new(None, 16, 0, window_class(4, &[], false));
        // Same 16-byte granule: the second is a duplicate despite a
        // different byte offset.
        let shipped = drive(&mut f, &[load(0x1000, 0x40), load(0x1000, 0x4c)]);
        assert_eq!(shipped.len(), 1);
        // Next granule: ships.
        let mut f = CaptureFilter::new(None, 16, 0, window_class(4, &[], false));
        let shipped = drive(&mut f, &[load(0x1000, 0x40), load(0x1000, 0x50)]);
        assert_eq!(shipped.len(), 2);
    }

    #[test]
    fn invalidating_event_reopens_the_window() {
        let mut f = CaptureFilter::new(None, 16, 0, window_class(0, &[EventKind::Free], false));
        let free = EventRecord {
            pc: 0x2000,
            kind: EventKind::Free,
            tid: 0,
            in1: None,
            in2: None,
            out: None,
            addr: 0x40,
            size: 0,
        };
        let shipped = drive(&mut f, &[load(0x1000, 0x40), free, load(0x1000, 0x40)]);
        assert_eq!(shipped.len(), 3, "the re-check after free must ship");
    }

    #[test]
    fn thread_switch_flushes_when_requested() {
        let t0 = load(0x1000, 0x40);
        let t1 = EventRecord::load(0x1008, 1, Some(1), Some(2), 0x80, 4);
        let mut f = CaptureFilter::new(None, 16, 0, window_class(0, &[], true));
        let shipped = drive(&mut f, &[t0, t1, t0]);
        assert_eq!(shipped.len(), 3, "t0's re-check after t1 ran must ship");
        let mut f = CaptureFilter::new(None, 16, 0, window_class(0, &[], false));
        let shipped = drive(&mut f, &[t0, t1, t0]);
        assert_eq!(shipped.len(), 2, "without the trigger it deduplicates");
    }

    #[test]
    fn fold_contract_emits_exact_summaries() {
        let mut f = CaptureFilter::new(None, 16, 0, fold_class(6, &[]));
        let shipped = drive(
            &mut f,
            &[load(0x1000, 0x40), load(0x1000, 0x44), load(0x1000, 0x78)],
        );
        // One shipped load + one summary covering the two same-line
        // duplicates (granule 6: all three share the 0x40 line).
        assert_eq!(shipped.len(), 2);
        assert_eq!(shipped[0], load(0x1000, 0x40));
        let summary = shipped[1];
        assert_eq!(summary.kind, EventKind::Repeat);
        assert_eq!(summary.repeat_count(), 2);
        assert_eq!(summary.repeat_width(), 4);
        assert!(!summary.repeat_is_store());
        assert_eq!(summary.pc, 0x1000);
        let stats = f.stats();
        assert_eq!(stats.deduped, 2);
        assert_eq!(stats.folded, 1);
        assert_eq!(stats.shipped, 2);
    }

    #[test]
    fn fold_eviction_settles_before_the_evictor_ships() {
        // A one-slot window: the second distinct access evicts the first,
        // whose pending count must surface as a summary ahead of it.
        let mut f = CaptureFilter::new(None, 1, 0, fold_class(0, &[]));
        let a = load(0x1000, 0x40);
        let b = load(0x1008, 0x99);
        let mut out = Vec::new();
        f.capture(&a, &mut out);
        assert_eq!(out.as_slice(), &[a]);
        f.capture(&a, &mut out);
        assert!(out.is_empty());
        f.capture(&b, &mut out);
        assert_eq!(out.len(), 2, "summary for `a`, then `b`");
        assert_eq!(out[0].kind, EventKind::Repeat);
        assert_eq!(out[0].repeat_count(), 1);
        assert_eq!(out[1], b);
    }

    #[test]
    fn none_class_and_zero_window_pass_everything() {
        for mut f in [
            CaptureFilter::new(None, 1024, 0, IdempotencyClass::None),
            CaptureFilter::new(None, 0, 0, window_class(0, &[], false)),
        ] {
            assert!(f.is_passthrough());
            let records = [load(0x1000, 0x40), load(0x1000, 0x40)];
            let shipped = drive(&mut f, &records);
            assert_eq!(shipped.as_slice(), &records);
            assert_eq!(f.stats().deduped, 0);
            assert_eq!(f.stats().captured, 2);
            assert_eq!(f.stats().shipped, 2);
        }
        // A filtering configuration is not a passthrough.
        assert!(!CaptureFilter::new(None, 8, 0, window_class(0, &[], false)).is_passthrough());
    }

    #[test]
    fn tally_passthrough_matches_capture_on_a_noop_filter() {
        // `capture_into`'s fast path must ship and account exactly what
        // the full pass does on a passthrough filter.
        let mut slow = CaptureFilter::new(None, 0, 0, IdempotencyClass::None);
        let mut fast = slow.clone();
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        let (mut slow_shipped, mut fast_shipped) = (Vec::new(), Vec::new());
        for i in 0..5u64 {
            let rec = load(0x1000 + i, 0x40);
            slow.capture(&rec, &mut out);
            slow_shipped.extend_from_slice(&out);
            fast.capture_into(&rec, &mut scratch, |r| fast_shipped.push(*r));
        }
        assert_eq!(fast_shipped, slow_shipped);
        assert_eq!(fast.stats(), slow.stats());
    }

    #[test]
    fn range_filter_composes_in_the_same_pass() {
        let range = AddrRangeFilter::new(vec![(0x40, 0x100)]);
        let mut f = CaptureFilter::new(Some(range), 16, 0, window_class(0, &[], false));
        let shipped = drive(
            &mut f,
            &[
                load(0x1000, 0x40),  // in range: ships
                load(0x1000, 0x200), // out of range: dropped
                load(0x1000, 0x40),  // duplicate: suppressed
            ],
        );
        assert_eq!(shipped.len(), 1);
        let stats = f.stats();
        assert_eq!(stats.range_filtered, 1);
        assert_eq!(stats.deduped, 1);
        assert_eq!(stats.captured, 3);
        assert_eq!(stats.shipped, 1);
    }

    #[test]
    fn non_memory_events_always_ship() {
        let mut f = CaptureFilter::new(None, 16, 0, window_class(0, &[], false));
        let alloc = EventRecord {
            pc: 0x1000,
            kind: EventKind::Alloc,
            tid: 0,
            in1: None,
            in2: None,
            out: None,
            addr: 0x40,
            size: 64,
        };
        let shipped = drive(&mut f, &[alloc, alloc, alloc]);
        assert_eq!(shipped.len(), 3, "only loads/stores are dedup candidates");
    }

    #[test]
    fn astronomical_window_request_clamps_instead_of_allocating() {
        // The window is allocated eagerly; a huge configured size must
        // clamp to the ceiling, not attempt a terabyte Vec (or overflow
        // next_power_of_two in debug builds).
        let mut f = CaptureFilter::new(None, usize::MAX, 0, window_class(0, &[], false));
        assert!(!f.is_passthrough());
        let shipped = drive(&mut f, &[load(0x1000, 0x40), load(0x1000, 0x40)]);
        assert_eq!(shipped.len(), 1, "the clamped window still dedups");
    }

    #[test]
    fn stats_balance() {
        let mut f = CaptureFilter::new(None, 4, 0, fold_class(0, &[EventKind::Syscall]));
        let mut records = Vec::new();
        for i in 0..200u64 {
            records.push(load(0x1000 + (i % 7) * 8, 0x40 + (i % 5) * 4));
        }
        let shipped = drive(&mut f, &records);
        let stats = f.stats();
        assert_eq!(stats.captured, 200);
        assert_eq!(stats.shipped, shipped.len() as u64);
        assert_eq!(
            stats.shipped,
            stats.captured - stats.range_filtered - stats.deduped + stats.folded
        );
        // Exactness: summaries plus shipped accesses cover every capture.
        let replayed: u64 = shipped
            .iter()
            .map(|r| {
                if r.kind == EventKind::Repeat {
                    u64::from(r.repeat_count())
                } else {
                    1
                }
            })
            .sum();
        assert_eq!(replayed, 200);
    }

    #[test]
    fn widen_only_window_starts_dormant() {
        let mut f = CaptureFilter::new(None, 0, 64, window_class(0, &[], false));
        assert!(f.is_passthrough(), "dormant until widened");
        let mut out = Vec::new();
        f.capture(&load(0x1000, 0x40), &mut out);
        f.capture(&load(0x1000, 0x40), &mut out);
        assert_eq!(out.as_slice(), &[load(0x1000, 0x40)], "no dedup yet");
        assert!(f.widen_window());
        assert!(!f.is_passthrough());
        f.capture(&load(0x1000, 0x40), &mut out);
        f.capture(&load(0x1000, 0x40), &mut out);
        assert!(out.is_empty(), "widened window dedups");
        f.tighten_window(&mut out);
        assert!(f.is_passthrough(), "tighten restores dormancy");
        f.capture(&load(0x1000, 0x40), &mut out);
        assert_eq!(out.len(), 1, "post-tighten capture is full fidelity");
        assert_eq!(f.stats().deduped, 1);
    }

    #[test]
    fn tighten_settles_fold_counts_exactly() {
        let mut f = CaptureFilter::new(None, 0, 16, fold_class(6, &[]));
        assert!(f.widen_window());
        let mut out = Vec::new();
        let mut shipped = Vec::new();
        for _ in 0..5 {
            f.capture(&load(0x1000, 0x40), &mut out);
            shipped.extend_from_slice(&out);
        }
        f.tighten_window(&mut out);
        shipped.extend_from_slice(&out);
        // One access + one summary covering the four suppressed hits.
        assert_eq!(shipped.len(), 2);
        assert_eq!(shipped[1].kind, EventKind::Repeat);
        assert_eq!(shipped[1].repeat_count(), 4);
        let stats = f.stats();
        assert_eq!(
            stats.shipped,
            stats.captured - stats.range_filtered - stats.deduped + stats.folded
        );
    }

    #[test]
    fn widening_a_live_window_keeps_the_ledger_balanced() {
        let mut f = CaptureFilter::new(None, 4, 256, fold_class(0, &[]));
        assert!(!f.is_passthrough());
        let mut out = Vec::new();
        let mut shipped = 0u64;
        for i in 0..300u64 {
            f.capture(&load(0x1000 + (i % 11) * 8, 0x40 + (i % 13) * 4), &mut out);
            shipped += out.len() as u64;
            if i == 100 {
                assert!(f.widen_window());
            }
            if i == 200 {
                f.tighten_window(&mut out);
                shipped += out.len() as u64;
            }
        }
        f.finish(&mut out);
        shipped += out.len() as u64;
        let stats = f.stats();
        assert_eq!(stats.shipped, shipped);
        assert_eq!(
            stats.shipped,
            stats.captured - stats.range_filtered - stats.deduped + stats.folded
        );
    }

    #[test]
    fn widen_without_reserve_is_a_noop() {
        let mut f = CaptureFilter::new(None, 16, 0, window_class(0, &[], false));
        assert!(!f.widen_window(), "no reserve: already at full capacity");
        let mut none = CaptureFilter::new(None, 0, 0, IdempotencyClass::None);
        assert!(!none.widen_window(), "None-class never grows a window");
    }
}
