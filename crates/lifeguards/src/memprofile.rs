//! MemProfile: a performance-monitoring lifeguard.
//!
//! The paper positions LBA as "general-purpose … aimed to enable efficient
//! monitoring for a wide variety of program bugs, security attacks, and
//! **performance problems**" (§1). The three evaluation lifeguards are all
//! bug detectors; this fourth lifeguard demonstrates the performance side:
//! it builds a memory profile from the log — hot cache lines, per-PC
//! access counts, allocation statistics — without touching the
//! application, exactly the always-on profiling use case.
//!
//! MemProfile never reports findings; its output is a [`MemoryProfile`].

use std::collections::HashMap;

use lba_lifeguard::{
    AlwaysSettled, DegradationPolicy, HandlerCtx, IdempotencyClass, Lifeguard, WindowSpec,
};
use lba_record::{EventKind, EventMask, EventRecord};

/// Cache-line granularity used for the hot-line histogram.
const LINE_BYTES: u64 = 64;

/// The profile accumulated by [`MemProfile`].
#[derive(Debug, Clone, Default)]
pub struct MemoryProfile {
    /// Total loads observed.
    pub loads: u64,
    /// Total stores observed.
    pub stores: u64,
    /// Bytes moved by loads + stores.
    pub bytes_accessed: u64,
    /// Heap allocations observed.
    pub allocs: u64,
    /// Heap frees observed.
    pub frees: u64,
    /// Total bytes requested from the allocator.
    pub bytes_allocated: u64,
    /// Running live-allocation estimate (allocated − freed blocks' sizes).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_live_bytes: u64,
    line_counts: HashMap<u64, u64>,
    pc_counts: HashMap<u64, u64>,
    block_sizes: HashMap<u64, u64>,
}

impl MemoryProfile {
    /// The `n` most-accessed 64-byte lines as `(line_address, accesses)`,
    /// hottest first.
    #[must_use]
    pub fn hottest_lines(&self, n: usize) -> Vec<(u64, u64)> {
        let mut lines: Vec<(u64, u64)> = self.line_counts.iter().map(|(&a, &c)| (a, c)).collect();
        lines.sort_unstable_by_key(|&(addr, count)| (std::cmp::Reverse(count), addr));
        lines.truncate(n);
        lines
    }

    /// The `n` instructions issuing the most memory accesses, as
    /// `(pc, accesses)`, hottest first.
    #[must_use]
    pub fn hottest_pcs(&self, n: usize) -> Vec<(u64, u64)> {
        let mut pcs: Vec<(u64, u64)> = self.pc_counts.iter().map(|(&a, &c)| (a, c)).collect();
        pcs.sort_unstable_by_key(|&(pc, count)| (std::cmp::Reverse(count), pc));
        pcs.truncate(n);
        pcs
    }

    /// Number of distinct 64-byte lines touched (working-set estimate).
    #[must_use]
    pub fn distinct_lines(&self) -> usize {
        self.line_counts.len()
    }
}

/// The performance-profiling lifeguard.
///
/// # Examples
///
/// ```
/// use lba_cache::{MemSystem, MemSystemConfig};
/// use lba_lifeguard::DispatchEngine;
/// use lba_lifeguards::MemProfile;
/// use lba_record::EventRecord;
///
/// let mut mem = MemSystem::new(MemSystemConfig::dual_core());
/// let mut findings = Vec::new();
/// let engine = DispatchEngine::default();
/// let mut profiler = MemProfile::new();
/// for i in 0..10 {
///     let rec = EventRecord::load(0x1000, 0, Some(1), Some(2), 0x4000_0000 + i, 1);
///     engine.deliver(&mut profiler, &rec, &mut mem, 1, &mut findings);
/// }
/// assert_eq!(profiler.profile().loads, 10);
/// assert_eq!(profiler.profile().hottest_lines(1)[0], (0x4000_0000, 10));
/// ```
#[derive(Debug, Default)]
pub struct MemProfile {
    profile: MemoryProfile,
}

impl MemProfile {
    /// Creates an empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The profile gathered so far.
    #[must_use]
    pub fn profile(&self) -> &MemoryProfile {
        &self.profile
    }

    /// Consumes the profiler, returning the profile.
    #[must_use]
    pub fn into_profile(self) -> MemoryProfile {
        self.profile
    }
}

impl Lifeguard for MemProfile {
    fn name(&self) -> &'static str {
        "memprofile"
    }

    fn subscriptions(&self) -> EventMask {
        EventMask::of(&[
            EventKind::Load,
            EventKind::Store,
            EventKind::Alloc,
            EventKind::Free,
            EventKind::Repeat,
        ])
    }

    /// Capture-side soundness contract: MemProfile's duplicates are
    /// meaningful, but only as *counts* — a repeated access at the same
    /// `pc` and 64-byte line contributes exactly `+1` to the same load or
    /// store counter, the same line and pc histogram buckets, and
    /// `+size` bytes. So duplicates may be folded: the capture filter
    /// accumulates them per window entry and re-emits one
    /// [`EventKind::Repeat`] summary on eviction or flush, which the
    /// `on_event` handler multiplies back in. Totals are exact at every
    /// window flush point (syscalls, via the trigger below, and end of
    /// program); only the *intermediate* profile between flushes lags.
    /// Alloc/free never flush: allocation statistics ride un-deduped
    /// events, and `peak_live_bytes` depends only on their order, which
    /// filtering preserves.
    fn idempotency(&self) -> IdempotencyClass {
        IdempotencyClass::Fold(WindowSpec {
            addr_granule_log2: LINE_BYTES.trailing_zeros() as u8,
            invalidate_on: EventMask::of(&[EventKind::Syscall]),
            flush_on_thread_switch: false,
        })
    }

    /// Degradation-soundness contract: MemProfile has no findings to
    /// protect (identical findings are trivially kept — the degraded and
    /// undegraded finding sets are both empty); what degrades is the
    /// *profile*, from exact counts to a sampled estimate, and only
    /// while the load signal is past threshold.
    ///
    /// * **Window widening** — a wider fold window only accumulates
    ///   more duplicates per `Repeat` summary; totals stay exact at
    ///   every flush point.
    /// * **Droppable kinds** — everything the profile never reads:
    ///   control-flow, lock, input and liveness records. `syscall` is
    ///   *excluded* even though unread, because the fold window
    ///   invalidates on it — dropping it would defer the flush that
    ///   keeps totals exact at syscall boundaries.
    /// * **Sampling** — [`AlwaysSettled`]: with no verdicts at stake,
    ///   every access is settled by definition, so long-hot 64-byte
    ///   lines (the fold window's granule) demote to 1-in-N capture and
    ///   the histogram under-counts (by exactly the amount
    ///   `DegradationStats::sampled_out` records) until load falls. A
    ///   syscall, the window's one invalidator, repromotes every region
    ///   and snaps capture back; findings cannot occur.
    fn degradation(&self) -> Option<DegradationPolicy> {
        Some(DegradationPolicy {
            droppable: EventMask::of(&[
                EventKind::Alu,
                EventKind::Branch,
                EventKind::Jump,
                EventKind::IndirectJump,
                EventKind::Call,
                EventKind::Return,
                EventKind::Lock,
                EventKind::Unlock,
                EventKind::Recv,
                EventKind::ThreadEnd,
            ]),
            make_classifier: Some(|| Box::new(AlwaysSettled)),
        })
    }

    fn on_event(&mut self, rec: &EventRecord, ctx: &mut HandlerCtx<'_>) {
        let p = &mut self.profile;
        match rec.kind {
            EventKind::Load | EventKind::Store => {
                if rec.kind == EventKind::Load {
                    p.loads += 1;
                } else {
                    p.stores += 1;
                }
                p.bytes_accessed += u64::from(rec.size);
                *p.line_counts
                    .entry(rec.addr & !(LINE_BYTES - 1))
                    .or_insert(0) += 1;
                *p.pc_counts.entry(rec.pc).or_insert(0) += 1;
                // Two hash-table increments: ~4 instructions each, plus
                // the line/pc arithmetic.
                ctx.alu(10);
            }
            EventKind::Repeat => {
                // A capture-side fold summary: `count` suppressed
                // duplicates of one access, multiplied back in so the
                // totals match an unfiltered run exactly — one handler
                // invocation instead of `count`.
                let count = u64::from(rec.repeat_count());
                if rec.repeat_is_store() {
                    p.stores += count;
                } else {
                    p.loads += count;
                }
                p.bytes_accessed += count * u64::from(rec.repeat_width());
                *p.line_counts
                    .entry(rec.addr & !(LINE_BYTES - 1))
                    .or_insert(0) += count;
                *p.pc_counts.entry(rec.pc).or_insert(0) += count;
                // Same bucket work as a single access, plus the count
                // multiplies.
                ctx.alu(12);
            }
            EventKind::Alloc => {
                p.allocs += 1;
                p.bytes_allocated += u64::from(rec.size);
                p.live_bytes += u64::from(rec.size);
                p.peak_live_bytes = p.peak_live_bytes.max(p.live_bytes);
                if rec.addr != 0 {
                    p.block_sizes.insert(rec.addr, u64::from(rec.size));
                }
                ctx.alu(8);
            }
            EventKind::Free => {
                p.frees += 1;
                if let Some(size) = p.block_sizes.remove(&rec.addr) {
                    p.live_bytes = p.live_bytes.saturating_sub(size);
                }
                ctx.alu(8);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lba_cache::{MemSystem, MemSystemConfig};
    use lba_lifeguard::DispatchEngine;

    struct Rig {
        mem: MemSystem,
        engine: DispatchEngine,
        findings: Vec<lba_lifeguard::Finding>,
        lg: MemProfile,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                mem: MemSystem::new(MemSystemConfig::dual_core()),
                engine: DispatchEngine::default(),
                findings: Vec::new(),
                lg: MemProfile::new(),
            }
        }

        fn deliver(&mut self, rec: EventRecord) {
            self.engine
                .deliver(&mut self.lg, &rec, &mut self.mem, 1, &mut self.findings);
        }
    }

    #[test]
    fn counts_loads_stores_and_bytes() {
        let mut rig = Rig::new();
        rig.deliver(EventRecord::load(0x1000, 0, None, None, 0x100, 8));
        rig.deliver(EventRecord::store(0x1008, 0, None, None, 0x108, 4));
        let p = rig.lg.profile();
        assert_eq!(p.loads, 1);
        assert_eq!(p.stores, 1);
        assert_eq!(p.bytes_accessed, 12);
    }

    #[test]
    fn hot_lines_sorted_by_count() {
        let mut rig = Rig::new();
        for _ in 0..5 {
            rig.deliver(EventRecord::load(0x1000, 0, None, None, 0x40, 4));
        }
        for _ in 0..3 {
            rig.deliver(EventRecord::load(0x1008, 0, None, None, 0x100, 4));
        }
        let hot = rig.lg.profile().hottest_lines(2);
        assert_eq!(hot, vec![(0x40, 5), (0x100, 3)]);
        assert_eq!(rig.lg.profile().distinct_lines(), 2);
    }

    #[test]
    fn hot_pcs_identify_the_access_site() {
        let mut rig = Rig::new();
        for i in 0..4 {
            rig.deliver(EventRecord::load(0x2000, 0, None, None, 0x40 * i, 4));
        }
        rig.deliver(EventRecord::store(0x2008, 0, None, None, 0x999, 4));
        assert_eq!(rig.lg.profile().hottest_pcs(1), vec![(0x2000, 4)]);
    }

    #[test]
    fn allocation_stats_track_peak_live() {
        let mut rig = Rig::new();
        let alloc = |addr: u64, size: u32| EventRecord {
            pc: 0x1000,
            kind: EventKind::Alloc,
            tid: 0,
            in1: None,
            in2: None,
            out: Some(1),
            addr,
            size,
        };
        let free = |addr: u64| EventRecord {
            pc: 0x1008,
            kind: EventKind::Free,
            tid: 0,
            in1: Some(1),
            in2: None,
            out: None,
            addr,
            size: 0,
        };
        rig.deliver(alloc(0x4000_0000, 100));
        rig.deliver(alloc(0x4000_1000, 200));
        rig.deliver(free(0x4000_0000));
        rig.deliver(alloc(0x4000_2000, 50));
        let p = rig.lg.profile();
        assert_eq!(p.allocs, 3);
        assert_eq!(p.frees, 1);
        assert_eq!(p.bytes_allocated, 350);
        assert_eq!(p.live_bytes, 250);
        assert_eq!(p.peak_live_bytes, 300);
    }

    #[test]
    fn never_reports_findings() {
        let mut rig = Rig::new();
        for i in 0..100 {
            rig.deliver(EventRecord::load(0x1000, 0, None, None, i * 64, 8));
        }
        assert!(rig.findings.is_empty());
    }
}
