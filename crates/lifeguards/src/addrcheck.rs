//! AddrCheck: allocation-state checking (unallocated accesses, double
//! frees, leaks).

use std::collections::{HashMap, HashSet};

use lba_lifeguard::{
    DegradationPolicy, Finding, FindingKind, HandlerCtx, IdempotencyClass, Lifeguard,
    RegionClassifier, ShadowMemory, WindowSpec,
};
use lba_mem::layout;
use lba_record::{EventKind, EventMask, EventRecord};

/// Shadow region base for AddrCheck's allocation bitmap.
const SHADOW_BASE: u64 = 0x10_0000_0000;

/// Heap granule shadowed by one state byte. The simulated allocator aligns
/// blocks to 16 bytes, so a 16-byte granule loses no precision.
const GRANULE: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    Live { len: u64 },
    Freed,
}

/// The AddrCheck lifeguard.
///
/// Tracks every heap block from its `alloc` event, marks the covered
/// granules allocated in shadow memory, checks each heap load/store against
/// the shadow state, validates `free` events against the block table, and
/// reports still-live blocks as leaks at end of log.
///
/// Accesses outside the heap (stack, globals, code) are not checked —
/// mirroring the original Addrcheck tool's heap focus.
#[derive(Debug, Default)]
pub struct AddrCheck {
    shadow: ShadowMemory<u8>,
    blocks: HashMap<u64, BlockState>,
    /// Deduplication: one unallocated-access report per (pc, granule).
    reported_access: HashSet<(u64, u64)>,
    checked_accesses: u64,
    bad_accesses: u64,
}

impl AddrCheck {
    /// Creates an AddrCheck lifeguard with an empty heap model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap accesses checked so far.
    #[must_use]
    pub fn checked_accesses(&self) -> u64 {
        self.checked_accesses
    }

    /// Accesses that hit unallocated memory.
    #[must_use]
    pub fn bad_accesses(&self) -> u64 {
        self.bad_accesses
    }

    fn granule(addr: u64) -> u64 {
        (addr - layout::HEAP_BASE) / GRANULE
    }

    fn shadow_addr(granule: u64) -> u64 {
        SHADOW_BASE + granule
    }

    /// Marks `len` bytes from `addr` with shadow state `state`, charging
    /// chunked shadow writes (8 granule bytes per write).
    fn mark_range(&mut self, addr: u64, len: u64, state: u8, ctx: &mut HandlerCtx<'_>) {
        let first = Self::granule(addr);
        let count = len.div_ceil(GRANULE).max(1);
        self.shadow.set_range(first, count, state);
        let mut g = first;
        let end = first + count;
        while g < end {
            let chunk = (end - g).min(8);
            ctx.shadow_write(Self::shadow_addr(g), chunk as u32);
            ctx.alu(1); // loop bookkeeping
            g += chunk;
        }
    }

    fn check_access(&mut self, rec: &EventRecord, ctx: &mut HandlerCtx<'_>) {
        // Like the original Addrcheck tool, *every* access goes through the
        // addressability lookup: shadow-address arithmetic, the shadow
        // load, a boundary check when the access may straddle a granule,
        // and the state test. Only heap addresses carry allocation state.
        ctx.alu(4); // shadow address arithmetic + granule decompose
        let shadow_probe = if layout::is_heap(rec.addr) {
            Self::shadow_addr(Self::granule(rec.addr))
        } else {
            // Stack/global A-bits live in a separate always-addressable
            // shadow region; the lookup still costs a load.
            SHADOW_BASE + 0x8000_0000 + (rec.addr >> 4)
        };
        ctx.shadow_read(shadow_probe, 1);
        ctx.alu(2); // straddle check (width vs granule boundary)
        ctx.alu(2); // state test + conditional branch
        if !layout::is_heap(rec.addr) {
            return;
        }
        self.checked_accesses += 1;
        let granule = Self::granule(rec.addr);
        if self.shadow.get(granule) == 0 && self.reported_access.insert((rec.pc, granule)) {
            self.bad_accesses += 1;
            ctx.report(Finding {
                lifeguard: self.name(),
                kind: FindingKind::UnallocatedAccess,
                pc: rec.pc,
                tid: rec.tid,
                addr: rec.addr,
                message: format!(
                    "{} of {} bytes at {:#x} hits unallocated heap memory",
                    rec.kind, rec.size, rec.addr
                ),
            });
        }
    }

    fn handle_alloc(&mut self, rec: &EventRecord, ctx: &mut HandlerCtx<'_>) {
        // A failed allocation (addr 0) still retires an event.
        ctx.alu(2);
        if rec.addr == 0 {
            return;
        }
        // Block-table insert: hashing plus bucket write.
        ctx.alu(4);
        self.blocks.insert(
            rec.addr,
            BlockState::Live {
                len: u64::from(rec.size),
            },
        );
        self.mark_range(rec.addr, u64::from(rec.size), 1, ctx);
    }

    fn handle_free(&mut self, rec: &EventRecord, ctx: &mut HandlerCtx<'_>) {
        // Block-table lookup.
        ctx.alu(4);
        match self.blocks.get(&rec.addr).copied() {
            Some(BlockState::Live { len }) => {
                self.blocks.insert(rec.addr, BlockState::Freed);
                self.mark_range(rec.addr, len, 0, ctx);
            }
            Some(BlockState::Freed) => {
                ctx.report(Finding {
                    lifeguard: self.name(),
                    kind: FindingKind::DoubleFree,
                    pc: rec.pc,
                    tid: rec.tid,
                    addr: rec.addr,
                    message: format!("block {:#x} freed twice", rec.addr),
                });
            }
            None => {
                ctx.report(Finding {
                    lifeguard: self.name(),
                    kind: FindingKind::InvalidFree,
                    pc: rec.pc,
                    tid: rec.tid,
                    addr: rec.addr,
                    message: format!("free of {:#x}, which is not a block start", rec.addr),
                });
            }
        }
    }
}

/// AddrCheck's capture-side soundness oracle for region sampling: a
/// miniature mirror of the allocation state the lifeguard itself keeps,
/// rebuilt from the same `alloc`/`free` records (the classifier observes
/// every record in stream order, before any degradation decision, so it
/// never lags the verdict state downstream).
///
/// An access is *settled* when it provably cannot change AddrCheck's
/// findings: it lies outside the heap (AddrCheck ignores it), or every
/// 16-byte granule it touches is currently allocated (the shadow lookup
/// reports it clean). Accesses to freed or never-allocated heap granules
/// are never settled — they are exactly the ones that produce
/// `UnallocatedAccess` findings — so they always ship, degraded or not.
#[derive(Debug, Default)]
pub struct AllocSettled {
    /// Live blocks only (`addr → len`): a free removes its block, a
    /// double/invalid free changes nothing, mirroring [`AddrCheck`].
    blocks: HashMap<u64, u64>,
    allocated: HashSet<u64>,
}

impl AllocSettled {
    fn granules(addr: u64, len: u64) -> std::ops::RangeInclusive<u64> {
        // First-to-last *byte*, so an unaligned span still covers every
        // granule it touches.
        AddrCheck::granule(addr)..=AddrCheck::granule(addr + len.max(1) - 1)
    }
}

impl RegionClassifier for AllocSettled {
    fn observe(&mut self, rec: &EventRecord) {
        match rec.kind {
            EventKind::Alloc if rec.addr != 0 => {
                let len = u64::from(rec.size);
                self.blocks.insert(rec.addr, len);
                self.allocated.extend(Self::granules(rec.addr, len));
            }
            EventKind::Free => {
                if let Some(len) = self.blocks.remove(&rec.addr) {
                    for g in Self::granules(rec.addr, len) {
                        self.allocated.remove(&g);
                    }
                }
            }
            _ => {}
        }
    }

    fn verdict_settled(&self, rec: &EventRecord) -> bool {
        if !layout::is_heap(rec.addr) {
            return true;
        }
        Self::granules(rec.addr, u64::from(rec.size)).all(|g| self.allocated.contains(&g))
    }
}

impl Lifeguard for AddrCheck {
    fn name(&self) -> &'static str {
        "addrcheck"
    }

    fn subscriptions(&self) -> EventMask {
        EventMask::of(&[
            EventKind::Load,
            EventKind::Store,
            EventKind::Alloc,
            EventKind::Free,
        ])
    }

    fn on_event(&mut self, record: &EventRecord, ctx: &mut HandlerCtx<'_>) {
        match record.kind {
            EventKind::Load | EventKind::Store => self.check_access(record, ctx),
            EventKind::Alloc => self.handle_alloc(record, ctx),
            EventKind::Free => self.handle_free(record, ctx),
            _ => {}
        }
    }

    /// Capture-side soundness contract: AddrCheck's verdict for an access
    /// is a pure function of `(pc, granule(addr))` and the granule's
    /// allocation state — which only `alloc`/`free` events change — and a
    /// repeated verdict never adds a finding because reports are already
    /// deduplicated on `(pc, granule)`. So duplicates keyed at the
    /// 16-byte allocation granule may be dropped outright, with the
    /// window flushed on every `alloc`/`free`. No thread-switch flush is
    /// needed: other threads' loads and stores cannot move allocation
    /// state, and the report dedup key is thread-insensitive.
    fn idempotency(&self) -> IdempotencyClass {
        IdempotencyClass::Window(WindowSpec {
            addr_granule_log2: GRANULE.trailing_zeros() as u8,
            invalidate_on: EventMask::of(&[EventKind::Alloc, EventKind::Free]),
            flush_on_thread_switch: false,
        })
    }

    /// Degradation-soundness contract, piece by piece:
    ///
    /// * **Window widening** — sound for the same reason the window
    ///   itself is: a wider window under the identical [`WindowSpec`]
    ///   only suppresses more `(pc, granule)` duplicates, each of which
    ///   is findings-idempotent per the argument above, and
    ///   re-tightening flushes the extra entries.
    /// * **Droppable kinds** — `lock`/`unlock` carry no allocation
    ///   state, AddrCheck does not subscribe to them, and the window
    ///   does not invalidate on them; dropping them at capture removes
    ///   wire traffic the dispatch engine would mask to a no-op anyway.
    /// * **Sampling** — gated by [`AllocSettled`], which mirrors the
    ///   block table from the same `alloc`/`free` stream: only accesses
    ///   whose every granule is currently allocated (or lies outside the
    ///   heap) may be demoted, and those are exactly the accesses whose
    ///   shadow lookup is clean and whose dedup key adds nothing — no
    ///   finding can appear, disappear, or change. A region is one
    ///   16-byte window granule, and every `alloc`/`free` (the window's
    ///   invalidators) repromotes all regions, so demotion never outlives
    ///   the allocation state it was proven against.
    ///
    /// Findings under any mix of these are therefore byte-identical to
    /// an undegraded run, as the policy contract demands and the
    /// degradation test grid pins.
    fn degradation(&self) -> Option<DegradationPolicy> {
        Some(DegradationPolicy {
            droppable: EventMask::of(&[EventKind::Lock, EventKind::Unlock]),
            make_classifier: Some(|| Box::new(AllocSettled::default())),
        })
    }

    fn on_finish(&mut self, ctx: &mut HandlerCtx<'_>) {
        // Leak scan: walk the block table.
        let mut leaks: Vec<(u64, u64)> = self
            .blocks
            .iter()
            .filter_map(|(&addr, &state)| match state {
                BlockState::Live { len } => Some((addr, len)),
                BlockState::Freed => None,
            })
            .collect();
        leaks.sort_unstable();
        ctx.alu(2 * self.blocks.len() as u64);
        for (addr, len) in leaks {
            ctx.report(Finding {
                lifeguard: self.name(),
                kind: FindingKind::Leak,
                pc: 0,
                tid: 0,
                addr,
                message: format!("{len}-byte block at {addr:#x} never freed"),
            });
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
        findings: Vec<Finding>,
        lg: AddrCheck,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                mem: MemSystem::new(MemSystemConfig::dual_core()),
                engine: DispatchEngine::default(),
                findings: Vec::new(),
                lg: AddrCheck::new(),
            }
        }

        fn deliver(&mut self, rec: EventRecord) -> u64 {
            self.engine
                .deliver(&mut self.lg, &rec, &mut self.mem, 1, &mut self.findings)
        }

        fn finish(&mut self) {
            self.engine
                .finish(&mut self.lg, &mut self.mem, 1, &mut self.findings);
        }

        fn kinds(&self) -> Vec<FindingKind> {
            self.findings.iter().map(|f| f.kind).collect()
        }
    }

    fn alloc(addr: u64, size: u32) -> EventRecord {
        EventRecord {
            pc: 0x1000,
            kind: EventKind::Alloc,
            tid: 0,
            in1: Some(1),
            in2: None,
            out: Some(2),
            addr,
            size,
        }
    }

    fn free(addr: u64) -> EventRecord {
        EventRecord {
            pc: 0x1008,
            kind: EventKind::Free,
            tid: 0,
            in1: Some(2),
            in2: None,
            out: None,
            addr,
            size: 0,
        }
    }

    fn load(pc: u64, addr: u64) -> EventRecord {
        EventRecord::load(pc, 0, Some(2), Some(3), addr, 8)
    }

    const HEAP: u64 = layout::HEAP_BASE;

    #[test]
    fn allocated_access_is_clean() {
        let mut rig = Rig::new();
        rig.deliver(alloc(HEAP, 64));
        rig.deliver(load(0x1010, HEAP + 8));
        rig.deliver(load(0x1018, HEAP + 63));
        assert!(rig.findings.is_empty());
        assert_eq!(rig.lg.checked_accesses(), 2);
    }

    #[test]
    fn unallocated_access_detected() {
        let mut rig = Rig::new();
        rig.deliver(load(0x1010, HEAP + 0x100));
        assert_eq!(rig.kinds(), vec![FindingKind::UnallocatedAccess]);
    }

    #[test]
    fn use_after_free_detected() {
        let mut rig = Rig::new();
        rig.deliver(alloc(HEAP, 64));
        rig.deliver(free(HEAP));
        rig.deliver(load(0x1010, HEAP + 8));
        assert_eq!(rig.kinds(), vec![FindingKind::UnallocatedAccess]);
    }

    #[test]
    fn duplicate_reports_are_suppressed() {
        let mut rig = Rig::new();
        for _ in 0..5 {
            rig.deliver(load(0x1010, HEAP + 0x100));
        }
        assert_eq!(rig.findings.len(), 1, "same pc+granule reports once");
        rig.deliver(load(0x2020, HEAP + 0x100));
        assert_eq!(rig.findings.len(), 2, "different pc reports again");
    }

    #[test]
    fn double_free_detected() {
        let mut rig = Rig::new();
        rig.deliver(alloc(HEAP, 32));
        rig.deliver(free(HEAP));
        rig.deliver(free(HEAP));
        assert_eq!(rig.kinds(), vec![FindingKind::DoubleFree]);
    }

    #[test]
    fn invalid_free_detected() {
        let mut rig = Rig::new();
        rig.deliver(alloc(HEAP, 32));
        rig.deliver(free(HEAP + 16));
        assert_eq!(rig.kinds(), vec![FindingKind::InvalidFree]);
    }

    #[test]
    fn leaks_reported_at_finish() {
        let mut rig = Rig::new();
        rig.deliver(alloc(HEAP, 32));
        rig.deliver(alloc(HEAP + 32, 48));
        rig.deliver(free(HEAP));
        rig.finish();
        assert_eq!(rig.kinds(), vec![FindingKind::Leak]);
        assert_eq!(rig.findings[0].addr, HEAP + 32);
    }

    #[test]
    fn stack_accesses_are_ignored() {
        let mut rig = Rig::new();
        rig.deliver(load(0x1010, layout::stack_top(0) - 8));
        rig.deliver(load(0x1010, layout::GLOBAL_BASE));
        assert!(rig.findings.is_empty());
        assert_eq!(rig.lg.checked_accesses(), 0);
    }

    #[test]
    fn realloc_of_freed_block_is_clean_again() {
        let mut rig = Rig::new();
        rig.deliver(alloc(HEAP, 64));
        rig.deliver(free(HEAP));
        rig.deliver(alloc(HEAP, 64));
        rig.deliver(load(0x1010, HEAP + 8));
        assert!(rig.findings.is_empty());
        // And freeing it again is legitimate.
        rig.deliver(free(HEAP));
        assert!(rig.findings.is_empty());
    }

    #[test]
    fn alloc_settled_mirrors_allocation_state() {
        use lba_lifeguard::RegionClassifier;
        let mut cls = AllocSettled::default();
        let probe = load(0x1010, HEAP + 8);
        assert!(
            !cls.verdict_settled(&probe),
            "unallocated heap is unsettled"
        );
        cls.observe(&alloc(HEAP, 64));
        assert!(cls.verdict_settled(&probe), "allocated granule settles");
        cls.observe(&free(HEAP));
        assert!(!cls.verdict_settled(&probe), "freed granule unsettles");
        // Double free / invalid free leave the mirror unchanged.
        cls.observe(&free(HEAP));
        cls.observe(&free(HEAP + 8));
        assert!(!cls.verdict_settled(&probe));
    }

    #[test]
    fn alloc_settled_requires_every_touched_granule() {
        use lba_lifeguard::RegionClassifier;
        let mut cls = AllocSettled::default();
        cls.observe(&alloc(HEAP, 16));
        // An 8-byte access straddling into the next, unallocated granule
        // is not settled; the same access within the block is.
        assert!(!cls.verdict_settled(&load(0x1010, HEAP + 12)));
        assert!(cls.verdict_settled(&load(0x1010, HEAP + 4)));
    }

    #[test]
    fn alloc_settled_ignores_non_heap_addresses() {
        use lba_lifeguard::RegionClassifier;
        let cls = AllocSettled::default();
        assert!(cls.verdict_settled(&load(0x1010, layout::stack_top(0) - 8)));
        assert!(cls.verdict_settled(&load(0x1010, layout::GLOBAL_BASE)));
    }

    #[test]
    fn degradation_policy_excludes_window_invalidators() {
        // The contract: droppable kinds must never overlap what the
        // idempotency window invalidates on, or the flush triggers (which
        // also repromote sampled regions) would be dropped before reaching
        // the filter.
        let lg = AddrCheck::new();
        let policy = lg.degradation().expect("AddrCheck degrades");
        let window = lg.idempotency().spec().copied().expect("AddrCheck dedupes");
        assert!(window.invalidate_on.contains(EventKind::Alloc));
        assert!(window.invalidate_on.contains(EventKind::Free));
        assert!(window
            .invalidate_on
            .iter()
            .all(|k| !policy.droppable.contains(k)));
        assert!(!policy.droppable.contains(EventKind::Load));
        assert!(!policy.droppable.contains(EventKind::Store));
        assert!(policy.make_classifier.is_some(), "AddrCheck samples");
    }

    #[test]
    fn every_access_pays_the_addressability_lookup() {
        // Like the original tool, stack accesses are not semantically
        // checked but still go through the A-bit lookup, so their cost is
        // the same as a clean heap access (modulo cache effects).
        let mut rig = Rig::new();
        rig.deliver(alloc(HEAP, 64));
        // Warm both paths once.
        rig.deliver(load(0x1010, HEAP));
        rig.deliver(load(0x1018, layout::stack_top(0) - 8));
        let heap_cost = rig.deliver(load(0x1010, HEAP));
        let stack_cost = rig.deliver(load(0x1018, layout::stack_top(0) - 8));
        assert_eq!(heap_cost, stack_cost);
        assert!(stack_cost >= 8, "the lookup is not free: {stack_cost}");
    }
}
