//! LockSet: Eraser-style data-race detection.

use std::collections::{HashMap, HashSet};

use lba_lifeguard::{
    DegradationPolicy, Finding, FindingKind, HandlerCtx, IdempotencyClass, Lifeguard, ShadowMemory,
    WindowSpec,
};
use lba_mem::layout;
use lba_record::{EventKind, EventMask, EventRecord};

/// Shadow region base for per-word access state.
const SHADOW_BASE: u64 = 0x30_0000_0000;
/// Shadow region base for the lockset descriptor table.
const TABLE_BASE: u64 = 0x38_0000_0000;

/// Monitored granule: one 32-bit word, as in the original Eraser.
const GRANULE: u64 = 4;

/// Word states of the Eraser state machine.
const VIRGIN: u64 = 0;
const EXCLUSIVE: u64 = 1;
const SHARED: u64 = 2;
const SHARED_MOD: u64 = 3;

/// Configuration of the [`LockSet`] lifeguard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockSetConfig {
    /// Whether lockset operations (add/remove/intersect) are memoised.
    ///
    /// The LBA lifeguard interns locksets and caches operation results —
    /// cheap table lookups in the common case. Disabling memoisation makes
    /// every operation recompute over the set elements, modelling the
    /// software-only race detectors of the paper's era (the DBI baseline
    /// runs in this mode).
    pub memoize: bool,
    /// Extra instructions per monitored access for entering/leaving the
    /// checking routine. Zero under LBA, where the dispatch hardware jumps
    /// straight into the handler; Valgrind-era software race detectors
    /// paid a helper-function call (spills, argument marshalling) at every
    /// access, which is a large part of their 30-85x slowdowns.
    pub call_overhead: u64,
}

impl Default for LockSetConfig {
    fn default() -> Self {
        LockSetConfig {
            memoize: true,
            call_overhead: 0,
        }
    }
}

/// An interning table of locksets with memoised add/remove/intersect.
///
/// Lockset id 0 is the empty set. Operation methods return the result id
/// plus the modelled instruction cost of the operation.
#[derive(Debug, Default)]
struct LocksetTable {
    sets: Vec<Vec<u64>>,
    intern: HashMap<Vec<u64>, u32>,
    add_cache: HashMap<(u32, u64), u32>,
    remove_cache: HashMap<(u32, u64), u32>,
    intersect_cache: HashMap<(u32, u32), u32>,
    memoize: bool,
}

impl LocksetTable {
    fn new(memoize: bool) -> Self {
        let mut t = LocksetTable {
            memoize,
            ..Default::default()
        };
        t.sets.push(Vec::new()); // id 0: empty lockset
        t.intern.insert(Vec::new(), 0);
        t
    }

    fn intern(&mut self, set: Vec<u64>) -> u32 {
        if let Some(&id) = self.intern.get(&set) {
            return id;
        }
        let id = u32::try_from(self.sets.len()).expect("fewer than 2^32 locksets");
        self.sets.push(set.clone());
        self.intern.insert(set, id);
        id
    }

    fn elements(&self, id: u32) -> &[u64] {
        &self.sets[id as usize]
    }

    fn add(&mut self, id: u32, lock: u64) -> (u32, u64) {
        if self.memoize {
            if let Some(&hit) = self.add_cache.get(&(id, lock)) {
                return (hit, 4);
            }
        }
        let mut set = self.sets[id as usize].clone();
        let cost = 6 + 2 * set.len() as u64;
        if let Err(pos) = set.binary_search(&lock) {
            set.insert(pos, lock);
        }
        let out = self.intern(set);
        if self.memoize {
            self.add_cache.insert((id, lock), out);
        }
        (out, cost)
    }

    fn remove(&mut self, id: u32, lock: u64) -> (u32, u64) {
        if self.memoize {
            if let Some(&hit) = self.remove_cache.get(&(id, lock)) {
                return (hit, 4);
            }
        }
        let mut set = self.sets[id as usize].clone();
        let cost = 6 + 2 * set.len() as u64;
        if let Ok(pos) = set.binary_search(&lock) {
            set.remove(pos);
        }
        let out = self.intern(set);
        if self.memoize {
            self.remove_cache.insert((id, lock), out);
        }
        (out, cost)
    }

    fn intersect(&mut self, a: u32, b: u32) -> (u32, u64) {
        if a == b {
            // Id equality is one compare, but loading both ids and the
            // compare itself still cost a few instructions.
            return (a, 3);
        }
        if self.memoize {
            // Memo hit: hash the id pair, probe the cache, compare tags.
            if let Some(&hit) = self.intersect_cache.get(&(a, b)) {
                return (hit, 8);
            }
        }
        let (sa, sb) = (&self.sets[a as usize], &self.sets[b as usize]);
        let cost = 6 + 3 * (sa.len() + sb.len()) as u64;
        let out_set: Vec<u64> = sa
            .iter()
            .filter(|x| sb.binary_search(x).is_ok())
            .copied()
            .collect();
        let out = self.intern(out_set);
        if self.memoize {
            self.intersect_cache.insert((a, b), out);
        }
        (out, cost)
    }
}

fn pack(state: u64, payload: u64) -> u64 {
    (payload << 2) | state
}

fn unpack(cell: u64) -> (u64, u64) {
    (cell & 3, cell >> 2)
}

/// The LockSet lifeguard (Eraser algorithm).
///
/// For every shared-region word it maintains the Virgin → Exclusive →
/// Shared / Shared-Modified state machine with a *candidate lockset*: the
/// set of locks consistently held across all accesses. A write to a word
/// whose candidate set becomes empty is reported as a possible data race.
///
/// Thread-private stack accesses are not monitored (they cannot race).
#[derive(Debug)]
pub struct LockSet {
    table: LocksetTable,
    /// Per-thread current lockset id.
    held: Vec<u32>,
    shadow: ShadowMemory<u64>,
    reported: HashSet<u64>,
    races: u64,
    checked: u64,
    call_overhead: u64,
}

impl Default for LockSet {
    fn default() -> Self {
        Self::new()
    }
}

impl LockSet {
    /// Creates a LockSet lifeguard with the default (memoised) config.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(LockSetConfig::default())
    }

    /// Creates a LockSet lifeguard with an explicit configuration.
    #[must_use]
    pub fn with_config(config: LockSetConfig) -> Self {
        LockSet {
            table: LocksetTable::new(config.memoize),
            held: Vec::new(),
            shadow: ShadowMemory::new(),
            reported: HashSet::new(),
            races: 0,
            checked: 0,
            call_overhead: config.call_overhead,
        }
    }

    /// Number of race reports so far.
    #[must_use]
    pub fn races(&self) -> u64 {
        self.races
    }

    /// Number of monitored accesses so far.
    #[must_use]
    pub fn checked_accesses(&self) -> u64 {
        self.checked
    }

    /// The locks currently held by thread `tid` (diagnostics).
    #[must_use]
    pub fn locks_held(&self, tid: u8) -> &[u64] {
        let id = self.held.get(tid as usize).copied().unwrap_or(0);
        self.table.elements(id)
    }

    fn held_id(&mut self, tid: u8) -> u32 {
        let idx = tid as usize;
        if self.held.len() <= idx {
            self.held.resize(idx + 1, 0);
        }
        self.held[idx]
    }

    fn report_race(&mut self, rec: &EventRecord, granule: u64, ctx: &mut HandlerCtx<'_>) {
        if self.reported.insert(granule) {
            self.races += 1;
            ctx.report(Finding {
                lifeguard: "lockset",
                kind: FindingKind::DataRace,
                pc: rec.pc,
                tid: rec.tid,
                addr: granule * GRANULE,
                message: format!(
                    "word {:#x} accessed with empty candidate lockset ({} by thread {})",
                    granule * GRANULE,
                    rec.kind,
                    rec.tid
                ),
            });
        }
    }

    fn check_granule(&mut self, rec: &EventRecord, granule: u64, ctx: &mut HandlerCtx<'_>) {
        let is_write = rec.kind == EventKind::Store;
        let tid = rec.tid;
        let shadow_addr = SHADOW_BASE + granule * 8;
        // Granule decompose + shadow-address arithmetic.
        ctx.alu(3);
        ctx.shadow_read(shadow_addr, 8);
        // Eraser's per-access fixed work: unpack the shadow word (state,
        // payload, read/write mode bits), dispatch on the state, and keep
        // the access-mode bits current with a repack + write-back.
        ctx.alu(4);
        let (state, payload) = unpack(self.shadow.get(granule));
        match state {
            VIRGIN => {
                self.shadow.set(granule, pack(EXCLUSIVE, u64::from(tid)));
                ctx.shadow_write(shadow_addr, 8);
                ctx.alu(2);
            }
            EXCLUSIVE => {
                if payload == u64::from(tid) {
                    // Same owner: update the mode bits (read vs write) and
                    // write the shadow word back.
                    ctx.alu(3);
                    ctx.shadow_write(shadow_addr, 8);
                    return;
                }
                // Second thread: enter the shared states with the
                // accessor's current lockset as candidate set.
                let candidate = self.held_id(tid);
                let next = if is_write { SHARED_MOD } else { SHARED };
                self.shadow.set(granule, pack(next, u64::from(candidate)));
                ctx.shadow_write(shadow_addr, 8);
                ctx.alu(3);
                if next == SHARED_MOD && self.table.elements(candidate).is_empty() {
                    self.report_race(rec, granule, ctx);
                }
            }
            SHARED | SHARED_MOD => {
                let held = self.held_id(tid);
                let old_id = u32::try_from(payload).expect("payload is a lockset id");
                // Pointer chase into the lockset descriptor table (header
                // word plus the first element word).
                ctx.shadow_read(TABLE_BASE + payload * 16, 8);
                ctx.shadow_read(TABLE_BASE + payload * 16 + 8, 8);
                let (new_id, cost) = self.table.intersect(old_id, held);
                ctx.alu(cost);
                let next = if is_write || state == SHARED_MOD {
                    SHARED_MOD
                } else {
                    SHARED
                };
                // Mode bits always change on a read↔write alternation;
                // Eraser writes the shadow word back each time.
                self.shadow.set(granule, pack(next, u64::from(new_id)));
                ctx.shadow_write(shadow_addr, 8);
                ctx.alu(4);
                if next == SHARED_MOD && self.table.elements(new_id).is_empty() {
                    self.report_race(rec, granule, ctx);
                }
            }
            _ => unreachable!("2-bit state"),
        }
    }

    fn on_access(&mut self, rec: &EventRecord, ctx: &mut HandlerCtx<'_>) {
        // Range check: stack words are thread-private.
        ctx.alu(2);
        if !layout::is_shared_region(rec.addr) {
            return;
        }
        // Software variants pay a helper call per monitored access.
        ctx.alu(self.call_overhead);
        self.checked += 1;
        let first = rec.addr / GRANULE;
        let last = (rec.addr + u64::from(rec.size).max(1) - 1) / GRANULE;
        for granule in first..=last {
            self.check_granule(rec, granule, ctx);
        }
    }
}

impl Lifeguard for LockSet {
    fn name(&self) -> &'static str {
        "lockset"
    }

    fn subscriptions(&self) -> EventMask {
        EventMask::of(&[
            EventKind::Load,
            EventKind::Store,
            EventKind::Lock,
            EventKind::Unlock,
        ])
    }

    fn on_event(&mut self, rec: &EventRecord, ctx: &mut HandlerCtx<'_>) {
        match rec.kind {
            EventKind::Load | EventKind::Store => self.on_access(rec, ctx),
            EventKind::Lock => {
                let id = self.held_id(rec.tid);
                let (new_id, cost) = self.table.add(id, rec.addr);
                self.held[rec.tid as usize] = new_id;
                ctx.alu(2 + cost);
            }
            EventKind::Unlock => {
                let id = self.held_id(rec.tid);
                let (new_id, cost) = self.table.remove(id, rec.addr);
                self.held[rec.tid as usize] = new_id;
                ctx.alu(2 + cost);
            }
            _ => {}
        }
    }

    /// Capture-side soundness contract: a repeated identical access (same
    /// `pc`, `tid`, exact `addr` and `size` — exact, because Eraser state
    /// is per 4-byte word and a wide access may straddle) is
    /// findings-idempotent as long as (i) the accessor's held lockset is
    /// unchanged — hence the flush on every `lock`/`unlock` — and (ii) no
    /// other thread touched the word in between, which would move the
    /// Virgin → Exclusive → Shared(-Modified) machine — hence the flush
    /// on every thread interleave. Within one same-thread, same-lockset
    /// run the candidate-set intersection is idempotent
    /// (`C ∩ held ∩ held = C ∩ held`), the state machine can only move
    /// monotonically toward the state the first occurrence already
    /// reached, and any race report a duplicate could raise was either
    /// raised by its first occurrence or suppressed by the per-word
    /// report dedup.
    fn idempotency(&self) -> IdempotencyClass {
        IdempotencyClass::Window(WindowSpec {
            addr_granule_log2: 0,
            invalidate_on: EventMask::of(&[EventKind::Lock, EventKind::Unlock]),
            flush_on_thread_switch: true,
        })
    }

    /// Degradation-soundness contract: LockSet tolerates **window
    /// widening only**, which declaring a policy permits by itself; the
    /// policy names no droppable kind and no region classifier.
    ///
    /// * **Widening** is sound because each suppressed duplicate is
    ///   findings-idempotent under the window contract above, and the
    ///   window's flush triggers (`lock`/`unlock`, thread interleave)
    ///   are unchanged by its size; re-tightening flushes the extra
    ///   entries.
    /// * **No droppable kinds**: the thread-switch flush is keyed off
    ///   *every* record of another thread, access or not — a dropped
    ///   `alu`-only interleave would mask the tid change the window's
    ///   soundness argument conditions on. A droppable set would need a
    ///   proof that it can never hide an interleave; LockSet declares
    ///   none instead.
    /// * **No sampling**: a sampled-out access could be a fresh word's
    ///   first touch, whose Virgin → Exclusive initialisation every
    ///   later transition of the Eraser machine (and so every later
    ///   race verdict on that word) depends on. No capture-side oracle
    ///   can call a word's verdict "settled" while further accesses can
    ///   still empty its candidate lockset.
    fn degradation(&self) -> Option<DegradationPolicy> {
        Some(DegradationPolicy {
            droppable: EventMask::EMPTY,
            make_classifier: None,
        })
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
        lg: LockSet,
    }

    impl Rig {
        fn new() -> Self {
            Self::with_config(LockSetConfig::default())
        }

        fn with_config(config: LockSetConfig) -> Self {
            Rig {
                mem: MemSystem::new(MemSystemConfig::dual_core()),
                engine: DispatchEngine::default(),
                findings: Vec::new(),
                lg: LockSet::with_config(config),
            }
        }

        fn deliver(&mut self, rec: EventRecord) -> u64 {
            self.engine
                .deliver(&mut self.lg, &rec, &mut self.mem, 1, &mut self.findings)
        }

        fn lock(&mut self, tid: u8, lock: u64) -> u64 {
            self.deliver(EventRecord {
                pc: 0x1000,
                kind: EventKind::Lock,
                tid,
                in1: Some(1),
                in2: None,
                out: None,
                addr: lock,
                size: 0,
            })
        }

        fn unlock(&mut self, tid: u8, lock: u64) -> u64 {
            self.deliver(EventRecord {
                pc: 0x1008,
                kind: EventKind::Unlock,
                tid,
                in1: Some(1),
                in2: None,
                out: None,
                addr: lock,
                size: 0,
            })
        }

        fn load(&mut self, tid: u8, addr: u64) -> u64 {
            self.deliver(EventRecord::load(0x2000, tid, Some(2), Some(3), addr, 4))
        }

        fn store(&mut self, tid: u8, addr: u64) -> u64 {
            self.deliver(EventRecord::store(0x2008, tid, Some(3), Some(2), addr, 4))
        }
    }

    const DATA: u64 = layout::HEAP_BASE + 0x40;
    const LOCK_A: u64 = layout::GLOBAL_BASE + 0x10;
    const LOCK_B: u64 = layout::GLOBAL_BASE + 0x20;

    #[test]
    fn single_thread_never_races() {
        let mut rig = Rig::new();
        for _ in 0..10 {
            rig.store(0, DATA);
            rig.load(0, DATA);
        }
        assert!(rig.findings.is_empty());
    }

    #[test]
    fn consistent_locking_never_races() {
        let mut rig = Rig::new();
        for round in 0..5 {
            for tid in 0..2 {
                rig.lock(tid, LOCK_A);
                rig.store(tid, DATA);
                rig.load(tid, DATA);
                rig.unlock(tid, LOCK_A);
                let _ = round;
            }
        }
        assert!(rig.findings.is_empty(), "got {:?}", rig.findings);
    }

    #[test]
    fn unprotected_sharing_races() {
        let mut rig = Rig::new();
        rig.store(0, DATA);
        rig.store(1, DATA); // second writer, no locks held
        assert_eq!(rig.findings.len(), 1);
        assert_eq!(rig.findings[0].kind, FindingKind::DataRace);
        assert_eq!(rig.lg.races(), 1);
    }

    #[test]
    fn one_unlocked_writer_races_even_after_locked_history() {
        let mut rig = Rig::new();
        rig.lock(0, LOCK_A);
        rig.store(0, DATA);
        rig.unlock(0, LOCK_A);
        rig.lock(1, LOCK_A);
        rig.store(1, DATA);
        rig.unlock(1, LOCK_A);
        assert!(rig.findings.is_empty());
        // Thread 0 now writes without the lock: candidate set empties.
        rig.store(0, DATA);
        assert_eq!(rig.findings.len(), 1);
    }

    #[test]
    fn different_locks_race() {
        let mut rig = Rig::new();
        rig.lock(0, LOCK_A);
        rig.store(0, DATA); // Exclusive(t0)
        rig.unlock(0, LOCK_A);
        rig.lock(1, LOCK_B);
        rig.store(1, DATA); // SharedModified, candidate = {B}
        rig.unlock(1, LOCK_B);
        assert!(
            rig.findings.is_empty(),
            "Eraser needs a third access to see ∅"
        );
        rig.lock(0, LOCK_A);
        rig.store(0, DATA); // candidate = {B} ∩ {A} = ∅ → race
        rig.unlock(0, LOCK_A);
        assert_eq!(rig.findings.len(), 1);
    }

    #[test]
    fn shared_read_only_does_not_race() {
        let mut rig = Rig::new();
        rig.store(0, DATA); // initialise (exclusive)
        rig.load(1, DATA); // shared, read-only — no report per Eraser
        rig.load(2, DATA);
        assert!(rig.findings.is_empty());
    }

    #[test]
    fn read_shared_then_unlocked_write_races() {
        let mut rig = Rig::new();
        rig.store(0, DATA);
        rig.load(1, DATA); // -> Shared with empty candidate (no locks)
        rig.store(1, DATA); // -> SharedModified, empty set: race
        assert_eq!(rig.findings.len(), 1);
    }

    #[test]
    fn race_reported_once_per_word() {
        let mut rig = Rig::new();
        rig.store(0, DATA);
        rig.store(1, DATA);
        rig.store(0, DATA);
        rig.store(1, DATA);
        assert_eq!(rig.findings.len(), 1);
        // A different word reports separately.
        rig.store(0, DATA + 64);
        rig.store(1, DATA + 64);
        assert_eq!(rig.findings.len(), 2);
    }

    #[test]
    fn stack_accesses_not_monitored() {
        let mut rig = Rig::new();
        let stack = layout::stack_top(0) - 16;
        rig.store(0, stack);
        rig.store(1, stack);
        assert!(rig.findings.is_empty());
        assert_eq!(rig.lg.checked_accesses(), 0);
    }

    #[test]
    fn locks_held_tracks_lock_unlock() {
        let mut rig = Rig::new();
        rig.lock(0, LOCK_A);
        rig.lock(0, LOCK_B);
        assert_eq!(rig.lg.locks_held(0), &[LOCK_A, LOCK_B]);
        rig.unlock(0, LOCK_A);
        assert_eq!(rig.lg.locks_held(0), &[LOCK_B]);
        assert_eq!(rig.lg.locks_held(1), &[] as &[u64]);
    }

    #[test]
    fn wide_access_checks_both_words() {
        let mut rig = Rig::new();
        // Thread 0 writes an 8-byte value covering two granules; thread 1
        // then races on the *second* word via a 4-byte store.
        rig.deliver(EventRecord::store(0x2008, 0, Some(3), Some(2), DATA, 8));
        rig.store(1, DATA + 4);
        assert_eq!(rig.findings.len(), 1);
        assert_eq!(rig.findings[0].addr, DATA + 4);
    }

    #[test]
    fn memoized_steady_state_is_cheaper() {
        let steady = |memoize: bool| -> u64 {
            let mut rig = Rig::with_config(LockSetConfig {
                memoize,
                call_overhead: 0,
            });
            // Build up shared state with two locks held by both threads.
            for tid in 0..2 {
                rig.lock(tid, LOCK_A);
                rig.lock(tid, LOCK_B);
                rig.store(tid, DATA);
                rig.unlock(tid, LOCK_B);
                rig.unlock(tid, LOCK_A);
            }
            // Steady state: repeat the same locked access pattern, summing
            // the full event cost (lockset add/remove dominates).
            let mut total = 0;
            for tid in 0..2 {
                total += rig.lock(tid, LOCK_A);
                total += rig.lock(tid, LOCK_B);
                total += rig.store(tid, DATA);
                total += rig.unlock(tid, LOCK_B);
                total += rig.unlock(tid, LOCK_A);
            }
            total
        };
        assert!(
            steady(true) < steady(false),
            "memoised lockset ops must be cheaper in steady state"
        );
    }
}
