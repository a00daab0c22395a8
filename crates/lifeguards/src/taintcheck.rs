//! TaintCheck: dynamic information-flow tracking for exploit detection.

use std::collections::HashSet;

use lba_lifeguard::{
    DegradationPolicy, Finding, FindingKind, HandlerCtx, IdempotencyClass, Lifeguard, ShadowMemory,
    ShadowRegs,
};
use lba_record::{EventKind, EventMask, EventRecord};

/// Shadow region base for TaintCheck's per-byte taint map.
const SHADOW_BASE: u64 = 0x20_0000_0000;

/// The TaintCheck lifeguard.
///
/// Marks every byte written by `recv` (external input) as tainted, then
/// propagates taint through **all** instructions — the property the paper
/// singles out as LBA's advantage over address-triggered schemes like
/// iWatcher ("LBA … supports tracking data flow through all instructions —
/// a crucial attribute for certain lifeguards such as TaintCheck"):
///
/// * register computation ORs the input operands' taint into the output;
/// * loads pull taint from shadow memory into the output register;
/// * stores push the source register's taint to shadow memory;
/// * loading an immediate (no inputs) clears the output's taint.
///
/// An indirect jump or call through a tainted register, or a syscall with a
/// tainted argument register, is reported as an exploit.
#[derive(Debug, Default)]
pub struct TaintCheck {
    mem_taint: ShadowMemory<u8>,
    reg_taint: ShadowRegs<bool>,
    /// Reports already made, keyed `(pc, kind, tid)` — the same identity
    /// the parallel modes' `(kind, pc, addr, tid)` merge key preserves,
    /// so an identical exploit reached by a different thread is still
    /// reported.
    reported: HashSet<(u64, FindingKind, u8)>,
    tainted_bytes_introduced: u64,
}

impl TaintCheck {
    /// Creates a TaintCheck lifeguard with no taint.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total input bytes marked tainted (diagnostics).
    #[must_use]
    pub fn tainted_bytes_introduced(&self) -> u64 {
        self.tainted_bytes_introduced
    }

    /// Whether register `reg` of thread `tid` is currently tainted
    /// (test/diagnostic hook).
    #[must_use]
    pub fn reg_is_tainted(&self, tid: u8, reg: u8) -> bool {
        self.reg_taint.get(tid, reg)
    }

    /// Whether the byte at application address `addr` is tainted
    /// (test/diagnostic hook).
    #[must_use]
    pub fn byte_is_tainted(&self, addr: u64) -> bool {
        self.mem_taint.get(addr) != 0
    }

    fn shadow_addr(addr: u64) -> u64 {
        SHADOW_BASE + addr
    }

    fn range_tainted(&self, addr: u64, len: u32) -> bool {
        // The per-page non-default counters answer "any byte tainted?"
        // without rescanning resident pages byte by byte.
        self.mem_taint.range_any_nonzero(addr, u64::from(len))
    }

    fn report_once(
        &mut self,
        rec: &EventRecord,
        kind: FindingKind,
        message: String,
        ctx: &mut HandlerCtx<'_>,
    ) {
        if self.reported.insert((rec.pc, kind, rec.tid)) {
            ctx.report(Finding {
                lifeguard: "taintcheck",
                kind,
                pc: rec.pc,
                tid: rec.tid,
                addr: rec.addr,
                message,
            });
        }
    }
}

impl Lifeguard for TaintCheck {
    fn name(&self) -> &'static str {
        "taintcheck"
    }

    fn subscriptions(&self) -> EventMask {
        EventMask::of(&[
            EventKind::Alu,
            EventKind::Load,
            EventKind::Store,
            EventKind::Alloc,
            EventKind::Recv,
            EventKind::IndirectJump,
            EventKind::Syscall,
        ])
    }

    /// Capture-side soundness contract: **none**. Every access propagates
    /// taint — a load *writes* its destination register's taint, a store
    /// *writes* shadow memory — so a "duplicate" is never a re-check of a
    /// settled verdict; dropping one desynchronises the whole downstream
    /// taint flow (the same sequential-dependence property that excludes
    /// TaintCheck from address-interleaved sharding). The filter
    /// therefore never touches TaintCheck's stream, whatever the window
    /// size.
    fn idempotency(&self) -> IdempotencyClass {
        IdempotencyClass::None
    }

    /// Degradation contract: TaintCheck tolerates **nothing**, for the
    /// same reason its idempotency class is `None` writ large. Taint is
    /// a property of the *complete* data-flow graph: an `alu` record
    /// moves taint between registers (and an immediate clears it), so
    /// no kind is profile-only; a repeated access is not idempotent
    /// (the taint it copies may differ each time), so no window may
    /// widen; and no capture-side oracle can call an access "settled" —
    /// any load can pull taint into a register that later reaches an
    /// indirect jump. Declaring no [`DegradationPolicy`] makes the
    /// guarantee structural: the capture controller is never even
    /// constructed without one, so TaintCheck's degraded and undegraded
    /// pipelines are the same code path and its stream is provably
    /// untouched under any load.
    fn degradation(&self) -> Option<DegradationPolicy> {
        None
    }

    fn on_event(&mut self, rec: &EventRecord, ctx: &mut HandlerCtx<'_>) {
        match rec.kind {
            EventKind::Alu => {
                // taint(out) = taint(in1) | taint(in2): two shadow-register
                // reads, the merge, and the shadow-register write.
                ctx.alu(3);
                if let Some(out) = rec.out {
                    let t = rec.in1.is_some_and(|r| self.reg_taint.get(rec.tid, r))
                        || rec.in2.is_some_and(|r| self.reg_taint.get(rec.tid, r));
                    self.reg_taint.set(rec.tid, out, t);
                }
            }
            EventKind::Load => {
                // Shadow-address arithmetic, the per-byte taint merge over
                // the loaded width, and the shadow-register write.
                ctx.alu(4);
                ctx.shadow_read(Self::shadow_addr(rec.addr), rec.size);
                if let Some(out) = rec.out {
                    let t = self.range_tainted(rec.addr, rec.size);
                    self.reg_taint.set(rec.tid, out, t);
                }
            }
            EventKind::Store => {
                // Shadow-address arithmetic plus replicating the register
                // taint across the stored bytes.
                ctx.alu(4);
                ctx.shadow_write(Self::shadow_addr(rec.addr), rec.size);
                let t = rec.in1.is_some_and(|r| self.reg_taint.get(rec.tid, r));
                // Clean stores over untouched shadow allocate nothing.
                self.mem_taint
                    .set_range(rec.addr, u64::from(rec.size), u8::from(t));
            }
            EventKind::Alloc => {
                // A fresh pointer is untainted; clear the output register.
                ctx.alu(1);
                if let Some(out) = rec.out {
                    self.reg_taint.set(rec.tid, out, false);
                }
            }
            EventKind::Recv => {
                // Taint the received range; chunked shadow stores.
                ctx.alu(2);
                self.tainted_bytes_introduced += u64::from(rec.size);
                let mut off = 0u64;
                let len = u64::from(rec.size);
                while off < len {
                    let chunk = (len - off).min(8);
                    ctx.shadow_write(Self::shadow_addr(rec.addr + off), chunk as u32);
                    ctx.alu(1);
                    off += chunk;
                }
                self.mem_taint.set_range(rec.addr, len, 1);
            }
            EventKind::IndirectJump => {
                ctx.alu(2);
                if rec.in1.is_some_and(|r| self.reg_taint.get(rec.tid, r)) {
                    self.report_once(
                        rec,
                        FindingKind::TaintedJump,
                        format!(
                            "indirect control transfer to {:#x} through tainted register",
                            rec.addr
                        ),
                        ctx,
                    );
                }
            }
            EventKind::Syscall => {
                // Check the argument registers (r1..r3 by convention).
                ctx.alu(3);
                let tainted_arg = (1..=3u8).find(|&r| self.reg_taint.get(rec.tid, r));
                if let Some(reg) = tainted_arg {
                    self.report_once(
                        rec,
                        FindingKind::TaintedSyscallArg,
                        format!("syscall {} with tainted argument register r{reg}", rec.size),
                        ctx,
                    );
                }
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
        findings: Vec<Finding>,
        lg: TaintCheck,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                mem: MemSystem::new(MemSystemConfig::dual_core()),
                engine: DispatchEngine::default(),
                findings: Vec::new(),
                lg: TaintCheck::new(),
            }
        }

        fn deliver(&mut self, rec: EventRecord) {
            self.engine
                .deliver(&mut self.lg, &rec, &mut self.mem, 1, &mut self.findings);
        }
    }

    const BUF: u64 = 0x4000_0000;

    fn recv(addr: u64, size: u32) -> EventRecord {
        EventRecord {
            pc: 0x1000,
            kind: EventKind::Recv,
            tid: 0,
            in1: Some(1),
            in2: Some(2),
            out: None,
            addr,
            size,
        }
    }

    fn ijump(in_reg: u8, target: u64) -> EventRecord {
        EventRecord {
            pc: 0x2000,
            kind: EventKind::IndirectJump,
            tid: 0,
            in1: Some(in_reg),
            in2: None,
            out: None,
            addr: target,
            size: 0,
        }
    }

    fn alu(out: u8, in1: Option<u8>, in2: Option<u8>) -> EventRecord {
        EventRecord::alu(0x1800, 0, in1, in2, Some(out))
    }

    #[test]
    fn recv_taints_memory() {
        let mut rig = Rig::new();
        rig.deliver(recv(BUF, 16));
        assert!(rig.lg.byte_is_tainted(BUF));
        assert!(rig.lg.byte_is_tainted(BUF + 15));
        assert!(!rig.lg.byte_is_tainted(BUF + 16));
        assert_eq!(rig.lg.tainted_bytes_introduced(), 16);
    }

    #[test]
    fn load_propagates_taint_to_register() {
        let mut rig = Rig::new();
        rig.deliver(recv(BUF, 8));
        rig.deliver(EventRecord::load(0x1008, 0, Some(2), Some(3), BUF, 8));
        assert!(rig.lg.reg_is_tainted(0, 3));
    }

    #[test]
    fn alu_merges_operand_taint() {
        let mut rig = Rig::new();
        rig.deliver(recv(BUF, 8));
        rig.deliver(EventRecord::load(0x1008, 0, Some(2), Some(3), BUF, 8));
        rig.deliver(alu(4, Some(3), Some(5))); // tainted | clean
        assert!(rig.lg.reg_is_tainted(0, 4));
        rig.deliver(alu(4, Some(5), Some(6))); // clean | clean overwrites
        assert!(!rig.lg.reg_is_tainted(0, 4));
    }

    #[test]
    fn immediate_move_clears_taint() {
        let mut rig = Rig::new();
        rig.deliver(recv(BUF, 8));
        rig.deliver(EventRecord::load(0x1008, 0, Some(2), Some(3), BUF, 8));
        assert!(rig.lg.reg_is_tainted(0, 3));
        rig.deliver(EventRecord::alu(0x1010, 0, None, None, Some(3))); // movi r3
        assert!(!rig.lg.reg_is_tainted(0, 3));
    }

    #[test]
    fn store_then_load_round_trips_taint() {
        let mut rig = Rig::new();
        rig.deliver(recv(BUF, 8));
        rig.deliver(EventRecord::load(0x1008, 0, Some(2), Some(3), BUF, 8));
        // Store the tainted register elsewhere, then load it back into a
        // different register.
        rig.deliver(EventRecord::store(
            0x1010,
            0,
            Some(3),
            Some(4),
            BUF + 0x100,
            8,
        ));
        rig.deliver(EventRecord::load(
            0x1018,
            0,
            Some(4),
            Some(5),
            BUF + 0x100,
            8,
        ));
        assert!(rig.lg.reg_is_tainted(0, 5));
    }

    #[test]
    fn clean_store_clears_memory_taint() {
        let mut rig = Rig::new();
        rig.deliver(recv(BUF, 8));
        assert!(rig.lg.byte_is_tainted(BUF));
        rig.deliver(EventRecord::store(0x1010, 0, Some(7), Some(4), BUF, 8));
        assert!(!rig.lg.byte_is_tainted(BUF), "overwritten by clean data");
    }

    #[test]
    fn tainted_indirect_jump_detected() {
        let mut rig = Rig::new();
        rig.deliver(recv(BUF, 8));
        rig.deliver(EventRecord::load(0x1008, 0, Some(2), Some(3), BUF, 8));
        rig.deliver(ijump(3, 0x3000));
        assert_eq!(rig.findings.len(), 1);
        assert_eq!(rig.findings[0].kind, FindingKind::TaintedJump);
    }

    #[test]
    fn clean_indirect_jump_not_reported() {
        let mut rig = Rig::new();
        rig.deliver(ijump(3, 0x3000));
        assert!(rig.findings.is_empty());
    }

    #[test]
    fn tainted_syscall_arg_detected() {
        let mut rig = Rig::new();
        rig.deliver(recv(BUF, 8));
        rig.deliver(EventRecord::load(0x1008, 0, Some(2), Some(1), BUF, 8)); // into r1
        rig.deliver(EventRecord {
            pc: 0x1010,
            kind: EventKind::Syscall,
            tid: 0,
            in1: None,
            in2: None,
            out: None,
            addr: 0,
            size: 4,
        });
        assert_eq!(rig.findings.len(), 1);
        assert_eq!(rig.findings[0].kind, FindingKind::TaintedSyscallArg);
    }

    #[test]
    fn taint_is_per_thread_in_registers() {
        let mut rig = Rig::new();
        rig.deliver(recv(BUF, 8));
        rig.deliver(EventRecord::load(0x1008, 0, Some(2), Some(3), BUF, 8)); // t0.r3
        assert!(rig.lg.reg_is_tainted(0, 3));
        assert!(!rig.lg.reg_is_tainted(1, 3));
    }

    #[test]
    fn alloc_clears_output_register_taint() {
        let mut rig = Rig::new();
        rig.deliver(recv(BUF, 8));
        rig.deliver(EventRecord::load(0x1008, 0, Some(2), Some(3), BUF, 8));
        assert!(rig.lg.reg_is_tainted(0, 3));
        rig.deliver(EventRecord {
            pc: 0x1010,
            kind: EventKind::Alloc,
            tid: 0,
            in1: Some(1),
            in2: None,
            out: Some(3),
            addr: BUF + 0x1000,
            size: 64,
        });
        assert!(!rig.lg.reg_is_tainted(0, 3));
    }

    #[test]
    fn duplicate_exploit_reports_suppressed() {
        let mut rig = Rig::new();
        rig.deliver(recv(BUF, 8));
        rig.deliver(EventRecord::load(0x1008, 0, Some(2), Some(3), BUF, 8));
        rig.deliver(ijump(3, 0x3000));
        rig.deliver(ijump(3, 0x3000));
        assert_eq!(rig.findings.len(), 1);
    }

    #[test]
    fn same_exploit_site_reported_per_thread() {
        // Regression: the dedup key used to be (pc, kind) only, so the
        // second thread reaching the same tainted jump was silently
        // dropped — diverging from the (kind, pc, addr, tid) merge key
        // the parallel modes dedup by.
        let mut rig = Rig::new();
        for tid in [0u8, 1] {
            let mut r = recv(BUF, 8);
            r.tid = tid;
            rig.deliver(r);
            let mut load = EventRecord::load(0x1008, 0, Some(2), Some(3), BUF, 8);
            load.tid = tid;
            rig.deliver(load);
            let mut jump = ijump(3, 0x3000);
            jump.tid = tid;
            rig.deliver(jump);
            rig.deliver(jump); // same thread again: still deduped
        }
        assert_eq!(rig.findings.len(), 2, "one report per thread");
        assert_eq!(rig.findings[0].tid, 0);
        assert_eq!(rig.findings[1].tid, 1);
    }

    #[test]
    fn partial_overlap_load_picks_up_taint() {
        let mut rig = Rig::new();
        rig.deliver(recv(BUF + 4, 4));
        // 8-byte load straddling clean and tainted bytes.
        rig.deliver(EventRecord::load(0x1008, 0, Some(2), Some(3), BUF, 8));
        assert!(rig.lg.reg_is_tainted(0, 3));
    }
}
