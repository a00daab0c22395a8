//! The handler cost meter.

use lba_cache::MemSystem;

use crate::finding::Finding;

/// Execution context passed to every lifeguard handler.
///
/// Handlers *derive* their cycle cost from the work they actually perform:
/// each call to [`HandlerCtx::alu`] charges plain single-cycle instructions,
/// and each shadow-memory access goes through the monitoring core's cache
/// hierarchy (its own L1D plus the shared L2), so shadow locality and cache
/// pollution emerge from the simulation instead of being per-benchmark
/// constants.
///
/// Under LBA the context is bound to the lifeguard core; under the DBI
/// baseline it is bound to the application core, which is precisely the
/// paper's "compete for cycles and cache space" effect. A runner with no
/// modeled clock (the live modes and replay) binds it to no memory system
/// at all: shadow accesses then cost their one instruction and no cache
/// simulation, and findings are reported exactly as when timed.
#[derive(Debug)]
pub struct HandlerCtx<'a> {
    mem: Option<&'a mut MemSystem>,
    core: usize,
    findings: &'a mut Vec<Finding>,
    cycles: u64,
    /// Multiplier applied to shadow/ALU work, in percent (100 = 1.0x).
    /// The DBI engine uses >100 to model register pressure and the lack of
    /// hardware-assisted dispatch in software instrumentation.
    work_factor_pct: u64,
    pending_work: u64,
}

impl<'a> HandlerCtx<'a> {
    /// Creates a context charging work to `core` of `mem` at factor 1.0;
    /// `None` for `mem` runs the handlers untimed.
    #[must_use]
    pub fn new(
        mem: impl Into<Option<&'a mut MemSystem>>,
        core: usize,
        findings: &'a mut Vec<Finding>,
    ) -> Self {
        Self::with_work_factor(mem, core, findings, 100)
    }

    /// Creates a context with a work multiplier in percent (DBI baseline).
    ///
    /// # Panics
    ///
    /// Panics if `work_factor_pct` is zero.
    #[must_use]
    pub fn with_work_factor(
        mem: impl Into<Option<&'a mut MemSystem>>,
        core: usize,
        findings: &'a mut Vec<Finding>,
        work_factor_pct: u64,
    ) -> Self {
        assert!(work_factor_pct > 0, "work factor must be non-zero");
        HandlerCtx {
            mem: mem.into(),
            core,
            findings,
            cycles: 0,
            work_factor_pct,
            pending_work: 0,
        }
    }

    /// Charges `n` single-cycle instructions of handler work.
    pub fn alu(&mut self, n: u64) {
        self.pending_work += n;
    }

    /// Reads `width` bytes of shadow state at `shadow_addr` through the
    /// monitoring core's caches (1 cycle + any miss penalty).
    pub fn shadow_read(&mut self, shadow_addr: u64, width: u32) {
        self.shadow_access(shadow_addr, width, false);
    }

    /// Writes `width` bytes of shadow state at `shadow_addr`.
    pub fn shadow_write(&mut self, shadow_addr: u64, width: u32) {
        self.shadow_access(shadow_addr, width, true);
    }

    fn shadow_access(&mut self, shadow_addr: u64, width: u32, write: bool) {
        self.pending_work += 1;
        if let Some(mem) = self.mem.as_deref_mut() {
            self.cycles += mem.data_access(self.core, shadow_addr, width, write);
        }
    }

    /// Reports a detected problem.
    pub fn report(&mut self, finding: Finding) {
        self.findings.push(finding);
    }

    /// Total cycles charged so far (work factor applied to instruction
    /// work; cache penalties are charged at face value).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles + self.pending_work * self.work_factor_pct / 100
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::FindingKind;
    use lba_cache::MemSystemConfig;

    fn finding() -> Finding {
        Finding {
            lifeguard: "test",
            kind: FindingKind::Leak,
            pc: 0,
            tid: 0,
            addr: 0,
            message: String::new(),
        }
    }

    #[test]
    fn alu_work_accumulates() {
        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let mut findings = Vec::new();
        let mut ctx = HandlerCtx::new(&mut mem, 1, &mut findings);
        ctx.alu(3);
        ctx.alu(2);
        assert_eq!(ctx.cycles(), 5);
    }

    #[test]
    fn shadow_access_includes_cache_penalty() {
        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let mut findings = Vec::new();
        let mut ctx = HandlerCtx::new(&mut mem, 1, &mut findings);
        ctx.shadow_read(0x1_0000_0000, 1);
        let cold = ctx.cycles();
        assert!(cold > 1, "cold shadow read pays a miss: {cold}");
        ctx.shadow_read(0x1_0000_0000, 1);
        assert_eq!(ctx.cycles(), cold + 1, "warm shadow read costs one cycle");
    }

    #[test]
    fn untimed_shadow_access_costs_its_instruction_only() {
        let mut findings = Vec::new();
        let mut ctx = HandlerCtx::new(None, 1, &mut findings);
        ctx.shadow_read(0x1_0000_0000, 1);
        ctx.shadow_write(0x1_0000_0000, 8);
        ctx.report(finding());
        assert_eq!(ctx.cycles(), 2, "no cache model, no miss penalty");
    }

    #[test]
    fn work_factor_scales_instruction_work_only() {
        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        // Warm the line via a unit-factor context first.
        {
            let mut findings = Vec::new();
            let mut ctx = HandlerCtx::new(&mut mem, 0, &mut findings);
            ctx.shadow_read(0x2_0000_0000, 1);
        }
        let mut findings = Vec::new();
        let mut ctx = HandlerCtx::with_work_factor(&mut mem, 0, &mut findings, 200);
        ctx.alu(4);
        ctx.shadow_read(0x2_0000_0000, 1); // warm: 1 instruction, no penalty
        assert_eq!(ctx.cycles(), (4 + 1) * 2);
    }

    #[test]
    fn findings_reach_the_sink() {
        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let mut findings = Vec::new();
        {
            let mut ctx = HandlerCtx::new(&mut mem, 1, &mut findings);
            ctx.report(finding());
        }
        assert_eq!(findings.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_work_factor_rejected() {
        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let mut findings = Vec::new();
        let _ = HandlerCtx::with_work_factor(&mut mem, 0, &mut findings, 0);
    }
}
