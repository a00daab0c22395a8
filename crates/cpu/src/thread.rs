//! Per-thread execution contexts.

use lba_isa::Reg;
use lba_mem::layout;

/// Maximum call-stack depth per thread.
pub const MAX_CALL_DEPTH: usize = 4096;

/// Scheduling state of one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadState {
    /// Eligible to run.
    Runnable,
    /// Waiting to acquire the lock at the given address.
    Blocked(u64),
    /// Finished (halted or returned from its entry function).
    Halted,
}

/// Architectural state of one thread.
#[derive(Debug, Clone)]
pub(crate) struct ThreadCtx {
    pub tid: u8,
    pub pc: u64,
    pub regs: [u64; Reg::COUNT],
    pub state: ThreadState,
    /// Return-address stack (the core model keeps return addresses in a
    /// link stack rather than simulated memory).
    pub ras: Vec<u64>,
}

impl ThreadCtx {
    pub fn new(tid: u8, entry: u64) -> Self {
        let mut regs = [0u64; Reg::COUNT];
        regs[Reg::SP.index()] = layout::stack_top(tid);
        ThreadCtx {
            tid,
            pc: entry,
            regs,
            state: ThreadState::Runnable,
            ras: Vec::new(),
        }
    }

    /// Reads a register; `r0` is hard-wired to zero.
    pub fn read(&self, reg: Reg) -> u64 {
        if reg == Reg::ZERO {
            0
        } else {
            self.regs[reg.index()]
        }
    }

    /// Writes a register; writes to `r0` are discarded.
    pub fn write(&mut self, reg: Reg, value: u64) {
        if reg != Reg::ZERO {
            self.regs[reg.index()] = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_hardwired() {
        let mut t = ThreadCtx::new(0, 0x1000);
        t.write(Reg::ZERO, 99);
        assert_eq!(t.read(Reg::ZERO), 0);
    }

    #[test]
    fn stack_pointer_initialised_per_thread() {
        let t0 = ThreadCtx::new(0, 0x1000);
        let t1 = ThreadCtx::new(1, 0x1000);
        assert_eq!(t0.read(Reg::SP), layout::stack_top(0));
        assert_eq!(t1.read(Reg::SP), layout::stack_top(1));
        assert_ne!(t0.read(Reg::SP), t1.read(Reg::SP));
    }

    #[test]
    fn new_thread_is_runnable_at_entry() {
        let t = ThreadCtx::new(3, 0x2000);
        assert_eq!(t.state, ThreadState::Runnable);
        assert_eq!(t.pc, 0x2000);
        assert_eq!(t.tid, 3);
    }
}
