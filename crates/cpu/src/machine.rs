//! The machine: threads, scheduler, instruction semantics and retire hook.

use std::collections::HashMap;

use lba_cache::MemSystem;
use lba_isa::{AluOp, Instruction, Program, Reg, INST_BYTES};
use lba_mem::{layout, HeapAllocator, Memory};
use lba_record::{EventKind, EventRecord};

use crate::error::RunError;
use crate::thread::{ThreadCtx, ThreadState, MAX_CALL_DEPTH};

/// Configuration of a [`Machine`].
///
/// The `*_cycles` fields model the library/kernel work behind runtime
/// events: the paper's benchmarks pay the equivalent costs inside libc and
/// the OS, whose instructions this machine does not execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Round-robin timeslice in retired instructions.
    pub quantum: u64,
    /// Heap arena size in bytes.
    pub heap_size: u64,
    /// Modelled cycles for `alloc` beyond the base instruction cost.
    pub alloc_cycles: u64,
    /// Modelled cycles for `free` beyond the base instruction cost.
    pub free_cycles: u64,
    /// Modelled cycles for `lock`/`unlock` beyond the base instruction cost.
    pub lock_cycles: u64,
    /// Modelled kernel cycles for `syscall` beyond the base instruction cost.
    pub syscall_cycles: u64,
    /// Hard stop on retired instructions (runaway-loop guard).
    pub max_instructions: u64,
    /// Which [`MemSystem`] core this machine's accesses are charged to.
    pub core: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            quantum: 4096,
            heap_size: layout::HEAP_SIZE,
            alloc_cycles: 20,
            free_cycles: 15,
            lock_cycles: 10,
            syscall_cycles: 50,
            max_instructions: 200_000_000,
            core: 0,
        }
    }
}

/// One retired instruction: its event record and base execution cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// The capture-hardware view of the instruction.
    pub record: EventRecord,
    /// Base cycles: 1 (CPI) + fetch and data-cache penalties + runtime-event
    /// costs. Excludes any monitoring overhead, and, in an untimed run
    /// (see [`Machine::step`]), the cache penalties.
    pub cycles: u64,
}

/// Where a step charges its fetch and data accesses: the cache model, or
/// nothing (`()`) in an untimed run. Each is its own instantiation of the
/// stepping code, so the timed path tests no option per access.
trait Charge {
    fn inst_fetch(&mut self, core: usize, pc: u64) -> u64;
    fn data_access(&mut self, core: usize, addr: u64, width: u32, write: bool) -> u64;
}

impl Charge for MemSystem {
    fn inst_fetch(&mut self, core: usize, pc: u64) -> u64 {
        MemSystem::inst_fetch(self, core, pc)
    }

    fn data_access(&mut self, core: usize, addr: u64, width: u32, write: bool) -> u64 {
        MemSystem::data_access(self, core, addr, width, write)
    }
}

impl Charge for () {
    fn inst_fetch(&mut self, _: usize, _: u64) -> u64 {
        0
    }

    fn data_access(&mut self, _: usize, _: u64, _: u32, _: bool) -> u64 {
        0
    }
}

/// Result of one [`Machine::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction retired.
    Retired(Retired),
    /// All threads have halted.
    Finished,
}

#[derive(Debug, Clone, Copy)]
struct LockInfo {
    owner: u8,
}

/// An executing MiniISA program: memory, heap, threads and scheduler.
///
/// The machine is deterministic: the same program and configuration always
/// produce the same instruction stream, which the co-simulation layers rely
/// on (LBA and DBI runs of one program see identical event streams).
///
/// Cache-cycle accounting is externalised: [`Machine::step`] charges its
/// fetch and data accesses to the [`MemSystem`] core named in the
/// configuration, so monitors sharing that core (DBI) or running on another
/// core (LBA lifeguard) naturally interact through the cache model. A
/// runner with no modeled clock passes no memory system at all and runs
/// untimed: the scheduler switches threads on retired-instruction quanta,
/// never on cycles, and the data lives in the machine's own memory, so the
/// retired stream is the same either way.
#[derive(Debug, Clone)]
pub struct Machine<'p> {
    program: &'p Program,
    config: MachineConfig,
    memory: Memory,
    heap: HeapAllocator,
    threads: Vec<ThreadCtx>,
    locks: HashMap<u64, LockInfo>,
    current: usize,
    quantum_left: u64,
    input_pos: usize,
    retired: u64,
}

impl<'p> Machine<'p> {
    /// Creates a machine with one thread per program entry point, loading
    /// data segments into memory.
    ///
    /// # Panics
    ///
    /// Panics if the program declares more than 255 entry points.
    #[must_use]
    pub fn new(program: &'p Program, config: MachineConfig) -> Self {
        assert!(program.entries().len() <= 255, "too many threads");
        let mut memory = Memory::new();
        // Load the encoded code image so instruction fetches touch real
        // bytes (the I-cache model keys on addresses; contents are for
        // completeness and debugging).
        memory.write_slice(lba_isa::CODE_BASE, &program.encode_code());
        for seg in program.data() {
            memory.write_slice(seg.addr, &seg.bytes);
        }
        let threads = program
            .entries()
            .iter()
            .enumerate()
            .map(|(tid, &entry)| ThreadCtx::new(tid as u8, entry))
            .collect();
        Machine {
            program,
            config,
            memory,
            heap: HeapAllocator::new(layout::HEAP_BASE, config.heap_size),
            threads,
            locks: HashMap::new(),
            current: 0,
            quantum_left: config.quantum,
            input_pos: 0,
            retired: 0,
        }
    }

    /// The program being executed.
    #[must_use]
    pub fn program(&self) -> &Program {
        self.program
    }

    /// The machine's memory (for examples and assertions).
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The heap allocator state (leak inspection in examples/tests).
    #[must_use]
    pub fn heap(&self) -> &HeapAllocator {
        &self.heap
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Reads an architectural register of thread `tid` (for tests/examples).
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    #[must_use]
    pub fn reg(&self, tid: u8, reg: Reg) -> u64 {
        self.threads[tid as usize].read(reg)
    }

    fn all_halted(&self) -> bool {
        self.threads.iter().all(|t| t.state == ThreadState::Halted)
    }

    fn next_runnable(&self, from: usize) -> Option<usize> {
        let n = self.threads.len();
        (1..=n)
            .map(|i| (from + i) % n)
            .find(|&i| self.threads[i].state == ThreadState::Runnable)
    }

    /// Executes until the next instruction retires, charging its fetch and
    /// data accesses to `mem`. `None` runs untimed: the same instruction
    /// retires with the same record, and its [`Retired::cycles`] counts
    /// only the base and runtime-event cycles, no cache penalties.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] on invalid control flow, deadlock, call-depth
    /// overflow or when the instruction limit is reached.
    pub fn step<'m>(
        &mut self,
        mem: impl Into<Option<&'m mut MemSystem>>,
    ) -> Result<StepOutcome, RunError> {
        self.step_with(mem.into())
    }

    // Not generic, so both instantiations of the stepping code compile
    // here, once, rather than into every caller's loop.
    fn step_with(&mut self, mem: Option<&mut MemSystem>) -> Result<StepOutcome, RunError> {
        match mem {
            Some(mem) => self.step_charging(mem),
            None => self.step_charging(&mut ()),
        }
    }

    /// Runs to completion, passing every retired instruction to `sink`.
    /// Returns the total base cycles (the unmonitored execution time);
    /// untimed (`mem` is `None`, see [`step`](Self::step)) they exclude
    /// cache penalties.
    ///
    /// # Errors
    ///
    /// Propagates any [`RunError`] from [`Machine::step`].
    pub fn run<'m>(
        &mut self,
        mem: impl Into<Option<&'m mut MemSystem>>,
        sink: impl FnMut(&Retired),
    ) -> Result<u64, RunError> {
        match mem.into() {
            Some(mem) => self.run_charging(mem, sink),
            None => self.run_charging(&mut (), sink),
        }
    }

    fn run_charging(
        &mut self,
        mem: &mut impl Charge,
        mut sink: impl FnMut(&Retired),
    ) -> Result<u64, RunError> {
        let mut cycles = 0;
        loop {
            match self.step_charging(mem)? {
                StepOutcome::Retired(r) => {
                    cycles += r.cycles;
                    sink(&r);
                }
                StepOutcome::Finished => return Ok(cycles),
            }
        }
    }

    fn step_charging(&mut self, mem: &mut impl Charge) -> Result<StepOutcome, RunError> {
        if self.all_halted() {
            return Ok(StepOutcome::Finished);
        }
        if self.retired >= self.config.max_instructions {
            return Err(RunError::InstructionLimit {
                limit: self.config.max_instructions,
            });
        }
        let mut attempts = 0;
        loop {
            attempts += 1;
            if attempts > self.threads.len() + 1 {
                return Err(RunError::Deadlock);
            }
            if self.threads[self.current].state != ThreadState::Runnable || self.quantum_left == 0 {
                match self.next_runnable(self.current) {
                    Some(idx) => {
                        self.current = idx;
                        self.quantum_left = self.config.quantum;
                    }
                    None => {
                        return if self.all_halted() {
                            Ok(StepOutcome::Finished)
                        } else {
                            Err(RunError::Deadlock)
                        };
                    }
                }
            }
            if let Some(retired) = self.try_execute(mem)? {
                self.quantum_left -= 1;
                self.retired += 1;
                return Ok(StepOutcome::Retired(retired));
            }
            // Current thread blocked on a lock; reschedule.
        }
    }

    /// Executes one instruction on the current thread. Returns `None` when
    /// the thread blocked on a lock (no instruction retired).
    fn try_execute(&mut self, mem: &mut impl Charge) -> Result<Option<Retired>, RunError> {
        let core = self.config.core;
        let idx = self.current;
        let tid = self.threads[idx].tid;
        let pc = self.threads[idx].pc;
        let inst = *self.program.fetch(pc).ok_or(RunError::BadPc { pc, tid })?;

        let mut cycles = 1 + mem.inst_fetch(core, pc);
        let mut next_pc = pc + INST_BYTES;
        let (in1, in2) = {
            let ins = inst.inputs();
            (ins[0].map(|r| r.to_byte()), ins[1].map(|r| r.to_byte()))
        };
        let out = inst.output().map(|r| r.to_byte());
        let mut halt_thread = false;

        let record = match inst {
            Instruction::Nop => EventRecord::alu(pc, tid, None, None, None),
            Instruction::Halt => {
                halt_thread = true;
                EventRecord {
                    pc,
                    kind: EventKind::ThreadEnd,
                    tid,
                    in1: None,
                    in2: None,
                    out: None,
                    addr: 0,
                    size: 0,
                }
            }
            Instruction::MovImm { rd, imm } => {
                self.threads[idx].write(rd, imm as u64);
                EventRecord::alu(pc, tid, None, None, out)
            }
            Instruction::Mov { rd, rs } => {
                let v = self.threads[idx].read(rs);
                self.threads[idx].write(rd, v);
                EventRecord::alu(pc, tid, in1, None, out)
            }
            Instruction::Alu { op, rd, rs1, rs2 } => {
                let a = self.threads[idx].read(rs1);
                let b = self.threads[idx].read(rs2);
                self.threads[idx].write(rd, eval_alu(op, a, b));
                EventRecord::alu(pc, tid, in1, in2, out)
            }
            Instruction::AluImm { op, rd, rs1, imm } => {
                let a = self.threads[idx].read(rs1);
                self.threads[idx].write(rd, eval_alu(op, a, imm as u64));
                EventRecord::alu(pc, tid, in1, None, out)
            }
            Instruction::Load {
                rd,
                base,
                offset,
                width,
            } => {
                let ea = self.threads[idx].read(base).wrapping_add(offset as u64);
                let w = width.bytes();
                cycles += mem.data_access(core, ea, w, false);
                let v = self.memory.read_width(ea, w);
                self.threads[idx].write(rd, v);
                EventRecord::load(pc, tid, in1, out, ea, w)
            }
            Instruction::Store {
                src,
                base,
                offset,
                width,
            } => {
                let ea = self.threads[idx].read(base).wrapping_add(offset as u64);
                let w = width.bytes();
                cycles += mem.data_access(core, ea, w, true);
                let v = self.threads[idx].read(src);
                self.memory.write_width(ea, v, w);
                EventRecord::store(pc, tid, in1, in2, ea, w)
            }
            Instruction::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let a = self.threads[idx].read(rs1);
                let b = self.threads[idx].read(rs2);
                let taken = cond.eval(a, b);
                if taken {
                    next_pc = target;
                }
                EventRecord {
                    pc,
                    kind: EventKind::Branch,
                    tid,
                    in1,
                    in2,
                    out: None,
                    addr: target,
                    size: u32::from(taken),
                }
            }
            Instruction::Jump { target } => {
                next_pc = target;
                EventRecord {
                    pc,
                    kind: EventKind::Jump,
                    tid,
                    in1: None,
                    in2: None,
                    out: None,
                    addr: target,
                    size: 0,
                }
            }
            Instruction::JumpReg { rs } => {
                let target = self.threads[idx].read(rs);
                if self.program.index_of(target).is_none() {
                    return Err(RunError::BadJumpTarget { pc, target, tid });
                }
                next_pc = target;
                EventRecord {
                    pc,
                    kind: EventKind::IndirectJump,
                    tid,
                    in1,
                    in2: None,
                    out: None,
                    addr: target,
                    size: 0,
                }
            }
            Instruction::Call { target } => {
                if self.threads[idx].ras.len() >= MAX_CALL_DEPTH {
                    return Err(RunError::CallDepth { tid });
                }
                self.threads[idx].ras.push(pc + INST_BYTES);
                next_pc = target;
                EventRecord {
                    pc,
                    kind: EventKind::Call,
                    tid,
                    in1: None,
                    in2: None,
                    out: None,
                    addr: target,
                    size: 0,
                }
            }
            Instruction::CallReg { rs } => {
                let target = self.threads[idx].read(rs);
                if self.program.index_of(target).is_none() {
                    return Err(RunError::BadJumpTarget { pc, target, tid });
                }
                if self.threads[idx].ras.len() >= MAX_CALL_DEPTH {
                    return Err(RunError::CallDepth { tid });
                }
                self.threads[idx].ras.push(pc + INST_BYTES);
                next_pc = target;
                EventRecord {
                    pc,
                    kind: EventKind::IndirectJump,
                    tid,
                    in1,
                    in2: None,
                    out: None,
                    addr: target,
                    size: 0,
                }
            }
            Instruction::Ret => match self.threads[idx].ras.pop() {
                Some(ra) => {
                    next_pc = ra;
                    EventRecord {
                        pc,
                        kind: EventKind::Return,
                        tid,
                        in1: None,
                        in2: None,
                        out: None,
                        addr: ra,
                        size: 0,
                    }
                }
                None => {
                    // Returning from the entry function ends the thread.
                    halt_thread = true;
                    EventRecord {
                        pc,
                        kind: EventKind::ThreadEnd,
                        tid,
                        in1: None,
                        in2: None,
                        out: None,
                        addr: 0,
                        size: 0,
                    }
                }
            },
            Instruction::Alloc { rd, size } => {
                let req = self.threads[idx].read(size);
                cycles += self.config.alloc_cycles;
                let ptr = self.heap.alloc(req).unwrap_or(0);
                self.threads[idx].write(rd, ptr);
                EventRecord {
                    pc,
                    kind: EventKind::Alloc,
                    tid,
                    in1,
                    in2: None,
                    out,
                    addr: ptr,
                    size: req.min(u64::from(u32::MAX)) as u32,
                }
            }
            Instruction::Free { rs } => {
                let addr = self.threads[idx].read(rs);
                cycles += self.config.free_cycles;
                // Tolerant runtime: erroneous frees are the lifeguard's to
                // flag; the heap itself stays consistent.
                let _ = self.heap.free(addr);
                EventRecord {
                    pc,
                    kind: EventKind::Free,
                    tid,
                    in1,
                    in2: None,
                    out: None,
                    addr,
                    size: 0,
                }
            }
            Instruction::Lock { rs } => {
                let addr = self.threads[idx].read(rs);
                match self.locks.get(&addr) {
                    Some(info) if info.owner != tid => {
                        // Lock held elsewhere: block without retiring.
                        self.threads[idx].state = ThreadState::Blocked(addr);
                        return Ok(None);
                    }
                    _ => {
                        self.locks.insert(addr, LockInfo { owner: tid });
                    }
                }
                cycles += self.config.lock_cycles;
                EventRecord {
                    pc,
                    kind: EventKind::Lock,
                    tid,
                    in1,
                    in2: None,
                    out: None,
                    addr,
                    size: 0,
                }
            }
            Instruction::Unlock { rs } => {
                let addr = self.threads[idx].read(rs);
                if self.locks.get(&addr).is_some_and(|info| info.owner == tid) {
                    self.locks.remove(&addr);
                    for t in &mut self.threads {
                        if t.state == ThreadState::Blocked(addr) {
                            t.state = ThreadState::Runnable;
                        }
                    }
                }
                cycles += self.config.lock_cycles;
                EventRecord {
                    pc,
                    kind: EventKind::Unlock,
                    tid,
                    in1,
                    in2: None,
                    out: None,
                    addr,
                    size: 0,
                }
            }
            Instruction::Recv { base, len } => {
                let dst = self.threads[idx].read(base);
                let n = self.threads[idx].read(len);
                let n = n.min(1 << 20); // cap one transfer at 1 MiB
                let bytes = self.next_input(n as usize);
                self.memory.write_slice(dst, &bytes);
                // Kernel-side copy: charge one write per 8-byte chunk.
                let mut off = 0u64;
                while off < n {
                    cycles += mem.data_access(core, dst + off, 8.min((n - off) as u32), true);
                    off += 8;
                }
                EventRecord {
                    pc,
                    kind: EventKind::Recv,
                    tid,
                    in1,
                    in2,
                    out: None,
                    addr: dst,
                    size: n as u32,
                }
            }
            Instruction::Syscall { num } => {
                cycles += self.config.syscall_cycles;
                EventRecord {
                    pc,
                    kind: EventKind::Syscall,
                    tid,
                    in1: None,
                    in2: None,
                    out: None,
                    addr: 0,
                    size: u32::from(num),
                }
            }
        };

        if halt_thread {
            self.threads[idx].state = ThreadState::Halted;
        } else {
            self.threads[idx].pc = next_pc;
        }
        Ok(Some(Retired { record, cycles }))
    }

    /// Produces `n` input bytes; the stream repeats cyclically so `recv`
    /// always delivers the requested length (deterministic workloads rely
    /// on this). An empty input stream yields zeros.
    fn next_input(&mut self, n: usize) -> Vec<u8> {
        let input = self.program.input();
        if input.is_empty() {
            return vec![0; n];
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(input[self.input_pos]);
            self.input_pos = (self.input_pos + 1) % input.len();
        }
        out
    }
}

fn eval_alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        // Division by zero yields 0 rather than trapping (RISC-V semantics
        // would give all-ones; 0 keeps planted-bug workloads deterministic).
        AluOp::Div => a.checked_div(b).unwrap_or(0),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl((b & 63) as u32),
        AluOp::Shr => a.wrapping_shr((b & 63) as u32),
        AluOp::Slt => u64::from((a as i64) < (b as i64)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lba_cache::MemSystemConfig;
    use lba_isa::parse_program;

    fn run_program(src: &str) -> (Vec<EventRecord>, u64) {
        let program = parse_program(src).expect("valid program");
        let mut machine = Machine::new(&program, MachineConfig::default());
        let mut mem = MemSystem::new(MemSystemConfig::single_core());
        let mut records = Vec::new();
        let cycles = machine
            .run(&mut mem, |r| records.push(r.record))
            .expect("runs");
        (records, cycles)
    }

    #[test]
    fn straight_line_arithmetic() {
        let program = parse_program("movi r1, 6\nmuli r1, r1, 7\nhalt").unwrap();
        let mut machine = Machine::new(&program, MachineConfig::default());
        let mut mem = MemSystem::new(MemSystemConfig::single_core());
        machine.run(&mut mem, |_| {}).unwrap();
        assert_eq!(machine.reg(0, lba_isa::r(1)), 42);
    }

    #[test]
    fn loop_retires_expected_count() {
        let (records, _) = run_program(
            "
            movi r1, 10
            top:
              subi r1, r1, 1
              bne r1, r0, top
            halt
            ",
        );
        // 1 movi + 10*(subi+bne) + halt(thread-end)
        assert_eq!(records.len(), 1 + 20 + 1);
        assert_eq!(records.last().unwrap().kind, EventKind::ThreadEnd);
    }

    #[test]
    fn loads_and_stores_round_trip_through_memory() {
        let (records, _) = run_program(
            "
            movi r2, 0x100000
            movi r1, 77
            store.8 r1, [r2+0]
            load.8 r3, [r2+0]
            store.8 r3, [r2+8]
            halt
            ",
        );
        let stores: Vec<_> = records
            .iter()
            .filter(|r| r.kind == EventKind::Store)
            .collect();
        assert_eq!(stores.len(), 2);
        assert_eq!(stores[0].addr, 0x10_0000);
        assert_eq!(stores[1].addr, 0x10_0008);
    }

    #[test]
    fn memory_values_visible_after_run() {
        let program = parse_program(
            "
            movi r2, 0x100000
            movi r1, 513
            store.4 r1, [r2+0]
            halt
            ",
        )
        .unwrap();
        let mut machine = Machine::new(&program, MachineConfig::default());
        let mut mem = MemSystem::new(MemSystemConfig::single_core());
        machine.run(&mut mem, |_| {}).unwrap();
        assert_eq!(machine.memory().read_u32(0x10_0000), 513);
    }

    #[test]
    fn call_and_ret_use_link_stack() {
        let (records, _) = run_program(
            "
            call f
            halt
            f:
              ret
            ",
        );
        let kinds: Vec<_> = records.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Call, EventKind::Return, EventKind::ThreadEnd]
        );
        assert_eq!(
            records[1].addr,
            lba_isa::CODE_BASE + INST_BYTES,
            "returns to halt"
        );
    }

    #[test]
    fn ret_from_entry_ends_thread() {
        let (records, _) = run_program("nop\nret");
        assert_eq!(records.last().unwrap().kind, EventKind::ThreadEnd);
    }

    #[test]
    fn alloc_free_events_carry_addresses() {
        let (records, _) = run_program(
            "
            movi r1, 64
            alloc r2, r1
            free r2
            halt
            ",
        );
        let alloc = records.iter().find(|r| r.kind == EventKind::Alloc).unwrap();
        let free = records.iter().find(|r| r.kind == EventKind::Free).unwrap();
        assert_eq!(alloc.addr, layout::HEAP_BASE);
        assert_eq!(alloc.size, 64);
        assert_eq!(free.addr, alloc.addr);
    }

    #[test]
    fn recv_writes_input_and_reports_range() {
        let program = parse_program(
            "
            .input \"abcd\"
            movi r1, 0x100000
            movi r2, 6
            recv r1, r2
            halt
            ",
        )
        .unwrap();
        let mut machine = Machine::new(&program, MachineConfig::default());
        let mut mem = MemSystem::new(MemSystemConfig::single_core());
        let mut recv = None;
        machine
            .run(&mut mem, |r| {
                if r.record.kind == EventKind::Recv {
                    recv = Some(r.record);
                }
            })
            .unwrap();
        let recv = recv.expect("recv event");
        assert_eq!(recv.addr, 0x10_0000);
        assert_eq!(recv.size, 6);
        // Input repeats cyclically: "abcdab".
        assert_eq!(machine.memory().read_vec(0x10_0000, 6), b"abcdab");
    }

    #[test]
    fn indirect_jump_through_register() {
        let (records, _) = run_program(
            "
            lea r1, target
            jmpr r1
            nop
            target:
              halt
            ",
        );
        let ij = records
            .iter()
            .find(|r| r.kind == EventKind::IndirectJump)
            .unwrap();
        assert_eq!(ij.addr, lba_isa::CODE_BASE + 3 * INST_BYTES);
        // The nop was skipped.
        assert_eq!(records.len(), 3);
    }

    #[test]
    fn bad_indirect_target_is_an_error() {
        let program = parse_program("movi r1, 0x999999\njmpr r1\nhalt").unwrap();
        let mut machine = Machine::new(&program, MachineConfig::default());
        let mut mem = MemSystem::new(MemSystemConfig::single_core());
        let err = machine.run(&mut mem, |_| {}).unwrap_err();
        assert!(matches!(
            err,
            RunError::BadJumpTarget {
                target: 0x99_9999,
                ..
            }
        ));
    }

    #[test]
    fn two_threads_interleave() {
        let (records, _) = run_program(
            "
            .entry t0
            .entry t1
            t0:
              movi r1, 1
              halt
            t1:
              movi r1, 2
              halt
            ",
        );
        let tids: std::collections::HashSet<u8> = records.iter().map(|r| r.tid).collect();
        assert_eq!(tids.len(), 2);
        assert_eq!(
            records
                .iter()
                .filter(|r| r.kind == EventKind::ThreadEnd)
                .count(),
            2
        );
    }

    #[test]
    fn contended_lock_serialises() {
        // Thread 0 takes the lock, then both threads increment a shared
        // counter under the lock; final value must be 2.
        let (records, _) = run_program(
            "
            .entry t0
            .entry t1
            t0:
              movi r2, 0x100000
              movi r3, 0x100100
              lock r3
              load.8 r1, [r2+0]
              addi r1, r1, 1
              store.8 r1, [r2+0]
              unlock r3
              halt
            t1:
              movi r2, 0x100000
              movi r3, 0x100100
              lock r3
              load.8 r1, [r2+0]
              addi r1, r1, 1
              store.8 r1, [r2+0]
              unlock r3
              halt
            ",
        );
        assert_eq!(
            records.iter().filter(|r| r.kind == EventKind::Lock).count(),
            2
        );
        assert_eq!(
            records
                .iter()
                .filter(|r| r.kind == EventKind::Unlock)
                .count(),
            2
        );
    }

    #[test]
    fn lock_updates_are_atomic_under_contention() {
        // Small quantum forces interleaving inside the critical section if
        // locking were broken.
        let src = "
            .entry t0
            .entry t1
            t0:
              movi r2, 0x100000
              movi r3, 0x100100
              movi r4, 50
            t0loop:
              lock r3
              load.8 r1, [r2+0]
              addi r1, r1, 1
              store.8 r1, [r2+0]
              unlock r3
              subi r4, r4, 1
              bne r4, r0, t0loop
              halt
            t1:
              movi r2, 0x100000
              movi r3, 0x100100
              movi r4, 50
            t1loop:
              lock r3
              load.8 r1, [r2+0]
              addi r1, r1, 1
              store.8 r1, [r2+0]
              unlock r3
              subi r4, r4, 1
              bne r4, r0, t1loop
              halt
            ";
        let program = parse_program(src).unwrap();
        let config = MachineConfig {
            quantum: 3,
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(&program, config);
        let mut mem = MemSystem::new(MemSystemConfig::single_core());
        machine.run(&mut mem, |_| {}).unwrap();
        assert_eq!(machine.memory().read_u64(0x10_0000), 100);
    }

    #[test]
    fn deadlock_detected() {
        // Two threads acquire two locks in opposite order with a small
        // quantum: classic ABBA deadlock.
        let src = "
            .entry t0
            .entry t1
            t0:
              movi r1, 0x100000
              movi r2, 0x100100
              lock r1
              nop
              nop
              nop
              nop
              lock r2
              halt
            t1:
              movi r1, 0x100000
              movi r2, 0x100100
              lock r2
              nop
              nop
              nop
              nop
              lock r1
              halt
            ";
        let program = parse_program(src).unwrap();
        let config = MachineConfig {
            quantum: 4,
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(&program, config);
        let mut mem = MemSystem::new(MemSystemConfig::single_core());
        let err = machine.run(&mut mem, |_| {}).unwrap_err();
        assert_eq!(err, RunError::Deadlock);
    }

    #[test]
    fn instruction_limit_guards_runaway_loops() {
        let program = parse_program("top:\n  jmp top\nhalt").unwrap();
        let config = MachineConfig {
            max_instructions: 100,
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(&program, config);
        let mut mem = MemSystem::new(MemSystemConfig::single_core());
        let err = machine.run(&mut mem, |_| {}).unwrap_err();
        assert_eq!(err, RunError::InstructionLimit { limit: 100 });
    }

    #[test]
    fn syscall_charges_kernel_cycles() {
        let program = parse_program("syscall 1\nhalt").unwrap();
        let mut machine = Machine::new(&program, MachineConfig::default());
        let mut mem = MemSystem::new(MemSystemConfig::single_core());
        let mut sys_cycles = 0;
        machine
            .run(&mut mem, |r| {
                if r.record.kind == EventKind::Syscall {
                    sys_cycles = r.cycles;
                }
            })
            .unwrap();
        assert!(sys_cycles >= MachineConfig::default().syscall_cycles);
    }

    #[test]
    fn double_free_is_tolerated_but_visible_in_events() {
        let (records, _) = run_program(
            "
            movi r1, 32
            alloc r2, r1
            free r2
            free r2
            halt
            ",
        );
        let frees: Vec<_> = records
            .iter()
            .filter(|r| r.kind == EventKind::Free)
            .collect();
        assert_eq!(
            frees.len(),
            2,
            "both frees retire; the lifeguard flags the second"
        );
        assert_eq!(frees[0].addr, frees[1].addr);
    }

    #[test]
    fn cycles_include_cache_penalties() {
        let (_, cycles_cold) = run_program(
            "
            movi r2, 0x100000
            load.8 r1, [r2+0]
            halt
            ",
        );
        // 3 instructions at CPI 1 plus at least one I-miss and one D-miss.
        assert!(
            cycles_cold > 3 + 100,
            "cold misses dominate: got {cycles_cold}"
        );
    }

    #[test]
    fn step_after_finish_keeps_returning_finished() {
        let program = parse_program("halt").unwrap();
        let mut machine = Machine::new(&program, MachineConfig::default());
        let mut mem = MemSystem::new(MemSystemConfig::single_core());
        machine.run(&mut mem, |_| {}).unwrap();
        assert_eq!(machine.step(&mut mem).unwrap(), StepOutcome::Finished);
        assert_eq!(machine.step(&mut mem).unwrap(), StepOutcome::Finished);
    }
}
