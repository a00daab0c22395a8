//! Planted-bug programs for the detection examples and tests.
//!
//! The figure benchmarks are clean; these small programs each contain a
//! deliberate bug of the class one of the paper's three lifeguards
//! detects — they are the "deployed code with latent bugs" scenario the
//! paper motivates (§1).

use lba_isa::{r, Assembler, Program, Reg, Width};
use lba_mem::layout::GLOBAL_BASE;

/// A program with the full AddrCheck bug menu:
///
/// 1. a **use-after-free** read,
/// 2. a **double free**,
/// 3. an **invalid free** (interior pointer),
/// 4. a **leak** (a block never freed),
/// 5. an access to **never-allocated** heap memory.
///
/// Between the bugs it does legitimate buffer work, so the trace is not
/// bug-dominated.
#[must_use]
pub fn memory_bugs() -> Program {
    let mut asm = Assembler::new("memory-bugs");
    let (a, b, c, size) = (r(1), r(2), r(3), r(4));
    let (p, i, v) = (r(5), r(6), r(7));

    asm.movi(size, 128);
    asm.alloc(a, size);
    asm.alloc(b, size);
    asm.alloc(c, size);

    // Legitimate work: fill block A.
    asm.mov(p, a);
    asm.movi(i, 16);
    let fill = asm.here("fill");
    asm.store(i, p, 0, Width::B8);
    asm.addi(p, p, 8);
    asm.subi(i, i, 1);
    asm.bne(i, Reg::ZERO, fill);

    // Bug 1: read A after freeing it.
    asm.free(a);
    asm.load(v, a, 8, Width::B8);

    // Bug 2: free A again.
    asm.free(a);

    // Bug 3: free an interior pointer of B.
    asm.addi(p, b, 16);
    asm.free(p);

    // Bug 5: touch heap memory that was never allocated.
    asm.movi(p, 0x4100_0000);
    asm.store(v, p, 0, Width::B8);

    asm.syscall(1);
    // Clean up B but *leak* C (bug 4).
    asm.free(b);
    asm.halt();
    asm.finish().expect("memory-bugs assembles")
}

/// A control-flow-hijack victim for TaintCheck.
///
/// The program keeps a function-pointer slot directly after a fixed-size
/// input buffer and then copies `recv`'d bytes with **no bounds check**,
/// so the tail of the attacker-controlled input overwrites the function
/// pointer. The indirect call through the clobbered slot is the exploit:
/// the supplied input aims it at `privileged`, a function the normal
/// control flow never reaches. TaintCheck flags the tainted jump target.
#[must_use]
pub fn exploit() -> Program {
    let mut asm = Assembler::new("exploit");
    // Globals: 32-byte input buffer, then the function-pointer slot.
    let buf = GLOBAL_BASE as i64;
    let slot = buf + 32;

    let (p, q, i, v) = (r(1), r(2), r(3), r(4));
    let (size, h) = (r(5), r(6));

    let handler = asm.label("handler");
    let privileged = asm.label("privileged");
    let after = asm.label("after");

    // Install the legitimate handler pointer.
    asm.lea(h, handler);
    asm.movi(p, slot);
    asm.store(h, p, 0, Width::B8);

    // Receive 40 attacker bytes into a scratch heap block: 32 for the
    // buffer, 8 that will smash the slot.
    asm.movi(size, 40);
    asm.alloc(q, size);
    asm.recv(q, size);

    // memcpy(buf, input, 40) — the missing bounds check.
    asm.movi(p, buf);
    asm.movi(i, 5);
    let copy = asm.here("copy");
    asm.load(v, q, 0, Width::B8);
    asm.store(v, p, 0, Width::B8);
    asm.addi(p, p, 8);
    asm.addi(q, q, 8);
    asm.subi(i, i, 1);
    asm.bne(i, Reg::ZERO, copy);

    // Dispatch through the (now clobbered) function pointer.
    asm.movi(p, slot);
    asm.load(h, p, 0, Width::B8);
    asm.call_reg(h);
    asm.jump(after);

    asm.bind(handler);
    asm.movi(v, 1); // benign behaviour
    asm.ret();

    asm.bind(privileged);
    asm.movi(v, 0x5ec2e7); // the "secret" action the attacker wants
    asm.syscall(9);
    asm.ret();

    asm.bind(after);
    asm.halt();

    let program = asm.finish().expect("exploit assembles");
    // The attack payload: 32 filler bytes, then the address of
    // `privileged` in little-endian — computed from the assembled layout.
    let privileged_pc = program
        .code()
        .iter()
        .enumerate()
        .find_map(|(idx, inst)| match inst {
            lba_isa::Instruction::MovImm { imm, .. } if *imm == 0x5ec2e7 => {
                Some(program.pc_of(idx))
            }
            _ => None,
        })
        .expect("privileged body found");

    // Rebuild with the payload as input (the program text is identical).
    let mut input = vec![0x41u8; 32];
    input.extend_from_slice(&privileged_pc.to_le_bytes());
    rebuild_with_input(program, input)
}

/// Rebuilds a program with a replacement input stream.
fn rebuild_with_input(program: Program, input: Vec<u8>) -> Program {
    Program::new(
        program.name().to_string(),
        program.code().to_vec(),
        program.entries().to_vec(),
        program.data().to_vec(),
        input,
    )
    .expect("program stays valid")
}

/// A two-thread counter with a missing lock on one side: the classic data
/// race LockSet exists to catch. Thread 0 increments under the lock;
/// thread 1 "forgot" the lock on its second increment.
#[must_use]
pub fn data_race() -> Program {
    let mut asm = Assembler::new("data-race");
    let counter = GLOBAL_BASE as i64 + 0x40;
    let lock_addr = GLOBAL_BASE as i64 + 0x80;

    let (p, lk, v, i) = (r(1), r(2), r(3), r(4));

    // Thread 0: disciplined.
    let t0 = asm.here("t0");
    asm.entry(t0);
    asm.movi(p, counter);
    asm.movi(lk, lock_addr);
    asm.movi(i, 20);
    let t0_loop = asm.here("t0_loop");
    asm.lock(lk);
    asm.load(v, p, 0, Width::B8);
    asm.addi(v, v, 1);
    asm.store(v, p, 0, Width::B8);
    asm.unlock(lk);
    asm.subi(i, i, 1);
    asm.bne(i, Reg::ZERO, t0_loop);
    asm.syscall(1);
    asm.halt();

    // Thread 1: locks at first, then forgets.
    let t1 = asm.here("t1");
    asm.entry(t1);
    asm.movi(p, counter);
    asm.movi(lk, lock_addr);
    asm.movi(i, 10);
    let t1_locked = asm.here("t1_locked");
    asm.lock(lk);
    asm.load(v, p, 0, Width::B8);
    asm.addi(v, v, 1);
    asm.store(v, p, 0, Width::B8);
    asm.unlock(lk);
    asm.subi(i, i, 1);
    asm.bne(i, Reg::ZERO, t1_locked);
    // The buggy unprotected increment.
    asm.load(v, p, 0, Width::B8);
    asm.addi(v, v, 1);
    asm.store(v, p, 0, Width::B8);
    asm.syscall(1);
    asm.halt();

    asm.finish().expect("data-race assembles")
}

/// A victim that leaks tainted data into a syscall argument *just before*
/// the syscall — the containment scenario: the OS must stall the syscall
/// until TaintCheck catches up and flags it.
#[must_use]
pub fn tainted_syscall() -> Program {
    let mut asm = Assembler::new("tainted-syscall");
    let (buf, size) = (r(4), r(5));
    asm.movi(size, 16);
    asm.alloc(buf, size);
    asm.recv(buf, size);
    // Pad with benign work so the log has depth before the syscall.
    let (i, acc) = (r(6), r(7));
    asm.movi(i, 2000);
    let spin = asm.here("spin");
    asm.addi(acc, acc, 3);
    asm.subi(i, i, 1);
    asm.bne(i, Reg::ZERO, spin);
    // Load attacker bytes straight into the syscall argument register.
    asm.load(r(1), buf, 0, Width::B8);
    asm.syscall(13);
    asm.halt();
    asm.finish().expect("tainted-syscall assembles")
}

/// One block freed three more times at one pc: the same double free,
/// reported by AddrCheck each time it happens, so a run's findings rule
/// decides whether it is one finding or three.
#[must_use]
pub fn repeated_double_free() -> Program {
    let mut asm = Assembler::new("repeated-double-free");
    let (block, size, i) = (r(1), r(2), r(3));
    asm.movi(size, 64);
    asm.alloc(block, size);
    asm.free(block);
    asm.movi(i, 3);
    let again = asm.here("again");
    asm.free(block);
    asm.subi(i, i, 1);
    asm.bne(i, Reg::ZERO, again);
    asm.halt();
    asm.finish().expect("repeated-double-free assembles")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_bug_programs_assemble() {
        assert_eq!(memory_bugs().name(), "memory-bugs");
        assert_eq!(exploit().name(), "exploit");
        assert_eq!(data_race().name(), "data-race");
        assert_eq!(tainted_syscall().name(), "tainted-syscall");
        assert_eq!(repeated_double_free().name(), "repeated-double-free");
    }

    #[test]
    fn exploit_payload_targets_privileged_code() {
        let p = exploit();
        let payload_target = u64::from_le_bytes(p.input()[32..40].try_into().unwrap());
        assert!(
            p.index_of(payload_target).is_some(),
            "payload must be a valid code address"
        );
    }

    #[test]
    fn data_race_has_two_threads() {
        assert_eq!(data_race().entries().len(), 2);
    }
}
