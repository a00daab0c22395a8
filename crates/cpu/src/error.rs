//! Execution errors.

use std::fmt;

/// Error terminating a [`Machine`](crate::Machine) run: the machine's own
/// faults, and nothing else. What a monitored run adds on top of them (a
/// log configuration that cannot ship, a stalled channel, a recording or
/// a wire that fails) is `lba_core::LbaError`, which wraps this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The program counter left the code image.
    BadPc {
        /// The invalid program counter.
        pc: u64,
        /// The thread that faulted.
        tid: u8,
    },
    /// An indirect jump or call targeted an address outside the code image.
    BadJumpTarget {
        /// Address of the faulting instruction.
        pc: u64,
        /// The invalid target.
        target: u64,
        /// The thread that faulted.
        tid: u8,
    },
    /// Every live thread is blocked on a lock.
    Deadlock,
    /// The call stack exceeded the maximum depth.
    CallDepth {
        /// The thread that faulted.
        tid: u8,
    },
    /// The configured instruction limit was reached (runaway-loop guard).
    InstructionLimit {
        /// The configured limit.
        limit: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::BadPc { pc, tid } => {
                write!(f, "thread {tid} fetched from invalid pc {pc:#x}")
            }
            RunError::BadJumpTarget { pc, target, tid } => write!(
                f,
                "thread {tid} at {pc:#x} jumped to invalid target {target:#x}"
            ),
            RunError::Deadlock => write!(f, "all live threads are blocked on locks"),
            RunError::CallDepth { tid } => write!(f, "thread {tid} exceeded call depth"),
            RunError::InstructionLimit { limit } => {
                write!(f, "instruction limit of {limit} reached")
            }
        }
    }
}

impl std::error::Error for RunError {}
