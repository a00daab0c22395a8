//! Execution errors.

use std::fmt;

/// Error terminating a [`Machine`](crate::Machine) run.
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
    /// The configured log buffer is smaller than a single transport frame,
    /// so not even one record could ever be shipped to the lifeguard.
    LogBufferTooSmall {
        /// The configured buffer size in bytes.
        buffer_bytes: u64,
        /// The minimum frame size in bytes (one cache line).
        frame_bytes: u64,
    },
    /// `records_per_frame` was configured to zero: no frame could ever
    /// seal, so no record would reach the lifeguard.
    ZeroRecordsPerFrame,
    /// `records_per_frame` was configured above what a frame's record
    /// count can express, so no frame of that size could ever seal.
    RecordsPerFrameTooLarge {
        /// The configured `records_per_frame`.
        records_per_frame: usize,
        /// The most records one frame can carry.
        max: usize,
    },
    /// The live log channel's consumer stopped draining for longer than
    /// the configured stall timeout
    /// (`LogConfig::channel_stall_timeout`): the producer latched the
    /// stall and abandoned the run instead of spinning on the full queue
    /// forever.
    ChannelStalled,
    /// The run's flight recording could not be written or closed (disk
    /// full, permissions, retention delete failure).
    Recording {
        /// What the stream layer reported.
        detail: String,
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
            RunError::LogBufferTooSmall {
                buffer_bytes,
                frame_bytes,
            } => write!(
                f,
                "log buffer of {buffer_bytes} B cannot hold a single {frame_bytes} B log frame"
            ),
            RunError::ZeroRecordsPerFrame => {
                write!(f, "log records_per_frame must be non-zero")
            }
            RunError::RecordsPerFrameTooLarge {
                records_per_frame,
                max,
            } => write!(
                f,
                "log records_per_frame of {records_per_frame} exceeds the {max} records one frame can carry"
            ),
            RunError::ChannelStalled => write!(
                f,
                "log channel stalled: the consumer stopped draining past the configured timeout"
            ),
            RunError::Recording { detail } => {
                write!(f, "flight recording failed: {detail}")
            }
        }
    }
}

impl std::error::Error for RunError {}
