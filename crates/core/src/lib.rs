//! # LBA: Log-Based Architectures
//!
//! A full-system reproduction of *"Log-Based Architectures for
//! General-Purpose Monitoring of Deployed Code"* (Chen et al., ASID'06 —
//! the ASPLOS 2006 workshop on architectural and system support for
//! improving software dependability).
//!
//! The paper proposes hardware support on a chip multiprocessor for
//! **logging an application's dynamic instruction trace** on one core and
//! delivering it — compressed, through the cache hierarchy — to a second
//! core, where a *lifeguard* consumes it as a stream of typed event
//! records. This crate ties the substrates together into the paper's three
//! execution models:
//!
//! * [`run_unmonitored`] — the baseline: the program alone on one core;
//! * [`run_lba`] — the proposed system: capture → VPC compression → framed
//!   log channel → `nlba` dispatch → lifeguard handlers on a second core,
//!   with decoupled clocks, back-pressure, and syscall-stall containment;
//! * [`run_dbi`] — the comparison point: the same lifeguard inline via
//!   Valgrind-style dynamic binary instrumentation on the application core.
//!
//! The [`experiment`] module regenerates every table and figure in the
//! paper (`cargo run --release -p lba-bench --bin figures`), and the
//! [`parallel`], [`live_parallel`] and filtering extensions implement the
//! §3 future work — [`run_live_parallel`] runs the sharded design for
//! real, with one consumer thread per shard decoding its own compressed
//! frame stream.
//!
//! Every entry point keeps one contract: the [`Run`] builder and every
//! `run_*` function return a [`RunReport`] whose findings are its
//! consumers' merged on `(kind, pc, addr, tid)`, or an [`LbaError`]. So a
//! replay of a recording reports the recording run's findings at any
//! width, and code driving several modes handles one error type.
//!
//! Every mode captures through one producer stage chain, private to this
//! crate, whose adaptive capture controller degrades capture under
//! back-pressure. The controller has one trigger, the transport's load,
//! and snaps back on a new finding or a syscall. Outside code switches it
//! on with [`LogConfig::adaptive`]; its thresholds and sampling are the
//! controller's own constants, and each lifeguard bounds what it may do
//! with its declared [`DegradationPolicy`].
//!
//! # Quickstart
//!
//! ```
//! use lba::{run_lba, run_unmonitored, SystemConfig};
//! use lba_lifeguards::AddrCheck;
//! use lba_workloads::bugs;
//!
//! let program = bugs::memory_bugs();
//! let config = SystemConfig::default();
//!
//! let baseline = run_unmonitored(&program, &config)?;
//! let mut addrcheck = AddrCheck::new();
//! let monitored = run_lba(&program, &mut addrcheck, &config)?;
//!
//! assert!(!monitored.findings.is_empty(), "the planted bugs are caught");
//! let slowdown = monitored.slowdown_vs(&baseline);
//! assert!(slowdown > 1.0);
//! # Ok::<(), lba::LbaError>(())
//! ```

#![deny(missing_docs)]

mod config;
mod controller;
mod cosim;
mod error;
pub mod experiment;
pub mod live_parallel;
pub mod parallel;
pub mod pipeline;
mod recorder;
pub mod remote;
pub mod replay;
pub mod report;
mod run;
pub mod runner;
pub mod table;

pub use config::{LogConfig, RecordConfig, SystemConfig, MAX_LIVE_CHANNEL_FRAMES};
pub use cosim::run_lba;
pub use error::LbaError;
pub use live_parallel::{run_live, run_live_parallel};
pub use pipeline::{
    Figure2Panel, MonitorSpec, RunModeSpec, TopologyKind, ADDRCHECK, LOCKSET, MEMPROFILE, MONITORS,
    RUN_MODES, TAINTCHECK,
};
pub use remote::run_remote;
pub use replay::{run_replay, run_replay_with, ReplayMode};
pub use report::{LogStats, PipelineReport, RunReport, SalvagedTail, StallBreakdown};
pub use run::{run_dbi, run_unmonitored};
pub use runner::{Run, RunMode, RunOutcome};

// Per-stream transport statistics appear in every report's `shard_log`;
// re-export the type so downstream code can name it without a direct
// lba-transport dependency. The load/fault types parameterize `LogConfig`
// and the degradation experiments.
pub use lba_transport::{ChannelStats, FaultProfile, LoadSample};

// Capture-pass types: the stats appear in run reports, and the class/spec
// pair is what custom lifeguards implement `Lifeguard::idempotency` with.
// The degradation set is the same story for `Lifeguard::degradation`.
pub use lba_lifeguard::{
    CaptureFilter, CaptureStats, DegradationPolicy, DegradationStats, DegradedInterval,
    IdempotencyClass, RegionClassifier, WindowSpec, MAX_RECORDED_INTERVALS,
};

// The machine's faults, which `LbaError::Run` wraps, come from the CPU
// substrate.
pub use lba_cpu::RunError;
