//! The staged capture pipeline every run mode is a composition of.
//!
//! The producer side of the pipeline — machine stepping, capture
//! filtering, adaptive controller transitions, syscall containment — is
//! written here exactly once, and is private to `lba-core`:
//!
//! * `Producer` — the per-record stage chain (trace accounting →
//!   [`CaptureFilter`] → the adaptive controller's verdicts and
//!   transitions → ship), with the degradation ledger and syscall-flush
//!   containment written once and driven through a mode-specific
//!   `ProducerLink`;
//! * `ProducerLink` — what a run mode must plug in: where shipped
//!   records go, how a degradation transition flushes and marks its
//!   transport, and which load/finding signals feed the controller;
//! * [`TopologyKind`] — how shipped records map onto consumers: one
//!   consumer, address-interleaved shards ([`lba_transport::shard_of`]),
//!   or recorded streams; each runner's link routes with `shard_of`
//!   directly;
//! * [`MONITORS`] / [`RUN_MODES`] — the one registry of lifeguards and
//!   modes. A [`MonitorSpec`] row ([`ADDRCHECK`], [`TAINTCHECK`],
//!   [`LOCKSET`], [`MEMPROFILE`]) is the one lifeguard handle: it builds
//!   the instance each execution model runs (the DBI baseline's LockSet
//!   recomputes its locksets) and carries the lifeguard's Figure 2 panel,
//!   so the [`Run`] builder, the experiment layer, the benchmarks and the
//!   equivalence suites all name lifeguards by it. Each `RUN_MODES` row's
//!   `run` hook is the [`Run`] builder's dispatch for that mode.
//!
//! Adaptive capture has one trigger: the transport's load, which the
//! link samples, with snapback on a new finding or a syscall. Outside
//! code steers it only through the
//! [`LogConfig::adaptive`](crate::LogConfig::adaptive) switch and the
//! lifeguard's two contracts, its [`IdempotencyClass`] and its
//! [`DegradationPolicy`], which the producer reads once each. Whether the
//! dedup window widens while degraded is decided once, when the capture
//! filter is built with or without a widen reserve; the producer widens
//! and tightens the filter at every transition, and a filter without a
//! reserve never widens.
//!
//! The runners (`cosim.rs`, the modeled one behind `run_lba` and
//! `run_lba_parallel`; `live_parallel.rs`, the live one; `replay.rs`) are
//! thin compositions over these pieces; the cross-mode equivalence
//! proptests pin that the composition is bit-for-bit what the hand-rolled
//! loops produced.

use lba_lifeguard::{
    CaptureFilter, CaptureStats, DegradationPolicy, DegradationStats, IdempotencyClass, Lifeguard,
};
use lba_lifeguards::{AddrCheck, LockSet, LockSetConfig, MemProfile, TaintCheck};
use lba_record::{EventKind, EventRecord, TraceStats};
use lba_transport::LoadSample;
use lba_workloads::Benchmark;

use crate::config::SystemConfig;
use crate::controller::{CaptureController, Transition, Verdict};
use crate::error::LbaError;
use crate::runner::{Run, RunMode, RunOutcome};

/// What one run mode plugs under the [`Producer`]: the transport-facing
/// half of the capture pipeline. The producer decides *what* ships and
/// *when* fidelity transitions happen; the link owns the plumbing —
/// pushing records, flushing frames, marking the wire degraded, absorbing
/// modeled timing — because only the mode knows its transport. The two
/// runners are the two links: the co-simulation's and the live runner's.
pub(crate) trait ProducerLink {
    /// Ships one captured record into the transport (absorbing any
    /// modeled back-pressure).
    fn ship(&mut self, rec: &EventRecord);

    /// Applies a degradation transition to the transport: flush every
    /// open frame (so the mark changes on a frame boundary), then set
    /// (`on`) or clear the wire's degraded mark. After a disengagement
    /// the producer ships the tighten summaries (if any). Only called
    /// when the mode runs a [`CaptureController`].
    fn mark_degraded(&mut self, on: bool);

    /// The transport occupancy the controller steers by.
    fn load_sample(&self) -> LoadSample;

    /// The current finding count — growth snaps degraded capture back to
    /// full fidelity.
    fn finding_count(&self) -> u64;

    /// Enforces the syscall containment policy (§2): flush the open
    /// frame and — where the mode models it — stall the application
    /// until the lifeguards drain the preceding log. Only a producer
    /// built with syscall containment calls it.
    fn contain_syscall(&mut self);

    /// Synchronises the cores after one record (the lock-step ablation).
    fn lockstep(&mut self);
}

/// What the producer stage chain hands back when the stream ends.
#[derive(Debug)]
pub(crate) struct ProducerFinish {
    /// Trace statistics over every retired record.
    pub trace: TraceStats,
    /// The capture filter's ledger (captured/filtered/deduped/folded).
    pub capture: CaptureStats,
    /// The degradation ledger ([`DegradationStats::default`] when the
    /// mode ran without a controller).
    pub degradation: DegradationStats,
}

/// The producer half of the capture pipeline, written once for every run
/// mode: trace accounting, the capture-filter pass, the adaptive
/// controller's transitions and verdicts, and syscall containment, all
/// driven through a mode-specific [`ProducerLink`].
///
/// Drive it with one [`observe`](Self::observe) per retired record and
/// one [`finish`](Self::finish) after the last; the link receives every
/// shipped record and every transport-facing transition in exactly the
/// order the pre-refactor hand-rolled loops produced them.
#[derive(Debug)]
pub(crate) struct Producer {
    trace: TraceStats,
    filter: CaptureFilter,
    shipping: Vec<EventRecord>,
    controller: Option<CaptureController>,
    syscall_stall: bool,
    decoupled: bool,
}

impl Producer {
    /// A producer shipping through `filter`, with the adaptive controller
    /// (when `adaptive` is set and the lifeguard declares a `policy`)
    /// steering within `policy` and the dedup window `class` declares.
    fn build(
        filter: CaptureFilter,
        class: IdempotencyClass,
        policy: Option<DegradationPolicy>,
        adaptive: bool,
        syscall_stall: bool,
        decoupled: bool,
    ) -> Self {
        Producer {
            trace: TraceStats::new(),
            filter,
            shipping: Vec::new(),
            controller: (policy.filter(|_| adaptive))
                .map(|policy| CaptureController::new(policy, class.spec())),
            syscall_stall,
            decoupled,
        }
    }

    /// The single-consumer producer (`run_lba`, `run_live`): the full
    /// capture pass
    /// ([`LogConfig::adaptive_capture_filter`](crate::LogConfig::adaptive_capture_filter)),
    /// the adaptive controller when configured, syscall containment per
    /// `config.log.syscall_stall`, and the lock-step ablation per
    /// `config.log.decoupled` (a no-op on real threads, whose link's
    /// [`ProducerLink::lockstep`] does nothing).
    #[must_use]
    pub(crate) fn single(lifeguard: &dyn Lifeguard, config: &SystemConfig) -> Self {
        let (class, policy) = (lifeguard.idempotency(), lifeguard.degradation());
        let log = &config.log;
        let filter = log.adaptive_capture_filter(class, &policy);
        Producer::build(
            filter,
            class,
            policy,
            log.adaptive,
            log.syscall_stall,
            log.decoupled,
        )
    }

    /// The sharded-mode producer (`run_lba_parallel`,
    /// `run_live_parallel`, `run_remote`): the shard capture filter
    /// (idempotency window but no address-range filter, so every shard
    /// ships an identical stream — see
    /// [`LogConfig::adaptive_shard_capture_filter`](crate::LogConfig::adaptive_shard_capture_filter)),
    /// the adaptive controller when configured, and no syscall
    /// containment (the sharded study measures steady-state capture).
    #[must_use]
    pub(crate) fn sharded(lifeguard: &dyn Lifeguard, config: &SystemConfig) -> Self {
        let (class, policy) = (lifeguard.idempotency(), lifeguard.degradation());
        let log = &config.log;
        let filter = log.adaptive_shard_capture_filter(class, &policy);
        Producer::build(filter, class, policy, log.adaptive, false, true)
    }

    /// Observes one retired record: trace accounting, the controller's
    /// transition and verdict, the capture-filter pass on shipped
    /// records, and syscall containment — in exactly that order.
    pub(crate) fn observe<L: ProducerLink + ?Sized>(&mut self, rec: &EventRecord, link: &mut L) {
        self.trace.observe(rec);

        // Adaptive capture: the controller watches the link's load signal
        // and degrades (or restores) capture fidelity within the
        // lifeguard's declared policy. Transitions flush first (inside
        // the link's mark_degraded) so the wire's degraded mark is
        // frame-accurate.
        let mut admit = Verdict::Ship;
        if let Some(ctl) = self.controller.as_mut() {
            match ctl.tick(link.load_sample(), link.finding_count()) {
                Some(Transition::Engage) => {
                    link.mark_degraded(true);
                    self.filter.widen_window();
                }
                Some(Transition::Disengage) => {
                    link.mark_degraded(false);
                    self.filter
                        .tighten_window_into(&mut self.shipping, |rec| link.ship(rec));
                }
                None => {}
            }
            admit = ctl.admit(rec);
        }

        // Capture pass: range filter + idempotency window decide what
        // enters the log in one predicate. A record the controller
        // sampled out or kind-dropped never reaches it.
        if admit == Verdict::Ship {
            self.filter
                .capture_into(rec, &mut self.shipping, |rec| link.ship(rec));
        }

        // Containment: stall the syscall until the lifeguard has checked
        // everything that precedes it — which requires flushing the open
        // partial frame. The lock-step ablation synchronises after every
        // record instead.
        if rec.kind == EventKind::Syscall && self.syscall_stall {
            link.contain_syscall();
        } else if !self.decoupled {
            link.lockstep();
        }
    }

    /// Ends the stream: a run ending degraded snaps back first (the
    /// closing fold summaries and final checks happen at full fidelity,
    /// and the open degraded interval closes in the stats), then
    /// outstanding fold counts settle into the link.
    pub(crate) fn finish<L: ProducerLink + ?Sized>(mut self, link: &mut L) -> ProducerFinish {
        let degradation = match self.controller.take() {
            Some(ctl) => {
                if ctl.engaged() {
                    link.mark_degraded(false);
                    self.filter
                        .tighten_window_into(&mut self.shipping, |rec| link.ship(rec));
                }
                ctl.finish()
            }
            None => DegradationStats::default(),
        };
        self.filter
            .finish_into(&mut self.shipping, |rec| link.ship(rec));
        ProducerFinish {
            trace: self.trace,
            capture: self.filter.stats(),
            degradation,
        }
    }
}

/// One lifeguard in the registry, and the one handle every harness names
/// it by: its stable name, the instance each execution model runs, which
/// consumer topologies are sound for it, and its Figure 2 panel. The
/// [`Run`] builder takes a row, the experiment layer runs Figure 2 from
/// the rows that have a panel, and the benchmarks and the cross-mode
/// equivalence suite iterate [`MONITORS`], so a new lifeguard lands in
/// every harness by adding one row here.
#[derive(Debug, Clone, Copy)]
pub struct MonitorSpec {
    /// Stable lowercase name (matches `Lifeguard::name`).
    pub name: &'static str,
    /// Builds a fresh instance for the log-based modes, configured for the
    /// lifeguard core (hardware-assisted: LockSet memoises its lockset
    /// operations).
    pub make: fn() -> Box<dyn Lifeguard>,
    /// Builds a fresh instance for the DBI baseline ([`RunMode::Dbi`] and
    /// Figure 2's Valgrind bars): software-only, so LockSet recomputes its
    /// locksets as the paper-era software race detectors did. The other
    /// lifeguards run the same instance as `make`.
    pub make_dbi: fn() -> Box<dyn Lifeguard>,
    /// Whether address-interleaved sharding ([`TopologyKind::Sharded`]) is
    /// sound and benchmarked for this lifeguard (per-address state only).
    pub shardable: bool,
    /// The lifeguard's panel of the paper's Figure 2; `None` for the
    /// extensions the paper does not evaluate.
    pub figure2: Option<Figure2Panel>,
}

/// One panel of the paper's Figure 2: the programs a lifeguard is
/// evaluated on and the average LBA slowdown the paper reports for it.
#[derive(Debug, Clone, Copy)]
pub struct Figure2Panel {
    /// The panel's benchmarks: the seven single-threaded programs for
    /// AddrCheck and TaintCheck, the two multi-threaded ones for LockSet.
    pub benchmarks: &'static [Benchmark],
    /// The paper's average LBA slowdown (§3: 3.9×, 4.8×, 9.7×).
    pub paper_avg_slowdown: f64,
}

/// Memory-allocation checking (Figure 2(a)).
pub const ADDRCHECK: MonitorSpec = MonitorSpec {
    name: "addrcheck",
    make: || Box::new(AddrCheck::new()),
    make_dbi: || Box::new(AddrCheck::new()),
    shardable: true,
    figure2: Some(Figure2Panel {
        benchmarks: &Benchmark::SINGLE_THREADED,
        paper_avg_slowdown: 3.9,
    }),
};

/// Dynamic information-flow tracking (Figure 2(b)).
pub const TAINTCHECK: MonitorSpec = MonitorSpec {
    name: "taintcheck",
    make: || Box::new(TaintCheck::new()),
    make_dbi: || Box::new(TaintCheck::new()),
    shardable: false,
    figure2: Some(Figure2Panel {
        benchmarks: &Benchmark::SINGLE_THREADED,
        paper_avg_slowdown: 4.8,
    }),
};

/// Eraser-style race detection (Figure 2(c)).
pub const LOCKSET: MonitorSpec = MonitorSpec {
    name: "lockset",
    make: || Box::new(LockSet::new()),
    make_dbi: || {
        Box::new(LockSet::with_config(LockSetConfig {
            memoize: false,
            call_overhead: 20,
        }))
    },
    shardable: true,
    figure2: Some(Figure2Panel {
        benchmarks: &Benchmark::MULTI_THREADED,
        paper_avg_slowdown: 9.7,
    }),
};

/// Memory-access profiling, the extension lifeguard outside Figure 2.
pub const MEMPROFILE: MonitorSpec = MonitorSpec {
    name: "memprofile",
    make: || Box::new(MemProfile::new()),
    make_dbi: || Box::new(MemProfile::new()),
    shardable: false,
    figure2: None,
};

/// Every lifeguard the harnesses drive, in figure order: the paper's
/// three plus the MemProfile extension.
pub const MONITORS: [MonitorSpec; 4] = [ADDRCHECK, TAINTCHECK, LOCKSET, MEMPROFILE];

/// How a run mode maps shipped records onto its consumers. The modeled
/// runners simulate their consumers' clocks on one thread; the live
/// runners give each consumer an OS thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// One lifeguard consumes the full stream in order — the paper's base
    /// design.
    Single,
    /// Memory records go to the shard owning their cache line
    /// ([`lba_transport::shard_of`]), everything else broadcasts; the
    /// shards' findings merge in shard order at the end. Sound only for
    /// lifeguards whose per-address state is independent.
    Sharded,
    /// The consumers' inputs are recorded streams, one per original
    /// channel, so routing was fixed when the recording was made.
    Replay,
}

/// One run mode in the registry: what topology it instantiates (and so
/// how its outcome relates to the sequential `run_lba` baseline), which
/// lifeguards it supports, and how the [`Run`] builder dispatches it.
#[derive(Debug, Clone, Copy)]
pub struct RunModeSpec {
    /// Stable mode name.
    pub name: &'static str,
    /// The builder mode this row dispatches.
    pub mode: RunMode,
    /// Consumer topology shape. It also fixes the mode's contract with
    /// the `run_lba` baseline: a [`Sharded`](TopologyKind::Sharded) mode's
    /// findings equal the baseline's as a set (merged in shard order, as
    /// every mode merges its consumers') and it ships its own record and
    /// wire counts; every other mode matches the baseline's findings,
    /// records and wire bits exactly.
    pub topology: TopologyKind,
    /// Whether this lifeguard can run under this mode.
    pub supports: fn(&MonitorSpec) -> bool,
    /// Runs a request for this mode. [`Run::run`] checks the `supports`
    /// predicate and the request's worker count first, then hands the
    /// request here.
    pub run: fn(&Run<'_>) -> Result<RunOutcome, LbaError>,
}

fn supports_all(_spec: &MonitorSpec) -> bool {
    true
}

fn supports_shardable(spec: &MonitorSpec) -> bool {
    spec.shardable
}

/// Every run mode the harnesses drive, with its topology (which fixes its
/// baseline-equivalence contract), support predicate and dispatch hook.
/// The [`Run`] builder dispatches through this table, and
/// `lba_bench::pipeline` and `tests/equivalence.rs` derive their mode
/// enumerations from it: each mode's name is a series of the committed
/// `BENCH_pipeline.json` trajectory.
pub const RUN_MODES: [RunModeSpec; 6] = [
    RunModeSpec {
        name: "lba",
        mode: RunMode::Lba,
        topology: TopologyKind::Single,
        supports: supports_all,
        run: |run| {
            let mut lifeguard = (run.monitor.make)();
            let report = crate::cosim::run_lba(run.program, lifeguard.as_mut(), &run.config)?;
            Ok(RunOutcome::Run(report))
        },
    },
    RunModeSpec {
        name: "live",
        mode: RunMode::Live,
        topology: TopologyKind::Single,
        supports: supports_all,
        run: |run| {
            let mut lifeguard = (run.monitor.make)();
            let report =
                crate::live_parallel::run_live(run.program, lifeguard.as_mut(), &run.config)?;
            Ok(RunOutcome::Live(report))
        },
    },
    RunModeSpec {
        name: "lba-parallel",
        mode: RunMode::LbaParallel,
        topology: TopologyKind::Sharded,
        supports: supports_shardable,
        run: |run| {
            let report = crate::parallel::run_lba_parallel(
                run.program,
                run.monitor.make,
                run.workers,
                &run.config,
            )?;
            Ok(RunOutcome::Parallel(report))
        },
    },
    RunModeSpec {
        name: "live-parallel",
        mode: RunMode::LiveParallel,
        topology: TopologyKind::Sharded,
        supports: supports_shardable,
        run: |run| {
            let report = crate::live_parallel::run_live_parallel(
                run.program,
                run.monitor.make,
                run.workers,
                &run.config,
            )?;
            Ok(RunOutcome::LiveParallel(report))
        },
    },
    RunModeSpec {
        name: "remote",
        mode: RunMode::Remote,
        topology: TopologyKind::Sharded,
        supports: supports_shardable,
        run: |run| {
            let report =
                crate::remote::run_remote(run.program, run.monitor.make, run.workers, &run.config)?;
            Ok(RunOutcome::Remote(report))
        },
    },
    RunModeSpec {
        name: "replay",
        mode: RunMode::Replay,
        topology: TopologyKind::Replay,
        supports: supports_all,
        run: |run| {
            let report = crate::replay::run_replay_with(
                run.replay_dir()?,
                run.monitor.make,
                &run.config,
                run.replay_mode,
            )?;
            Ok(RunOutcome::Replay(report))
        },
    },
];

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn monitor_registry_is_consistent() {
        let mut names = HashSet::new();
        for monitor in &MONITORS {
            assert!(
                names.insert(monitor.name),
                "duplicate monitor {}",
                monitor.name
            );
            for make in [monitor.make, monitor.make_dbi] {
                assert_eq!(
                    make().name(),
                    monitor.name,
                    "both factories must build the lifeguard the row names"
                );
            }
        }
        // Figure 2 has the paper's three panels, in figure order: the
        // seven single-threaded programs for AddrCheck and TaintCheck, the
        // two multi-threaded ones for LockSet, and §3's average slowdowns.
        // The experiment layer runs exactly the rows that carry one.
        let panels: Vec<_> = (MONITORS.iter())
            .filter_map(|m| {
                let panel = m.figure2?;
                Some((m.name, panel.benchmarks.len(), panel.paper_avg_slowdown))
            })
            .collect();
        assert_eq!(
            panels,
            [
                ("addrcheck", 7, 3.9),
                ("taintcheck", 7, 4.8),
                ("lockset", 2, 9.7)
            ]
        );
    }

    #[test]
    fn run_mode_registry_is_consistent() {
        let mut names = HashSet::new();
        for mode in &RUN_MODES {
            assert!(names.insert(mode.name), "duplicate mode {}", mode.name);
            assert_eq!(
                mode.mode.registry_name(),
                Some(mode.name),
                "the mode column must map back to its own row"
            );
            assert!(
                MONITORS.iter().any(|m| (mode.supports)(m)),
                "{} supports no monitor at all",
                mode.name
            );
            // The support predicate must agree with the topology: the
            // sharded shapes admit exactly the shardable monitors.
            for monitor in &MONITORS {
                let supported = (mode.supports)(monitor);
                match mode.topology {
                    TopologyKind::Sharded => assert_eq!(
                        supported, monitor.shardable,
                        "{}/{}: sharded support must track the shardable flag",
                        mode.name, monitor.name
                    ),
                    TopologyKind::Single | TopologyKind::Replay => {}
                }
            }
        }
    }
}
