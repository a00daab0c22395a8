//! One entry point for every execution model: the [`Run`] builder.
//!
//! ```
//! use lba::{Run, RunMode, ADDRCHECK};
//! use lba_workloads::bugs;
//!
//! let program = bugs::memory_bugs();
//! let outcome = Run::new(&program)
//!     .mode(RunMode::Live)
//!     .monitor(&ADDRCHECK)
//!     .run()?;
//! assert!(!outcome.findings.is_empty()); // Derefs to the RunReport
//! # Ok::<(), lba::LbaError>(())
//! ```
//!
//! The monitor is a [`pipeline::MONITORS`](crate::MONITORS) row, the one
//! lifeguard handle. The builder validates the mode/monitor pairing
//! against the capability flags in that row and
//! [`pipeline::RUN_MODES`](crate::RUN_MODES) *before* running anything —
//! sharding TaintCheck is an [`LbaError::Unsupported`] with the reason,
//! not a wrong answer — then hands the request to the mode's `RUN_MODES`
//! row, whose `run` hook calls the mode's `run_*` implementation. Those
//! return the builder's own contract, a [`RunReport`] with merged
//! findings or an [`LbaError`], so the hook only wraps the report. The
//! `run_*` functions stay public for
//! what the builder cannot express: a custom lifeguard instance (the
//! containment suite's lifeguard with a planted panic) or a caller-owned
//! lifeguard whose final state is inspected afterwards. Adaptive capture
//! needs neither: the builder's [`config`](Run::config) carries
//! [`LogConfig::adaptive`](crate::LogConfig::adaptive), and the monitor
//! row's lifeguard declares its degradation policy.
//!
//! Every mode returns the one [`RunReport`], and [`RunOutcome`] holds it
//! in a variant per mode and [`Deref`]s to it, so mode-generic callers
//! (the bench harness, the equivalence grid) read findings, per-stream
//! statistics and clocks without matching on the variant.

use std::borrow::Cow;
use std::fmt;
use std::ops::Deref;
use std::path::{Path, PathBuf};

use lba_isa::Program;

use crate::config::SystemConfig;
use crate::error::LbaError;
use crate::pipeline::{MonitorSpec, RunModeSpec, ADDRCHECK, RUN_MODES};
use crate::replay::ReplayMode;
use crate::report::RunReport;

/// Every execution model the builder can drive: the six registry modes
/// (see [`RUN_MODES`]) plus the two unmonitored/inline baselines, which
/// stand outside the registry because they ship no log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RunMode {
    /// Modeled co-simulation with exact clocks ([`crate::run_lba`]), the
    /// builder's default.
    #[default]
    Lba,
    /// Real threads over an in-process framed channel
    /// ([`crate::run_live`]).
    Live,
    /// Modeled address-sharded fan-out ([`crate::parallel::run_lba_parallel`]).
    LbaParallel,
    /// Sharded lifeguards on real threads ([`crate::run_live_parallel`]).
    LiveParallel,
    /// Sharded lifeguards behind real sockets ([`crate::run_remote`]).
    Remote,
    /// Offline replay of a flight-recorder stream set
    /// ([`crate::run_replay`]); needs [`Run::replay_from`].
    Replay,
    /// The program alone, no monitoring ([`crate::run_unmonitored`]).
    Unmonitored,
    /// The lifeguard inline via dynamic binary instrumentation
    /// ([`crate::run_dbi`]): the monitor row's `make_dbi` instance, so
    /// this is Figure 2's DBI baseline.
    Dbi,
}

impl RunMode {
    /// Every mode, registry rows first in table order, then the two
    /// baselines.
    pub const ALL: [RunMode; 8] = [
        RunMode::Lba,
        RunMode::Live,
        RunMode::LbaParallel,
        RunMode::LiveParallel,
        RunMode::Remote,
        RunMode::Replay,
        RunMode::Unmonitored,
        RunMode::Dbi,
    ];

    /// The matching [`RUN_MODES`] row name, or `None` for the two
    /// baseline modes that stand outside the registry.
    #[must_use]
    pub fn registry_name(self) -> Option<&'static str> {
        self.registry_spec().map(|spec| spec.name)
    }

    /// Stable name: the registry row's for registry modes, `unmonitored`
    /// / `dbi` for the baselines.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RunMode::Unmonitored => "unmonitored",
            RunMode::Dbi => "dbi",
            other => other.registry_name().expect("registry mode has a row"),
        }
    }

    fn registry_spec(self) -> Option<&'static RunModeSpec> {
        RUN_MODES.iter().find(|spec| spec.mode == self)
    }
}

impl fmt::Display for RunMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Builder for one monitored run — see the [module docs](self) for the
/// shape. Defaults: [`RunMode::Lba`], AddrCheck, 2 workers,
/// [`SystemConfig::default`], [`ReplayMode::Strict`].
pub struct Run<'a> {
    pub(crate) program: &'a Program,
    mode: RunMode,
    pub(crate) monitor: &'static MonitorSpec,
    pub(crate) workers: usize,
    pub(crate) config: Cow<'a, SystemConfig>,
    replay_from: Option<PathBuf>,
    pub(crate) replay_mode: ReplayMode,
}

impl<'a> Run<'a> {
    /// Starts a run request for `program` with the default mode, monitor
    /// and configuration.
    #[must_use]
    pub fn new(program: &'a Program) -> Self {
        Run {
            program,
            mode: RunMode::default(),
            monitor: &ADDRCHECK,
            workers: 2,
            config: Cow::Owned(SystemConfig::default()),
            replay_from: None,
            replay_mode: ReplayMode::Strict,
        }
    }

    /// Selects the execution model.
    #[must_use]
    pub fn mode(mut self, mode: RunMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the lifeguard by its registry row, e.g. `&LOCKSET`
    /// ([`crate::MONITORS`]). [`RunMode::Dbi`] runs the row's `make_dbi`
    /// instance, every log-based mode its `make`; [`RunMode::Unmonitored`]
    /// ignores it.
    #[must_use]
    pub fn monitor(mut self, monitor: &'static MonitorSpec) -> Self {
        self.monitor = monitor;
        self
    }

    /// Shard/worker count for the fan-out modes (`*Parallel`, `Remote`);
    /// the single-consumer modes ignore it. Defaults to 2.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Uses `config` instead of [`SystemConfig::default`].
    #[must_use]
    pub fn config(mut self, config: &'a SystemConfig) -> Self {
        self.config = Cow::Borrowed(config);
        self
    }

    /// The recording directory [`RunMode::Replay`] consumes (required
    /// there).
    #[must_use]
    pub fn replay_from(mut self, dir: impl Into<PathBuf>) -> Self {
        self.replay_from = Some(dir.into());
        self
    }

    /// Damage policy for [`RunMode::Replay`] (strict by default).
    #[must_use]
    pub fn replay_mode(mut self, mode: ReplayMode) -> Self {
        self.replay_mode = mode;
        self
    }

    /// Validates the request against the registry capability flags and
    /// executes it through the mode's [`RUN_MODES`] row.
    ///
    /// # Errors
    ///
    /// [`LbaError::Unsupported`] when the mode's `supports` predicate
    /// rejects the monitor (before anything runs);
    /// [`LbaError::InvalidRequest`] for a replay with no
    /// [`replay_from`](Self::replay_from) directory; otherwise whatever the
    /// mode's `run_*` function returns, a fan-out mode's refusal of zero
    /// workers included.
    pub fn run(self) -> Result<RunOutcome, LbaError> {
        let Some(spec) = self.mode.registry_spec() else {
            // The two baselines ship no log and stand outside the registry.
            let report = if self.mode == RunMode::Unmonitored {
                crate::run::run_unmonitored(self.program, &self.config)?
            } else {
                let mut lifeguard = (self.monitor.make_dbi)();
                crate::run::run_dbi(self.program, lifeguard.as_mut(), &self.config)?
            };
            return Ok(RunOutcome::Run(report));
        };
        if !(spec.supports)(self.monitor) {
            return Err(LbaError::Unsupported {
                mode: spec.name,
                monitor: self.monitor.name.to_string(),
            });
        }
        (spec.run)(&self)
    }

    /// The recording directory a replay mode consumes.
    pub(crate) fn replay_dir(&self) -> Result<&Path, LbaError> {
        self.replay_from
            .as_deref()
            .ok_or_else(|| LbaError::InvalidRequest {
                detail: format!(
                    "mode `{}` replays a recording: set `replay_from(dir)`",
                    self.mode
                ),
            })
    }
}

/// The [`RunReport`] a [`Run`] produced, in a variant per mode.
///
/// Every variant holds the same report and the outcome [`Deref`]s to it,
/// so mode-generic code reads `outcome.findings`, `outcome.shard_log` or
/// `outcome.total_cycles` directly; the report's `mode` names the mode
/// that ran.
#[derive(Debug)]
pub enum RunOutcome {
    /// Modeled co-simulation or baseline ([`RunMode::Lba`],
    /// [`RunMode::Unmonitored`], [`RunMode::Dbi`]).
    Run(RunReport),
    /// [`RunMode::Live`].
    Live(RunReport),
    /// [`RunMode::LbaParallel`]: the co-simulation N shards wide.
    Parallel(RunReport),
    /// [`RunMode::LiveParallel`].
    LiveParallel(RunReport),
    /// [`RunMode::Remote`].
    Remote(RunReport),
    /// [`RunMode::Replay`].
    Replay(RunReport),
}

impl Deref for RunOutcome {
    type Target = RunReport;

    fn deref(&self) -> &RunReport {
        match self {
            RunOutcome::Run(r)
            | RunOutcome::Live(r)
            | RunOutcome::Parallel(r)
            | RunOutcome::LiveParallel(r)
            | RunOutcome::Remote(r)
            | RunOutcome::Replay(r) => r,
        }
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        RunReport::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lba_lifeguard::FindingKind;
    use lba_workloads::bugs;

    #[test]
    fn run_mode_names_are_bijective_with_the_registry() {
        let registry: Vec<&str> = RUN_MODES.iter().map(|m| m.name).collect();
        let builder: Vec<&str> = RunMode::ALL
            .iter()
            .filter_map(|m| m.registry_name())
            .collect();
        assert_eq!(
            registry, builder,
            "RunMode must mirror pipeline::RUN_MODES, in table order"
        );
        let baselines: Vec<&str> = RunMode::ALL
            .iter()
            .filter(|m| m.registry_name().is_none())
            .map(|m| m.name())
            .collect();
        assert_eq!(baselines, ["unmonitored", "dbi"]);
    }

    #[test]
    fn every_registry_mode_runs_through_the_builder() {
        let program = bugs::memory_bugs();
        let config = SystemConfig::default();
        let recording =
            std::env::temp_dir().join(format!("lba-runner-grid-{}", std::process::id()));
        // Every mode is exercised with AddrCheck here (the grid in
        // tests/equivalence.rs sweeps the full monitor set).
        for mode in RunMode::ALL {
            let mut request = Run::new(&program)
                .mode(mode)
                .monitor(&ADDRCHECK)
                .config(&config);
            if mode == RunMode::Replay {
                // Record first, then point the builder at the recording.
                let mut rec = config.clone();
                rec.log.record_to = Some(crate::config::RecordConfig::new(&recording));
                let _ = std::fs::remove_dir_all(&recording);
                Run::new(&program)
                    .mode(RunMode::Lba)
                    .monitor(&ADDRCHECK)
                    .config(&rec)
                    .run()
                    .expect("recording run");
                request = request.replay_from(&recording);
            }
            let outcome = request.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert_eq!(outcome.mode, mode, "the report names the mode that ran");
            // One ChannelStats per stream. The builder's default is two
            // workers; the replayed recording is one `lba` stream.
            let streams = match mode {
                RunMode::Unmonitored | RunMode::Dbi => 0,
                RunMode::LbaParallel | RunMode::LiveParallel | RunMode::Remote => 2,
                RunMode::Lba | RunMode::Live | RunMode::Replay => 1,
            };
            assert_eq!(outcome.shard_log.len(), streams, "{mode}");
            if mode != RunMode::Unmonitored {
                assert!(
                    !outcome.findings.is_empty(),
                    "{mode} must surface the planted bugs"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&recording);
    }

    #[test]
    fn capability_flags_reject_before_running() {
        let program = bugs::memory_bugs();
        let err = Run::new(&program)
            .mode(RunMode::LiveParallel)
            .monitor(&crate::TAINTCHECK)
            .run()
            .unwrap_err();
        assert!(
            matches!(
                err,
                LbaError::Unsupported {
                    mode: "live-parallel",
                    ..
                }
            ),
            "got: {err}"
        );
        assert!(err.to_string().contains("taintcheck"));
    }

    #[test]
    fn replay_without_a_recording_is_an_invalid_request() {
        let program = bugs::memory_bugs();
        let err = Run::new(&program).mode(RunMode::Replay).run().unwrap_err();
        assert!(matches!(err, LbaError::InvalidRequest { .. }));
        assert!(err.to_string().contains("replay_from"));
    }

    #[test]
    fn zero_workers_is_an_invalid_request_not_a_panic() {
        let program = bugs::memory_bugs();
        let err = Run::new(&program)
            .mode(RunMode::Remote)
            .workers(0)
            .run()
            .unwrap_err();
        assert!(matches!(err, LbaError::InvalidRequest { .. }));
    }

    #[test]
    fn an_oversized_frame_is_a_config_error_not_a_panic() {
        let program = bugs::memory_bugs();
        let max = lba_record::FrameCountWord::MAX_RECORDS as usize;
        let mut config = SystemConfig::default();
        config.log.records_per_frame = max + 1;
        let message = LbaError::RecordsPerFrameTooLarge {
            records_per_frame: max + 1,
            max,
        }
        .to_string();
        assert!(
            message.contains(&(max + 1).to_string()) && message.contains(&max.to_string()),
            "the message names the value and the limit: {message}"
        );
        for mode in RUN_MODES.iter().filter(|m| m.mode != RunMode::Replay) {
            let outcome = Run::new(&program)
                .mode(mode.mode)
                .monitor(&ADDRCHECK)
                .config(&config)
                .run();
            match outcome {
                Err(err @ LbaError::RecordsPerFrameTooLarge { .. }) => {
                    assert_eq!(err.to_string(), message, "{}", mode.name);
                }
                other => panic!("{}: expected a config error, got {other:?}", mode.name),
            }
        }
    }

    #[test]
    fn outcome_derefs_to_the_shared_pipeline_report() {
        let program = bugs::memory_bugs();
        let outcome = Run::new(&program)
            .mode(RunMode::Remote)
            .monitor(&ADDRCHECK)
            .run()
            .unwrap();
        assert!(outcome
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DoubleFree));
        assert!(outcome.log.records > 0);
        assert!(matches!(outcome, RunOutcome::Remote(_)));
        assert!(outcome.to_string().contains("remote"));
    }
}
