//! The unmonitored baseline and the DBI comparison runs.

use lba_cache::MemSystem;
use lba_cpu::{Machine, StepOutcome};
use lba_dbi::DbiEngine;
use lba_isa::Program;
use lba_lifeguard::Lifeguard;
use lba_record::TraceStats;

use crate::config::SystemConfig;
use crate::error::LbaError;
use crate::report::{merge_shard_findings, PipelineReport, RunReport};
use crate::runner::RunMode;

/// Runs `program` with no monitoring: the paper's normalisation baseline
/// (the denominator of every bar in Figure 2).
///
/// # Errors
///
/// [`LbaError::Run`] for a machine fault.
pub fn run_unmonitored(program: &Program, config: &SystemConfig) -> Result<RunReport, LbaError> {
    let mut machine = Machine::new(program, config.machine);
    let mut mem = MemSystem::new(config.mem_single());
    let mut trace = TraceStats::new();
    let cycles = machine.run(&mut mem, |r| trace.observe(&r.record))?;
    Ok(RunReport {
        program: program.name().to_string(),
        mode: RunMode::Unmonitored,
        total_cycles: cycles,
        app_cycles: cycles,
        trace,
        ..RunReport::default()
    })
}

/// Runs `program` under the Valgrind-style DBI baseline: every retired
/// instruction is instrumented inline on the application core, with the
/// lifeguard's shadow traffic sharing the application's caches. Its
/// findings merge as every mode's do ([`RunReport::pipeline`]).
///
/// # Errors
///
/// [`LbaError::Run`] for a machine fault.
pub fn run_dbi(
    program: &Program,
    lifeguard: &mut dyn Lifeguard,
    config: &SystemConfig,
) -> Result<RunReport, LbaError> {
    let mut machine = Machine::new(program, config.machine);
    let mut mem = MemSystem::new(config.mem_single());
    let engine = DbiEngine::new(config.dbi);
    let mut trace = TraceStats::new();
    let mut findings = Vec::new();
    let mut app_cycles: u64 = 0;
    let mut monitor_cycles: u64 = 0;

    loop {
        match machine.step(&mut mem)? {
            StepOutcome::Finished => break,
            StepOutcome::Retired(r) => {
                trace.observe(&r.record);
                app_cycles += r.cycles;
                monitor_cycles +=
                    engine.instrument(lifeguard, &r.record, &mut mem, 0, &mut findings);
            }
        }
    }
    monitor_cycles += engine.finish(lifeguard, &mut mem, 0, &mut findings);

    Ok(RunReport {
        program: program.name().to_string(),
        mode: RunMode::Dbi,
        total_cycles: app_cycles + monitor_cycles,
        app_cycles,
        lifeguard_cycles: monitor_cycles,
        trace,
        pipeline: PipelineReport {
            findings: merge_shard_findings(vec![findings]),
            ..PipelineReport::default()
        },
        ..RunReport::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lba_lifeguards::AddrCheck;
    use lba_workloads::{bugs, Benchmark};

    #[test]
    fn unmonitored_reports_cycles_and_trace() {
        let program = Benchmark::Bc.build();
        let report = run_unmonitored(&program, &SystemConfig::default()).unwrap();
        assert!(report.total_cycles >= report.trace.instructions());
        assert_eq!(report.mode, RunMode::Unmonitored);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn dbi_is_slower_than_unmonitored() {
        let program = Benchmark::Bc.build();
        let config = SystemConfig::default();
        let base = run_unmonitored(&program, &config).unwrap();
        let mut lg = AddrCheck::new();
        let dbi = run_dbi(&program, &mut lg, &config).unwrap();
        let slowdown = dbi.slowdown_vs(&base);
        assert!(
            slowdown > 3.0,
            "DBI slowdown {slowdown:.1} unreasonably small"
        );
    }

    #[test]
    fn dbi_detects_planted_memory_bugs() {
        let program = bugs::memory_bugs();
        let mut lg = AddrCheck::new();
        let report = run_dbi(&program, &mut lg, &SystemConfig::default()).unwrap();
        use lba_lifeguard::FindingKind::*;
        for kind in [UnallocatedAccess, DoubleFree, InvalidFree, Leak] {
            assert!(
                report.findings_of(kind).next().is_some(),
                "expected a {kind} finding, got {:?}",
                report.findings
            );
        }
    }
}
