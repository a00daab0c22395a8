//! End-to-end detection tests: every planted bug is caught by the right
//! lifeguard under every execution model, and the clean benchmarks stay
//! clean.

use lba::parallel::run_lba_parallel;
use lba::{run_dbi, run_lba, run_live, SystemConfig, ADDRCHECK, LOCKSET, TAINTCHECK};
use lba_lifeguard::FindingKind;
use lba_workloads::{bugs, Benchmark};

fn config() -> SystemConfig {
    SystemConfig::default()
}

#[test]
fn memory_bugs_caught_under_all_execution_models() {
    let program = bugs::memory_bugs();
    let expected = [
        FindingKind::UnallocatedAccess,
        FindingKind::DoubleFree,
        FindingKind::InvalidFree,
        FindingKind::Leak,
    ];

    let mut lg = (ADDRCHECK.make)();
    let lba = run_lba(&program, lg.as_mut(), &config()).unwrap();
    let mut lg = (ADDRCHECK.make_dbi)();
    let dbi = run_dbi(&program, lg.as_mut(), &config()).unwrap();
    let mut lg = (ADDRCHECK.make)();
    let live = run_live(&program, lg.as_mut(), &config()).unwrap();
    let par = run_lba_parallel(&program, ADDRCHECK.make, 4, &config()).unwrap();

    for kind in expected {
        assert!(
            lba.findings.iter().any(|f| f.kind == kind),
            "LBA missing {kind}"
        );
        assert!(
            dbi.findings.iter().any(|f| f.kind == kind),
            "DBI missing {kind}"
        );
        assert!(
            live.findings.iter().any(|f| f.kind == kind),
            "live missing {kind}"
        );
        assert!(
            par.findings.iter().any(|f| f.kind == kind),
            "parallel missing {kind}"
        );
    }
}

#[test]
fn exploit_caught_and_attack_details_reported() {
    let program = bugs::exploit();
    let mut lg = (TAINTCHECK.make)();
    let report = run_lba(&program, lg.as_mut(), &config()).unwrap();
    let finding = report
        .findings_of(FindingKind::TaintedJump)
        .next()
        .expect("tainted jump reported");
    // The finding names the hijacked target, which must be the privileged
    // entry the payload encodes.
    let payload_target = u64::from_le_bytes(program.input()[32..40].try_into().unwrap());
    assert_eq!(finding.addr, payload_target);
}

#[test]
fn tainted_syscall_argument_caught() {
    let program = bugs::tainted_syscall();
    let mut lg = (TAINTCHECK.make)();
    let report = run_lba(&program, lg.as_mut(), &config()).unwrap();
    assert!(report
        .findings_of(FindingKind::TaintedSyscallArg)
        .next()
        .is_some());
}

#[test]
fn data_race_caught_in_lba_and_dbi() {
    let program = bugs::data_race();
    let mut lg = (LOCKSET.make)();
    let lba = run_lba(&program, lg.as_mut(), &config()).unwrap();
    assert!(lba.findings_of(FindingKind::DataRace).next().is_some());

    let mut lg = (LOCKSET.make_dbi)();
    let dbi = run_dbi(&program, lg.as_mut(), &config()).unwrap();
    assert!(dbi.findings.iter().any(|f| f.kind == FindingKind::DataRace));
}

#[test]
fn lba_and_dbi_produce_identical_findings_on_bug_programs() {
    for (program, monitor) in [
        (bugs::memory_bugs(), ADDRCHECK),
        (bugs::exploit(), TAINTCHECK),
        (bugs::data_race(), LOCKSET),
    ] {
        let mut lg = (monitor.make)();
        let lba = run_lba(&program, lg.as_mut(), &config()).unwrap();
        // DBI runs the *same* analysis; the LockSet DBI variant differs
        // only in cost model, not semantics.
        let mut lg = (monitor.make_dbi)();
        let dbi = run_dbi(&program, lg.as_mut(), &config()).unwrap();
        assert_eq!(
            lba.findings,
            dbi.findings,
            "{}: finding mismatch",
            program.name()
        );
    }
}

#[test]
fn clean_benchmarks_stay_clean_everywhere() {
    for benchmark in [Benchmark::Bc, Benchmark::Gs, Benchmark::W3m] {
        let program = benchmark.build();
        for monitor in [ADDRCHECK, TAINTCHECK] {
            let mut lg = (monitor.make)();
            let report = run_lba(&program, lg.as_mut(), &config()).unwrap();
            assert!(
                report.findings.is_empty(),
                "{}/{}: {:?}",
                benchmark.name(),
                monitor.name,
                report.findings
            );
        }
    }
    for benchmark in Benchmark::MULTI_THREADED {
        let program = benchmark.build();
        let mut lg = (LOCKSET.make)();
        let report = run_lba(&program, lg.as_mut(), &config()).unwrap();
        assert!(
            report.findings.is_empty(),
            "{}: {:?}",
            benchmark.name(),
            report.findings
        );
    }
}
