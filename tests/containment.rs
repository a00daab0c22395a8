//! Syscall-stall containment semantics (§2 of the paper): "the OS stalls
//! each application syscall until the lifeguard finishes checking the
//! remaining log entries that executed prior to the syscall invocation",
//! so errors cannot propagate beyond the process container.

use lba::{run_lba, SystemConfig, ADDRCHECK, TAINTCHECK};
use lba_lifeguard::FindingKind;
use lba_workloads::{bugs, Benchmark};

#[test]
fn every_syscall_is_stalled_when_containment_is_on() {
    let program = Benchmark::Gs.build();
    let config = SystemConfig::default();
    let mut lg = (ADDRCHECK.make)();
    let report = run_lba(&program, lg.as_mut(), &config).unwrap();
    assert_eq!(
        report.stalls.syscalls,
        report.trace.count(lba_record::EventKind::Syscall),
        "each syscall must pass through the containment stall"
    );
    assert!(report.stalls.syscall_stall_cycles > 0);
}

#[test]
fn disabling_containment_removes_the_stalls_but_not_detection() {
    let program = bugs::tainted_syscall();

    let on = {
        let mut lg = (TAINTCHECK.make)();
        run_lba(&program, lg.as_mut(), &SystemConfig::default()).unwrap()
    };
    let off = {
        let mut config = SystemConfig::default();
        config.log.syscall_stall = false;
        let mut lg = (TAINTCHECK.make)();
        run_lba(&program, lg.as_mut(), &config).unwrap()
    };

    assert!(on.stalls.syscalls > 0);
    assert_eq!(off.stalls.syscalls, 0);
    assert_eq!(off.stalls.syscall_stall_cycles, 0);
    // Detection itself does not depend on the stall — only the guarantee
    // about *when* relative to the kernel boundary.
    for report in [&on, &off] {
        assert!(report
            .findings_of(FindingKind::TaintedSyscallArg)
            .next()
            .is_some());
    }
}

#[test]
fn containment_makes_the_application_wait_for_the_lagging_lifeguard() {
    // TaintCheck is lifeguard-bound, so the log has depth when the
    // syscall arrives; with containment on, the app clock must absorb it.
    let program = bugs::tainted_syscall();
    let config = SystemConfig::default();
    let mut lg = (TAINTCHECK.make)();
    let report = run_lba(&program, lg.as_mut(), &config).unwrap();
    assert!(
        report.stalls.syscall_stall_cycles > 1000,
        "2000 padding instructions of lag must be drained at the syscall; got {}",
        report.stalls.syscall_stall_cycles
    );
    // With the drain, the application clock has caught up to (or passed)
    // the lifeguard at every syscall, so ends within one tail of it.
    assert!(report.app_cycles >= report.lifeguard_cycles / 2);
}

#[test]
fn containment_bounds_error_propagation_in_the_timeline() {
    // The containment guarantee, stated on clocks: when the syscall
    // retires at app-time T, every earlier record has been checked at
    // lifeguard-time <= T. We verify the observable consequence: with
    // containment on, the end-to-end time equals the application clock
    // (the lifeguard never finishes after the final syscall by more than
    // the post-syscall tail).
    let program = bugs::tainted_syscall();
    let config = SystemConfig::default();
    let mut lg = (TAINTCHECK.make)();
    let report = run_lba(&program, lg.as_mut(), &config).unwrap();
    // tainted_syscall ends almost immediately after its syscall, so the
    // lifeguard tail is tiny relative to the stalled app clock.
    let tail = report.total_cycles - report.app_cycles;
    assert!(
        tail * 10 < report.total_cycles,
        "post-syscall lifeguard tail ({tail}) should be small next to total ({})",
        report.total_cycles
    );
}
