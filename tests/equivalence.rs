//! Equivalence tests between execution modes: the deterministic
//! co-simulation, the live (two-OS-thread) pipeline, the DBI baseline and
//! the sharded parallel runner must all agree on *what* they detect.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use lba::parallel::run_lba_parallel;
use lba::{
    run_dbi, run_lba, run_live, MonitorSpec, RecordConfig, Run, RunMode, RunModeSpec, RunOutcome,
    SystemConfig, TopologyKind, ADDRCHECK, LOCKSET, MONITORS, TAINTCHECK,
};
use lba_cache::MemSystem;
use lba_cpu::Machine;
use lba_isa::Program;
use lba_workloads::{bugs, Benchmark};

fn config() -> SystemConfig {
    SystemConfig::default()
}

#[test]
fn the_untimed_machine_retires_the_timed_stream() {
    // The live runners and replay run the machine with no cache model.
    // Threads switch on retired-instruction quanta, never on cycles, and
    // the data lives in the machine's own memory, so every program must
    // retire the same record sequence either way.
    let bug_programs = [
        bugs::memory_bugs(),
        bugs::exploit(),
        bugs::data_race(),
        bugs::tainted_syscall(),
    ];
    let programs = Benchmark::ALL.map(Benchmark::build);
    for program in programs.iter().chain(&bug_programs) {
        let retire = |mem: Option<&mut MemSystem>| {
            let mut machine = Machine::new(program, config().machine);
            let mut records = Vec::new();
            let cycles = machine
                .run(mem, |r| records.push(r.record))
                .expect("runs clean");
            (records, cycles)
        };
        let mut mem = MemSystem::new(config().mem_single());
        let (timed, timed_cycles) = retire(Some(&mut mem));
        let (untimed, untimed_cycles) = retire(None);
        assert!(!timed.is_empty(), "{}: nothing retired", program.name());
        assert!(
            timed == untimed,
            "{}: the untimed run retired a different stream",
            program.name()
        );
        assert!(
            untimed_cycles < timed_cycles,
            "{}: untimed cycles carry no cache penalties",
            program.name()
        );
    }
}

#[test]
fn live_pipeline_matches_cosim_on_every_bug_program() {
    for (program, monitor) in [
        (bugs::memory_bugs(), ADDRCHECK),
        (bugs::exploit(), TAINTCHECK),
        (bugs::tainted_syscall(), TAINTCHECK),
        (bugs::data_race(), LOCKSET),
    ] {
        let mut lg = (monitor.make)();
        let cosim = run_lba(&program, lg.as_mut(), &config()).unwrap();
        let mut lg = (monitor.make)();
        let live = run_live(&program, lg.as_mut(), &config()).unwrap();
        assert_eq!(
            cosim.findings,
            live.findings,
            "{}: live/cosim mismatch",
            program.name()
        );
    }
}

#[test]
fn live_pipeline_matches_cosim_for_all_four_lifeguards() {
    // Every registry lifeguard, each on a program that exercises it;
    // modeled and live transports must agree finding-for-finding, and the
    // two channels must ship the identical framed byte stream.
    let programs = [
        bugs::memory_bugs(),
        bugs::exploit(),
        bugs::data_race(),
        bugs::memory_bugs(),
    ];
    for (program, monitor) in programs.iter().zip(&MONITORS) {
        let mut lg = (monitor.make)();
        let cosim = run_lba(program, lg.as_mut(), &config()).unwrap();
        let mut lg = (monitor.make)();
        let live = run_live(program, lg.as_mut(), &config()).unwrap();
        assert_eq!(
            cosim.findings,
            live.findings,
            "{}/{}: live/cosim mismatch",
            program.name(),
            monitor.name
        );
        assert_eq!(cosim.log.records, live.log.records, "{}", program.name());
        assert_eq!(cosim.log.frames, live.log.frames, "{}", program.name());
        assert_eq!(
            cosim.log.wire_bits,
            live.log.wire_bits,
            "{}",
            program.name()
        );
    }
}

#[test]
fn live_pipeline_matches_cosim_on_a_real_benchmark() {
    let program = Benchmark::Tidy.build();
    let mut lg = (ADDRCHECK.make)();
    let cosim = run_lba(&program, lg.as_mut(), &config()).unwrap();
    let mut lg = (ADDRCHECK.make)();
    let live = run_live(&program, lg.as_mut(), &config()).unwrap();
    assert_eq!(cosim.findings, live.findings);
    // The live channel carries real wire bytes: under a byte per
    // instruction with compression on, and identical to the model's.
    assert!(live.log.wire_bytes_per_instruction < 1.0);
    assert_eq!(cosim.log.wire_bits, live.log.wire_bits);
}

#[test]
fn parallel_shards_agree_with_single_lifeguard() {
    for shards in [2usize, 3, 4] {
        let program = bugs::memory_bugs();
        let single = run_lba_parallel(&program, ADDRCHECK.make, 1, &config()).unwrap();
        let sharded = run_lba_parallel(&program, ADDRCHECK.make, shards, &config()).unwrap();
        // Same set of findings (order may differ across shard counts).
        assert_eq!(
            single.findings.len(),
            sharded.findings.len(),
            "{shards} shards"
        );
        for f in &single.findings {
            assert!(
                sharded
                    .findings
                    .iter()
                    .any(|g| g.kind == f.kind && g.addr == f.addr && g.pc == f.pc),
                "{shards} shards missing {f}"
            );
        }
    }
}

#[test]
fn one_shard_of_the_sharded_model_is_run_lba() {
    // One lifeguard core and a lifeguard split across cores are one design
    // at two widths: with syscall containment off (the sharded producer
    // never contains), the sharded co-simulation at one shard must be
    // `run_lba` cycle for cycle, stall for stall and bit for bit.
    let mut config = config();
    config.log.syscall_stall = false;
    let bug_programs = [
        bugs::memory_bugs(),
        bugs::exploit(),
        bugs::data_race(),
        bugs::tainted_syscall(),
    ];
    let programs = Benchmark::ALL.map(Benchmark::build);
    for program in programs.iter().chain(&bug_programs) {
        for monitor in [ADDRCHECK, LOCKSET] {
            let mut lg = (monitor.make)();
            let single = run_lba(program, lg.as_mut(), &config).unwrap();
            let sharded = run_lba_parallel(program, monitor.make, 1, &config).unwrap();
            let what = format!("{} / {}", program.name(), monitor.name);
            assert_eq!(sharded.total_cycles, single.total_cycles, "total: {what}");
            assert_eq!(sharded.app_cycles, single.app_cycles, "app: {what}");
            assert_eq!(
                sharded.lifeguard_cycles, single.lifeguard_cycles,
                "lifeguard: {what}"
            );
            assert_eq!(sharded.stalls, single.stalls, "stalls: {what}");
            assert_eq!(sharded.log, single.log, "log: {what}");
            assert_eq!(sharded.capture, single.capture, "capture: {what}");
            assert_eq!(sharded.findings, single.findings, "findings: {what}");
        }
    }
}

#[test]
fn event_stream_is_identical_across_modes() {
    // LBA and DBI must observe the same retired-instruction stream: same
    // instruction counts, same kind mix.
    let program = Benchmark::Gzip.build();
    let mut lg = (ADDRCHECK.make)();
    let lba = run_lba(&program, lg.as_mut(), &config()).unwrap();
    let mut lg = (ADDRCHECK.make_dbi)();
    let dbi = run_dbi(&program, lg.as_mut(), &config()).unwrap();
    assert_eq!(lba.trace, dbi.trace);
}

#[test]
fn lba_runs_are_reproducible() {
    let program = Benchmark::Zchaff.build();
    let run = || {
        let mut lg = (LOCKSET.make)();
        let r = run_lba(&program, lg.as_mut(), &config()).unwrap();
        (r.total_cycles, r.log.compressed_bits, r.findings.len())
    };
    assert_eq!(
        run(),
        run(),
        "deterministic co-simulation must reproduce exactly"
    );
}

#[test]
fn compression_does_not_change_what_the_lifeguard_sees() {
    let program = bugs::memory_bugs();
    let compressed = {
        let mut lg = (ADDRCHECK.make)();
        run_lba(&program, lg.as_mut(), &config()).unwrap()
    };
    let raw = {
        let mut cfg = config();
        cfg.log.compression = false;
        let mut lg = (ADDRCHECK.make)();
        run_lba(&program, lg.as_mut(), &cfg).unwrap()
    };
    assert_eq!(compressed.findings, raw.findings);
    assert_eq!(compressed.trace, raw.trace);
}

/// A finding's cross-shard identity — the same `(kind, pc, addr, tid)`
/// key the sharded modes dedup-merge on, so merged-mode finding sets can
/// be compared against the sequential baseline as sets.
fn finding_keys(findings: &[lba_lifeguard::Finding]) -> std::collections::BTreeSet<String> {
    findings
        .iter()
        .map(|f| format!("{:?}|{:#x}|{:#x}|{}", f.kind, f.pc, f.addr, f.tid))
        .collect()
}

/// Runs one registry row through the `Run` builder, with two workers for
/// the fan-out modes. The replay row needs a recording first, made by a
/// co-simulation.
fn run_row(
    program: &Program,
    row: &RunModeSpec,
    monitor: &'static MonitorSpec,
    config: &SystemConfig,
) -> RunOutcome {
    let recorder = match row.mode {
        RunMode::Replay => RunMode::Lba,
        mode => {
            return Run::new(program)
                .mode(mode)
                .monitor(monitor)
                .workers(2)
                .config(config)
                .run()
                .unwrap_or_else(|e| panic!("{}/{}: {e}", row.name, monitor.name));
        }
    };
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lba-registry-grid-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let mut recording = config.clone();
    recording.log.record_to = Some(RecordConfig::new(&dir));
    Run::new(program)
        .mode(recorder)
        .monitor(monitor)
        .workers(2)
        .config(&recording)
        .run()
        .unwrap_or_else(|e| panic!("recording for {}/{}: {e}", row.name, monitor.name));
    let replayed = Run::new(program)
        .mode(row.mode)
        .monitor(monitor)
        .config(config)
        .replay_from(&dir)
        .run();
    std::fs::remove_dir_all(&dir).ok();
    replayed.unwrap_or_else(|e| panic!("{}/{}: {e}", row.name, monitor.name))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The registry grid: every run mode in `lba::RUN_MODES`, over every
    /// lifeguard in `lba::MONITORS` its `supports` predicate admits, must
    /// honour its declared equivalence contract against the sequential
    /// `run_lba` baseline, as its topology declares it: a sharded mode's
    /// merged findings equal the baseline's as a dedup set, and every
    /// other mode matches the baseline's findings byte for byte and its
    /// record and wire counts exactly. A mode added to the registry is
    /// held to its contract here with no new test code.
    #[test]
    fn registry_grid_agrees_with_the_sequential_baseline(case in 0usize..4) {
        let program = match case {
            0 => bugs::memory_bugs(),
            1 => bugs::exploit(),
            2 => bugs::tainted_syscall(),
            _ => bugs::data_race(),
        };
        let config = config();
        for monitor in &lba::MONITORS {
            let baseline = Run::new(&program)
                .mode(RunMode::Lba)
                .monitor(monitor)
                .config(&config)
                .run()
                .expect("baseline runs");
            for mode in &lba::RUN_MODES {
                if !(mode.supports)(monitor) {
                    continue;
                }
                let outcome = run_row(&program, mode, monitor, &config);
                let what = format!("{}/{} on {}", mode.name, monitor.name, program.name());
                if mode.topology == TopologyKind::Sharded {
                    prop_assert_eq!(
                        finding_keys(&outcome.findings),
                        finding_keys(&baseline.findings),
                        "{}: merged finding set diverges from the baseline",
                        what
                    );
                } else {
                    prop_assert_eq!(
                        &outcome.findings,
                        &baseline.findings,
                        "{}: findings diverge from the baseline",
                        what
                    );
                    prop_assert_eq!(
                        outcome.log.records, baseline.log.records,
                        "{}: record accounting diverges from the baseline",
                        what
                    );
                    prop_assert_eq!(
                        outcome.log.wire_bits, baseline.log.wire_bits,
                        "{}: wire accounting diverges from the baseline",
                        what
                    );
                }
            }
        }
    }
}
