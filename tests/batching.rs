//! Frame-granular dispatch against its per-record oracle. The log is only
//! ever consumed a frame at a time (`pop_frame` / `recv_batch` feeding
//! `DispatchEngine::deliver_batch`); `DispatchEngine::deliver` — the
//! per-record call the DBI baseline makes — is the oracle it must equal.
//! For every lifeguard in `lba::MONITORS`, over the retired streams of the
//! planted-bug programs and of gzip cut into frames at arbitrary sizes,
//! both must report the same findings and charge the same summed cycles.

use proptest::prelude::*;

use lba::{run_lba, SystemConfig, MONITORS};
use lba_cache::MemSystem;
use lba_cpu::Machine;
use lba_isa::Program;
use lba_lifeguard::DispatchEngine;
use lba_lifeguards::AddrCheck;
use lba_record::EventRecord;
use lba_workloads::{bugs, Benchmark};

/// The lifeguard core's `MemSystem` index, as in the runners.
const LG_CORE: usize = 1;

fn bug_program(idx: usize) -> Program {
    match idx {
        0 => bugs::memory_bugs(),
        1 => bugs::exploit(),
        2 => bugs::data_race(),
        _ => bugs::tainted_syscall(),
    }
}

/// Every record `program` retires, in order.
fn retired_stream(program: &Program) -> Vec<EventRecord> {
    let config = SystemConfig::default();
    let mut machine = Machine::new(program, config.machine);
    let mut mem = MemSystem::new(config.mem_single());
    let mut records = Vec::new();
    machine
        .run(&mut mem, |r| records.push(r.record))
        .expect("program runs clean");
    records
}

/// Delivers `stream` to a fresh instance of every registered lifeguard
/// twice — record by record through `deliver`, and in frames of
/// `frame_sizes` (cycled) through `deliver_batch` — and requires the same
/// findings and the same summed cycles, end-of-log hook included.
fn assert_frames_match_records(what: &str, stream: &[EventRecord], frame_sizes: &[usize]) {
    assert!(!stream.is_empty(), "{what} retires records");
    assert!(
        frame_sizes.iter().all(|&size| size > 0),
        "frames hold records"
    );
    let config = SystemConfig::default();
    let engine = DispatchEngine::new(config.dispatch);
    for monitor in &MONITORS {
        let consume = |framed: bool| {
            let mut lifeguard = (monitor.make)();
            let mut mem = MemSystem::new(config.mem_dual());
            let mut findings = Vec::new();
            let mut cycles = 0;
            if framed {
                let mut rest = stream;
                for &size in frame_sizes.iter().cycle() {
                    if rest.is_empty() {
                        break;
                    }
                    let (frame, tail) = rest.split_at(size.min(rest.len()));
                    cycles += engine.deliver_batch(
                        lifeguard.as_mut(),
                        frame,
                        &mut mem,
                        LG_CORE,
                        &mut findings,
                    );
                    rest = tail;
                }
            } else {
                for record in stream {
                    cycles += engine.deliver(
                        lifeguard.as_mut(),
                        record,
                        &mut mem,
                        LG_CORE,
                        &mut findings,
                    );
                }
            }
            cycles += engine.finish(lifeguard.as_mut(), &mut mem, LG_CORE, &mut findings);
            (findings, cycles)
        };
        let (frame_findings, frame_cycles) = consume(true);
        let (record_findings, record_cycles) = consume(false);
        let what = format!("{what} / {} / frames {frame_sizes:?}", monitor.name);
        assert_eq!(frame_findings, record_findings, "findings: {what}");
        assert_eq!(frame_cycles, record_cycles, "cycles: {what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core equivalence property: any program, any framing (sizes
    /// vary frame to frame, as syscall flushes and degradation
    /// transitions make them in the runners), every lifeguard.
    #[test]
    fn batched_consumption_is_observationally_identical(
        program_idx in 0usize..4,
        frame_sizes in proptest::collection::vec(1usize..400, 1..6),
    ) {
        let program = bug_program(program_idx);
        let stream = retired_stream(&program);
        assert_frames_match_records(program.name(), &stream, &frame_sizes);
    }
}

#[test]
fn batched_consumption_matches_on_a_real_benchmark() {
    // One heavyweight deterministic case outside proptest: a real
    // workload at an odd frame size and at the default frame size.
    let program = Benchmark::Gzip.build();
    let stream = retired_stream(&program);
    assert_frames_match_records("gzip", &stream, &[7]);
    assert_frames_match_records("gzip", &stream, &[256, 1, 63]);
}

#[test]
fn zero_copy_channel_survives_verified_round_trip() {
    // verify_compression decodes every frame with the real codec and
    // cross-checks it against the zero-copy records — a codec regression
    // panics here.
    let program = Benchmark::Bc.build();
    let mut config = SystemConfig::default();
    config.log.verify_compression = true;
    let mut lg = AddrCheck::new();
    let report = run_lba(&program, &mut lg, &config).expect("verified run");
    assert!(report.log.records > 0);
}
