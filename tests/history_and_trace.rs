//! Integration of the §1 history capability, the flight-recorder
//! capture workflow and the performance-monitoring lifeguard on real
//! workloads.

use std::sync::atomic::{AtomicUsize, Ordering};

use lba::{run_lba, RecordConfig, SystemConfig};
use lba_cache::{MemSystem, MemSystemConfig};
use lba_cpu::{Machine, MachineConfig};
use lba_lifeguard::history::HistoryIndex;
use lba_lifeguard::DispatchEngine;
use lba_lifeguards::MemProfile;
use lba_record::{EventKind, EventRecord, SegmentReader};
use lba_transport::live::FrameReceiver;
use lba_transport::StreamSource;
use lba_workloads::{bugs, Benchmark};

/// Runs a program under LBA with the flight recorder on, returning the
/// records its recording decodes to.
fn capture(program: &lba_isa::Program) -> Vec<EventRecord> {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lba-history-{}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = SystemConfig::default();
    config.log.record_to = Some(RecordConfig::new(&dir));
    run_lba(program, &mut MemProfile::new(), &config).expect("program runs");
    let source = StreamSource::new(SegmentReader::open(&dir, 0).expect("recording opens"));
    let mut recording = FrameReceiver::new(source, 0, config.log.frame_config());
    let mut records = Vec::new();
    while let Some(frame) = recording.recv_batch().expect("recording decodes") {
        records.extend_from_slice(frame.records);
    }
    std::fs::remove_dir_all(&dir).ok();
    records
}

#[test]
fn trace_capture_replay_is_lossless_on_a_benchmark() {
    let program = Benchmark::Bc.build();
    let replayed = capture(&program);

    // The recording and a re-run must observe identical streams.
    let mut machine = Machine::new(&program, MachineConfig::default());
    let mut mem = MemSystem::new(MemSystemConfig::single_core());
    let mut live = Vec::new();
    machine.run(&mut mem, |r| live.push(r.record)).unwrap();
    assert_eq!(replayed, live);
}

#[test]
fn history_identifies_the_last_writer_of_the_freed_block() {
    let program = bugs::memory_bugs();
    let mut history = HistoryIndex::new(16);
    let mut free_addr = None;
    for record in capture(&program) {
        if record.kind == EventKind::Free && free_addr.is_none() {
            free_addr = Some(record.addr);
        }
        history.observe(&record);
    }
    let free_addr = free_addr.expect("program frees a block");
    let writers = history.last_writers(free_addr + 8);
    assert!(
        !writers.is_empty(),
        "the fill loop wrote the block before the free"
    );
    // The last write to that word happened before the free in log order.
    assert!(writers[0].len >= 8);
}

#[test]
fn history_path_reaches_every_thread() {
    let program = Benchmark::Water.build();
    let mut history = HistoryIndex::new(32);
    for record in capture(&program) {
        history.observe(&record);
    }
    for tid in 0..4 {
        let path = history.path_to_here(tid);
        assert!(!path.is_empty(), "thread {tid} has control history");
        // Paths are newest-first by sequence number.
        for pair in path.windows(2) {
            assert!(pair[0].seq > pair[1].seq);
        }
    }
}

#[test]
fn memprofile_matches_trace_statistics_on_gzip() {
    let program = Benchmark::Gzip.build();
    let records = capture(&program);

    let engine = DispatchEngine::default();
    let mut mem = MemSystem::new(MemSystemConfig::dual_core());
    let mut findings = Vec::new();
    let mut profiler = MemProfile::new();
    let mut loads = 0u64;
    let mut stores = 0u64;
    let mut allocs = 0u64;
    for record in &records {
        match record.kind {
            EventKind::Load => loads += 1,
            EventKind::Store => stores += 1,
            EventKind::Alloc => allocs += 1,
            _ => {}
        }
        engine.deliver(&mut profiler, record, &mut mem, 1, &mut findings);
    }
    let profile = profiler.profile();
    assert_eq!(profile.loads, loads);
    assert_eq!(profile.stores, stores);
    assert_eq!(profile.allocs, allocs);
    assert!(findings.is_empty(), "profiling reports nothing");
    // gzip hammers its hash table: the hottest PC should dominate.
    let hottest = profile.hottest_pcs(1)[0];
    assert!(
        hottest.1 > 1000,
        "hot access site expected, got {hottest:?}"
    );
}
