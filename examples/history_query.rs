//! "How did I get here?" — the §1 history capability plus the
//! performance-profiling lifeguard, both read off a flight recording.
//!
//! The program runs a buggy program once under LBA with the flight
//! recorder on, then reads the recorded frames back through (i) a history
//! index that answers *who last wrote the freed block* and *what path led
//! to the bad access*, and (ii) the MemProfile lifeguard for an always-on
//! memory profile.
//!
//! ```sh
//! cargo run --release --example history_query
//! ```

use lba::{run_lba, RecordConfig, SystemConfig};
use lba_cache::{MemSystem, MemSystemConfig};
use lba_lifeguard::history::HistoryIndex;
use lba_lifeguard::DispatchEngine;
use lba_lifeguards::{AddrCheck, MemProfile};
use lba_record::SegmentReader;
use lba_transport::live::FrameReceiver;
use lba_transport::StreamSource;
use lba_workloads::bugs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("lba-history-query-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // 1. Capture: run the buggy program once under LBA, recording every
    //    sealed frame of its log.
    let program = bugs::memory_bugs();
    let mut config = SystemConfig::default();
    config.log.record_to = Some(RecordConfig::new(&dir));
    let recorded = run_lba(&program, &mut AddrCheck::new(), &config)?;
    println!(
        "captured {} records ({} wire bytes of recorded frames)",
        recorded.log.records,
        recorded.log.wire_bits / 8
    );

    // 2. Read the recording back through AddrCheck + a history index in
    //    one pass.
    let mut lg_mem = MemSystem::new(MemSystemConfig::dual_core());
    let engine = DispatchEngine::default();
    let mut addrcheck = AddrCheck::new();
    let mut history = HistoryIndex::new(8);
    let mut profiler = MemProfile::new();
    let mut findings = Vec::new();
    let source = StreamSource::new(SegmentReader::open(&dir, 0)?);
    let mut recording = FrameReceiver::new(source, 0, config.log.frame_config());
    while let Some(frame) = recording.recv_batch()? {
        for record in frame.records {
            history.observe(record);
            engine.deliver(&mut addrcheck, record, &mut lg_mem, 1, &mut findings);
            engine.deliver(&mut profiler, record, &mut lg_mem, 1, &mut findings);
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    // 3. For the use-after-free finding, ask the history two questions.
    let uaf = findings
        .iter()
        .find(|f| f.kind == lba_lifeguard::FindingKind::UnallocatedAccess)
        .expect("use-after-free detected");
    println!("\nfinding: {uaf}");

    println!("\nwho last wrote {:#x}?", uaf.addr);
    for write in history.last_writers(uaf.addr) {
        println!(
            "  seq {:>6}: pc={:#x} wrote {} bytes at {:#x}",
            write.seq, write.pc, write.len, write.addr
        );
    }

    println!(
        "\nhow did thread {} get here (last control transfers)?",
        uaf.tid
    );
    for hop in history.path_to_here(uaf.tid).into_iter().take(5) {
        println!(
            "  seq {:>6}: {:?} at pc={:#x} -> {:#x}",
            hop.seq, hop.kind, hop.pc, hop.target
        );
    }

    // 4. The always-on memory profile from the same log.
    let profile = profiler.profile();
    println!(
        "\nmemory profile: {} loads, {} stores, {} distinct lines, peak live {} B",
        profile.loads,
        profile.stores,
        profile.distinct_lines(),
        profile.peak_live_bytes,
    );
    println!("hottest access sites:");
    for (pc, count) in profile.hottest_pcs(3) {
        println!("  pc={pc:#x}: {count} accesses");
    }
    assert!(!history.last_writers(uaf.addr).is_empty());
    Ok(())
}
