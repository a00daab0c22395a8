//! The flight-recorder story: run a workload once under AddrCheck while
//! recording the compressed log to disk, then replay the recording through
//! a *different* lifeguard (LockSet) — the paper's retroactive-monitoring
//! pitch: one captured trace, many analyses, no re-execution.
//!
//! ```sh
//! cargo run --release --example flight_recorder
//! ```

use lba::{run_lba, run_replay, RecordConfig, SystemConfig, ADDRCHECK, LOCKSET};
use lba_workloads::bugs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("lba-flight-recorder-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // 1. The live run: AddrCheck monitors the racy program, and the
    //    transport tees every sealed frame into an lbas/1 stream on disk.
    let program = bugs::data_race();
    let mut config = SystemConfig::default();
    config.log.record_to = Some(RecordConfig::new(&dir));
    let mut addrcheck = (ADDRCHECK.make)();
    let recorded = run_lba(&program, addrcheck.as_mut(), &config)?;
    println!(
        "live run under AddrCheck: {} findings, {} wire bits recorded",
        recorded.findings.len(),
        recorded.log.wire_bits
    );

    let segments: Vec<_> = std::fs::read_dir(&dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    println!("recording at {}: {segments:?}", dir.display());

    // 2. Yesterday's traffic, today's analysis: replay the same recording
    //    through LockSet. The data race AddrCheck could not see is in the
    //    log all along.
    let replay = run_replay(&dir, LOCKSET.make, &config)?;
    println!("\n{replay}");
    assert!(
        !replay.findings.is_empty(),
        "LockSet finds the race in the recorded stream"
    );

    // 3. Fidelity check: the replayed wire bits equal the live transport's
    //    accounting bit for bit.
    assert_eq!(replay.log.wire_bits, recorded.log.wire_bits);
    assert_eq!(replay.log.records, recorded.log.records);
    println!(
        "replay accounted {} wire bits — byte-identical to the live run",
        replay.log.wire_bits
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
