//! Live-parallel ≡ modeled-parallel: `run_live_parallel` (real threads,
//! real SPSC frame channels) and `run_lba_parallel` (deterministic model)
//! share the router and the frame codec, so for every shard count they
//! must produce identical merged findings and — because the per-shard
//! record streams and frame boundaries match — byte-identical per-shard
//! wire streams.

use lba::parallel::run_lba_parallel;
use lba::{run_live_parallel, ChannelStats, SystemConfig, ADDRCHECK, LOCKSET};
use lba_workloads::{bugs, Benchmark};

/// The per-shard statistics that must be identical between the modeled
/// and live transports (the high-water mark is timing-dependent in live
/// mode and deliberately excluded).
fn wire_view(stats: &ChannelStats) -> (u64, u64, u64, u64) {
    (
        stats.records,
        stats.frames,
        stats.payload_bits,
        stats.wire_bits,
    )
}

#[test]
fn live_parallel_matches_modeled_parallel_on_bug_workloads() {
    let config = SystemConfig::default();
    for (monitor, program) in [
        (ADDRCHECK, bugs::memory_bugs()),
        (LOCKSET, bugs::data_race()),
    ] {
        for shards in [1, 2, 4] {
            let live = run_live_parallel(&program, monitor.make, shards, &config).unwrap();
            let modeled = run_lba_parallel(&program, monitor.make, shards, &config).unwrap();
            let what = format!("{} / {} / {shards} shards", monitor.name, program.name());
            assert_eq!(live.findings, modeled.findings, "findings: {what}");
            assert!(!live.findings.is_empty(), "bug workload finds bugs: {what}");
            assert_eq!(live.shard_log.len(), shards);
            for (idx, (l, m)) in live.shard_log.iter().zip(&modeled.shard_log).enumerate() {
                assert_eq!(
                    wire_view(l),
                    wire_view(m),
                    "shard {idx} wire stream: {what}"
                );
                assert!(l.frames > 0, "shard {idx} must ship frames: {what}");
                assert!(l.wire_bits >= l.payload_bits, "shard {idx}: {what}");
            }
        }
    }
}

#[test]
fn live_parallel_matches_modeled_parallel_on_a_clean_benchmark() {
    // A real workload: lots of frames per shard, no findings — the wire
    // equality is the whole assertion.
    let config = SystemConfig::default();
    let program = Benchmark::Gzip.build();
    let live = run_live_parallel(&program, ADDRCHECK.make, 3, &config).unwrap();
    let modeled = run_lba_parallel(&program, ADDRCHECK.make, 3, &config).unwrap();
    assert!(live.findings.is_empty());
    assert_eq!(live.findings, modeled.findings);
    for (l, m) in live.shard_log.iter().zip(&modeled.shard_log) {
        assert_eq!(wire_view(l), wire_view(m));
        assert!(l.frames > 1, "gzip fills multiple frames per shard");
    }
    assert_eq!(live.trace.instructions(), modeled.trace.instructions());
}
