//! Socket-transport equivalence at the integration level: `run_remote`
//! moves each shard's sealed frames across a real Unix-domain socket
//! under the credit window, and must be *observationally identical* to
//! the in-process `run_live_parallel` — same merged findings, and the
//! same per-shard wire accounting bit for bit, at every worker count.
//! The socket is a transport, not a re-encode.

use lba::{
    run_live_parallel, run_remote, MonitorSpec, Run, RunMode, RunOutcome, SystemConfig, ADDRCHECK,
    LOCKSET,
};
use lba_workloads::{bugs, Benchmark};

/// The shardable (program, lifeguard) grid the socket modes are exercised
/// over — one case per sharding-eligible lifeguard, plus a real benchmark.
fn case(index: usize) -> (lba_isa::Program, MonitorSpec) {
    match index {
        0 => (bugs::memory_bugs(), ADDRCHECK),
        1 => (bugs::data_race(), LOCKSET),
        _ => (Benchmark::Gzip.build(), ADDRCHECK),
    }
}

/// Remote ≡ live-parallel across worker counts: identical merged
/// findings, identical per-shard frame/record/wire accounting. The
/// shard topology is keyed by worker count alone, so each remote
/// worker's socket must carry exactly the stream the in-process
/// consumer thread would have drained.
#[test]
fn remote_workers_are_observationally_identical_to_in_process_shards() {
    for case_index in 0..3 {
        let (program, monitor) = case(case_index);
        let config = SystemConfig::default();
        for workers in [1usize, 2, 4] {
            let live = run_live_parallel(&program, monitor.make, workers, &config)
                .expect("live-parallel runs clean");
            let remote =
                run_remote(&program, monitor.make, workers, &config).expect("remote runs clean");
            let what = format!("{}/{} at {workers} workers", program.name(), monitor.name);
            assert_eq!(
                &remote.findings, &live.findings,
                "{}: findings diverge over the socket",
                &what
            );
            assert_eq!(
                remote.shard_log.len(),
                live.shard_log.len(),
                "{}: shard count diverges",
                &what
            );
            for (shard, (r, l)) in remote.shard_log.iter().zip(&live.shard_log).enumerate() {
                assert_eq!(
                    (r.records, r.frames, r.wire_bits, r.payload_bits),
                    (l.records, l.frames, l.wire_bits, l.payload_bits),
                    "{}: shard {} wire accounting diverges over the socket",
                    &what,
                    shard
                );
            }
            assert_eq!(
                remote.trace.instructions(),
                live.trace.instructions(),
                "{}",
                &what
            );
        }
    }
}

#[test]
fn builder_remote_mode_is_the_same_run() {
    // The unified builder's `RunMode::Remote` is the same code path as the
    // free function — same findings, same wire accounting.
    let program = bugs::memory_bugs();
    let config = SystemConfig::default();
    let direct = run_remote(&program, ADDRCHECK.make, 2, &config).expect("direct call runs clean");
    let built = Run::new(&program)
        .mode(RunMode::Remote)
        .monitor(&ADDRCHECK)
        .workers(2)
        .config(&config)
        .run()
        .expect("builder runs clean");
    assert_eq!(built.findings, direct.findings);
    assert_eq!(built.log.wire_bits, direct.log.wire_bits);
    let RunOutcome::Remote(report) = &built else {
        panic!("RunMode::Remote produced a non-remote outcome");
    };
    assert_eq!(report.shard_log.len(), 2);
}
