//! Failure containment in the live modes and replay: a panic on any thread
//! of a live run or a replay comes back as `LbaError::Panicked` naming the
//! thread, not as a harness panic, and not as the socket tear it leaves
//! under `run_remote`.

use std::fmt::Debug;
use std::time::{Duration, Instant};

use lba::{
    run_live, run_live_parallel, run_remote, run_replay, DegradationPolicy, IdempotencyClass,
    LbaError, MonitorSpec, RecordConfig, RegionClassifier, Run, RunMode, SystemConfig, ADDRCHECK,
};
use lba_isa::Program;
use lba_lifeguard::{HandlerCtx, Lifeguard};
use lba_lifeguards::AddrCheck;
use lba_record::{EventMask, EventRecord};
use lba_workloads::Benchmark;

/// An AddrCheck with a bug planted at its 1 000th event: in its handler,
/// or, `in_capture`, in the region classifier its degradation policy puts
/// into the producer's capture controller. It declares AddrCheck's two
/// contracts, because the controller samples only within the dedup
/// window the idempotency contract declares.
struct Buggy {
    inner: AddrCheck,
    seen: u64,
    in_capture: bool,
}

fn buggy(in_capture: bool) -> Box<dyn Lifeguard> {
    Box::new(Buggy {
        inner: AddrCheck::new(),
        seen: 0,
        in_capture,
    })
}

impl Lifeguard for Buggy {
    fn name(&self) -> &'static str {
        "buggy-addrcheck"
    }

    fn subscriptions(&self) -> EventMask {
        self.inner.subscriptions()
    }

    fn on_event(&mut self, record: &EventRecord, ctx: &mut HandlerCtx<'_>) {
        self.seen += 1;
        assert!(
            self.in_capture || self.seen != 1_000,
            "planted bug at event 1000"
        );
        self.inner.on_event(record, ctx);
    }

    fn on_finish(&mut self, ctx: &mut HandlerCtx<'_>) {
        self.inner.on_finish(ctx);
    }

    fn idempotency(&self) -> IdempotencyClass {
        self.inner.idempotency()
    }

    fn degradation(&self) -> Option<DegradationPolicy> {
        let mut policy = self.inner.degradation();
        if self.in_capture {
            let policy = policy.as_mut().expect("AddrCheck degrades");
            policy.make_classifier = Some(|| Box::new(BuggyClassifier(0)));
        }
        policy
    }
}

#[derive(Debug)]
struct BuggyClassifier(u64);

impl RegionClassifier for BuggyClassifier {
    fn observe(&mut self, _rec: &EventRecord) {
        self.0 += 1;
        assert!(self.0 != 1_000, "planted bug at record 1000");
    }

    fn verdict_settled(&self, _rec: &EventRecord) -> bool {
        false
    }
}

/// The buggy lifeguard as a registry row, for the `Run` builder.
static BUGGY: MonitorSpec = MonitorSpec {
    name: "buggy-addrcheck",
    make: || buggy(false),
    make_dbi: || buggy(false),
    shardable: true,
    figure2: None,
};

/// Runs `run` on gzip, which must fail within 30 s (its threads all end).
fn failure<T: Debug>(run: impl FnOnce(&Program) -> Result<T, LbaError>) -> LbaError {
    let started = Instant::now();
    let err = run(&Benchmark::Gzip.build()).unwrap_err();
    assert!(started.elapsed() < Duration::from_secs(30), "{err}");
    err
}

#[test]
fn a_lifeguard_panic_is_an_error_naming_the_shard_and_lifeguard() {
    let config = SystemConfig::default();
    // A clean two-shard recording, replayed below through the buggy one.
    let dir = std::env::temp_dir().join(format!("lba-worker-panics-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut recording = SystemConfig::default();
    recording.log.record_to = Some(RecordConfig::new(&dir));
    run_live_parallel(&Benchmark::Gzip.build(), ADDRCHECK.make, 2, &recording).unwrap();
    let errors = [
        failure(|program| run_live(program, buggy(false).as_mut(), &config)),
        failure(|program| run_live_parallel(program, || buggy(false), 2, &config)),
        // The worker's panic, not the tear it leaves on the producer's side.
        failure(|program| run_remote(program, || buggy(false), 1, &config)),
        // A replay's lifeguards run on the live consumer threads too.
        failure(|_| run_replay(&dir, || buggy(false), &config)),
        failure(|program| {
            (Run::new(program).mode(RunMode::Replay).monitor(&BUGGY))
                .config(&config)
                .replay_from(&dir)
                .run()
        }),
    ];
    std::fs::remove_dir_all(&dir).ok();
    for err in errors {
        assert!(matches!(err, LbaError::Panicked { .. }), "got: {err}");
        let msg = err.to_string();
        for part in ["shard", "buggy-addrcheck", "planted bug at event 1000"] {
            assert!(msg.contains(part), "{msg} must name {part}");
        }
    }
}

#[test]
fn a_producer_panic_is_reported_as_itself_not_as_the_tear_it_causes() {
    // The panicking producer drops its socket sender unfinished, so the
    // worker sees a torn wire; the producer's panic explains it and wins.
    let mut config = SystemConfig::default();
    config.log.adaptive = true;
    let err = failure(|program| run_remote(program, || buggy(true), 1, &config));
    assert!(
        matches!(&err, LbaError::Panicked { thread, .. } if thread.contains("producer")),
        "got: {err}"
    );
    assert!(
        err.to_string().contains("planted bug at record 1000"),
        "got: {err}"
    );
}
