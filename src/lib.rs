//! # LBA — Log-Based Architectures, end to end
//!
//! A full-system reproduction of *"Log-Based Architectures for
//! General-Purpose Monitoring of Deployed Code"* (Chen et al., ASID/ASPLOS
//! 2006). The paper's proposal: capture a deployed program's dynamic
//! instruction trace in hardware on the core it runs on, compress it, ship
//! it through the cache hierarchy, and replay it as a stream of typed event
//! records to a *lifeguard* — a software monitor such as a memory checker or
//! race detector — running on a second core of the same chip multiprocessor.
//!
//! This crate is the facade over that pipeline:
//!
//! ```text
//!   application core                              lifeguard core(s)
//!  ┌────────────────┐                            ┌────────────────┐
//!  │  lba-workloads │  synthetic SPEC-like programs (gzip, mcf, …) │
//!  │  lba-isa       │  the simulated ISA: decode/encode, assembler │
//!  │  lba-cpu       │  machine model: threads, clocks, syscalls    │
//!  │       │        │                            │        ▲       │
//!  │   capture      │                            │ frame-granular │
//!  │ (lba-record)   │                            │    dispatch    │
//!  │       │        │                            │ (lba-lifeguard:│
//!  │  CaptureFilter─┼─ VPC compression + frame ──┼─▶ pop_frame or │
//!  │  addr ranges + │  packing (lba-compress)    │ recv_batch ->  │
//!  │  idempotency   │                            │ deliver_batch) │
//!  │  window (drops │                            │  lba-lifeguards│
//!  │  duplicates,   │                            │  AddrCheck ·   │
//!  │  folds counts  │                            │  TaintCheck ·  │
//!  │  into Repeat)  │                            │  LockSet ·     │
//!  │       │        │                            │  MemProfile    │
//!  │  FrameEncoder ─┼─▶ log channel: cache-line ─┼─▶ (each one    │
//!  │       │        │   frames through the       │  declares its  │
//!  │  shard_of ─────┼─▶ hierarchy (lba-transport,│  capture-dedup │
//!  │  fan-out: one  │   modelled or live SPSC;   │  soundness     │
//!  │  stream/shard  │   sharded: N streams, one  │  contract via  │
//!  │       │        │   predictor bank + decoder │  idempotency())│
//!  │       │        │   thread per shard         │                │
//!  │  Capture-      │                            │                │
//!  │  Controller ◀──┼── LoadSample: occupancy ───┼─ any finding   │
//!  │  (degrades     │   feeds *back* from the    │  snaps capture │
//!  │  capture per   │   channel; hysteresis      │  back to full  │
//!  │  each lifeguard's  widens/samples/drops     │  fidelity      │
//!  │  DegradationPolicy per contract only)       │                │
//!  │       │        │                            │                │
//!  │  lba-cache     │                            │                │
//!  │  lba-mem       │                            │                │
//!  └────────────────┘          │ tee             │                │
//!                              │                 └────────────────┘
//!                              ▼ (FrameSink)
//!                 ┌─────────────────────────────┐
//!                 │  flight recorder (lbas/1):  │
//!                 │  sealed frames → segmented  │
//!                 │  on-disk stream, rotation + │
//!                 │  retention (lba-record);    │
//!                 │  run_replay reads it back   │
//!                 │  through the live consumer  │
//!                 │  threads into any lifeguard,│
//!                 │  byte-identical             │
//!                 │  (LogConfig::record_to)     │
//!                 ├─────────────────────────────┤
//!                 │  socket wire (lbas/1 records│
//!                 │  over UDS): the             │
//!                 │  live FrameSender/Receiver  │
//!                 │  over SocketSink ⇄ Socket-  │
//!                 │  Source instead of the SPSC │
//!                 │  queue; an explicit credit  │
//!                 │  window (one credit per     │
//!                 │  drained frame, sized like  │
//!                 │  the queue depth) carries   │
//!                 │  the buffer_bytes back-     │
//!                 │  pressure + LoadSample loop │
//!                 │  across it; run_remote is   │
//!                 │  run_live_parallel with one │
//!                 │  socket per shard (lba-     │
//!                 │  transport::socket)         │
//!                 └─────────────────────────────┘
//!         consumption is frame-at-a-time in every
//!         mode: one ready_at stamp, one HandlerCtx
//!         and one subscription-mask fetch per
//!         frame;
//!         capture is filter-then-compress: the
//!         idempotency window suppresses cleared
//!         re-checks before they cost any wire
//!         (LogConfig::idempotency_window)
//! ```
//!
//! ## Crate map
//!
//! | crate            | role                                                  |
//! |------------------|-------------------------------------------------------|
//! | `lba-isa`        | instruction set: decode/encode, parser, program builder |
//! | `lba-mem`        | flat memory, heap allocator, address-space layout     |
//! | `lba-cpu`        | execution substrate: machine, threads, run errors     |
//! | `lba-cache`      | set-associative caches and the two-core memory system |
//! | `lba-record`     | the typed event-record vocabulary the log carries (incl. `Repeat` fold summaries) + the segmented `lbas/1` flight-recorder stream format (rotation, retention, End records), the one on-disk record format |
//! | `lba-compress`   | value-prediction log compression + chunked frame codec (< 1 byte/instr on the wire), `CODEC_VERSION` stamped into recordings |
//! | `lba-transport`  | `ModeledFrameChannel`, the framed buffer timing model the co-simulation gives each lifeguard core (one queue of sealed frames in seal order, admitted or parked, each holding its records, wire bits and `ready_at`); the live transport — one `FrameSender` (encoder, recording tee, degraded mark, stall latch, stats) and one `FrameReceiver` (decoder, drain drag) over two wires, the in-process SPSC queue or the `socket` module's `lbas/1` records over Unix-domain sockets with an explicit credit window so back-pressure survives the wire, whose consumer refuses a hello announcing another codec; both consumed a frame at a time (`pop_frame` / `recv_batch`); `shard_of` routing and per-shard channel fan-out; `FrameSink`/`FrameSource` seam with tee mirroring into recordings and `StreamSource` reading them back (salvage switch for torn tails); per-stream `ChannelStats` (records, frames, wire bits, degraded frames) counted alike by the modeled channel, the live sender and the receiver, so a replay's counts check against the recording run's; the producer-visible `LoadSample` occupancy signal (the feedback arrow above) and the `FaultProfile` slow-consumer injection (the modeled channel's stall schedule, the live receivers' drain drag) |
//! | `lba-lifeguard`  | dispatch engine (`deliver_batch` for the log; per-record `deliver`, the oracle `tests/batching.rs` and the lifeguards' unit rigs drive), capture filters (`AddrRangeFilter` + per-contract idempotency window in one `CaptureFilter` pass, whose widen reserve is the one record of whether degradation widens it), findings, flat paged shadow memory, and the graceful-degradation contract a lifeguard may declare (`DegradationPolicy`: droppable kinds and a `RegionClassifier` oracle, with `AlwaysSettled`, whose sampled regions are the lifeguard's dedup-window granules) |
//! | `lba-lifeguards` | the four lifeguards (the paper's three + `MemProfile`); each declares its degradation tolerance next to its idempotency story |
//! | `lba-dbi`        | Valgrind-style inline instrumentation baseline        |
//! | `lba-workloads`  | deterministic benchmark programs                      |
//! | `lba-core`       | ties it together: the staged capture pipeline (one crate-private producer stage chain, with the adaptive capture controller inside it, driving each mode's transport link), the run-mode/monitor registry (`pipeline::RUN_MODES` / `pipeline::MONITORS`, whose named rows `ADDRCHECK`, `TAINTCHECK`, `LOCKSET` and `MEMPROFILE` are the one lifeguard handle: the instance the log-based modes run, the instance the DBI baseline runs, shardability and the Figure 2 panel), the unified `Run` builder taking a monitor row and dispatching every mode through its `RUN_MODES` row behind one validated entry point (the `run_*` functions are the per-mode implementations), one co-simulation behind `run_lba` and `run_lba_parallel` (one lifeguard core or N, one timing model), one live runner behind `run_live`, `run_live_parallel` and `run_remote` (one shard or N, queue or socket wires) whose consumer threads also run `run_replay` (one receiver per recorded stream), one run contract for every entry point (the builder, each `run_*` function and the `experiment` functions return a `RunReport` whose findings are its consumers' merged on `(kind, pc, addr, tid)`, or an `LbaError`, which every layer's error converts into: a machine fault, a log configuration that cannot ship, a stalled channel, a panicking live or replay thread, an undecodable frame, a recording under another codec), the experiment layer (Figure 2 runs every monitor row with a panel), the one `RunReport` every mode returns (clocks where a modeled clock runs, one `ChannelStats` per stream, salvaged tails after a salvaging replay; it derefs to its `PipelineReport` core), and the `LogConfig::adaptive` switch of the capture controller that closes the back-pressure feedback loop, whose thresholds, sampling stride, widen reserve and demotion rate are its own constants |
//! | `lba-bench`      | table rendering, Criterion benches, `figures` binary  |
//!
//! ## Execution models
//!
//! All of them drive through the unified [`Run`] builder —
//! `Run::new(&program).mode(RunMode::Live).monitor(&ADDRCHECK).run()`
//! — which takes the lifeguard as its [`MONITORS`] row, validates the
//! mode/monitor pairing against the registry capability flags,
//! dispatches through the mode's [`RUN_MODES`] row and
//! returns a [`RunOutcome`] that derefs to the one [`RunReport`] every
//! mode reports: its `mode` names the mode that ran, its `shard_log`
//! holds one [`ChannelStats`] per stream, and its cycle fields stay zero
//! where no modeled clock runs.
//! The rows call the per-mode implementations below, which stay public
//! for what the builder does not express — a custom lifeguard instance,
//! or a lifeguard whose final state the caller inspects. They keep the
//! builder's contract: each returns a [`RunReport`] whose findings are its
//! consumers' merged on `(kind, pc, addr, tid)` (so a replay reports its
//! recording run's findings whatever the width), or an [`LbaError`]:
//!
//! * [`run_unmonitored`] — the baseline: the program alone on one core;
//! * [`run_lba`] — the proposed system: capture → compression → framed log
//!   channel → dispatch → lifeguard on a second core, with decoupled
//!   clocks, back-pressure, and syscall-stall containment;
//! * [`run_live`] — the live runner with one shard: the same framed
//!   pipeline over a real SPSC channel between OS threads instead of the
//!   deterministic timing model, with [`run_lba`]'s syscall containment
//!   and address-range filter; one queue operation per frame, real wire
//!   bytes measured and reported, and no cache model on either thread,
//!   since a live run reports no modeled clock;
//! * [`run_live_parallel`] — the same runner N shards wide: load/store
//!   records route to the shard owning their cache line, every shard is
//!   its own compressed frame stream with its own predictor bank, and N
//!   consumer threads decode and dispatch concurrently;
//! * [`run_remote`] — [`run_live_parallel`] with each shard's queue
//!   replaced by a real Unix-domain socket (`lbas/1` framing) to a worker
//!   owning a full decoder + dispatch + lifeguard stack; a credit window
//!   carries the back-pressure and adaptive-degradation semantics across
//!   the wire, and per-shard wire streams and merged findings are
//!   byte-identical to [`run_live_parallel`]'s;
//! * [`run_dbi`] — the comparison point: the lifeguard inlined via dynamic
//!   binary instrumentation on the application core (the builder's
//!   [`RunMode::Dbi`] runs the row's `make_dbi` instance, so it is Figure
//!   2's DBI baseline: LockSet recomputes its locksets in software);
//! * [`run_replay`] — offline replay: any of the modes above records its
//!   sealed wire frames to a segmented on-disk stream
//!   ([`LogConfig::record_to`]), and replay re-decodes the recording
//!   through any lifeguard on the live runner's consumer threads, one per
//!   recorded stream — findings and wire-bit accounting byte-identical to
//!   the original run, no re-simulation, and a recording that lost a
//!   stream below its highest is refused before any consumer starts
//!   ([`run_replay_with`] in [`ReplayMode::SalvagePrefix`] additionally
//!   survives a torn tail segment, replaying the checksummed prefix and
//!   reporting exactly what was lost).
//!
//! Every one of these modes is the *same* producer: one stage chain
//! (capture filter → adaptive capture controller verdicts → recording
//! tee → channel push, with degradation ledgering and syscall-flush
//! containment written exactly once in `lba-core/src/pipeline.rs`,
//! private to `lba-core`) driving the mode's transport link into one of
//! three [`TopologyKind`] shapes — single consumer, sharded-by-cache-line,
//! or replay source — over either the modeled or the live transport. The
//! [`MONITORS`] and [`RUN_MODES`] registries enumerate the lifeguards and
//! modes once. A [`MonitorSpec`] row ([`ADDRCHECK`],
//! [`TAINTCHECK`], [`LOCKSET`], [`MEMPROFILE`]) is the one lifeguard
//! handle: it builds the instance each execution model runs (`make` for
//! the log-based modes, `make_dbi` for the DBI baseline) and carries the
//! lifeguard's [`Figure2Panel`]. The builder, the benchmark matrix, the
//! experiment layer (Figure 2 runs every row with a panel) and the
//! cross-mode equivalence suites all name lifeguards by these rows.
//!
//! Every producer mode can additionally run *adaptive*: set
//! [`LogConfig::adaptive`] and the capture controller watches the
//! transport's [`LoadSample`], degrading capture
//! under back-pressure strictly within each lifeguard's declared
//! [`DegradationPolicy`] — and snapping back to full fidelity on any
//! finding or syscall. Load is its one trigger: the lifeguard shapes what
//! degradation may do through its policy, not when it happens. Every
//! degraded span is accounted in the report's [`DegradationStats`] and
//! marked on the wire, and every stream counts its marked frames
//! (`ChannelStats::degraded_frames`), so a replay reports the same count
//! as the run that recorded it. The deterministic
//! [`FaultProfile`] injectors ([`LogConfig::fault`]) exist to prove all
//! of this in `tests/degradation.rs`.
//!
//! The [`experiment`] module regenerates every table and figure in the paper
//! (`cargo run --release -p lba-bench --bin figures`), and the [`parallel`]
//! module models the §3 future-work extension of sharding one log across
//! several lifeguard cores: [`run_lba`]'s co-simulation N lifeguard cores
//! wide, under the same timing model ([`run_live_parallel`] runs it for
//! real).
//!
//! ## Quickstart
//!
//! ```
//! use lba::{Run, RunMode, SystemConfig, ADDRCHECK};
//! use lba_workloads::bugs;
//!
//! let program = bugs::memory_bugs();
//! let config = SystemConfig::default();
//!
//! let baseline = Run::new(&program)
//!     .mode(RunMode::Unmonitored)
//!     .config(&config)
//!     .run()?;
//! let monitored = Run::new(&program)
//!     .mode(RunMode::Lba)
//!     .monitor(&ADDRCHECK)
//!     .config(&config)
//!     .run()?;
//!
//! // A RunOutcome derefs to its RunReport: findings, clocks and all.
//! assert!(!monitored.findings.is_empty(), "the planted bugs are caught");
//! assert!(monitored.slowdown_vs(&baseline) > 1.0);
//! # Ok::<(), lba::LbaError>(())
//! ```

pub use lba_core::{
    experiment, live_parallel, parallel, pipeline, remote, replay, report, runner, table,
    CaptureFilter, CaptureStats, ChannelStats, IdempotencyClass, LogConfig, LogStats,
    PipelineReport, RecordConfig, RunError, RunReport, StallBreakdown, SystemConfig, WindowSpec,
};
// The unified entry point: one builder for every execution model, the
// outcome that holds the one report every mode returns, and the error
// hierarchy every layer's failures convert into.
pub use lba_core::{LbaError, Run, RunMode, RunOutcome};
// The per-mode implementations the builder dispatches to and the
// run-mode/monitor registry: MONITORS/RUN_MODES are the single
// source the builder, the experiment layer, the benchmarks and the
// equivalence suites derive their enumerations from, and a named
// MONITORS row is how every one of them names a lifeguard.
pub use lba_core::{
    run_dbi, run_lba, run_live, run_live_parallel, run_remote, run_replay, run_replay_with,
    run_unmonitored,
};
pub use lba_core::{
    Figure2Panel, MonitorSpec, RunModeSpec, TopologyKind, ADDRCHECK, LOCKSET, MEMPROFILE, MONITORS,
    RUN_MODES, TAINTCHECK,
};
// Adaptive capture under back-pressure (one switch,
// `LogConfig::adaptive`; the controller and its constants are private to
// lba-core): the per-lifeguard degradation contracts, the transport load
// signal, the deterministic fault profile that drives the acceptance
// tests, and the replay salvage mode for torn recordings.
pub use lba_core::{
    DegradationPolicy, DegradationStats, DegradedInterval, FaultProfile, LoadSample,
    RegionClassifier, ReplayMode, SalvagedTail, MAX_RECORDED_INTERVALS,
};

#[cfg(test)]
mod facade_smoke {
    //! Satellite smoke test: the facade re-exports resolve and a minimal
    //! monitored run completes end to end.

    #[test]
    fn facade_paths_resolve_and_pipeline_runs() {
        // Name every advertised re-export so a regression in the facade is
        // a compile error here, not just in downstream tests.
        let _run_lba: fn(
            &lba_isa::Program,
            &mut dyn lba_lifeguard::Lifeguard,
            &crate::SystemConfig,
        ) -> Result<crate::RunReport, crate::LbaError> = crate::run_lba;

        // The pipeline registry survives under its advertised names: four
        // monitors, six run modes, and the topology type.
        assert_eq!(crate::MONITORS.len(), 4);
        assert_eq!(crate::RUN_MODES.len(), 6);
        let _monitor: &crate::MonitorSpec = &crate::MONITORS[0];
        let _mode: &crate::RunModeSpec = &crate::RUN_MODES[0];
        let _topo: crate::TopologyKind = crate::RUN_MODES[0].topology;

        let config = crate::SystemConfig::default();
        let program = lba_workloads::bugs::memory_bugs();

        let sharded =
            crate::parallel::run_lba_parallel(&program, crate::ADDRCHECK.make, 2, &config)
                .expect("parallel run completes");
        assert_eq!(sharded.shard_log.len(), 2);

        let live_sharded = crate::run_live_parallel(&program, crate::ADDRCHECK.make, 2, &config)
            .expect("live parallel run completes");
        assert_eq!(live_sharded.findings, sharded.findings);

        // The socket transport behind the unified builder: same shards,
        // same findings, real wire.
        let remote = crate::Run::new(&program)
            .mode(crate::RunMode::Remote)
            .monitor(&crate::ADDRCHECK)
            .workers(2)
            .config(&config)
            .run()
            .expect("remote run completes");
        assert_eq!(remote.findings, live_sharded.findings);
        assert!(matches!(remote, crate::RunOutcome::Remote(_)));

        let baseline = crate::run_unmonitored(&program, &config).expect("baseline runs");
        let monitor = &crate::ADDRCHECK;
        let mut lifeguard = (monitor.make)();
        let monitored = crate::run_lba(&program, lifeguard.as_mut(), &config).expect("lba runs");

        assert!(
            !monitored.findings.is_empty(),
            "planted bugs must be caught"
        );
        assert!(
            monitored.slowdown_vs(&baseline) > 1.0,
            "monitoring is not free"
        );

        // Flight recorder re-exports: record the same run, replay it, and
        // the findings and wire bits come back byte-identical.
        let dir = std::env::temp_dir().join(format!("lba-facade-smoke-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut recording = config.clone();
        recording.log.record_to = Some(crate::RecordConfig::new(&dir));
        let mut lifeguard = (monitor.make)();
        let recorded =
            crate::run_lba(&program, lifeguard.as_mut(), &recording).expect("recorded run");
        let replay: crate::RunReport =
            crate::run_replay(&dir, monitor.make, &config).expect("replay runs");
        assert_eq!(replay.findings, recorded.findings);
        assert_eq!(replay.log.wire_bits, recorded.log.wire_bits);
        std::fs::remove_dir_all(&dir).ok();
    }
}
