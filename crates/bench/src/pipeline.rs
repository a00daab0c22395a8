//! End-to-end pipeline throughput: host wall-clock events/sec.
//!
//! Everything else in the reproduction reports *modeled* cycles; this
//! module measures how fast the simulator itself moves events, which is
//! the ROADMAP's "as fast as the hardware allows" axis. The `figures`
//! binary measures the rows and feeds them to two places:
//!
//! * its report, which ends with the throughput table;
//! * `BENCH_pipeline.json`, the committed trajectory file every future PR
//!   re-generates to show where host throughput moved (`figures
//!   --bench-smoke` measures every cell once and checks the committed
//!   file's schema and deterministic columns against it).

use std::time::Instant;

use lba::{
    run_lba, run_replay, FaultProfile, MonitorSpec, RecordConfig, Run, RunMode, RunOutcome,
    SystemConfig, TopologyKind,
};
use lba_cache::{MemSystem, MemSystemConfig};
use lba_cpu::Machine;
use lba_lifeguard::DispatchEngine;
use lba_lifeguards::AddrCheck;
use lba_record::EventRecord;
use lba_transport::ModeledFrameChannel;
use lba_workloads::Benchmark;

/// The [`lba::MONITORS`] rows that pass `keep`, in table order. The
/// registry row is the one lifeguard handle, so a new lifeguard lands in
/// the bench matrix by adding its row; the matrix drives MemProfile too.
fn monitors(keep: fn(&MonitorSpec) -> bool) -> impl Iterator<Item = &'static MonitorSpec> {
    lba::MONITORS.iter().filter(move |m| keep(m))
}

/// Whether `m`'s declared `Lifeguard::idempotency()` contract takes part
/// in capture-side dedup (today AddrCheck, LockSet and MemProfile;
/// TaintCheck declares `IdempotencyClass::None`).
fn dedupes(m: &MonitorSpec) -> bool {
    (m.make)().idempotency().spec().is_some()
}

/// Whether `m` declares a `Lifeguard::degradation()` contract (today
/// AddrCheck, LockSet and MemProfile; TaintCheck declares none).
fn degrades(m: &MonitorSpec) -> bool {
    (m.make)().degradation().is_some()
}

/// Shard counts the sharded series measure.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Idempotency-window size (entries) used by the filtered series.
const IDEMPOTENT_WINDOW: usize = 4096;

/// One run of `monitor` under `mode` (`workers` wide where it shards)
/// through the [`Run`] builder.
fn run_mode(
    program: &lba_isa::Program,
    mode: RunMode,
    monitor: &'static MonitorSpec,
    workers: usize,
    cfg: &SystemConfig,
) -> RunOutcome {
    (Run::new(program).mode(mode).monitor(monitor))
        .workers(workers)
        .config(cfg)
        .run()
        .expect("gzip runs clean")
}

/// One throughput measurement: a row of the trajectory.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    /// Execution mode: `"lba"` (deterministic co-simulation),
    /// `"lba-parallel"` (the co-simulation with N lifeguard cores), `"live"`
    /// (two OS threads), `"live-parallel"` (1 producer + N consumer
    /// threads), `"remote"` (the same over sockets), `"consume"` (isolated
    /// consumption path), or `"replay"` (offline replay of a
    /// flight-recorder stream), or a `-faulted`/`-degraded` series.
    pub mode: &'static str,
    /// Lifeguard name.
    pub lifeguard: &'static str,
    /// Benchmark program.
    pub benchmark: &'static str,
    /// Lifeguard shard count (1 for the unsharded modes).
    pub shards: usize,
    /// Capture-side idempotency-window entries (0: unfiltered).
    pub window: usize,
    /// Log records shipped (after any capture filtering).
    pub records: u64,
    /// Bits on the wire, frame headers and padding included (summed over
    /// shards in the sharded mode).
    pub wire_bits: u64,
    /// Median wall-clock seconds over the samples.
    pub wall_seconds: f64,
    /// Median events per wall-clock second over the samples.
    pub events_per_sec: f64,
    /// First quartile of the samples' events per second.
    pub events_per_sec_q1: f64,
    /// Third quartile of the samples' events per second.
    pub events_per_sec_q3: f64,
    /// Samples behind the rates: one per measurement round.
    pub samples: usize,
    /// Modeled end-to-end cycles, for the modes with a deterministic
    /// clock model (the `lba` and `lba-parallel` series); 0 for the
    /// host-wall-clock-only modes.
    pub modeled_cycles: u64,
    /// Fraction of captured events the adaptive controller sampled out
    /// (the `*-degraded` series; 0 everywhere else).
    pub sampled_out_fraction: f64,
}

/// Measurement rounds behind the committed trajectory: every cell is
/// sampled once per round.
pub const TRAJECTORY_ROUNDS: usize = 9;

/// What one run of a cell reports: the deterministic columns and the
/// events its rate counts.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    records: u64,
    wire_bits: u64,
    /// The rate's numerator: retired events, the same work whatever the
    /// mode filters, degrades or shards.
    events: u64,
    modeled_cycles: u64,
    sampled_out_fraction: f64,
}

/// A trajectory row before it is measured: its identity and one run of
/// its workload.
struct Cell<'a> {
    mode: &'static str,
    lifeguard: &'static str,
    shards: usize,
    window: usize,
    run: Box<dyn FnMut() -> Sample + 'a>,
}

impl<'a> Cell<'a> {
    fn new(
        mode: &'static str,
        lifeguard: &'static str,
        shards: usize,
        window: usize,
        run: impl FnMut() -> Sample + 'a,
    ) -> Self {
        Cell {
            mode,
            lifeguard,
            shards,
            window,
            run: Box::new(run),
        }
    }

    /// The row for `walls`, this cell's wall times, one per round, and the
    /// last round's deterministic columns.
    fn row(&self, sample: Sample, walls: &[f64]) -> PipelineRow {
        let mut walls = walls.to_vec();
        walls.sort_by(f64::total_cmp);
        let mut rates: Vec<f64> = walls
            .iter()
            .map(|wall| sample.events as f64 / wall)
            .collect();
        rates.sort_by(f64::total_cmp);
        PipelineRow {
            mode: self.mode,
            lifeguard: self.lifeguard,
            benchmark: "gzip",
            shards: self.shards,
            window: self.window,
            records: sample.records,
            wire_bits: sample.wire_bits,
            wall_seconds: quantile(&walls, 0.5),
            events_per_sec: quantile(&rates, 0.5),
            events_per_sec_q1: quantile(&rates, 0.25),
            events_per_sec_q3: quantile(&rates, 0.75),
            samples: walls.len(),
            modeled_cycles: sample.modeled_cycles,
            sampled_out_fraction: sample.sampled_out_fraction,
        }
    }
}

/// The `q`-quantile of `sorted`, interpolated between neighbours.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = (sorted.len() - 1) as f64 * q;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Runs the full measurement matrix on gzip: the isolated consumption
/// path, both single-lifeguard modes with all four lifeguards, the
/// sharded series across shard counts, the filtered-vs-unfiltered
/// idempotency series, the replay series and the adaptive-degradation
/// series.
///
/// Every cell is sampled once per round, `rounds` rounds in all, so a
/// drift in the host's speed hits every row alike; each row reports the
/// median rate and its quartiles over its samples.
///
/// # Panics
///
/// Panics if `rounds` is zero, or if a cell's run fails or breaks its
/// invariants (a replay whose wire bits differ from its recording, a
/// controller that engages when not configured or not when configured).
#[must_use]
pub fn measure_pipeline(rounds: usize) -> Vec<PipelineRow> {
    assert!(rounds > 0, "need at least one round");
    let program = Benchmark::Gzip.build();
    let stream = capture_stream();
    let recording = Recording::new(&program);
    let cfg = SystemConfig::default();
    let mut windowed = cfg.clone();
    windowed.log.idempotency_window = IDEMPOTENT_WINDOW;
    let mut cells = vec![consume_cell(&stream)];
    for monitor in monitors(|_| true) {
        for mode in [RunMode::Lba, RunMode::Live] {
            cells.push(mode_cell(mode, monitor, cfg.clone(), &program));
        }
    }
    cells.extend(sharded_cells(&program));
    for monitor in monitors(dedupes) {
        for mode in [RunMode::Lba, RunMode::Live] {
            cells.push(mode_cell(mode, monitor, windowed.clone(), &program));
        }
    }
    cells.extend(replay_cells(&recording));
    cells.extend(degraded_cells(&program));

    let mut walls = vec![Vec::with_capacity(rounds); cells.len()];
    let mut last = vec![Sample::default(); cells.len()];
    for _ in 0..rounds {
        for ((cell, walls), last) in cells.iter_mut().zip(&mut walls).zip(&mut last) {
            let start = Instant::now();
            *last = (cell.run)();
            walls.push(start.elapsed().as_secs_f64());
        }
    }
    cells
        .iter()
        .zip(&walls)
        .zip(last)
        .map(|((cell, walls), sample)| cell.row(sample, walls))
        .collect()
}

/// gzip's wire stream, recorded once through the flight recorder
/// (`LogConfig::record_to`) for the replay cells. The directory goes when
/// the recording does.
struct Recording {
    dir: std::path::PathBuf,
    wire_bits: u64,
}

impl Recording {
    fn new(program: &lba_isa::Program) -> Self {
        let dir = std::env::temp_dir().join(format!("lba-bench-replay-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut record_cfg = SystemConfig::default();
        record_cfg.log.record_to = Some(RecordConfig::new(&dir));
        let mut recorder = AddrCheck::new();
        let recorded = run_lba(program, &mut recorder, &record_cfg).expect("gzip runs clean");
        Recording {
            dir,
            wire_bits: recorded.log.wire_bits,
        }
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// The offline-replay series: `run_replay` re-drives the one recording
/// through each lifeguard at host speed — decode and dispatch only, no
/// application simulation. One recording, four analyses: the paper's
/// retroactive-monitoring pitch as a throughput row. Every replay's
/// wire-bit accounting is asserted byte-identical to the recorded run.
fn replay_cells(recording: &Recording) -> Vec<Cell<'_>> {
    let cfg = SystemConfig::default();
    monitors(|_| true)
        .map(|monitor| {
            let cfg = cfg.clone();
            Cell::new("replay", monitor.name, 1, 0, move || {
                let replay = run_replay(&recording.dir, monitor.make, &cfg)
                    .expect("recording replays clean");
                assert_eq!(
                    replay.log.wire_bits, recording.wire_bits,
                    "replay wire accounting must be byte-identical to the recording"
                );
                Sample {
                    records: replay.log.records,
                    wire_bits: replay.log.wire_bits,
                    events: replay.log.records,
                    ..Sample::default()
                }
            })
        })
        .collect()
}

/// The injected-fault configs the degraded series runs under, per mode.
/// `adaptive` switches the controller on (`LogConfig::adaptive`); the
/// fault profile and buffer budget are identical either way, so the
/// degraded row and its uncontrolled counterpart face the *same* load
/// (the trajectory gate compares the two). The cosim flavour shrinks the
/// modeled buffer so the slow-drain back-pressure genuinely climbs past
/// the controller's engage threshold; the live flavour drags the real
/// consumer against a one-frame queue — the same shapes
/// `tests/degradation.rs` pins as reliably engaging.
#[must_use]
pub fn fault_config(mode: &str, adaptive: bool) -> SystemConfig {
    let mut config = SystemConfig::default();
    config.log.adaptive = adaptive;
    if mode == "lba" {
        config.log.fault = Some(FaultProfile::slow_drain());
        config.log.buffer_bytes = 2 << 10;
    } else {
        config.log.fault = Some(FaultProfile {
            drain_drag: 20_000,
            ..FaultProfile::default()
        });
        config.log.buffer_bytes = 64;
    }
    config
}

/// The adaptive-degradation series [`degraded_cells`] measures, per
/// single-lifeguard mode: controller off (`*-faulted`), then on
/// (`*-degraded`).
const DEGRADED_SERIES: [(RunMode, [&str; 2]); 2] = [
    (RunMode::Lba, ["lba-faulted", "lba-degraded"]),
    (RunMode::Live, ["live-faulted", "live-degraded"]),
];

/// The adaptive-degradation series: every contract-degradable lifeguard
/// through both single-lifeguard modes under injected slow-drain, twice —
/// once with the controller off (`*-faulted`: the uncontrolled baseline
/// suffering the full load) and once with it on (`*-degraded`). The
/// trajectory gate demands the degraded row move events at least as fast
/// as its uncontrolled counterpart under the identical fault profile —
/// degradation must buy throughput, not just bookkeep — and the
/// `sampled_out_fraction` column records how much of the stream the
/// controller thinned to do it.
fn degraded_cells(program: &lba_isa::Program) -> Vec<Cell<'_>> {
    let mut cells = Vec::new();
    for monitor in monitors(degrades) {
        for (mode, series) in DEGRADED_SERIES {
            for (adaptive, series) in [false, true].into_iter().zip(series) {
                let cfg = fault_config(mode.name(), adaptive);
                cells.push(Cell::new(series, monitor.name, 1, 0, move || {
                    let report = run_mode(program, mode, monitor, 1, &cfg);
                    let (log, degradation) = (report.log, &report.degradation);
                    assert_eq!(
                        degradation.is_empty(),
                        !adaptive,
                        "{mode}/{}: the controller must engage exactly when configured",
                        monitor.name
                    );
                    let captured = report.capture.captured + degradation.removed();
                    Sample {
                        records: log.records,
                        wire_bits: log.wire_bits,
                        events: captured,
                        modeled_cycles: report.total_cycles,
                        sampled_out_fraction: degradation.sampled_out as f64 / captured as f64,
                    }
                }));
            }
        }
    }
    cells
}

/// The degradation payoff: a `{mode}-degraded` row's events/sec over the
/// `{mode}-faulted` row of the same lifeguard — controller on vs off
/// under the identical injected fault profile.
#[must_use]
pub fn degraded_speedup(rows: &[PipelineRow], mode: &str, lifeguard: &str) -> Option<f64> {
    let find = |suffix: &str| {
        let mode = format!("{mode}-{suffix}");
        rows.iter()
            .find(|r| r.mode == mode && r.lifeguard == lifeguard)
    };
    let degraded = find("degraded")?;
    let faulted = find("faulted")?;
    Some(degraded.events_per_sec / faulted.events_per_sec)
}

/// One `lba`/`live` cell. The events/sec numerator is *captured*
/// (retired) events, not shipped records: a capture filter shrinks the
/// log, not the workload, so the rate stays comparable across filtered
/// and unfiltered rows. With the window off the two counts coincide.
fn mode_cell<'a>(
    mode: RunMode,
    monitor: &'static MonitorSpec,
    cfg: SystemConfig,
    program: &'a lba_isa::Program,
) -> Cell<'a> {
    let window = cfg.log.idempotency_window;
    Cell::new(mode.name(), monitor.name, 1, window, move || {
        let report = run_mode(program, mode, monitor, 1, &cfg);
        Sample {
            records: report.log.records,
            wire_bits: report.log.wire_bits,
            events: report.capture.captured,
            modeled_cycles: report.total_cycles,
            sampled_out_fraction: 0.0,
        }
    })
}

/// The sharded series, one per `Sharded` registry row in table order,
/// events/sec on gzip for every supported lifeguard at each shard count:
/// `lba-parallel` (`run_lba_parallel`, whose rows also carry its modeled
/// cycles), `live-parallel` (`run_live_parallel`), then `remote`
/// (`run_remote`, the live runner over Unix-domain sockets). Events are *retired records*, the same work
/// whatever the shard count, so rates compare across shard counts and with
/// the unsharded series; broadcast records shipped once per shard are
/// transport duplication, and counting them would manufacture phantom
/// speedup. The trajectory gate asserts each `lba-parallel` and `remote`
/// row's wire bits byte-identical to the matching live-parallel row: all
/// three move the exact same per-shard streams.
fn sharded_cells(program: &lba_isa::Program) -> Vec<Cell<'_>> {
    let cfg = SystemConfig::default();
    let mut cells = Vec::new();
    let sharded = (lba::RUN_MODES.iter()).filter(|m| m.topology == TopologyKind::Sharded);
    for mode in sharded.map(|m| m.mode) {
        // The lifeguards whose registry row declares address-interleaved
        // sharding sound; TaintCheck's register state is a sequential
        // dependence chain through every instruction.
        for monitor in monitors(|m| m.shardable) {
            for shards in SHARD_COUNTS {
                let cfg = cfg.clone();
                cells.push(Cell::new(mode.name(), monitor.name, shards, 0, move || {
                    let report = run_mode(program, mode, monitor, shards, &cfg);
                    let retired = report.trace.instructions();
                    Sample {
                        records: retired,
                        wire_bits: report.log.wire_bits,
                        events: retired,
                        modeled_cycles: report.total_cycles,
                        sampled_out_fraction: 0.0,
                    }
                }));
            }
        }
    }
    cells
}

/// Captures gzip's record stream once (for the consumption-path cells).
fn capture_stream() -> Vec<EventRecord> {
    let program = Benchmark::Gzip.build();
    let cfg = SystemConfig::default();
    let mut machine = Machine::new(&program, cfg.machine);
    let mut mem = MemSystem::new(cfg.mem_single());
    let mut records = Vec::new();
    machine
        .run(&mut mem, |r| records.push(r.record))
        .expect("gzip runs clean");
    records
}

/// Fills a modeled channel with the whole stream.
fn fill_channel(records: &[EventRecord]) -> ModeledFrameChannel {
    let fc = SystemConfig::default().log.frame_config();
    let mut ch = ModeledFrameChannel::new(1 << 26, fc, false);
    for (i, rec) in records.iter().enumerate() {
        ch.push_record(rec, i as u64);
    }
    ch.flush(records.len() as u64);
    ch
}

/// Pushes the stream and consumes it frame-at-a-time (`pop_frame` +
/// `deliver_batch`); returns the lifeguard cycles charged.
fn consume_frames(records: &[EventRecord]) -> u64 {
    let mut ch = fill_channel(records);
    let engine = DispatchEngine::default();
    let mut mem = MemSystem::new(MemSystemConfig::dual_core());
    let mut lg = AddrCheck::new();
    let mut findings = Vec::new();
    let mut cycles = 0;
    while let Some(frame) = ch.pop_frame() {
        cycles += engine.deliver_batch(&mut lg, frame.records, &mut mem, 1, &mut findings);
    }
    cycles
}

/// The isolated consumption-path cell: a pre-captured stream through the
/// channel fill and the frame-granular consume loop, with no machine
/// stepping or capture in the timing.
fn consume_cell(stream: &[EventRecord]) -> Cell<'_> {
    let n = stream.len() as u64;
    let wire_bits = fill_channel(stream).stats().wire_bits;
    Cell::new("consume", "addrcheck", 1, 0, move || {
        std::hint::black_box(consume_frames(stream));
        Sample {
            records: n,
            wire_bits,
            events: n,
            ..Sample::default()
        }
    })
}

/// The filtered ratio: a windowed row's events/sec over the unfiltered
/// (window 0) row of the same mode and lifeguard. The fraction
/// of the log the window removed is deterministic; this rate ratio is
/// the wall-clock echo of it.
#[must_use]
pub fn dedup_speedup(rows: &[PipelineRow], mode: &str, lifeguard: &str) -> Option<f64> {
    let find = |window0: bool| {
        rows.iter().find(|r| {
            r.mode == mode
                && r.lifeguard == lifeguard
                && (r.window == 0) == window0
                && r.records > 0
        })
    };
    let filtered = find(false)?;
    let baseline = find(true)?;
    Some(filtered.events_per_sec / baseline.events_per_sec)
}

/// The sharded ratio: a live-parallel row's events/sec over the one-shard
/// row of the same lifeguard, if both are present. On genuinely parallel
/// hardware this is the scaling curve; on a 1-vCPU box it hovers near (or
/// below) 1.0 because the threads cannot overlap.
#[must_use]
pub fn shard_speedup(rows: &[PipelineRow], lifeguard: &str, shards: usize) -> Option<f64> {
    let find = |shards: usize| {
        rows.iter()
            .find(|r| r.mode == "live-parallel" && r.lifeguard == lifeguard && r.shards == shards)
    };
    let sharded = find(shards)?;
    let single = find(1)?;
    Some(sharded.events_per_sec / single.events_per_sec)
}

/// The socket tax: a remote row's events/sec over the live-parallel row
/// at the same lifeguard and worker count. Both modes move the identical
/// sealed stream through the identical sharded lifeguards; the ratio
/// isolates what the Unix-domain-socket hop (syscalls, copies, credit
/// round-trips) costs against the in-process channel.
#[must_use]
pub fn socket_overhead(rows: &[PipelineRow], lifeguard: &str, shards: usize) -> Option<f64> {
    let find = |mode: &str| {
        rows.iter()
            .find(|r| r.mode == mode && r.lifeguard == lifeguard && r.shards == shards)
    };
    let remote = find("remote")?;
    let in_process = find("live-parallel")?;
    Some(remote.events_per_sec / in_process.events_per_sec)
}

/// Renders the pipeline-throughput table.
#[must_use]
pub fn render_pipeline(rows: &[PipelineRow]) -> String {
    use lba::table::TextTable;
    let mut t = TextTable::new([
        "mode",
        "lifeguard",
        "benchmark",
        "shards",
        "window",
        "records",
        "Mevents/s",
        "quartiles",
        "speedup",
    ]);
    for row in rows {
        let speedup = if row.window > 0 {
            dedup_speedup(rows, row.mode, row.lifeguard)
                .map_or(String::new(), |s| format!("{s:.2}x vs unfiltered"))
        } else if row.mode == "live-parallel" && row.shards > 1 {
            shard_speedup(rows, row.lifeguard, row.shards)
                .map_or(String::new(), |s| format!("{s:.2}x vs 1 shard"))
        } else if row.mode == "remote" {
            socket_overhead(rows, row.lifeguard, row.shards)
                .map_or(String::new(), |s| format!("{s:.2}x vs in-process"))
        } else if let Some(base) = row.mode.strip_suffix("-degraded") {
            degraded_speedup(rows, base, row.lifeguard)
                .map_or(String::new(), |s| format!("{s:.2}x vs uncontrolled"))
        } else {
            String::new()
        };
        t.row([
            row.mode.to_string(),
            row.lifeguard.to_string(),
            row.benchmark.to_string(),
            row.shards.to_string(),
            row.window.to_string(),
            row.records.to_string(),
            format!("{:.2}", row.events_per_sec / 1e6),
            format!(
                "{:.2}-{:.2}",
                row.events_per_sec_q1 / 1e6,
                row.events_per_sec_q3 / 1e6
            ),
            speedup,
        ]);
    }
    let samples = rows.first().map_or(0, |row| row.samples);
    format!("Pipeline host throughput (wall clock, median of {samples} interleaved rounds)\n{t}")
}

/// Serializes the rows as the `BENCH_pipeline.json` trajectory document.
/// The header records the host the rates were measured on: its logical
/// CPU count, the build profile, and the samples behind each rate.
/// Hand-rolled JSON: the environment is air-gapped, so no serde.
#[must_use]
pub fn pipeline_json(rows: &[PipelineRow]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let samples = rows.first().map_or(0, |row| row.samples);
    let mut out = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"unit\": \"events_per_sec\",\n  \
         \"statistic\": \"median and quartiles over interleaved rounds\",\n  \
         \"nproc\": {nproc},\n  \"profile\": \"{profile}\",\n  \"samples\": {samples},\n  \
         \"results\": [\n"
    );
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"lifeguard\": \"{}\", \"benchmark\": \"{}\", \"shards\": {}, \"window\": {}, \"records\": {}, \"wire_bits\": {}, \"modeled_cycles\": {}, \"sampled_out_fraction\": {:.6}, \"wall_seconds\": {:.6}, \"events_per_sec\": {:.0}, \"events_per_sec_q1\": {:.0}, \"events_per_sec_q3\": {:.0}}}{sep}\n",
            row.mode, row.lifeguard, row.benchmark, row.shards, row.window, row.records, row.wire_bits, row.modeled_cycles, row.sampled_out_fraction, row.wall_seconds, row.events_per_sec, row.events_per_sec_q1, row.events_per_sec_q3,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One value out of a serialized row line, e.g. `row_field(line,
/// "records")`. The trajectory file is hand-rolled JSON with one row per
/// line (the environment is air-gapped, so no serde), which keeps this
/// honest-but-simple extraction sound.
fn row_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn row_u64(line: &str, key: &str) -> Result<u64, String> {
    row_field(line, key)
        .ok_or_else(|| format!("row missing {key}: {line}"))?
        .parse()
        .map_err(|e| format!("bad {key} in {line}: {e}"))
}

fn row_f64(line: &str, key: &str) -> Result<f64, String> {
    row_field(line, key)
        .ok_or_else(|| format!("row missing {key}: {line}"))?
        .parse()
        .map_err(|e| format!("bad {key} in {line}: {e}"))
}

/// The result-row lines of a trajectory document.
fn row_lines(json: &str) -> impl Iterator<Item = &str> {
    json.lines().filter(|l| l.contains("\"mode\""))
}

/// A value of the document header, e.g. `header_field(json, "nproc")`.
fn header_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    json.lines()
        .filter(|l| !l.contains("\"mode\""))
        .find_map(|l| row_field(l, key))
}

/// The samples behind each rate of a trajectory document, from its
/// header: the rounds it was measured in.
///
/// # Errors
///
/// A missing or malformed `samples` header.
pub fn trajectory_samples(json: &str) -> Result<usize, String> {
    header_field(json, "samples")
        .ok_or("missing header samples")?
        .parse()
        .map_err(|e| format!("bad samples header: {e}"))
}

/// A row's identity: everything but the measurements.
fn row_key(line: &str) -> Result<String, String> {
    let mut key = String::new();
    for field in ["mode", "lifeguard", "benchmark", "shards", "window"] {
        let value = row_field(line, field).ok_or_else(|| format!("row missing {field}: {line}"))?;
        key.push_str(value);
        key.push('/');
    }
    Ok(key)
}

/// The identity of every result row — everything but the measurements.
/// Two trajectory documents with equal key sets have the same *schema*
/// (same series, same cells); only the numbers moved.
///
/// # Errors
///
/// Returns a description of the first malformed row.
pub fn trajectory_keys(json: &str) -> Result<std::collections::BTreeSet<String>, String> {
    let mut keys = std::collections::BTreeSet::new();
    for line in row_lines(json) {
        let key = row_key(line)?;
        if !keys.insert(key.clone()) {
            return Err(format!("duplicate row {key}"));
        }
    }
    Ok(keys)
}

/// Checks that every row of `emitted` carries the same deterministic
/// columns (`records`, `wire_bits`, `modeled_cycles`) as its `committed`
/// twin. These columns do not depend on the host, so a difference is a
/// behaviour change, and making one means regenerating the trajectory.
/// The `live-faulted` and `live-degraded` rows are exempt: the live
/// controller engages when the real queue fills, so their columns depend
/// on thread timing. Rows without a committed twin are left to the
/// key-set comparison.
///
/// # Errors
///
/// Names every row whose columns moved, or the first malformed row.
pub fn check_deterministic_columns(committed: &str, emitted: &str) -> Result<(), String> {
    let mut twins = std::collections::BTreeMap::new();
    for line in row_lines(committed) {
        twins.insert(row_key(line)?, line);
    }
    let mut moved = String::new();
    for line in row_lines(emitted) {
        if matches!(
            row_field(line, "mode"),
            Some("live-faulted" | "live-degraded")
        ) {
            continue;
        }
        let key = row_key(line)?;
        let Some(twin) = twins.get(&key) else {
            continue;
        };
        for column in ["records", "wire_bits", "modeled_cycles"] {
            let (was, now) = (row_u64(twin, column)?, row_u64(line, column)?);
            if was != now {
                moved.push_str(&format!("\n  {key}: {column} {was} -> {now}"));
            }
        }
    }
    if moved.is_empty() {
        Ok(())
    } else {
        Err(format!("deterministic columns moved:{moved}"))
    }
}

/// The series of the registry's sharded modes (`TopologyKind::Sharded`
/// rows, each named by its mode): the modeled `lba-parallel`, the
/// in-process `live-parallel` and `remote` over Unix-domain sockets,
/// which all ship the same per-shard streams.
fn sharded_series() -> impl Iterator<Item = &'static str> {
    (lba::RUN_MODES.iter())
        .filter(|m| m.topology == TopologyKind::Sharded)
        .map(|m| m.name)
}

/// Every series the trajectory holds: the consumption-only `consume`
/// series, one series per `lba::RUN_MODES` row, named by its mode, and
/// the [`DEGRADED_SERIES`].
fn trajectory_series() -> Vec<&'static str> {
    std::iter::once("consume")
        .chain(lba::RUN_MODES.iter().map(|m| m.name))
        .chain(DEGRADED_SERIES.into_iter().flat_map(|(_, series)| series))
        .collect()
}

/// Validates a `BENCH_pipeline.json` document's shape: every series the
/// trajectory promises must be present, every row must carry the full
/// key set, and the deterministic claims — the filtered series ships
/// fewer records and wire bits than its unfiltered counterpart,
/// TaintCheck stays out of the sharded and filtered series — must hold.
/// Shared by the `tests/figures_smoke.rs` assertion on the committed
/// file and the `figures --bench-smoke` CI gate on a freshly emitted
/// one, so the two cannot drift.
///
/// # Errors
///
/// Returns a description of the first violated expectation.
pub fn validate_trajectory(json: &str) -> Result<(), String> {
    for header in ["\"bench\": \"pipeline\"", "\"unit\": \"events_per_sec\""] {
        if !json.contains(header) {
            return Err(format!("missing header {header}"));
        }
    }
    for header in ["nproc", "profile"] {
        header_field(json, header).ok_or_else(|| format!("missing header {header}"))?;
    }
    if trajectory_samples(json)? == 0 {
        return Err("no samples behind the rates".into());
    }

    let rows = json.matches("\"mode\"").count();
    if rows == 0 {
        return Err("no result rows at all".into());
    }
    // (`:` included so the header's `"unit": "events_per_sec"` value
    // doesn't count as a key.)
    for key in [
        "\"shards\":",
        "\"window\":",
        "\"records\":",
        "\"wire_bits\":",
        "\"modeled_cycles\":",
        "\"sampled_out_fraction\":",
        "\"events_per_sec\":",
        "\"events_per_sec_q1\":",
        "\"events_per_sec_q3\":",
    ] {
        let count = json.matches(key).count();
        if count != rows {
            return Err(format!("{count} of {rows} rows carry {key}"));
        }
    }
    for line in row_lines(json) {
        let q1 = row_f64(line, "events_per_sec_q1")?;
        let median = row_f64(line, "events_per_sec")?;
        let q3 = row_f64(line, "events_per_sec_q3")?;
        if !(q1 <= median && median <= q3) {
            return Err(format!("median outside its quartiles: {line}"));
        }
    }

    // The series: the consumption-only pair, one series per registry run
    // mode and the degraded series — derived from `lba::RUN_MODES`'s
    // names, so the committed trajectory and the registry cannot drift
    // apart (a mode added to or dropped from the registry fails this
    // check until the trajectory is regenerated).
    let series = trajectory_series();
    for mode in &series {
        if !json.contains(&format!("\"mode\": \"{mode}\"")) {
            return Err(format!("missing series {mode}"));
        }
    }
    // …and nothing the registry doesn't know about lingers.
    for line in row_lines(json) {
        let mode = row_field(line, "mode").ok_or_else(|| format!("row missing mode: {line}"))?;
        if !series.contains(&mode) {
            return Err(format!("stale series {mode}: no run mode owns it"));
        }
    }
    // Single-lifeguard modes cover every registered lifeguard…
    for monitor in &lba::MONITORS {
        if !json.contains(&format!(
            "\"mode\": \"lba\", \"lifeguard\": \"{}\"",
            monitor.name
        )) {
            return Err(format!("missing lba/{}", monitor.name));
        }
    }
    // …each sharded series covers every registry-declared shardable
    // lifeguard at every shard count, and nothing else (address
    // interleaving is unsound for the rest — TaintCheck's register state
    // is a sequential dependence chain). Its wire bits must be
    // *byte-identical* to the matching live-parallel row: the modeled and
    // live producers route the same capture pass into the same per-shard
    // streams, and the socket hop is a transport, not a re-encode, so the
    // exact same sealed frames cross it. The modeled rows carry their
    // cycles…
    for mode in sharded_series() {
        for monitor in &lba::MONITORS {
            if !monitor.shardable {
                if json.contains(&format!(
                    "\"mode\": \"{mode}\", \"lifeguard\": \"{}\"",
                    monitor.name
                )) {
                    return Err(format!(
                        "{} must stay out of the {mode} series",
                        monitor.name
                    ));
                }
                continue;
            }
            for shards in SHARD_COUNTS {
                let find = |mode: &str| {
                    let tag = format!(
                        "\"mode\": \"{mode}\", \"lifeguard\": \"{}\", \
                         \"benchmark\": \"gzip\", \"shards\": {shards}",
                        monitor.name
                    );
                    json.lines().find(|l| l.contains(&tag)).ok_or_else(|| {
                        format!("missing {mode}/{} at {shards} shards", monitor.name)
                    })
                };
                let row = find(mode)?;
                let wire = row_u64(row, "wire_bits")?;
                let twin = row_u64(find("live-parallel")?, "wire_bits")?;
                if wire != twin {
                    return Err(format!(
                        "{mode}/{} at {shards} shards shipped {wire} wire bits, but \
                         live-parallel shipped {twin}: the sharded modes must carry \
                         identical per-shard streams",
                        monitor.name
                    ));
                }
                if mode == "lba-parallel" && row_u64(row, "modeled_cycles")? == 0 {
                    return Err(format!(
                        "lba-parallel/{} at {shards} shards carries no modeled cycles",
                        monitor.name
                    ));
                }
            }
        }
    }

    // …and the filtered-vs-unfiltered series covers every lifeguard whose
    // soundness contract participates in capture-side dedup, through both
    // single-lifeguard modes, demonstrably shrinking the shipped log.
    let find_row = |mode: &str, lifeguard: &str, window: usize| -> Result<&str, String> {
        let tag = format!(
            "\"mode\": \"{mode}\", \"lifeguard\": \"{lifeguard}\", \"benchmark\": \"gzip\", \
             \"shards\": 1, \"window\": {window},"
        );
        json.lines()
            .find(|l| l.contains(&tag))
            .ok_or_else(|| format!("missing {mode}/{lifeguard} row at window {window}"))
    };
    for mode in ["lba", "live"] {
        for lifeguard in monitors(dedupes).map(|m| m.name) {
            let filtered = find_row(mode, lifeguard, IDEMPOTENT_WINDOW)?;
            let unfiltered = find_row(mode, lifeguard, 0)?;
            let what = format!("{mode}/{lifeguard}");
            if row_u64(filtered, "records")? >= row_u64(unfiltered, "records")? {
                return Err(format!("{what}: filtering must ship fewer records"));
            }
            // Fewer records must also mean fewer bits, for *every*
            // contract. This pins the compressor's dedup-awareness: the
            // holes suppression punches in the record stream make the
            // admitted successor of a PC alternate among a small recent
            // set, and the MRU successor stack keeps each alternation a
            // couple of bits instead of a varint escape. A regression
            // here means a heavily-deduped stream (LockSet's
            // exact-address window) ships more wire than the unfiltered
            // run again.
            if row_u64(filtered, "wire_bits")? >= row_u64(unfiltered, "wire_bits")? {
                return Err(format!("{what}: filtering must ship fewer wire bits"));
            }
        }
    }
    for name in monitors(|m| !dedupes(m)).map(|m| m.name) {
        let windowed = json
            .lines()
            .filter(|l| l.contains(&format!("\"lifeguard\": \"{name}\"")))
            .any(|l| row_field(l, "window") != Some("0"));
        if windowed {
            return Err(format!(
                "{name} declares IdempotencyClass::None; it has no filtered row"
            ));
        }
    }

    // …and the adaptive-degradation series covers every lifeguard whose
    // degradation contract tolerates anything, through both
    // single-lifeguard modes. The claim being gated: under the identical
    // injected fault profile, the controller-on row relieves the choked
    // channel instead of merely recording that it was choked. Three
    // deterministic legs, one per axis the relief shows on:
    //
    // * every degraded row ships strictly fewer wire bits than its
    //   uncontrolled counterpart — true even for LockSet's widen-only
    //   contract, whose whole relief is the widened dedup window;
    // * the cosim pair is judged on *modeled* cycles — the slow drain
    //   there is modeled, so its cost is invisible to the host wall
    //   clock, while the modeled producer stalls it causes are exactly
    //   what shipping fewer bits relieves;
    // * the live pairs whose contracts sample are judged on host
    //   events/sec — the drag there burns real consumer time per frame,
    //   so thinning the stream must buy real throughput.
    let degraded_row = |mode: &str, suffix: &str, lifeguard: &str| -> Result<&str, String> {
        let tag = format!("\"mode\": \"{mode}-{suffix}\", \"lifeguard\": \"{lifeguard}\"");
        json.lines()
            .find(|l| l.contains(&tag))
            .ok_or_else(|| format!("missing {mode}-{suffix}/{lifeguard} row"))
    };
    for mode in ["lba", "live"] {
        for monitor in monitors(degrades) {
            let lifeguard = monitor.name;
            let degraded = degraded_row(mode, "degraded", lifeguard)?;
            let faulted = degraded_row(mode, "faulted", lifeguard)?;
            let what = format!("{mode}/{lifeguard}");
            if row_u64(degraded, "wire_bits")? >= row_u64(faulted, "wire_bits")? {
                return Err(format!("{what}: degradation must relieve the wire"));
            }
            if row_f64(faulted, "sampled_out_fraction")? != 0.0 {
                return Err(format!("{what}: no controller, nothing sampled out"));
            }
            let fraction = row_f64(degraded, "sampled_out_fraction")?;
            // A contract that declares no sampling (LockSet: a
            // sampled-out access could be a fresh word's first touch)
            // must show none; the rest must actually thin the stream.
            if (monitor.make)()
                .degradation()
                .and_then(|policy| policy.make_classifier)
                .is_none()
            {
                if fraction != 0.0 {
                    return Err(format!("{what}: {lifeguard} declares no sampling"));
                }
            } else if fraction <= 0.0 {
                return Err(format!("{what}: sampling must bite, got {fraction}"));
            }
            if mode == "lba" {
                let controlled = row_u64(degraded, "modeled_cycles")?;
                let uncontrolled = row_u64(faulted, "modeled_cycles")?;
                if controlled == 0 || uncontrolled == 0 {
                    return Err(format!("{what}: cosim rows must carry modeled cycles"));
                }
                if controlled > uncontrolled {
                    return Err(format!(
                        "{what}: degraded capture must not cost modeled cycles under the \
                         same injected load, got {controlled} vs {uncontrolled}"
                    ));
                }
            } else if fraction > 0.0 {
                let controlled = row_f64(degraded, "events_per_sec")?;
                let uncontrolled = row_f64(faulted, "events_per_sec")?;
                if controlled < uncontrolled {
                    return Err(format!(
                        "{what}: degraded capture must beat the uncontrolled run under \
                         the same injected load, got {controlled:.0} vs {uncontrolled:.0} \
                         events/sec"
                    ));
                }
            }
        }
    }
    for name in monitors(|m| !degrades(m)).map(|m| m.name) {
        for suffix in ["degraded", "faulted"] {
            if json.contains(&format!("-{suffix}\", \"lifeguard\": \"{name}\"")) {
                return Err(format!(
                    "{name} declares no DegradationPolicy; it has no degraded row"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(mode: &'static str, shards: usize, events_per_sec: f64) -> PipelineRow {
        PipelineRow {
            mode,
            lifeguard: "addrcheck",
            benchmark: "gzip",
            shards,
            window: 0,
            records: 10,
            wire_bits: 800,
            wall_seconds: 10.0 / events_per_sec,
            events_per_sec,
            events_per_sec_q1: events_per_sec * 0.9,
            events_per_sec_q3: events_per_sec * 1.1,
            samples: 5,
            modeled_cycles: 0,
            sampled_out_fraction: 0.0,
        }
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let mut rows = vec![row("lba", 1, 20.0), row("live", 1, 10.0)];
        rows[0].modeled_cycles = 1500;
        let json = pipeline_json(&rows);
        assert!(json.contains("\"modeled_cycles\": 1500"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"mode\"").count(), 2, "one per row");
        assert_eq!(
            json.matches("\"shards\"").count(),
            2,
            "every row carries its shard count"
        );
        assert!(!json.contains(",\n  ]"), "no trailing comma");
        let table = render_pipeline(&rows);
        assert!(
            table.contains("lba") && table.contains("live"),
            "got:\n{table}"
        );
    }

    #[test]
    fn shard_speedup_compares_against_one_shard() {
        let rows = vec![
            row("live-parallel", 1, 10.0),
            row("live-parallel", 2, 15.0),
            row("live-parallel", 4, 30.0),
        ];
        assert_eq!(shard_speedup(&rows, "addrcheck", 4), Some(3.0));
        assert_eq!(shard_speedup(&rows, "lockset", 4), None);
        let table = render_pipeline(&rows);
        assert!(table.contains("3.00x vs 1 shard"));
    }

    #[test]
    fn socket_overhead_compares_against_the_in_process_twin() {
        let rows = vec![row("live-parallel", 2, 20.0), row("remote", 2, 15.0)];
        assert_eq!(socket_overhead(&rows, "addrcheck", 2), Some(0.75));
        assert_eq!(
            socket_overhead(&rows, "addrcheck", 4),
            None,
            "unmeasured count"
        );
        let table = render_pipeline(&rows);
        assert!(table.contains("0.75x vs in-process"), "got:\n{table}");
    }

    #[test]
    fn dedup_speedup_compares_against_the_unfiltered_cell() {
        let mut filtered = row("lba", 1, 30.0);
        filtered.window = IDEMPOTENT_WINDOW;
        filtered.records = 4;
        let rows = vec![row("lba", 1, 10.0), filtered];
        assert_eq!(dedup_speedup(&rows, "lba", "addrcheck"), Some(3.0));
        assert_eq!(dedup_speedup(&rows, "live", "addrcheck"), None);
        let table = render_pipeline(&rows);
        assert!(table.contains("3.00x vs unfiltered"));
    }

    #[test]
    fn row_field_extracts_values() {
        let line = "    {\"mode\": \"lba\", \"lifeguard\": \"addrcheck\", \"window\": 4096, \
                    \"records\": 12, \"events_per_sec\": 17}";
        assert_eq!(row_field(line, "mode"), Some("lba"));
        assert_eq!(row_field(line, "window"), Some("4096"));
        assert_eq!(row_field(line, "events_per_sec"), Some("17"));
        assert_eq!(row_field(line, "absent"), None);
        assert_eq!(row_u64(line, "records"), Ok(12));
    }

    #[test]
    fn trajectory_keys_identify_rows() {
        let mut filtered = row("lba", 1, 30.0);
        filtered.window = IDEMPOTENT_WINDOW;
        let rows = vec![row("lba", 1, 10.0), filtered];
        let keys = trajectory_keys(&pipeline_json(&rows)).expect("well-formed");
        assert_eq!(keys.len(), 2, "window distinguishes the rows");
        // Same schema, different numbers: keys are equal.
        let faster: Vec<PipelineRow> = rows
            .iter()
            .cloned()
            .map(|mut r| {
                r.events_per_sec *= 2.0;
                r
            })
            .collect();
        assert_eq!(keys, trajectory_keys(&pipeline_json(&faster)).unwrap());
        // A dropped series changes the key set.
        assert_ne!(keys, trajectory_keys(&pipeline_json(&rows[..1])).unwrap());
    }

    #[test]
    fn validate_trajectory_rejects_malformed_documents() {
        assert!(validate_trajectory("{}").is_err(), "no headers");
        let rows = vec![row("lba", 1, 10.0)];
        let err = validate_trajectory(&pipeline_json(&rows)).unwrap_err();
        assert!(err.contains("missing series"), "got: {err}");
        let mut skewed = rows.clone();
        skewed[0].events_per_sec_q1 = 20.0;
        let err = validate_trajectory(&pipeline_json(&skewed)).unwrap_err();
        assert!(err.contains("median outside its quartiles"), "got: {err}");
    }

    #[test]
    fn the_header_records_the_host_and_the_sample_count() {
        let json = pipeline_json(&[row("lba", 1, 10.0)]);
        assert_eq!(trajectory_samples(&json), Ok(5));
        assert!(header_field(&json, "nproc").is_some_and(|n| n.parse::<usize>().is_ok()));
        let profile = header_field(&json, "profile");
        assert!(
            matches!(profile, Some("debug" | "release")),
            "got: {profile:?}"
        );
        assert!(trajectory_samples("{}").is_err());
    }

    #[test]
    fn a_cell_reports_the_median_rate_and_its_quartiles() {
        let cell = Cell::new("lba", "addrcheck", 1, 0, Sample::default);
        let sample = Sample {
            events: 100,
            ..Sample::default()
        };
        // Walls in any order: 1, 2, 4, 5 and 10 seconds.
        let row = cell.row(sample, &[10.0, 2.0, 5.0, 1.0, 4.0]);
        assert_eq!(row.samples, 5);
        assert_eq!(row.wall_seconds, 4.0);
        assert_eq!(row.events_per_sec, 25.0);
        assert_eq!(row.events_per_sec_q1, 20.0, "the 5 s sample");
        assert_eq!(row.events_per_sec_q3, 50.0, "the 2 s sample");
        // One sample is its own median and quartiles.
        let one = cell.row(sample, &[4.0]);
        assert_eq!(
            (
                one.events_per_sec_q1,
                one.events_per_sec,
                one.events_per_sec_q3
            ),
            (25.0, 25.0, 25.0)
        );
    }

    #[test]
    fn validate_trajectory_rejects_stale_series() {
        let mut rows: Vec<PipelineRow> = trajectory_series()
            .into_iter()
            .map(|mode| row(mode, 1, 10.0))
            .collect();
        // Every owned series is present: later checks fail, staleness not.
        let err = validate_trajectory(&pipeline_json(&rows)).unwrap_err();
        assert!(!err.contains("stale"), "got: {err}");
        rows.push(row("retired-series", 1, 10.0));
        let err = validate_trajectory(&pipeline_json(&rows)).unwrap_err();
        assert!(err.contains("stale series retired-series"), "got: {err}");
    }

    #[test]
    fn validate_trajectory_holds_the_sharded_series_to_their_live_twin() {
        // Every series and the sharded series in full: the sharded checks
        // pass, and a later check fails.
        let mut rows: Vec<PipelineRow> = (trajectory_series().into_iter())
            .filter(|mode| !sharded_series().any(|sharded| sharded == *mode))
            .map(|mode| row(mode, 1, 10.0))
            .collect();
        rows.extend(lba::MONITORS.iter().map(|m| PipelineRow {
            lifeguard: m.name,
            ..row("lba", 1, 10.0)
        }));
        for mode in sharded_series() {
            for lifeguard in monitors(|m| m.shardable).map(|m| m.name) {
                for shards in SHARD_COUNTS {
                    rows.push(PipelineRow {
                        lifeguard,
                        modeled_cycles: 1,
                        ..row(mode, shards, 10.0)
                    });
                }
            }
        }
        let check = |rows: &[PipelineRow]| validate_trajectory(&pipeline_json(rows)).unwrap_err();
        assert!(!check(&rows).contains("shards"), "got: {}", check(&rows));
        // A modeled row shipping other bits than its live twin fails, and
        // so does TaintCheck in a sharded series.
        let modeled = rows.iter().position(|r| r.mode == "lba-parallel").unwrap();
        rows[modeled].wire_bits += 1;
        let err = check(&rows);
        assert!(
            err.contains("lba-parallel/addrcheck at 1 shards shipped 801"),
            "{err}"
        );
        rows[modeled].wire_bits -= 1;
        rows.push(PipelineRow {
            lifeguard: "taintcheck",
            ..row("lba-parallel", 2, 10.0)
        });
        let err = check(&rows);
        assert!(
            err.contains("taintcheck must stay out of the lba-parallel"),
            "{err}"
        );
    }

    #[test]
    fn deterministic_columns_must_match_except_in_timing_dependent_rows() {
        let committed = vec![row("lba", 1, 10.0), row("live-degraded", 1, 10.0)];
        let committed_json = pipeline_json(&committed);
        let check = |rows: &[PipelineRow]| {
            check_deterministic_columns(&committed_json, &pipeline_json(rows))
        };
        // The timing columns move freely…
        let mut moved = committed.clone();
        moved[0].events_per_sec *= 2.0;
        assert_eq!(check(&moved), Ok(()));
        // …a one-bit wire difference in an `lba` row fails…
        moved[0].wire_bits += 1;
        let err = check(&moved).unwrap_err();
        assert!(
            err.contains("lba/addrcheck/gzip/1/0/: wire_bits 800 -> 801"),
            "got: {err}"
        );
        // …and the same difference in a `live-degraded` row passes.
        let mut moved = committed;
        moved[1].wire_bits += 1;
        assert_eq!(check(&moved), Ok(()));
    }
}
