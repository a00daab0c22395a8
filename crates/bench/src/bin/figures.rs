//! Regenerates every table and figure from the paper's evaluation, plus
//! the host-throughput trajectory (`BENCH_pipeline.json` at the repo root,
//! committed so every change shows where events/sec moved, and written
//! only when it passes the shape check the committed file is held to).
//! At scale 1, when every experiment ran, it also writes the tables it
//! prints above the throughput table to `BENCH_paper.txt` at the repo
//! root, committed as the reproduction's result.
//!
//! Usage: `cargo run --release -p lba-bench --bin figures [scale]`
//!
//! `scale` multiplies every benchmark's iteration counts (default 1).
//!
//! `figures --bench-smoke` is the CI gate: it renders the paper tables at
//! scale 1 and requires them byte for byte as committed in
//! `BENCH_paper.txt`, records a run through the flight recorder and
//! replays it (requiring byte-identical findings and wire accounting,
//! recording left at `target/flight-recording` for the artifact upload),
//! round-trips a sharded run over Unix-domain sockets
//! (`RunMode::Remote`, requiring findings and per-shard wire accounting
//! identical to the in-process `RunMode::LiveParallel`), measures the
//! pipeline matrix once, writes
//! `BENCH_pipeline.smoke.json` next to the committed trajectory
//! (uploaded as a workflow artifact), validates the emitted document
//! with the same `lba_bench::pipeline::validate_trajectory` shape check
//! `tests/figures_smoke.rs` runs on the committed file, and fails if the
//! emitted *schema* (the set of series/cells) diverges from the
//! committed one, or if any row's deterministic columns (`records`,
//! `wire_bits`, `modeled_cycles`) differ from its committed twin
//! (`lba_bench::pipeline::check_deterministic_columns`) — so a change cannot
//! silently drop a series or move what the pipeline ships without
//! regenerating the trajectory.

use lba::experiment;
use lba::{RecordConfig, ReplayMode, Run, RunMode, RunReport, SystemConfig, ADDRCHECK, MONITORS};
use lba_bench as render;
use lba_bench::pipeline;
use lba_workloads::{bugs, Benchmark};

/// The committed trajectory and its CI smoke sibling, anchored to the
/// workspace root regardless of the invocation directory.
const TRAJECTORY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
const SMOKE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_pipeline.smoke.json"
);
/// The committed paper tables: what `figures` prints at scale 1 above the
/// host-throughput table.
const PAPER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.txt");
/// Where `--bench-smoke` leaves its replay-verified flight recording —
/// uploaded as a CI artifact so every run ships an actual `lbas/1` stream.
const RECORDING: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/flight-recording");

/// Renders every paper table and figure at `scale`, in print order: the
/// text `figures` prints above the host-throughput table. An experiment
/// that fails is reported on stderr and left out; the flag says whether
/// every one ran.
fn paper_tables(scale: u32) -> (String, bool) {
    let config = SystemConfig::default();
    let mut text =
        format!("== LBA reproduction: all paper tables and figures (scale {scale}) ==\n\n");
    let mut complete = true;
    let mut run = |what: &str, body: &mut dyn FnMut() -> Result<String, lba::LbaError>| match body()
    {
        Ok(table) => text.push_str(&(table + "\n")),
        Err(e) => {
            complete = false;
            eprintln!("{what} failed: {e}");
        }
    };

    let mut summaries = Vec::new();
    for monitor in MONITORS.iter().filter(|m| m.figure2.is_some()) {
        run(monitor.name, &mut || {
            let rows = experiment::figure2(monitor, &config, scale)?;
            summaries.extend(experiment::summarize(monitor, &rows));
            Ok(render::render_fig2(monitor, &rows))
        });
    }
    run("summary", &mut || Ok(render::render_summary(&summaries)));

    run("workloads", &mut || {
        Ok(render::render_workloads(&experiment::workload_table(
            &config, scale,
        )?))
    });
    run("compression", &mut || {
        Ok(render::render_compression(&experiment::compression_table(
            &config, scale,
        )?))
    });
    run("ablation A", &mut || {
        Ok(render::render_decoupling(&experiment::ablation_decoupling(
            &config, scale,
        )?))
    });
    run("ablation B", &mut || {
        Ok(render::render_buffer(&experiment::ablation_buffer(
            &config, scale,
        )?))
    });
    run("ablation C", &mut || {
        Ok(render::render_compression_ablation(
            &experiment::ablation_compression(&config, scale)?,
        ))
    });
    run("filtering", &mut || {
        Ok(render::render_filtering(&experiment::ext_filtering(
            &config, scale,
        )?))
    });
    run("parallel", &mut || {
        Ok(render::render_parallel(&experiment::ext_parallel(
            &config, scale,
        )?))
    });
    (text, complete)
}

/// The `--bench-smoke` paper gate: the tables rendered at scale 1 must
/// equal the committed [`PAPER`] byte for byte.
fn paper_smoke() -> Result<(), String> {
    let (tables, complete) = paper_tables(1);
    if !complete {
        return Err("an experiment failed".into());
    }
    let committed = std::fs::read_to_string(PAPER).map_err(|e| format!("{PAPER}: {e}"))?;
    let (mut rendered, mut kept) = (
        tables.split_inclusive('\n'),
        committed.split_inclusive('\n'),
    );
    for line in 1.. {
        match (rendered.next(), kept.next()) {
            (None, None) => break,
            (now, then) if now == then => {}
            (now, then) => {
                return Err(format!(
                    "line {line} differs from {PAPER}: rendered {:?}, committed {:?}; \
                     regenerate it with `cargo run --release -p lba-bench --bin figures`",
                    now.unwrap_or("<end>"),
                    then.unwrap_or("<end>"),
                ))
            }
        }
    }
    println!("paper tables match {PAPER} byte for byte");
    Ok(())
}

/// The `--bench-smoke` flight-recorder gate: record a run, replay the
/// recording, and require findings and wire-bit accounting byte-identical
/// to the live run. The recording is left at [`RECORDING`] for the CI
/// artifact upload.
fn record_replay_smoke() -> Result<(), String> {
    let dir = std::path::Path::new(RECORDING);
    std::fs::remove_dir_all(dir).ok();
    let program = bugs::data_race();
    let mut config = SystemConfig::default();
    config.log.record_to = Some(RecordConfig::new(dir));
    let recorded = Run::new(&program)
        .monitor(&ADDRCHECK)
        .config(&config)
        .run()
        .map_err(|e| format!("recording run: {e}"))?;

    let outcome = Run::new(&program)
        .mode(RunMode::Replay)
        .monitor(&ADDRCHECK)
        .config(&config)
        .replay_from(dir)
        .run()
        .map_err(|e| format!("replay: {e}"))?;
    if outcome.findings != recorded.findings {
        return Err("replayed findings diverge from the recorded run".into());
    }
    if outcome.log.wire_bits != recorded.log.wire_bits
        || outcome.log.records != recorded.log.records
    {
        return Err(format!(
            "replay accounting diverges: {} wire bits / {} records vs recorded {} / {}",
            outcome.log.wire_bits,
            outcome.log.records,
            recorded.log.wire_bits,
            recorded.log.records,
        ));
    }
    println!(
        "flight recording at {RECORDING} replays byte-identical \
         ({} wire bits, {} findings)",
        recorded.log.wire_bits,
        outcome.findings.len()
    );
    Ok(())
}

/// Frames that sealed degraded, over all of a run's streams.
fn degraded_frames(report: &RunReport) -> u64 {
    report.shard_log.iter().map(|s| s.degraded_frames).sum()
}

/// The `--bench-smoke` fault-injection gate: under the same injected
/// slow-drain the degraded trajectory rows are measured with, the
/// adaptive controller must engage, the degraded findings must equal the
/// undegraded run's byte for byte, a recording made while degraded must
/// carry its spans into replay (the same count of degraded frames the
/// recording run sealed), and a torn recording tail must salvage under
/// `ReplayMode::SalvagePrefix` where strict replay refuses.
fn fault_injection_smoke() -> Result<(), String> {
    let program = Benchmark::Gzip.build();
    let clean_config = SystemConfig::default();
    let clean = Run::new(&program)
        .monitor(&ADDRCHECK)
        .config(&clean_config)
        .run()
        .map_err(|e| format!("clean run: {e}"))?;

    let dir = std::env::temp_dir().join(format!("lba-fault-smoke-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = pipeline::fault_config("lba", true);
    config.log.record_to = Some(RecordConfig::new(&dir));
    let degraded = Run::new(&program)
        .monitor(&ADDRCHECK)
        .config(&config)
        .run()
        .map_err(|e| format!("degraded run: {e}"))?;
    if degraded.degradation.is_empty() {
        return Err("injected slow drain failed to engage the controller".into());
    }
    if degraded.findings != clean.findings {
        return Err(format!(
            "degraded findings diverge from the undegraded run \
             ({} vs {} findings)",
            degraded.findings.len(),
            clean.findings.len()
        ));
    }

    let replay = Run::new(&program)
        .mode(RunMode::Replay)
        .monitor(&ADDRCHECK)
        .config(&config)
        .replay_from(&dir)
        .run()
        .map_err(|e| format!("replay: {e}"))?;
    if replay.findings != degraded.findings {
        return Err("replay of the degraded recording diverges from the degraded run".into());
    }
    let (sealed, replayed) = (degraded_frames(&degraded), degraded_frames(&replay));
    if replayed == 0 {
        return Err("degraded spans did not ride the flight-recorder stream".into());
    }
    if replayed != sealed {
        return Err(format!(
            "{replayed} degraded frame(s) replayed, but the recording run sealed {sealed}"
        ));
    }

    // Tear the newest segment's tail: strict replay must refuse, salvage
    // must deliver the checksummed prefix and report the loss.
    let mut segments: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .map(|entry| entry.expect("readable dir entry").path())
        .collect();
    segments.sort();
    let last = segments.last().ok_or("recording left no segments")?;
    let bytes = std::fs::read(last).map_err(|e| format!("{}: {e}", last.display()))?;
    std::fs::write(last, &bytes[..bytes.len() - 11]).map_err(|e| e.to_string())?;
    let strict = Run::new(&program)
        .mode(RunMode::Replay)
        .monitor(&ADDRCHECK)
        .config(&config)
        .replay_from(&dir);
    if strict.run().is_ok() {
        return Err("strict replay accepted a torn recording".into());
    }
    let salvage = Run::new(&program)
        .mode(RunMode::Replay)
        .monitor(&ADDRCHECK)
        .config(&config)
        .replay_from(&dir)
        .replay_mode(ReplayMode::SalvagePrefix)
        .run()
        .map_err(|e| format!("salvage replay: {e}"))?;
    let Some(tail) = salvage.salvaged.first() else {
        return Err("salvage replay of a torn recording reported no loss".into());
    };
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "fault-injection smoke: controller engaged ({} records removed), findings \
         identical, {replayed} degraded frame(s) replayed as sealed, torn tail salvaged \
         at frame {}",
        degraded.degradation.removed(),
        tail.frames_salvaged,
    );
    Ok(())
}

/// The `--bench-smoke` socket-transport gate: the same sharded program
/// through `RunMode::Remote` (every shard's sealed frames crossing a real
/// Unix-domain socket under the credit window) and `RunMode::LiveParallel`
/// (in-process channels) must produce identical merged findings and
/// identical per-shard wire accounting — the socket hop is a transport,
/// not a re-encode.
fn socket_transport_smoke() -> Result<(), String> {
    let program = Benchmark::Gzip.build();
    let config = SystemConfig::default();
    let workers = 2;
    let request = |mode| {
        Run::new(&program)
            .mode(mode)
            .monitor(&ADDRCHECK)
            .workers(workers)
            .config(&config)
    };
    let remote = request(RunMode::Remote)
        .run()
        .map_err(|e| format!("remote run: {e}"))?;
    let live = request(RunMode::LiveParallel)
        .run()
        .map_err(|e| format!("live-parallel run: {e}"))?;
    if remote.findings != live.findings {
        return Err("remote findings diverge from live-parallel".into());
    }
    if remote.shard_log.len() != live.shard_log.len() {
        return Err(format!(
            "remote ran {} shard streams, live-parallel {}",
            remote.shard_log.len(),
            live.shard_log.len()
        ));
    }
    for (shard, (r, l)) in remote.shard_log.iter().zip(&live.shard_log).enumerate() {
        if (r.records, r.frames, r.wire_bits, r.payload_bits)
            != (l.records, l.frames, l.wire_bits, l.payload_bits)
        {
            return Err(format!(
                "shard {shard} wire accounting diverges over the socket: \
                 {} records / {} frames / {} wire bits vs in-process \
                 {} / {} / {}",
                r.records, r.frames, r.wire_bits, l.records, l.frames, l.wire_bits,
            ));
        }
    }
    println!(
        "socket transport smoke: {workers} workers over Unix-domain sockets, \
         findings and per-shard wire accounting identical to in-process \
         ({} wire bits, {} findings)",
        remote.log.wire_bits,
        remote.findings.len()
    );
    Ok(())
}

/// The `--bench-smoke` mode; returns the process exit code.
fn bench_smoke() -> i32 {
    if let Err(e) = paper_smoke() {
        eprintln!("paper-tables smoke failed: {e}");
        return 1;
    }
    if let Err(e) = record_replay_smoke() {
        eprintln!("flight-recorder smoke failed: {e}");
        return 1;
    }
    if let Err(e) = fault_injection_smoke() {
        eprintln!("fault-injection smoke failed: {e}");
        return 1;
    }
    if let Err(e) = socket_transport_smoke() {
        eprintln!("socket-transport smoke failed: {e}");
        return 1;
    }
    let rows = pipeline::measure_pipeline(1);
    println!("{}", pipeline::render_pipeline(&rows));
    let json = pipeline::pipeline_json(&rows);
    if let Err(e) = std::fs::write(SMOKE, &json) {
        eprintln!("{SMOKE}: {e}");
        return 1;
    }
    println!("wrote {SMOKE}");
    if let Err(e) = pipeline::validate_trajectory(&json) {
        eprintln!("emitted trajectory is malformed: {e}");
        return 1;
    }
    let committed = match std::fs::read_to_string(TRAJECTORY) {
        Ok(committed) => committed,
        Err(e) => {
            eprintln!("{TRAJECTORY}: {e}");
            return 1;
        }
    };
    // The committed trajectory must itself satisfy the registry-derived
    // shape check: every series named by a `RUN_MODES` entry is present, and
    // nothing the registry doesn't know about lingers. A registry change
    // therefore fails CI until the trajectory is regenerated.
    if let Err(e) = pipeline::validate_trajectory(&committed) {
        eprintln!("committed trajectory diverges from the run-mode registry: {e}");
        return 1;
    }
    let emitted_keys = pipeline::trajectory_keys(&json).expect("validated above");
    match pipeline::trajectory_keys(&committed) {
        Err(e) => {
            eprintln!("committed trajectory is malformed: {e}");
            1
        }
        Ok(committed_keys) if committed_keys != emitted_keys => {
            for gone in committed_keys.difference(&emitted_keys) {
                eprintln!("series cell dropped vs committed trajectory: {gone}");
            }
            for new in emitted_keys.difference(&committed_keys) {
                eprintln!("series cell missing from committed trajectory: {new}");
            }
            eprintln!(
                "schema diverged: regenerate the trajectory with \
                 `cargo run --release -p lba-bench --bin figures` and commit it"
            );
            1
        }
        Ok(_) => match pipeline::check_deterministic_columns(&committed, &json) {
            Err(e) => {
                eprintln!(
                    "{e}\na behaviour change must regenerate the trajectory with \
                     `cargo run --release -p lba-bench --bin figures`"
                );
                1
            }
            Ok(()) => {
                println!("emitted schema and deterministic columns match the committed trajectory");
                0
            }
        },
    }
}

fn main() {
    let arg = std::env::args().nth(1);
    if arg.as_deref() == Some("--bench-smoke") {
        std::process::exit(bench_smoke());
    }
    let scale: u32 = match arg {
        None => 1,
        Some(arg) => match arg.parse() {
            Ok(scale) if scale > 0 => scale,
            _ => {
                eprintln!(
                    "usage: figures [scale | --bench-smoke]  (scale: positive integer, got {arg:?})"
                );
                std::process::exit(2);
            }
        },
    };
    let (tables, complete) = paper_tables(scale);
    print!("{tables}");
    let mut failed = !complete;

    // Host throughput (wall clock, not modeled cycles): the bench
    // trajectory every future PR regenerates and diffs.
    let rows = pipeline::measure_pipeline(pipeline::TRAJECTORY_ROUNDS);
    println!("{}", pipeline::render_pipeline(&rows));
    let json = pipeline::pipeline_json(&rows);
    // A trajectory that fails its own gates is reported, never written
    // over the committed one.
    if let Err(e) = pipeline::validate_trajectory(&json) {
        failed = true;
        eprintln!("emitted trajectory is malformed, {TRAJECTORY} left as it was: {e}");
    } else if let Err(e) = std::fs::write(TRAJECTORY, &json) {
        failed = true;
        eprintln!("{TRAJECTORY}: {e}");
    } else {
        println!("wrote {TRAJECTORY}");
    }
    // The paper tables are committed as a scale-1 run of every experiment.
    if scale == 1 && complete {
        match std::fs::write(PAPER, &tables) {
            Ok(()) => println!("wrote {PAPER}"),
            Err(e) => {
                failed = true;
                eprintln!("{PAPER}: {e}");
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
}
