//! Flight-recorder acceptance: a stream recorded from each of the four
//! run modes replays with findings and per-stream wire-bit totals
//! byte-identical to the original run; damaged recordings produce
//! descriptive errors, never panics; retention bounds disk.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use proptest::prelude::*;

use lba::{
    run_lba, run_live, run_live_parallel, run_replay, run_replay_with, FaultProfile, LbaError,
    RecordConfig, ReplayMode, SystemConfig, ADDRCHECK, LOCKSET, MONITORS, TAINTCHECK,
};
use lba_lifeguard::{HandlerCtx, Lifeguard};
use lba_record::{segment_file_name, EventMask, EventRecord, StreamConfig, StreamError};
use lba_workloads::{bugs, Benchmark};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lba-replay-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn recording_config(dir: &PathBuf) -> SystemConfig {
    let mut config = SystemConfig::default();
    config.log.record_to = Some(RecordConfig::new(dir));
    config
}

#[test]
fn cosim_recording_replays_byte_identical() {
    let program = bugs::memory_bugs();
    let dir = temp_dir("cosim");
    let config = recording_config(&dir);
    let monitor = ADDRCHECK;
    let mut lg = (monitor.make)();
    let original = run_lba(&program, lg.as_mut(), &config).unwrap();

    let replay = run_replay(&dir, monitor.make, &config).unwrap();
    assert_eq!(replay.findings, original.findings);
    assert_eq!(replay.shard_log.len(), 1, "cosim records one stream");
    assert_eq!(replay.log.wire_bits, original.log.wire_bits);
    assert_eq!(replay.log.records, original.log.records);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_recording_replays_byte_identical() {
    let program = bugs::exploit();
    let dir = temp_dir("live");
    let config = recording_config(&dir);
    let monitor = TAINTCHECK;
    let mut lg = (monitor.make)();
    let original = run_live(&program, lg.as_mut(), &config).unwrap();

    let replay = run_replay(&dir, monitor.make, &config).unwrap();
    assert_eq!(replay.findings, original.findings);
    assert_eq!(replay.shard_log.len(), 1, "live records one stream");
    assert_eq!(replay.log.wire_bits, original.log.wire_bits);
    assert_eq!(replay.log.records, original.log.records);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn modeled_parallel_recording_replays_byte_identical_per_shard() {
    let program = bugs::memory_bugs();
    let dir = temp_dir("parallel");
    let config = recording_config(&dir);
    let monitor = ADDRCHECK;
    let original = lba::parallel::run_lba_parallel(&program, monitor.make, 3, &config).unwrap();

    let replay = run_replay(&dir, monitor.make, &config).unwrap();
    assert_eq!(replay.findings, original.findings);
    assert_eq!(replay.shard_log.len(), 3, "one recorded stream per shard");
    for (i, (stream, shard)) in replay.shard_log.iter().zip(&original.shard_log).enumerate() {
        assert_eq!(stream.wire_bits, shard.wire_bits, "shard {i}");
        assert_eq!(stream.records, shard.records, "shard {i}");
        assert_eq!(stream.frames, shard.frames, "shard {i}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_parallel_recording_replays_byte_identical_per_shard() {
    let program = bugs::memory_bugs();
    let dir = temp_dir("live-parallel");
    let config = recording_config(&dir);
    let monitor = ADDRCHECK;
    let original = run_live_parallel(&program, monitor.make, 3, &config).unwrap();

    let replay = run_replay(&dir, monitor.make, &config).unwrap();
    assert_eq!(replay.findings, original.findings);
    assert_eq!(replay.shard_log.len(), 3, "one recorded stream per shard");
    for (i, (stream, shard)) in replay.shard_log.iter().zip(&original.shard_log).enumerate() {
        assert_eq!(stream.wire_bits, shard.wire_bits, "shard {i}");
        assert_eq!(stream.records, shard.records, "shard {i}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_replay_merges_findings_as_its_recording_run_did() {
    // One block freed three more times at one pc: AddrCheck reports the
    // double free each time. A one-shard sharded run merges the repeats,
    // and its one-stream recording must replay to exactly its findings.
    let program = bugs::repeated_double_free();
    let monitor = ADDRCHECK;
    for name in ["lba-parallel", "live-parallel"] {
        let dir = temp_dir(name);
        let config = recording_config(&dir);
        let original = if name == "lba-parallel" {
            lba::parallel::run_lba_parallel(&program, monitor.make, 1, &config)
        } else {
            run_live_parallel(&program, monitor.make, 1, &config)
        }
        .unwrap();
        let replay = run_replay(&dir, monitor.make, &SystemConfig::default()).unwrap();
        assert_eq!(replay.findings, original.findings, "{name}");
        assert_eq!(
            original.findings.len(),
            1,
            "{name}: {:?}",
            original.findings
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_recording_that_cannot_open_is_a_typed_stream_error() {
    // The recording directory would sit under a regular file, so it
    // cannot be created: the modeled and the live runner alike report the
    // stream layer's own error, naming the path, before anything runs.
    let file = temp_dir("not-a-dir");
    std::fs::write(&file, b"a regular file").unwrap();
    let config = recording_config(&file.join("recording"));
    let program = bugs::memory_bugs();
    let modeled = run_lba(&program, (ADDRCHECK.make)().as_mut(), &config).unwrap_err();
    let live = run_live(&program, (ADDRCHECK.make)().as_mut(), &config).unwrap_err();
    for err in [modeled, live] {
        assert!(
            matches!(&err, LbaError::Stream(StreamError::Io { path, .. }) if path.starts_with(&file)),
            "got: {err:?}"
        );
        assert!(
            err.to_string().contains(&*file.to_string_lossy()),
            "got: {err}"
        );
    }
    std::fs::remove_file(&file).ok();
}

/// A lifeguard that notes which thread consumed it.
struct ThreadNoting {
    inner: Box<dyn Lifeguard>,
    threads: Arc<Mutex<HashSet<ThreadId>>>,
}

impl Lifeguard for ThreadNoting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn subscriptions(&self) -> EventMask {
        self.inner.subscriptions()
    }

    fn on_event(&mut self, record: &EventRecord, ctx: &mut HandlerCtx<'_>) {
        self.inner.on_event(record, ctx);
    }

    fn on_finish(&mut self, ctx: &mut HandlerCtx<'_>) {
        self.threads.lock().unwrap().insert(thread::current().id());
        self.inner.on_finish(ctx);
    }
}

#[test]
fn a_sharded_recording_replays_n_wide() {
    // A replay is the live consumer reading a recording: each recorded
    // stream gets its own consumer thread, as each shard did live.
    let program = bugs::memory_bugs();
    let dir = temp_dir("n-wide");
    let config = recording_config(&dir);
    let monitor = ADDRCHECK;
    let original = run_live_parallel(&program, monitor.make, 3, &config).unwrap();

    let threads = Arc::new(Mutex::new(HashSet::new()));
    let make = || -> Box<dyn Lifeguard> {
        Box::new(ThreadNoting {
            inner: (monitor.make)(),
            threads: Arc::clone(&threads),
        })
    };
    let replay = run_replay(&dir, make, &config).unwrap();
    assert_eq!(threads.lock().unwrap().len(), 3, "one thread per stream");
    assert_eq!(replay.findings, original.findings);
    assert_eq!(replay.shard_log.len(), 3, "one recorded stream per shard");
    for (i, (stream, shard)) in replay.shard_log.iter().zip(&original.shard_log).enumerate() {
        assert_eq!(stream.records, shard.records, "shard {i}");
        assert_eq!(stream.wire_bits, shard.wire_bits, "shard {i}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_recording_missing_a_stream_is_refused() {
    // A run records streams 0..N, so a gap below the highest stream is a
    // lost shard: the replay refuses before any consumer starts instead
    // of reporting the surviving shards as the whole run.
    let program = bugs::memory_bugs();
    let dir = temp_dir("missing-stream");
    let config = recording_config(&dir);
    let monitor = ADDRCHECK;
    run_live_parallel(&program, monitor.make, 3, &config).unwrap();
    std::fs::remove_file(dir.join(segment_file_name(1, 0))).unwrap();

    for mode in [ReplayMode::Strict, ReplayMode::SalvagePrefix] {
        let err = run_replay_with(&dir, monitor.make, &config, mode).unwrap_err();
        assert!(
            matches!(
                &err,
                LbaError::Stream(StreamError::NoSuchStream { stream: 1, dir: at }) if *at == dir
            ),
            "{mode:?}: got {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_through_a_different_lifeguard_works() {
    // The retroactive-monitoring story: AddrCheck ran live; MemProfile-
    // style reanalysis here is LockSet over the same recorded traffic.
    let program = bugs::data_race();
    let dir = temp_dir("cross-lifeguard");
    let config = recording_config(&dir);
    let mut lg = (ADDRCHECK.make)();
    run_lba(&program, lg.as_mut(), &config).unwrap();

    let replay = run_replay(&dir, LOCKSET.make, &config).unwrap();
    // LockSet over the recorded stream equals LockSet run live.
    let mut lg = (LOCKSET.make)();
    let direct = run_lba(&program, lg.as_mut(), &SystemConfig::default()).unwrap();
    assert_eq!(replay.findings, direct.findings);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retention_cap_bounds_disk_and_replay_reports_aged_out() {
    let program = Benchmark::Gzip.build();
    let dir = temp_dir("retention");
    let mut config = SystemConfig::default();
    config.log.record_to = Some(RecordConfig {
        dir: dir.clone(),
        stream: StreamConfig {
            segment_bytes: 8 << 10,
            retain_bytes: 24 << 10,
        },
    });
    let monitor = ADDRCHECK;
    let mut lg = (monitor.make)();
    let original = run_lba(&program, lg.as_mut(), &config).unwrap();
    assert!(
        original.log.wire_bits / 8 > 24 << 10,
        "workload must outgrow the retention cap for this test to bite"
    );

    let on_disk: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    assert!(
        on_disk <= 24 << 10,
        "retention must cap total segment bytes: {on_disk} B on disk"
    );

    // The aged-out stream cannot be replayed (predictor state starts at
    // segment 0) and says so descriptively.
    let err = run_replay(&dir, monitor.make, &config).unwrap_err();
    assert!(
        matches!(
            &err,
            LbaError::Stream(StreamError::MissingSegments {
                expected_seq: 0,
                ..
            })
        ),
        "got: {err}"
    );
    assert!(err.to_string().contains("contiguous from segment 0"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_recordings_error_descriptively() {
    let program = bugs::memory_bugs();
    let dir = temp_dir("damage");
    let config = recording_config(&dir);
    let monitor = ADDRCHECK;
    let mut lg = (monitor.make)();
    run_lba(&program, lg.as_mut(), &config).unwrap();
    let segment = dir.join(segment_file_name(0, 0));
    let pristine = std::fs::read(&segment).unwrap();

    // Truncated mid-record.
    std::fs::write(&segment, &pristine[..pristine.len() - 11]).unwrap();
    let err = run_replay(&dir, monitor.make, &config).unwrap_err();
    assert!(
        matches!(&err, LbaError::Stream(StreamError::Truncated { .. })),
        "got: {err}"
    );

    // Missing End record (cut exactly at the record boundary).
    std::fs::write(&segment, &pristine[..pristine.len() - 9]).unwrap();
    let err = run_replay(&dir, monitor.make, &config).unwrap_err();
    assert!(
        matches!(&err, LbaError::Stream(StreamError::MissingEnd { .. })),
        "got: {err}"
    );

    // Unknown format version.
    let mut bytes = pristine.clone();
    bytes[5] = b'7';
    std::fs::write(&segment, &bytes).unwrap();
    let err = run_replay(&dir, monitor.make, &config).unwrap_err();
    assert!(
        matches!(&err, LbaError::Stream(StreamError::UnknownVersion { version, .. }) if version == "7"),
        "got: {err}"
    );

    // Mid-frame corruption: flip a payload byte, caught by the checksum.
    let mut bytes = pristine.clone();
    let flip = 24 + 21 + 40; // header + frame-record header + into payload
    bytes[flip] ^= 0x55;
    std::fs::write(&segment, &bytes).unwrap();
    let err = run_replay(&dir, monitor.make, &config).unwrap_err();
    assert!(
        matches!(&err, LbaError::Stream(StreamError::Corrupt { .. })),
        "got: {err}"
    );
    assert!(err.to_string().contains("checksum mismatch"), "got: {err}");

    // Codec-version mismatch: refused up front, not decoded into garbage.
    let mut bytes = pristine.clone();
    bytes[8..12].copy_from_slice(&999u32.to_le_bytes());
    std::fs::write(&segment, &bytes).unwrap();
    let err = run_replay(&dir, monitor.make, &config).unwrap_err();
    assert!(
        matches!(&err, LbaError::CodecMismatch { recorded: 999, .. }),
        "got: {err}"
    );

    // An empty recording directory is its own descriptive error.
    std::fs::remove_file(&segment).unwrap();
    let err = run_replay(&dir, monitor.make, &config).unwrap_err();
    assert!(matches!(&err, LbaError::NoStreams { .. }), "got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn salvage_prefix_replays_checksummed_prefix_of_torn_tail() {
    // Satellite: a torn tail is survivable under `SalvagePrefix` — the
    // proven prefix replays in full and the loss is reported, for every
    // mid-stream damage shape the strict suite pins as fatal.
    let program = bugs::memory_bugs();
    let dir = temp_dir("salvage");
    let config = recording_config(&dir);
    let monitor = ADDRCHECK;
    let mut lg = (monitor.make)();
    let original = run_lba(&program, lg.as_mut(), &config).unwrap();
    let segment = dir.join(segment_file_name(0, 0));
    let pristine = std::fs::read(&segment).unwrap();

    // Truncated mid-record: strict refuses, salvage keeps the prefix.
    std::fs::write(&segment, &pristine[..pristine.len() - 11]).unwrap();
    run_replay(&dir, monitor.make, &config).unwrap_err();
    let report = run_replay_with(&dir, monitor.make, &config, ReplayMode::SalvagePrefix).unwrap();
    assert!(!report.salvaged.is_empty());
    assert_eq!(report.salvaged.len(), 1);
    let tail = &report.salvaged[0];
    assert_eq!(tail.stream, 0);
    assert_eq!(tail.frames_salvaged, report.shard_log[0].frames);
    assert!(
        tail.frames_salvaged < original.log.frames,
        "the torn frame must not be delivered"
    );
    assert!(report.log.records < original.log.records);
    assert!(report.to_string().contains("tail lost"), "got: {report}");

    // Missing End record (cut exactly at the record boundary).
    std::fs::write(&segment, &pristine[..pristine.len() - 9]).unwrap();
    let report = run_replay_with(&dir, monitor.make, &config, ReplayMode::SalvagePrefix).unwrap();
    assert!(!report.salvaged.is_empty());
    assert!(report.salvaged[0].detail.contains("End"), "got: {report}");

    // Mid-frame checksum damage salvages everything before the bad frame.
    let mut bytes = pristine.clone();
    bytes[24 + 21 + 40] ^= 0x55;
    std::fs::write(&segment, &bytes).unwrap();
    let report = run_replay_with(&dir, monitor.make, &config, ReplayMode::SalvagePrefix).unwrap();
    assert!(!report.salvaged.is_empty());
    assert!(
        report.salvaged[0].detail.contains("checksum mismatch"),
        "got: {report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn salvage_prefix_on_a_multi_segment_tear_keeps_earlier_segments() {
    // Rotation makes the salvage story concrete: tear the *last* segment
    // and every earlier segment's frames still replay.
    let program = Benchmark::Gzip.build();
    let dir = temp_dir("salvage-rotate");
    let mut config = SystemConfig::default();
    config.log.record_to = Some(RecordConfig {
        dir: dir.clone(),
        stream: StreamConfig {
            segment_bytes: 8 << 10,
            retain_bytes: u64::MAX,
        },
    });
    let monitor = ADDRCHECK;
    let mut lg = (monitor.make)();
    let original = run_lba(&program, lg.as_mut(), &config).unwrap();

    let mut segments: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segments.sort();
    assert!(segments.len() > 2, "workload must force rotation");
    let last = segments.last().unwrap();
    let bytes = std::fs::read(last).unwrap();
    std::fs::write(last, &bytes[..bytes.len() - 11]).unwrap();

    let report = run_replay_with(&dir, monitor.make, &config, ReplayMode::SalvagePrefix).unwrap();
    assert!(!report.salvaged.is_empty());
    assert!(
        report.salvaged[0].frames_salvaged > 0,
        "frames from intact segments must survive the tear"
    );
    assert!(report.log.records < original.log.records);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn salvage_prefix_keeps_pre_frame_damage_fatal() {
    // No trustworthy prefix exists when the damage precedes any frame:
    // codec mismatch, unknown version, and an empty directory stay fatal
    // in both modes.
    let program = bugs::memory_bugs();
    let dir = temp_dir("salvage-fatal");
    let config = recording_config(&dir);
    let monitor = ADDRCHECK;
    let mut lg = (monitor.make)();
    run_lba(&program, lg.as_mut(), &config).unwrap();
    let segment = dir.join(segment_file_name(0, 0));
    let pristine = std::fs::read(&segment).unwrap();

    let mut bytes = pristine.clone();
    bytes[8..12].copy_from_slice(&999u32.to_le_bytes());
    std::fs::write(&segment, &bytes).unwrap();
    let err = run_replay_with(&dir, monitor.make, &config, ReplayMode::SalvagePrefix).unwrap_err();
    assert!(
        matches!(&err, LbaError::CodecMismatch { recorded: 999, .. }),
        "got: {err}"
    );

    let mut bytes = pristine.clone();
    bytes[5] = b'7';
    std::fs::write(&segment, &bytes).unwrap();
    let err = run_replay_with(&dir, monitor.make, &config, ReplayMode::SalvagePrefix).unwrap_err();
    assert!(
        matches!(&err, LbaError::Stream(StreamError::UnknownVersion { .. })),
        "got: {err}"
    );

    std::fs::remove_file(&segment).unwrap();
    let err = run_replay_with(&dir, monitor.make, &config, ReplayMode::SalvagePrefix).unwrap_err();
    assert!(matches!(&err, LbaError::NoStreams { .. }), "got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degraded_spans_ride_the_recording_into_replay() {
    // Tentpole acceptance, replay leg: a recording made while the
    // adaptive controller was engaged carries the degraded mark on its
    // frames, and the replay report surfaces those spans.
    let program = Benchmark::Gzip.build();
    let dir = temp_dir("degraded-replay");
    let mut config = recording_config(&dir);
    config.log.adaptive = true;
    config.log.fault = Some(FaultProfile::slow_drain());
    config.log.buffer_bytes = 2 << 10;
    let monitor = ADDRCHECK;
    let mut lg = (monitor.make)();
    let original = run_lba(&program, lg.as_mut(), &config).unwrap();
    assert!(
        !original.degradation.is_empty(),
        "precondition: the recording run must actually degrade"
    );

    let replay = run_replay(&dir, monitor.make, &config).unwrap();
    let degraded_frames = replay.shard_log[0].degraded_frames;
    assert!(
        degraded_frames > 0,
        "degraded spans must ride the flight-recorder stream"
    );
    assert!(degraded_frames <= replay.shard_log[0].frames);
    assert_eq!(
        degraded_frames, original.shard_log[0].degraded_frames,
        "the replay reads back every degraded frame the recording run sealed"
    );
    assert_eq!(replay.findings, original.findings);
    assert_eq!(replay.log.records, original.log.records);
    assert_eq!(replay.log.wire_bits, original.log.wire_bits);
    assert!(
        replay.salvaged.is_empty(),
        "degradation is not loss at the recorder"
    );
    assert!(
        replay.to_string().contains("degraded frames replayed"),
        "got: {replay}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Record→replay equality holds across programs × lifeguards ×
    /// segment sizes: whatever rotation the segment budget forces, the
    /// replayed findings and wire bits equal the original run's.
    #[test]
    fn record_replay_equality_across_the_grid(
        program_idx in 0usize..3,
        kind_idx in 0usize..3,
        segment_bytes in prop_oneof![Just(512u64), Just(4 << 10), Just(64 << 10), Just(4 << 20)],
    ) {
        let program = match program_idx {
            0 => bugs::memory_bugs(),
            1 => bugs::data_race(),
            _ => bugs::exploit(),
        };
        let monitor = MONITORS[kind_idx];
        let dir = temp_dir("grid");
        let mut config = SystemConfig::default();
        config.log.record_to = Some(RecordConfig {
            dir: dir.clone(),
            stream: StreamConfig {
                segment_bytes,
                retain_bytes: u64::MAX,
            },
        });
        let mut lg = (monitor.make)();
        let original = run_lba(&program, lg.as_mut(), &config).unwrap();

        let replay = run_replay(&dir, monitor.make, &config).unwrap();
        prop_assert_eq!(&replay.findings, &original.findings);
        prop_assert_eq!(replay.log.wire_bits, original.log.wire_bits);
        prop_assert_eq!(replay.log.records, original.log.records);
        std::fs::remove_dir_all(&dir).ok();
    }
}
