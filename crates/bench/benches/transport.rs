//! Live-channel throughput: the framed, compressed transport at two frame
//! sizes over the in-process queue, and at the default size over a
//! Unix-domain socket pair.
//!
//! The framed channel amortises one queue operation over
//! `records_per_frame` records and ships < 1 B/record on the wire. The
//! socket case moves the same frames as `lbas/1` records under a credit
//! window as deep as the queue, so its rate against `framed_compressed_x256`
//! is the per-record cost of the socket's syscalls.

use std::thread;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use lba_compress::FrameConfig;
use lba_lifeguard::ShadowMemory;
use lba_record::EventRecord;
use lba_transport::live::{self, FrameReceiver};
use lba_transport::socket::{socket_pair, SocketSender};

const RECORDS: u64 = 120_000;

/// In-flight frames: the queue's capacity and the socket's credit window.
const DEPTH: usize = 256;

fn frame_config(records_per_frame: usize) -> FrameConfig {
    FrameConfig {
        records_per_frame,
        compress: true,
    }
}

fn synthetic_stream() -> Vec<EventRecord> {
    // The hot-loop pattern: alu, strided load, taken branch.
    let mut out = Vec::with_capacity(RECORDS as usize);
    for i in 0..RECORDS / 3 + 1 {
        out.push(EventRecord::alu(0x1000, 0, Some(1), Some(2), Some(1)));
        out.push(EventRecord::load(
            0x1008,
            0,
            Some(3),
            Some(4),
            0x4000_0000 + i * 8,
            8,
        ));
        out.push(EventRecord {
            pc: 0x1010,
            kind: lba_record::EventKind::Branch,
            tid: 0,
            in1: Some(1),
            in2: Some(0),
            out: None,
            addr: 0x1000,
            size: 1,
        });
    }
    out.truncate(RECORDS as usize);
    out
}

/// Pumps the stream through the framed channel at `records_per_frame`;
/// returns the consumer-side record count.
fn pump_framed(records: &[EventRecord], records_per_frame: usize) -> u64 {
    let (mut tx, mut rx) = live::frame_channel(DEPTH, frame_config(records_per_frame));
    thread::scope(|scope| {
        scope.spawn(move || {
            for rec in records {
                tx.push(rec);
            }
        });
        let mut seen = 0u64;
        while let Some(frame) = rx.recv_batch().expect("in-process frames decode") {
            seen += frame.records.len() as u64;
        }
        seen
    })
}

/// Pumps the stream through a socket pair at 256 records per frame, the
/// sender on this thread and the receiver on a second; returns the
/// consumer-side record count.
fn pump_socket(records: &[EventRecord]) -> u64 {
    let config = frame_config(256);
    let window = u32::try_from(DEPTH).expect("window fits u32");
    let (sink, source) = socket_pair(0, window).expect("socket pair opens");
    let mut tx = SocketSender::new(sink, config);
    thread::scope(|scope| {
        let consumer = scope.spawn(move || {
            let mut rx = FrameReceiver::new(source, 0, config);
            let mut seen = 0u64;
            while let Some(frame) = rx.recv_batch().expect("socket frames decode") {
                seen += frame.records.len() as u64;
            }
            seen
        });
        for rec in records {
            tx.push(rec);
        }
        tx.finish().expect("socket stream ends cleanly");
        consumer.join().expect("consumer thread")
    })
}

fn bench_transport(c: &mut Criterion) {
    let records = synthetic_stream();

    // Best-of-3 rates, printed alongside the samples (the min-time
    // estimator is robust to scheduler noise).
    let cases: [(&str, &dyn Fn() -> u64); 3] = [
        ("framed x 64", &|| pump_framed(&records, 64)),
        ("framed x256", &|| pump_framed(&records, 256)),
        ("socket x256", &|| pump_socket(&records)),
    ];
    for (name, pump) in cases {
        let mut best = f64::INFINITY;
        for _ in 0..if criterion::is_test_mode() { 1 } else { 3 } {
            let start = std::time::Instant::now();
            assert_eq!(pump(), RECORDS);
            best = best.min(start.elapsed().as_secs_f64());
        }
        println!("{name}: {:.1} Mrecords/s", RECORDS as f64 / best / 1e6);
    }

    let mut group = c.benchmark_group("live_transport");
    group
        .sample_size(10)
        .throughput(Throughput::Elements(RECORDS));
    group.bench_function("framed_compressed_x64", |b| {
        b.iter(|| pump_framed(&records, 64))
    });
    group.bench_function("framed_compressed_x256", |b| {
        b.iter(|| pump_framed(&records, 256))
    });
    group.bench_function("socket_x256", |b| b.iter(|| pump_socket(&records)));
    group.finish();

    bench_shadow_range(c);
}

/// The shadow-range fast path behind TaintCheck's syscall-argument sweep:
/// `range_any_nonzero` answers "any taint in this buffer?" from per-page
/// nonzero counters — clean pages are dismissed with one counter load —
/// where the general `range_is(.., 0)` must scan every byte to prove the
/// same thing. TaintCheck's syscall handler asks this question over a
/// mostly-clean heap on every syscall, so the sweep sits on the
/// lifeguard's critical path.
fn bench_shadow_range(c: &mut Criterion) {
    const SPAN: u64 = 1 << 20;
    let mut shadow: ShadowMemory<u8> = ShadowMemory::new();
    // A mostly-clean megabyte: touch every page so residency is equal for
    // both paths, then taint a single late byte.
    shadow.set_range(0, SPAN, 0);
    shadow.set(SPAN - 17, 1);

    let mut group = c.benchmark_group("shadow_range");
    group.sample_size(10).throughput(Throughput::Bytes(SPAN));
    group.bench_function("range_is_zero_scan", |b| {
        b.iter(|| !shadow.range_is(0, SPAN, 0))
    });
    group.bench_function("range_any_nonzero_counters", |b| {
        b.iter(|| shadow.range_any_nonzero(0, SPAN))
    });
    group.finish();
}

criterion_group!(benches, bench_transport);
criterion_main!(benches);
