//! Property-based tests over the core data structures and invariants.

use proptest::collection::vec;
use proptest::prelude::*;

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use lba::{run_replay_with, ReplayMode, SystemConfig};
use lba_cache::{Access, CacheConfig, MemSystem, MemSystemConfig, SetAssocCache};
use lba_compress::{
    BitReader, BitWriter, Frame, FrameConfig, FrameDecoder, FrameEncoder, LogCompressor,
    LogDecompressor, CODEC_VERSION, FRAME_LINE_BYTES,
};
use lba_isa::Instruction;
use lba_lifeguard::DispatchEngine;
use lba_lifeguards::{LockSet, TaintCheck};
use lba_mem::{layout, HeapAllocator, Memory};
use lba_record::{
    end_record, segment_file_name, EventKind, EventRecord, FrameRecordHeader, SegmentReader,
    SegmentWriter, StreamConfig, StreamError, StreamHeader, END_RECORD_BYTES,
    FRAME_RECORD_HEADER_BYTES, RAW_RECORD_BYTES, SEGMENT_HEADER_BYTES, TAG_FRAME,
};
use lba_transport::live::{FrameReceiver, RecvError};
use lba_transport::{FrameSource, ModeledFrameChannel, PushOutcome, SocketError, SocketSource};

fn arb_operand() -> impl Strategy<Value = Option<u8>> {
    prop_oneof![Just(None), (0u8..16).prop_map(Some)]
}

/// Arbitrary event records, constrained like real capture output (the
/// compressor is allowed to rely on size being the access width etc.).
fn arb_record() -> impl Strategy<Value = EventRecord> {
    (
        0u64..1 << 20,
        0usize..EventKind::COUNT,
        0u8..4,
        arb_operand(),
        arb_operand(),
        arb_operand(),
        any::<u64>(),
        prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
    )
        .prop_map(|(pc, kind_idx, tid, in1, in2, out, addr, width)| {
            let kind = EventKind::ALL[kind_idx];
            EventRecord {
                pc: 0x1000 + pc * 8,
                kind,
                tid,
                in1,
                in2,
                out,
                addr: if kind.has_addr() { addr } else { 0 },
                size: match kind {
                    EventKind::Load | EventKind::Store => width,
                    EventKind::Branch => u32::from(addr % 2 == 0),
                    EventKind::Alloc | EventKind::Recv => (addr % 4096) as u32,
                    EventKind::Syscall => (addr % 64) as u32,
                    _ => 0,
                },
            }
        })
}

/// A record stream with realistic per-PC consistency: the same PC always
/// carries the same static fields (true of real capture output, since a PC
/// names one instruction).
fn arb_stream() -> impl Strategy<Value = Vec<EventRecord>> {
    vec(arb_record(), 1..200).prop_map(|mut records| {
        use std::collections::HashMap;
        let mut canonical: HashMap<u64, EventRecord> = HashMap::new();
        for rec in &mut records {
            let proto = *canonical.entry(rec.pc).or_insert(*rec);
            rec.kind = proto.kind;
            rec.in1 = proto.in1;
            rec.in2 = proto.in2;
            rec.out = proto.out;
            if matches!(proto.kind, EventKind::Load | EventKind::Store) {
                rec.size = proto.size;
            }
            if matches!(
                proto.kind,
                EventKind::Branch | EventKind::Jump | EventKind::Call
            ) {
                rec.addr = proto.addr;
            }
            if proto.kind == EventKind::Syscall {
                rec.size = proto.size;
            }
            if !proto.kind.has_addr() {
                rec.addr = 0;
            }
        }
        records
    })
}

/// Pops one frame off a modeled channel, noting each record with the
/// frame's `ready_at`; `false` when no frame is admitted.
fn pop_one(ch: &mut ModeledFrameChannel, popped: &mut Vec<(EventRecord, u64)>) -> bool {
    let Some(frame) = ch.pop_frame() else {
        return false;
    };
    popped.extend(frame.records.iter().map(|rec| (*rec, frame.ready_at)));
    true
}

/// Applies a push or flush outcome as the co-simulation does: a parked
/// frame is admitted before anything else happens, popping frames until
/// it fits. Returns the wire bits the outcome shipped.
fn absorb(
    ch: &mut ModeledFrameChannel,
    outcome: PushOutcome,
    now: u64,
    popped: &mut Vec<(EventRecord, u64)>,
) -> u64 {
    match outcome {
        PushOutcome::Buffered => 0,
        PushOutcome::Sealed { wire_bits } => wire_bits,
        PushOutcome::BackPressure { wire_bits } => {
            while ch.retry_parked(now).is_none() {
                assert!(
                    pop_one(ch, popped),
                    "a parked frame waits behind admitted ones"
                );
            }
            wire_bits
        }
    }
}

/// Pops a modeled channel dry.
fn drain(ch: &mut ModeledFrameChannel, now: u64, popped: &mut Vec<(EventRecord, u64)>) {
    while pop_one(ch, popped) || ch.retry_parked(now).is_some() {}
}

/// Corrupts a sealed frame's wire image. `kind` picks the mutation and
/// `at`/`byte` are raw draws, reduced to this frame.
fn mutate(frame: &mut Vec<u8>, (kind, at, byte): (u8, u64, u8), compress: bool) {
    let len = frame.len() as u64;
    match kind {
        // Flip one bit anywhere in the frame.
        0 => frame[(at / 8 % len) as usize] ^= 1 << (at % 8),
        // Rewrite the record count, up to the most records the payload
        // can hold, so decoding gets past the count check and runs the
        // payload dry.
        1 => {
            let payload = u64::from(u32::from_le_bytes(frame[4..8].try_into().unwrap()));
            let max = if compress {
                payload * 8
            } else {
                payload / RAW_RECORD_BYTES as u64
            };
            let count = u32::try_from(at % (max + 1)).unwrap();
            frame[0..4].copy_from_slice(&count.to_le_bytes());
        }
        // Truncate to a shorter line multiple.
        2 => frame.truncate((at % (len / FRAME_LINE_BYTES as u64)) as usize * FRAME_LINE_BYTES),
        // Overwrite one byte.
        _ => frame[(at % len) as usize] = byte,
    }
}

/// Damages a socket wire, given as its `lbas/1` records after the hello:
/// one frame record per sealed frame, then the End record. `kind` picks
/// the mutation and `at`/`byte` are raw draws, reduced to this wire.
/// Returns the index of the first record that no longer arrives as sent;
/// the records before it are the undamaged prefix.
fn mutate_socket_wire(wire: &mut Vec<Vec<u8>>, (kind, at, byte): (u8, u64, u8)) -> usize {
    let frames = wire.len() - 1;
    let pick = |n: usize| (at % n as u64) as usize;
    // The record holding byte `offset` of the wire, and where it starts.
    let locate = |wire: &[Vec<u8>], mut offset: usize| {
        for (i, record) in wire.iter().enumerate() {
            if offset < record.len() {
                return (i, offset);
            }
            offset -= record.len();
        }
        unreachable!("offset lies within the wire")
    };
    let total: usize = wire.iter().map(Vec::len).sum();
    match kind {
        // Flip one bit anywhere.
        0 => {
            let (i, offset) = locate(wire, pick(total * 8) / 8);
            wire[i][offset] ^= 1 << (at % 8);
            i
        }
        // Truncate the wire.
        1 => {
            let (i, offset) = locate(wire, pick(total));
            wire[i].truncate(offset);
            wire.truncate(i + 1);
            i
        }
        // Rewrite a frame record's payload length or its record count,
        // up to `u32::MAX`.
        2 | 3 => {
            let i = pick(frames);
            let value = if byte < 64 {
                u32::MAX
            } else {
                (at >> 32) as u32
            };
            let field = if kind == 2 { 13..17 } else { 9..13 };
            wire[i][field].copy_from_slice(&value.to_le_bytes());
            i
        }
        // Duplicate a frame record.
        4 => {
            let i = pick(frames);
            let copy = wire[i].clone();
            wire.insert(i + 1, copy);
            i + 1
        }
        // Drop a frame record.
        5 => {
            let i = pick(frames);
            wire.remove(i);
            i
        }
        // Swap two records, the End record included.
        6 => {
            let i = pick(wire.len());
            let j = (i + 1 + usize::from(byte) % (wire.len() - 1)) % wire.len();
            wire.swap(i, j);
            i.min(j)
        }
        // A stray byte where a record tag belongs.
        _ => {
            let i = pick(wire.len());
            wire.insert(i, vec![byte]);
            i
        }
    }
}

/// One stream of an `lbas/1` recording: per segment file, its 24-byte
/// header and then its records as a socket wire carries them (one frame
/// record per sealed frame, then the End record).
type Segments = Vec<(Vec<u8>, Vec<Vec<u8>>)>;

/// Records `frames` as stream `stream` in `dir` through the segment
/// writer, rotating past `segment_bytes`, and splits the files it wrote
/// into [`Segments`].
fn record_segments(dir: &Path, stream: u32, frames: &[Frame], segment_bytes: u64) -> Segments {
    let config = StreamConfig {
        segment_bytes,
        retain_bytes: u64::MAX,
    };
    let mut writer = SegmentWriter::create(dir, stream, CODEC_VERSION, config).unwrap();
    for (i, frame) in frames.iter().enumerate() {
        writer
            .append(i as u64, frame.records, &frame.bytes)
            .unwrap();
    }
    let files = writer.finish().unwrap().segments_retained as u32;
    (0..files)
        .map(|seq| {
            let file = std::fs::read(dir.join(segment_file_name(stream, seq))).unwrap();
            let (header, mut rest) = file.split_at(SEGMENT_HEADER_BYTES);
            let mut records = Vec::new();
            while let [tag, fields @ ..] = rest {
                let len = match *tag {
                    TAG_FRAME => {
                        let payload = u32::from_le_bytes(fields[12..16].try_into().unwrap());
                        FRAME_RECORD_HEADER_BYTES + payload as usize
                    }
                    _ => END_RECORD_BYTES,
                };
                let (record, tail) = rest.split_at(len);
                records.push(record.to_vec());
                rest = tail;
            }
            (header.to_vec(), records)
        })
        .collect()
}

/// Damages segment `seg` (reduced to the recording) of a recorded
/// stream: kinds 0–7 are [`mutate_socket_wire`]'s on its records, 8–10
/// rewrite a header word (the codec version, the stream id, the sequence
/// number) and 11 splices in `other`'s segment of that sequence number.
/// Returns the index of the first frame that may no longer read back as
/// written; the frames before it are the undamaged prefix.
fn mutate_segments(
    segments: &mut Segments,
    other: &Segments,
    seg: usize,
    (kind, at, byte): (u8, u64, u8),
) -> usize {
    let seg = seg % segments.len();
    let before: usize = (segments[..seg].iter())
        .map(|(_, records)| records.len() - 1)
        .sum();
    match kind {
        8..=10 => {
            let word = 8 + 4 * usize::from(kind - 8);
            let header = &mut segments[seg].0[word..word + 4];
            let value = u32::from_le_bytes((&*header).try_into().unwrap()) ^ (at as u32 | 1);
            header.copy_from_slice(&value.to_le_bytes());
        }
        11 => segments[seg] = other[seg.min(other.len() - 1)].clone(),
        _ => {
            // A tear loses every later segment too.
            if kind == 1 {
                segments.truncate(seg + 1);
            }
            return before + mutate_socket_wire(&mut segments[seg].1, (kind, at, byte));
        }
    }
    before
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compressor_round_trips_any_consistent_stream(records in arb_stream()) {
        let mut compressor = LogCompressor::new();
        let mut writer = BitWriter::new();
        for rec in &records {
            compressor.encode(rec, &mut writer);
        }
        let bytes = writer.into_bytes();
        let mut reader = BitReader::new(&bytes);
        let mut decompressor = LogDecompressor::new();
        for (i, rec) in records.iter().enumerate() {
            let got = decompressor.decode(&mut reader);
            prop_assert_eq!(got.as_ref().ok(), Some(rec), "record {} mismatched", i);
        }
    }

    #[test]
    fn raw_record_encoding_round_trips(rec in arb_record()) {
        let decoded = EventRecord::decode_raw(&rec.encode_raw());
        prop_assert_eq!(decoded.ok(), Some(rec));
    }

    #[test]
    fn instruction_encoding_round_trips(bytes in any::<[u8; 8]>()) {
        // decode ∘ encode = id on every decodable word.
        if let Ok(inst) = Instruction::decode(bytes) {
            let round = Instruction::decode(inst.encode());
            prop_assert_eq!(round.ok(), Some(inst));
        }
    }

    #[test]
    fn memory_behaves_like_a_byte_map(ops in vec((any::<u16>(), any::<u8>()), 1..300)) {
        let mut memory = Memory::new();
        let mut model = std::collections::HashMap::new();
        for (addr, value) in ops {
            let addr = u64::from(addr);
            memory.write_u8(addr, value);
            model.insert(addr, value);
        }
        for (addr, value) in &model {
            prop_assert_eq!(memory.read_u8(*addr), *value);
        }
    }

    #[test]
    fn allocator_blocks_never_overlap(sizes in vec(1u64..512, 1..40)) {
        let mut heap = HeapAllocator::new(layout::HEAP_BASE, 1 << 20);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            // Free every third block to exercise reuse.
            if i % 3 == 2 {
                if let Some((addr, _)) = live.pop() {
                    prop_assert!(heap.free(addr).is_ok());
                }
            }
            let addr = heap.alloc(*size).unwrap();
            let len = heap.live_block_len(addr).unwrap();
            prop_assert!(len >= *size);
            for &(other, olen) in &live {
                prop_assert!(
                    addr + len <= other || other + olen <= addr,
                    "blocks {:#x}+{} and {:#x}+{} overlap", addr, len, other, olen
                );
            }
            live.push((addr, len));
        }
    }

    #[test]
    fn allocator_double_free_always_detected(sizes in vec(1u64..128, 1..20)) {
        let mut heap = HeapAllocator::new(layout::HEAP_BASE, 1 << 20);
        let addrs: Vec<u64> = sizes.iter().map(|&s| heap.alloc(s).unwrap()).collect();
        for &addr in &addrs {
            prop_assert!(heap.free(addr).is_ok());
        }
        for &addr in &addrs {
            let double = matches!(heap.free(addr), Err(lba_mem::HeapError::DoubleFree { addr: a }) if a == addr);
            prop_assert!(double, "double free of {:#x} not classified", addr);
        }
    }

    #[test]
    fn log_buffer_is_fifo_and_conserves_bits(
        records in arb_stream(),
        records_per_frame in 1usize..40,
        compress in any::<bool>(),
        budget_lines in 1u64..16,
        flush_seed in any::<u64>(),
    ) {
        // Driven as the co-simulation drives a shard's channel: a parked
        // frame is admitted at once by popping until it fits, a degradation
        // transition seals the open frame, a contained syscall seals and
        // drains, and the end of the run drains everything.
        let config = FrameConfig { records_per_frame, compress };
        let budget = budget_lines * FRAME_LINE_BYTES as u64;
        let mut ch = ModeledFrameChannel::new(budget, config, true);
        let mut popped = Vec::new();
        // The wire bits of every push and flush outcome.
        let mut shipped = Vec::new();
        let mut lcg = flush_seed;
        for (now, rec) in records.iter().enumerate() {
            let now = now as u64;
            let outcome = ch.push_record(rec, now);
            shipped.push(absorb(&mut ch, outcome, now, &mut popped));
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // A quarter of the records seal early: half of those at a
            // degradation transition (flush), half at a contained syscall
            // (flush, then drain).
            if lcg >> 62 == 0 {
                let outcome = ch.flush(now);
                shipped.push(absorb(&mut ch, outcome, now, &mut popped));
                if lcg >> 61 == 0 {
                    drain(&mut ch, now, &mut popped);
                }
            }
        }
        let end = records.len() as u64;
        let outcome = ch.flush(end);
        shipped.push(absorb(&mut ch, outcome, end, &mut popped));
        drain(&mut ch, end, &mut popped);

        let replayed: Vec<EventRecord> = popped.iter().map(|(rec, _)| *rec).collect();
        prop_assert_eq!(&replayed, &records);
        prop_assert!(popped.windows(2).all(|w| w[0].1 <= w[1].1), "ready_at went backwards");
        let stats = ch.stats();
        prop_assert_eq!(stats.wire_bits, shipped.iter().sum::<u64>());
        // Only a frame larger than the whole budget overfills the buffer.
        let largest = shipped.iter().copied().max().unwrap_or(0);
        prop_assert!(stats.high_water_bits <= (budget * 8).max(largest));
        prop_assert!(ch.drained());
        prop_assert_eq!(ch.load_sample().inflight, 0);
    }

    #[test]
    fn framed_codec_round_trips_across_arbitrary_boundaries(
        records in arb_stream(),
        records_per_frame in 1usize..40,
        compress in any::<bool>(),
        flush_seed in any::<u64>(),
    ) {
        // The chunked codec must reproduce any consistent stream exactly,
        // whatever the frame size and wherever flushes land (syscalls can
        // seal a frame after any record).
        let config = FrameConfig { records_per_frame, compress };
        let mut enc = FrameEncoder::new(config);
        let mut frames = Vec::new();
        let mut lcg = flush_seed;
        for rec in &records {
            frames.extend(enc.push(rec));
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if lcg % 5 == 0 {
                frames.extend(enc.flush());
            }
        }
        frames.extend(enc.flush());

        let mut dec = FrameDecoder::new(config);
        let mut out = Vec::new();
        for frame in &frames {
            prop_assert_eq!(frame.bytes.len() % FRAME_LINE_BYTES, 0, "line-multiple frames");
            dec.decode_frame(&frame.bytes, &mut out).expect("frame decodes");
        }
        prop_assert_eq!(out, records);
    }

    #[test]
    fn mutated_frames_never_panic_the_decoder(
        records in arb_stream(),
        records_per_frame in 1usize..40,
        compress in any::<bool>(),
        trials in vec((any::<usize>(), (0u8..4, any::<u64>(), any::<u8>())), 1..16),
    ) {
        // Frames from outside the process are untrusted: whatever a
        // mutation does to one sealed frame, decoding it and the clean
        // frames after it yields records or an error, never a panic.
        let config = FrameConfig { records_per_frame, compress };
        let mut enc = FrameEncoder::new(config);
        let mut clean = Vec::new();
        for rec in &records {
            clean.extend(enc.push(rec).map(|frame| frame.bytes));
        }
        clean.extend(enc.flush().map(|frame| frame.bytes));
        for (target, mutation) in trials {
            let target = target % clean.len();
            let mut frames = clean.clone();
            mutate(&mut frames[target], mutation, compress);
            let mut dec = FrameDecoder::new(config);
            let mut out = Vec::new();
            for (i, frame) in frames.iter().enumerate() {
                let decoded = dec.decode_frame(frame, &mut out);
                prop_assert!(
                    i >= target || decoded.is_ok(),
                    "clean frame {} before the mutated one failed: {:?}", i, decoded
                );
            }
        }
    }

    #[test]
    fn mutated_socket_wires_never_panic_the_reader(
        records in arb_stream(),
        records_per_frame in 1usize..40,
        compress in any::<bool>(),
        mutation in (0u8..8, any::<u64>(), any::<u8>()),
    ) {
        // Socket bytes come from another process: whatever a mutation does
        // to the records after a valid hello, the reader yields the
        // undamaged prefix's records exactly, then records or a
        // descriptive error (a tear, a corruption or a decode error),
        // never a panic.
        let config = FrameConfig { records_per_frame, compress };
        let mut enc = FrameEncoder::new(config);
        let mut frames: Vec<_> = records.iter().filter_map(|rec| enc.push(rec)).collect();
        frames.extend(enc.flush());
        let mut wire: Vec<Vec<u8>> = frames
            .iter()
            .map(|frame| {
                let header = FrameRecordHeader::new(0, frame.records, &frame.bytes);
                [&header.encode()[..], &frame.bytes].concat()
            })
            .collect();
        wire.push(end_record(frames.len() as u64).to_vec());
        let damaged = mutate_socket_wire(&mut wire, mutation);
        let prefix: usize = frames[..damaged.min(frames.len())]
            .iter()
            .map(|frame| frame.records as usize)
            .sum();

        let (mut producer, consumer) = std::os::unix::net::UnixStream::pair().unwrap();
        let hello = StreamHeader { codec_version: lba_compress::CODEC_VERSION, stream: 0, word: 4 };
        // One write: the wire fits the socket buffer, so the producer can
        // leave before the reader starts.
        std::io::Write::write_all(&mut producer, &[&hello.encode()[..], &wire.concat()].concat())
            .unwrap();
        drop(producer);
        let mut rx = FrameReceiver::new(SocketSource::accept(consumer).unwrap(), 0, config);
        let mut out = Vec::new();
        let ended = loop {
            match rx.recv_batch() {
                Ok(Some(frame)) => out.extend_from_slice(frame.records),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        prop_assert!(out.len() >= prefix, "the undamaged prefix must arrive: {:?}", ended);
        prop_assert_eq!(&out[..prefix], &records[..prefix]);
        if let Err(e) = ended {
            let descriptive = match &e {
                RecvError::Decode { .. } => true,
                RecvError::Wire(wire) => matches!(
                    wire.downcast_ref::<SocketError>(),
                    Some(SocketError::Torn { .. } | SocketError::Corrupt { .. })
                ),
            };
            prop_assert!(descriptive, "not a tear, corruption or decode error: {}", e);
        }
    }

    #[test]
    fn mutated_segments_never_panic_the_reader(
        records in arb_stream(),
        records_per_frame in 1usize..40,
        compress in any::<bool>(),
        segment_bytes in 128u64..512,
        (seg, mutation) in (any::<usize>(), (0u8..12, any::<u64>(), any::<u8>())),
    ) {
        // Recordings come back from disk, where anything can happen to
        // them: whatever a mutation does to the segment files, the reader
        // yields the undamaged prefix's frames exactly, then frames or a
        // `StreamError` naming the recording, never a panic.
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("lba-segments-{}-{case}", std::process::id()));
        let config = FrameConfig { records_per_frame, compress };
        let seal = |records: &mut dyn Iterator<Item = &EventRecord>| {
            let mut enc = FrameEncoder::new(config);
            let mut frames: Vec<_> = records.filter_map(|rec| enc.push(rec)).collect();
            frames.extend(enc.flush());
            frames
        };
        let frames = seal(&mut records.iter());
        let mut segments = record_segments(&dir.join("clean"), 0, &frames, segment_bytes);
        // The splice source: the records sealed backwards, as stream 0 or 1.
        let backwards = seal(&mut records.iter().rev());
        let stream = u32::from(mutation.2 % 2);
        let other = record_segments(&dir.join("other"), stream, &backwards, segment_bytes);
        let damaged = mutate_segments(&mut segments, &other, seg, mutation);
        let recording = dir.join("damaged");
        std::fs::create_dir_all(&recording).unwrap();
        for (seq, (header, records)) in segments.iter().enumerate() {
            let file = [header.clone(), records.concat()].concat();
            std::fs::write(recording.join(segment_file_name(0, seq as u32)), file).unwrap();
        }

        let (mut read, mut codec) = (Vec::new(), None);
        let ended = SegmentReader::open(&recording, 0).and_then(|mut reader| {
            codec = Some(reader.codec_version());
            while let Some(frame) = reader.next_frame()? {
                read.push(frame);
            }
            Ok(())
        });
        prop_assert!(read.len() >= damaged, "the undamaged prefix must arrive: {:?}", ended);
        for (i, (got, sealed)) in read.iter().zip(&frames[..damaged]).enumerate() {
            prop_assert_eq!((got.timestamp, got.records), (i as u64, sealed.records));
            prop_assert_eq!(&got.bytes, &sealed.bytes, "frame {}", i);
        }
        if let Err(e) = &ended {
            let named = e.to_string().contains(recording.to_str().unwrap());
            prop_assert!(named, "the error must name the recording: {}", e);
        }
        // A rewritten header word is caught at its own segment. The first
        // segment's codec is the stream's, which replay checks on open;
        // every later segment must agree with it.
        if (8..=10).contains(&mutation.0) {
            if damaged == 0 && mutation.0 == 8 {
                prop_assert_ne!(codec, Some(CODEC_VERSION));
            } else {
                prop_assert_eq!(read.len(), damaged, "read past a rewritten header: {:?}", ended);
                prop_assert!(matches!(ended, Err(StreamError::Corrupt { .. })), "{:?}", ended);
            }
        }
        // A torn tail is what salvage replay is for: it replays exactly the
        // undamaged prefix and reports the tear.
        if mutation.0 == 1 {
            let mut replay = SystemConfig::default();
            replay.log.records_per_frame = records_per_frame;
            replay.log.compression = compress;
            let make = || -> Box<dyn lba_lifeguard::Lifeguard> { Box::new(LockSet::new()) };
            let report = run_replay_with(&recording, make, &replay, ReplayMode::SalvagePrefix)
                .unwrap_or_else(|e| panic!("salvage replay failed: {e}"));
            prop_assert_eq!(report.salvaged.len(), 1);
            prop_assert_eq!(report.salvaged[0].frames_salvaged, damaged as u64);
            let prefix: u64 = frames[..damaged].iter().map(|f| u64::from(f.records)).sum();
            prop_assert_eq!(report.log.records, prefix);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_files_and_sockets_read_damaged_records_alike(
        records in arb_stream(),
        records_per_frame in 1usize..40,
        compress in any::<bool>(),
        mutation in (0u8..8, any::<u64>(), any::<u8>()),
    ) {
        // Both carriers parse their bytes with one reader: the same
        // damaged records, behind a socket's hello or behind a segment
        // file's header, read back as the same frames and end alike.
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let config = FrameConfig { records_per_frame, compress };
        let mut enc = FrameEncoder::new(config);
        let mut frames: Vec<_> = records.iter().filter_map(|rec| enc.push(rec)).collect();
        frames.extend(enc.flush());
        let mut wire: Vec<Vec<u8>> = frames
            .iter()
            .map(|frame| {
                let header = FrameRecordHeader::new(0, frame.records, &frame.bytes);
                [&header.encode()[..], &frame.bytes].concat()
            })
            .collect();
        wire.push(end_record(frames.len() as u64).to_vec());
        mutate_socket_wire(&mut wire, mutation);
        let header = |word| {
            StreamHeader { codec_version: CODEC_VERSION, stream: 0, word }.encode().to_vec()
        };

        let (mut producer, consumer) = std::os::unix::net::UnixStream::pair().unwrap();
        // One write: the wire fits the socket buffer, so the producer can
        // leave before the reader starts.
        std::io::Write::write_all(&mut producer, &[header(4), wire.concat()].concat()).unwrap();
        drop(producer);
        let mut source = SocketSource::accept(consumer).unwrap();
        let mut over_socket = Vec::new();
        let socket_end = loop {
            match source.next_frame_bytes() {
                Ok(Some(bytes)) => over_socket.push(bytes),
                Ok(None) => break None,
                Err(e) => break Some(*e.downcast::<SocketError>().unwrap()),
            }
        };

        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("lba-carriers-{}-{case}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let segment = [header(0), wire.concat()].concat();
        std::fs::write(dir.join(segment_file_name(0, 0)), segment).unwrap();
        let mut in_file = Vec::new();
        let file_end = SegmentReader::open(&dir, 0).and_then(|mut reader| {
            while let Some(frame) = reader.next_frame()? {
                in_file.push(frame.bytes);
            }
            Ok(())
        });
        std::fs::remove_dir_all(&dir).ok();

        prop_assert_eq!(&over_socket, &in_file);
        let alike = match (&socket_end, &file_end) {
            (None, Ok(())) | (Some(SocketError::Corrupt { .. }), Err(StreamError::Corrupt { .. })) => true,
            (Some(SocketError::Torn { .. }), Err(e)) => {
                matches!(e, StreamError::Truncated { .. } | StreamError::MissingEnd { .. })
            }
            // Only a file has an end to read past the End record to.
            (None, Err(e)) => e.to_string().contains("data after the End record"),
            _ => false,
        };
        prop_assert!(alike, "socket ended {:?}, segment file {:?}", socket_end, file_end);
    }

    #[test]
    fn cache_small_working_set_always_hits_after_warmup(lines in vec(0u64..4, 2..60)) {
        // 4 distinct lines in a 4-way cache never evict each other.
        let mut cache = SetAssocCache::new(CacheConfig { size_bytes: 16 << 10, line_bytes: 64, assoc: 4 });
        let base = 0x1000u64;
        // The four lines map to the same set only if they alias; use
        // same-set addresses spaced by way stride (sets * line).
        let stride = 64 * (16 << 10) / (64 * 4);
        for i in 0..4u64 {
            cache.access(base + i * stride, false);
        }
        for &line in &lines {
            let access = cache.access(base + line * stride, false);
            prop_assert_eq!(access, Access::Hit);
        }
    }

    #[test]
    fn taint_never_appears_without_a_source(records in arb_stream()) {
        // Feed an arbitrary stream *without* Recv events: TaintCheck must
        // stay silent no matter what.
        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let engine = DispatchEngine::default();
        let mut findings = Vec::new();
        let mut lifeguard = TaintCheck::new();
        for rec in records.iter().filter(|r| r.kind != EventKind::Recv) {
            engine.deliver(&mut lifeguard, rec, &mut mem, 1, &mut findings);
        }
        prop_assert!(findings.is_empty(), "spurious findings: {:?}", findings);
    }

    #[test]
    fn single_thread_never_races(records in arb_stream()) {
        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let engine = DispatchEngine::default();
        let mut findings = Vec::new();
        let mut lifeguard = LockSet::new();
        for rec in &records {
            let mut rec = *rec;
            rec.tid = 0; // collapse to one thread
            engine.deliver(&mut lifeguard, &rec, &mut mem, 1, &mut findings);
        }
        prop_assert!(findings.is_empty(), "single-thread race: {:?}", findings);
    }

    #[test]
    fn fully_locked_accesses_never_race(
        writes in vec((0u64..16, 0u8..3), 1..80)
    ) {
        // Any interleaving of lock-protected writes to 16 words by up to 3
        // threads is race-free under Eraser.
        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let engine = DispatchEngine::default();
        let mut findings = Vec::new();
        let mut lifeguard = LockSet::new();
        let lock_addr = layout::GLOBAL_BASE + 0x500;
        for (word, tid) in writes {
            let addr = layout::HEAP_BASE + word * 4;
            let lock = EventRecord {
                pc: 0x1000, kind: EventKind::Lock, tid,
                in1: Some(1), in2: None, out: None, addr: lock_addr, size: 0,
            };
            let store = EventRecord::store(0x1008, tid, Some(2), Some(3), addr, 4);
            let unlock = EventRecord { kind: EventKind::Unlock, pc: 0x1010, ..lock };
            engine.deliver(&mut lifeguard, &lock, &mut mem, 1, &mut findings);
            engine.deliver(&mut lifeguard, &store, &mut mem, 1, &mut findings);
            engine.deliver(&mut lifeguard, &unlock, &mut mem, 1, &mut findings);
        }
        prop_assert!(findings.is_empty(), "locked writes raced: {:?}", findings);
    }
}
