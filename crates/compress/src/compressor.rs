//! The streaming record compressor/decompressor pair.

use std::fmt;

use lba_record::{EventKind, EventRecord};

use crate::bits::{BitReader, BitWriter};
use crate::predictors::FcmPredictor;

/// log2 of the per-PC table sizes (successor table and static-field /
/// address-predictor table).
const PC_TABLE_LOG2: u32 = 12;

/// A direct-mapped, tag-checked table keyed by program counter — the
/// software model of the finite hardware tables the paper's compression
/// engine would use (a BTB-style successor table and a per-PC predictor
/// bank). A colliding PC simply evicts the previous occupant: both ends of
/// the stream run the identical table, so evictions are mirrored and only
/// cost compression ratio, never correctness.
#[derive(Debug, Clone)]
struct PcTable<T> {
    slots: Vec<Option<(u64, T)>>,
}

impl<T: Clone> PcTable<T> {
    fn new() -> Self {
        PcTable {
            slots: vec![None; 1 << PC_TABLE_LOG2],
        }
    }

    #[inline]
    fn index(key: u64) -> usize {
        // Fibonacci multiply-and-fold: the software stand-in for the
        // trivial bit-slice index hash hardware would use.
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> (64 - PC_TABLE_LOG2)) as usize
    }

    /// The entry for `key`, if `key` currently owns its slot.
    #[inline]
    fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        match &mut self.slots[Self::index(key)] {
            Some((tag, value)) if *tag == key => Some(value),
            _ => None,
        }
    }

    /// Installs `value` for `key`, evicting any collider.
    #[inline]
    fn insert(&mut self, key: u64, value: T) -> &mut T {
        let slot = &mut self.slots[Self::index(key)];
        *slot = Some((key, value));
        &mut slot.as_mut().expect("just written").1
    }

    /// The raw slot `key` maps to, for flows that check the tag and then
    /// conditionally overwrite under a single probe.
    #[inline]
    fn slot(&mut self, key: u64) -> &mut Option<(u64, T)> {
        &mut self.slots[Self::index(key)]
    }
}

/// Static (per-PC) record fields cached by both ends of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StaticInfo {
    kind: EventKind,
    in1: Option<u8>,
    in2: Option<u8>,
    out: Option<u8>,
    /// Load/store width in bytes (0 when not a memory access).
    width: u32,
    /// Direct branch/jump/call target, or syscall number (kind-dependent).
    static_word: u64,
}

/// Per-PC dynamic prediction state.
#[derive(Debug, Clone)]
struct PcEntry {
    statics: StaticInfo,
    addr_last: u64,
    addr_stride: u64,
    /// Learned offset from the *previous record's* address (whatever PC it
    /// came from) to this PC's address — catches base+0/+8/+16 field walks
    /// whose base is itself unpredictable.
    glob_offset: u64,
    d1: u64,
    d2: u64,
    last_size: u32,
}

impl PcEntry {
    fn new(statics: StaticInfo) -> Self {
        PcEntry {
            statics,
            addr_last: 0,
            addr_stride: 0,
            glob_offset: 0,
            d1: 0,
            d2: 0,
            last_size: 0,
        }
    }
}

fn has_dynamic_addr(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::Load
            | EventKind::Store
            | EventKind::IndirectJump
            | EventKind::Alloc
            | EventKind::Free
            | EventKind::Lock
            | EventKind::Unlock
            | EventKind::Recv
            | EventKind::Return
            | EventKind::Repeat
    )
}

fn has_static_word(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::Branch | EventKind::Jump | EventKind::Call | EventKind::Syscall
    )
}

fn has_dynamic_size(kind: EventKind) -> bool {
    // A Repeat summary's `size` is its fold count, which varies per
    // occurrence like an allocation length does.
    matches!(kind, EventKind::Alloc | EventKind::Recv | EventKind::Repeat)
}

/// Address-predictor outcome codes (2 bits on the wire; `ADDR_ESCAPE` is
/// followed by a signed varint delta from the last address, zero meaning
/// a last-value repeat).
const ADDR_STRIDE: u64 = 0;
const ADDR_GLOBAL: u64 = 1;
const ADDR_FCM: u64 = 2;
const ADDR_ESCAPE: u64 = 3;

/// Depth of the per-PC successor stack (see [`Successor`]).
const SUCC_DEPTH: usize = 4;

/// One successor-table entry: the [`SUCC_DEPTH`] most recent distinct
/// successors of a PC, most-recently-used first.
///
/// The stack makes the PC predictor *dedup-aware*. The capture-side
/// idempotency window is a finite direct-mapped table, so whether a given
/// record is suppressed depends on eviction and flush timing: in a deduped
/// stream the record admitted after PC `A` alternates among `A`'s true
/// successor and the successors *after* the suppressed runs. A
/// single-entry table thrashes among those targets and pays a varint
/// escape on every flip — which is how a heavily-deduped stream
/// (LockSet's exact-address window) came to ship more wire bits on fewer
/// records than the unfiltered run. Keeping the recent set makes any
/// admitted continuation a short unary outcome (depth `d` costs `d+1`
/// bits in the slow path; depths 1–2 have dedicated fast paths);
/// genuinely new control flow still evicts the oldest entry.
#[derive(Debug, Clone, Copy)]
struct Successor {
    mru: [u64; SUCC_DEPTH],
}

impl Successor {
    fn seed(pc: u64) -> Self {
        Successor {
            mru: [pc; SUCC_DEPTH],
        }
    }

    /// Applies the MRU update rule after this entry made a prediction: a
    /// hit moves the matched successor to the front, a miss pushes the
    /// actual successor and evicts the oldest. The decoder mirrors this
    /// exactly — the rule is part of the wire format.
    fn observe(&mut self, actual: u64) {
        let i = self
            .mru
            .iter()
            .position(|&pc| pc == actual)
            .unwrap_or(SUCC_DEPTH - 1);
        for j in (1..=i).rev() {
            self.mru[j] = self.mru[j - 1];
        }
        self.mru[0] = actual;
    }
}

/// Shared predictor state for one direction of the stream.
///
/// The program counter is predicted with a *last-successor* table (a BTB
/// analogue): for each PC, remember the PC that followed it last time.
/// Sequential code and loop back-edges both hit with one flag bit; only the
/// first traversal of an edge and data-dependent branch flips pay a varint.
#[derive(Debug)]
struct StreamState {
    /// Per-thread most recent PC (`u64::MAX` = no instruction yet).
    last_pc: Vec<u64>,
    /// The most recent distinct successors of each PC (shared across
    /// threads), MRU first (see [`Successor`]).
    succ: PcTable<Successor>,
    entries: PcTable<PcEntry>,
    fcm: FcmPredictor,
    last_tid: u8,
    /// Address of the most recent address-carrying record, any PC (feeds
    /// the global-correlation predictor).
    global_last_addr: u64,
}

impl StreamState {
    fn new() -> Self {
        StreamState {
            last_pc: Vec::new(),
            succ: PcTable::new(),
            entries: PcTable::new(),
            fcm: FcmPredictor::default(),
            last_tid: 0,
            global_last_addr: 0,
        }
    }

    /// The slot holding `tid`'s most recent PC (`u64::MAX` = first record
    /// of the thread), growing the table on a new thread id.
    fn last_pc_slot(&mut self, tid: u8) -> &mut u64 {
        let idx = tid as usize;
        if self.last_pc.len() <= idx {
            self.last_pc.resize(idx + 1, u64::MAX);
        }
        &mut self.last_pc[idx]
    }
}

/// Default last-successor prediction for a PC never seen before:
/// fall-through to the next 8-byte instruction slot.
fn fallthrough(pc: u64) -> u64 {
    pc.wrapping_add(8)
}

/// The hardware log-compression engine model.
///
/// Feed records in retirement order; [`LogCompressor::encode`] appends the
/// compressed form to a [`BitWriter`], whose
/// [`len_bits`](BitWriter::len_bits) grows by the record's bit cost.
#[derive(Debug)]
pub struct LogCompressor {
    state: StreamState,
}

impl Default for LogCompressor {
    fn default() -> Self {
        Self::new()
    }
}

impl LogCompressor {
    /// Creates a compressor with cold predictors.
    #[must_use]
    pub fn new() -> Self {
        LogCompressor {
            state: StreamState::new(),
        }
    }

    /// Encodes one record, appending its compressed form to `w`.
    pub fn encode(&mut self, rec: &EventRecord, w: &mut BitWriter) {
        let s = &mut self.state;

        // 1-3. Header: thread id, program counter (MRU successor-stack
        // prediction), and the per-PC static fields. The overwhelmingly
        // common case — same thread, most-recent successor, cached
        // statics — is a single fast-path bit; the same header with the
        // *second* most-recent successor (the dedup-alternation case) is
        // two bits; otherwise the three individual flag-bit fields follow.
        let tid_hit = rec.tid == s.last_tid;
        let last = std::mem::replace(s.last_pc_slot(rec.tid), rec.pc);
        let stack = if last == u64::MAX {
            [0; SUCC_DEPTH]
        } else {
            match s.succ.get_mut(last) {
                Some(succ) => {
                    let stack = succ.mru;
                    // In-place update through the same probe.
                    succ.observe(rec.pc);
                    stack
                }
                None => {
                    s.succ.insert(last, Successor::seed(rec.pc));
                    [fallthrough(last); SUCC_DEPTH]
                }
            }
        };
        let depth = stack.iter().position(|&pc| pc == rec.pc);
        let statics = StaticInfo {
            kind: rec.kind,
            in1: rec.in1,
            in2: rec.in2,
            out: rec.out,
            width: if rec.is_memory() { rec.size } else { 0 },
            static_word: match rec.kind {
                EventKind::Branch | EventKind::Jump | EventKind::Call => rec.addr,
                EventKind::Syscall => u64::from(rec.size),
                _ => 0,
            },
        };
        let slot = s.entries.slot(rec.pc);
        let statics_hit = matches!(slot, Some((tag, e)) if *tag == rec.pc && e.statics == statics);

        if tid_hit && depth == Some(0) && statics_hit {
            w.write_bit(true);
        } else if tid_hit && depth == Some(1) && statics_hit {
            // The alternate fast path: identical header except the PC is
            // the stack's second entry — the shape dedup alternation
            // produces in bulk.
            w.write_bit(false);
            w.write_bit(true);
        } else {
            w.write_bit(false);
            w.write_bit(false);
            if tid_hit {
                w.write_bit(true);
            } else {
                w.write_bit(false);
                w.write_bits(u64::from(rec.tid), 8);
                s.last_tid = rec.tid;
            }
            // PC outcome, unary by stack depth: `1` = most recent, `01` =
            // second, …; SUCC_DEPTH zeros = miss, explicit signed delta
            // from the front of the stack follows.
            match depth {
                Some(d) => {
                    for _ in 0..d {
                        w.write_bit(false);
                    }
                    w.write_bit(true);
                }
                None => {
                    for _ in 0..SUCC_DEPTH {
                        w.write_bit(false);
                    }
                    w.write_ivarint(rec.pc.wrapping_sub(stack[0]) as i64);
                }
            }
            if statics_hit {
                w.write_bit(true);
            } else {
                w.write_bit(false);
                write_statics(w, &statics);
            }
        }
        if !statics_hit {
            *slot = Some((rec.pc, PcEntry::new(statics)));
        }
        let entry = &mut slot.as_mut().expect("present or just written").1;

        // 4. Dynamic fields (still under the single `entries` probe).
        if rec.kind == EventKind::Branch {
            w.write_bit(rec.size != 0);
        }
        if has_dynamic_addr(rec.kind) {
            encode_addr(
                w,
                &mut s.fcm,
                rec.pc,
                entry,
                &mut s.global_last_addr,
                rec.addr,
            );
        }
        if has_dynamic_size(rec.kind) {
            if entry.last_size == rec.size {
                w.write_bit(true);
            } else {
                w.write_bit(false);
                w.write_uvarint(u64::from(rec.size));
                entry.last_size = rec.size;
            }
        }
    }
}

fn write_statics(w: &mut BitWriter, st: &StaticInfo) {
    w.write_bits(u64::from(st.kind.code()), 4);
    for op in [st.in1, st.in2, st.out] {
        match op {
            Some(reg) => {
                w.write_bit(true);
                w.write_bits(u64::from(reg), 4);
            }
            None => w.write_bit(false),
        }
    }
    if matches!(st.kind, EventKind::Load | EventKind::Store) {
        w.write_bits(u64::from(st.width.trailing_zeros()), 2);
    }
    if has_static_word(st.kind) {
        w.write_uvarint(st.static_word);
    }
}

fn encode_addr(
    w: &mut BitWriter,
    fcm: &mut FcmPredictor,
    pc: u64,
    e: &mut PcEntry,
    global_last: &mut u64,
    actual: u64,
) {
    let stride_pred = e.addr_last.wrapping_add(e.addr_stride);
    let global_pred = global_last.wrapping_add(e.glob_offset);
    if stride_pred == actual {
        w.write_bits(ADDR_STRIDE, 2);
    } else if global_pred == actual {
        w.write_bits(ADDR_GLOBAL, 2);
    // The FCM probe is lazy: it is a pure read, so skipping it on a
    // stride/global hit leaves the mirrored predictor state untouched.
    } else if e.addr_last.wrapping_add(fcm.predict(pc, e.d1, e.d2)) == actual {
        w.write_bits(ADDR_FCM, 2);
    } else {
        w.write_bits(ADDR_ESCAPE, 2);
        w.write_ivarint(actual.wrapping_sub(e.addr_last) as i64);
    }
    update_addr(fcm, pc, e, global_last, actual);
}

fn update_addr(
    fcm: &mut FcmPredictor,
    pc: u64,
    e: &mut PcEntry,
    global_last: &mut u64,
    actual: u64,
) {
    let delta = actual.wrapping_sub(e.addr_last);
    fcm.update(pc, e.d1, e.d2, delta);
    e.d2 = e.d1;
    e.d1 = delta;
    e.addr_stride = delta;
    e.addr_last = actual;
    e.glob_offset = actual.wrapping_sub(*global_last);
    *global_last = actual;
}

/// Error produced by [`LogDecompressor::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeStreamError {
    /// The bit stream ended mid-record.
    UnexpectedEof,
    /// A static payload named an invalid event-kind code.
    BadKind(u8),
    /// A record claimed its static fields were already known for a PC
    /// whose static fields the stream never carried.
    UnknownPc(u64),
}

impl fmt::Display for DecodeStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeStreamError::UnexpectedEof => write!(f, "compressed stream ended mid-record"),
            DecodeStreamError::BadKind(k) => write!(f, "invalid event kind code {k} in stream"),
            DecodeStreamError::UnknownPc(pc) => {
                write!(f, "record reuses static fields never sent for pc {pc:#x}")
            }
        }
    }
}

impl std::error::Error for DecodeStreamError {}

/// The hardware log-decompression engine model: mirrors [`LogCompressor`]
/// predictor-for-predictor, reproducing the exact record stream.
#[derive(Debug)]
pub struct LogDecompressor {
    state: StreamState,
}

impl Default for LogDecompressor {
    fn default() -> Self {
        Self::new()
    }
}

impl LogDecompressor {
    /// Creates a decompressor with cold predictors.
    #[must_use]
    pub fn new() -> Self {
        LogDecompressor {
            state: StreamState::new(),
        }
    }

    /// Decodes the next record.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeStreamError`] when the stream is truncated or
    /// corrupt.
    pub fn decode(&mut self, r: &mut BitReader<'_>) -> Result<EventRecord, DecodeStreamError> {
        const EOF: DecodeStreamError = DecodeStreamError::UnexpectedEof;
        let s = &mut self.state;

        // 1-3. Header: a set fast-path bit means same thread, most-recent
        // successor, cached statics; `01` is the same header resolving to
        // the stack's second entry; `00` is followed by the three
        // individual flag-bit fields (mirroring the encoder).
        let fast = r.read_bit().ok_or(EOF)?;
        let alt_fast = !fast && r.read_bit().ok_or(EOF)?;
        let header_hit = fast || alt_fast;
        let tid = if header_hit || r.read_bit().ok_or(EOF)? {
            s.last_tid
        } else {
            let tid = r.read_bits(8).ok_or(EOF)? as u8;
            s.last_tid = tid;
            tid
        };

        // One bounds-checked slot per record, shared by the last-PC read
        // and its write-back.
        let tid_idx = tid as usize;
        if s.last_pc.len() <= tid_idx {
            s.last_pc.resize(tid_idx + 1, u64::MAX);
        }
        let last = s.last_pc[tid_idx];
        /// The actual PC: the fast paths name stack depths 1 and 2
        /// directly; otherwise a unary code selects the stack depth, and
        /// failing that an explicit signed delta from the front of the
        /// stack follows.
        #[inline]
        fn resolve(
            fast: bool,
            alt_fast: bool,
            stack: &[u64; SUCC_DEPTH],
            r: &mut BitReader<'_>,
        ) -> Option<u64> {
            if fast {
                return Some(stack[0]);
            }
            if alt_fast {
                return Some(stack[1]);
            }
            for &entry in stack {
                if r.read_bit()? {
                    return Some(entry);
                }
            }
            let delta = r.read_ivarint()?;
            Some(stack[0].wrapping_add(delta as u64))
        }
        let pc = if last == u64::MAX {
            resolve(fast, alt_fast, &[0; SUCC_DEPTH], r).ok_or(EOF)?
        } else {
            match s.succ.get_mut(last) {
                Some(succ) => {
                    let stack = succ.mru;
                    let pc = resolve(fast, alt_fast, &stack, r).ok_or(EOF)?;
                    succ.observe(pc);
                    pc
                }
                None => {
                    let f = fallthrough(last);
                    let pc = resolve(fast, alt_fast, &[f; SUCC_DEPTH], r).ok_or(EOF)?;
                    s.succ.insert(last, Successor::seed(pc));
                    pc
                }
            }
        };
        s.last_pc[tid_idx] = pc;

        let entry: &mut PcEntry = if header_hit || r.read_bit().ok_or(EOF)? {
            s.entries
                .get_mut(pc)
                .ok_or(DecodeStreamError::UnknownPc(pc))?
        } else {
            let statics = read_statics(r)?;
            s.entries.insert(pc, PcEntry::new(statics))
        };
        let statics = entry.statics;

        // 4. Dynamic fields.
        let mut size = match statics.kind {
            EventKind::Load | EventKind::Store => statics.width,
            EventKind::Syscall => statics.static_word as u32,
            _ => 0,
        };
        let mut addr = if has_static_word(statics.kind) && statics.kind != EventKind::Syscall {
            statics.static_word
        } else {
            0
        };
        if statics.kind == EventKind::Branch {
            size = u32::from(r.read_bit().ok_or(EOF)?);
        }
        if has_dynamic_addr(statics.kind) {
            addr = decode_addr(r, &mut s.fcm, pc, entry, &mut s.global_last_addr)?;
        }
        if has_dynamic_size(statics.kind) {
            if r.read_bit().ok_or(EOF)? {
                size = entry.last_size;
            } else {
                size = r.read_uvarint().ok_or(EOF)? as u32;
                entry.last_size = size;
            }
        }

        Ok(EventRecord {
            pc,
            kind: statics.kind,
            tid,
            in1: statics.in1,
            in2: statics.in2,
            out: statics.out,
            addr,
            size,
        })
    }
}

fn read_statics(r: &mut BitReader<'_>) -> Result<StaticInfo, DecodeStreamError> {
    let eof = DecodeStreamError::UnexpectedEof;
    let code = r.read_bits(4).ok_or(eof.clone())? as u8;
    let kind = EventKind::from_code(code).ok_or(DecodeStreamError::BadKind(code))?;
    let mut ops = [None; 3];
    for op in &mut ops {
        if r.read_bit().ok_or(eof.clone())? {
            *op = Some(r.read_bits(4).ok_or(eof.clone())? as u8);
        }
    }
    let width = if matches!(kind, EventKind::Load | EventKind::Store) {
        1u32 << r.read_bits(2).ok_or(eof.clone())?
    } else {
        0
    };
    let static_word = if has_static_word(kind) {
        r.read_uvarint().ok_or(eof)?
    } else {
        0
    };
    Ok(StaticInfo {
        kind,
        in1: ops[0],
        in2: ops[1],
        out: ops[2],
        width,
        static_word,
    })
}

fn decode_addr(
    r: &mut BitReader<'_>,
    fcm: &mut FcmPredictor,
    pc: u64,
    e: &mut PcEntry,
    global_last: &mut u64,
) -> Result<u64, DecodeStreamError> {
    let eof = DecodeStreamError::UnexpectedEof;
    let code = r.read_bits(2).ok_or(eof.clone())?;
    let actual = match code {
        ADDR_STRIDE => e.addr_last.wrapping_add(e.addr_stride),
        ADDR_GLOBAL => global_last.wrapping_add(e.glob_offset),
        ADDR_FCM => e.addr_last.wrapping_add(fcm.predict(pc, e.d1, e.d2)),
        _ => {
            let delta = r.read_ivarint().ok_or(eof)?;
            e.addr_last.wrapping_add(delta as u64)
        }
    };
    update_addr(fcm, pc, e, global_last, actual);
    Ok(actual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lba_record::RAW_RECORD_BYTES;

    /// Round-trips `records` through one compressor; returns the stream's
    /// bytes per record.
    fn round_trip(records: &[EventRecord]) -> f64 {
        let mut c = LogCompressor::new();
        let mut w = BitWriter::new();
        for rec in records {
            c.encode(rec, &mut w);
        }
        let bytes_per_record = w.len_bits() as f64 / 8.0 / records.len() as f64;
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut d = LogDecompressor::new();
        for (i, rec) in records.iter().enumerate() {
            let got = d
                .decode(&mut r)
                .unwrap_or_else(|e| panic!("record {i}: {e}"));
            assert_eq!(got, *rec, "record {i} mismatched");
        }
        bytes_per_record
    }

    #[test]
    fn mixed_kinds_round_trip() {
        let records = vec![
            EventRecord::alu(0x1000, 0, Some(1), Some(2), Some(3)),
            EventRecord::load(0x1008, 0, Some(2), Some(1), 0x4000_0000, 8),
            EventRecord::store(0x1010, 0, Some(1), Some(2), 0x4000_0100, 4),
            EventRecord {
                pc: 0x1018,
                kind: EventKind::Branch,
                tid: 0,
                in1: Some(1),
                in2: Some(0),
                out: None,
                addr: 0x1000,
                size: 1,
            },
            EventRecord {
                pc: 0x1020,
                kind: EventKind::Alloc,
                tid: 0,
                in1: Some(4),
                in2: None,
                out: Some(5),
                addr: 0x4000_0200,
                size: 64,
            },
            EventRecord {
                pc: 0x1028,
                kind: EventKind::Syscall,
                tid: 0,
                in1: None,
                in2: None,
                out: None,
                addr: 0,
                size: 7,
            },
            EventRecord::repeat(0x1008, 0, 0x4000_0000, 8, false, 4096),
            EventRecord {
                pc: 0x1030,
                kind: EventKind::ThreadEnd,
                tid: 0,
                in1: None,
                in2: None,
                out: None,
                addr: 0,
                size: 0,
            },
        ];
        round_trip(&records);
    }

    #[test]
    fn repeat_summaries_interleaved_with_their_pc_round_trip() {
        // A Repeat summary reuses its duplicates' PC, so the per-PC static
        // cache alternates between the load's statics and the summary's:
        // every alternation must re-escape cleanly, and the varying fold
        // counts ride the dynamic-size path.
        let mut records = Vec::new();
        for i in 0..500u64 {
            records.push(EventRecord::load(
                0x2000,
                0,
                Some(1),
                Some(2),
                0x4000_0000 + (i % 4) * 64,
                4,
            ));
            if i % 7 == 0 {
                records.push(EventRecord::repeat(
                    0x2000,
                    0,
                    0x4000_0000 + (i % 4) * 64,
                    4,
                    false,
                    (i + 1) as u32,
                ));
            }
        }
        round_trip(&records);
    }

    #[test]
    fn hot_loop_compresses_below_one_byte() {
        // Model a tight loop: alu, strided load, branch — repeated.
        let mut records = Vec::new();
        for i in 0..10_000u64 {
            records.push(EventRecord::alu(0x1000, 0, Some(1), Some(2), Some(1)));
            records.push(EventRecord::load(
                0x1008,
                0,
                Some(3),
                Some(4),
                0x4000_0000 + i * 8,
                8,
            ));
            records.push(EventRecord {
                pc: 0x1010,
                kind: EventKind::Branch,
                tid: 0,
                in1: Some(1),
                in2: Some(0),
                out: None,
                addr: 0x1000,
                size: 1,
            });
        }
        let bytes_per_record = round_trip(&records);
        assert!(
            bytes_per_record < 1.0,
            "expected <1 B/record, got {bytes_per_record:.3}"
        );
    }

    #[test]
    fn interleaved_threads_round_trip() {
        let mut records = Vec::new();
        for i in 0..200u64 {
            let tid = (i % 3) as u8;
            records.push(EventRecord::load(
                0x1000 + tid as u64 * 8,
                tid,
                Some(1),
                Some(2),
                0x4000_0000 + i * 16,
                4,
            ));
        }
        round_trip(&records);
    }

    #[test]
    fn random_addresses_still_round_trip() {
        // Linear congruential garbage addresses: predictor misses galore.
        let mut x = 0x12345u64;
        let mut records = Vec::new();
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            records.push(EventRecord::load(0x1000, 0, Some(1), None, x, 1));
        }
        assert!(
            round_trip(&records) < RAW_RECORD_BYTES as f64,
            "never worse than raw + eps"
        );
    }

    #[test]
    fn alternating_stride_pattern_uses_fcm() {
        // +8/+56 alternation defeats stride; FCM should catch it, keeping
        // the cost low.
        let mut addr = 0x4000_0000u64;
        let mut records = Vec::new();
        for i in 0..4000 {
            records.push(EventRecord::load(0x1000, 0, Some(1), None, addr, 8));
            addr += if i % 2 == 0 { 8 } else { 56 };
        }
        let bytes_per_record = round_trip(&records);
        assert!(
            bytes_per_record < 1.5,
            "fcm should keep alternating strides cheap, got {bytes_per_record:.3}"
        );
    }

    #[test]
    fn truncated_stream_reports_eof() {
        let mut c = LogCompressor::new();
        let mut w = BitWriter::new();
        c.encode(
            &EventRecord::load(0x1000, 3, Some(1), None, 0x4000_0000, 8),
            &mut w,
        );
        let mut bytes = w.into_bytes();
        bytes.truncate(1);
        let mut d = LogDecompressor::new();
        let mut r = BitReader::new(&bytes);
        assert_eq!(d.decode(&mut r), Err(DecodeStreamError::UnexpectedEof));
    }

    #[test]
    fn alloc_sizes_use_last_value_prediction() {
        let mut records = Vec::new();
        for i in 0..100u64 {
            records.push(EventRecord {
                pc: 0x1000,
                kind: EventKind::Alloc,
                tid: 0,
                in1: Some(1),
                in2: None,
                out: Some(2),
                addr: 0x4000_0000 + i * 64,
                size: 64,
            });
        }
        assert!(round_trip(&records) < 1.5);
    }
}
