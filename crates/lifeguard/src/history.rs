//! Execution-history indexing: the paper's "how did I get here" analysis.
//!
//! §1: "A key advantage of a log-based approach is that the log captures
//! the dynamic history of a monitored program. Thus it enables lifeguards
//! to use this history to detect sophisticated bugs or answer *'how did I
//! get here'* analysis questions…"
//!
//! [`HistoryIndex`] is that capability as a composable consumer: feed it
//! the record stream (alongside any lifeguard) and it answers, after the
//! fact,
//!
//! * **who last wrote** a given address (the last `K` writer records), and
//! * **how control got here** — the last `K` control transfers of a
//!   thread, a dynamic path fragment ending at the current instruction.

use std::collections::{HashMap, VecDeque};

use lba_record::{EventKind, EventRecord};

/// A remembered write to an address range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteEvent {
    /// Program counter of the store (or `recv`).
    pub pc: u64,
    /// Thread that performed it.
    pub tid: u8,
    /// First byte written.
    pub addr: u64,
    /// Bytes written.
    pub len: u32,
    /// Position of the record in the log (0-based).
    pub seq: u64,
}

/// A remembered control transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlEvent {
    /// The transfer instruction's program counter.
    pub pc: u64,
    /// Its kind (branch, jump, indirect jump, call, return).
    pub kind: EventKind,
    /// The target (0 for a not-taken branch).
    pub target: u64,
    /// Position of the record in the log.
    pub seq: u64,
}

/// Bounded execution-history index over the event log.
///
/// Memory use is `O(addresses-written × depth + threads × depth)`; the
/// depth bounds how far back each question can be answered, mirroring the
/// paper's observation that rewind support needs only bounded extra state.
///
/// # Examples
///
/// ```
/// use lba_lifeguard::history::HistoryIndex;
/// use lba_record::EventRecord;
///
/// let mut history = HistoryIndex::new(4);
/// history.observe(&EventRecord::store(0x1000, 0, Some(1), Some(2), 0x4000_0000, 8));
/// history.observe(&EventRecord::store(0x2000, 0, Some(1), Some(2), 0x4000_0000, 8));
/// let writers = history.last_writers(0x4000_0004);
/// assert_eq!(writers.len(), 2);
/// assert_eq!(writers[0].pc, 0x2000, "most recent first");
/// ```
#[derive(Debug, Clone)]
pub struct HistoryIndex {
    depth: usize,
    seq: u64,
    /// Last writers per 8-byte granule, most recent at the back.
    writers: HashMap<u64, VecDeque<WriteEvent>>,
    /// Recent control transfers per thread.
    control: HashMap<u8, VecDeque<ControlEvent>>,
}

/// Write-history granule size in bytes.
const GRANULE: u64 = 8;

impl HistoryIndex {
    /// Creates an index remembering the last `depth` events per question.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "history depth must be non-zero");
        HistoryIndex {
            depth,
            seq: 0,
            writers: HashMap::new(),
            control: HashMap::new(),
        }
    }

    /// Feeds one log record into the index.
    pub fn observe(&mut self, rec: &EventRecord) {
        let seq = self.seq;
        self.seq += 1;
        match rec.kind {
            EventKind::Store | EventKind::Recv => {
                let write = WriteEvent {
                    pc: rec.pc,
                    tid: rec.tid,
                    addr: rec.addr,
                    len: rec.size.max(1),
                    seq,
                };
                let first = rec.addr / GRANULE;
                let last = (rec.addr + u64::from(write.len) - 1) / GRANULE;
                for granule in first..=last {
                    let ring = self.writers.entry(granule).or_default();
                    if ring.len() == self.depth {
                        ring.pop_front();
                    }
                    ring.push_back(write);
                }
            }
            EventKind::Branch
            | EventKind::Jump
            | EventKind::IndirectJump
            | EventKind::Call
            | EventKind::Return => {
                let event = ControlEvent {
                    pc: rec.pc,
                    kind: rec.kind,
                    // A not-taken branch (size 0) stays on the fall-through
                    // path; record target 0 to make that visible.
                    target: if rec.kind == EventKind::Branch && rec.size == 0 {
                        0
                    } else {
                        rec.addr
                    },
                    seq,
                };
                let ring = self.control.entry(rec.tid).or_default();
                if ring.len() == self.depth {
                    ring.pop_front();
                }
                ring.push_back(event);
            }
            _ => {}
        }
    }

    /// The most recent writers of the granule containing `addr`, newest
    /// first (up to the configured depth).
    #[must_use]
    pub fn last_writers(&self, addr: u64) -> Vec<WriteEvent> {
        self.writers
            .get(&(addr / GRANULE))
            .map(|ring| ring.iter().rev().copied().collect())
            .unwrap_or_default()
    }

    /// The most recent control transfers of `tid`, newest first — the
    /// dynamic path fragment answering "how did I get here".
    #[must_use]
    pub fn path_to_here(&self, tid: u8) -> Vec<ControlEvent> {
        self.control
            .get(&tid)
            .map(|ring| ring.iter().rev().copied().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(pc: u64, addr: u64, len: u32) -> EventRecord {
        EventRecord::store(pc, 0, Some(1), Some(2), addr, len)
    }

    #[test]
    fn last_writers_newest_first_and_bounded() {
        let mut h = HistoryIndex::new(2);
        h.observe(&store(0x1000, 0x100, 8));
        h.observe(&store(0x1008, 0x100, 8));
        h.observe(&store(0x1010, 0x100, 8));
        let writers = h.last_writers(0x100);
        assert_eq!(writers.len(), 2, "depth bounds the ring");
        assert_eq!(writers[0].pc, 0x1010);
        assert_eq!(writers[1].pc, 0x1008);
    }

    #[test]
    fn wide_writes_index_every_granule() {
        let mut h = HistoryIndex::new(4);
        h.observe(&store(0x1000, 0x100, 16)); // granules 0x20 and 0x21
        assert_eq!(h.last_writers(0x104).len(), 1);
        assert_eq!(h.last_writers(0x10c).len(), 1);
        assert!(h.last_writers(0x110).is_empty());
    }

    #[test]
    fn recv_counts_as_a_writer() {
        let mut h = HistoryIndex::new(4);
        h.observe(&EventRecord {
            pc: 0x1000,
            kind: EventKind::Recv,
            tid: 0,
            in1: None,
            in2: None,
            out: None,
            addr: 0x200,
            size: 8,
        });
        let writers = h.last_writers(0x200);
        assert_eq!(writers.len(), 1);
    }

    #[test]
    fn path_to_here_tracks_control_per_thread() {
        let mut h = HistoryIndex::new(8);
        let jump = |pc: u64, tid: u8, target: u64| EventRecord {
            pc,
            kind: EventKind::Jump,
            tid,
            in1: None,
            in2: None,
            out: None,
            addr: target,
            size: 0,
        };
        h.observe(&jump(0x1000, 0, 0x2000));
        h.observe(&jump(0x3000, 1, 0x4000));
        h.observe(&jump(0x2000, 0, 0x5000));
        let path = h.path_to_here(0);
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].pc, 0x2000);
        assert_eq!(path[0].target, 0x5000);
        assert_eq!(h.path_to_here(1).len(), 1);
        assert!(h.path_to_here(2).is_empty());
    }

    #[test]
    fn not_taken_branches_record_zero_target() {
        let mut h = HistoryIndex::new(4);
        h.observe(&EventRecord {
            pc: 0x1000,
            kind: EventKind::Branch,
            tid: 0,
            in1: Some(1),
            in2: Some(2),
            out: None,
            addr: 0x9000,
            size: 0, // not taken
        });
        assert_eq!(h.path_to_here(0)[0].target, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_depth_rejected() {
        let _ = HistoryIndex::new(0);
    }
}
