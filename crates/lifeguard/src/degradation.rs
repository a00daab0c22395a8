//! Contract-governed graceful degradation of capture under load.
//!
//! The capture side is statically configured everywhere else in the
//! pipeline; under a load spike the only remaining options are stalling
//! the application core or dropping events with no accounting. This
//! module adds the third option: *declared* degradation. Following the
//! same discipline as [`IdempotencyClass`](crate::IdempotencyClass), each
//! lifeguard that tolerates degradation publishes a [`DegradationPolicy`]
//! naming which fidelity reductions are sound for it — dropping
//! profile-only event kinds, demoting long-settled address regions to
//! 1-in-N sampled capture — and the capture controller in `lba-core` may
//! apply *only* those, plus widening the lifeguard's dedup window, only
//! while the transport's load signal is past its engage threshold, and
//! must undo them the moment load falls, a finding lands, or a syscall
//! phase-change arrives.
//!
//! A lifeguard that tolerates nothing (TaintCheck) declares no policy,
//! and the controller provably never touches its stream: it is not even
//! constructed, so the degraded and undegraded pipelines are the same
//! code.
//!
//! The policy restates nothing the lifeguard's dedup window
//! ([`WindowSpec`](crate::WindowSpec)) declares. Widening the window is
//! sound by its own contract, so any declared policy permits it. A
//! sampled region is one window granule, and each of the window's
//! invalidating kinds repromotes every region; a lifeguard with no window
//! is never sampled.
//!
//! The policy is all a lifeguard says about degradation: *which*
//! reductions are sound. *How much* is the controller's, the same for
//! every lifeguard: its load thresholds, its sampling cadence, the size
//! the window widens to and the 1-in-N rate of a demoted region are
//! constants of `lba-core`'s controller. The controller has one trigger,
//! the transport's load, and the lifeguard has no run-time say in when it
//! engages: the application and lifeguard cores coordinate only through
//! the log, and the findings the log carries back are what snap capture
//! to full fidelity.
//!
//! Soundness of *sampling* is delegated to a per-lifeguard
//! [`RegionClassifier`]: the policy ships a constructor for a small
//! capture-side oracle that watches the record stream and answers, per
//! access, "is this verdict already settled?" — e.g. AddrCheck's
//! classifier mirrors allocation state from the `alloc`/`free` records it
//! sees, so an access to a currently-allocated granule (or outside the
//! heap) provably cannot produce a finding and may be sampled out once
//! its region has proven hot. The classifier sees every record *before*
//! any degradation decision, so its state never lags the stream it
//! filters.

use lba_record::{EventMask, EventRecord};

/// A capture-side oracle deciding, per access, whether dropping the
/// record can change any finding — the soundness half of region
/// sampling. Implementations live next to their lifeguards (the policy
/// carries a constructor), because only the lifeguard knows which of its
/// verdicts are settled by which stream prefix.
pub trait RegionClassifier: std::fmt::Debug + Send {
    /// Observes one record of the capture stream (every record, shipped
    /// or not, in stream order) to keep the oracle's state current.
    fn observe(&mut self, rec: &EventRecord);

    /// Whether the verdict for this load/store is already settled — i.e.
    /// dropping the record provably cannot add, remove or alter a
    /// finding. Called only for memory accesses.
    fn verdict_settled(&self, rec: &EventRecord) -> bool;
}

/// A classifier that settles every access — sound only for lifeguards
/// with no findings to lose (MemProfile, whose profile degrades to a
/// sampled estimate while its finding set stays trivially exact).
#[derive(Debug, Default)]
pub struct AlwaysSettled;

impl RegionClassifier for AlwaysSettled {
    fn observe(&mut self, _rec: &EventRecord) {}

    fn verdict_settled(&self, _rec: &EventRecord) -> bool {
        true
    }
}

/// A lifeguard's declared tolerance for capture-side degradation under
/// back-pressure — its soundness contract with `lba-core`'s capture
/// controller, in the same spirit as
/// [`IdempotencyClass`](crate::IdempotencyClass). Declaring one at all
/// also lets the controller widen the lifeguard's dedup window while
/// degraded, which the window's own contract already makes sound.
///
/// The contract has no exceptions: every degradation a policy permits
/// leaves the lifeguard's findings byte-identical to an undegraded
/// run's. What may degrade is only what findings never read (MemProfile
/// has none; its *profile* becomes a sampled estimate).
#[derive(Debug, Clone, Copy)]
pub struct DegradationPolicy {
    /// Event kinds capture may drop outright while degraded. Must be
    /// kinds the lifeguard's verdicts never read — unsubscribed,
    /// profile-only kinds, which the dispatch engine masks to a no-op
    /// handler anyway. The controller never drops a kind the
    /// [`WindowSpec`](crate::WindowSpec) invalidates on, even one listed
    /// here, so the window's flush triggers still reach it.
    pub droppable: EventMask,
    /// Builds the soundness oracle under which long-settled regions
    /// demote to sampled capture (see [`RegionClassifier`]); the regions
    /// and what repromotes them are the lifeguard's dedup window's (see
    /// the module docs). `None` means the lifeguard tolerates no sampling
    /// (LockSet: a sampled-out access could be a fresh word's first
    /// touch, whose Virgin → Exclusive initialisation later race checks
    /// depend on).
    pub make_classifier: Option<fn() -> Box<dyn RegionClassifier>>,
}

/// One engage→disengage span of degraded capture, in units of records
/// the controller observed — every retired record, shipped or dropped,
/// so the interval bounds index the *pre-degradation* stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedInterval {
    /// Controller record count at which degradation engaged (the first
    /// record index subject to it).
    pub from_record: u64,
    /// Controller record count at which capture snapped back to full
    /// fidelity (exclusive; equals the final count if the run ended
    /// degraded).
    pub to_record: u64,
    /// Records sampled out inside this interval.
    pub sampled_out: u64,
    /// Droppable-kind records dropped inside this interval.
    pub kind_dropped: u64,
}

/// Cap on individually-recorded intervals: hysteresis bounds flapping,
/// but a pathological load profile must not grow an unbounded `Vec` in a
/// stats struct. Totals keep counting past the cap.
pub const MAX_RECORDED_INTERVALS: usize = 4096;

/// What the capture controller did over one run — the degradation
/// counterpart of [`CaptureStats`](crate::CaptureStats), surfaced through
/// `LogStats` in every report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// Every degraded interval, in engage order (capped at
    /// [`MAX_RECORDED_INTERVALS`]; `engagements` keeps the true count).
    pub intervals: Vec<DegradedInterval>,
    /// Times degradation engaged.
    pub engagements: u64,
    /// Times capture snapped back to full fidelity because of a finding
    /// or a syscall (a subset of disengagements).
    pub snapbacks: u64,
    /// Records dropped by region sampling (would have shipped otherwise).
    pub sampled_out: u64,
    /// Droppable-kind records dropped.
    pub kind_dropped: u64,
    /// Records that passed capture while degradation was engaged
    /// (shipped or not).
    pub degraded_records: u64,
}

impl DegradationStats {
    /// Whether the controller ever engaged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.engagements == 0
    }

    /// Total records the degraded intervals removed from the wire.
    #[must_use]
    pub fn removed(&self) -> u64 {
        self.sampled_out + self.kind_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_removed_sums_drops() {
        let stats = DegradationStats {
            sampled_out: 7,
            kind_dropped: 5,
            engagements: 1,
            ..DegradationStats::default()
        };
        assert!(!stats.is_empty());
        assert_eq!(stats.removed(), 12);
    }
}
