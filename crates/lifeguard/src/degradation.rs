//! Contract-governed graceful degradation of capture under load.
//!
//! The capture side is statically configured everywhere else in the
//! pipeline; under a load spike the only remaining options are stalling
//! the application core or dropping events with no accounting. This
//! module adds the third option: *declared* degradation. Following the
//! same discipline as [`IdempotencyClass`](crate::IdempotencyClass), each
//! lifeguard publishes a [`DegradationPolicy`] naming exactly which
//! fidelity reductions it tolerates — dedup-window widening, demoting
//! long-settled address regions to 1-in-N sampled capture, dropping
//! profile-only event kinds — and the capture controller in `lba-core`
//! may apply *only* those, only while the transport's load signal is past
//! its engage threshold, and must undo them (flushing what the policy
//! says must flush) the moment load falls, a finding lands, or a syscall
//! phase-change arrives.
//!
//! A lifeguard that tolerates nothing (TaintCheck) declares
//! [`DegradationPolicy::none`] and the controller provably never touches
//! its stream: the controller is not even constructed for an all-`none`
//! policy, so the degraded and undegraded pipelines are the same code.
//!
//! The policy is all a lifeguard says about degradation. The controller
//! has one trigger, the transport's load, and the lifeguard has no
//! run-time say in when it engages: the application and lifeguard cores
//! coordinate only through the log, and the findings the log carries
//! back are what snap capture to full fidelity.
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
/// record can change any finding — the soundness half of a
/// [`SamplingSpec`]. Implementations live next to their lifeguards (the
/// policy carries a constructor), because only the lifeguard knows which
/// of its verdicts are settled by which stream prefix.
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

/// Demotion of long-settled address regions to 1-in-N sampled capture.
#[derive(Debug, Clone, Copy)]
pub struct SamplingSpec {
    /// log2 of the region granule the hot-counter tracks. Must not be
    /// coarser than the granularity at which the classifier's
    /// "settled" answer holds (AddrCheck: its 16-byte allocation
    /// granule).
    pub region_granule_log2: u8,
    /// Settled accesses a region must accumulate (since the last
    /// repromotion) before it is demoted to sampled capture — the
    /// "long-clean" criterion.
    pub clean_threshold: u32,
    /// Once demoted, ship 1 record in this many; the rest are counted as
    /// sampled-out. Values below 2 disable demotion.
    pub sample_rate: u32,
    /// Event kinds whose arrival repromotes *every* region to full
    /// capture (AddrCheck: `alloc`/`free` move allocation state).
    /// Findings and syscalls always repromote, policy regardless.
    pub repromote_on: EventMask,
    /// Builds the capture-side soundness oracle (see
    /// [`RegionClassifier`]).
    pub make_classifier: fn() -> Box<dyn RegionClassifier>,
}

/// A lifeguard's declared tolerance for capture-side degradation under
/// back-pressure — its soundness contract with `lba-core`'s capture
/// controller, in the same spirit as
/// [`IdempotencyClass`](crate::IdempotencyClass).
///
/// The contract has no exceptions: every degradation a policy permits
/// leaves the lifeguard's findings byte-identical to an undegraded
/// run's. What may degrade is only what findings never read (MemProfile
/// has none; its *profile* becomes a sampled estimate).
#[derive(Debug, Clone, Copy)]
pub struct DegradationPolicy {
    /// Whether the dedup window may widen (or switch on, if the run was
    /// configured without one) while degraded. Always sound for any
    /// lifeguard that declares a window at all: a wider window only
    /// suppresses *more* duplicates under the same
    /// [`WindowSpec`](crate::WindowSpec), and re-tightening flushes it.
    pub widen_window: bool,
    /// Event kinds capture may drop outright while degraded. Must be
    /// kinds the lifeguard's verdicts never read — unsubscribed,
    /// profile-only kinds, which the dispatch engine masks to a no-op
    /// handler anyway — and must exclude anything the
    /// [`WindowSpec`](crate::WindowSpec) invalidates on, so the window's
    /// flush triggers still reach it.
    pub droppable: EventMask,
    /// Region demotion to sampled capture, with its soundness oracle.
    /// `None` means the lifeguard tolerates no sampling (LockSet: a
    /// sampled-out access could be a fresh word's first touch, whose
    /// Virgin → Exclusive initialisation later race checks depend on).
    pub sampling: Option<SamplingSpec>,
}

impl DegradationPolicy {
    /// The policy that tolerates nothing: the controller is never
    /// constructed, and the stream is provably untouched (TaintCheck).
    #[must_use]
    pub fn none() -> Self {
        DegradationPolicy {
            widen_window: false,
            droppable: EventMask::EMPTY,
            sampling: None,
        }
    }

    /// Whether this policy permits no degradation at all.
    #[must_use]
    pub fn is_none(&self) -> bool {
        !self.widen_window && self.droppable.is_empty() && self.sampling.is_none()
    }
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy::none()
    }
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

/// The generic half of region demotion: a direct-mapped table of
/// per-region hot counters, generation-cleared on repromotion. The
/// lifeguard-specific half (soundness) lives in the
/// [`RegionClassifier`] the policy supplies; this table only answers
/// "has this region been settled often enough, and is this record the
/// 1-in-N survivor?".
#[derive(Debug)]
pub struct RegionSampler {
    spec: SamplingSpec,
    slots: Vec<SamplerSlot>,
    generation: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct SamplerSlot {
    region: u64,
    generation: u32,
    settled: u32,
    rotation: u32,
}

/// Slot count of the sampler table. Direct-mapped like the idempotency
/// window: a colliding region evicts the previous occupant, which only
/// resets its progress toward demotion — never soundness.
const SAMPLER_SLOTS: usize = 1 << 12;

impl RegionSampler {
    /// Builds the sampler for one spec. Returns `None` when the spec's
    /// rate cannot drop anything.
    #[must_use]
    pub fn new(spec: SamplingSpec) -> Option<Self> {
        if spec.sample_rate < 2 {
            return None;
        }
        Some(RegionSampler {
            spec,
            slots: vec![SamplerSlot::default(); SAMPLER_SLOTS],
            generation: 1,
        })
    }

    /// Repromotes every region to full capture (lazily, via generation).
    pub fn repromote_all(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// Whether `kind`'s arrival must repromote everything.
    #[must_use]
    pub fn repromotes(&self, rec: &EventRecord) -> bool {
        self.spec.repromote_on.contains(rec.kind)
    }

    /// Decides one settled access: `true` means drop (sampled out). Only
    /// called for records whose classifier already answered
    /// `verdict_settled`. An access spanning two regions never drops —
    /// the demotion state of one region says nothing about the other.
    pub fn sample_out(&mut self, rec: &EventRecord) -> bool {
        let g = self.spec.region_granule_log2;
        let first = rec.addr >> g;
        let last = (rec.addr + u64::from(rec.size.max(1)) - 1) >> g;
        if first != last {
            return false;
        }
        let idx = (first.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & (SAMPLER_SLOTS - 1);
        let slot = &mut self.slots[idx];
        if slot.region != first || slot.generation != self.generation {
            *slot = SamplerSlot {
                region: first,
                generation: self.generation,
                settled: 1,
                rotation: 0,
            };
            return false;
        }
        if slot.settled < self.spec.clean_threshold {
            slot.settled += 1;
            return false;
        }
        // Demoted: ship the 1-in-N survivor, drop the rest.
        slot.rotation = (slot.rotation + 1) % self.spec.sample_rate;
        slot.rotation != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lba_record::EventKind;

    fn spec(threshold: u32, rate: u32) -> SamplingSpec {
        SamplingSpec {
            region_granule_log2: 4,
            clean_threshold: threshold,
            sample_rate: rate,
            repromote_on: EventMask::of(&[EventKind::Alloc, EventKind::Free]),
            make_classifier: || Box::new(AlwaysSettled),
        }
    }

    fn load(addr: u64) -> EventRecord {
        EventRecord::load(0x1000, 0, Some(1), Some(2), addr, 4)
    }

    #[test]
    fn none_policy_is_none() {
        assert!(DegradationPolicy::none().is_none());
        let mut p = DegradationPolicy::none();
        p.widen_window = true;
        assert!(!p.is_none());
    }

    #[test]
    fn sampler_demotes_only_past_the_threshold() {
        let mut s = RegionSampler::new(spec(3, 4)).unwrap();
        // Three settled observations to reach the threshold: all ship.
        for _ in 0..3 {
            assert!(!s.sample_out(&load(0x40)));
        }
        // Demoted: of the next 8, exactly 2 survive (rotation hits 0
        // every 4th).
        let shipped = (0..8).filter(|_| !s.sample_out(&load(0x40))).count();
        assert_eq!(shipped, 2);
    }

    #[test]
    fn repromotion_resets_demotion() {
        let mut s = RegionSampler::new(spec(2, 2)).unwrap();
        for _ in 0..6 {
            s.sample_out(&load(0x40));
        }
        s.repromote_all();
        assert!(!s.sample_out(&load(0x40)), "first access after repromote");
        assert!(!s.sample_out(&load(0x40)), "still under threshold");
        assert!(s.sample_out(&load(0x40)), "demoted again past it");
    }

    #[test]
    fn straddling_accesses_never_drop() {
        let mut s = RegionSampler::new(spec(0, 2)).unwrap();
        let wide = EventRecord::load(0x1000, 0, None, None, 0x4c, 8);
        for _ in 0..16 {
            assert!(!s.sample_out(&wide), "16-byte-granule straddle ships");
        }
    }

    #[test]
    fn rate_below_two_disables_sampling() {
        assert!(RegionSampler::new(spec(0, 1)).is_none());
        assert!(RegionSampler::new(spec(0, 0)).is_none());
    }

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
