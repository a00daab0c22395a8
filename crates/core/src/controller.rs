//! The adaptive capture controller: contract-governed graceful
//! degradation of capture under transport back-pressure.
//!
//! Every knob of the capture pipeline is otherwise static for a run; when
//! the lifeguard falls behind, the only built-in responses are stalling
//! the application (back-pressure) or — in a real deployment — dropping
//! log data with no accounting. This module adds the middle path the
//! robustness story needs: the producer watches the transport's
//! [`LoadSample`] and, when occupancy crosses a hysteresis threshold,
//! *degrades capture along exactly the axes the lifeguard's declared
//! [`DegradationPolicy`] permits* — widening (or switching on) the dedup
//! window, demoting long-settled address regions to 1-in-N sampled
//! capture under the policy's [`RegionClassifier`] oracle, and dropping
//! event kinds the lifeguard's verdicts never read. A region is one
//! granule of the lifeguard's dedup window ([`WindowSpec`]), and each of
//! the window's invalidating kinds repromotes every region, so a
//! lifeguard that declares no window is never sampled. Falling load, a
//! new finding, or a syscall phase change snaps capture back to full
//! fidelity, flushing the widened window.
//!
//! Load is the one trigger that engages the controller; a finding or a
//! syscall only snaps it back. The lifeguard shapes what degradation may
//! do through its declared policy, but has no say at run time in when:
//! the cores coordinate only through the log (§2), and the finding count
//! is all that flows back. The controller is private to `lba-core`, and
//! outside code only switches it on, with
//! [`LogConfig::adaptive`](crate::LogConfig::adaptive). How hard it
//! steers is fixed here, the same for every lifeguard and every mode:
//! the engage and disengage thresholds, the sampling stride, the widen
//! reserve and the demotion rule are this module's constants.
//!
//! The controller is *not constructed* for a lifeguard that declares no
//! policy (TaintCheck): the degraded and undegraded pipelines are then
//! the same code, which is the strongest possible
//! "provably untouched" argument. Every engage→disengage span is recorded
//! in [`DegradationStats`], and the transition points are flushed to
//! frame boundaries so the wire's degraded mark
//! (`FrameEncoder::set_degraded`) is frame-accurate and survives the
//! flight recorder into replay.

use lba_lifeguard::{
    DegradationPolicy, DegradationStats, DegradedInterval, RegionClassifier, WindowSpec,
    MAX_RECORDED_INTERVALS,
};
use lba_record::{EventKind, EventMask, EventRecord};
use lba_transport::LoadSample;

/// Transport occupancy (permille) at or above which degradation engages.
/// Occupancy tops out at 1000 (full) except when the modeled channel
/// admits a frame larger than its whole budget. Low enough that a short
/// run under an injected slow drain builds the queue excursion.
const ENGAGE_PERMILLE: u32 = 300;

/// Occupancy (permille) at or below which degradation disengages: well
/// under [`ENGAGE_PERMILLE`], or the controller flaps.
const DISENGAGE_PERMILLE: u32 = 100;

/// Records between occupancy samples. Sampling is a couple of atomic or
/// field reads, but once per record is still wasted work; snapback
/// triggers (findings, syscalls) are checked every record regardless.
const SAMPLE_STRIDE: u32 = 16;

/// Capacity the dedup window widens to while degraded (clamped like
/// `LogConfig::idempotency_window`). [`LogConfig`](crate::LogConfig)
/// gives the capture filter this reserve when `adaptive` is set and the
/// lifeguard declares a policy, and none otherwise.
pub(crate) const WIDEN_ENTRIES: usize = 4096;

/// Settled accesses a region must accumulate since the last repromotion
/// before it demotes to sampled capture: the "long-clean" criterion.
/// Modest, because every repromotion (each engage, and each of the dedup
/// window's invalidating kinds, AddrCheck's `alloc`/`free`) restarts the
/// proof.
const CLEAN_THRESHOLD: u32 = 8;

/// A demoted region ships 1 record in this many; the rest are counted as
/// sampled out.
const SAMPLE_RATE: u32 = 8;

/// Slot count of the sampler table. Direct-mapped like the idempotency
/// window: a colliding region evicts the previous occupant, which only
/// resets its progress toward demotion — never soundness.
const SAMPLER_SLOTS: usize = 1 << 12;

/// A capture-fidelity transition the run loop must apply to its filter
/// and transport. The controller owns the *decision*; the caller owns the
/// plumbing, because only it can flush its channel (and absorb the
/// modeled timing of that flush) and ship the tighten summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transition {
    /// Degradation engaged. The caller must: flush the channel (so the
    /// degraded mark starts on a frame boundary), set the channel's
    /// degraded mark, and widen the capture filter's window (a no-op for
    /// a filter built without a widen reserve).
    Engage,
    /// Degradation disengaged. The caller must: flush the channel, clear
    /// the degraded mark, and tighten the capture filter's window,
    /// shipping the summaries it flushes.
    Disengage,
}

/// What capture must do with one record while the controller is engaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Run the ordinary capture pass.
    Ship,
    /// Drop the record: a settled access sampled out, or a droppable
    /// kind. Already accounted in [`DegradationStats`].
    Drop,
}

/// The per-run controller driving one producer's capture fidelity. Build
/// with [`CaptureController::new`]; drive with one
/// [`tick`](Self::tick) + [`admit`](Self::admit) pair per retired record;
/// close with [`finish`](Self::finish).
#[derive(Debug)]
pub(crate) struct CaptureController {
    /// Event kinds the policy lets degraded capture drop outright.
    droppable: EventMask,
    /// Region demotion, when the policy names a classifier and the
    /// lifeguard declares a dedup window.
    sampler: Option<RegionSampler>,
    /// Records observed at capture (every retired record, shipped or
    /// dropped) — the unit degraded intervals are expressed in.
    records: u64,
    since_sample: u32,
    /// A syscall arrived: snap back at the next tick.
    syscall_snap: bool,
    last_findings: u64,
    /// The degraded interval in progress: `Some` exactly while
    /// degradation is engaged.
    open: Option<DegradedInterval>,
    stats: DegradationStats,
}

impl CaptureController {
    /// Builds the controller for one producer whose lifeguard declares
    /// `policy` and, if it dedups, the dedup `window`. It samples only
    /// when the policy names a classifier and a window gives the regions,
    /// and it never drops a kind the window invalidates on, so the
    /// capture filter still sees the window's flush triggers.
    #[must_use]
    pub(crate) fn new(policy: DegradationPolicy, window: Option<&WindowSpec>) -> Self {
        let flushes = |kind| window.is_some_and(|w| w.invalidate_on.contains(kind));
        CaptureController {
            droppable: policy.droppable.iter().filter(|&k| !flushes(k)).collect(),
            sampler: (policy.make_classifier.zip(window))
                .map(|(make, window)| RegionSampler::new(make(), *window)),
            records: 0,
            since_sample: 0,
            syscall_snap: false,
            last_findings: 0,
            open: None,
            stats: DegradationStats::default(),
        }
    }

    /// Whether degradation is currently engaged.
    #[must_use]
    pub(crate) fn engaged(&self) -> bool {
        self.open.is_some()
    }

    /// Decides whether capture fidelity changes at this record boundary.
    /// Call once per retired record, *before* [`admit`](Self::admit):
    /// `load` is the transport's current occupancy (sampled every
    /// [`SAMPLE_STRIDE`] records; pass it unconditionally, it is cheap)
    /// and `findings` the current finding count — any growth snaps
    /// capture back to full fidelity immediately, as does a syscall
    /// observed by the previous `admit`.
    pub(crate) fn tick(&mut self, load: LoadSample, findings: u64) -> Option<Transition> {
        let finding_snap = findings != self.last_findings;
        self.last_findings = findings;
        let syscall_snap = std::mem::take(&mut self.syscall_snap);
        let engaged = self.engaged();
        if engaged && (finding_snap || syscall_snap) {
            self.stats.snapbacks += 1;
            self.close_interval();
            return Some(Transition::Disengage);
        }
        self.since_sample += 1;
        if self.since_sample < SAMPLE_STRIDE {
            return None;
        }
        self.since_sample = 0;
        let occupancy = load.occupancy_permille();
        if !engaged && occupancy >= ENGAGE_PERMILLE {
            self.engage();
            Some(Transition::Engage)
        } else if engaged && occupancy <= DISENGAGE_PERMILLE {
            self.close_interval();
            Some(Transition::Disengage)
        } else {
            None
        }
    }

    /// Observes one retired record and, while engaged, decides its fate.
    /// Call for **every** record, engaged or not — the policy's
    /// classifier must see the full stream (in order, ahead of any drop
    /// decision) or its settled-verdict answers would lag reality.
    pub(crate) fn admit(&mut self, rec: &EventRecord) -> Verdict {
        self.records += 1;
        if let Some(sampler) = &mut self.sampler {
            sampler.classifier.observe(rec);
        }
        if rec.kind == EventKind::Syscall {
            // Phase change: snap back at the next tick. The syscall
            // record itself always ships (containment flushes behind it).
            self.syscall_snap = true;
        }
        let Some(interval) = &mut self.open else {
            return Verdict::Ship;
        };
        self.stats.degraded_records += 1;
        if let Some(sampler) = &mut self.sampler {
            if sampler.window.invalidate_on.contains(rec.kind) {
                sampler.repromote_all();
            }
        }
        if self.droppable.contains(rec.kind) {
            self.stats.kind_dropped += 1;
            interval.kind_dropped += 1;
            return Verdict::Drop;
        }
        if rec.is_memory() {
            if let Some(sampler) = &mut self.sampler {
                if sampler.sample_out(rec) {
                    self.stats.sampled_out += 1;
                    interval.sampled_out += 1;
                    return Verdict::Drop;
                }
            }
        }
        Verdict::Ship
    }

    /// Closes the run: ends any open degraded interval at the final
    /// record count and returns the full accounting.
    #[must_use]
    pub(crate) fn finish(mut self) -> DegradationStats {
        self.close_interval();
        self.stats
    }

    fn engage(&mut self) {
        self.stats.engagements += 1;
        if let Some(sampler) = &mut self.sampler {
            // Each interval starts at full capture: regions must re-prove
            // themselves settled before demotion.
            sampler.repromote_all();
        }
        self.open = Some(DegradedInterval {
            from_record: self.records,
            to_record: self.records,
            sampled_out: 0,
            kind_dropped: 0,
        });
    }

    /// Ends the open interval, if any, recording it (up to the cap).
    fn close_interval(&mut self) {
        if let Some(mut interval) = self.open.take() {
            interval.to_record = self.records;
            if self.stats.intervals.len() < MAX_RECORDED_INTERVALS {
                self.stats.intervals.push(interval);
            }
        }
    }
}

/// Region demotion to 1-in-[`SAMPLE_RATE`] capture. The lifeguard-specific
/// half is the policy's [`RegionClassifier`], which answers "is this
/// access's verdict already settled?"; the generic half is a
/// direct-mapped table of per-region hot counters, generation-cleared on
/// repromotion, which answers "has this region been settled often
/// enough, and is this record the 1-in-N survivor?".
#[derive(Debug)]
struct RegionSampler {
    /// The lifeguard's dedup window: a region is one of its address
    /// granules, and each of its invalidating kinds repromotes every
    /// region.
    window: WindowSpec,
    classifier: Box<dyn RegionClassifier>,
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

impl RegionSampler {
    fn new(classifier: Box<dyn RegionClassifier>, window: WindowSpec) -> Self {
        RegionSampler {
            window,
            classifier,
            slots: vec![SamplerSlot::default(); SAMPLER_SLOTS],
            generation: 1,
        }
    }

    /// Repromotes every region to full capture (lazily, via generation).
    fn repromote_all(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// Decides one memory access: `true` means drop (sampled out). Only
    /// an access whose verdict the classifier calls settled can drop,
    /// and an access spanning two regions never does — the demotion
    /// state of one region says nothing about the other.
    fn sample_out(&mut self, rec: &EventRecord) -> bool {
        if !self.classifier.verdict_settled(rec) {
            return false;
        }
        let g = self.window.addr_granule_log2;
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
        if slot.settled < CLEAN_THRESHOLD {
            slot.settled += 1;
            return false;
        }
        // Demoted: ship the 1-in-N survivor, drop the rest.
        slot.rotation = (slot.rotation + 1) % SAMPLE_RATE;
        slot.rotation != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lba_lifeguard::AlwaysSettled;

    fn sampling_policy() -> DegradationPolicy {
        DegradationPolicy {
            droppable: EventMask::of(&[EventKind::Lock, EventKind::Unlock]),
            make_classifier: Some(|| Box::new(AlwaysSettled)),
        }
    }

    /// A dedup window of `2^granule_log2`-byte granules that invalidates
    /// on `alloc`/`free` (AddrCheck's at granule 4).
    fn window(granule_log2: u8) -> WindowSpec {
        WindowSpec {
            addr_granule_log2: granule_log2,
            invalidate_on: EventMask::of(&[EventKind::Alloc, EventKind::Free]),
            flush_on_thread_switch: false,
        }
    }

    /// A controller under [`sampling_policy`] and AddrCheck's window.
    fn controller() -> CaptureController {
        CaptureController::new(sampling_policy(), Some(&window(4)))
    }

    fn load(addr: u64) -> EventRecord {
        EventRecord::load(0x1000, 0, Some(1), Some(2), addr, 4)
    }

    fn sample(permille: u32) -> LoadSample {
        LoadSample {
            inflight: u64::from(permille),
            capacity: 1000,
        }
    }

    /// Ticks one stride at a steady load and finding count, so the
    /// controller samples the load exactly once.
    fn at_load(ctl: &mut CaptureController, permille: u32) -> Option<Transition> {
        (0..SAMPLE_STRIDE).find_map(|_| {
            let findings = ctl.last_findings;
            ctl.tick(sample(permille), findings)
        })
    }

    fn engaged_controller() -> CaptureController {
        let mut ctl = controller();
        assert_eq!(at_load(&mut ctl, 900), Some(Transition::Engage));
        ctl
    }

    #[test]
    fn hysteresis_engages_high_and_disengages_low() {
        let mut ctl = controller();
        assert_eq!(at_load(&mut ctl, ENGAGE_PERMILLE - 1), None, "below engage");
        assert_eq!(at_load(&mut ctl, ENGAGE_PERMILLE), Some(Transition::Engage));
        assert!(ctl.engaged());
        assert_eq!(
            at_load(&mut ctl, DISENGAGE_PERMILLE + 1),
            None,
            "inside the hysteresis band: stays engaged"
        );
        assert_eq!(
            at_load(&mut ctl, DISENGAGE_PERMILLE),
            Some(Transition::Disengage)
        );
        assert!(!ctl.engaged());
        let stats = ctl.finish();
        assert_eq!(stats.engagements, 1);
        assert_eq!(stats.snapbacks, 0);
        assert_eq!(stats.intervals.len(), 1);
    }

    #[test]
    fn a_new_finding_snaps_back_immediately() {
        let mut ctl = engaged_controller();
        // Occupancy is still sky-high, but a finding landed.
        assert_eq!(ctl.tick(sample(999), 1), Some(Transition::Disengage));
        assert_eq!(ctl.finish().snapbacks, 1);
    }

    #[test]
    fn a_syscall_snaps_back_at_the_next_tick() {
        let mut ctl = engaged_controller();
        let mut sys = load(0x40);
        sys.kind = EventKind::Syscall;
        assert_eq!(ctl.admit(&sys), Verdict::Ship, "the syscall itself ships");
        assert_eq!(ctl.tick(sample(999), 0), Some(Transition::Disengage));
        assert_eq!(ctl.finish().snapbacks, 1);
    }

    #[test]
    fn droppable_kinds_drop_only_while_engaged() {
        let mut ctl = controller();
        let mut lock = load(0x40);
        lock.kind = EventKind::Lock;
        assert_eq!(ctl.admit(&lock), Verdict::Ship, "not engaged: ships");
        assert_eq!(at_load(&mut ctl, 900), Some(Transition::Engage));
        assert_eq!(ctl.admit(&lock), Verdict::Drop);
        let stats = ctl.finish();
        assert_eq!(stats.kind_dropped, 1);
        assert_eq!(stats.intervals[0].kind_dropped, 1);
    }

    #[test]
    fn a_droppable_kind_the_window_invalidates_on_still_ships() {
        let policy = DegradationPolicy {
            droppable: EventMask::of(&[EventKind::Free, EventKind::Lock]),
            make_classifier: None,
        };
        let mut ctl = CaptureController::new(policy, Some(&window(4)));
        assert_eq!(at_load(&mut ctl, 900), Some(Transition::Engage));
        let mut free = load(0x40);
        free.kind = EventKind::Free;
        assert_eq!(ctl.admit(&free), Verdict::Ship, "the window flushes on it");
        let mut lock = load(0x40);
        lock.kind = EventKind::Lock;
        assert_eq!(ctl.admit(&lock), Verdict::Drop);
    }

    #[test]
    fn sampling_drops_settled_accesses_past_the_threshold() {
        let mut ctl = engaged_controller();
        let n = CLEAN_THRESHOLD + SAMPLE_RATE;
        let dropped = (0..n)
            .filter(|_| ctl.admit(&load(0x40)) == Verdict::Drop)
            .count() as u64;
        // The first CLEAN_THRESHOLD accesses prove the region settled;
        // of the next SAMPLE_RATE, only the last survives.
        assert_eq!(dropped, u64::from(SAMPLE_RATE - 1));
        let stats = ctl.finish();
        assert_eq!(stats.sampled_out, dropped);
        assert_eq!(stats.intervals.len(), 1);
        assert_eq!(stats.intervals[0].sampled_out, dropped);
        assert_eq!(stats.degraded_records, u64::from(n));
    }

    #[test]
    fn intervals_cover_the_removed_records() {
        let mut ctl = controller();
        for round in 0..3 {
            assert_eq!(at_load(&mut ctl, 900), Some(Transition::Engage));
            for i in 0..20u64 {
                let _ = ctl.admit(&load(0x40 + (i % 2) * 0x100));
            }
            // Round 0 disengages on load; later rounds on a finding's
            // snapback, which must close and record its interval too.
            let close = if round == 0 {
                at_load(&mut ctl, DISENGAGE_PERMILLE)
            } else {
                ctl.tick(sample(900), round)
            };
            assert_eq!(close, Some(Transition::Disengage));
        }
        let stats = ctl.finish();
        assert_eq!(stats.engagements, 3);
        assert_eq!(stats.snapbacks, 2);
        assert_eq!(stats.intervals.len(), 3);
        let by_interval: u64 = stats.intervals.iter().map(|i| i.sampled_out).sum();
        assert_eq!(by_interval, stats.sampled_out);
        assert!(stats.sampled_out > 0, "the two hot regions demote");
        for interval in &stats.intervals {
            assert!(interval.from_record <= interval.to_record);
            assert!(
                interval.sampled_out + interval.kind_dropped
                    <= interval.to_record - interval.from_record
            );
        }
    }

    #[test]
    fn run_ending_engaged_closes_the_interval() {
        let mut ctl = engaged_controller();
        for _ in 0..5 {
            let _ = ctl.admit(&load(0x40));
        }
        let stats = ctl.finish();
        assert_eq!(stats.intervals.len(), 1);
        assert_eq!(stats.intervals[0].to_record, 5);
    }

    #[test]
    fn stride_skips_load_samples_but_not_snapbacks() {
        let mut ctl = controller();
        for _ in 1..SAMPLE_STRIDE {
            assert_eq!(ctl.tick(sample(900), 0), None, "between samples");
        }
        assert_eq!(
            ctl.tick(sample(900), 0),
            Some(Transition::Engage),
            "the stride-th tick samples"
        );
        // A finding disengages on the very next tick, stride regardless.
        assert_eq!(ctl.tick(sample(900), 7), Some(Transition::Disengage));
        assert_eq!(ctl.finish().snapbacks, 1);
    }

    fn sampler() -> RegionSampler {
        RegionSampler::new(Box::new(AlwaysSettled), window(4))
    }

    #[test]
    fn sampler_demotes_only_past_the_threshold() {
        let mut s = sampler();
        // The threshold's worth of settled observations: all ship.
        for _ in 0..CLEAN_THRESHOLD {
            assert!(!s.sample_out(&load(0x40)));
        }
        // Demoted: of the next two rates' worth, exactly 2 survive.
        let shipped = (0..2 * SAMPLE_RATE)
            .filter(|_| !s.sample_out(&load(0x40)))
            .count();
        assert_eq!(shipped, 2);
    }

    #[test]
    fn repromotion_resets_demotion() {
        let mut s = sampler();
        for _ in 0..CLEAN_THRESHOLD + 2 {
            s.sample_out(&load(0x40));
        }
        s.repromote_all();
        for _ in 0..CLEAN_THRESHOLD {
            assert!(!s.sample_out(&load(0x40)), "re-proving after repromote");
        }
        assert!(
            s.sample_out(&load(0x40)),
            "demoted again past the threshold"
        );
    }

    #[test]
    fn straddling_accesses_never_drop() {
        let mut s = sampler();
        let wide = EventRecord::load(0x1000, 0, None, None, 0x4c, 8);
        for _ in 0..2 * (CLEAN_THRESHOLD + SAMPLE_RATE) {
            assert!(!s.sample_out(&wide), "16-byte-granule straddle ships");
        }
    }

    #[test]
    fn without_a_window_kinds_drop_but_nothing_samples() {
        // The policy names a classifier, but no dedup window gives it
        // regions: settled accesses always ship, droppable kinds still
        // drop while engaged.
        let mut ctl = CaptureController::new(sampling_policy(), None);
        assert_eq!(at_load(&mut ctl, 900), Some(Transition::Engage));
        for _ in 0..2 * (CLEAN_THRESHOLD + SAMPLE_RATE) {
            assert_eq!(ctl.admit(&load(0x40)), Verdict::Ship);
        }
        let mut lock = load(0x40);
        lock.kind = EventKind::Lock;
        assert_eq!(ctl.admit(&lock), Verdict::Drop);
        let stats = ctl.finish();
        assert_eq!((stats.sampled_out, stats.kind_dropped), (0, 1));
    }

    #[test]
    fn a_region_is_one_window_granule() {
        // The access that straddles a 16-byte granule (see
        // `straddling_accesses_never_drop`) lies inside one 64-byte line:
        // under MemProfile's line-granule window it is one region and
        // demotes.
        let mut s = RegionSampler::new(Box::new(AlwaysSettled), window(6));
        let wide = EventRecord::load(0x1000, 0, None, None, 0x4c, 8);
        for _ in 0..CLEAN_THRESHOLD {
            assert!(!s.sample_out(&wide), "proving the line settled");
        }
        assert!(s.sample_out(&wide), "demoted past the threshold");
    }
}
