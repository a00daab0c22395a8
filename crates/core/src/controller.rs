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
//! event kinds the lifeguard's verdicts never read. Falling load, a new
//! finding, or a syscall phase change snaps capture back to full
//! fidelity, flushing what the policy says must flush.
//!
//! Load is the one trigger that engages the controller; a finding or a
//! syscall only snaps it back. The lifeguard shapes what degradation may
//! do through its declared policy, but has no say at run time in when:
//! the cores coordinate only through the log (§2), and the finding count
//! is all that flows back. The controller is private to `lba-core`;
//! outside code turns it on with
//! [`LogConfig::adaptive`](crate::LogConfig::adaptive) and tunes it with
//! [`AdaptiveConfig`].
//!
//! The controller is *not constructed* for a lifeguard whose policy is
//! [`DegradationPolicy::none`] (TaintCheck): the degraded and undegraded
//! pipelines are then the same code, which is the strongest possible
//! "provably untouched" argument. Every engage→disengage span is recorded
//! in [`DegradationStats`], and the transition points are flushed to
//! frame boundaries so the wire's degraded mark
//! (`FrameEncoder::set_degraded`) is frame-accurate and survives the
//! flight recorder into replay.

use lba_lifeguard::{
    DegradationPolicy, DegradationStats, DegradedInterval, RegionClassifier, RegionSampler,
    MAX_RECORDED_INTERVALS,
};
use lba_record::{EventKind, EventRecord};
use lba_transport::LoadSample;

/// Hysteresis thresholds and cadence of the adaptive capture controller.
/// Setting [`LogConfig::adaptive`](crate::LogConfig::adaptive) to
/// `Some(AdaptiveConfig::default())` turns adaptive capture on; `None`
/// (the default) keeps the pipeline bit-for-bit identical to a build
/// without the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Transport occupancy (permille) at or above which degradation
    /// engages. Occupancy tops out at 1000 (full) except when the modeled
    /// channel admits a frame larger than its whole budget, so a
    /// threshold above 1000 engages only on such an oversized frame.
    pub engage_permille: u32,
    /// Occupancy (permille) at or below which degradation disengages.
    /// Must sit well under `engage_permille` or the controller flaps.
    pub disengage_permille: u32,
    /// Records between occupancy samples. Sampling is a couple of atomic
    /// or field reads, but once per record is still wasted work; snapback
    /// triggers (findings, syscalls) are checked every record regardless.
    pub sample_stride: u32,
    /// Capacity the dedup window may widen to while degraded (clamped
    /// like `idempotency_window`). Only meaningful for lifeguards whose
    /// policy sets `widen_window`.
    pub widen_entries: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            engage_permille: 700,
            disengage_permille: 350,
            sample_stride: 64,
            widen_entries: 4096,
        }
    }
}

/// A capture-fidelity transition the run loop must apply to its filter
/// and transport. The controller owns the *decision*; the caller owns the
/// plumbing, because only it can flush its channel (and absorb the
/// modeled timing of that flush) and ship the tighten summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transition {
    /// Degradation engaged. The caller must: flush the channel (so the
    /// degraded mark starts on a frame boundary), widen the capture
    /// filter's window if `widen`, and set the channel's degraded mark.
    Engage {
        /// Whether the policy widens the dedup window.
        widen: bool,
    },
    /// Degradation disengaged. The caller must: tighten the capture
    /// filter's window (shipping the flushed summaries) if `tighten`,
    /// flush the channel, and clear the degraded mark.
    Disengage {
        /// Whether the window was widened and must tighten-and-flush.
        tighten: bool,
    },
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
    config: AdaptiveConfig,
    policy: DegradationPolicy,
    sampler: Option<RegionSampler>,
    classifier: Option<Box<dyn RegionClassifier>>,
    engaged: bool,
    /// Records observed at capture (every retired record, shipped or
    /// dropped) — the unit degraded intervals are expressed in.
    records: u64,
    since_sample: u32,
    /// A syscall arrived: snap back at the next tick.
    syscall_snap: bool,
    last_findings: u64,
    open: Option<DegradedInterval>,
    stats: DegradationStats,
}

impl CaptureController {
    /// Builds the controller for one producer, or `None` when the policy
    /// tolerates nothing — the controller is then never constructed and
    /// the lifeguard's stream is provably untouched.
    #[must_use]
    pub(crate) fn new(config: AdaptiveConfig, policy: DegradationPolicy) -> Option<Self> {
        if policy.is_none() {
            return None;
        }
        let sampler = policy.sampling.and_then(RegionSampler::new);
        let classifier = policy.sampling.map(|s| (s.make_classifier)());
        Some(CaptureController {
            config,
            policy,
            sampler,
            classifier,
            engaged: false,
            records: 0,
            since_sample: 0,
            syscall_snap: false,
            last_findings: 0,
            open: None,
            stats: DegradationStats::default(),
        })
    }

    /// Whether degradation is currently engaged.
    #[must_use]
    pub(crate) fn engaged(&self) -> bool {
        self.engaged
    }

    /// Decides whether capture fidelity changes at this record boundary.
    /// Call once per retired record, *before* [`admit`](Self::admit):
    /// `load` is the transport's current occupancy (sampled every
    /// `sample_stride` records; pass it unconditionally, it is cheap) and
    /// `findings` the current finding count — any growth snaps capture
    /// back to full fidelity immediately, as does a syscall observed by
    /// the previous `admit`.
    pub(crate) fn tick(&mut self, load: LoadSample, findings: u64) -> Option<Transition> {
        let finding_snap = findings != self.last_findings;
        self.last_findings = findings;
        let syscall_snap = std::mem::take(&mut self.syscall_snap);
        if self.engaged && (finding_snap || syscall_snap) {
            return Some(self.disengage(true));
        }
        self.since_sample += 1;
        if self.since_sample < self.config.sample_stride {
            return None;
        }
        self.since_sample = 0;
        let occupancy = load.occupancy_permille();
        if !self.engaged && occupancy >= self.config.engage_permille {
            Some(self.engage())
        } else if self.engaged && occupancy <= self.config.disengage_permille {
            Some(self.disengage(false))
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
        if let Some(classifier) = &mut self.classifier {
            classifier.observe(rec);
        }
        if rec.kind == EventKind::Syscall {
            // Phase change: snap back at the next tick. The syscall
            // record itself always ships (containment flushes behind it).
            self.syscall_snap = true;
        }
        if !self.engaged {
            return Verdict::Ship;
        }
        self.stats.degraded_records += 1;
        if let Some(interval) = &mut self.open {
            if let Some(sampler) = &mut self.sampler {
                if sampler.repromotes(rec) {
                    sampler.repromote_all();
                }
            }
            if self.policy.droppable.contains(rec.kind) {
                self.stats.kind_dropped += 1;
                interval.kind_dropped += 1;
                return Verdict::Drop;
            }
            if rec.is_memory() {
                if let (Some(sampler), Some(classifier)) = (&mut self.sampler, &self.classifier) {
                    if classifier.verdict_settled(rec) && sampler.sample_out(rec) {
                        self.stats.sampled_out += 1;
                        interval.sampled_out += 1;
                        return Verdict::Drop;
                    }
                }
            }
        }
        Verdict::Ship
    }

    /// Closes the run: ends any open degraded interval at the final
    /// record count and returns the full accounting.
    #[must_use]
    pub(crate) fn finish(mut self) -> DegradationStats {
        if self.engaged {
            self.close_interval(false);
        }
        self.stats
    }

    fn engage(&mut self) -> Transition {
        self.engaged = true;
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
        Transition::Engage {
            widen: self.policy.widen_window,
        }
    }

    fn disengage(&mut self, snapback: bool) -> Transition {
        let tighten = self.close_interval(snapback);
        Transition::Disengage { tighten }
    }

    /// Ends the open interval, recording it (up to the cap). Returns
    /// whether the interval widened the window, as every interval under
    /// a widening policy does.
    fn close_interval(&mut self, snapback: bool) -> bool {
        self.engaged = false;
        if snapback {
            self.stats.snapbacks += 1;
        }
        if let Some(mut interval) = self.open.take() {
            interval.to_record = self.records;
            if self.stats.intervals.len() < MAX_RECORDED_INTERVALS {
                self.stats.intervals.push(interval);
            }
        }
        self.policy.widen_window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lba_lifeguard::{AlwaysSettled, SamplingSpec};
    use lba_record::EventMask;

    fn sampling_policy() -> DegradationPolicy {
        DegradationPolicy {
            widen_window: true,
            droppable: EventMask::of(&[EventKind::Lock, EventKind::Unlock]),
            sampling: Some(SamplingSpec {
                region_granule_log2: 4,
                clean_threshold: 2,
                sample_rate: 2,
                repromote_on: EventMask::of(&[EventKind::Alloc, EventKind::Free]),
                make_classifier: || Box::new(AlwaysSettled),
            }),
        }
    }

    fn load(addr: u64) -> EventRecord {
        EventRecord::load(0x1000, 0, Some(1), Some(2), addr, 4)
    }

    fn sample(permille: u64) -> LoadSample {
        LoadSample {
            inflight: permille,
            capacity: 1000,
        }
    }

    fn quick() -> AdaptiveConfig {
        AdaptiveConfig {
            sample_stride: 1,
            ..AdaptiveConfig::default()
        }
    }

    #[test]
    fn none_policy_never_builds_a_controller() {
        assert!(
            CaptureController::new(AdaptiveConfig::default(), DegradationPolicy::none()).is_none()
        );
    }

    #[test]
    fn hysteresis_engages_high_and_disengages_low() {
        let mut ctl = CaptureController::new(quick(), sampling_policy()).unwrap();
        assert_eq!(ctl.tick(sample(500), 0), None, "below engage: nothing");
        assert_eq!(
            ctl.tick(sample(900), 0),
            Some(Transition::Engage { widen: true })
        );
        assert!(ctl.engaged());
        assert_eq!(
            ctl.tick(sample(500), 0),
            None,
            "inside the hysteresis band: stays engaged"
        );
        assert_eq!(
            ctl.tick(sample(100), 0),
            Some(Transition::Disengage { tighten: true })
        );
        assert!(!ctl.engaged());
        let stats = ctl.finish();
        assert_eq!(stats.engagements, 1);
        assert_eq!(stats.snapbacks, 0);
        assert_eq!(stats.intervals.len(), 1);
    }

    #[test]
    fn a_new_finding_snaps_back_immediately() {
        let mut ctl = CaptureController::new(quick(), sampling_policy()).unwrap();
        ctl.tick(sample(900), 0);
        assert!(ctl.engaged());
        // Occupancy is still sky-high, but a finding landed.
        assert_eq!(
            ctl.tick(sample(999), 1),
            Some(Transition::Disengage { tighten: true })
        );
        assert_eq!(ctl.finish().snapbacks, 1);
    }

    #[test]
    fn a_syscall_snaps_back_at_the_next_tick() {
        let mut ctl = CaptureController::new(quick(), sampling_policy()).unwrap();
        ctl.tick(sample(900), 0);
        let mut sys = load(0x40);
        sys.kind = EventKind::Syscall;
        assert_eq!(ctl.admit(&sys), Verdict::Ship, "the syscall itself ships");
        assert_eq!(
            ctl.tick(sample(999), 0),
            Some(Transition::Disengage { tighten: true })
        );
        assert_eq!(ctl.finish().snapbacks, 1);
    }

    #[test]
    fn droppable_kinds_drop_only_while_engaged() {
        let mut ctl = CaptureController::new(quick(), sampling_policy()).unwrap();
        let mut lock = load(0x40);
        lock.kind = EventKind::Lock;
        assert_eq!(ctl.admit(&lock), Verdict::Ship, "not engaged: ships");
        ctl.tick(sample(900), 0);
        assert_eq!(ctl.admit(&lock), Verdict::Drop);
        let stats = ctl.finish();
        assert_eq!(stats.kind_dropped, 1);
        assert_eq!(stats.intervals[0].kind_dropped, 1);
    }

    #[test]
    fn sampling_drops_settled_accesses_past_the_threshold() {
        let mut ctl = CaptureController::new(quick(), sampling_policy()).unwrap();
        ctl.tick(sample(900), 0);
        let mut dropped = 0;
        for _ in 0..10 {
            if ctl.admit(&load(0x40)) == Verdict::Drop {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "the hot settled region must demote");
        let stats = ctl.finish();
        assert_eq!(stats.sampled_out, dropped);
        assert_eq!(stats.intervals.len(), 1);
        assert_eq!(stats.intervals[0].sampled_out, dropped);
        assert_eq!(stats.degraded_records, 10);
    }

    #[test]
    fn intervals_cover_the_removed_records() {
        let mut ctl = CaptureController::new(quick(), sampling_policy()).unwrap();
        for round in 0..3 {
            ctl.tick(sample(900), 0);
            for i in 0..20u64 {
                let _ = ctl.admit(&load(0x40 + (i % 2) * 0x100));
            }
            ctl.tick(sample(100), round); // disengage (round>0 also snapbacks)
        }
        let stats = ctl.finish();
        assert_eq!(stats.engagements, 3);
        assert_eq!(stats.intervals.len(), 3);
        let by_interval: u64 = stats.intervals.iter().map(|i| i.sampled_out).sum();
        assert_eq!(by_interval, stats.sampled_out);
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
        let mut ctl = CaptureController::new(quick(), sampling_policy()).unwrap();
        ctl.tick(sample(900), 0);
        for _ in 0..5 {
            let _ = ctl.admit(&load(0x40));
        }
        let stats = ctl.finish();
        assert_eq!(stats.intervals.len(), 1);
        assert_eq!(stats.intervals[0].to_record, 5);
    }

    #[test]
    fn stride_skips_load_samples_but_not_snapbacks() {
        let mut ctl = CaptureController::new(
            AdaptiveConfig {
                sample_stride: 4,
                ..AdaptiveConfig::default()
            },
            sampling_policy(),
        )
        .unwrap();
        assert_eq!(ctl.tick(sample(900), 0), None);
        assert_eq!(ctl.tick(sample(900), 0), None);
        assert_eq!(ctl.tick(sample(900), 0), None);
        assert!(
            matches!(ctl.tick(sample(900), 0), Some(Transition::Engage { .. })),
            "the stride-th tick samples"
        );
        // A finding disengages on the very next tick, stride regardless.
        assert!(matches!(
            ctl.tick(sample(900), 7),
            Some(Transition::Disengage { .. })
        ));
        assert_eq!(ctl.finish().snapbacks, 1);
    }
}
