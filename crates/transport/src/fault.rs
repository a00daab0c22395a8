//! Deterministic fault injection over the transport seam.
//!
//! The adaptive capture controller exists to survive transport overload —
//! so its tests, benchmarks and regression suites need overload *on
//! demand*, reproducibly. One [`FaultProfile`] describes the injected
//! slowness for both execution models:
//!
//! * [`ModeledFrameChannel::set_fault`](crate::ModeledFrameChannel::set_fault)
//!   stalls the modeled consumer on a deterministic schedule (after every
//!   `stall_period` pops it lets through, a pop of an empty channel
//!   included, the next `stall_burst` pops yield nothing), modelling a
//!   lifeguard core that falls behind. The injection is
//!   *liveness-preserving*: while the producer has a parked frame the
//!   channel is already under real back-pressure and the run loop must
//!   drain to make progress, so those pops pass through untouched.
//! * [`FrameReceiver::set_drag`](crate::live::FrameReceiver::set_drag) is
//!   the live-thread analogue on either wire: the consumer burns spin
//!   cycles per frame, so the queue (or the socket's credit window)
//!   genuinely fills and the producer's [`LoadSample`](crate::LoadSample)
//!   climbs.
//!
//! The stall schedule is periodic, not random, so throughput comparisons
//! see identical drain patterns and a failure found under injection
//! replays exactly.

/// A deterministic fault schedule, shared by the modeled channel's stall
/// schedule and the live receivers' drag so one profile describes one
/// experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultProfile {
    /// Modeled consumer stall: after every `stall_period` pops the
    /// schedule lets through (a pop that finds the channel empty counts
    /// too), the next [`stall_burst`](Self::stall_burst) pops yield
    /// nothing. Zero disables the stall schedule.
    pub stall_period: u32,
    /// Consecutive pops refused per stall episode.
    pub stall_burst: u32,
    /// Live consumer drag: spin iterations burned per received frame
    /// (applied via [`FrameReceiver::set_drag`]; carried here so one
    /// profile configures both execution models). Zero disables.
    ///
    /// [`FrameReceiver::set_drag`]: crate::live::FrameReceiver::set_drag
    pub drain_drag: u32,
}

impl FaultProfile {
    /// The canonical slow-drain profile the degradation benchmarks and
    /// regression tests inject: every 8 pops the consumer refuses the
    /// next 24 (a 3:1 overload), and live consumers drag 2000 spins per
    /// frame.
    #[must_use]
    pub fn slow_drain() -> Self {
        FaultProfile {
            stall_period: 8,
            stall_burst: 24,
            drain_drag: 2000,
        }
    }
}

/// The modeled consumer's stall schedule under a [`FaultProfile`]
/// ([`ModeledFrameChannel::set_fault`](crate::ModeledFrameChannel::set_fault)).
/// Faults model a slow *drain*, never a lossy capture: only pops ask it.
#[derive(Debug, Default)]
pub(crate) struct StallSchedule {
    profile: FaultProfile,
    /// Pops let through since the last stall episode, empty pops
    /// included.
    pops: u64,
    /// Pops still to refuse in the current stall episode.
    stall_left: u32,
}

impl StallSchedule {
    pub(crate) fn new(profile: FaultProfile) -> Self {
        StallSchedule {
            profile,
            ..StallSchedule::default()
        }
    }

    /// Whether this pop should be refused. Never stalls while a frame is
    /// `parked`: the producer is already blocked on real back-pressure and
    /// the run loop drains through pops — refusing them would deadlock
    /// the co-simulation instead of slowing it.
    pub(crate) fn refuse(&mut self, parked: bool) -> bool {
        if self.profile.stall_period == 0 || parked {
            return false;
        }
        if self.stall_left > 0 {
            self.stall_left -= 1;
            return true;
        }
        self.pops += 1;
        if self
            .pops
            .is_multiple_of(u64::from(self.profile.stall_period))
        {
            // The period-th pop let through arms the episode: the *next*
            // `stall_burst` pops are refused.
            self.stall_left = self.profile.stall_burst;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModeledFrameChannel;
    use lba_compress::FrameConfig;
    use lba_record::EventRecord;

    fn rec(i: u64) -> EventRecord {
        EventRecord::load(0x1000, 0, Some(1), None, 0x4000_0000 + i * 8, 8)
    }

    fn config(records_per_frame: usize) -> FrameConfig {
        FrameConfig {
            records_per_frame,
            compress: true,
        }
    }

    #[test]
    fn stall_schedule_is_periodic_and_deterministic() {
        let profile = FaultProfile {
            stall_period: 4,
            stall_burst: 2,
            ..FaultProfile::default()
        };
        let run = || {
            let mut ch = ModeledFrameChannel::new(1 << 16, config(2), false);
            ch.set_fault(profile);
            for i in 0..32 {
                ch.push_record(&rec(i), i);
            }
            ch.flush(100);
            let mut pattern = Vec::new();
            let mut seen = 0;
            while seen < 32 {
                match ch.pop_frame() {
                    Some(frame) => {
                        seen += frame.records.len();
                        pattern.push(true);
                    }
                    None => pattern.push(false),
                }
            }
            pattern
        };
        let a = run();
        assert_eq!(a, run(), "same profile, same schedule");
        assert!(a.contains(&false), "the schedule must actually fire");
        // Every 4 successful pops are followed by 2 refusals.
        assert_eq!(&a[0..6], &[true, true, true, true, false, false]);
    }

    #[test]
    fn an_empty_pop_counts_toward_the_stall_period() {
        let profile = FaultProfile {
            stall_period: 2,
            stall_burst: 1,
            ..FaultProfile::default()
        };
        let mut ch = ModeledFrameChannel::new(1 << 16, config(2), false);
        ch.set_fault(profile);
        // Two pops of an empty channel complete the period…
        assert!(ch.pop_frame().is_none());
        assert!(ch.pop_frame().is_none());
        ch.push_record(&rec(0), 0);
        ch.push_record(&rec(1), 1);
        // …so the pop of the queued frame is refused, and the next succeeds.
        assert!(ch.pop_frame().is_none(), "the armed episode refuses it");
        assert_eq!(ch.pop_frame().unwrap().records, [rec(0), rec(1)]);
    }

    #[test]
    fn stalls_never_fire_while_frames_are_parked() {
        // One-line budget: the second sealed frame parks, and the run
        // loop's drain pops must all succeed or co-simulation deadlocks.
        let profile = FaultProfile {
            stall_period: 1,
            stall_burst: 1000,
            ..FaultProfile::default()
        };
        let mut ch = ModeledFrameChannel::new(64, config(2), false);
        ch.set_fault(profile);
        for i in 0..4 {
            ch.push_record(&rec(i), i);
        }
        assert!(ch.has_parked(), "second frame must park");
        assert!(
            ch.pop_frame().is_some(),
            "drain pops pass through while parked"
        );
        assert!(ch.retry_parked(10).is_some());
        assert!(!ch.has_parked());
        // No longer parked: the first pop succeeds (arming the episode),
        // then the schedule fires again even with a frame queued.
        assert!(ch.pop_frame().is_some());
        ch.push_record(&rec(4), 11);
        ch.push_record(&rec(5), 12);
        assert!(!ch.drained());
        assert!(ch.pop_frame().is_none(), "stall resumes once unparked");
    }

    #[test]
    fn quiet_profile_is_transparent() {
        let mut ch = ModeledFrameChannel::new(1 << 16, config(4), true);
        ch.set_fault(FaultProfile::default());
        for i in 0..16 {
            ch.push_record(&rec(i), i);
        }
        ch.flush(20);
        let mut seen = 0;
        while let Some(frame) = ch.pop_frame() {
            seen += frame.records.len();
        }
        assert_eq!(seen, 16, "no pop is refused");
    }
}
