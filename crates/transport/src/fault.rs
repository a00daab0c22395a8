//! Deterministic fault injection over the transport seam.
//!
//! The adaptive capture controller exists to survive transport overload —
//! so its tests, benchmarks and regression suites need overload *on
//! demand*, reproducibly. This module injects three fault families at the
//! two seams the transport already exposes:
//!
//! * [`FaultInjector`] wraps any [`LogChannel`] and stalls the consumer on
//!   a deterministic schedule (every `stall_period` pops, the next
//!   `stall_burst` pops yield nothing), modelling a lifeguard core that
//!   falls behind. The injection is *liveness-preserving*: while the
//!   producer has a parked frame the channel is already under real
//!   back-pressure and the run loop must drain to make progress, so the
//!   injector passes those pops through untouched.
//! * [`FrameReceiver::set_drag`](crate::live::FrameReceiver::set_drag) is
//!   the live-thread analogue: the consumer burns spin cycles per frame,
//!   so the queue genuinely fills and the producer's
//!   [`LoadSample`] climbs.
//! * [`FaultSink`] wraps any [`FrameSink`] with seeded transient write
//!   failures (a probability per frame, in failure bursts of a configured
//!   length); [`RetrySink`] composes on top with bounded retry and spin
//!   backoff, which is how the flight recorder rides out transient sink
//!   faults without losing frames.
//!
//! Everything is seeded and deterministic — the same [`FaultProfile`]
//! produces the same fault schedule, so a failure found under injection
//! replays exactly.

use lba_record::EventRecord;

use crate::channel::{ChannelStats, LoadSample, LogChannel, PoppedFrame, PushOutcome};
use crate::sink::{FrameSink, SealedFrame, SinkError};

/// A deterministic fault schedule, shared by the channel and sink
/// injectors so one profile describes one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultProfile {
    /// Seed for the injector's private RNG (sink failures only — the
    /// consumer-stall schedule is periodic, not random, so throughput
    /// comparisons see identical drain patterns).
    pub seed: u64,
    /// Modeled consumer stall: after every `stall_period` successful
    /// pops, the next [`stall_burst`](Self::stall_burst) pops yield
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
    /// Per-frame probability (in permille) that a sink write fails
    /// transiently. Zero disables sink faults.
    pub sink_fail_permille: u32,
    /// Consecutive failures per triggered sink-fault episode — the
    /// injected failure's "duration", which bounded retry must outlast.
    pub sink_fail_burst: u32,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            seed: 0x5eed_f417,
            stall_period: 0,
            stall_burst: 0,
            drain_drag: 0,
            sink_fail_permille: 0,
            sink_fail_burst: 0,
        }
    }
}

impl FaultProfile {
    /// The canonical slow-drain profile the degradation benchmarks and
    /// regression tests inject: every 8 pops the consumer refuses the
    /// next 24 (a 3:1 overload), and live consumers drag 2000 spins per
    /// frame.
    #[must_use]
    pub fn slow_drain(seed: u64) -> Self {
        FaultProfile {
            seed,
            stall_period: 8,
            stall_burst: 24,
            drain_drag: 2000,
            sink_fail_permille: 0,
            sink_fail_burst: 0,
        }
    }

    /// A flaky-sink profile: roughly one frame in ten hits a transient
    /// write failure lasting `burst` attempts.
    #[must_use]
    pub fn flaky_sink(seed: u64, burst: u32) -> Self {
        FaultProfile {
            seed,
            sink_fail_permille: 100,
            sink_fail_burst: burst,
            ..FaultProfile::default()
        }
    }

    /// Whether the profile injects any fault at all.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.stall_period == 0 && self.drain_drag == 0 && self.sink_fail_permille == 0
    }
}

/// SplitMix64 — a tiny deterministic generator; statistical quality is
/// irrelevant here, reproducibility is everything.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn permille(&mut self) -> u32 {
        (self.next() % 1000) as u32
    }
}

/// A [`LogChannel`] wrapper that injects deterministic consumer stalls
/// (see the module docs). Push-side calls pass straight through — faults
/// model a slow *drain*, never a lossy capture.
#[derive(Debug)]
pub struct FaultInjector<C> {
    inner: C,
    profile: FaultProfile,
    /// Successful pops since the last stall episode.
    pops: u64,
    /// Pops still to refuse in the current stall episode.
    stall_left: u32,
    /// Total pops refused — the experiment's injected-fault ledger.
    stalled_pops: u64,
}

impl<C: LogChannel> FaultInjector<C> {
    /// Wraps `inner` under `profile`'s stall schedule.
    #[must_use]
    pub fn new(inner: C, profile: FaultProfile) -> Self {
        FaultInjector {
            inner,
            profile,
            pops: 0,
            stall_left: 0,
            stalled_pops: 0,
        }
    }

    /// The wrapped channel.
    #[must_use]
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The wrapped channel, mutably — for channel-specific calls
    /// (tee installation, widen-aware helpers) the trait does not carry.
    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    /// Unwraps the injector.
    #[must_use]
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Total pops the injector refused.
    #[must_use]
    pub fn stalled_pops(&self) -> u64 {
        self.stalled_pops
    }

    /// Whether this pop should be refused. Never stalls while a frame is
    /// parked: the producer is already blocked on real back-pressure and
    /// the run loop drains through pops — refusing them would deadlock
    /// the co-simulation instead of slowing it.
    fn stall_gate(&mut self) -> bool {
        if self.profile.stall_period == 0 || self.inner.has_parked() {
            return false;
        }
        if self.stall_left > 0 {
            self.stall_left -= 1;
            self.stalled_pops += 1;
            return true;
        }
        self.pops += 1;
        if self
            .pops
            .is_multiple_of(u64::from(self.profile.stall_period))
        {
            // The period-th successful pop arms the episode: the *next*
            // `stall_burst` pops are refused.
            self.stall_left = self.profile.stall_burst;
        }
        false
    }
}

impl<C: LogChannel> LogChannel for FaultInjector<C> {
    fn push_record(&mut self, record: &EventRecord, now: u64) -> PushOutcome {
        self.inner.push_record(record, now)
    }

    fn flush(&mut self, now: u64) -> PushOutcome {
        self.inner.flush(now)
    }

    fn pop_frame(&mut self) -> Option<PoppedFrame<'_>> {
        if self.stall_gate() {
            return None;
        }
        self.inner.pop_frame()
    }

    fn has_parked(&self) -> bool {
        self.inner.has_parked()
    }

    fn drained(&self) -> bool {
        self.inner.drained()
    }

    fn retry_parked(&mut self, now: u64) -> Option<u64> {
        self.inner.retry_parked(now)
    }

    fn stats(&self) -> ChannelStats {
        self.inner.stats()
    }

    fn load_sample(&self) -> LoadSample {
        self.inner.load_sample()
    }

    fn mark_degraded(&mut self, on: bool) {
        self.inner.mark_degraded(on);
    }
}

/// A [`FrameSink`] wrapper that injects seeded transient write failures.
#[derive(Debug)]
pub struct FaultSink<S> {
    inner: S,
    rng: SplitMix,
    fail_permille: u32,
    fail_burst: u32,
    /// Failures still to serve in the current episode.
    burst_left: u32,
    /// Total injected failures.
    injected: u64,
}

impl<S: FrameSink> FaultSink<S> {
    /// Wraps `inner` under `profile`'s sink-failure schedule.
    #[must_use]
    pub fn new(inner: S, profile: &FaultProfile) -> Self {
        FaultSink {
            inner,
            rng: SplitMix(profile.seed),
            fail_permille: profile.sink_fail_permille,
            fail_burst: profile.sink_fail_burst.max(1),
            burst_left: 0,
            injected: 0,
        }
    }

    /// Total write failures injected so far.
    #[must_use]
    pub fn injected_failures(&self) -> u64 {
        self.injected
    }

    /// Unwraps the sink.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: FrameSink> FrameSink for FaultSink<S> {
    fn put_frame(&mut self, frame: &SealedFrame<'_>) -> Result<(), SinkError> {
        if self.burst_left > 0 {
            self.burst_left -= 1;
            self.injected += 1;
            return Err("injected transient sink failure (continuing burst)".into());
        }
        if self.fail_permille > 0 && self.rng.permille() < self.fail_permille {
            self.burst_left = self.fail_burst - 1;
            self.injected += 1;
            return Err("injected transient sink failure".into());
        }
        self.inner.put_frame(frame)
    }

    fn finish_sink(&mut self) -> Result<(), SinkError> {
        self.inner.finish_sink()
    }
}

/// Bounded retry with spin backoff over any [`FrameSink`] — the flight
/// recorder's defence against transient sink failures. A frame is retried
/// up to `max_retries` times (with an escalating pause between attempts);
/// only a failure outlasting every retry propagates, at which point the
/// channel tee latches it and stops mirroring as before.
#[derive(Debug)]
pub struct RetrySink<S> {
    inner: S,
    max_retries: u32,
    /// Retries actually spent (successful recoveries included).
    retries: u64,
}

impl<S: FrameSink> RetrySink<S> {
    /// Wraps `inner`, retrying each failed frame up to `max_retries`
    /// times.
    #[must_use]
    pub fn new(inner: S, max_retries: u32) -> Self {
        RetrySink {
            inner,
            max_retries,
            retries: 0,
        }
    }

    /// Retries spent over the sink's lifetime.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Unwraps the sink.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: FrameSink> FrameSink for RetrySink<S> {
    fn put_frame(&mut self, frame: &SealedFrame<'_>) -> Result<(), SinkError> {
        let mut last = match self.inner.put_frame(frame) {
            Ok(()) => return Ok(()),
            Err(e) => e,
        };
        for attempt in 0..self.max_retries {
            // Escalating pause: transient faults (another thread holding
            // the disk, a queue hiccup) usually clear within microseconds.
            for _ in 0..(1u32 << attempt.min(10)) {
                std::hint::spin_loop();
            }
            self.retries += 1;
            match self.inner.put_frame(frame) {
                Ok(()) => return Ok(()),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn finish_sink(&mut self) -> Result<(), SinkError> {
        self.inner.finish_sink()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModeledFrameChannel;
    use crate::sink::VecSink;
    use lba_compress::FrameConfig;

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
            let inner = ModeledFrameChannel::new(1 << 16, config(2), false);
            let mut ch = FaultInjector::new(inner, profile);
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
            (pattern, ch.stalled_pops())
        };
        let (a, stalled_a) = run();
        let (b, stalled_b) = run();
        assert_eq!(a, b, "same profile, same schedule");
        assert_eq!(stalled_a, stalled_b);
        assert!(stalled_a > 0, "the schedule must actually fire");
        // Every 4 successful pops are followed by 2 refusals.
        assert_eq!(&a[0..6], &[true, true, true, true, false, false]);
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
        let inner = ModeledFrameChannel::new(64, config(2), false);
        let mut ch = FaultInjector::new(inner, profile);
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
        let inner = ModeledFrameChannel::new(1 << 16, config(4), true);
        let mut ch = FaultInjector::new(inner, FaultProfile::default());
        assert!(FaultProfile::default().is_quiet());
        for i in 0..16 {
            ch.push_record(&rec(i), i);
        }
        ch.flush(20);
        let mut seen = 0;
        while let Some(frame) = ch.pop_frame() {
            seen += frame.records.len();
        }
        assert_eq!(seen, 16);
        assert_eq!(ch.stalled_pops(), 0);
    }

    #[test]
    fn retry_outlasts_bounded_sink_fault_bursts() {
        let profile = FaultProfile {
            seed: 7,
            sink_fail_permille: 100,
            sink_fail_burst: 3,
            ..FaultProfile::default()
        };
        let fault = FaultSink::new(VecSink::default(), &profile);
        // Retry budget generously exceeds the burst length (retries can
        // land on a freshly rolled episode and must outlast that too).
        let mut sink = RetrySink::new(fault, 12);
        let image = vec![0u8; 64];
        for i in 0..200u64 {
            sink.put_frame(&SealedFrame {
                bytes: &image,
                records: 4,
                sealed_at: i,
            })
            .expect("bounded retry must outlast the burst");
        }
        sink.finish_sink().unwrap();
        assert!(sink.retries() > 0, "faults must actually have fired");
        let fault = sink.into_inner();
        assert!(fault.injected_failures() > 0);
        let inner = fault.into_inner();
        assert_eq!(inner.frames.len(), 200, "no frame lost");
        assert!(inner.finished);
    }

    #[test]
    fn retry_exhaustion_propagates_the_error() {
        let profile = FaultProfile {
            seed: 7,
            sink_fail_permille: 1000, // every frame faults
            sink_fail_burst: 10,
            ..FaultProfile::default()
        };
        let fault = FaultSink::new(VecSink::default(), &profile);
        let mut sink = RetrySink::new(fault, 2); // burst outlasts retries
        let image = vec![0u8; 64];
        let err = sink
            .put_frame(&SealedFrame {
                bytes: &image,
                records: 1,
                sealed_at: 0,
            })
            .unwrap_err();
        assert!(err.to_string().contains("injected"));
    }

    #[test]
    fn sink_fault_schedule_is_seed_deterministic() {
        let run = |seed: u64| {
            let profile = FaultProfile {
                seed,
                sink_fail_permille: 250,
                sink_fail_burst: 1,
                ..FaultProfile::default()
            };
            let mut sink = FaultSink::new(VecSink::default(), &profile);
            let image = vec![0u8; 64];
            let results: Vec<bool> = (0..64u64)
                .map(|i| {
                    sink.put_frame(&SealedFrame {
                        bytes: &image,
                        records: 1,
                        sealed_at: i,
                    })
                    .is_ok()
                })
                .collect();
            results
        };
        assert_eq!(run(42), run(42), "same seed, same failures");
        assert_ne!(run(42), run(43), "different seed, different failures");
    }
}
