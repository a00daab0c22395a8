//! The `Lifeguard` trait and the nlba dispatch engine.

use lba_cache::MemSystem;
use lba_record::{EventMask, EventRecord};

use crate::cost::HandlerCtx;
use crate::degradation::DegradationPolicy;
use crate::finding::Finding;
use crate::idempotency::IdempotencyClass;

/// A monitoring program organised as event handlers (the paper's §2).
///
/// Implementations keep their analysis state (shadow memory, lockset
/// tables, …) internally and charge the cost of their work through the
/// [`HandlerCtx`] they are handed; detected problems are reported the same
/// way. The framework — not the lifeguard — decides which core pays
/// (lifeguard core under LBA, application core under DBI).
pub trait Lifeguard {
    /// Short stable name used in findings and reports (e.g. `"taintcheck"`).
    fn name(&self) -> &'static str;

    /// The event kinds this lifeguard's handlers cover. The dispatch
    /// hardware routes everything else to a no-op handler.
    fn subscriptions(&self) -> EventMask;

    /// Handles one subscribed event.
    fn on_event(&mut self, record: &EventRecord, ctx: &mut HandlerCtx<'_>);

    /// Called once after the last log entry (end-of-program checks such as
    /// AddrCheck's leak scan). The default does nothing.
    fn on_finish(&mut self, ctx: &mut HandlerCtx<'_>) {
        let _ = ctx;
    }

    /// The lifeguard's capture-side soundness contract: under which key,
    /// and until which invalidating events, is re-checking a repeated
    /// load/store guaranteed to reproduce a verdict this lifeguard
    /// already reached? The capture filter suppresses duplicates only
    /// within the declared contract (see
    /// [`IdempotencyClass`]). The default is the conservative
    /// [`IdempotencyClass::None`]: no record of an undeclared lifeguard
    /// is ever dropped.
    fn idempotency(&self) -> IdempotencyClass {
        IdempotencyClass::None
    }

    /// The lifeguard's capture-side degradation contract: which fidelity
    /// reductions may the capture controller apply to this lifeguard's
    /// stream while the transport is under back-pressure (see
    /// [`DegradationPolicy`])? The default is the conservative `None`: an
    /// undeclared lifeguard's stream is never degraded — the controller
    /// is not even constructed for it.
    fn degradation(&self) -> Option<DegradationPolicy> {
        None
    }
}

/// Cycle model of the dispatch engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchConfig {
    /// Cycles per dispatched record: the `nlba` instruction plus the jump
    /// table lookup. The paper notes the lookup index "can be determined
    /// very early" thanks to pipelined, decoupled processing, so this is
    /// small.
    pub dispatch_cycles: u64,
    /// Cycles for a record whose kind the lifeguard did not subscribe to
    /// (the hardware filter falls through to a trivial handler).
    pub unsubscribed_cycles: u64,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig {
            dispatch_cycles: 2,
            unsubscribed_cycles: 1,
        }
    }
}

/// The lifeguard-core dispatch engine: decompression hand-off, jump-table
/// lookup and handler invocation, with cycle accounting.
///
/// Every delivery takes the memory system that shadow work is charged to.
/// `None` runs untimed, for runners with no modeled clock: the handlers
/// run and report findings exactly as when timed, shadow accesses skip
/// the cache model, and the returned cycles, which such a runner drops,
/// count no cache penalties.
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchEngine {
    config: DispatchConfig,
}

impl DispatchEngine {
    /// Creates an engine with the given cycle model.
    #[must_use]
    pub fn new(config: DispatchConfig) -> Self {
        DispatchEngine { config }
    }

    /// The engine's cycle model.
    #[must_use]
    pub fn config(&self) -> &DispatchConfig {
        &self.config
    }

    /// Delivers one record to the lifeguard, charging shadow work to
    /// `core` of `mem`. Returns the lifeguard-core cycles consumed.
    pub fn deliver<'m>(
        &self,
        lifeguard: &mut dyn Lifeguard,
        record: &EventRecord,
        mem: impl Into<Option<&'m mut MemSystem>>,
        core: usize,
        findings: &mut Vec<Finding>,
    ) -> u64 {
        if !lifeguard.subscriptions().contains(record.kind) {
            return self.config.unsubscribed_cycles;
        }
        let mut ctx = HandlerCtx::new(mem.into(), core, findings);
        lifeguard.on_event(record, &mut ctx);
        self.config.dispatch_cycles + ctx.cycles()
    }

    /// Delivers a whole frame of records in one call, charging shadow work
    /// to `core` of `mem`. Returns the lifeguard-core cycles consumed.
    ///
    /// This is the batch counterpart of [`deliver`](Self::deliver): the
    /// subscription mask is fetched once and unsubscribed kinds are masked
    /// in bulk, and one [`HandlerCtx`] spans the frame instead of being
    /// rebuilt per record. The cycle total is identical to delivering the
    /// records one at a time — handler work is additive and the engine
    /// charges fixed per-record dispatch costs — which the equivalence
    /// proptests pin down.
    pub fn deliver_batch<'m>(
        &self,
        lifeguard: &mut dyn Lifeguard,
        records: &[EventRecord],
        mem: impl Into<Option<&'m mut MemSystem>>,
        core: usize,
        findings: &mut Vec<Finding>,
    ) -> u64 {
        self.deliver_frame(lifeguard, records, mem.into(), core, findings)
    }

    // Not generic, so the delivery loop compiles here, once. Compiled
    // into `run_lba` instead, it changed how that loop inlines its own
    // steps, and `cosim-mix` ran 4-11% slower.
    fn deliver_frame(
        &self,
        lifeguard: &mut dyn Lifeguard,
        records: &[EventRecord],
        mem: Option<&mut MemSystem>,
        core: usize,
        findings: &mut Vec<Finding>,
    ) -> u64 {
        let mask = lifeguard.subscriptions();
        let mut fixed = 0u64;
        let mut ctx = HandlerCtx::new(mem, core, findings);
        for record in records {
            if mask.contains(record.kind) {
                lifeguard.on_event(record, &mut ctx);
                fixed += self.config.dispatch_cycles;
            } else {
                fixed += self.config.unsubscribed_cycles;
            }
        }
        fixed + ctx.cycles()
    }

    /// Runs the lifeguard's end-of-log hook, returning its cycle cost.
    pub fn finish<'m>(
        &self,
        lifeguard: &mut dyn Lifeguard,
        mem: impl Into<Option<&'m mut MemSystem>>,
        core: usize,
        findings: &mut Vec<Finding>,
    ) -> u64 {
        let mut ctx = HandlerCtx::new(mem.into(), core, findings);
        lifeguard.on_finish(&mut ctx);
        ctx.cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lba_cache::MemSystemConfig;
    use lba_record::EventKind;

    struct Probe {
        events: Vec<EventKind>,
        finished: bool,
    }

    impl Lifeguard for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn subscriptions(&self) -> EventMask {
            EventMask::of(&[EventKind::Load, EventKind::Alloc])
        }
        fn on_event(&mut self, record: &EventRecord, ctx: &mut HandlerCtx<'_>) {
            self.events.push(record.kind);
            ctx.alu(5);
        }
        fn on_finish(&mut self, ctx: &mut HandlerCtx<'_>) {
            self.finished = true;
            ctx.alu(7);
        }
    }

    #[test]
    fn subscribed_events_invoke_handler() {
        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let mut findings = Vec::new();
        let engine = DispatchEngine::default();
        let mut lg = Probe {
            events: Vec::new(),
            finished: false,
        };
        let rec = EventRecord::load(0x1000, 0, Some(1), Some(2), 0x100, 4);
        let cycles = engine.deliver(&mut lg, &rec, &mut mem, 1, &mut findings);
        assert_eq!(cycles, 2 + 5);
        assert_eq!(lg.events, vec![EventKind::Load]);
    }

    #[test]
    fn unsubscribed_events_cost_one_cycle() {
        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let mut findings = Vec::new();
        let engine = DispatchEngine::default();
        let mut lg = Probe {
            events: Vec::new(),
            finished: false,
        };
        let rec = EventRecord::alu(0x1000, 0, Some(1), Some(2), Some(3));
        let cycles = engine.deliver(&mut lg, &rec, &mut mem, 1, &mut findings);
        assert_eq!(cycles, 1);
        assert!(lg.events.is_empty(), "handler must not run");
    }

    #[test]
    fn finish_runs_end_hook() {
        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let mut findings = Vec::new();
        let engine = DispatchEngine::default();
        let mut lg = Probe {
            events: Vec::new(),
            finished: false,
        };
        let cycles = engine.finish(&mut lg, &mut mem, 1, &mut findings);
        assert!(lg.finished);
        assert_eq!(cycles, 7);
    }

    /// A mixed frame: subscribed loads/allocs interleaved with
    /// unsubscribed ALU records.
    fn mixed_frame() -> Vec<EventRecord> {
        (0..20)
            .map(|i| match i % 3 {
                0 => EventRecord::load(0x1000 + i * 8, 0, Some(1), Some(2), 0x100 + i * 4, 4),
                1 => EventRecord::alu(0x1000 + i * 8, 0, Some(1), Some(2), Some(3)),
                _ => EventRecord {
                    pc: 0x1000 + i * 8,
                    kind: EventKind::Alloc,
                    tid: 0,
                    in1: Some(1),
                    in2: None,
                    out: Some(2),
                    addr: 0x4000_0000 + i * 64,
                    size: 32,
                },
            })
            .collect()
    }

    #[test]
    fn batch_delivery_matches_per_record_sum() {
        let records = mixed_frame();
        let engine = DispatchEngine::default();

        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let mut findings = Vec::new();
        let mut lg = Probe {
            events: Vec::new(),
            finished: false,
        };
        let per_record: u64 = records
            .iter()
            .map(|r| engine.deliver(&mut lg, r, &mut mem, 1, &mut findings))
            .sum();
        let per_record_events = lg.events.clone();

        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let mut findings = Vec::new();
        let mut lg = Probe {
            events: Vec::new(),
            finished: false,
        };
        let batched = engine.deliver_batch(&mut lg, &records, &mut mem, 1, &mut findings);

        assert_eq!(batched, per_record, "cycle totals must be identical");
        assert_eq!(lg.events, per_record_events, "handler order must match");
    }

    #[test]
    fn batch_spanning_subscription_boundary_charges_unsubscribed_cycles() {
        // Regression: a frame holding both subscribed and unsubscribed
        // kinds must charge `unsubscribed_cycles` (not `dispatch_cycles`,
        // not zero) for each masked record.
        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let mut findings = Vec::new();
        let engine = DispatchEngine::new(DispatchConfig {
            dispatch_cycles: 10,
            unsubscribed_cycles: 3,
        });
        let mut lg = Probe {
            events: Vec::new(),
            finished: false,
        };
        // Two subscribed loads around three unsubscribed ALU records.
        let frame = vec![
            EventRecord::load(0x1000, 0, None, None, 0, 4),
            EventRecord::alu(0x1008, 0, None, None, None),
            EventRecord::alu(0x1010, 0, None, None, None),
            EventRecord::alu(0x1018, 0, None, None, None),
            EventRecord::load(0x1020, 0, None, None, 64, 4),
        ];
        let cycles = engine.deliver_batch(&mut lg, &frame, &mut mem, 1, &mut findings);
        // Each load: 10 dispatch + 5 handler ALU; each masked record: 3.
        assert_eq!(cycles, 2 * (10 + 5) + 3 * 3);
        assert_eq!(lg.events, vec![EventKind::Load, EventKind::Load]);
    }

    #[test]
    fn untimed_delivery_runs_the_same_handlers() {
        let records = mixed_frame();
        let engine = DispatchEngine::default();
        let mut lg = Probe {
            events: Vec::new(),
            finished: false,
        };
        let mut findings = Vec::new();
        let untimed = engine.deliver_batch(&mut lg, &records, None, 1, &mut findings);
        let untimed_events = std::mem::take(&mut lg.events);
        engine.finish(&mut lg, None, 1, &mut findings);
        assert!(lg.finished);

        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let timed = engine.deliver_batch(&mut lg, &records, &mut mem, 1, &mut findings);
        assert_eq!(lg.events, untimed_events, "handler order must match");
        // Probe charges only ALU work, so the totals agree too.
        assert_eq!(untimed, timed);
    }

    #[test]
    fn custom_config_respected() {
        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let mut findings = Vec::new();
        let engine = DispatchEngine::new(DispatchConfig {
            dispatch_cycles: 10,
            unsubscribed_cycles: 3,
        });
        let mut lg = Probe {
            events: Vec::new(),
            finished: false,
        };
        let rec = EventRecord::load(0x1000, 0, None, None, 0, 4);
        assert_eq!(
            engine.deliver(&mut lg, &rec, &mut mem, 1, &mut findings),
            15
        );
        let rec = EventRecord::alu(0x1000, 0, None, None, None);
        assert_eq!(engine.deliver(&mut lg, &rec, &mut mem, 1, &mut findings), 3);
    }
}
