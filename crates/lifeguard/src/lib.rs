//! The lifeguard framework: dispatch engine, shadow state and findings.
//!
//! A *lifeguard* (the paper's term) is a monitoring program organised as a
//! collection of event handlers. On LBA hardware each handler ends with an
//! `nlba` (next-LBA-record) instruction; the dispatch engine fetches the
//! next record from the decompression engine, looks the handler up in a
//! jump table and pre-loads event values into registers.
//!
//! This crate models that machinery:
//!
//! * [`Lifeguard`] — the handler-collection trait implemented by
//!   AddrCheck, TaintCheck and LockSet (crate `lba-lifeguards`);
//! * [`DispatchEngine`] — charges the `nlba`/jump-table cost and invokes
//!   the handler; unsubscribed events fall through to a one-cycle no-op
//!   handler, modelling the hardware event filter;
//! * [`HandlerCtx`] — the cost meter handlers tick as they work: plain
//!   ALU work plus shadow-memory reads/writes that go through the lifeguard
//!   core's own L1 and the shared L2 ([`lba_cache::MemSystem`]);
//! * [`ShadowMemory`]/[`ShadowRegs`] — the functional shadow state;
//! * [`Finding`] — a detected problem (the lifeguard's output);
//! * [`AddrRangeFilter`] — the paper's proposed address-range filtering
//!   (§3 "we are working on … filtering techniques");
//! * [`CaptureFilter`]/[`IdempotencyClass`] — capture-side idempotent
//!   duplicate suppression under each lifeguard's declared soundness
//!   contract ([`Lifeguard::idempotency`]), composed with the range
//!   filter into one capture pass.
//!
//! # Examples
//!
//! A minimal lifeguard that counts stores:
//!
//! ```
//! use lba_cache::{MemSystem, MemSystemConfig};
//! use lba_lifeguard::{DispatchEngine, Finding, HandlerCtx, Lifeguard};
//! use lba_record::{EventKind, EventMask, EventRecord};
//!
//! struct StoreCounter {
//!     stores: u64,
//! }
//!
//! impl Lifeguard for StoreCounter {
//!     fn name(&self) -> &'static str {
//!         "store-counter"
//!     }
//!     fn subscriptions(&self) -> EventMask {
//!         EventMask::of(&[EventKind::Store])
//!     }
//!     fn on_event(&mut self, record: &EventRecord, ctx: &mut HandlerCtx<'_>) {
//!         self.stores += 1;
//!         ctx.alu(1);
//!     }
//! }
//!
//! let mut mem = MemSystem::new(MemSystemConfig::dual_core());
//! let mut findings = Vec::new();
//! let engine = DispatchEngine::default();
//! let mut lifeguard = StoreCounter { stores: 0 };
//! let rec = EventRecord::store(0x1000, 0, Some(1), Some(2), 0x4000_0000, 8);
//! let cycles = engine.deliver(&mut lifeguard, &rec, &mut mem, 1, &mut findings);
//! assert!(cycles >= 3, "dispatch + handler work");
//! assert_eq!(lifeguard.stores, 1);
//! ```

mod cost;
mod degradation;
mod dispatch;
mod filter;
mod finding;
pub mod history;
mod idempotency;
mod shadow;

pub use cost::HandlerCtx;
pub use degradation::{
    AlwaysSettled, DegradationPolicy, DegradationStats, DegradedInterval, RegionClassifier,
    MAX_RECORDED_INTERVALS,
};
pub use dispatch::{DispatchConfig, DispatchEngine, Lifeguard};
pub use filter::AddrRangeFilter;
pub use finding::{Finding, FindingKind};
pub use idempotency::{
    CaptureFilter, CaptureStats, IdempotencyClass, WindowSpec, MAX_WINDOW_ENTRIES,
};
pub use shadow::{ShadowMemory, ShadowRegs};
