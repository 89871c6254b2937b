//! # plsim-telemetry — the unified telemetry core
//!
//! Every layer of the simulator observes itself: the DES kernel counts
//! events, the underlay tracks interconnect backlogs, nodes account
//! playback, and the capture tap stores packet traces. Before this crate
//! each of those invented its own accounting; here they share three
//! primitives:
//!
//! * a **metrics registry** ([`MetricsRegistry`]) of named counters,
//!   gauges and fixed-bucket histograms. Handles are interned once by name
//!   and are allocation-free on the hot path (a handle is an `Rc<Cell>`
//!   bump — no map lookup, no `RefCell` borrow per increment). One
//!   [`MetricsSnapshot`] per run is the single export path feeding
//!   `core::export`, `ScenarioRun` and `plbench`'s per-layer counts.
//! * a **spill tier** ([`SpillFile`]): an append-only frame store on disk
//!   that `plsim_capture::TraceStore` evicts sealed row pages to under a
//!   byte budget, which is what lets a capture-on run hold a bounded
//!   resident set however long the trace.
//! * **online sketches** ([`P2Quantile`], [`StreamingMoments`]) so
//!   single-pass analysis folds can summarize distributions without
//!   retaining samples.
//!
//! The crate deliberately depends on nothing but `serde`, so any layer —
//! including the DES kernel at the very bottom — can use it.
//!
//! # Examples
//!
//! ```
//! use plsim_telemetry::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let events = registry.counter("des.events_processed");
//! let depth = registry.gauge("des.queue_depth");
//! events.inc();
//! depth.set(3);
//! depth.set(1);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("des.events_processed"), Some(1));
//! assert_eq!(snap.gauge("des.queue_depth").unwrap().peak, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod arena;
mod metrics;
mod sketch;
mod spill;

pub use arena::BlockArena;
pub use metrics::{
    Counter, Gauge, GaugeValue, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use sketch::{P2Quantile, StreamingMoments};
pub use spill::{parse_byte_budget, SpillFile, SpillFrame};
