//! # plsim-des — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate on which the PPLive traffic-locality
//! reproduction runs. It provides:
//!
//! * [`SimTime`] — microsecond-resolution virtual time;
//! * [`Simulation`] — a single-threaded, seed-deterministic event loop;
//! * [`Actor`] — the behaviour trait implemented by peers, trackers and
//!   servers in higher layers;
//! * [`Medium`] — the pluggable network model (propagation + serialization +
//!   loss), implemented by `plsim-net`;
//! * [`Monitor`] — a traffic tap, implemented by `plsim-capture` to play the
//!   role Wireshark played in the original measurement study.
//!
//! Two properties matter for the reproduction and are enforced by tests:
//! events are delivered in non-decreasing time order with deterministic
//! tie-breaking, and a run is a pure function of the actors, the medium and
//! the RNG seed.
//!
//! Event ordering is pluggable ([`Scheduler`]): the reference
//! [`HeapScheduler`] and the default [`CalendarScheduler`] (an O(1)
//! self-resizing calendar queue) realise the identical `(time, origin, seq)`
//! total order, so scheduler choice affects speed, never results — a
//! property test drives both against arbitrary workloads to prove it. The
//! same origin-keyed order (plus per-actor random streams) makes the order
//! invariant under space partitioning: [`Simulation::enable_sharding`]
//! turns a simulation into one shard of a multi-core world that reproduces
//! the single-shard run bit for bit.
//!
//! # Examples
//!
//! ```
//! use plsim_des::{Actor, Context, FixedDelay, NodeId, SimTime, Simulation};
//!
//! struct Counter(u32);
//! impl Actor<()> for Counter {
//!     fn on_event(&mut self, ctx: &mut Context<'_, ()>, _from: Option<NodeId>, _p: ()) {
//!         self.0 += 1;
//!         if self.0 < 5 {
//!             ctx.schedule(SimTime::from_secs(1), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(0, FixedDelay(SimTime::ZERO));
//! let n = sim.add_actor(Box::new(Counter(0)));
//! sim.inject(SimTime::ZERO, n, None, (), 0);
//! sim.run_until(SimTime::from_secs(60));
//! assert_eq!(sim.now(), SimTime::from_secs(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod sched;
mod sim;
mod time;

pub use sched::{CalendarScheduler, EventKey, HeapScheduler, Scheduler, SchedulerKind};
pub use sim::{
    Actor, Context, Delivery, EventStamp, FaultEvent, FixedDelay, Medium, Monitor, NodeId,
    NullMonitor, PopRecord, RemoteEvent, SimStats, Simulation,
};
pub use time::SimTime;
