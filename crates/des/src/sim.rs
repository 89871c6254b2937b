//! The event loop: actors, the network medium, monitors and the scheduler.
//!
//! A send's delivery is settled the moment it is made: the [`Medium`]
//! returns a delay or a drop, never a partial answer. In a sharded world
//! (see [`Simulation::enable_sharding`]) a send to another shard's node
//! leaves through the outbox with its arrival time and scheduling
//! identity already final.

use crate::sched::{EventKey, SchedulerImpl};
use crate::{SchedulerKind, SimTime};
use plsim_telemetry::{Counter, Gauge, MetricsRegistry};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node (actor) inside one simulation.
///
/// Node ids are dense indices handed out by [`Simulation::add_actor`] in
/// insertion order; they are only meaningful within the simulation that
/// created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Outcome of handing a message to the [`Medium`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver after the given one-way delay.
    After(SimTime),
    /// The packet is lost.
    Drop,
}

/// A first-class fault event in the simulation queue.
///
/// Fault events are scheduled by the harness ([`Simulation::inject_fault`])
/// and popped in timestamp order like any other event. When one fires, the
/// kernel notifies the [`Medium`] (so time-varying link state activates on
/// the simulation clock, not on wall-clock polling) and the [`Monitor`] (so
/// captures carry fault markers that analysis can segment on). Fault events
/// are never dispatched to actors — node-level faults (outages, churn) are
/// expressed as ordinary injected messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Human-readable fault label, e.g. `"tracker-outage"`.
    pub label: String,
    /// Whether this instant begins (`true`) or ends (`false`) the fault.
    pub begins: bool,
}

impl FaultEvent {
    /// A fault-window start marker.
    #[must_use]
    pub fn begin(label: impl Into<String>) -> Self {
        FaultEvent {
            label: label.into(),
            begins: true,
        }
    }

    /// A fault-window end marker.
    #[must_use]
    pub fn end(label: impl Into<String>) -> Self {
        FaultEvent {
            label: label.into(),
            begins: false,
        }
    }
}

/// The network model: decides how long a message takes between two nodes (or
/// whether it is lost).
///
/// The kernel consults the medium once per [`Context::send`]; implementations
/// typically combine propagation delay, serialization time and random jitter.
pub trait Medium<P> {
    /// Computes the one-way delivery outcome for `size_bytes` of payload sent
    /// from `from` to `to` at time `now`.
    fn transit(
        &mut self,
        from: NodeId,
        to: NodeId,
        size_bytes: u32,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> Delivery;

    /// Called when a scheduled [`FaultEvent`] fires, before the monitor sees
    /// it. Media with time-varying behaviour (loss ramps, partitions) use
    /// this as their clock-driven activation edge; the default ignores it.
    fn on_fault(&mut self, _now: SimTime, _fault: &FaultEvent) {}

    /// Called once by [`Simulation::finish`] when the run reaches its
    /// horizon, so media with internal queues can settle them to a
    /// deterministic end-of-run state (e.g. drain backlog gauges to the
    /// horizon). The default ignores it.
    fn on_run_end(&mut self, _horizon: SimTime) {}
}

/// A medium that delivers everything after a fixed delay. Useful in tests.
#[derive(Debug, Clone, Copy)]
pub struct FixedDelay(pub SimTime);

impl<P> Medium<P> for FixedDelay {
    fn transit(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        _size: u32,
        _now: SimTime,
        _rng: &mut SmallRng,
    ) -> Delivery {
        Delivery::After(self.0)
    }
}

/// The scheduling identity of one popped event: its firing time plus the
/// `(origin, seq)` pair that tie-breaks equal timestamps. Stamps from
/// different shards of the same world interleave into the global pop order
/// by simple comparison, which is what lets per-shard captures and queue
/// depths be merged bit-identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventStamp {
    /// Firing time.
    pub at: SimTime,
    /// Scheduling origin (0 = harness, actor id + 1 otherwise).
    pub origin: u32,
    /// The origin's monotone sequence number.
    pub seq: u64,
}

/// Observer of traffic crossing the medium. The capture layer implements this
/// to play the role Wireshark played in the paper's methodology.
pub trait Monitor<P> {
    /// Called when a node hands a message to the network (at send time).
    fn on_send(&mut self, _now: SimTime, _from: NodeId, _to: NodeId, _payload: &P, _size: u32) {}
    /// Called when the network delivers a message to its destination.
    fn on_deliver(&mut self, _now: SimTime, _from: NodeId, _to: NodeId, _payload: &P, _size: u32) {}
    /// Called when the medium drops a message.
    fn on_drop(&mut self, _now: SimTime, _from: NodeId, _to: NodeId, _payload: &P, _size: u32) {}
    /// Called when a scheduled [`FaultEvent`] fires (after the medium has
    /// been notified), so captures can interleave fault markers with
    /// traffic in timestamp order.
    fn on_fault(&mut self, _now: SimTime, _fault: &FaultEvent) {}
    /// Called at the start of every pop with the event's scheduling
    /// identity, before any other callback for that event. Sharded
    /// captures use the stamp to merge per-shard records back into the
    /// global pop order; the default ignores it.
    fn on_pop(&mut self, _stamp: EventStamp) {}
}

/// A monitor that observes nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMonitor;

impl<P> Monitor<P> for NullMonitor {}

/// A node behaviour. Implementations receive every event addressed to their
/// node and react through the [`Context`].
pub trait Actor<P> {
    /// Handles one event. `from` is `Some(sender)` for network messages and
    /// `None` for self-scheduled timers or events injected by the harness.
    fn on_event(&mut self, ctx: &mut Context<'_, P>, from: Option<NodeId>, payload: P);
}

enum Effect<P> {
    Send {
        to: NodeId,
        payload: P,
        size: u32,
        hold: SimTime,
    },
    Timer {
        delay: SimTime,
        payload: P,
    },
    Halt,
}

/// Handle through which an actor interacts with the simulation while
/// processing an event.
///
/// All side effects (sends, timers) are buffered and applied by the kernel
/// after the handler returns, which keeps event processing deterministic.
#[allow(missing_debug_implementations)]
pub struct Context<'a, P> {
    now: SimTime,
    self_id: NodeId,
    rng: &'a mut SmallRng,
    // Borrowed from the simulation's scratch buffer so the hot event loop
    // allocates nothing per event; drained by `apply_effects`.
    effects: &'a mut Vec<Effect<P>>,
}

impl<'a, P> Context<'a, P> {
    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node whose handler is running.
    #[must_use]
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// This node's private deterministic random stream. Every actor draws
    /// from its own generator (seeded from the master seed and the node
    /// id), so one node's randomness is independent of how other nodes'
    /// executions interleave — the property that lets a sharded run
    /// reproduce the single-shard run bit-for-bit.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Sends `payload` of `size` bytes to `to` through the network medium.
    pub fn send(&mut self, to: NodeId, payload: P, size: u32) {
        self.send_after(to, payload, size, SimTime::ZERO);
    }

    /// Sends a message that leaves this node only after `hold` has elapsed
    /// (e.g. sender-side upload queueing); the medium delay is added on top.
    pub fn send_after(&mut self, to: NodeId, payload: P, size: u32, hold: SimTime) {
        self.effects.push(Effect::Send {
            to,
            payload,
            size,
            hold,
        });
    }

    /// Schedules `payload` to be delivered back to this node after `delay`,
    /// bypassing the medium (a timer).
    pub fn schedule(&mut self, delay: SimTime, payload: P) {
        self.effects.push(Effect::Timer { delay, payload });
    }

    /// Requests that the whole simulation stop once the current event has
    /// been processed.
    ///
    /// # Panics
    ///
    /// Panics (when the effect is applied) in sharded worlds: a halt is
    /// local to the shard that requested it, so honouring it would
    /// silently diverge from the single-shard run. The panic message
    /// names the requesting shard.
    pub fn halt(&mut self) {
        self.effects.push(Effect::Halt);
    }
}

enum EventPayload<P> {
    /// A message or timer addressed to an actor.
    Msg(P),
    /// A scheduled fault activation (never dispatched to an actor).
    Fault(FaultEvent),
}

/// Body of a queued event; ordering lives in the scheduler's [`EventKey`].
struct EventBody<P> {
    to: NodeId,
    from: Option<NodeId>,
    payload: EventPayload<P>,
    size: u32,
}

/// Free-list slot pool for event bodies.
///
/// Every queued event owns one slot, addressed by the `slot` field of its
/// scheduler key. Slots are recycled on pop, so once the pool has grown to
/// the queue's high-water mark the steady-state event loop performs no
/// allocations: push writes into a recycled slot, the scheduler moves a
/// `Copy` key, and pop moves the body back out.
struct EventPool<P> {
    slots: Vec<Option<EventBody<P>>>,
    free: Vec<u32>,
}

impl<P> EventPool<P> {
    fn new() -> EventPool<P> {
        EventPool {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `body`, returning its slot index.
    fn insert(&mut self, body: EventBody<P>) -> u32 {
        if let Some(idx) = self.free.pop() {
            debug_assert!(self.slots[idx as usize].is_none());
            self.slots[idx as usize] = Some(body);
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("event pool exhausted u32 slots");
            self.slots.push(Some(body));
            idx
        }
    }

    /// Moves the body out of `slot` and recycles the slot.
    fn take(&mut self, slot: u32) -> EventBody<P> {
        let body = self.slots[slot as usize]
            .take()
            .expect("scheduler key points at an empty pool slot");
        self.free.push(slot);
        body
    }

    fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
        self.free.reserve(additional);
    }
}

/// Counters describing a finished (or paused) run.
///
/// Since the telemetry refactor this is a *view*: the kernel's counters
/// live in a [`MetricsRegistry`] (names `des.events_processed`,
/// `des.messages_sent`, `des.messages_dropped`, `des.faults_activated`
/// and the `des.queue_depth` gauge), and [`Simulation::stats`]
/// reconstructs this struct from the registered handles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimStats {
    /// Events popped and dispatched to actors.
    pub events_processed: u64,
    /// Messages handed to the medium.
    pub messages_sent: u64,
    /// Messages the medium dropped.
    pub messages_dropped: u64,
    /// Largest number of events resident in the queue at any point.
    pub peak_queue_depth: u64,
    /// Scheduled [`FaultEvent`]s that fired.
    pub faults_activated: u64,
}

/// One cross-shard message leaving a sharded simulation: the scheduled
/// arrival (`at`), the sender-assigned scheduling identity (`origin`,
/// `seq`) — already final, so the receiving shard enqueues it into exactly
/// the position the single-shard run would have — and the event body.
#[derive(Debug)]
pub struct RemoteEvent<P> {
    /// Arrival time at the destination (medium delay already applied).
    pub at: SimTime,
    /// Scheduling origin (sender's actor id + 1).
    pub origin: u32,
    /// The origin's sequence number for this event.
    pub seq: u64,
    /// Sending node.
    pub from: NodeId,
    /// Destination node (owned by another shard).
    pub to: NodeId,
    /// Message payload.
    pub payload: P,
    /// Bytes on the wire.
    pub size: u32,
}

impl<P> RemoteEvent<P> {
    /// The same event with its payload passed through `f` — how a payload
    /// changes form to cross a thread boundary and back.
    #[must_use]
    pub fn map<Q>(self, f: impl FnOnce(P) -> Q) -> RemoteEvent<Q> {
        RemoteEvent {
            at: self.at,
            origin: self.origin,
            seq: self.seq,
            from: self.from,
            to: self.to,
            payload: f(self.payload),
            size: self.size,
        }
    }
}

/// One entry of a shard's pop log: the popped event's scheduling identity
/// plus how many events its processing scheduled (local pushes and
/// cross-shard emissions alike). Merging the logs of all shards in stamp
/// order and replaying pops as `-1` / pushes as `+1` reconstructs the
/// single-shard run's queue-depth trajectory — and therefore its exact
/// `peak_queue_depth` — without any shard ever seeing the global queue.
#[derive(Debug, Clone, Copy)]
pub struct PopRecord {
    /// The popped event's stamp.
    pub stamp: EventStamp,
    /// Events scheduled while processing it.
    pub pushes: u32,
}

/// Sharding state of one space-partitioned simulation (see
/// [`Simulation::enable_sharding`]).
struct ShardState<P> {
    /// This shard's index in the partition (for diagnostics).
    index: usize,
    /// `local[i]` — whether node `i` is owned by this shard.
    local: Vec<bool>,
    /// Cross-shard sends awaiting pickup by the shard driver.
    outbox: Vec<RemoteEvent<P>>,
    /// Pop log for the global queue-depth replay.
    pop_log: Vec<PopRecord>,
    /// Fault boundaries owned by shard 0, mirrored here so this shard's
    /// medium activates them at the same points of the global pop order:
    /// `(at, seq)` with origin 0, sorted ascending.
    shadow_faults: Vec<(SimTime, u64, FaultEvent)>,
    /// First unapplied shadow fault.
    shadow_next: usize,
}

/// A single-threaded deterministic discrete-event simulation.
///
/// The simulation owns a set of [`Actor`]s, a [`Medium`] that models the
/// network between them, and an optional [`Monitor`] observing all traffic.
/// Events are processed in `(time, origin, seq)` order — equal timestamps
/// resolve by the scheduling actor and its private monotone counter — and
/// every actor draws randomness from its own seed-derived stream, so a run
/// is a pure function of (actors, medium, seed) and, crucially, of nothing
/// about how the world is partitioned: a sharded world (see
/// [`Simulation::enable_sharding`]) pops the same events in the same order
/// as the single-shard run.
///
/// # Examples
///
/// ```
/// use plsim_des::{Actor, Context, FixedDelay, NodeId, SimTime, Simulation};
///
/// struct Echo;
/// impl Actor<u32> for Echo {
///     fn on_event(&mut self, ctx: &mut Context<'_, u32>, from: Option<NodeId>, n: u32) {
///         if let Some(peer) = from {
///             if n > 0 {
///                 ctx.send(peer, n - 1, 8);
///             }
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(42, FixedDelay(SimTime::from_millis(10)));
/// let a = sim.add_actor(Box::new(Echo));
/// let b = sim.add_actor(Box::new(Echo));
/// sim.inject(SimTime::ZERO, b, Some(a), 3, 8);
/// sim.run_until(SimTime::from_secs(1));
/// assert_eq!(sim.stats().events_processed, 4);
/// ```
pub struct Simulation<P> {
    now: SimTime,
    sched: SchedulerImpl,
    pool: EventPool<P>,
    actors: Vec<Option<Box<dyn Actor<P>>>>,
    medium: Box<dyn Medium<P>>,
    monitor: Box<dyn Monitor<P>>,
    /// Master seed; every actor stream derives from it.
    seed: u64,
    /// One private random stream per actor slot, indexed by node id.
    actor_rngs: Vec<SmallRng>,
    /// Per-origin monotone sequence counters: index 0 is the harness,
    /// index `i + 1` is actor `i`.
    next_seq: Vec<u64>,
    registry: MetricsRegistry,
    // Hot-path handles interned once from `registry` (no lookup per event).
    events_processed: Counter,
    messages_sent: Counter,
    messages_dropped: Counter,
    faults_activated: Counter,
    queue_depth: Gauge,
    halted: bool,
    // Reusable effect buffer; empty between events, capacity persists.
    scratch: Vec<Effect<P>>,
    /// Pushes performed while processing the current pop (pop-log entry).
    pop_pushes: u32,
    /// Present iff this simulation is one shard of a partitioned world.
    shard: Option<ShardState<P>>,
}

/// Derives the private stream seed of `origin` from the master seed
/// (splitmix64 finalizer over a golden-ratio mix — same stream whichever
/// shard materialises the actor).
fn stream_seed(master: u64, origin: u32) -> u64 {
    let mut z = master
        ^ u64::from(origin)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<P> Simulation<P> {
    /// Creates an empty simulation with the given RNG `seed` and network
    /// `medium`, observed by no monitor. Kernel counters go to a private
    /// [`MetricsRegistry`]; use [`Simulation::with_registry`] to share one
    /// across layers. Events are ordered by the default scheduler
    /// ([`SchedulerKind::Calendar`]); use [`Simulation::with_scheduler`]
    /// to pick the reference heap instead.
    pub fn new(seed: u64, medium: impl Medium<P> + 'static) -> Self {
        Self::with_registry(seed, medium, MetricsRegistry::new())
    }

    /// Like [`Simulation::new`], but interns the kernel counters into the
    /// caller's `registry` so node, network and capture metrics share one
    /// snapshot/export path.
    pub fn with_registry(
        seed: u64,
        medium: impl Medium<P> + 'static,
        registry: MetricsRegistry,
    ) -> Self {
        Self::with_scheduler(seed, medium, registry, SchedulerKind::default())
    }

    /// Full-control constructor: shared `registry` plus an explicit event
    /// scheduler. Both schedulers realise the same `(time, origin, seq)`
    /// pop order, so the choice affects speed, never results.
    pub fn with_scheduler(
        seed: u64,
        medium: impl Medium<P> + 'static,
        registry: MetricsRegistry,
        scheduler: SchedulerKind,
    ) -> Self {
        Simulation {
            now: SimTime::ZERO,
            sched: SchedulerImpl::new(scheduler),
            pool: EventPool::new(),
            actors: Vec::new(),
            medium: Box::new(medium),
            monitor: Box::new(NullMonitor),
            seed,
            actor_rngs: Vec::new(),
            next_seq: vec![0],
            events_processed: registry.counter("des.events_processed"),
            messages_sent: registry.counter("des.messages_sent"),
            messages_dropped: registry.counter("des.messages_dropped"),
            faults_activated: registry.counter("des.faults_activated"),
            queue_depth: registry.gauge("des.queue_depth"),
            registry,
            halted: false,
            scratch: Vec::new(),
            pop_pushes: 0,
            shard: None,
        }
    }

    /// The metrics registry the kernel counters are interned in.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Which scheduler this simulation orders events with.
    #[must_use]
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.sched.kind()
    }

    /// Installs a traffic monitor, replacing any previous one.
    pub fn set_monitor(&mut self, monitor: impl Monitor<P> + 'static) {
        self.monitor = Box::new(monitor);
    }

    /// Registers an actor and returns its node id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<P>>) -> NodeId {
        let id = NodeId(u32::try_from(self.actors.len()).expect("too many actors"));
        self.actors.push(Some(actor));
        self.actor_rngs
            .push(SmallRng::seed_from_u64(stream_seed(self.seed, id.0)));
        self.next_seq.push(0);
        id
    }

    /// Registers a *remote* actor slot: the node id exists (so the global
    /// id space stays dense and messages can be addressed to it), but the
    /// behaviour lives in another shard. Events are never dispatched
    /// locally to a remote slot — sends to it leave through the outbox.
    pub fn add_remote_actor(&mut self) -> NodeId {
        let id = NodeId(u32::try_from(self.actors.len()).expect("too many actors"));
        self.actors.push(None);
        self.actor_rngs
            .push(SmallRng::seed_from_u64(stream_seed(self.seed, id.0)));
        self.next_seq.push(0);
        id
    }

    /// Number of registered actors (local and remote slots).
    #[must_use]
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Current virtual time (the timestamp of the last processed event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run counters so far, reconstructed from the registry handles.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        SimStats {
            events_processed: self.events_processed.get(),
            messages_sent: self.messages_sent.get(),
            messages_dropped: self.messages_dropped.get(),
            peak_queue_depth: self.queue_depth.peak(),
            faults_activated: self.faults_activated.get(),
        }
    }

    /// Whether an actor asked the simulation to halt.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Injects an event from the harness (e.g. a node's join signal).
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past of the simulation clock.
    pub fn inject(&mut self, at: SimTime, to: NodeId, from: Option<NodeId>, payload: P, size: u32) {
        assert!(at >= self.now, "cannot inject an event into the past");
        let seq = self.next_seq[0];
        self.next_seq[0] = seq + 1;
        self.push(at, 0, seq, to, from, EventPayload::Msg(payload), size);
    }

    /// [`Simulation::inject`] with an explicit harness sequence number —
    /// the shard-materialisation hook. A shard injects only the events
    /// addressed to its own actors, but with the sequence numbers the
    /// single-shard build would have assigned, so injected events keep
    /// their global position among same-timestamp peers.
    pub fn inject_with_seq(
        &mut self,
        at: SimTime,
        to: NodeId,
        from: Option<NodeId>,
        payload: P,
        size: u32,
        seq: u64,
    ) {
        assert!(at >= self.now, "cannot inject an event into the past");
        self.next_seq[0] = self.next_seq[0].max(seq + 1);
        self.push(at, 0, seq, to, from, EventPayload::Msg(payload), size);
    }

    /// Schedules a [`FaultEvent`] to fire at `at`. When it does, the medium
    /// and monitor are notified in that order; no actor sees it.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past of the simulation clock.
    pub fn inject_fault(&mut self, at: SimTime, fault: FaultEvent) {
        assert!(at >= self.now, "cannot inject a fault into the past");
        let seq = self.next_seq[0];
        self.next_seq[0] = seq + 1;
        self.push(at, 0, seq, NodeId(0), None, EventPayload::Fault(fault), 0);
    }

    /// [`Simulation::inject_fault`] with an explicit harness sequence
    /// number (see [`Simulation::inject_with_seq`]).
    pub fn inject_fault_with_seq(&mut self, at: SimTime, fault: FaultEvent, seq: u64) {
        assert!(at >= self.now, "cannot inject a fault into the past");
        self.next_seq[0] = self.next_seq[0].max(seq + 1);
        self.push(at, 0, seq, NodeId(0), None, EventPayload::Fault(fault), 0);
    }

    /// Pre-reserves queue capacity for at least `additional` more events.
    ///
    /// Harnesses call this after registering actors (each live node keeps a
    /// handful of timers and in-flight messages queued) so the scheduler and
    /// event pool reach steady-state capacity without growth reallocations.
    pub fn reserve_events(&mut self, additional: usize) {
        self.sched.reserve(additional);
        self.pool.reserve(additional);
    }

    /// Marks this simulation as shard `index` of a partitioned world.
    ///
    /// `local[i]` says whether node `i` lives here. Sends to non-local
    /// nodes are routed to the outbox (with their final `(origin, seq)`
    /// identity) instead of the local scheduler; every pop is logged for
    /// the global queue-depth replay. `shadow_faults` mirrors the fault
    /// timeline owned by shard 0 — `(at, harness seq, event)` sorted
    /// ascending — and is applied to this shard's medium lazily, exactly
    /// before the first local pop that the single-shard run would have
    /// processed after the fault.
    pub fn enable_sharding(
        &mut self,
        index: usize,
        local: Vec<bool>,
        shadow_faults: Vec<(SimTime, u64, FaultEvent)>,
    ) {
        debug_assert!(
            shadow_faults
                .windows(2)
                .all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)),
            "shadow faults must be sorted by (time, seq)"
        );
        self.shard = Some(ShardState {
            index,
            local,
            outbox: Vec::new(),
            pop_log: Vec::new(),
            shadow_faults,
            shadow_next: 0,
        });
    }

    /// Moves this shard's pending cross-shard sends into `into`
    /// (appending), leaving the outbox empty with its capacity intact.
    pub fn drain_outbox(&mut self, into: &mut Vec<RemoteEvent<P>>) {
        if let Some(shard) = &mut self.shard {
            into.append(&mut shard.outbox);
        }
    }

    /// Moves this shard's pop log into `into` (appending), leaving the log
    /// empty with its capacity intact. Entries are in pop (= stamp) order.
    pub fn drain_pop_log(&mut self, into: &mut Vec<PopRecord>) {
        if let Some(shard) = &mut self.shard {
            into.append(&mut shard.pop_log);
        }
    }

    /// Enqueues a cross-shard event delivered by the shard driver. The
    /// event keeps the scheduling identity its sender assigned, so it
    /// lands in exactly the position of the single-shard pop order;
    /// arrival order across `ingest_remote` calls is irrelevant.
    pub fn ingest_remote(&mut self, ev: RemoteEvent<P>) {
        debug_assert!(
            self.shard.as_ref().is_none_or(|s| s.local[ev.to.index()]),
            "remote event routed to the wrong shard"
        );
        let slot = self.pool.insert(EventBody {
            to: ev.to,
            from: Some(ev.from),
            payload: EventPayload::Msg(ev.payload),
            size: ev.size,
        });
        self.sched.push(EventKey {
            at: ev.at,
            seq: ev.seq,
            origin: ev.origin,
            slot,
        });
        // Not counted as a push in the pop log: the sender's emission
        // already was (it is the same push, seen from the other side).
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        at: SimTime,
        origin: u32,
        seq: u64,
        to: NodeId,
        from: Option<NodeId>,
        payload: EventPayload<P>,
        size: u32,
    ) {
        let slot = self.pool.insert(EventBody {
            to,
            from,
            payload,
            size,
        });
        self.sched.push(EventKey {
            at,
            seq,
            origin,
            slot,
        });
        self.pop_pushes += 1;
        // The queue only reaches a new high-water mark right after a push,
        // so updating the gauge here (not on pop) preserves the peak. In a
        // sharded run the per-shard gauge is only an input to the merged
        // replay, which reconstructs the global trajectory from pop logs.
        self.queue_depth.set(self.sched.len() as u64);
    }

    /// Runs until the queue drains, an actor halts the simulation, or the
    /// next event would be later than `end` (inclusive). Returns the stats
    /// at exit.
    pub fn run_until(&mut self, end: SimTime) -> SimStats {
        self.run_bounded(end);
        self.stats()
    }

    /// Runs one conservative lookahead window: processes every queued
    /// event with `at < end` (strictly — `end` is the start of the next
    /// window, whose events may still be in flight from other shards).
    pub fn run_window(&mut self, end: SimTime) {
        debug_assert!(end > SimTime::ZERO, "empty lookahead window");
        self.run_bounded(SimTime::from_micros(end.as_micros() - 1));
    }

    /// Declares the run finished at `horizon`: applies any shadow faults
    /// not yet reached and lets the medium settle its end-of-run state.
    /// The single-shard and sharded paths both call this exactly once.
    pub fn finish(&mut self, horizon: SimTime) {
        if let Some(mut shard) = self.shard.take() {
            while shard.shadow_next < shard.shadow_faults.len() {
                let (at, _, fault) = &shard.shadow_faults[shard.shadow_next];
                if *at > horizon {
                    break;
                }
                self.medium.on_fault(*at, fault);
                shard.shadow_next += 1;
            }
            self.shard = Some(shard);
        }
        self.medium.on_run_end(horizon);
        // The gauge's last `set` happened at the final push, not at the end
        // of the run; settle it to the actual resident count so a sharded
        // replay (which reconstructs exactly this number) agrees with it.
        self.queue_depth.finalize(self.sched.len() as u64);
    }

    fn run_bounded(&mut self, bound: SimTime) {
        while !self.halted {
            let Some(key) = self.sched.pop_next_before(bound) else {
                break;
            };
            let stamp = EventStamp {
                at: key.at,
                origin: key.origin,
                seq: key.seq,
            };
            // Mirror shard 0's fault boundaries into this shard's medium at
            // their exact global pop position: every shadow fault that the
            // single-shard run would have popped before this event applies
            // now, before the event's sends consult the medium.
            if let Some(shard) = &mut self.shard {
                while shard.shadow_next < shard.shadow_faults.len() {
                    let (at, seq, fault) = &shard.shadow_faults[shard.shadow_next];
                    if (*at, 0u32, *seq) >= (stamp.at, stamp.origin, stamp.seq) {
                        break;
                    }
                    self.medium.on_fault(*at, fault);
                    shard.shadow_next += 1;
                }
            }
            let ev = self.pool.take(key.slot);
            self.now = key.at;
            self.events_processed.inc();
            self.pop_pushes = 0;
            self.monitor.on_pop(stamp);

            let payload = match ev.payload {
                EventPayload::Fault(fault) => {
                    self.faults_activated.inc();
                    self.medium.on_fault(self.now, &fault);
                    self.monitor.on_fault(self.now, &fault);
                    self.log_pop(stamp);
                    continue;
                }
                EventPayload::Msg(payload) => payload,
            };

            if let Some(sender) = ev.from {
                self.monitor
                    .on_deliver(self.now, sender, ev.to, &payload, ev.size);
            }

            let idx = ev.to.index();
            let mut actor = match self.actors.get_mut(idx).and_then(Option::take) {
                Some(a) => a,
                // Actor slot missing: event addressed to an unknown node.
                None => {
                    self.log_pop(stamp);
                    continue;
                }
            };
            let mut effects = std::mem::take(&mut self.scratch);
            let mut ctx = Context {
                now: self.now,
                self_id: ev.to,
                rng: &mut self.actor_rngs[idx],
                effects: &mut effects,
            };
            actor.on_event(&mut ctx, ev.from, payload);
            self.actors[idx] = Some(actor);
            self.apply_effects(ev.to, &mut effects);
            self.scratch = effects;
            self.log_pop(stamp);
        }
    }

    #[inline]
    fn log_pop(&mut self, stamp: EventStamp) {
        if let Some(shard) = &mut self.shard {
            shard.pop_log.push(PopRecord {
                stamp,
                pushes: self.pop_pushes,
            });
        }
    }

    fn apply_effects(&mut self, origin: NodeId, effects: &mut Vec<Effect<P>>) {
        let origin_key = origin.0 + 1;
        for effect in effects.drain(..) {
            match effect {
                Effect::Send {
                    to,
                    payload,
                    size,
                    hold,
                } => {
                    self.messages_sent.inc();
                    self.monitor.on_send(self.now, origin, to, &payload, size);
                    let depart = self.now + hold;
                    match self.medium.transit(
                        origin,
                        to,
                        size,
                        depart,
                        &mut self.actor_rngs[origin.index()],
                    ) {
                        Delivery::After(delay) => {
                            let seq = self.next_seq[origin_key as usize];
                            self.next_seq[origin_key as usize] = seq + 1;
                            let at = depart + delay;
                            let local = self.shard.as_ref().is_none_or(|s| s.local[to.index()]);
                            if local {
                                self.push(
                                    at,
                                    origin_key,
                                    seq,
                                    to,
                                    Some(origin),
                                    EventPayload::Msg(payload),
                                    size,
                                );
                            } else {
                                // Cross-shard: same scheduling identity, but
                                // the push lands in the receiver's queue.
                                // It still counts as a push of *this* pop in
                                // the global depth replay.
                                let shard = self.shard.as_mut().expect("checked above");
                                shard.outbox.push(RemoteEvent {
                                    at,
                                    origin: origin_key,
                                    seq,
                                    from: origin,
                                    to,
                                    payload,
                                    size,
                                });
                                self.pop_pushes += 1;
                            }
                        }
                        Delivery::Drop => {
                            self.messages_dropped.inc();
                            self.monitor.on_drop(self.now, origin, to, &payload, size);
                        }
                    }
                }
                Effect::Timer { delay, payload } => {
                    let seq = self.next_seq[origin_key as usize];
                    self.next_seq[origin_key as usize] = seq + 1;
                    self.push(
                        self.now + delay,
                        origin_key,
                        seq,
                        origin,
                        None,
                        EventPayload::Msg(payload),
                        0,
                    );
                }
                Effect::Halt => {
                    // A halt is local to the shard that requested it, so in
                    // a sharded run honouring it would silently diverge
                    // from the single-shard pop order. Fail loudly instead.
                    if let Some(shard) = &self.shard {
                        panic!(
                            "Context::halt is not supported in sharded worlds \
                             (halt requested on shard {})",
                            shard.index
                        );
                    }
                    self.halted = true;
                }
            }
        }
    }

    /// Gives mutable access to a registered actor (e.g. to extract results
    /// after the run).
    ///
    /// Returns `None` for unknown ids.
    pub fn actor_mut(&mut self, id: NodeId) -> Option<&mut dyn Actor<P>> {
        match self.actors.get_mut(id.index()) {
            Some(Some(actor)) => Some(actor.as_mut()),
            _ => None,
        }
    }
}

impl<P> fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("scheduler", &self.sched.kind().label())
            .field("actors", &self.actors.len())
            .field("queued", &self.sched.len())
            .field("sharded", &self.shard.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    struct Recorder {
        log: Arc<Mutex<Vec<(SimTime, u32)>>>,
    }

    impl Actor<u32> for Recorder {
        fn on_event(&mut self, ctx: &mut Context<'_, u32>, _from: Option<NodeId>, payload: u32) {
            self.log.lock().unwrap().push((ctx.now(), payload));
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new(1, FixedDelay(SimTime::ZERO));
        let n = sim.add_actor(Box::new(Recorder { log: log.clone() }));
        sim.inject(SimTime::from_secs(3), n, None, 3, 0);
        sim.inject(SimTime::from_secs(1), n, None, 1, 0);
        sim.inject(SimTime::from_secs(2), n, None, 2, 0);
        sim.run_until(SimTime::MAX);
        let got: Vec<u32> = log.lock().unwrap().iter().map(|&(_, p)| p).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new(1, FixedDelay(SimTime::ZERO));
        let n = sim.add_actor(Box::new(Recorder { log: log.clone() }));
        for p in 0..10 {
            sim.inject(SimTime::from_secs(5), n, None, p, 0);
        }
        sim.run_until(SimTime::MAX);
        let got: Vec<u32> = log.lock().unwrap().iter().map(|&(_, p)| p).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new(1, FixedDelay(SimTime::ZERO));
        let n = sim.add_actor(Box::new(Recorder { log: log.clone() }));
        sim.inject(SimTime::from_secs(1), n, None, 1, 0);
        sim.inject(SimTime::from_secs(10), n, None, 2, 0);
        let stats = sim.run_until(SimTime::from_secs(5));
        assert_eq!(stats.events_processed, 1);
        assert_eq!(sim.now(), SimTime::from_secs(1));
        // The later event is still queued and fires on the next call.
        sim.run_until(SimTime::from_secs(20));
        assert_eq!(sim.stats().events_processed, 2);
    }

    #[test]
    fn run_window_excludes_the_window_end() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new(1, FixedDelay(SimTime::ZERO));
        let n = sim.add_actor(Box::new(Recorder { log: log.clone() }));
        sim.inject(SimTime::from_secs(1), n, None, 1, 0);
        sim.inject(SimTime::from_secs(5), n, None, 2, 0);
        sim.run_window(SimTime::from_secs(5));
        assert_eq!(
            sim.stats().events_processed,
            1,
            "an event at exactly the window end belongs to the next window"
        );
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.stats().events_processed, 2);
    }

    struct Pinger {
        peer: Option<NodeId>,
        remaining: u32,
    }

    impl Actor<u32> for Pinger {
        fn on_event(&mut self, ctx: &mut Context<'_, u32>, from: Option<NodeId>, _payload: u32) {
            let target = from.or(self.peer);
            if self.remaining > 0 {
                if let Some(t) = target {
                    ctx.send(t, self.remaining, 100);
                    self.remaining -= 1;
                }
            }
        }
    }

    #[test]
    fn ping_pong_accumulates_medium_delay() {
        let mut sim = Simulation::new(7, FixedDelay(SimTime::from_millis(50)));
        let a = sim.add_actor(Box::new(Pinger {
            peer: None,
            remaining: 2,
        }));
        let b = sim.add_actor(Box::new(Pinger {
            peer: Some(a),
            remaining: 2,
        }));
        sim.inject(SimTime::ZERO, b, None, 0, 0);
        sim.run_until(SimTime::MAX);
        // b sends at 0 (arrives 50ms), a replies (100ms), b (150ms), a (200ms).
        assert_eq!(sim.now(), SimTime::from_millis(200));
        assert_eq!(sim.stats().messages_sent, 4);
    }

    struct Halter;
    impl Actor<u32> for Halter {
        fn on_event(&mut self, ctx: &mut Context<'_, u32>, _from: Option<NodeId>, _p: u32) {
            ctx.halt();
        }
    }

    #[test]
    fn halt_stops_processing() {
        let mut sim = Simulation::new(1, FixedDelay(SimTime::ZERO));
        let n = sim.add_actor(Box::new(Halter));
        sim.inject(SimTime::from_secs(1), n, None, 0, 0);
        sim.inject(SimTime::from_secs(2), n, None, 0, 0);
        sim.run_until(SimTime::MAX);
        assert!(sim.is_halted());
        assert_eq!(sim.stats().events_processed, 1);
    }

    #[test]
    #[should_panic(
        expected = "Context::halt is not supported in sharded worlds (halt requested on shard 3)"
    )]
    fn halt_in_a_sharded_world_panics_with_the_shard_id() {
        let mut sim = Simulation::new(1, FixedDelay(SimTime::ZERO));
        let n = sim.add_actor(Box::new(Halter));
        sim.enable_sharding(3, vec![true], Vec::new());
        sim.inject(SimTime::from_secs(1), n, None, 0, 0);
        sim.run_until(SimTime::MAX);
    }

    struct LossyMedium;
    impl Medium<u32> for LossyMedium {
        fn transit(
            &mut self,
            _from: NodeId,
            _to: NodeId,
            _size: u32,
            _now: SimTime,
            _rng: &mut SmallRng,
        ) -> Delivery {
            Delivery::Drop
        }
    }

    struct Sender {
        to: NodeId,
    }
    impl Actor<u32> for Sender {
        fn on_event(&mut self, ctx: &mut Context<'_, u32>, _from: Option<NodeId>, _p: u32) {
            ctx.send(self.to, 1, 10);
        }
    }

    #[test]
    fn dropped_messages_are_counted_not_delivered() {
        let mut sim = Simulation::new(1, LossyMedium);
        let sink = sim.add_actor(Box::new(Halter));
        let src = sim.add_actor(Box::new(Sender { to: sink }));
        sim.inject(SimTime::ZERO, src, None, 0, 0);
        sim.run_until(SimTime::MAX);
        assert_eq!(sim.stats().messages_dropped, 1);
        assert!(!sim.is_halted(), "sink never received anything");
    }

    #[test]
    fn peak_queue_depth_tracks_high_water_mark() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new(1, FixedDelay(SimTime::ZERO));
        let n = sim.add_actor(Box::new(Recorder { log }));
        sim.reserve_events(8);
        for p in 0..5 {
            sim.inject(SimTime::from_secs(u64::from(p) + 1), n, None, p, 0);
        }
        assert_eq!(sim.stats().peak_queue_depth, 5);
        sim.run_until(SimTime::MAX);
        // Draining the queue never raises the high-water mark.
        assert_eq!(sim.stats().peak_queue_depth, 5);
    }

    #[derive(Default)]
    struct FaultLog {
        medium_seen: Vec<(SimTime, String, bool)>,
    }

    struct FaultAwareMedium {
        log: Arc<Mutex<FaultLog>>,
    }
    impl Medium<u32> for FaultAwareMedium {
        fn transit(
            &mut self,
            _from: NodeId,
            _to: NodeId,
            _size: u32,
            _now: SimTime,
            _rng: &mut SmallRng,
        ) -> Delivery {
            Delivery::After(SimTime::ZERO)
        }
        fn on_fault(&mut self, now: SimTime, fault: &FaultEvent) {
            self.log
                .lock()
                .unwrap()
                .medium_seen
                .push((now, fault.label.clone(), fault.begins));
        }
    }

    struct FaultMonitor {
        seen: Arc<Mutex<Vec<(SimTime, String)>>>,
    }
    impl Monitor<u32> for FaultMonitor {
        fn on_fault(&mut self, now: SimTime, fault: &FaultEvent) {
            self.seen.lock().unwrap().push((now, fault.label.clone()));
        }
    }

    #[test]
    fn fault_events_activate_medium_and_monitor_on_the_clock() {
        let log = Arc::new(Mutex::new(FaultLog::default()));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new(1, FaultAwareMedium { log: log.clone() });
        sim.set_monitor(FaultMonitor { seen: seen.clone() });
        let recorder = Arc::new(Mutex::new(Vec::new()));
        let n = sim.add_actor(Box::new(Recorder {
            log: recorder.clone(),
        }));
        sim.inject_fault(SimTime::from_secs(5), FaultEvent::begin("partition"));
        sim.inject_fault(SimTime::from_secs(9), FaultEvent::end("partition"));
        sim.inject(SimTime::from_secs(7), n, None, 42, 0);
        let stats = sim.run_until(SimTime::MAX);

        assert_eq!(stats.faults_activated, 2);
        let medium = &log.lock().unwrap().medium_seen;
        assert_eq!(
            *medium,
            vec![
                (SimTime::from_secs(5), "partition".to_string(), true),
                (SimTime::from_secs(9), "partition".to_string(), false),
            ]
        );
        assert_eq!(seen.lock().unwrap().len(), 2);
        // The actor event interleaved between the two fault edges fired too.
        assert_eq!(recorder.lock().unwrap().len(), 1);
    }

    #[test]
    fn fault_events_are_not_dispatched_to_actors() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new(1, FixedDelay(SimTime::ZERO));
        let _n = sim.add_actor(Box::new(Recorder { log: log.clone() }));
        sim.inject_fault(SimTime::from_secs(1), FaultEvent::begin("outage"));
        sim.run_until(SimTime::MAX);
        assert!(log.lock().unwrap().is_empty());
        assert_eq!(sim.stats().faults_activated, 1);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn injecting_a_fault_into_the_past_panics() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new(1, FixedDelay(SimTime::ZERO));
        let n = sim.add_actor(Box::new(Recorder { log }));
        sim.inject(SimTime::from_secs(2), n, None, 1, 0);
        sim.run_until(SimTime::MAX);
        sim.inject_fault(SimTime::from_secs(1), FaultEvent::begin("late"));
    }

    #[test]
    fn kernel_counters_flow_through_registry() {
        let registry = MetricsRegistry::new();
        let mut sim = Simulation::new_with_shared(registry.clone());
        let a = sim.add_actor(Box::new(Pinger {
            peer: None,
            remaining: 2,
        }));
        let b = sim.add_actor(Box::new(Pinger {
            peer: Some(a),
            remaining: 2,
        }));
        sim.inject(SimTime::ZERO, b, None, 0, 0);
        sim.inject_fault(SimTime::from_secs(1), FaultEvent::begin("blip"));
        sim.run_until(SimTime::MAX);

        let stats = sim.stats();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("des.events_processed"),
            Some(stats.events_processed)
        );
        assert_eq!(snap.counter("des.messages_sent"), Some(stats.messages_sent));
        assert_eq!(snap.counter("des.faults_activated"), Some(1));
        assert_eq!(
            snap.gauge("des.queue_depth").unwrap().peak,
            stats.peak_queue_depth
        );
        assert!(stats.peak_queue_depth >= 1);
    }

    impl Simulation<u32> {
        // Test helper: a shared-registry sim with a fixed tiny delay.
        fn new_with_shared(registry: MetricsRegistry) -> Self {
            Simulation::with_registry(7, FixedDelay(SimTime::from_millis(50)), registry)
        }
    }

    #[test]
    #[should_panic(expected = "past")]
    fn injecting_into_the_past_panics() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new(1, FixedDelay(SimTime::ZERO));
        let n = sim.add_actor(Box::new(Recorder { log }));
        sim.inject(SimTime::from_secs(1), n, None, 1, 0);
        sim.run_until(SimTime::MAX);
        sim.inject(SimTime::ZERO, n, None, 2, 0);
    }

    /// Bounces a payload back and forth `payload` more times.
    struct Bouncer;
    impl Actor<u32> for Bouncer {
        fn on_event(&mut self, ctx: &mut Context<'_, u32>, from: Option<NodeId>, n: u32) {
            if let Some(peer) = from {
                if n > 0 {
                    ctx.send(peer, n - 1, 64);
                }
            }
        }
    }

    /// Manually drives a two-shard split of a two-actor ping-pong world
    /// through lookahead windows and checks it reproduces the single-shard
    /// run: same delivery times, same counters, and a pop-log replay that
    /// reconstructs the reference peak queue depth.
    #[test]
    fn sharded_windows_reproduce_the_single_sim_run() {
        const HOPS: u32 = 9;
        let delay = SimTime::from_millis(50);
        let horizon = SimTime::from_secs(2);

        // Reference: both actors in one simulation.
        let mut reference = Simulation::new(11, FixedDelay(delay));
        let a = reference.add_actor(Box::new(Bouncer));
        let b = reference.add_actor(Box::new(Bouncer));
        reference.inject(SimTime::ZERO, b, Some(a), HOPS, 64);
        let ref_stats = reference.run_until(horizon);
        reference.finish(horizon);

        // Sharded: one actor per shard, window = the 50 ms link delay.
        let mut shard0 = Simulation::new(11, FixedDelay(delay));
        let a0 = shard0.add_actor(Box::new(Bouncer));
        let b0 = shard0.add_remote_actor();
        assert_eq!((a0, b0), (a, b));
        shard0.enable_sharding(0, vec![true, false], Vec::new());

        let mut shard1 = Simulation::new(11, FixedDelay(delay));
        let _ = shard1.add_remote_actor();
        let b1 = shard1.add_actor(Box::new(Bouncer));
        shard1.enable_sharding(1, vec![false, true], Vec::new());
        shard1.inject_with_seq(SimTime::ZERO, b1, Some(a), HOPS, 64, 0);

        let window = delay;
        let mut t = SimTime::ZERO;
        let mut wire: Vec<RemoteEvent<u32>> = Vec::new();
        let mut log = Vec::new();
        while t < horizon {
            let end = (t + window).min(horizon);
            if end == horizon {
                shard0.run_until(end);
                shard1.run_until(end);
            } else {
                shard0.run_window(end);
                shard1.run_window(end);
            }
            shard0.drain_outbox(&mut wire);
            shard1.drain_outbox(&mut wire);
            for ev in wire.drain(..) {
                if ev.to == a {
                    shard0.ingest_remote(ev);
                } else {
                    shard1.ingest_remote(ev);
                }
            }
            t = end;
        }
        shard0.finish(horizon);
        shard1.finish(horizon);
        shard0.drain_pop_log(&mut log);
        shard1.drain_pop_log(&mut log);
        log.sort_by_key(|r| r.stamp);

        let s0 = shard0.stats();
        let s1 = shard1.stats();
        assert_eq!(
            s0.events_processed + s1.events_processed,
            ref_stats.events_processed
        );
        assert_eq!(s0.messages_sent + s1.messages_sent, ref_stats.messages_sent);
        assert_eq!(sim_clock_max(&shard0, &shard1), reference.now());

        // Depth replay: initial depth = injected events before the run.
        let mut depth: u64 = 1;
        let mut peak: u64 = 1;
        for rec in &log {
            depth -= 1;
            for _ in 0..rec.pushes {
                depth += 1;
                peak = peak.max(depth);
            }
        }
        assert_eq!(peak, ref_stats.peak_queue_depth);
    }

    fn sim_clock_max(a: &Simulation<u32>, b: &Simulation<u32>) -> SimTime {
        a.now().max(b.now())
    }
}
