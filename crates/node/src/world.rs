//! Assembles a complete scenario: topology, infrastructure, viewer
//! population, probe hosts and capture — then runs it.
//!
//! Mirrors the paper's measurement setup: a PPLive-style network with a
//! bootstrap server, five tracker groups deployed in Chinese ISPs, one
//! stream source, a churning viewer population, and a handful of probe
//! clients whose traffic is captured in full.
//!
//! Building is split in two so the sharded runner (see [`crate::shard`])
//! and the classic single-threaded path share one source of truth:
//! [`WorldLayout`] performs **all** seeded sampling (topology, NAT flags,
//! churn-storm victims) and enumerates every harness injection with its
//! global sequence number, and [`materialize`] turns that layout into a
//! concrete [`Simulation`] — either the whole world, or one shard of it.

use crate::stats::NodeMetrics;
use crate::{
    BootstrapServer, Fault, FaultPlan, PeerConfig, PeerNode, PeerStats, PolicySpec, StatsSink,
    TrackerServer,
};
use plsim_capture::{
    CaptureAggregates, CaptureConfig, FaultMark, ProbeTap, RemoteKind, TraceStore,
};
use plsim_des::{FaultEvent, NodeId, SchedulerKind, SimStats, SimTime, Simulation};
use plsim_net::{BandwidthClass, Isp, LinkModel, Topology, TopologyBuilder, Underlay};
use plsim_proto::{ChannelId, Message, PeerEntry, PeerListArena, TimerKind};
use plsim_telemetry::{MetricsRegistry, MetricsSnapshot};
use plsim_workload::SessionPlan;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A measurement host: an ordinary client whose traffic is captured.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeSpec {
    /// The probe's ISP (the paper deployed probes in TELE, CNC, CER and a
    /// US campus).
    pub isp: Isp,
    /// The probe's access link.
    pub bandwidth: BandwidthClass,
    /// Join time in seconds (probes stay until the end of the run).
    pub join_s: f64,
}

impl ProbeSpec {
    /// A residential ADSL probe in `isp` joining at t = 120 s, like the
    /// paper's China hosts.
    #[must_use]
    pub fn residential(isp: Isp) -> Self {
        ProbeSpec {
            isp,
            bandwidth: BandwidthClass::Adsl,
            join_s: 120.0,
        }
    }

    /// A campus probe (the paper's George Mason hosts → `Isp::Foreign`).
    #[must_use]
    pub fn campus(isp: Isp) -> Self {
        ProbeSpec {
            isp,
            bandwidth: BandwidthClass::Campus,
            join_s: 120.0,
        }
    }
}

/// Everything needed to build and run one scenario.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; identical configs + seeds give identical runs.
    pub seed: u64,
    /// Run length.
    pub duration: SimTime,
    /// The viewer population and churn schedule.
    pub plan: SessionPlan,
    /// Probe hosts to instrument.
    pub probes: Vec<ProbeSpec>,
    /// Link-quality model.
    pub link: LinkModel,
    /// Behaviour of every viewer (probes included — they are ordinary
    /// clients).
    pub peer_config: PeerConfig,
    /// Neighbor-selection policy for every peer (see [`crate::policy`]).
    /// Defaults to [`PolicySpec::GossipRace`], the paper's
    /// emergent-locality behaviour. Every policy is deterministic
    /// and bit-identical across shard counts and thread pools.
    pub policy: PolicySpec,
    /// The deterministic fault schedule (empty = fault-free baseline).
    pub faults: FaultPlan,
    /// Fraction of viewers behind a NAT (unreachable for unsolicited
    /// inbound traffic). Probes are never NATed, matching the study's
    /// directly-connected measurement hosts.
    pub nat_fraction: f64,
    /// Which kernel event scheduler the run uses. Defaults to the calendar
    /// queue; either choice produces bit-identical output.
    pub scheduler: SchedulerKind,
    /// How many space-partition shards drive the run (see the `shard`
    /// module). Defaults to 1, the classic single-threaded
    /// path. Output is bit-identical for every value; > 1 runs the world
    /// on multiple cores under conservative lookahead. A shard is a set of
    /// whole ISPs, so the partitioner uses at most as many shards as the
    /// world has populated ISPs (its report says how many it used).
    pub shards: usize,
    /// Worker threads available for shard driving. Defaults to the
    /// machine's parallelism; the driver never uses more threads than
    /// shards, and fewer threads than shards simply round-robins shards
    /// over them.
    pub shard_threads: usize,
    /// How capture bounds its memory: an optional resident-byte budget
    /// (sealed trace pages spill to disk past it) and an optional
    /// capture-time aggregation window. Defaults to no budget and no
    /// aggregation. Sharded runs split the budget
    /// evenly across shards ([`CaptureConfig::shard_share`]); every setting
    /// yields bit-identical analysis output — only peak memory changes.
    pub capture: CaptureConfig,
}

impl WorldConfig {
    /// A minimal config over the given plan with paper-default behaviour.
    #[must_use]
    pub fn new(seed: u64, plan: SessionPlan, duration: SimTime) -> Self {
        WorldConfig {
            seed,
            duration,
            plan,
            probes: Vec::new(),
            link: LinkModel::default(),
            peer_config: PeerConfig::default(),
            policy: PolicySpec::GossipRace,
            faults: FaultPlan::new(),
            nat_fraction: 0.0,
            scheduler: SchedulerKind::default(),
            shards: 1,
            shard_threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            capture: CaptureConfig::default(),
        }
    }
}

/// The channel everyone watches.
const CHANNEL: ChannelId = ChannelId(1);

/// The tracker deployment the paper found: five groups, all inside China.
const TRACKER_SITES: [Isp; 5] = [Isp::Tele, Isp::Tele, Isp::Cnc, Isp::Cnc, Isp::Cer];

/// One harness-scheduled event. Its global sequence number is its index in
/// [`WorldLayout::events`]: the single-shard build injects them in exactly
/// this order, so enumerating the list reproduces the sequence numbers the
/// kernel would have assigned.
#[derive(Debug, Clone)]
pub(crate) enum HarnessEvent {
    /// A node-level timer injection (joins, leaves, outage boundaries).
    Timer {
        /// Destination actor.
        to: NodeId,
        /// Which timer fires.
        kind: TimerKind,
    },
    /// A fault-window boundary marker (drives the medium and the capture
    /// trace; never dispatched to an actor).
    Fault(FaultEvent),
}

/// Everything about a scenario that must be decided *once*, before the
/// world is split into shards: the sampled topology, per-viewer NAT flags,
/// and the complete harness injection schedule with implicit sequence
/// numbers. Pure data — `Send + Sync` — so shard threads can materialize
/// their slices from one shared layout.
#[derive(Debug)]
pub(crate) struct WorldLayout {
    pub(crate) topology: Arc<Topology>,
    pub(crate) bootstrap: NodeId,
    pub(crate) trackers: Vec<NodeId>,
    pub(crate) source: NodeId,
    pub(crate) probes: Vec<NodeId>,
    pub(crate) peers: Vec<NodeId>,
    /// Parallel to `peers`: whether the viewer is behind a NAT.
    pub(crate) nat: Vec<bool>,
    /// Every harness injection in schedule order; index = sequence number.
    pub(crate) events: Vec<(SimTime, HarnessEvent)>,
    /// Per-host expected-event-rate weight, indexed by node id: the
    /// scheduled active microseconds of the host (infrastructure runs the
    /// whole horizon; a viewer from join to leave). Event volume is
    /// proportional to time spent ticking, so summed weights estimate a
    /// shard's event load far better than its host count — this is what
    /// rate-balanced partitioning packs by. Derived from the session plan
    /// only (never from world-seed sampling), so equal plans give equal
    /// rates across seeds and the partition stays seed-invariant.
    pub(crate) rates: Vec<u64>,
}

impl WorldLayout {
    /// Performs all of the scenario's seeded sampling. The draw order is
    /// load-bearing: topology hosts first (one `build_rng` stream), then
    /// NAT flags (same stream), then churn-storm victims (a dedicated
    /// `fault_rng` so adding a storm never perturbs topology or NAT).
    pub(crate) fn compute(cfg: &WorldConfig) -> WorldLayout {
        let mut build_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut topo = TopologyBuilder::new();

        // Ids are handed out in registration order; actors are added to the
        // simulation in exactly the same order by `materialize`.
        let bootstrap = topo.add_host(Isp::Tele, BandwidthClass::Backbone, &mut build_rng);
        let trackers: Vec<NodeId> = TRACKER_SITES
            .iter()
            .map(|&isp| topo.add_host(isp, BandwidthClass::Backbone, &mut build_rng))
            .collect();
        let source = topo.add_host(Isp::Tele, BandwidthClass::Backbone, &mut build_rng);
        let probes: Vec<NodeId> = cfg
            .probes
            .iter()
            .map(|p| topo.add_host(p.isp, p.bandwidth, &mut build_rng))
            .collect();
        let peers: Vec<NodeId> = cfg
            .plan
            .peers
            .iter()
            .map(|p| topo.add_host(p.isp, p.bandwidth, &mut build_rng))
            .collect();
        let topology = Arc::new(topo.build());

        // NAT flags, in viewer order (the short-circuit keeps the stream
        // untouched when the scenario has no NAT at all).
        let nat: Vec<bool> = cfg
            .plan
            .peers
            .iter()
            .map(|_| cfg.nat_fraction > 0.0 && build_rng.random::<f64>() < cfg.nat_fraction)
            .collect();

        // The harness schedule, in injection order (index = seq).
        let mut events: Vec<(SimTime, HarnessEvent)> = Vec::new();
        let timer =
            |at: SimTime, to: NodeId, kind: TimerKind| (at, HarnessEvent::Timer { to, kind });
        events.push(timer(SimTime::ZERO, source, TimerKind::Join));
        for (spec, &pid) in cfg.probes.iter().zip(&probes) {
            events.push(timer(
                SimTime::from_secs_f64(spec.join_s),
                pid,
                TimerKind::Join,
            ));
        }
        for (plan, &pid) in cfg.plan.peers.iter().zip(&peers) {
            events.push(timer(
                SimTime::from_secs_f64(plan.join_s),
                pid,
                TimerKind::Join,
            ));
            if plan.leave_s < cfg.duration.as_secs_f64() {
                events.push(timer(
                    SimTime::from_secs_f64(plan.leave_s),
                    pid,
                    TimerKind::Leave,
                ));
            }
        }

        // Fault plan: node-level faults become ordinary timer injections;
        // every boundary is also scheduled as a FaultEvent, which (a)
        // drives the medium's link-fault activation on the clock and (b)
        // lands in the capture trace as a marker for before/during/after
        // analysis.
        let mut fault_rng = SmallRng::seed_from_u64(cfg.seed ^ 0xC4A0_5F17_3B2D_9E61);
        for fault in cfg.faults.faults() {
            match fault {
                Fault::TrackerOutage { at, restore } => {
                    for &tid in &trackers {
                        events.push(timer(*at, tid, TimerKind::Leave));
                        if let Some(r) = restore {
                            events.push(timer(*r, tid, TimerKind::Join));
                        }
                    }
                }
                Fault::BootstrapOutage { at, restore } => {
                    events.push(timer(*at, bootstrap, TimerKind::Leave));
                    if let Some(r) = restore {
                        events.push(timer(*r, bootstrap, TimerKind::Join));
                    }
                }
                Fault::ChurnStorm {
                    at,
                    leave_fraction,
                    rejoin_after,
                } => {
                    let p = leave_fraction.clamp(0.0, 1.0);
                    let at_s = at.as_secs_f64();
                    for (plan, &pid) in cfg.plan.peers.iter().zip(&peers) {
                        // Only viewers whose session covers the storm are
                        // candidates; probes (the measurement hosts) are
                        // deliberately spared.
                        if plan.join_s <= at_s
                            && plan.leave_s > at_s
                            && fault_rng.random::<f64>() < p
                        {
                            events.push(timer(*at, pid, TimerKind::Leave));
                            if let Some(gap) = rejoin_after {
                                events.push(timer(*at + *gap, pid, TimerKind::Join));
                            }
                        }
                    }
                }
                // Applied by the medium via `with_faults` in `materialize`.
                Fault::Link(_) => {}
            }
        }
        for (t, label, begins) in cfg.faults.timeline() {
            let ev = if begins {
                FaultEvent::begin(label)
            } else {
                FaultEvent::end(label)
            };
            events.push((t, HarnessEvent::Fault(ev)));
        }

        // Expected-event-rate weights in host-id order: bootstrap,
        // trackers and source tick for the whole horizon; probes from
        // their join; viewers for their planned session, clamped to the
        // horizon and floored at one microsecond so every host has weight.
        let horizon = cfg.duration.as_micros();
        let active = |join_s: f64, leave_s: f64| {
            let join = SimTime::from_secs_f64(join_s.max(0.0))
                .as_micros()
                .min(horizon);
            let leave = SimTime::from_secs_f64(leave_s.max(0.0))
                .as_micros()
                .min(horizon);
            leave.saturating_sub(join).max(1)
        };
        let mut rates = vec![horizon.max(1); 2 + trackers.len()];
        rates.extend(
            cfg.probes
                .iter()
                .map(|p| active(p.join_s, cfg.duration.as_secs_f64())),
        );
        rates.extend(cfg.plan.peers.iter().map(|p| active(p.join_s, p.leave_s)));
        debug_assert_eq!(rates.len(), topology.len());

        WorldLayout {
            topology,
            bootstrap,
            trackers,
            source,
            probes,
            peers,
            nat,
            events,
            rates,
        }
    }
}

/// Which slice of the world a [`materialize`] call builds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardRole<'a> {
    /// This shard's index. Shard 0 owns the real fault timeline (so fault
    /// counters and capture markers fire exactly once); the others mirror
    /// it as shadow faults.
    pub(crate) index: usize,
    /// Total shard count (splits the capture budget evenly).
    pub(crate) count: usize,
    /// `local[node]` — whether the node lives on this shard.
    pub(crate) local: &'a [bool],
}

/// One materialized (sub-)world: the simulation plus the thread-local
/// instruments it reports into.
#[derive(Debug)]
pub(crate) struct ShardSim {
    pub(crate) sim: Simulation<Message>,
    pub(crate) registry: MetricsRegistry,
    pub(crate) tap: ProbeTap,
    pub(crate) arena: PeerListArena,
}

/// Builds the simulation described by `layout` — the whole world
/// (`role: None`) or one shard of it. Actor ids, scheduling identities and
/// random streams are identical either way; a shard simply skips the
/// actors (and their injections) that live elsewhere, registering remote
/// placeholders so the id space lines up.
pub(crate) fn materialize(
    cfg: &WorldConfig,
    layout: &WorldLayout,
    sink: &StatsSink,
    role: Option<ShardRole<'_>>,
) -> ShardSim {
    let topology = &layout.topology;
    // A shard's tap gets an even slice of the capture budget, so the
    // shards together stay within the configured bound.
    let capture = role.map_or(cfg.capture, |r| cfg.capture.shard_share(r.count));
    let tap = ProbeTap::with_config(layout.probes.iter().copied(), Arc::clone(topology), capture);
    if role.is_some() {
        tap.enable_stamps();
    }
    // Each probe produces a steady stream of data requests/replies and
    // gossip; seeding capacity from run length avoids repeated growth
    // reallocations on the capture path.
    let expected_records = layout.probes.len() * (cfg.duration.as_secs_f64() as usize) * 8;
    tap.reserve(expected_records);

    // One registry per materialized world: the kernel, the interconnect
    // queue and every peer intern their instruments here; sharded runs
    // merge the per-shard snapshots into one export.
    let registry = MetricsRegistry::new();
    // One peer-list arena per materialized world: every tracker response
    // and gossip payload interns into the same recycled block pool, so the
    // steady-state message loop never allocates a peer list.
    let arena = PeerListArena::new();
    let mut underlay =
        Underlay::new(Arc::clone(topology), cfg.link).with_faults(cfg.faults.link_faults());
    underlay.attach_metrics(&registry);
    let mut sim: Simulation<Message> =
        Simulation::with_scheduler(cfg.seed, underlay, registry.clone(), cfg.scheduler);
    sim.set_monitor(tap.clone());

    let is_local = |id: NodeId| role.is_none_or(|r| r.local[id.index()]);
    let entry = |id: NodeId| PeerEntry::new(id, topology.host(id).ip);
    let tracker_entries: Vec<PeerEntry> = layout.trackers.iter().map(|&t| entry(t)).collect();

    // Config rewrites (e.g. TrackerOnly) apply to the source and the
    // viewers alike.
    let peer_config = cfg.policy.adapt_config(cfg.peer_config);

    // Bootstrap server.
    if is_local(layout.bootstrap) {
        let mut bootstrap = BootstrapServer::new();
        bootstrap.add_channel(CHANNEL, tracker_entries.clone());
        let id = sim.add_actor(Box::new(bootstrap));
        debug_assert_eq!(id, layout.bootstrap);
    } else {
        sim.add_remote_actor();
    }
    tap.mark_remote(layout.bootstrap, RemoteKind::Bootstrap);

    // Trackers.
    for &tid in &layout.trackers {
        if is_local(tid) {
            let mut tracker = TrackerServer::new(Arc::clone(topology));
            tracker.attach_arena(&arena);
            let id = sim.add_actor(Box::new(tracker));
            debug_assert_eq!(id, tid);
        } else {
            sim.add_remote_actor();
        }
        tap.mark_remote(tid, RemoteKind::Tracker);
    }

    // The `node.*` handles every peer shares, interned by the first local
    // peer (so the registry's order is what it would be if each peer
    // interned its own) and cloned into the rest.
    let mut node_metrics: Option<NodeMetrics> = None;

    // Source: bigger neighbor budget (set by its `Role`), same protocol.
    if is_local(layout.source) {
        let mut src = PeerNode::source(
            peer_config,
            cfg.policy,
            CHANNEL,
            entry(layout.source),
            tracker_entries,
            Arc::clone(topology),
            sink.clone(),
        );
        src.attach_metrics(node_metrics.get_or_insert_with(|| NodeMetrics::attached(&registry)));
        src.attach_arena(&arena);
        let id = sim.add_actor(Box::new(src));
        debug_assert_eq!(id, layout.source);
    } else {
        sim.add_remote_actor();
    }
    tap.mark_remote(layout.source, RemoteKind::Source);

    // Probes (ordinary viewers, captured), then the population.
    let viewers = layout.probes.iter().map(|&pid| (pid, false)).chain(
        layout
            .peers
            .iter()
            .zip(&layout.nat)
            .map(|(&pid, &nat)| (pid, nat)),
    );
    for (pid, nat) in viewers {
        if is_local(pid) {
            let mut peer = PeerNode::viewer(
                peer_config,
                cfg.policy,
                CHANNEL,
                entry(pid),
                layout.bootstrap,
                Arc::clone(topology),
                sink.clone(),
            );
            peer.attach_metrics(
                node_metrics.get_or_insert_with(|| NodeMetrics::attached(&registry)),
            );
            peer.attach_arena(&arena);
            if nat {
                peer = peer.behind_nat();
            }
            let id = sim.add_actor(Box::new(peer));
            debug_assert_eq!(id, pid);
        } else {
            sim.add_remote_actor();
        }
    }

    // The harness schedule. Every event keeps its layout index as its
    // sequence number, so a shard's subset sits in exactly the global
    // positions the single-shard build would have used. Real fault events
    // go to shard 0 only (counters and capture markers fire once); the
    // other shards mirror them as shadow faults so their media activate at
    // the same points of the global pop order.
    let mut shadow_faults: Vec<(SimTime, u64, FaultEvent)> = Vec::new();
    for (seq, (at, ev)) in layout.events.iter().enumerate() {
        let seq = seq as u64;
        match ev {
            HarnessEvent::Timer { to, kind } => {
                if is_local(*to) {
                    sim.inject_with_seq(*at, *to, None, Message::Timer(*kind), 0, seq);
                }
            }
            HarnessEvent::Fault(fault) => match role {
                None | Some(ShardRole { index: 0, .. }) => {
                    sim.inject_fault_with_seq(*at, fault.clone(), seq);
                }
                Some(_) => shadow_faults.push((*at, seq, fault.clone())),
            },
        }
    }
    if let Some(r) = role {
        sim.enable_sharding(r.local.to_vec(), shadow_faults);
    }

    // Every live node keeps a handful of timers and in-flight messages
    // queued; reserving up front takes the event heap to steady-state
    // capacity before the first event fires. A shard sizes for the nodes
    // it hosts, not for the remote placeholders.
    let local_actors = role.map_or(sim.actor_count(), |r| {
        r.local.iter().filter(|&&here| here).count()
    });
    sim.reserve_events(local_actors * 4);

    ShardSim {
        sim,
        registry,
        tap,
        arena,
    }
}

/// Results of a finished run.
#[derive(Debug)]
pub struct WorldOutput {
    /// Everything captured at the probes, as packed rows. Under a
    /// capture budget the store may hold spilled pages; its cursors stream
    /// them back transparently.
    pub records: TraceStore,
    /// Capture-time aggregates (empty unless
    /// [`WorldConfig::capture`]`.aggregate_window` was set).
    pub aggregates: CaptureAggregates,
    /// Final stats of every peer that ever flushed.
    pub peer_stats: Vec<PeerStats>,
    /// The topology (ISP ground truth for analysis).
    pub topology: Arc<Topology>,
    /// Probe node ids, in `WorldConfig::probes` order.
    pub probes: Vec<NodeId>,
    /// The stream source.
    pub source: NodeId,
    /// Tracker server ids.
    pub trackers: Vec<NodeId>,
    /// The bootstrap server id.
    pub bootstrap: NodeId,
    /// Fault boundaries observed during the run, in firing order.
    pub fault_marks: Vec<FaultMark>,
    /// Kernel counters.
    pub sim: SimStats,
    /// End-of-run values of every instrument in the run's shared registry
    /// (kernel, interconnect and node counters in one export).
    pub metrics: MetricsSnapshot,
    /// How the run was space-partitioned (`None` on the classic
    /// single-shard path, including degenerate `shards > 1` requests that
    /// collapse to one shard).
    pub partition: Option<crate::shard::PartitionReport>,
}

/// A fully assembled, not-yet-run scenario (single-threaded path; the
/// sharded runner drives `materialize` directly).
#[derive(Debug)]
pub struct World {
    sim: Simulation<Message>,
    registry: MetricsRegistry,
    tap: ProbeTap,
    sink: StatsSink,
    topology: Arc<Topology>,
    probes: Vec<NodeId>,
    source: NodeId,
    trackers: Vec<NodeId>,
    bootstrap: NodeId,
    duration: SimTime,
}

impl World {
    /// Builds the scenario: allocates the topology, instantiates all
    /// actors, wires up capture, and schedules every join/leave.
    #[must_use]
    pub fn build(cfg: &WorldConfig) -> World {
        let layout = WorldLayout::compute(cfg);
        let sink = StatsSink::new();
        let parts = materialize(cfg, &layout, &sink, None);
        World {
            sim: parts.sim,
            registry: parts.registry,
            tap: parts.tap,
            sink,
            topology: layout.topology,
            probes: layout.probes,
            source: layout.source,
            trackers: layout.trackers,
            bootstrap: layout.bootstrap,
            duration: cfg.duration,
        }
    }

    /// Probe node ids in config order.
    #[must_use]
    pub fn probes(&self) -> &[NodeId] {
        &self.probes
    }

    /// Runs to the configured horizon and returns everything measured.
    #[must_use]
    pub fn run(mut self) -> WorldOutput {
        let sim_stats = self.sim.run_until(self.duration);
        self.sim.finish(self.duration);
        WorldOutput {
            records: self.tap.drain(),
            aggregates: self.tap.drain_aggregates(),
            fault_marks: self.tap.drain_faults(),
            peer_stats: self.sink.collect(),
            topology: self.topology,
            probes: self.probes,
            source: self.source,
            trackers: self.trackers,
            bootstrap: self.bootstrap,
            sim: sim_stats,
            metrics: self.registry.snapshot(),
            partition: None,
        }
    }
}

/// Builds and runs in one call. With `cfg.shards > 1` the world is driven
/// by the sharded runner (multi-core, conservative lookahead, bit-identical
/// output — see the `shard` module); otherwise by the classic path.
#[must_use]
pub fn run_world(cfg: &WorldConfig) -> WorldOutput {
    if cfg.shards > 1 {
        crate::shard::run_sharded(cfg)
    } else {
        World::build(cfg).run()
    }
}
