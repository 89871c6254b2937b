//! The PPLive peer: bootstrap, tracker queries, neighbor gossip, the
//! latency-weighted chunk scheduler, playback, and (for the source role)
//! chunk production.
//!
//! Under the default [`PolicySpec::GossipRace`] nothing in this file ever
//! looks at ISP or topology information to make a decision: peers only
//! observe *when* replies arrive, exactly like real PPLive clients, and the
//! only use of the shared [`Topology`] is to resolve the source address of
//! an incoming packet (which a real host reads from the IP header) and to
//! label traffic for telemetry. Traffic locality then *emerges* from the
//! decentralized, latency-based, neighbor-referral design — the paper's
//! central claim. The engineered-locality policies of [`crate::policy`]
//! ([`PolicySpec::BiasedLocality`] and friends) deliberately break that
//! blindness through [`PolicySpec::admits`] and
//! [`PolicySpec::wants_isp_hint`], which is precisely the experiment: how
//! much transit traffic does engineering save over emergence, and at what
//! quality cost?

use crate::chunks::{ChunkBook, PendingData, PendingGossip, PendingRequests};
use crate::config::{
    ConnectPolicy, DataSelection, PeerConfig, ACCEPT_SLACK, BATCH_SUBPIECES, BUFFER_TARGET,
    CANDIDATE_POOL, CHUNK_SUBPIECES, CONNECT_BURST, FULL_MASK, GOSSIP_FANOUT, GOSSIP_INTERVAL,
    HANDSHAKE_TIMEOUT, LIVE_WINDOW, MAINTENANCE_INTERVAL, MAX_NEIGHBORS, MAX_OUTSTANDING,
    PER_NEIGHBOR_OUTSTANDING, REQUEST_TIMEOUT, SCHEDULER_INTERVAL, SERVE_WINDOW, STARTUP_CHUNKS,
    STARTUP_JITTER,
};
use crate::det::{DetHashMap, NodeSet};
use crate::neighbors::{lag, NeighborTable};
use crate::policy::{CandidateLink, PolicySpec};
use crate::stats::{NodeMetrics, PeerStats, StatsSink};
use plsim_des::{Actor, Context, NodeId, SimTime};
use plsim_net::{Isp, Topology};
use plsim_proto::{
    ChannelId, ChunkId, Message, PeerEntry, PeerListArena, SharedPeerList, TimerKind,
};
use plsim_telemetry::MetricsRegistry;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::VecDeque;
use std::sync::Arc;

/// Whether the node is an ordinary viewer or the channel origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A viewing client that pulls the stream.
    Viewer,
    /// The stream source: produces chunks, serves, never pulls.
    Source,
}

impl Role {
    /// Neighbor slots the node actively fills; the source, which serves
    /// the whole channel, gets three times a viewer's.
    fn max_neighbors(self) -> usize {
        match self {
            Role::Viewer => MAX_NEIGHBORS,
            Role::Source => MAX_NEIGHBORS * 3,
        }
    }

    /// Inbound connections the node accepts beyond its slots.
    fn accept_slack(self) -> usize {
        match self {
            Role::Viewer => ACCEPT_SLACK,
            Role::Source => ACCEPT_SLACK * 3,
        }
    }
}

/// Application-layer processing floor added to every served reply. PPLive
/// serves from timer-driven application loops, so even idle peers answer
/// with a few hundred milliseconds of latency — the paper's Table 1 shows
/// ~0.5 s averages even for same-ISP data replies. A floor this size also
/// compresses the intra/cross response-time ratio to the paper's observed
/// 1.3–2×, which is what keeps traffic spread across a mixed neighbor
/// table instead of collapsing onto the nearest clique.
const PROCESSING_DELAY: SimTime = SimTime::from_millis(120);
/// Span of the additional random serving jitter (application tick phase).
const PROCESSING_JITTER_MS: u64 = 360;
/// If the upload queue is this far behind, an incoming request is dropped
/// (the paper observed a non-trivial number of unanswered peer-list
/// requests; overload is the natural cause).
const OVERLOAD_DROP: SimTime = SimTime::from_secs(3);
/// Playback skips a chunk after stalling this many consecutive ticks on it
/// (live players drop content rather than drift behind; PPLive's own
/// player skipped after a short freeze).
const SKIP_AFTER_STALLS: u32 = 5;
/// A stalled viewer whose playback point falls this many chunks behind the
/// live edge has dropped out of the mesh's serve window and must rebuffer
/// (jump forward), like a real player re-syncing a live stream.
const REBUFFER_LAG_CHUNKS: u64 = 40;

/// The sub-piece mask a wire `(offset, count)` pair names, or `None` when
/// the pair is empty or reaches past the end of a chunk. Both fields arrive
/// from the network, so they are checked before anything is shifted by them.
fn subpiece_mask(offset: u16, count: u16) -> Option<u64> {
    let end = offset.checked_add(count)?;
    if count == 0 || end > CHUNK_SUBPIECES {
        return None;
    }
    Some((((1u128 << count) - 1) as u64) << offset)
}

/// The PPLive node behaviour (viewer or source), a [`plsim_des::Actor`].
#[derive(Debug)]
pub struct PeerNode {
    cfg: PeerConfig,
    role: Role,
    channel: ChannelId,
    me: PeerEntry,
    up_bps: u64,
    bootstrap: NodeId,
    topology: Arc<Topology>,
    sink: StatsSink,
    /// Neighbor-admission strategy. The default [`PolicySpec::GossipRace`]
    /// admits everyone through hooks that are pure and RNG-free, so the
    /// policy layer leaves the emergent-locality code path bit-identical.
    policy: PolicySpec,
    /// This host's ISP (resolved once; policies condition on it).
    my_isp: Isp,
    /// Connected neighbors outside `my_isp`. Maintained by
    /// `add_neighbor`/`drop_neighbor`, which dedup through the neighbor
    /// table, so a peer learned from both a tracker reply and a gossip
    /// payload consumes one quota slot, not two.
    cross_isp_neighbors: usize,

    active: bool,
    started: bool,
    /// Whether unsolicited inbound packets reach this peer. NATed viewers
    /// (common in 2008 residential networks) can only be reached over
    /// connections they initiated; handshakes sent *to* them vanish, which
    /// is one natural source of the unanswered requests the paper observed.
    inbound_reachable: bool,
    trackers: Vec<PeerEntry>,

    neighbors: NeighborTable,
    pending_handshakes: DetHashMap<NodeId, SimTime>,
    candidates: VecDeque<PeerEntry>,
    candidate_set: NodeSet,

    /// chunk index → bitmasks of held and of requested sub-pieces, and
    /// the claimed frontier `schedule_requests` starts from.
    chunks: ChunkBook,
    pending_data: PendingRequests,
    pending_gossip: DetHashMap<u64, PendingGossip>,

    join_chunk: u64,
    /// Personal startup buffer (chunks), sampled at join: sets this
    /// viewer's playback lag behind the live edge.
    startup_target: u64,
    playhead: Option<u64>,
    playing: bool,
    stall_streak: u32,
    /// Source only: next chunk to produce.
    next_produced: u64,

    busy_until: SimTime,
    next_req_id: u64,
    maintenance_rounds: u64,
    data_servers: NodeSet,
    stats: PeerStats,
    metrics: NodeMetrics,
    /// Shared peer-list arena all outgoing lists intern into; the world
    /// builder swaps in the world-wide arena via [`PeerNode::attach_arena`].
    arena: PeerListArena,
    /// `my_peer_list`'s last intern, served until the neighbour table
    /// or the arena changes: `add_neighbor`, `drop_neighbor`,
    /// `forget_neighbors` and `attach_arena` drop it.
    referral_list: Option<SharedPeerList>,
    // Reusable scratch buffers so the steady-state loops allocate nothing.
    scratch_eligible: Vec<(NodeId, f64)>,
    scratch_ids: Vec<NodeId>,
    scratch_ids2: Vec<NodeId>,
    scratch_resps: Vec<f64>,
}

impl PeerNode {
    /// Creates a viewer for `channel` that selects neighbors by `policy`.
    ///
    /// `me` must be the entry matching this node's id and address in the
    /// topology; `topology` is used only as the packet-source-address
    /// oracle.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn viewer(
        cfg: PeerConfig,
        policy: PolicySpec,
        channel: ChannelId,
        me: PeerEntry,
        bootstrap: NodeId,
        topology: Arc<Topology>,
        sink: StatsSink,
    ) -> Self {
        Self::new(
            cfg,
            policy,
            Role::Viewer,
            channel,
            me,
            bootstrap,
            topology,
            sink,
        )
    }

    /// Creates the channel source. It skips bootstrap: `trackers` are
    /// preset, and it announces itself to them.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn source(
        cfg: PeerConfig,
        policy: PolicySpec,
        channel: ChannelId,
        me: PeerEntry,
        trackers: Vec<PeerEntry>,
        topology: Arc<Topology>,
        sink: StatsSink,
    ) -> Self {
        let mut node = Self::new(
            cfg,
            policy,
            Role::Source,
            channel,
            me,
            // The source never bootstraps; point at itself.
            me.node,
            topology,
            sink,
        );
        node.trackers = trackers;
        node
    }

    #[allow(clippy::too_many_arguments)]
    fn new(
        cfg: PeerConfig,
        policy: PolicySpec,
        role: Role,
        channel: ChannelId,
        me: PeerEntry,
        bootstrap: NodeId,
        topology: Arc<Topology>,
        sink: StatsSink,
    ) -> Self {
        let host = topology.host(me.node);
        let isp = host.isp;
        let up_bps = host.bandwidth.up_bps;
        PeerNode {
            cfg,
            role,
            channel,
            me,
            up_bps,
            bootstrap,
            topology,
            sink,
            policy,
            my_isp: isp,
            cross_isp_neighbors: 0,
            active: false,
            started: false,
            inbound_reachable: true,
            trackers: Vec::new(),
            neighbors: NeighborTable::default(),
            pending_handshakes: DetHashMap::default(),
            candidates: VecDeque::new(),
            candidate_set: NodeSet::default(),
            chunks: ChunkBook::default(),
            pending_data: PendingRequests::default(),
            pending_gossip: DetHashMap::default(),
            join_chunk: 0,
            startup_target: 0,
            playhead: None,
            playing: false,
            stall_streak: 0,
            next_produced: 0,
            busy_until: SimTime::ZERO,
            next_req_id: 0,
            maintenance_rounds: 0,
            data_servers: NodeSet::default(),
            stats: PeerStats::new(me.node, isp, SimTime::ZERO),
            metrics: NodeMetrics::default(),
            arena: PeerListArena::new(),
            referral_list: None,
            scratch_eligible: Vec::new(),
            scratch_ids: Vec::new(),
            scratch_ids2: Vec::new(),
            scratch_resps: Vec::new(),
        }
    }

    /// Binds this peer's population-wide counters (`node.*`) to `registry`,
    /// replacing the detached defaults. The per-node [`PeerStats`] ledger
    /// is unaffected; the registry carries cross-layer aggregates over the
    /// whole population.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = NodeMetrics::attached(registry);
    }

    /// Replaces this peer's private peer-list arena with the world-shared
    /// one, so every outgoing list interns into the same block pool.
    pub fn attach_arena(&mut self, arena: &PeerListArena) {
        self.arena = arena.clone();
        self.referral_list = None;
    }

    /// Marks the peer as sitting behind a NAT: unsolicited inbound traffic
    /// (handshakes and requests from peers it never contacted) is silently
    /// dropped, as a consumer NAT would do.
    #[must_use]
    pub fn behind_nat(mut self) -> Self {
        self.inbound_reachable = false;
        self
    }

    /// Current snapshot of this peer's counters.
    #[must_use]
    pub fn stats(&self) -> PeerStats {
        self.stats
    }

    /// Connected neighbor count (tests and ablations).
    #[must_use]
    pub fn neighbor_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Connected neighbors outside this peer's ISP (tests and telemetry).
    #[must_use]
    pub fn cross_isp_neighbor_count(&self) -> usize {
        self.cross_isp_neighbors
    }

    // ---- helpers -------------------------------------------------------

    /// Whether the selection policy admits `node` as a neighbor right now.
    /// Pure and RNG-free by the policy contract, so the default
    /// admit-everything policy leaves the message flow untouched.
    fn policy_admits(&self, node: NodeId) -> bool {
        self.policy.admits(&CandidateLink {
            same_isp: self.topology.host(node).isp == self.my_isp,
            base_rtt: self.topology.base_rtt(self.me.node, node),
            cross_isp_neighbors: self.cross_isp_neighbors,
            neighbors: self.neighbors.len(),
        })
    }

    fn upload_hold(&mut self, now: SimTime, size: u32) -> Option<SimTime> {
        let service = SimTime::from_micros((u64::from(size) * 8 * 1_000_000) / self.up_bps.max(1));
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        let hold = start.saturating_sub(now);
        if hold > OVERLOAD_DROP {
            return None;
        }
        self.busy_until = start + service;
        Some(hold + PROCESSING_DELAY)
    }

    fn my_peer_list(&mut self) -> SharedPeerList {
        // "A normal peer returns its recently connected peers." The epoch
        // walk is already in referral order, so this is one arena intern per
        // neighbour-table change; every list in between is a refcount bump.
        // An entry's address and `connected_at` are fixed at insert, so the
        // cached list holds exactly what a fresh intern would.
        let (arena, neighbors) = (&self.arena, &self.neighbors);
        self.referral_list
            .get_or_insert_with(|| arena.intern(neighbors.iter_epoch().map(|n| n.entry)))
            .clone()
    }

    fn add_candidates<'a, I: IntoIterator<Item = &'a PeerEntry>>(&mut self, entries: I) {
        for e in entries {
            // The tests are pure, so their order is free: most entries are
            // already candidates, and the bitmap is the cheapest test.
            if self.candidate_set.contains(e.node)
                || e.node == self.me.node
                || self.neighbors.contains(e.node)
                || self.pending_handshakes.contains_key(&e.node)
            {
                continue;
            }
            if self.candidates.len() >= CANDIDATE_POOL {
                if let Some(old) = self.candidates.pop_front() {
                    self.candidate_set.remove(old.node);
                }
            }
            self.candidate_set.insert(e.node);
            self.candidates.push_back(*e);
        }
    }

    /// Pops a candidate, biased toward the most recently learned entries:
    /// PPLive "connects immediately" from the list it just received, so
    /// referrals from fast (nearby) repliers get tried first — one of the
    /// mechanisms behind emergent locality.
    fn pop_random_candidate(&mut self, rng: &mut SmallRng) -> Option<PeerEntry> {
        if self.candidates.is_empty() {
            return None;
        }
        let window = self.candidates.len().min(40);
        let idx = self.candidates.len() - 1 - rng.random_range(0..window);
        let entry = self.candidates.swap_remove_back(idx)?;
        self.candidate_set.remove(entry.node);
        Some(entry)
    }

    fn try_connect(&mut self, ctx: &mut Context<'_, Message>) {
        if !self.active || self.cfg.connect_policy == ConnectPolicy::DelayedRandom {
            return;
        }
        self.connect_batch(ctx);
    }

    fn connect_batch(&mut self, ctx: &mut Context<'_, Message>) {
        let want = self
            .role
            .max_neighbors()
            .saturating_sub(self.neighbors.len());
        if want == 0 {
            return;
        }
        // Optimistic over-subscription: handshakes race, first acks win.
        let budget = (want * 2).saturating_sub(self.pending_handshakes.len());
        let burst = budget.min(CONNECT_BURST);
        for _ in 0..burst {
            let Some(entry) = self.pop_random_candidate(ctx.rng()) else {
                break;
            };
            // Policy gate. A rejected candidate still consumes its burst
            // slot (deterministically — the hook is pure), so one slow
            // round cannot turn into an unbounded candidate drain.
            if !self.policy_admits(entry.node) {
                self.metrics.policy_rejections.inc();
                continue;
            }
            let msg = Message::Handshake {
                channel: self.channel,
            };
            let size = msg.wire_size();
            ctx.send(entry.node, msg, size);
            self.pending_handshakes.insert(entry.node, ctx.now());
        }
    }

    fn gossip_to(&mut self, ctx: &mut Context<'_, Message>, neighbor: NodeId) {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        let msg = Message::PeerListRequest {
            channel: self.channel,
            my_peers: self.my_peer_list(),
            req_id,
        };
        let size = msg.wire_size();
        ctx.send(neighbor, msg, size);
        self.pending_gossip.insert(
            req_id,
            PendingGossip {
                to: neighbor,
                sent: ctx.now(),
            },
        );
        self.stats.gossip_requests_sent += 1;
        self.metrics.gossip_requests_sent.inc();
    }

    fn query_tracker(&mut self, ctx: &mut Context<'_, Message>, all: bool) {
        if self.trackers.is_empty() {
            return;
        }
        // An ISP-managed policy asks the tracker for same-ISP members
        // first; everyone else sends the classic locality-blind query.
        let msg = if self.policy.wants_isp_hint() {
            Message::TrackerQueryBiased {
                channel: self.channel,
                want_same_isp: plsim_proto::PeerList::MAX_LEN as u16,
            }
        } else {
            Message::TrackerQuery {
                channel: self.channel,
            }
        };
        let size = msg.wire_size();
        if all {
            for t in &self.trackers {
                ctx.send(t.node, msg.clone(), size);
            }
        } else {
            let idx = ctx.rng().random_range(0..self.trackers.len());
            ctx.send(self.trackers[idx].node, msg, size);
        }
    }

    fn satisfied(&self) -> bool {
        if !self.playing {
            return false;
        }
        let Some(playhead) = self.playhead else {
            return false;
        };
        let buffered = (playhead..playhead + 6)
            .filter(|&c| self.chunks.is_full(c))
            .count();
        buffered >= 4 && self.neighbors.len() >= self.role.max_neighbors() / 2
    }

    fn live_edge_estimate(&self, now: SimTime) -> u64 {
        now.as_secs().saturating_sub(3)
    }

    fn pick_data_neighbor(
        &mut self,
        rng: &mut SmallRng,
        now: SimTime,
        chunk: u64,
    ) -> Option<NodeId> {
        let mut eligible = std::mem::take(&mut self.scratch_eligible);
        eligible.clear();
        // The id-ordered walk replaces the old collect-and-sort: same
        // element order, so the RNG draws below land on the same peers.
        let chunk_lag = lag(chunk, now);
        eligible.extend(
            self.neighbors
                .iter_by_id()
                .filter(|(_, n)| {
                    n.outstanding < PER_NEIGHBOR_OUTSTANDING
                        && n.cooldown_until <= now
                        && n.may_hold(chunk_lag)
                })
                .map(|(id, n)| (id, n.weight)),
        );
        let picked = if eligible.is_empty() {
            None
        } else {
            match self.cfg.data_selection {
                DataSelection::Uniform => {
                    let idx = rng.random_range(0..eligible.len());
                    Some(eligible[idx].0)
                }
                DataSelection::LatencyWeighted => {
                    let total: f64 = eligible.iter().map(|(_, w)| w).sum();
                    let mut x = rng.random::<f64>() * total;
                    let mut pick = eligible[eligible.len() - 1].0;
                    for (id, w) in &eligible {
                        if x < *w {
                            pick = *id;
                            break;
                        }
                        x -= w;
                    }
                    Some(pick)
                }
            }
        };
        self.scratch_eligible = eligible;
        picked
    }

    /// Expires in-flight data requests past the timeout so their slots and
    /// sub-piece ranges can be retried immediately. Requests expire oldest
    /// first; the order is free because the per-request effects commute
    /// (disjoint mask bits cleared, counters stepped, and every expiry folds
    /// the same penalty value into the EWMA).
    fn expire_pending_data(&mut self, now: SimTime) {
        while let Some(p) = self.pending_data.pop_expired(now, REQUEST_TIMEOUT) {
            self.chunks.release(p.chunk, p.mask);
            if let Some(n) = self.neighbors.get_mut(p.to) {
                n.outstanding = n.outstanding.saturating_sub(1);
                n.observe_failure();
                n.observe_penalty(REQUEST_TIMEOUT.as_secs_f64());
            }
        }
    }

    fn schedule_requests(&mut self, ctx: &mut Context<'_, Message>) {
        if !self.started || !self.active || self.role == Role::Source {
            return;
        }
        let now = ctx.now();
        self.expire_pending_data(now);
        let live = self.live_edge_estimate(now);
        if !self.playing && self.join_chunk + self.startup_target + 30 < live {
            // Startup starved past the mesh's serve window: restart the
            // buffer from a recent, widely-held point.
            self.join_chunk = live.saturating_sub(4);
        }
        let base = self
            .playhead
            .unwrap_or(self.join_chunk)
            .max(self.join_chunk);
        if base > live {
            return;
        }
        // Before playback starts the window must cover the startup buffer,
        // or a viewer with a large startup target would starve.
        let ahead = if self.playing {
            BUFFER_TARGET
        } else {
            BUFFER_TARGET.max(self.startup_target + 2)
        };
        let end = live.min(base + ahead);
        // Every chunk in `base..start` is held or in flight in full, so a
        // walk over them would draw no RNG, send nothing and leave
        // `pending_data.len()` where it is: skipping them changes nothing.
        let start = self.chunks.scan_from(base);
        #[cfg(debug_assertions)]
        self.chunks.check_claimed(base, start);

        for chunk in start..=end {
            if self.pending_data.len() >= MAX_OUTSTANDING {
                return;
            }
            let mut need = self.chunks.need(chunk);
            while need != 0 {
                if self.pending_data.len() >= MAX_OUTSTANDING {
                    return;
                }
                let offset = need.trailing_zeros() as u16;
                // Take up to `batch` contiguous needed bits from `offset`.
                let mut count = 0u16;
                while count < BATCH_SUBPIECES
                    && offset + count < CHUNK_SUBPIECES
                    && (need >> (offset + count)) & 1 == 1
                {
                    count += 1;
                }
                let mask = (((1u128 << count) - 1) as u64) << offset;
                let Some(to) = self.pick_data_neighbor(ctx.rng(), now, chunk) else {
                    // Nobody eligible plausibly holds this chunk, so nobody
                    // holds a later one either: within this call `now` and
                    // the cooldowns are fixed, `outstanding` only grows and
                    // `may_hold` is monotone decreasing in the chunk index.
                    return;
                };
                let seq = self.pending_data.next_seq();
                let msg = Message::DataRequest {
                    channel: self.channel,
                    chunk: ChunkId(chunk),
                    offset,
                    count,
                    seq,
                };
                let size = msg.wire_size();
                ctx.send(to, msg, size);
                self.chunks.claim(chunk, mask);
                self.pending_data.push(PendingData {
                    to,
                    chunk,
                    mask,
                    sent: now,
                });
                if let Some(n) = self.neighbors.get_mut(to) {
                    n.outstanding += 1;
                }
                self.stats.data_requests_sent += 1;
                self.metrics.data_requests_sent.inc();
                need &= !mask;
            }
            self.chunks.mark_claimed(chunk);
        }
    }

    fn start_schedulers(&mut self, ctx: &mut Context<'_, Message>) {
        // Jitter the first ticks so peers don't beat in lockstep.
        let j = |ctx: &mut Context<'_, Message>, base_ms: u64| {
            SimTime::from_millis(ctx.rng().random_range(0..base_ms))
        };
        let g = GOSSIP_INTERVAL + j(ctx, 2000);
        ctx.schedule(g, Message::Timer(TimerKind::GossipRound));
        let t = self.cfg.tracker_interval_hungry() + j(ctx, 5000);
        ctx.schedule(t, Message::Timer(TimerKind::TrackerRound));
        let s = SCHEDULER_INTERVAL + j(ctx, 250);
        ctx.schedule(s, Message::Timer(TimerKind::Scheduler));
        let p = SimTime::from_secs(1) + j(ctx, 500);
        ctx.schedule(p, Message::Timer(TimerKind::Playback));
        let m = MAINTENANCE_INTERVAL + j(ctx, 1000);
        ctx.schedule(m, Message::Timer(TimerKind::Maintenance));
    }

    fn add_neighbor(&mut self, entry: PeerEntry, now: SimTime) {
        self.candidate_set.remove(entry.node);
        if self.neighbors.contains(entry.node) {
            // Already connected (e.g. the same peer arrived via a tracker
            // reply and a gossip payload): the table dedups, and the
            // cross-ISP quota must count connections, not sightings.
            return;
        }
        self.neighbors.insert_new(entry, now, self.cfg.latency_bias);
        self.referral_list = None;
        if self.topology.host(entry.node).isp != self.my_isp {
            self.cross_isp_neighbors += 1;
        }
    }

    fn drop_neighbor(&mut self, node: NodeId) {
        // Outstanding requests to a removed neighbor time out via
        // maintenance.
        if !self.neighbors.remove(node) {
            return;
        }
        self.referral_list = None;
        if self.topology.host(node).isp != self.my_isp {
            self.cross_isp_neighbors = self.cross_isp_neighbors.saturating_sub(1);
        }
    }

    fn flush_stats(&mut self) {
        self.stats.neighbors_now = self.neighbors.len() as u64;
        self.stats.unique_data_peers = self.data_servers.len() as u64;
        self.sink.publish(self.stats);
    }

    // ---- timer handlers ------------------------------------------------

    fn on_join(&mut self, ctx: &mut Context<'_, Message>) {
        if self.stats.joined_at == SimTime::ZERO {
            self.stats.joined_at = ctx.now();
        }
        let was_active = self.active;
        self.active = true;
        match self.role {
            Role::Viewer => {
                if self.started {
                    if !was_active {
                        // A churned-out viewer coming back: its recurring
                        // timers died with `active`, so restart the mesh
                        // machinery from scratch.
                        self.resume(ctx);
                    }
                    return;
                }
                if self.startup_target == 0 {
                    self.startup_target =
                        STARTUP_CHUNKS + ctx.rng().random_range(0..=STARTUP_JITTER);
                }
                ctx.send(self.bootstrap, Message::BootstrapRequest, 46);
                // Retry until the join completes (bootstrap packets can be
                // lost like any other). A dedicated retry kind keeps the
                // pending retry from reviving a peer that has since left.
                ctx.schedule(SimTime::from_secs(5), Message::Timer(TimerKind::JoinRetry));
            }
            Role::Source => {
                if self.started {
                    return;
                }
                self.started = true;
                self.next_produced = ctx.now().as_secs();
                ctx.schedule(
                    SimTime::from_secs(1),
                    Message::Timer(TimerKind::ProduceChunk),
                );
                // Announce immediately so early tracker queries find us.
                for t in &self.trackers {
                    let msg = Message::Announce {
                        channel: self.channel,
                    };
                    let size = msg.wire_size();
                    ctx.send(t.node, msg, size);
                }
                ctx.schedule(
                    SimTime::from_secs(120),
                    Message::Timer(TimerKind::AnnounceRound),
                );
                ctx.schedule(MAINTENANCE_INTERVAL, Message::Timer(TimerKind::Maintenance));
            }
        }
    }

    /// Re-enters the mesh after a churn-out: stale buffer, in-flight and
    /// candidate state is dropped (a restarted client starts cold) and the
    /// bootstrap-skipping rejoin path runs — the tracker set is already
    /// known, so the peer re-queries all trackers and restarts its timers.
    fn resume(&mut self, ctx: &mut Context<'_, Message>) {
        self.playing = false;
        self.playhead = None;
        self.stall_streak = 0;
        self.chunks.clear();
        self.pending_data.clear();
        self.pending_gossip.clear();
        self.pending_handshakes.clear();
        self.candidates.clear();
        self.candidate_set.clear();
        self.stats.departed = false;
        self.join_chunk = ctx.now().as_secs().saturating_sub(4);
        self.query_tracker(ctx, true);
        self.start_schedulers(ctx);
    }

    fn on_leave(&mut self, ctx: &mut Context<'_, Message>) {
        if !self.active {
            return;
        }
        self.active = false;
        self.stats.departed = true;
        self.metrics.departures.inc();
        let goodbye_size = Message::Goodbye.wire_size();
        // Map-order walk: the same Goodbye send order as the old table.
        for (n, _) in self.neighbors.iter_by_node() {
            ctx.send(n, Message::Goodbye, goodbye_size);
        }
        for t in &self.trackers {
            ctx.send(t.node, Message::Goodbye, goodbye_size);
        }
        self.forget_neighbors();
        self.flush_stats();
    }

    /// Empties the neighbour table, the quota count and the cached
    /// referral list together: a departed peer keeps no connections.
    fn forget_neighbors(&mut self) {
        self.neighbors.clear();
        self.referral_list = None;
        self.cross_isp_neighbors = 0;
    }

    fn on_gossip_round(&mut self, ctx: &mut Context<'_, Message>) {
        if !self.active {
            return;
        }
        if self.cfg.referral {
            // Unmeasured neighbors are probed first; the rest of the fanout
            // is spent on random measured ones. The id-ordered walk gives
            // the same ascending base order the old per-round sorts did.
            let mut unmeasured = std::mem::take(&mut self.scratch_ids);
            unmeasured.clear();
            unmeasured.extend(
                self.neighbors
                    .iter_by_id()
                    .filter(|(_, n)| n.ewma_resp.is_none())
                    .map(|(id, _)| id),
            );
            let mut ids = std::mem::take(&mut self.scratch_ids2);
            ids.clear();
            ids.extend(
                self.neighbors
                    .iter_by_id()
                    .filter(|(_, n)| n.ewma_resp.is_some())
                    .map(|(id, _)| id),
            );
            let rest = GOSSIP_FANOUT
                .saturating_sub(unmeasured.len())
                .min(ids.len());
            for i in 0..rest {
                let jdx = ctx.rng().random_range(i..ids.len());
                ids.swap(i, jdx);
            }
            unmeasured.truncate(GOSSIP_FANOUT);
            ids.truncate(rest);
            for i in 0..unmeasured.len() + ids.len() {
                let n = if i < unmeasured.len() {
                    unmeasured[i]
                } else {
                    ids[i - unmeasured.len()]
                };
                self.gossip_to(ctx, n);
            }
            self.scratch_ids = unmeasured;
            self.scratch_ids2 = ids;
            ctx.schedule(GOSSIP_INTERVAL, Message::Timer(TimerKind::GossipRound));
        }
    }

    fn on_tracker_round(&mut self, ctx: &mut Context<'_, Message>) {
        if !self.active {
            return;
        }
        self.query_tracker(ctx, false);
        let interval = if self.satisfied() {
            self.cfg.tracker_interval_satisfied()
        } else {
            self.cfg.tracker_interval_hungry()
        };
        ctx.schedule(interval, Message::Timer(TimerKind::TrackerRound));
    }

    fn on_playback(&mut self, ctx: &mut Context<'_, Message>) {
        if !self.active {
            return;
        }
        if !self.playing {
            // Find the first complete chunk at or after the join point and
            // check the startup buffer is filled from there.
            if let Some(start) = self.chunks.first_full_from(self.join_chunk) {
                // A viewer cannot buffer chunks that do not exist yet: the
                // effective target is capped by the distance to the live
                // edge (otherwise large-lag startups would never complete).
                let live = self.live_edge_estimate(ctx.now());
                let to_live = live.saturating_sub(start).saturating_sub(2);
                let target = self.startup_target.min(to_live).max(STARTUP_CHUNKS);
                let run = (start..start + target)
                    .take_while(|&c| self.chunks.is_full(c))
                    .count() as u64;
                if run >= target {
                    self.playing = true;
                    self.playhead = Some(start);
                    // First start only: a churn rejoin resumes the same
                    // viewing session, so startup delay and the stall
                    // window keep counting from the original start.
                    if self.stats.playback_started.is_none() {
                        self.stats.playback_started = Some(ctx.now());
                        self.metrics.playback_starts.inc();
                    }
                }
            }
        } else if let Some(playhead) = self.playhead {
            if self.chunks.is_full(playhead) {
                self.stats.chunks_played += 1;
                self.metrics.chunks_played.inc();
                self.playhead = Some(playhead + 1);
                self.stall_streak = 0;
            } else {
                self.stats.stalls += 1;
                self.metrics.stalls.inc();
                self.stall_streak += 1;
                let live = self.live_edge_estimate(ctx.now());
                if live.saturating_sub(playhead) > REBUFFER_LAG_CHUNKS {
                    // Fell out of the mesh's serve window: re-sync forward.
                    self.playhead = Some(live.saturating_sub(REBUFFER_LAG_CHUNKS / 2));
                    self.stall_streak = 0;
                } else if self.stall_streak >= SKIP_AFTER_STALLS {
                    // Live playback drops the frozen chunk and moves on,
                    // keeping the viewer near the live edge (which is also
                    // what keeps fresh-chunk demand — and therefore supply —
                    // dense across the mesh).
                    self.playhead = Some(playhead + 1);
                    self.stall_streak = 0;
                }
            }
        }
        ctx.schedule(SimTime::from_secs(1), Message::Timer(TimerKind::Playback));
    }

    fn on_maintenance(&mut self, ctx: &mut Context<'_, Message>) {
        if !self.active {
            return;
        }
        let now = ctx.now();
        self.maintenance_rounds += 1;

        // Time out data requests.
        self.expire_pending_data(now);
        // Time out gossip requests.
        self.pending_gossip
            .retain(|_, p| now.saturating_sub(p.sent) <= REQUEST_TIMEOUT);
        // Time out handshakes.
        self.pending_handshakes
            .retain(|_, &mut sent| now.saturating_sub(sent) <= HANDSHAKE_TIMEOUT);

        // Evict neighbors that keep failing. Collected in map order so the
        // removal sequence matches the old table's exactly.
        let mut dead = std::mem::take(&mut self.scratch_ids);
        dead.clear();
        dead.extend(
            self.neighbors
                .iter_by_node()
                .filter(|(_, n)| n.consecutive_failures >= 6)
                .map(|(id, _)| id),
        );
        for &id in &dead {
            self.drop_neighbor(id);
        }
        self.scratch_ids = dead;

        // Every ~30 s, when the table is full, retire a clear outlier: a
        // neighbor responding more than twice as slowly as the table median.
        // This frees a slot for the referral race without converging the
        // table to all-same-ISP (the paper's probes kept a mixed table; the
        // unpopular probe's connected set was only ~50% same-ISP).
        if self.role == Role::Viewer
            && self.maintenance_rounds.is_multiple_of(6)
            && self.neighbors.len() >= self.role.max_neighbors()
        {
            let mut resps = std::mem::take(&mut self.scratch_resps);
            resps.clear();
            resps.extend(
                self.neighbors
                    .iter_by_node()
                    .filter_map(|(_, n)| n.ewma_resp),
            );
            if resps.len() >= 4 {
                resps.sort_by(|a, b| a.partial_cmp(b).expect("finite ewma"));
                let median = resps[resps.len() / 2];
                let worst = self
                    .neighbors
                    .iter_by_node()
                    .filter(|(_, n)| n.outstanding == 0)
                    .filter_map(|(id, n)| n.ewma_resp.map(|r| (id, r)))
                    .max_by(|a, b| {
                        a.1.partial_cmp(&b.1)
                            .expect("finite ewma")
                            .then(a.0.cmp(&b.0))
                    })
                    .filter(|&(_, r)| r > 2.0 * median)
                    .map(|(id, _)| id);
                if let Some(id) = worst {
                    ctx.send(id, Message::Goodbye, Message::Goodbye.wire_size());
                    self.drop_neighbor(id);
                }
            }
            self.scratch_resps = resps;
        }

        // Delayed-random connect policy does its batching here.
        if self.cfg.connect_policy == ConnectPolicy::DelayedRandom && self.started {
            self.connect_batch(ctx);
        }

        // Drop chunks far behind the playhead (keep a serve window).
        if self.role == Role::Viewer {
            if let Some(playhead) = self.playhead {
                let cut = playhead.saturating_sub(SERVE_WINDOW);
                self.chunks.trim_below(cut);
            }
        }

        self.flush_stats();
        ctx.schedule(MAINTENANCE_INTERVAL, Message::Timer(TimerKind::Maintenance));
    }

    fn on_produce_chunk(&mut self, ctx: &mut Context<'_, Message>) {
        if !self.active {
            return;
        }
        self.chunks.hold(self.next_produced, FULL_MASK);
        self.next_produced += 1;
        let cut = self.next_produced.saturating_sub(LIVE_WINDOW);
        self.chunks.trim_below(cut);
        ctx.schedule(
            SimTime::from_secs(1),
            Message::Timer(TimerKind::ProduceChunk),
        );
    }

    fn on_announce_round(&mut self, ctx: &mut Context<'_, Message>) {
        if !self.active {
            return;
        }
        for t in &self.trackers {
            let msg = Message::Announce {
                channel: self.channel,
            };
            let size = msg.wire_size();
            ctx.send(t.node, msg, size);
        }
        ctx.schedule(
            SimTime::from_secs(120),
            Message::Timer(TimerKind::AnnounceRound),
        );
    }

    // ---- message handlers ----------------------------------------------

    fn on_join_response(
        &mut self,
        ctx: &mut Context<'_, Message>,
        channel: ChannelId,
        trackers: Vec<PeerEntry>,
    ) {
        if self.started || channel != self.channel {
            return;
        }
        self.started = true;
        self.trackers = trackers;
        // Start buffering a little behind the live edge so the startup
        // buffer consists of chunks that already exist.
        self.join_chunk = ctx.now().as_secs().saturating_sub(4);
        // Initially query one tracker per group (all of them).
        self.query_tracker(ctx, true);
        self.start_schedulers(ctx);
    }

    fn on_handshake(&mut self, ctx: &mut Context<'_, Message>, from: NodeId) {
        let accept = self.active
            && self.neighbors.len() < self.role.max_neighbors() + self.role.accept_slack()
            && self.policy_admits(from);
        if accept {
            let entry = PeerEntry::new(from, self.topology.host(from).ip);
            self.add_neighbor(entry, ctx.now());
        }
        let reply = Message::HandshakeAck {
            channel: self.channel,
            accepted: accept,
        };
        let size = reply.wire_size();
        ctx.send(from, reply, size);
        if accept && self.cfg.referral && self.started {
            // Probe the newcomer right away so its latency is measured and
            // slot competition stays informed.
            self.gossip_to(ctx, from);
        }
    }

    fn on_handshake_ack(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, accepted: bool) {
        let Some(sent) = self.pending_handshakes.remove(&from) else {
            return;
        };
        if !self.active {
            return;
        }
        if accepted && self.neighbors.len() < self.role.max_neighbors() && self.policy_admits(from)
        {
            // The policy re-checks here because the quota may have filled
            // while the ack was in flight; a rejected-but-accepted ack
            // falls into the Goodbye branch below, like a lost slot race.
            let entry = PeerEntry::new(from, self.topology.host(from).ip);
            self.add_neighbor(entry, ctx.now());
            if let Some(n) = self.neighbors.get_mut(from) {
                n.observe_response(ctx.now().saturating_sub(sent).as_secs_f64());
            }
            // "Upon the establishment of a new connection, the client will
            // first ask the newly connected peer for its peer list."
            if self.cfg.referral {
                self.gossip_to(ctx, from);
            }
        } else if accepted {
            // Lost the race: slots filled while the ack was in flight.
            ctx.send(from, Message::Goodbye, Message::Goodbye.wire_size());
        }
    }

    fn on_peer_list_request(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        my_peers: &SharedPeerList,
        req_id: u64,
    ) {
        if !self.active {
            return; // Unanswered request, as the paper observed.
        }
        // The enclosed list is itself referral information.
        my_peers.with(|entries| self.add_candidates(entries));
        let reply = Message::PeerListResponse {
            channel: self.channel,
            peers: self.my_peer_list(),
            req_id,
        };
        let size = reply.wire_size();
        // Replies share the uplink with data: load shows up as latency.
        let Some(hold) = self.upload_hold(ctx.now(), size) else {
            return; // Overloaded: request goes unanswered.
        };
        let jitter = SimTime::from_millis(ctx.rng().random_range(0..PROCESSING_JITTER_MS));
        ctx.send_after(from, reply, size, hold + jitter);
        self.try_connect(ctx);
    }

    fn on_peer_list_response(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        peers: &SharedPeerList,
        req_id: u64,
    ) {
        if !self.active {
            return;
        }
        if let Some(p) = self.pending_gossip.remove(&req_id) {
            if p.to == from {
                let sample = ctx.now().saturating_sub(p.sent).as_secs_f64();
                if let Some(n) = self.neighbors.get_mut(from) {
                    n.observe_response(sample);
                }
            }
        }
        self.stats.gossip_responses_received += 1;
        self.metrics.gossip_responses_received.inc();
        peers.with(|entries| self.add_candidates(entries));
        // "Once the client receives a peer list, it randomly selects a
        // number of peers from the list and connects to them immediately."
        self.try_connect(ctx);
    }

    fn on_data_request(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        chunk: ChunkId,
        offset: u16,
        count: u16,
        seq: u64,
    ) {
        if !self.active {
            return;
        }
        // A malformed range holds nothing servable: it takes the reject
        // branch below like any sub-piece this peer lacks.
        let servable = subpiece_mask(offset, count)
            .is_some_and(|mask| self.chunks.get(chunk.0).0 & mask == mask);
        if servable {
            let reply = Message::DataReply {
                chunk,
                offset,
                count,
                seq,
            };
            let size = reply.wire_size();
            let Some(hold) = self.upload_hold(ctx.now(), size) else {
                // Overloaded: refuse cheaply so the requester redirects at
                // once instead of burning an outstanding slot on a timeout.
                let reply = Message::DataReject {
                    chunk,
                    seq,
                    busy: true,
                };
                let size = reply.wire_size();
                ctx.send_after(from, reply, size, PROCESSING_DELAY);
                return;
            };
            let jitter = SimTime::from_millis(ctx.rng().random_range(0..PROCESSING_JITTER_MS));
            let payload = u64::from(reply.payload_bytes());
            self.stats.bytes_up += payload;
            self.metrics.bytes_up.add(payload);
            ctx.send_after(from, reply, size, hold + jitter);
        } else {
            let reply = Message::DataReject {
                chunk,
                seq,
                busy: false,
            };
            let size = reply.wire_size();
            ctx.send_after(from, reply, size, PROCESSING_DELAY);
        }
    }

    fn on_data_reply(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        chunk: ChunkId,
        offset: u16,
        count: u16,
        seq: u64,
    ) {
        // A reply naming a malformed range, or a chunk other than the one
        // `seq` asked for, is ignored and the request left to time out.
        let Some(mask) = subpiece_mask(offset, count) else {
            return;
        };
        if self
            .pending_data
            .get(seq)
            .is_some_and(|p| p.chunk != chunk.0)
        {
            return;
        }
        let Some(p) = self.pending_data.take(seq) else {
            // A reply that arrives after its request timed out is discarded,
            // payload included: the timeout cleared the range's `inflight`
            // bits, which put it back in the scheduler's `need`, so it is
            // fetched (and counted) through a newer request instead.
            return;
        };
        self.chunks.deliver(p.chunk, p.mask, mask);
        let payload = u64::from(count) * u64::from(plsim_proto::SUB_PIECE_BYTES);
        self.stats.bytes_down += payload;
        self.metrics.bytes_down.add(payload);
        // Observer-only locality split: the ISP lookup labels traffic for
        // the transit-savings frontier, it never influences behaviour.
        if self.topology.host(from).isp == self.my_isp {
            self.metrics.bytes_down_same_isp.add(payload);
        } else {
            self.metrics.bytes_down_cross_isp.add(payload);
        }
        self.stats.data_replies_received += 1;
        self.metrics.data_replies_received.inc();
        self.data_servers.insert(from);
        if let Some(n) = self.neighbors.get_mut(from) {
            n.outstanding = n.outstanding.saturating_sub(1);
            n.observe_response(ctx.now().saturating_sub(p.sent).as_secs_f64());
            n.observe_has(chunk.0, ctx.now());
        }
        // Keep the pipeline full without waiting for the next tick.
        self.schedule_requests(ctx);
    }

    fn on_data_reject(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        seq: u64,
        busy: bool,
    ) {
        let Some(p) = self.pending_data.take(seq) else {
            return;
        };
        self.chunks.release(p.chunk, p.mask);
        self.stats.data_rejects_received += 1;
        self.metrics.data_rejects_received.inc();
        if let Some(n) = self.neighbors.get_mut(from) {
            n.outstanding = n.outstanding.saturating_sub(1);
            if busy {
                // The neighbor has the data but its uplink is saturated:
                // back off without poisoning its content hint, and remember
                // it as slow.
                n.observe_penalty(1.5);
                n.cooldown_until = ctx.now() + SimTime::from_millis(1200);
            } else {
                n.observe_failure();
                n.observe_lacks(p.chunk, ctx.now());
                // Brief breather so one reject doesn't trigger a burst of
                // immediate re-asks before the hint takes effect.
                n.cooldown_until = ctx.now() + SimTime::from_millis(300);
            }
        }
    }
}

impl Actor<Message> for PeerNode {
    fn on_event(&mut self, ctx: &mut Context<'_, Message>, from: Option<NodeId>, msg: Message) {
        // NAT: unsolicited packets from unknown hosts never arrive.
        if !self.inbound_reachable {
            if let Some(sender) = from {
                let unsolicited = !self.neighbors.contains(sender)
                    && !self.pending_handshakes.contains_key(&sender)
                    && !self.trackers.iter().any(|t| t.node == sender)
                    && sender != self.bootstrap;
                if unsolicited
                    && matches!(
                        msg,
                        Message::Handshake { .. }
                            | Message::PeerListRequest { .. }
                            | Message::DataRequest { .. }
                    )
                {
                    return;
                }
            }
        }
        match msg {
            Message::Timer(kind) => match kind {
                TimerKind::Join => self.on_join(ctx),
                TimerKind::JoinRetry => {
                    if self.active && !self.started {
                        ctx.send(self.bootstrap, Message::BootstrapRequest, 46);
                        ctx.schedule(SimTime::from_secs(5), Message::Timer(TimerKind::JoinRetry));
                    }
                }
                TimerKind::Leave => self.on_leave(ctx),
                TimerKind::GossipRound => self.on_gossip_round(ctx),
                TimerKind::TrackerRound => self.on_tracker_round(ctx),
                TimerKind::Scheduler => {
                    if self.active {
                        self.schedule_requests(ctx);
                        ctx.schedule(SCHEDULER_INTERVAL, Message::Timer(TimerKind::Scheduler));
                    }
                }
                TimerKind::Playback => self.on_playback(ctx),
                TimerKind::Maintenance => self.on_maintenance(ctx),
                TimerKind::ProduceChunk => self.on_produce_chunk(ctx),
                TimerKind::AnnounceRound => self.on_announce_round(ctx),
            },
            Message::BootstrapResponse { channels } => {
                if self.active && !self.started && channels.contains(&self.channel) {
                    let msg = Message::JoinRequest {
                        channel: self.channel,
                    };
                    let size = msg.wire_size();
                    ctx.send(self.bootstrap, msg, size);
                }
            }
            Message::JoinResponse { channel, trackers } => {
                if self.active {
                    self.on_join_response(ctx, channel, trackers);
                }
            }
            Message::TrackerResponse { channel, peers } => {
                if self.active && channel == self.channel {
                    peers.with(|entries| self.add_candidates(entries));
                    self.try_connect(ctx);
                }
            }
            Message::Handshake { channel } => {
                if channel == self.channel {
                    if let Some(from) = from {
                        self.on_handshake(ctx, from);
                    }
                }
            }
            Message::HandshakeAck { accepted, .. } => {
                if let Some(from) = from {
                    self.on_handshake_ack(ctx, from, accepted);
                }
            }
            Message::PeerListRequest {
                my_peers, req_id, ..
            } => {
                if let Some(from) = from {
                    self.on_peer_list_request(ctx, from, &my_peers, req_id);
                }
            }
            Message::PeerListResponse { peers, req_id, .. } => {
                if let Some(from) = from {
                    self.on_peer_list_response(ctx, from, &peers, req_id);
                }
            }
            Message::DataRequest {
                chunk,
                offset,
                count,
                seq,
                ..
            } => {
                if let Some(from) = from {
                    self.on_data_request(ctx, from, chunk, offset, count, seq);
                }
            }
            Message::DataReply {
                chunk,
                offset,
                count,
                seq,
            } => {
                if let Some(from) = from {
                    self.on_data_reply(ctx, from, chunk, offset, count, seq);
                }
            }
            Message::DataReject { seq, busy, .. } => {
                if let Some(from) = from {
                    self.on_data_reject(ctx, from, seq, busy);
                }
            }
            Message::Goodbye => {
                if let Some(from) = from {
                    self.drop_neighbor(from);
                }
            }
            // Server-side messages a peer never handles.
            Message::BootstrapRequest
            | Message::JoinRequest { .. }
            | Message::TrackerQuery { .. }
            | Message::TrackerQueryBiased { .. }
            | Message::Announce { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbors::Neighbor;
    use plsim_net::{BandwidthClass, TopologyBuilder};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    /// Hosts 0..4 in TELE, 4..8 in CNC.
    fn mixed_topology() -> Arc<Topology> {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut b = TopologyBuilder::new();
        for _ in 0..4 {
            b.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng);
        }
        for _ in 0..4 {
            b.add_host(Isp::Cnc, BandwidthClass::Adsl, &mut rng);
        }
        Arc::new(b.build())
    }

    fn viewer(topology: &Arc<Topology>, policy: PolicySpec) -> PeerNode {
        let me = PeerEntry::new(NodeId(0), topology.host(NodeId(0)).ip);
        PeerNode::viewer(
            PeerConfig::default(),
            policy,
            ChannelId(1),
            me,
            NodeId(0),
            Arc::clone(topology),
            StatsSink::new(),
        )
    }

    fn entry(topology: &Topology, n: u32) -> PeerEntry {
        PeerEntry::new(NodeId(n), topology.host(NodeId(n)).ip)
    }

    #[test]
    fn quota_counts_connections_not_discovery_paths() {
        // Regression: a cross-ISP peer that arrives through *both* the
        // tracker reply and a gossip payload must consume one quota slot.
        let topo = mixed_topology();
        let mut peer = viewer(&topo, PolicySpec::BiasedLocality { cross_isp_quota: 1 });
        let cross = entry(&topo, 5);
        peer.add_neighbor(cross, SimTime::from_secs(1));
        assert_eq!(peer.cross_isp_neighbor_count(), 1);
        // Second sighting of the connected peer (the gossip path).
        peer.add_neighbor(cross, SimTime::from_secs(2));
        assert_eq!(peer.cross_isp_neighbor_count(), 1);
        assert_eq!(peer.neighbor_count(), 1);
        // With one slot used, another cross-ISP candidate is refused but a
        // same-ISP one sails through.
        assert!(!peer.policy_admits(NodeId(6)));
        assert!(peer.policy_admits(NodeId(1)));
        // Dropping frees the slot exactly once.
        peer.drop_neighbor(NodeId(5));
        assert_eq!(peer.cross_isp_neighbor_count(), 0);
        peer.drop_neighbor(NodeId(5));
        assert_eq!(peer.cross_isp_neighbor_count(), 0);
        assert!(peer.policy_admits(NodeId(6)));
    }

    #[test]
    fn candidate_set_dedups_across_discovery_paths() {
        // The shared candidate set is the first dedup line: the same entry
        // learned from a tracker reply and a gossip payload queues once.
        let topo = mixed_topology();
        let mut peer = viewer(&topo, PolicySpec::GossipRace);
        let e = entry(&topo, 5);
        peer.add_candidates([&e]);
        peer.add_candidates([&e]);
        assert_eq!(peer.candidates.len(), 1);
        // Once connected, further sightings don't re-queue it either.
        let mut rng = SmallRng::seed_from_u64(1);
        let popped = peer.pop_random_candidate(&mut rng).unwrap();
        peer.add_neighbor(popped, SimTime::from_secs(1));
        peer.add_candidates([&e]);
        assert!(peer.candidates.is_empty());
    }

    #[derive(Debug, Clone)]
    enum TableEdit {
        /// Connect to host `n` after `dt` seconds (0 puts it in the
        /// equal-time prefix of the referral order).
        Add {
            n: u32,
            dt: u64,
        },
        Drop(u32),
        Leave,
    }

    fn table_edit() -> impl Strategy<Value = TableEdit> {
        (0u32..20, 1u32..80, 0u64..2).prop_map(|(kind, n, dt)| match kind {
            0..=12 => TableEdit::Add { n, dt },
            13..=18 => TableEdit::Drop(n),
            _ => TableEdit::Leave,
        })
    }

    /// Hosts 0..40 in TELE, 40..80 in CNC: enough for a table past the
    /// 60-entry referral cap.
    fn wide_topology() -> Arc<Topology> {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut b = TopologyBuilder::new();
        for isp in [Isp::Tele, Isp::Cnc] {
            for _ in 0..40 {
                b.add_host(isp, BandwidthClass::Adsl, &mut rng);
            }
        }
        Arc::new(b.build())
    }

    proptest! {
        #[test]
        fn cached_referral_list_is_a_fresh_intern(
            edits in collection::vec(table_edit(), 1..160)
        ) {
            let topo = wide_topology();
            let mut peer = viewer(&topo, PolicySpec::GossipRace);
            let arena = peer.arena.clone();
            let mut now = SimTime::from_secs(1);
            for edit in edits {
                match edit {
                    TableEdit::Add { n, dt } => {
                        now += SimTime::from_secs(dt);
                        peer.add_neighbor(entry(&topo, n), now);
                    }
                    TableEdit::Drop(n) => peer.drop_neighbor(NodeId(n)),
                    TableEdit::Leave => peer.forget_neighbors(),
                }
                let served = peer.my_peer_list();
                let fresh = arena.intern(peer.neighbors.iter_epoch().map(|n| n.entry));
                prop_assert_eq!(served.with(<[_]>::to_vec), fresh.with(<[_]>::to_vec));
                drop(fresh);
                // No edit in between: a cache hit interns nothing.
                let live = arena.live_blocks();
                let again = peer.my_peer_list();
                prop_assert_eq!(arena.live_blocks(), live);
                prop_assert_eq!(&again, &served);
            }
        }
    }

    #[test]
    fn departure_resets_quota_accounting() {
        let topo = mixed_topology();
        let mut peer = viewer(&topo, PolicySpec::BiasedLocality { cross_isp_quota: 2 });
        peer.add_neighbor(entry(&topo, 5), SimTime::from_secs(1));
        peer.add_neighbor(entry(&topo, 6), SimTime::from_secs(1));
        assert_eq!(peer.cross_isp_neighbor_count(), 2);
        assert!(!peer.policy_admits(NodeId(7)));
        peer.forget_neighbors();
        assert!(peer.policy_admits(NodeId(7)));
    }

    #[test]
    fn oldest_first_expiry_matches_a_map_order_scan() {
        let topo = mixed_topology();
        let mut peer = viewer(&topo, PolicySpec::GossipRace);
        let timeout = REQUEST_TIMEOUT;
        let (a, b) = (NodeId(1), NodeId(5));
        peer.add_neighbor(entry(&topo, 1), SimTime::from_secs(1));
        peer.add_neighbor(entry(&topo, 5), SimTime::from_secs(1));
        peer.neighbors.get_mut(a).unwrap().observe_response(0.4);
        // Two requests to `a`, one to `b`, one to `b` that gets answered,
        // and a younger one to `a` that must survive the expiry.
        let t0 = SimTime::from_secs(10);
        let t1 = t0 + SimTime::from_millis(250);
        let young = t1 + timeout;
        let batch = [
            (a, 20, 0b0000_0111, t0),
            (b, 20, 0b0011_1000, t0),
            (b, 21, 0b0000_0011, t1),
            (a, 21, 0b0001_1100, t1),
            (a, 22, 0b0000_0001, young),
        ];
        let mut seqs = Vec::new();
        for (to, chunk, mask, sent) in batch {
            seqs.push(peer.pending_data.next_seq());
            peer.pending_data.push(PendingData {
                to,
                chunk,
                mask,
                sent,
            });
            peer.chunks.claim(chunk, mask);
            peer.neighbors.get_mut(to).unwrap().outstanding += 1;
        }
        let answered = peer.pending_data.take(seqs[2]).expect("in flight");
        peer.chunks
            .deliver(answered.chunk, answered.mask, answered.mask);
        peer.neighbors.get_mut(b).unwrap().outstanding -= 1;

        // The oracle: a scan over a hash map of the same requests, in the
        // map's iteration order, applied to copies of the same state.
        let now = t1 + timeout + SimTime::from_millis(1);
        let mut map: DetHashMap<u64, PendingData> = DetHashMap::default();
        for (i, &(to, chunk, mask, sent)) in batch.iter().enumerate() {
            if i != 2 {
                map.insert(
                    seqs[i],
                    PendingData {
                        to,
                        chunk,
                        mask,
                        sent,
                    },
                );
            }
        }
        let mut want_inflight: BTreeMap<u64, u64> =
            (20..=22).map(|c| (c, peer.chunks.get(c).1)).collect();
        let mut want: Vec<Neighbor> = [a, b]
            .iter()
            .map(|&id| peer.neighbors.get_mut(id).unwrap().clone())
            .collect();
        let expired: Vec<u64> = map
            .iter()
            .filter(|(_, p)| now.saturating_sub(p.sent) > timeout)
            .map(|(&seq, _)| seq)
            .collect();
        assert_eq!(expired.len(), 3);
        for seq in expired {
            let p = map.remove(&seq).unwrap();
            *want_inflight.get_mut(&p.chunk).unwrap() &= !p.mask;
            let n = want.iter_mut().find(|n| n.entry.node == p.to).unwrap();
            n.outstanding = n.outstanding.saturating_sub(1);
            n.observe_failure();
            n.observe_penalty(timeout.as_secs_f64());
        }

        peer.expire_pending_data(now);
        assert_eq!(peer.pending_data.len(), 1);
        assert!(peer.pending_data.get(seqs[4]).is_some());
        for (c, m) in want_inflight {
            assert_eq!(peer.chunks.get(c).1, m, "inflight of chunk {c}");
        }
        for w in want {
            let got = peer.neighbors.get_mut(w.entry.node).unwrap();
            assert_eq!(got.outstanding, w.outstanding);
            assert_eq!(got.failures, w.failures);
            assert_eq!(got.consecutive_failures, w.consecutive_failures);
            assert_eq!(
                got.ewma_resp.map(f64::to_bits),
                w.ewma_resp.map(f64::to_bits)
            );
            assert_eq!(got.weight.to_bits(), w.weight.to_bits());
        }
        // Answering or re-expiring what already expired is a no-op.
        assert!(peer.pending_data.take(seqs[0]).is_none());
        peer.expire_pending_data(now);
        assert_eq!(peer.pending_data.len(), 1);
    }
}
