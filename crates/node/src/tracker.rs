//! Tracker servers: per-channel membership databases.
//!
//! The paper's key observation (§3.2) is that PPLive trackers act as
//! "databases of active peers rather than for locality" — they return a
//! *random* sample of active members, and peers stop relying on them once
//! gossip supplies enough neighbors. This implementation does exactly that:
//! register on query/announce, lazily expire, sample uniformly.

use plsim_des::{Actor, Context, DetHashMap, NodeId, SimTime};
use plsim_net::Topology;
use plsim_proto::{
    ChannelId, Message, PeerEntry, PeerList, PeerListArena, SharedPeerList, TimerKind,
};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How long a member stays listed without being heard from.
const MEMBER_EXPIRY: SimTime = SimTime::from_secs(600);

/// One tracker server (the paper found five groups deployed across Chinese
/// ISPs; the world builder instantiates one server per group).
#[derive(Debug)]
pub struct TrackerServer {
    topology: Arc<Topology>,
    /// Per-channel membership, keyed by node so `values()` is already in
    /// NodeId order — the deterministic base order the sampler shuffles.
    members: DetHashMap<ChannelId, BTreeMap<NodeId, (PeerEntry, SimTime)>>,
    /// Set false to simulate a tracker outage (failure injection); the
    /// server then silently ignores queries, as a dead host would.
    online: bool,
    queries_served: u64,
    arena: PeerListArena,
    scratch_pool: Vec<PeerEntry>,
}

impl TrackerServer {
    /// Creates a tracker. The topology is used only to resolve the source
    /// address of incoming packets, as a real server reads the IP header.
    #[must_use]
    pub fn new(topology: Arc<Topology>) -> Self {
        TrackerServer {
            topology,
            members: DetHashMap::default(),
            online: true,
            queries_served: 0,
            arena: PeerListArena::new(),
            scratch_pool: Vec::new(),
        }
    }

    /// Replaces the tracker's private peer-list arena with the
    /// world-shared one, so responses intern into the same block pool as
    /// every other actor.
    pub fn attach_arena(&mut self, arena: &PeerListArena) {
        self.arena = arena.clone();
    }

    /// Number of peer-list queries served (for tests and ablations).
    #[must_use]
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    fn register(&mut self, channel: ChannelId, node: NodeId, now: SimTime) {
        let entry = PeerEntry::new(node, self.topology.host(node).ip);
        self.members
            .entry(channel)
            .or_default()
            .insert(node, (entry, now));
    }

    fn sample(
        &mut self,
        channel: ChannelId,
        exclude: NodeId,
        now: SimTime,
        rng: &mut rand::rngs::SmallRng,
    ) -> SharedPeerList {
        let mut pool = std::mem::take(&mut self.scratch_pool);
        pool.clear();
        let Some(members) = self.members.get_mut(&channel) else {
            self.scratch_pool = pool;
            return SharedPeerList::default();
        };
        members.retain(|_, (_, seen)| now.saturating_sub(*seen) < MEMBER_EXPIRY);
        // The BTreeMap walk yields NodeId order — the deterministic base
        // order — so no per-query sort; then a partial Fisher–Yates
        // shuffle for the first MAX_LEN slots.
        pool.extend(
            members
                .values()
                .filter(|(e, _)| e.node != exclude)
                .map(|(e, _)| *e),
        );
        let take = pool.len().min(PeerList::MAX_LEN);
        for i in 0..take {
            let j = rng.random_range(i..pool.len());
            pool.swap(i, j);
        }
        let list = self.arena.intern(pool.iter().take(take).copied());
        self.scratch_pool = pool;
        list
    }

    /// Locality-biased sampling for [`Message::TrackerQueryBiased`] (the
    /// "Deep Diving" ISP-managed oracle): up to `want_same_isp` of the
    /// reply slots are filled from the requester's own ISP first, then the
    /// remainder is drawn from the whole pool. Both segments keep the
    /// NodeId base order and use the same partial Fisher–Yates draw shape
    /// as [`TrackerServer::sample`], so the reply stays a deterministic
    /// function of (membership, seed) — and the unbiased sampler's RNG
    /// usage is untouched for every other policy.
    fn sample_biased(
        &mut self,
        channel: ChannelId,
        exclude: NodeId,
        want_same_isp: usize,
        now: SimTime,
        rng: &mut rand::rngs::SmallRng,
    ) -> SharedPeerList {
        let topology = Arc::clone(&self.topology);
        let client_isp = topology.host(exclude).isp;
        let mut pool = std::mem::take(&mut self.scratch_pool);
        pool.clear();
        let Some(members) = self.members.get_mut(&channel) else {
            self.scratch_pool = pool;
            return SharedPeerList::default();
        };
        members.retain(|_, (_, seen)| now.saturating_sub(*seen) < MEMBER_EXPIRY);
        // Same-ISP members first, then the rest — NodeId order within each
        // segment, so the layout is deterministic before any draw.
        pool.extend(
            members
                .values()
                .filter(|(e, _)| e.node != exclude && topology.host(e.node).isp == client_isp)
                .map(|(e, _)| *e),
        );
        let same_len = pool.len();
        pool.extend(
            members
                .values()
                .filter(|(e, _)| e.node != exclude && topology.host(e.node).isp != client_isp)
                .map(|(e, _)| *e),
        );
        let take = pool.len().min(PeerList::MAX_LEN);
        let same_take = take.min(want_same_isp).min(same_len);
        for i in 0..same_take {
            let j = rng.random_range(i..same_len);
            pool.swap(i, j);
        }
        for i in same_take..take {
            let j = rng.random_range(i..pool.len());
            pool.swap(i, j);
        }
        let list = self.arena.intern(pool.iter().take(take).copied());
        self.scratch_pool = pool;
        list
    }
}

impl Actor<Message> for TrackerServer {
    fn on_event(&mut self, ctx: &mut Context<'_, Message>, from: Option<NodeId>, msg: Message) {
        // `Leave`/`Join` timers are the fault-injection switches: the
        // tracker dies (losing its in-memory membership database, like a
        // real process restart) and later comes back empty.
        match msg {
            Message::Timer(TimerKind::Leave) => {
                self.online = false;
                self.members.clear();
                return;
            }
            Message::Timer(TimerKind::Join) => {
                self.online = true;
                return;
            }
            _ => {}
        }
        let Some(client) = from else { return };
        if !self.online {
            return;
        }
        let now = ctx.now();
        match msg {
            Message::TrackerQuery { channel } => {
                // A query doubles as an announce: the requester is watching.
                self.register(channel, client, now);
                self.queries_served += 1;
                let peers = self.sample(channel, client, now, ctx.rng());
                let reply = Message::TrackerResponse { channel, peers };
                let size = reply.wire_size();
                ctx.send(client, reply, size);
            }
            Message::TrackerQueryBiased {
                channel,
                want_same_isp,
            } => {
                self.register(channel, client, now);
                self.queries_served += 1;
                let peers =
                    self.sample_biased(channel, client, usize::from(want_same_isp), now, ctx.rng());
                let reply = Message::TrackerResponse { channel, peers };
                let size = reply.wire_size();
                ctx.send(client, reply, size);
            }
            Message::Announce { channel } => {
                self.register(channel, client, now);
            }
            Message::Goodbye => {
                for members in self.members.values_mut() {
                    members.remove(&client);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plsim_des::{FixedDelay, Simulation};
    use plsim_net::{BandwidthClass, Isp, TopologyBuilder};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn topology(n: usize) -> Arc<Topology> {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut b = TopologyBuilder::new();
        for _ in 0..n {
            b.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng);
        }
        Arc::new(b.build())
    }

    /// One shared log of tracker responses: every test client holds the
    /// same `Rc` handle (the kernel is single-threaded, so no mutex), and
    /// [`ResponseLog::client`] is the only place the handle is cloned.
    #[derive(Default)]
    struct ResponseLog(Rc<RefCell<Vec<SharedPeerList>>>);

    impl ResponseLog {
        fn new() -> Self {
            ResponseLog::default()
        }

        /// A client actor that queries `tracker` on its Join timer and
        /// appends every response to this log.
        fn client(&self, tracker: NodeId, channel: ChannelId) -> Box<Client> {
            Box::new(Client {
                tracker,
                channel,
                responses: Rc::clone(&self.0),
            })
        }

        fn len(&self) -> usize {
            self.0.borrow().len()
        }

        fn is_empty(&self) -> bool {
            self.0.borrow().is_empty()
        }

        fn get(&self, i: usize) -> SharedPeerList {
            self.0.borrow()[i].clone()
        }
    }

    struct Client {
        tracker: NodeId,
        channel: ChannelId,
        responses: Rc<RefCell<Vec<SharedPeerList>>>,
    }

    impl Actor<Message> for Client {
        fn on_event(
            &mut self,
            ctx: &mut Context<'_, Message>,
            _from: Option<NodeId>,
            msg: Message,
        ) {
            match msg {
                Message::Timer(TimerKind::Join) => {
                    let q = Message::TrackerQuery {
                        channel: self.channel,
                    };
                    let size = q.wire_size();
                    ctx.send(self.tracker, q, size);
                }
                Message::TrackerResponse { peers, .. } => {
                    self.responses.borrow_mut().push(peers);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn querying_registers_and_samples_other_members() {
        let topo = topology(12);
        let mut sim = Simulation::new(3, FixedDelay(SimTime::from_millis(1)));
        let tracker = sim.add_actor(Box::new(TrackerServer::new(topo)));
        let ch = ChannelId(1);
        let log = ResponseLog::new();
        let clients: Vec<NodeId> = (0..10)
            .map(|_| sim.add_actor(log.client(tracker, ch)))
            .collect();
        for (i, &c) in clients.iter().enumerate() {
            sim.inject(
                SimTime::from_secs(i as u64),
                c,
                None,
                Message::Timer(TimerKind::Join),
                0,
            );
        }
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(log.len(), 10);
        // First client sees nobody; the last sees everyone else.
        assert!(log.get(0).is_empty());
        assert_eq!(log.get(9).len(), 9);
        // Never includes the requester.
        for (i, &c) in clients.iter().enumerate() {
            assert!(!log.get(i).contains(c));
        }
    }

    #[test]
    fn goodbye_removes_member() {
        let topo = topology(4);
        let mut sim = Simulation::new(3, FixedDelay(SimTime::from_millis(1)));
        let tracker = sim.add_actor(Box::new(TrackerServer::new(topo)));
        let ch = ChannelId(1);
        let log = ResponseLog::new();
        let a = sim.add_actor(log.client(tracker, ch));
        let b = sim.add_actor(log.client(tracker, ch));
        sim.inject(SimTime::ZERO, a, None, Message::Timer(TimerKind::Join), 0);
        sim.run_until(SimTime::from_secs(1));
        // a leaves.
        sim.inject(
            SimTime::from_secs(2),
            tracker,
            Some(a),
            Message::Goodbye,
            46,
        );
        sim.inject(
            SimTime::from_secs(3),
            b,
            None,
            Message::Timer(TimerKind::Join),
            0,
        );
        sim.run_until(SimTime::from_secs(10));
        assert!(log.get(1).is_empty(), "departed peer must not be listed");
    }

    #[test]
    fn offline_tracker_ignores_queries() {
        let topo = topology(4);
        let mut sim = Simulation::new(3, FixedDelay(SimTime::from_millis(1)));
        let tracker = sim.add_actor(Box::new(TrackerServer::new(topo)));
        let log = ResponseLog::new();
        let a = sim.add_actor(log.client(tracker, ChannelId(1)));
        // Kill the tracker, then query.
        sim.inject(
            SimTime::ZERO,
            tracker,
            None,
            Message::Timer(TimerKind::Leave),
            0,
        );
        sim.inject(
            SimTime::from_secs(1),
            a,
            None,
            Message::Timer(TimerKind::Join),
            0,
        );
        sim.run_until(SimTime::from_secs(10));
        assert!(log.is_empty());
    }

    #[test]
    fn restored_tracker_serves_again_with_fresh_membership() {
        let topo = topology(4);
        let mut sim = Simulation::new(3, FixedDelay(SimTime::from_millis(1)));
        let tracker = sim.add_actor(Box::new(TrackerServer::new(topo)));
        let ch = ChannelId(1);
        let log = ResponseLog::new();
        let a = sim.add_actor(log.client(tracker, ch));
        let b = sim.add_actor(log.client(tracker, ch));
        // a registers, the tracker dies, then recovers; b queries after.
        sim.inject(SimTime::ZERO, a, None, Message::Timer(TimerKind::Join), 0);
        sim.inject(
            SimTime::from_secs(5),
            tracker,
            None,
            Message::Timer(TimerKind::Leave),
            0,
        );
        sim.inject(
            SimTime::from_secs(10),
            tracker,
            None,
            Message::Timer(TimerKind::Join),
            0,
        );
        sim.inject(
            SimTime::from_secs(15),
            b,
            None,
            Message::Timer(TimerKind::Join),
            0,
        );
        sim.run_until(SimTime::from_secs(30));
        // The post-recovery query is answered, but the pre-outage member
        // is gone: a restart wipes the in-memory database.
        assert_eq!(log.len(), 2);
        assert!(
            log.get(1).is_empty(),
            "membership must not survive a restart"
        );
    }

    #[test]
    fn biased_sample_front_loads_client_isp() {
        // Host 0 is the TELE client; then 70 TELE and 70 CNC members.
        let mut rng = SmallRng::seed_from_u64(2);
        let mut b = TopologyBuilder::new();
        for _ in 0..71 {
            b.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng);
        }
        for _ in 0..70 {
            b.add_host(Isp::Cnc, BandwidthClass::Adsl, &mut rng);
        }
        let topo = Arc::new(b.build());
        let mut tracker = TrackerServer::new(Arc::clone(&topo));
        let ch = ChannelId(1);
        let now = SimTime::from_secs(10);
        for n in 1..=140 {
            tracker.register(ch, NodeId(n), now);
        }
        let same_count = |list: &SharedPeerList| {
            list.with(|es| {
                es.iter()
                    .filter(|e| topo.host(e.node).isp == Isp::Tele)
                    .count()
            })
        };

        // Asking for a full same-ISP list: every slot comes from TELE.
        let mut rng = SmallRng::seed_from_u64(9);
        let full = tracker.sample_biased(ch, NodeId(0), PeerList::MAX_LEN, now, &mut rng);
        assert_eq!(full.len(), PeerList::MAX_LEN);
        assert_eq!(same_count(&full), PeerList::MAX_LEN);
        assert!(!full.contains(NodeId(0)));

        // A partial hint guarantees at least that many same-ISP slots; the
        // remainder is drawn from the whole pool.
        let mut rng = SmallRng::seed_from_u64(9);
        let partial = tracker.sample_biased(ch, NodeId(0), 10, now, &mut rng);
        assert_eq!(partial.len(), PeerList::MAX_LEN);
        assert!(same_count(&partial) >= 10);
        assert!(same_count(&partial) < PeerList::MAX_LEN);

        // Deterministic: the same seed reproduces the same list.
        let mut rng = SmallRng::seed_from_u64(9);
        let again = tracker.sample_biased(ch, NodeId(0), 10, now, &mut rng);
        assert_eq!(again, partial);
    }

    #[test]
    fn stale_members_expire() {
        let topo = topology(4);
        let mut sim = Simulation::new(3, FixedDelay(SimTime::from_millis(1)));
        let tracker = sim.add_actor(Box::new(TrackerServer::new(topo)));
        let ch = ChannelId(1);
        let log = ResponseLog::new();
        let a = sim.add_actor(log.client(tracker, ch));
        let b = sim.add_actor(log.client(tracker, ch));
        sim.inject(SimTime::ZERO, a, None, Message::Timer(TimerKind::Join), 0);
        // b queries 11 minutes later: a has expired.
        sim.inject(
            SimTime::from_secs(660),
            b,
            None,
            Message::Timer(TimerKind::Join),
            0,
        );
        sim.run_until(SimTime::from_secs(700));
        assert!(log.get(1).is_empty(), "stale member should be expired");
    }
}
