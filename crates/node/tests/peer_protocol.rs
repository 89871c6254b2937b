//! Protocol-conformance tests for `PeerNode`, driven by injected messages
//! and a message-collecting counterpart actor.

use plsim_des::{Actor, Context, NodeId, SimTime, Simulation};
use plsim_net::{BandwidthClass, Isp, LinkModel, TopologyBuilder, Underlay};
use plsim_node::config::{CHUNK_SUBPIECES, LIVE_WINDOW, MAINTENANCE_INTERVAL};
use plsim_node::{PeerConfig, PeerNode, PolicySpec, StatsSink};
use plsim_proto::{ChannelId, ChunkId, Message, PeerEntry, SharedPeerList, TimerKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Records every message delivered to it (the kernel is
/// single-threaded, so a shared `Rc` cell suffices).
struct Collector {
    log: Rc<RefCell<Vec<(NodeId, Message)>>>,
}

impl Actor<Message> for Collector {
    fn on_event(&mut self, _ctx: &mut Context<'_, Message>, from: Option<NodeId>, msg: Message) {
        if let Some(from) = from {
            self.log.borrow_mut().push((from, msg));
        }
    }
}

struct TestWorld {
    sim: Simulation<Message>,
    source: NodeId,
    collector: NodeId,
    log: Rc<RefCell<Vec<(NodeId, Message)>>>,
    /// Where the source publishes its counters (every maintenance round).
    sink: StatsSink,
}

/// Builds: a source (node 0) that produces chunks, and a collector
/// (node 1) we can impersonate/inspect.
fn world() -> TestWorld {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut topo = TopologyBuilder::new();
    let source_id = topo.add_host(Isp::Tele, BandwidthClass::Backbone, &mut rng);
    let collector_id = topo.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng);
    let topology = Arc::new(topo.build());

    let mut sim: Simulation<Message> =
        Simulation::new(7, Underlay::new(Arc::clone(&topology), LinkModel::ideal()));

    let sink = StatsSink::new();
    let source = PeerNode::source(
        PeerConfig::default(),
        PolicySpec::GossipRace,
        ChannelId(1),
        PeerEntry::new(source_id, topology.host(source_id).ip),
        Vec::new(),
        Arc::clone(&topology),
        sink.clone(),
    );
    let id = sim.add_actor(Box::new(source));
    assert_eq!(id, source_id);

    let log = Rc::new(RefCell::new(Vec::new()));
    let id = sim.add_actor(Box::new(Collector { log: log.clone() }));
    assert_eq!(id, collector_id);

    sim.inject(
        SimTime::ZERO,
        source_id,
        None,
        Message::Timer(TimerKind::Join),
        0,
    );
    TestWorld {
        sim,
        source: source_id,
        collector: collector_id,
        log,
        sink,
    }
}

fn replies_of(w: &TestWorld) -> Vec<Message> {
    w.log
        .borrow()
        .iter()
        .filter(|(from, _)| *from == w.source)
        .map(|(_, m)| m.clone())
        .collect()
}

#[test]
fn source_accepts_handshake_and_answers_gossip() {
    let mut w = world();
    w.sim.run_until(SimTime::from_secs(10));
    let hs = Message::Handshake {
        channel: ChannelId(1),
    };
    let sz = hs.wire_size();
    w.sim
        .inject(SimTime::from_secs(10), w.source, Some(w.collector), hs, sz);
    let req = Message::PeerListRequest {
        channel: ChannelId(1),
        my_peers: SharedPeerList::default(),
        req_id: 9,
    };
    let sz = req.wire_size();
    w.sim
        .inject(SimTime::from_secs(11), w.source, Some(w.collector), req, sz);
    w.sim.run_until(SimTime::from_secs(20));

    let replies = replies_of(&w);
    assert!(
        replies
            .iter()
            .any(|m| matches!(m, Message::HandshakeAck { accepted: true, .. })),
        "handshake should be accepted: {replies:?}"
    );
    assert!(
        replies
            .iter()
            .any(|m| matches!(m, Message::PeerListResponse { req_id: 9, .. })),
        "gossip must be answered with the matching req_id"
    );
}

#[test]
fn source_serves_chunks_it_produced_and_rejects_future_ones() {
    let mut w = world();
    // Let the source produce ~30 chunks.
    w.sim.run_until(SimTime::from_secs(31));
    let ask = |w: &mut TestWorld, at: u64, chunk: u64, seq: u64| {
        let msg = Message::DataRequest {
            channel: ChannelId(1),
            chunk: ChunkId(chunk),
            offset: 0,
            count: 5,
            seq,
        };
        let sz = msg.wire_size();
        w.sim
            .inject(SimTime::from_secs(at), w.source, Some(w.collector), msg, sz);
    };
    ask(&mut w, 31, 10, 1); // exists
    ask(&mut w, 31, 500_000, 2); // far future: cannot exist
    w.sim.run_until(SimTime::from_secs(40));

    let replies = replies_of(&w);
    assert!(
        replies.iter().any(|m| matches!(
            m,
            Message::DataReply {
                seq: 1,
                count: 5,
                ..
            }
        )),
        "produced chunk must be served"
    );
    assert!(
        replies.iter().any(|m| matches!(
            m,
            Message::DataReject {
                seq: 2,
                busy: false,
                ..
            }
        )),
        "unknown chunk must be rejected (not busy)"
    );
}

#[test]
fn malformed_data_requests_are_rejected_without_serving() {
    // `offset` and `count` are wire fields: ranges that are empty, longer
    // than a chunk, or that reach past its last sub-piece (including the
    // shift-overflowing `count > 127` and `offset >= 64`) must each draw
    // one plain reject and upload nothing. Chunk 10 exists, so only the
    // range can be what is refused.
    let mut w = world();
    w.sim.run_until(SimTime::from_secs(31));
    let hostile = [
        (0, 0),
        (0, CHUNK_SUBPIECES + 1),
        (CHUNK_SUBPIECES - 1, 2),
        (0, 128),
        (0, 200),
        (64, 1),
        (70, 5),
        (u16::MAX, u16::MAX),
    ];
    for (i, &(offset, count)) in hostile.iter().enumerate() {
        let msg = Message::DataRequest {
            channel: ChannelId(1),
            chunk: ChunkId(10),
            offset,
            count,
            seq: 100 + i as u64,
        };
        let sz = msg.wire_size();
        w.sim
            .inject(SimTime::from_secs(31), w.source, Some(w.collector), msg, sz);
    }
    w.sim.run_until(SimTime::from_secs(45));

    let replies = replies_of(&w);
    for i in 0..hostile.len() as u64 {
        let rejects = replies
            .iter()
            .filter(
                |m| matches!(m, Message::DataReject { seq, busy: false, .. } if *seq == 100 + i),
            )
            .count();
        assert_eq!(rejects, 1, "request {:?}: {replies:?}", hostile[i as usize]);
    }
    assert!(
        !replies
            .iter()
            .any(|m| matches!(m, Message::DataReply { .. })),
        "no malformed range may be served: {replies:?}"
    );
    let stats = w.sink.get(w.source).expect("source flushed its stats");
    assert_eq!(stats.bytes_up, 0);
}

#[test]
fn malformed_data_replies_are_ignored_and_the_request_times_out() {
    // A viewer whose only neighbor is the collector, which also plays its
    // bootstrap server: every data request the viewer sends lands in the
    // log, and the test answers in the collector's name.
    let mut rng = SmallRng::seed_from_u64(3);
    let mut topo = TopologyBuilder::new();
    let viewer_id = topo.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng);
    let collector_id = topo.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng);
    let topology = Arc::new(topo.build());
    let mut sim: Simulation<Message> =
        Simulation::new(11, Underlay::new(Arc::clone(&topology), LinkModel::ideal()));
    let sink = StatsSink::new();
    let viewer = PeerNode::viewer(
        PeerConfig::default(),
        PolicySpec::GossipRace,
        ChannelId(1),
        PeerEntry::new(viewer_id, topology.host(viewer_id).ip),
        collector_id,
        Arc::clone(&topology),
        sink.clone(),
    );
    assert_eq!(sim.add_actor(Box::new(viewer)), viewer_id);
    let log = Rc::new(RefCell::new(Vec::new()));
    assert_eq!(
        sim.add_actor(Box::new(Collector { log: log.clone() })),
        collector_id
    );
    let at = SimTime::from_secs;
    let say = |sim: &mut Simulation<Message>, t: SimTime, msg: Message| {
        let sz = msg.wire_size();
        sim.inject(t, viewer_id, Some(collector_id), msg, sz);
    };
    sim.inject(at(100), viewer_id, None, Message::Timer(TimerKind::Join), 0);
    say(
        &mut sim,
        at(101),
        Message::JoinResponse {
            channel: ChannelId(1),
            trackers: Vec::new(),
        },
    );
    say(
        &mut sim,
        at(102),
        Message::Handshake {
            channel: ChannelId(1),
        },
    );
    sim.run_until(at(104));

    let requests = |log: &Rc<RefCell<Vec<(NodeId, Message)>>>| -> Vec<(u64, u16, u16, u64)> {
        log.borrow()
            .iter()
            .filter_map(|(_, m)| match m {
                Message::DataRequest {
                    chunk,
                    offset,
                    count,
                    seq,
                    ..
                } => Some((chunk.0, *offset, *count, *seq)),
                _ => None,
            })
            .collect()
    };
    let &(chunk, offset, count, seq) = requests(&log).first().expect("the viewer asked for data");

    // The first request is answered only with hostile replies carrying its
    // seq: shift-overflowing ranges, a range past the chunk end, an empty
    // one, and a well-formed range of a chunk it never asked for.
    for (c, o, n) in [
        (chunk, 0, 200),
        (chunk, 64, 1),
        (chunk, 70, 5),
        (chunk, CHUNK_SUBPIECES - 1, 2),
        (chunk, offset, 0),
        (chunk + 1_000_000_000_000, offset, count),
    ] {
        say(
            &mut sim,
            at(104),
            Message::DataReply {
                chunk: ChunkId(c),
                offset: o,
                count: n,
                seq,
            },
        );
    }
    // Every other request, as it shows up, gets the reply it asked for.
    let (mut answered, mut sub_pieces) = (1, 0u64);
    let mut now = at(104);
    while now < at(112) {
        let seen = requests(&log);
        for &(c, o, n, s) in &seen[answered..] {
            say(
                &mut sim,
                now,
                Message::DataReply {
                    chunk: ChunkId(c),
                    offset: o,
                    count: n,
                    seq: s,
                },
            );
            sub_pieces += u64::from(n);
        }
        answered = seen.len();
        now += SimTime::from_millis(50);
        sim.run_until(now);
    }
    // Let the last answers land and a maintenance round publish the stats.
    sim.run_until(now + MAINTENANCE_INTERVAL + at(1));

    // The ignored replies left the first request to time out, so its range
    // was asked for again under a newer seq; only well-formed replies count.
    assert!(
        requests(&log)
            .iter()
            .any(|&(c, o, _, s)| c == chunk && o == offset && s != seq),
        "the timed-out range is requested again"
    );
    let stats = sink.get(viewer_id).expect("viewer flushed its stats");
    assert_eq!(stats.data_replies_received, answered as u64 - 1);
    assert_eq!(
        stats.bytes_down,
        sub_pieces * u64::from(plsim_proto::SUB_PIECE_BYTES)
    );
}

#[test]
fn source_evicts_chunks_behind_the_live_window() {
    let mut w = world();
    // Run long enough that chunk 5 has fallen out of the live window.
    let horizon = LIVE_WINDOW + 60;
    w.sim.run_until(SimTime::from_secs(horizon));
    let msg = Message::DataRequest {
        channel: ChannelId(1),
        chunk: ChunkId(5),
        offset: 0,
        count: 1,
        seq: 3,
    };
    let sz = msg.wire_size();
    w.sim.inject(
        SimTime::from_secs(horizon),
        w.source,
        Some(w.collector),
        msg,
        sz,
    );
    w.sim.run_until(SimTime::from_secs(horizon + 10));
    let replies = replies_of(&w);
    assert!(
        replies
            .iter()
            .any(|m| matches!(m, Message::DataReject { seq: 3, .. })),
        "evicted chunk must be rejected: {replies:?}"
    );
}

#[test]
fn nat_peer_ignores_unsolicited_handshake() {
    let mut rng = SmallRng::seed_from_u64(2);
    let mut topo = TopologyBuilder::new();
    let nat_id = topo.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng);
    let other_id = topo.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng);
    let bootstrap_id = topo.add_host(Isp::Tele, BandwidthClass::Backbone, &mut rng);
    let topology = Arc::new(topo.build());
    let mut sim: Simulation<Message> =
        Simulation::new(3, Underlay::new(Arc::clone(&topology), LinkModel::ideal()));

    let nat_peer = PeerNode::viewer(
        PeerConfig::default(),
        PolicySpec::GossipRace,
        ChannelId(1),
        PeerEntry::new(nat_id, topology.host(nat_id).ip),
        // A dedicated (never-answering) bootstrap node, distinct from the
        // sender below: traffic from the configured bootstrap is exempt
        // from the NAT gate.
        bootstrap_id,
        Arc::clone(&topology),
        StatsSink::new(),
    )
    .behind_nat();
    let id = sim.add_actor(Box::new(nat_peer));
    assert_eq!(id, nat_id);
    let log = Rc::new(RefCell::new(Vec::new()));
    let id = sim.add_actor(Box::new(Collector { log: log.clone() }));
    assert_eq!(id, other_id);
    let id = sim.add_actor(Box::new(Collector {
        log: Rc::new(RefCell::new(Vec::new())),
    }));
    assert_eq!(id, bootstrap_id);

    sim.inject(
        SimTime::ZERO,
        nat_id,
        None,
        Message::Timer(TimerKind::Join),
        0,
    );
    let hs = Message::Handshake {
        channel: ChannelId(1),
    };
    let sz = hs.wire_size();
    sim.inject(SimTime::from_secs(1), nat_id, Some(other_id), hs, sz);
    sim.run_until(SimTime::from_secs(10));

    let acks = log
        .borrow()
        .iter()
        .filter(|(from, m)| *from == nat_id && matches!(m, Message::HandshakeAck { .. }))
        .count();
    assert_eq!(acks, 0, "NATed peer must not ack unsolicited handshakes");
}

#[test]
fn goodbye_removes_the_neighbor() {
    let mut w = world();
    w.sim.run_until(SimTime::from_secs(5));
    let hs = Message::Handshake {
        channel: ChannelId(1),
    };
    let sz = hs.wire_size();
    w.sim
        .inject(SimTime::from_secs(5), w.source, Some(w.collector), hs, sz);
    w.sim.run_until(SimTime::from_secs(6));
    w.sim.inject(
        SimTime::from_secs(6),
        w.source,
        Some(w.collector),
        Message::Goodbye,
        46,
    );
    w.sim.run_until(SimTime::from_secs(20));
    // After goodbye, a gossip request still gets answered (liberal server),
    // but the returned list must not contain the departed peer.
    let req = Message::PeerListRequest {
        channel: ChannelId(1),
        my_peers: SharedPeerList::default(),
        req_id: 77,
    };
    let sz = req.wire_size();
    w.sim
        .inject(SimTime::from_secs(20), w.source, Some(w.collector), req, sz);
    w.sim.run_until(SimTime::from_secs(30));
    let replies = replies_of(&w);
    let list = replies.iter().find_map(|m| match m {
        Message::PeerListResponse {
            req_id: 77, peers, ..
        } => Some(peers.clone()),
        _ => None,
    });
    let list = list.expect("gossip answered");
    assert!(!list.contains(w.collector), "departed peer still listed");
}
