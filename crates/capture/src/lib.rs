//! # plsim-capture — the Wireshark substitute
//!
//! The original study ran Wireshark on each probe host and parsed the UDP
//! captures offline. Here, [`ProbeTap`] implements [`plsim_des::Monitor`] and
//! records every message that enters or leaves a configured set of probe
//! nodes — the same information the authors extracted from pcaps (peer
//! lists with the advertised addresses, data request/reply sequence
//! numbers, timestamps, byte counts), without the parsing step.
//!
//! Captured traffic lives in a [`TraceStore`]: append-only pages of
//! fixed-width rows plus a shared arena for peer-list addresses, written
//! directly from the wire messages (no owned record, no per-list
//! allocation on the capture path). Analysis streams borrowed
//! [`RecordRef`] cursors; the owned [`TraceRecord`] row remains the
//! interchange type for tests and conversion.
//!
//! The tap is a cheap cloneable handle around shared storage, so the harness
//! keeps one handle and gives the simulation another. A simulation is
//! single-threaded, so the storage is an `Rc<RefCell<_>>` rather than a
//! mutex — recording a packet costs no atomic operations. Cross-thread
//! handoff happens only through the owned [`TraceStore`] returned by
//! [`ProbeTap::drain`] (which is `Send`), never through the tap itself.
//!
//! Capture is bounded-memory by configuration ([`CaptureConfig`]): a byte
//! budget makes the store spill sealed pages to disk, and an aggregation
//! window replaces row capture entirely with per-probe per-window counters
//! and wire-byte sketches ([`CaptureAggregates`]) for runs where even a
//! spilled trace is too much.
//!
//! # Examples
//!
//! ```
//! use plsim_capture::{ProbeTap, RemoteKind};
//! use plsim_des::NodeId;
//! # use plsim_net::{BandwidthClass, Isp, TopologyBuilder};
//! # use rand::{rngs::SmallRng, SeedableRng};
//!
//! # let mut rng = SmallRng::seed_from_u64(0);
//! # let mut b = TopologyBuilder::new();
//! # b.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng);
//! # let topo = std::sync::Arc::new(b.build());
//! let tap = ProbeTap::new([NodeId(0)], topo);
//! tap.mark_remote(NodeId(9), RemoteKind::Tracker);
//! assert!(tap.is_empty());
//! tap.records(|rs| assert_eq!(rs.len(), 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod store;

pub use store::{RecordRef, Rows, RowsFor, TraceStore};

use store::PageDrain;

use plsim_des::{EventStamp, FaultEvent, Monitor, NodeId, SimTime};
use plsim_net::Topology;
use plsim_proto::{ChunkId, Message};
use plsim_telemetry::{P2Quantile, StreamingMoments};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::Arc;

/// Direction of a captured message relative to the probe host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Sent by the probe.
    Outbound,
    /// Received by the probe.
    Inbound,
}

/// What kind of host the remote endpoint is. The paper separates peer
/// sources ("CNC_p") from tracker sources ("CNC_s"); the stream source is
/// marked distinctly so experiments can exclude infrastructure if desired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RemoteKind {
    /// A regular viewer peer.
    #[default]
    Peer,
    /// A PPLive tracker server.
    Tracker,
    /// The bootstrap / channel server.
    Bootstrap,
    /// The stream source (channel origin).
    Source,
}

/// Payload summary of one captured message. `L` holds a peer list's
/// advertised addresses: owned in the interchange row ([`TraceRecord`]),
/// borrowed from the store's address arena in a [`KindRef`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RecordKind<L = Vec<Ipv4Addr>> {
    /// Bootstrap channel-list request/response or channel join exchange.
    Bootstrap,
    /// Peer-list query to a tracker.
    TrackerQuery,
    /// Tracker's peer list, with the advertised addresses.
    TrackerResponse {
        /// Addresses on the returned list.
        peer_ips: L,
    },
    /// Gossip query to a neighbor (carries the sender's own list).
    PeerListRequest {
        /// Correlation id.
        req_id: u64,
    },
    /// Neighbor's gossip reply, with the advertised addresses.
    PeerListResponse {
        /// Correlation id.
        req_id: u64,
        /// Addresses on the returned list.
        peer_ips: L,
    },
    /// Connection handshake.
    Handshake,
    /// Handshake acknowledgment.
    HandshakeAck {
        /// Whether the connection was accepted.
        accepted: bool,
    },
    /// Data request.
    DataRequest {
        /// Request sequence number (the matching key, as in §3.1).
        seq: u64,
        /// Requested chunk.
        chunk: ChunkId,
    },
    /// Data delivery.
    DataReply {
        /// Echoed sequence number.
        seq: u64,
        /// Delivered chunk.
        chunk: ChunkId,
        /// Media payload bytes carried.
        payload_bytes: u32,
    },
    /// Negative data response.
    DataReject {
        /// Echoed sequence number.
        seq: u64,
        /// Whether the refusal was overload rather than missing data.
        busy: bool,
    },
    /// Tracker announce.
    Announce,
    /// Departure notice.
    Goodbye,
}

/// Borrowed view of a record's payload summary: [`RecordKind`] with the
/// peer-list addresses borrowed from the store's address arena. What the
/// store's cursors yield.
pub type KindRef<'a> = RecordKind<&'a [Ipv4Addr]>;

impl<L> RecordKind<L> {
    /// The same summary with the address list passed through `f`.
    fn map_ips<'a, M>(&'a self, f: impl FnOnce(&'a L) -> M) -> RecordKind<M> {
        match self {
            RecordKind::Bootstrap => RecordKind::Bootstrap,
            RecordKind::TrackerQuery => RecordKind::TrackerQuery,
            RecordKind::TrackerResponse { peer_ips } => RecordKind::TrackerResponse {
                peer_ips: f(peer_ips),
            },
            RecordKind::PeerListRequest { req_id } => {
                RecordKind::PeerListRequest { req_id: *req_id }
            }
            RecordKind::PeerListResponse { req_id, peer_ips } => RecordKind::PeerListResponse {
                req_id: *req_id,
                peer_ips: f(peer_ips),
            },
            RecordKind::Handshake => RecordKind::Handshake,
            RecordKind::HandshakeAck { accepted } => RecordKind::HandshakeAck {
                accepted: *accepted,
            },
            RecordKind::DataRequest { seq, chunk } => RecordKind::DataRequest {
                seq: *seq,
                chunk: *chunk,
            },
            RecordKind::DataReply {
                seq,
                chunk,
                payload_bytes,
            } => RecordKind::DataReply {
                seq: *seq,
                chunk: *chunk,
                payload_bytes: *payload_bytes,
            },
            RecordKind::DataReject { seq, busy } => RecordKind::DataReject {
                seq: *seq,
                busy: *busy,
            },
            RecordKind::Announce => RecordKind::Announce,
            RecordKind::Goodbye => RecordKind::Goodbye,
        }
    }
}

impl RecordKind {
    /// Borrowed view of this payload summary.
    #[must_use]
    pub fn as_ref(&self) -> KindRef<'_> {
        self.map_ips(Vec::as_slice)
    }
}

impl KindRef<'_> {
    /// Clones into an owned [`RecordKind`].
    #[must_use]
    pub fn to_owned(&self) -> RecordKind {
        self.map_ips(|ips| ips.to_vec())
    }
}

/// The capture summary of `msg`, with the addresses of a peer list it
/// carries copied in order into `ips` (reused across calls); `None` for a
/// timer, which never crosses the wire.
fn summarize<'a>(msg: &Message, ips: &'a mut Vec<Ipv4Addr>) -> Option<KindRef<'a>> {
    ips.clear();
    if let Message::TrackerResponse { peers, .. } | Message::PeerListResponse { peers, .. } = msg {
        peers.with(|entries| ips.extend(entries.iter().map(|e| e.ip)));
    }
    let peer_ips: &[Ipv4Addr] = ips;
    Some(match *msg {
        Message::BootstrapRequest
        | Message::BootstrapResponse { .. }
        | Message::JoinRequest { .. }
        | Message::JoinResponse { .. } => KindRef::Bootstrap,
        // A biased query is still a tracker query on the wire; the
        // locality hint changes the reply, not the request's shape.
        Message::TrackerQuery { .. } | Message::TrackerQueryBiased { .. } => KindRef::TrackerQuery,
        Message::TrackerResponse { .. } => KindRef::TrackerResponse { peer_ips },
        Message::PeerListRequest { req_id, .. } => KindRef::PeerListRequest { req_id },
        Message::PeerListResponse { req_id, .. } => KindRef::PeerListResponse { req_id, peer_ips },
        Message::Handshake { .. } => KindRef::Handshake,
        Message::HandshakeAck { accepted, .. } => KindRef::HandshakeAck { accepted },
        Message::DataRequest { seq, chunk, .. } => KindRef::DataRequest { seq, chunk },
        Message::DataReply { seq, chunk, .. } => KindRef::DataReply {
            seq,
            chunk,
            payload_bytes: msg.payload_bytes(),
        },
        Message::DataReject { seq, busy, .. } => KindRef::DataReject { seq, busy },
        Message::Announce { .. } => KindRef::Announce,
        Message::Goodbye => KindRef::Goodbye,
        Message::Timer(_) => return None,
    })
}

/// One captured message at a probe (owned interchange row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Capture timestamp.
    pub t: SimTime,
    /// The probe host that recorded the message.
    pub probe: NodeId,
    /// The remote endpoint.
    pub remote: NodeId,
    /// The remote endpoint's address, as read from the packet header.
    pub remote_ip: Ipv4Addr,
    /// Kind of the remote endpoint (peer / tracker / bootstrap / source).
    pub remote_kind: RemoteKind,
    /// Direction relative to the probe.
    pub direction: Direction,
    /// Payload summary.
    pub kind: RecordKind,
    /// Total bytes on the wire.
    pub wire_bytes: u32,
}

/// A fault boundary observed during capture: lets analysis segment a trace
/// into before / during / after windows without re-deriving the schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultMark {
    /// When the boundary fired.
    pub t: SimTime,
    /// The fault's label (e.g. `"partition:Tele-Cnc"`).
    pub label: String,
    /// `true` at the start of the fault, `false` at recovery.
    pub begins: bool,
}

/// How a [`ProbeTap`] bounds its memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CaptureConfig {
    /// Resident-byte budget for the trace store: sealed pages spill to
    /// disk once the resident pages exceed it (`None` = never spill).
    pub budget: Option<u64>,
    /// When set, the tap aggregates at capture time — per-probe per-window
    /// counters and wire-byte sketches — instead of recording rows at all.
    /// A zero window disables aggregation.
    pub aggregate_window: Option<SimTime>,
}

impl CaptureConfig {
    /// The per-shard slice of this config when capture is split over
    /// `shards` stores: the byte budget divides evenly (floor, min 1 byte)
    /// so the shards together stay within the original budget.
    #[must_use]
    pub fn shard_share(&self, shards: usize) -> CaptureConfig {
        CaptureConfig {
            budget: self.budget.map(|b| (b / shards.max(1) as u64).max(1)),
            aggregate_window: self.aggregate_window,
        }
    }
}

/// Downsampled counters for one probe over one aggregation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WindowStats {
    /// Messages captured in the window.
    pub records: u64,
    /// Wire bytes received by the probe.
    pub bytes_in: u64,
    /// Wire bytes sent by the probe.
    pub bytes_out: u64,
    /// Media payload bytes delivered to the probe (inbound data replies).
    pub data_payload_bytes_in: u64,
    /// Peer-list entries advertised to the probe (tracker + gossip lists).
    pub peer_list_entries: u64,
}

/// One probe's capture-time aggregate: windowed counters plus streaming
/// wire-byte sketches. State is O(windows), independent of message count.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeAggregate {
    /// Per-window counters, keyed by window index (`t / window`).
    pub windows: BTreeMap<u64, WindowStats>,
    /// Exact moments of the per-message wire size.
    pub wire_bytes: StreamingMoments,
    /// P² sketch of the 95th-percentile wire size.
    pub wire_bytes_p95: P2Quantile,
}

impl Default for ProbeAggregate {
    fn default() -> ProbeAggregate {
        ProbeAggregate {
            windows: BTreeMap::new(),
            wire_bytes: StreamingMoments::new(),
            wire_bytes_p95: P2Quantile::new(0.95),
        }
    }
}

/// Capture-time aggregates for every probe, the aggregate-mode counterpart
/// of a [`TraceStore`]. Deterministically mergeable across shards: all of
/// one probe's records are captured on its home shard in the monolithic
/// order, so per-shard maps are disjoint and identical to the single-shard
/// run's.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CaptureAggregates {
    /// Per-probe aggregates, in probe order.
    pub probes: BTreeMap<NodeId, ProbeAggregate>,
}

impl CaptureAggregates {
    /// Folds another shard's aggregates in.
    ///
    /// # Panics
    ///
    /// Panics if a probe appears in both — shard partitioning guarantees
    /// disjoint probe sets, and summing two P² sketches is undefined.
    pub fn absorb(&mut self, other: CaptureAggregates) {
        for (probe, agg) in other.probes {
            let prev = self.probes.insert(probe, agg);
            assert!(
                prev.is_none(),
                "probe {probe:?} aggregated on more than one shard"
            );
        }
    }
}

#[derive(Debug, Default)]
struct TapState {
    records: TraceStore,
    aggregates: CaptureAggregates,
    /// `Some(window)` switches the tap into aggregate mode.
    window: Option<SimTime>,
    faults: Vec<FaultMark>,
    remote_kinds: HashMap<NodeId, RemoteKind>,
    /// When stamping is enabled (sharded worlds), one `(pop stamp, rows)`
    /// entry per pop that captured rows, in capture order. Merging shard
    /// captures on the pop stamp reconstructs the global record order.
    stamps: Option<Vec<(EventStamp, u32)>>,
    /// The stamp of the pop currently being processed.
    current_pop: EventStamp,
    /// Reused buffer for the addresses of the peer list being recorded.
    ips: Vec<Ipv4Addr>,
}

/// One shard's captured traffic in thread-handoff form: the drained store
/// plus the pop stamps that order it. Produced by
/// [`ProbeTap::drain_stamped`], consumed by [`merge_stamped`].
#[derive(Debug)]
pub struct StampedTrace {
    /// The shard's captured records, in shard-local capture order.
    pub store: TraceStore,
    /// `(pop stamp, rows)` for each pop that captured rows, in capture
    /// order: the pop's rows are the next `rows` records of `store`. A
    /// pop's rows are contiguous because they are all captured while the
    /// popped actor's shard processes it.
    pub stamps: Vec<(EventStamp, u32)>,
}

/// Merges per-shard stamped captures into the global trace: every record of
/// one event pop is captured by exactly one shard (delivery and the
/// resulting sends all happen where the popped actor lives), so ordering
/// the shards' pops by stamp, each pop's rows kept in capture order,
/// reproduces the exact record sequence of the single-shard run, and
/// rebuilding the store from that sequence reproduces it bit for bit.
/// `budget` is the resident-byte budget of the merged store.
///
/// The merge consumes its parts and holds one copy of the capture: each
/// shard sees its pops in increasing stamp order, so a k-way merge over the
/// shards' pop stamps moves one pop's rows at a time into the output, and
/// every resident shard page it finishes is cleared and reused as an
/// output page. The output's address arena is reserved once, at the parts'
/// total. Spilled shard pages are decoded one page at a time — never
/// re-materialized as owned rows — and the output store spills under its
/// own budget as it grows, keeping the merge itself bounded-memory.
///
/// # Panics
///
/// Panics when a part's record count and its pops' row counts disagree, or
/// when a part's pop stamps are not in increasing order (the message names
/// the shard).
#[must_use]
pub fn merge_stamped(
    parts: impl IntoIterator<Item = StampedTrace>,
    budget: Option<u64>,
) -> TraceStore {
    struct Head {
        rows: PageDrain,
        stamps: Vec<(EventStamp, u32)>,
        pos: usize,
    }
    let parts: Vec<StampedTrace> = parts.into_iter().collect();
    for (shard, part) in parts.iter().enumerate() {
        assert_eq!(
            part.store.len(),
            part.stamps.iter().map(|&(_, n)| n as usize).sum::<usize>(),
            "stamped trace lost sync between records and sort keys"
        );
        assert!(
            part.stamps.is_sorted_by_key(|&(stamp, _)| stamp),
            "shard {shard} captured its pops out of stamp order"
        );
    }
    let mut out = TraceStore::with_budget(budget);
    out.reserve_ips(parts.iter().map(|p| p.store.arena_len()).sum());
    let mut heads: Vec<Head> = parts
        .into_iter()
        .filter(|p| !p.stamps.is_empty())
        .map(|p| Head {
            rows: PageDrain::new(p.store),
            stamps: p.stamps,
            pos: 0,
        })
        .collect();
    while !heads.is_empty() {
        let mut b = 0;
        for (i, h) in heads.iter().enumerate().skip(1) {
            if h.stamps[h.pos].0 < heads[b].stamps[heads[b].pos].0 {
                b = i;
            }
        }
        let head = &mut heads[b];
        head.rows
            .move_rows(head.stamps[head.pos].1 as usize, &mut out);
        head.pos += 1;
        if head.pos == head.stamps.len() {
            // Exhausted: its pages are all in `out` already; drop the rest.
            heads.remove(b);
        }
    }
    out.release_spares();
    out
}

/// Capture tap over a set of probe hosts; cloneable handle to shared
/// storage (install one clone as the simulation's monitor, keep the other).
///
/// Deliberately not `Send`: it lives and dies with one single-threaded
/// simulation. Move captured traffic across threads by [`drain`]ing into an
/// owned [`TraceStore`].
///
/// [`drain`]: ProbeTap::drain
#[derive(Debug, Clone)]
pub struct ProbeTap {
    /// `probes[id]`: whether `id` is a probe, for every id up to the
    /// largest probe; ids past the end are not probes. Read on every send
    /// and delivery, so a dense lookup rather than a hash.
    probes: Arc<[bool]>,
    topology: Arc<Topology>,
    state: Rc<RefCell<TapState>>,
}

impl ProbeTap {
    /// Creates an unbounded row-capturing tap observing the given probe
    /// hosts. The topology plays the role of the packet IP header: it
    /// resolves remote addresses.
    pub fn new<I: IntoIterator<Item = NodeId>>(probes: I, topology: Arc<Topology>) -> Self {
        ProbeTap::with_config(probes, topology, CaptureConfig::default())
    }

    /// Creates a tap with an explicit memory bound: a byte budget for the
    /// row store, or capture-time aggregation (see [`CaptureConfig`]).
    pub fn with_config<I: IntoIterator<Item = NodeId>>(
        probes: I,
        topology: Arc<Topology>,
        config: CaptureConfig,
    ) -> Self {
        let state = TapState {
            records: TraceStore::with_budget(config.budget),
            window: config.aggregate_window.filter(|w| *w > SimTime::ZERO),
            ..TapState::default()
        };
        let mut table = Vec::new();
        for p in probes {
            if p.index() >= table.len() {
                table.resize(p.index() + 1, false);
            }
            table[p.index()] = true;
        }
        ProbeTap {
            probes: table.into(),
            topology,
            state: Rc::new(RefCell::new(state)),
        }
    }

    /// Registers what kind of host a remote node is (default:
    /// [`RemoteKind::Peer`]).
    pub fn mark_remote(&self, node: NodeId, kind: RemoteKind) {
        self.state.borrow_mut().remote_kinds.insert(node, kind);
    }

    /// Pre-reserves capture storage for roughly `additional` more records.
    /// The row pages never reallocate, so only the shared address
    /// arena benefits; harmless to skip.
    pub fn reserve(&self, additional: usize) {
        self.state.borrow_mut().records.reserve_ips(additional);
    }

    /// Runs `f` over the store of records captured so far, without
    /// copying anything.
    pub fn records<R>(&self, f: impl FnOnce(&TraceStore) -> R) -> R {
        f(&self.state.borrow().records)
    }

    /// Moves the store out, leaving the tap empty (the byte budget carries
    /// over to the fresh store). The returned store is `Send`, making it
    /// the thread handoff point for parallel harnesses.
    #[must_use]
    pub fn drain(&self) -> TraceStore {
        let mut state = self.state.borrow_mut();
        let budget = state.records.budget();
        std::mem::replace(&mut state.records, TraceStore::with_budget(budget))
    }

    /// Moves the capture-time aggregates out, leaving the tap's aggregate
    /// state empty (the [`ProbeTap::drain`] counterpart for aggregate
    /// mode). Empty unless the tap was built with an aggregation window.
    #[must_use]
    pub fn drain_aggregates(&self) -> CaptureAggregates {
        std::mem::take(&mut self.state.borrow_mut().aggregates)
    }

    /// Turns on record stamping: every subsequent pop that captures rows
    /// also logs its stamp and row count, so shard captures can be
    /// merged into the global order with [`merge_stamped`]. Sharded worlds
    /// enable this on each shard's tap before the run starts.
    pub fn enable_stamps(&self) {
        let mut state = self.state.borrow_mut();
        if state.stamps.is_none() {
            state.stamps = Some(Vec::new());
        }
    }

    /// Moves out the captured records together with their pop stamps
    /// (requires [`ProbeTap::enable_stamps`]), leaving the tap empty.
    ///
    /// # Panics
    ///
    /// Panics if stamping was never enabled.
    #[must_use]
    pub fn drain_stamped(&self) -> StampedTrace {
        let mut state = self.state.borrow_mut();
        let stamps = state
            .stamps
            .take()
            .expect("drain_stamped requires enable_stamps");
        state.stamps = Some(Vec::new());
        let budget = state.records.budget();
        StampedTrace {
            store: std::mem::replace(&mut state.records, TraceStore::with_budget(budget)),
            stamps,
        }
    }

    /// Copies out the fault boundaries observed so far, in firing order.
    #[must_use]
    pub fn fault_markers(&self) -> Vec<FaultMark> {
        self.state.borrow().faults.clone()
    }

    /// Moves the fault boundaries out, leaving the tap's marker log empty
    /// (the [`ProbeTap::drain`] counterpart for markers).
    #[must_use]
    pub fn drain_faults(&self) -> Vec<FaultMark> {
        std::mem::take(&mut self.state.borrow_mut().faults)
    }

    /// Number of records captured so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.borrow().records.len()
    }

    /// Whether nothing has been captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn is_probe(&self, node: NodeId) -> bool {
        self.probes.get(node.index()).copied().unwrap_or(false)
    }

    /// Records one captured message: its summary goes to the store's row
    /// encoder ([`TraceStore::push_ref`]) — no owned [`TraceRecord`], no
    /// per-list allocation — or, in aggregate mode, into the window counters.
    fn record(
        &self,
        now: SimTime,
        probe: NodeId,
        remote: NodeId,
        direction: Direction,
        payload: &Message,
        size: u32,
    ) {
        let mut state = self.state.borrow_mut();
        let state = &mut *state;
        let Some(kind) = summarize(payload, &mut state.ips) else {
            return;
        };
        let remote_ip = self
            .topology
            .try_host(remote)
            .map_or(Ipv4Addr::UNSPECIFIED, |h| h.ip);
        if let Some(window) = state.window {
            // Aggregate mode: fold into O(windows) state, record no row.
            // Stamping is moot — there are no rows to merge by stamp; the
            // per-probe aggregates merge by map union instead.
            let idx = now.as_micros() / window.as_micros();
            let agg = state.aggregates.probes.entry(probe).or_default();
            let w = agg.windows.entry(idx).or_default();
            w.records += 1;
            match direction {
                Direction::Outbound => w.bytes_out += u64::from(size),
                Direction::Inbound => w.bytes_in += u64::from(size),
            }
            match kind {
                KindRef::DataReply { payload_bytes, .. } if direction == Direction::Inbound => {
                    w.data_payload_bytes_in += u64::from(payload_bytes);
                }
                KindRef::TrackerResponse { peer_ips }
                | KindRef::PeerListResponse { peer_ips, .. } => {
                    w.peer_list_entries += peer_ips.len() as u64;
                }
                _ => {}
            }
            agg.wire_bytes.observe(u64::from(size));
            agg.wire_bytes_p95.observe(f64::from(size));
            return;
        }
        if let Some(stamps) = &mut state.stamps {
            // Pop stamps are unique, so a row continues the last entry
            // exactly when it was captured in the same pop.
            match stamps.last_mut() {
                Some((stamp, rows)) if *stamp == state.current_pop => *rows += 1,
                _ => stamps.push((state.current_pop, 1)),
            }
        }
        state.records.push_ref(RecordRef {
            t: now,
            probe,
            remote,
            remote_ip,
            remote_kind: state.remote_kinds.get(&remote).copied().unwrap_or_default(),
            direction,
            kind,
            wire_bytes: size,
        });
    }
}

impl Monitor<Message> for ProbeTap {
    fn on_send(&mut self, now: SimTime, from: NodeId, to: NodeId, payload: &Message, size: u32) {
        if self.is_probe(from) {
            self.record(now, from, to, Direction::Outbound, payload, size);
        }
    }

    fn on_deliver(&mut self, now: SimTime, from: NodeId, to: NodeId, payload: &Message, size: u32) {
        if self.is_probe(to) {
            self.record(now, to, from, Direction::Inbound, payload, size);
        }
    }

    fn on_fault(&mut self, now: SimTime, fault: &FaultEvent) {
        self.state.borrow_mut().faults.push(FaultMark {
            t: now,
            label: fault.label.clone(),
            begins: fault.begins,
        });
    }

    fn on_pop(&mut self, stamp: EventStamp) {
        self.state.borrow_mut().current_pop = stamp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plsim_net::{BandwidthClass, Isp, TopologyBuilder};
    use plsim_proto::{ChannelId, PeerEntry, SharedPeerList};
    use proptest::prelude::{
        any, collection, prop_assert, prop_assert_eq, prop_oneof, proptest, Just, Strategy,
    };
    use rand::{rngs::SmallRng, SeedableRng};

    fn tap() -> ProbeTap {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut b = TopologyBuilder::new();
        for _ in 0..12 {
            b.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng);
        }
        ProbeTap::new([NodeId(0)], Arc::new(b.build()))
    }

    #[test]
    fn only_probe_traffic_is_captured() {
        let mut t = tap();
        let msg = Message::TrackerQuery {
            channel: ChannelId(1),
        };
        t.on_send(SimTime::ZERO, NodeId(0), NodeId(5), &msg, 46);
        t.on_send(SimTime::ZERO, NodeId(3), NodeId(5), &msg, 46);
        t.on_deliver(SimTime::ZERO, NodeId(5), NodeId(0), &msg, 46);
        t.on_deliver(SimTime::ZERO, NodeId(5), NodeId(3), &msg, 46);
        t.records(|store| {
            assert_eq!(store.len(), 2);
            assert!(store.rows().all(|r| r.probe == NodeId(0)));
            assert!(store
                .rows()
                .map(|r| r.direction)
                .eq([Direction::Outbound, Direction::Inbound]));
        });
    }

    #[test]
    fn ids_past_the_probe_table_are_not_probes() {
        // The table ends at the largest probe (2): ids inside it that are
        // not probes, and ids past its end, capture nothing.
        let mut t = ProbeTap::new([NodeId(2), NodeId(0)], tap().topology.clone());
        let msg = Message::TrackerQuery {
            channel: ChannelId(1),
        };
        for to in [NodeId(1), NodeId(3), NodeId(11), NodeId(u32::MAX)] {
            t.on_deliver(SimTime::ZERO, NodeId(5), to, &msg, 46);
            t.on_send(SimTime::ZERO, to, NodeId(5), &msg, 46);
        }
        assert!(t.is_empty());
        t.on_deliver(SimTime::ZERO, NodeId(5), NodeId(2), &msg, 46);
        t.records(|store| {
            assert_eq!(store.len(), 1);
            assert_eq!(store.rows().next().unwrap().probe, NodeId(2));
        });
    }

    #[test]
    fn remote_kind_marking_is_applied() {
        let mut t = tap();
        t.mark_remote(NodeId(5), RemoteKind::Tracker);
        let msg = Message::TrackerQuery {
            channel: ChannelId(1),
        };
        t.on_send(SimTime::ZERO, NodeId(0), NodeId(5), &msg, 46);
        t.on_send(SimTime::ZERO, NodeId(0), NodeId(6), &msg, 46);
        t.records(|store| {
            assert!(store
                .rows()
                .map(|r| r.remote_kind)
                .eq([RemoteKind::Tracker, RemoteKind::Peer]));
        });
    }

    #[test]
    fn drain_empties_the_store() {
        let mut t = tap();
        let msg = Message::Goodbye;
        t.on_send(SimTime::ZERO, NodeId(0), NodeId(1), &msg, 46);
        assert_eq!(t.drain().len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn records_borrows_without_draining() {
        let mut t = tap();
        t.on_send(SimTime::ZERO, NodeId(0), NodeId(1), &Message::Goodbye, 46);
        assert_eq!(t.records(TraceStore::to_records).len(), 1);
        assert_eq!(t.len(), 1, "records must leave the store intact");
    }

    #[test]
    fn reserve_grows_capacity_without_recording() {
        let t = tap();
        t.reserve(1024);
        assert!(t.is_empty());
    }

    #[test]
    fn handles_share_state() {
        let t1 = tap();
        let mut t2 = t1.clone();
        t2.on_send(SimTime::ZERO, NodeId(0), NodeId(1), &Message::Goodbye, 46);
        assert_eq!(t1.len(), 1);
    }

    #[test]
    fn fault_markers_are_recorded_and_drained() {
        let mut t = tap();
        t.on_fault(
            SimTime::from_secs(100),
            &FaultEvent::begin("tracker-outage"),
        );
        t.on_fault(SimTime::from_secs(200), &FaultEvent::end("tracker-outage"));
        let marks = t.fault_markers();
        assert_eq!(marks.len(), 2);
        assert_eq!(marks[0].label, "tracker-outage");
        assert!(marks[0].begins);
        assert!(!marks[1].begins);
        assert_eq!(marks[1].t, SimTime::from_secs(200));
        // Markers live apart from packet records.
        assert!(t.is_empty());
        assert_eq!(t.drain_faults().len(), 2);
        assert!(t.fault_markers().is_empty());
    }

    #[test]
    fn stamped_shard_captures_merge_into_the_reference_order() {
        use plsim_des::EventStamp;
        let stamp = |at: u64, origin: u32, seq: u64| EventStamp {
            at: SimTime::from_secs(at),
            origin,
            seq,
        };
        let msg = |req_id| Message::PeerListRequest {
            channel: ChannelId(1),
            my_peers: SharedPeerList::default(),
            req_id,
        };
        // Reference: one tap sees four pops in global order; pop 2 yields
        // two records (a delivery then a forwarded send).
        let pops = [
            (stamp(1, 3, 0), vec![(NodeId(6), Direction::Inbound, 0u64)]),
            (
                stamp(2, 1, 0),
                vec![
                    (NodeId(7), Direction::Inbound, 1),
                    (NodeId(8), Direction::Outbound, 2),
                ],
            ),
            (stamp(2, 1, 1), vec![(NodeId(9), Direction::Outbound, 3)]),
            (stamp(2, 2, 0), vec![(NodeId(6), Direction::Inbound, 4)]),
        ];
        let mut reference = tap();
        for (stamp, records) in &pops {
            reference.on_pop(*stamp);
            for &(remote, dir, req_id) in records {
                match dir {
                    Direction::Inbound => {
                        reference.on_deliver(stamp.at, remote, NodeId(0), &msg(req_id), 46);
                    }
                    Direction::Outbound => {
                        reference.on_send(stamp.at, NodeId(0), remote, &msg(req_id), 46);
                    }
                }
            }
        }
        let want = reference.drain();

        // Sharded: odd-indexed pops land on one tap, even on the other, each
        // tap seeing its own pops in stamp order; the stamps interleave them
        // back.
        let (shard_a, shard_b) = (tap(), tap());
        shard_a.enable_stamps();
        shard_b.enable_stamps();
        for (i, (stamp, records)) in pops.iter().enumerate() {
            let mut t = if i % 2 == 0 {
                shard_a.clone()
            } else {
                shard_b.clone()
            };
            t.on_pop(*stamp);
            for &(remote, dir, req_id) in records {
                match dir {
                    Direction::Inbound => {
                        t.on_deliver(stamp.at, remote, NodeId(0), &msg(req_id), 46);
                    }
                    Direction::Outbound => {
                        t.on_send(stamp.at, NodeId(0), remote, &msg(req_id), 46);
                    }
                }
            }
        }
        let merged = merge_stamped([shard_a.drain_stamped(), shard_b.drain_stamped()], None);
        assert_eq!(merged, TraceStore::from_records(&want.to_records()));
    }

    #[test]
    #[should_panic(expected = "shard 1 captured its pops out of stamp order")]
    fn merge_rejects_a_shard_whose_pops_ran_backwards() {
        let (in_order, mut backwards) = (tap(), tap());
        in_order.enable_stamps();
        backwards.enable_stamps();
        for at in [2, 1] {
            let at = SimTime::from_secs(at);
            backwards.on_pop(plsim_des::EventStamp {
                at,
                origin: 0,
                seq: 0,
            });
            backwards.on_deliver(at, NodeId(6), NodeId(0), &Message::Goodbye, 46);
        }
        let _ = merge_stamped([in_order.drain_stamped(), backwards.drain_stamped()], None);
    }

    #[test]
    fn the_tap_records_each_message_variant_as_its_wire_kind() {
        use plsim_proto::{TimerKind, SUB_PIECE_BYTES};
        // Addresses out of sorted order: the tap keeps the list's order.
        let ips = [
            Ipv4Addr::new(61, 0, 0, 9),
            Ipv4Addr::new(58, 0, 0, 1),
            Ipv4Addr::new(58, 0, 0, 5),
        ];
        let list = || -> SharedPeerList {
            (1..)
                .zip(ips)
                .map(|(n, ip)| PeerEntry::new(NodeId(n), ip))
                .collect()
        };
        let channel = ChannelId(1);
        let chunk = ChunkId(9);
        // One instance of every message variant, with the kind the tap must
        // record for it (`None`: no row).
        let cases = [
            (Message::BootstrapRequest, Some(RecordKind::Bootstrap)),
            (
                Message::BootstrapResponse {
                    channels: vec![channel],
                },
                Some(RecordKind::Bootstrap),
            ),
            (
                Message::JoinRequest { channel },
                Some(RecordKind::Bootstrap),
            ),
            (
                Message::JoinResponse {
                    channel,
                    trackers: vec![PeerEntry::new(NodeId(7), ips[0])],
                },
                Some(RecordKind::Bootstrap),
            ),
            (
                Message::TrackerQuery { channel },
                Some(RecordKind::TrackerQuery),
            ),
            (
                Message::TrackerQueryBiased {
                    channel,
                    want_same_isp: 30,
                },
                Some(RecordKind::TrackerQuery),
            ),
            (
                Message::TrackerResponse {
                    channel,
                    peers: list(),
                },
                Some(RecordKind::TrackerResponse {
                    peer_ips: ips.to_vec(),
                }),
            ),
            (Message::Announce { channel }, Some(RecordKind::Announce)),
            (Message::Handshake { channel }, Some(RecordKind::Handshake)),
            (
                Message::HandshakeAck {
                    channel,
                    accepted: true,
                },
                Some(RecordKind::HandshakeAck { accepted: true }),
            ),
            (
                Message::PeerListRequest {
                    channel,
                    my_peers: list(),
                    req_id: 5,
                },
                Some(RecordKind::PeerListRequest { req_id: 5 }),
            ),
            (
                Message::PeerListResponse {
                    channel,
                    peers: list(),
                    req_id: 6,
                },
                Some(RecordKind::PeerListResponse {
                    req_id: 6,
                    peer_ips: ips.to_vec(),
                }),
            ),
            (
                Message::DataRequest {
                    channel,
                    chunk,
                    offset: 2,
                    count: 3,
                    seq: 7,
                },
                Some(RecordKind::DataRequest { seq: 7, chunk }),
            ),
            (
                Message::DataReply {
                    chunk,
                    offset: 2,
                    count: 3,
                    seq: 7,
                },
                Some(RecordKind::DataReply {
                    seq: 7,
                    chunk,
                    payload_bytes: 3 * SUB_PIECE_BYTES,
                }),
            ),
            (
                Message::DataReject {
                    chunk,
                    seq: 8,
                    busy: true,
                },
                Some(RecordKind::DataReject { seq: 8, busy: true }),
            ),
            (Message::Goodbye, Some(RecordKind::Goodbye)),
            (Message::Timer(TimerKind::Scheduler), None),
        ];
        let variants: std::collections::HashSet<_> = cases
            .iter()
            .map(|(msg, _)| std::mem::discriminant(msg))
            .collect();
        assert_eq!(variants.len(), cases.len(), "a variant is listed twice");
        // One tap for all of them, so the reused address buffer is
        // exercised too.
        let mut t = tap();
        let remote_ip = t.topology.host(NodeId(4)).ip;
        let mut want = Vec::new();
        for (i, (msg, kind)) in (0..).zip(cases) {
            let at = SimTime::from_secs(i);
            t.on_deliver(at, NodeId(4), NodeId(0), &msg, msg.wire_size());
            want.extend(kind.map(|kind| TraceRecord {
                t: at,
                probe: NodeId(0),
                remote: NodeId(4),
                remote_ip,
                remote_kind: RemoteKind::Peer,
                direction: Direction::Inbound,
                kind,
                wire_bytes: msg.wire_size(),
            }));
        }
        assert_eq!(t.records(TraceStore::to_records), want);
    }

    #[test]
    fn budgeted_merge_streams_spilled_shards() {
        // Each shard captures enough to seal and spill pages under a tiny
        // budget; the budgeted merge must still reproduce the unspilled
        // merge bit for bit, and may spill its own output.
        use crate::store::PAGE_ROWS;
        // Interleaved over two shards, so each shard still seals a page.
        let n = 2 * PAGE_ROWS as u64 + 1400;
        let build = |config: CaptureConfig| {
            let shards = [
                ProbeTap::with_config([NodeId(0)], tap().topology.clone(), config),
                ProbeTap::with_config([NodeId(0)], tap().topology.clone(), config),
            ];
            for t in &shards {
                t.enable_stamps();
            }
            for i in 0..n {
                let mut t = shards[(i % 2) as usize].clone();
                t.on_pop(EventStamp {
                    at: SimTime::from_millis(i),
                    origin: (i % 2) as u32,
                    seq: i,
                });
                t.on_deliver(
                    SimTime::from_millis(i),
                    NodeId(1 + (i % 5) as u32),
                    NodeId(0),
                    &Message::DataRequest {
                        channel: ChannelId(1),
                        seq: i,
                        chunk: ChunkId(i),
                        offset: 0,
                        count: 1,
                    },
                    64,
                );
            }
            [shards[0].drain_stamped(), shards[1].drain_stamped()]
        };
        let reference = merge_stamped(build(CaptureConfig::default()), None);
        let spilled_parts = build(CaptureConfig {
            budget: Some(1),
            aggregate_window: None,
        });
        assert!(
            spilled_parts.iter().all(|p| p.store.spilled_pages() > 0),
            "shard traces must actually spill"
        );
        let merged = merge_stamped(spilled_parts, Some(1));
        assert!(merged.spilled_pages() > 0, "merged store must spill too");
        assert_eq!(merged, reference);
    }

    /// One generated capture for the merge tests: pops in global stamp
    /// order, each assigned to a shard and capturing `rows` records.
    struct Pops(Vec<(EventStamp, usize, usize)>);

    impl Pops {
        /// `n` pops over `shards` shards (shard 0 takes about half, so
        /// its part crosses page boundaries first; a shard may get none),
        /// each capturing 0–4 rows. Stamps share times, so pops at one
        /// time order by origin: the global order is the stamp sort, not
        /// the generation order.
        fn generate(n: usize, shards: usize, seed: u64) -> Pops {
            use rand::Rng;
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut pops: Vec<_> = (0..n)
                .map(|i| {
                    let shard = if rng.random_bool(0.5) {
                        0
                    } else {
                        rng.random_range(0..shards)
                    };
                    let stamp = EventStamp {
                        at: SimTime::from_micros(i as u64 / 4),
                        origin: shard as u32,
                        seq: i as u64,
                    };
                    (stamp, shard, [0, 1, 1, 2, 4][rng.random_range(0..5usize)])
                })
                .collect();
            pops.sort_by_key(|&(stamp, ..)| stamp);
            Pops(pops)
        }

        /// The `j`-th row of the pop stamped `stamp`: data requests,
        /// goodbyes and peer lists of 0–3 addresses (arena spans of every
        /// length, empty included), both directions.
        fn capture(t: &mut ProbeTap, stamp: EventStamp, j: usize) {
            let n = stamp.seq as u32;
            let at = stamp.at;
            match (n as usize + j) % 3 {
                0 => t.on_deliver(
                    at,
                    NodeId(1 + n % 7),
                    NodeId(0),
                    &Message::DataRequest {
                        channel: ChannelId(1),
                        seq: u64::from(n),
                        chunk: ChunkId(j as u64),
                        offset: 0,
                        count: 1,
                    },
                    64,
                ),
                1 => t.on_send(at, NodeId(0), NodeId(1 + n % 5), &Message::Goodbye, 46),
                _ => t.on_deliver(
                    at,
                    NodeId(2),
                    NodeId(0),
                    &Message::PeerListResponse {
                        channel: ChannelId(1),
                        peers: (0..(n + j as u32) % 4)
                            .map(|k| {
                                PeerEntry::new(NodeId(k), Ipv4Addr::new(58, 0, k as u8, n as u8))
                            })
                            .collect(),
                        req_id: u64::from(n),
                    },
                    80,
                ),
            }
        }

        /// One stamped part per shard, each under its own capture config,
        /// plus the oracle: every row of every part, sorted by the
        /// per-row `(pop stamp, index within the pop)` key.
        fn parts(&self, configs: &[CaptureConfig]) -> (Vec<StampedTrace>, TraceStore) {
            let taps: Vec<ProbeTap> = configs
                .iter()
                .map(|&c| {
                    let t = ProbeTap::with_config([NodeId(0)], tap().topology.clone(), c);
                    t.enable_stamps();
                    t
                })
                .collect();
            let mut keys: Vec<Vec<(EventStamp, usize)>> = vec![Vec::new(); taps.len()];
            for &(stamp, shard, rows) in &self.0 {
                let mut t = taps[shard].clone();
                t.on_pop(stamp);
                for j in 0..rows {
                    Pops::capture(&mut t, stamp, j);
                    keys[shard].push((stamp, j));
                }
            }
            let parts: Vec<StampedTrace> = taps.iter().map(ProbeTap::drain_stamped).collect();
            let mut keyed: Vec<((EventStamp, usize), TraceRecord)> = Vec::new();
            for (part, keys) in parts.iter().zip(keys) {
                keyed.extend(keys.into_iter().zip(part.store.to_records()));
            }
            keyed.sort_by_key(|&(key, _)| key);
            let oracle = keyed.iter().map(|(_, r)| r.clone()).collect();
            (parts, oracle)
        }
    }

    /// Per-part budgets: resident, every sealed page spilled, or spilling
    /// only past one and a half pages.
    fn part_config(code: u64) -> CaptureConfig {
        let page = (crate::store::PAGE_ROWS * 48) as u64;
        CaptureConfig {
            budget: [None, Some(1), Some(page * 3 / 2)][code as usize],
            aggregate_window: None,
        }
    }

    proptest! {
        /// Merging pop runs equals sorting every row by its per-row key:
        /// multi-row and empty pops, empty parts, parts that cross page
        /// boundaries, resident and spilled parts mixed, under a budget
        /// on the output or not.
        #[test]
        fn pop_run_merge_equals_the_per_row_sort(
            pops in 0usize..20_000,
            shards in 1usize..5,
            seed in any::<u64>(),
            budgets in collection::vec(0u64..3, 4..5),
            out_budget in prop_oneof![Just(None), (1u64..2 * 393_216).prop_map(Some)],
        ) {
            let pops = Pops::generate(pops, shards, seed);
            let configs: Vec<_> = budgets[..shards].iter().map(|&c| part_config(c)).collect();
            let (parts, oracle) = pops.parts(&configs);
            let merged = merge_stamped(parts, out_budget);
            prop_assert_eq!(merged.len(), oracle.len());
            prop_assert!(merged == oracle, "seed {seed}: merge diverged from the per-row sort");
            prop_assert_eq!(merged.budget(), out_budget);
        }
    }

    #[test]
    fn merging_resident_parts_reuses_their_pages() {
        use crate::store::PAGE_ROWS;
        // Three resident parts, each past two pages (shard 0 takes about
        // two thirds of the rows).
        let pops = Pops::generate(10 * PAGE_ROWS, 3, 7);
        let (parts, oracle) = pops.parts(&[CaptureConfig::default(); 3]);
        assert!(parts.iter().all(|p| p.store.len() > 2 * PAGE_ROWS));
        let theirs: std::collections::HashSet<_> =
            parts.iter().flat_map(|p| p.store.page_buffers()).collect();
        let merged = merge_stamped(parts, None);
        assert_eq!(merged, oracle);
        let buffers = merged.page_buffers();
        assert_eq!(buffers.len(), merged.len().div_ceil(PAGE_ROWS));
        let fresh = buffers.iter().filter(|b| !theirs.contains(b)).count();
        assert!(
            fresh <= 3,
            "the merge allocated {fresh} pages beyond its 3 parts' own"
        );
        // Whole pages and an arena reserved once, at exactly the parts' total.
        assert_eq!(
            merged.approx_heap_bytes(),
            buffers.len() * PAGE_ROWS * 48 + merged.arena_len() * 4
        );
    }

    #[test]
    fn aggregate_mode_folds_windows_instead_of_rows() {
        let config = CaptureConfig {
            budget: None,
            aggregate_window: Some(SimTime::from_secs(10)),
        };
        let mut t = ProbeTap::with_config([NodeId(0)], tap().topology.clone(), config);
        let reply = Message::DataReply {
            chunk: ChunkId(3),
            offset: 0,
            count: 4,
            seq: 1,
        };
        t.on_deliver(SimTime::from_secs(1), NodeId(2), NodeId(0), &reply, 200);
        t.on_deliver(SimTime::from_secs(9), NodeId(2), NodeId(0), &reply, 200);
        t.on_send(
            SimTime::from_secs(15),
            NodeId(0),
            NodeId(3),
            &Message::Goodbye,
            46,
        );
        let gossip = Message::PeerListResponse {
            channel: ChannelId(1),
            peers: (1..=3)
                .map(|n| PeerEntry::new(NodeId(n), Ipv4Addr::new(58, 0, 0, n as u8)))
                .collect(),
            req_id: 2,
        };
        t.on_deliver(SimTime::from_secs(12), NodeId(3), NodeId(0), &gossip, 64);
        assert!(t.is_empty(), "aggregate mode records no rows");
        let aggs = t.drain_aggregates();
        let probe = &aggs.probes[&NodeId(0)];
        assert_eq!(probe.windows.len(), 2);
        let w0 = &probe.windows[&0];
        assert_eq!(w0.records, 2);
        assert_eq!(w0.bytes_in, 400);
        assert_eq!(w0.bytes_out, 0);
        assert_eq!(
            w0.data_payload_bytes_in,
            2 * 4 * u64::from(plsim_proto::SUB_PIECE_BYTES)
        );
        assert_eq!(w0.peer_list_entries, 0);
        let w1 = &probe.windows[&1];
        assert_eq!(w1.records, 2);
        assert_eq!(w1.bytes_out, 46);
        assert_eq!(w1.peer_list_entries, 3);
        assert_eq!(probe.wire_bytes.count(), 4);
        assert_eq!(probe.wire_bytes.max(), 200);
        assert!(t.drain_aggregates().probes.is_empty(), "drain empties");
    }

    #[test]
    fn aggregates_absorb_disjoint_shards() {
        let mut a = CaptureAggregates::default();
        let mut agg0 = ProbeAggregate::default();
        agg0.wire_bytes.observe(10);
        a.probes.insert(NodeId(0), agg0);
        let mut b = CaptureAggregates::default();
        let mut agg1 = ProbeAggregate::default();
        agg1.wire_bytes.observe(20);
        b.probes.insert(NodeId(1), agg1);
        a.absorb(b);
        assert_eq!(a.probes.len(), 2);
        assert_eq!(a.probes[&NodeId(1)].wire_bytes.sum(), 20);
    }

    #[test]
    fn shard_share_splits_the_budget() {
        let cfg = CaptureConfig {
            budget: Some(8 << 20),
            aggregate_window: Some(SimTime::from_secs(1)),
        };
        let share = cfg.shard_share(4);
        assert_eq!(share.budget, Some(2 << 20));
        assert_eq!(share.aggregate_window, cfg.aggregate_window);
        assert_eq!(cfg.shard_share(0).budget, Some(8 << 20));
        assert_eq!(
            CaptureConfig::default().shard_share(4),
            CaptureConfig::default()
        );
    }

    #[test]
    fn drain_preserves_the_budget() {
        let config = CaptureConfig {
            budget: Some(1234),
            aggregate_window: None,
        };
        let t = ProbeTap::with_config([NodeId(0)], tap().topology.clone(), config);
        assert_eq!(t.drain().budget(), Some(1234));
        assert_eq!(
            t.records(TraceStore::budget),
            Some(1234),
            "fresh store keeps spilling"
        );
    }
}
