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
//! A capture is ordered by `(t, probe)`, each probe's rows in capture
//! order: the tap holds the rows of the current instant back until the
//! clock moves on and then stores them in probe order, so the order is a
//! function of the rows themselves. A sharded world captures every probe
//! on its home shard in exactly the monolithic order, so merging the
//! shards' drained stores by that key ([`merge_traces`]) rebuilds the
//! monolithic store.
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
//! assert_eq!(tap.drain().len(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod store;

pub use store::{RecordRef, Rows, RowsFor, TraceStore};

use store::{InstantRows, PageDrain, RowKey};

use plsim_des::{FaultEvent, Monitor, NodeId, SimTime};
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
    /// Everything captured before the current instant, ordered by
    /// `(t, probe)`.
    records: TraceStore,
    /// The current instant's rows, which join `records` in probe order
    /// once the clock moves on.
    instant: InstantRows,
    aggregates: CaptureAggregates,
    /// `Some(window)` switches the tap into aggregate mode.
    window: Option<SimTime>,
    faults: Vec<FaultMark>,
    remote_kinds: HashMap<NodeId, RemoteKind>,
    /// Reused buffer for the addresses of the peer list being recorded.
    ips: Vec<Ipv4Addr>,
}

/// Merges traces into one store ordered by `(t, probe)`, each part's rows
/// kept in their order. Every part must already be in that order — a
/// drained [`ProbeTap`] is, and so is this function's output — and no
/// probe may have rows in two parts: then the heads of the parts never
/// tie, and the result is a function of each probe's row sequence alone.
/// That is what lets a sharded world, which captures every probe on its
/// home shard in the monolithic order, merge its shards' drained taps into
/// exactly the store one tap over the whole world drains. `budget` is the
/// resident-byte budget of the merged store.
///
/// The merge consumes its parts and holds one copy of the capture: it moves
/// the smallest head's run of rows — up to the next smallest head — into
/// the output at a time, and every resident page it finishes is cleared and
/// reused as an output page. Spilled pages are decoded one page at a time —
/// never re-materialized as owned rows — and the output spills under its
/// own budget as it grows, keeping the merge itself bounded-memory. The
/// output grows exactly as a tap's store does when fed the same rows, so
/// its spill and resident figures are those of the monolithic capture.
#[must_use]
pub fn merge_traces(
    parts: impl IntoIterator<Item = TraceStore>,
    budget: Option<u64>,
) -> TraceStore {
    let mut heads: Vec<(RowKey, PageDrain)> = parts
        .into_iter()
        .filter_map(|part| {
            let mut part = PageDrain::new(part);
            part.head().map(|key| (key, part))
        })
        .collect();
    let mut out = TraceStore::with_budget(budget);
    while let Some(b) = (0..heads.len()).min_by_key(|&i| heads[i].0) {
        let next = (0..heads.len())
            .filter(|&i| i != b)
            .map(|i| heads[i].0)
            .min();
        match heads[b].1.move_through(next, &mut out) {
            Some(key) => heads[b].0 = key,
            // Exhausted: its pages are all in `out` already; drop the rest.
            None => drop(heads.remove(b)),
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

    /// Moves everything captured out, ordered by `(t, probe)`, leaving the
    /// tap empty (the byte budget carries over to the fresh store). The
    /// returned store is `Send`, making it the thread handoff point for
    /// parallel harnesses.
    #[must_use]
    pub fn drain(&self) -> TraceStore {
        let mut state = self.state.borrow_mut();
        let state = &mut *state;
        state.instant.flush(&mut state.records);
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

    /// Moves the fault boundaries out, in firing order, leaving the tap's
    /// marker log empty (the [`ProbeTap::drain`] counterpart for markers).
    #[must_use]
    pub fn drain_faults(&self) -> Vec<FaultMark> {
        std::mem::take(&mut self.state.borrow_mut().faults)
    }

    fn is_probe(&self, node: NodeId) -> bool {
        self.probes.get(node.index()).copied().unwrap_or(false)
    }

    /// Records one captured message: its summary goes to the row encoder
    /// (through the current instant's rows) — no owned [`TraceRecord`], no
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
            // Aggregate mode: fold into O(windows) state, record no row;
            // the per-probe aggregates merge by map union instead.
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
        let record = RecordRef {
            t: now,
            probe,
            remote,
            remote_ip,
            remote_kind: state.remote_kinds.get(&remote).copied().unwrap_or_default(),
            direction,
            kind,
            wire_bytes: size,
        };
        state.instant.push(record, &mut state.records);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PAGE_ROWS;
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
        let store = t.drain();
        assert_eq!(store.len(), 2);
        assert!(store.rows().all(|r| r.probe == NodeId(0)));
        assert!(store
            .rows()
            .map(|r| r.direction)
            .eq([Direction::Outbound, Direction::Inbound]));
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
        assert_eq!(t.drain().len(), 0);
        t.on_deliver(SimTime::ZERO, NodeId(5), NodeId(2), &msg, 46);
        let store = t.drain();
        assert_eq!(store.len(), 1);
        assert_eq!(store.rows().next().unwrap().probe, NodeId(2));
    }

    #[test]
    fn drain_orders_rows_by_time_then_probe() {
        // At the second instant probe 2 captures twice before probe 0
        // does; the drained store still puts probe 0 first there, and
        // keeps each probe's rows in capture order.
        let mut t = ProbeTap::new([NodeId(2), NodeId(0)], tap().topology.clone());
        let at = SimTime::from_secs;
        t.on_deliver(at(0), NodeId(7), NodeId(0), &Message::Goodbye, 46);
        t.on_deliver(at(1), NodeId(5), NodeId(2), &Message::Goodbye, 46);
        t.on_send(at(1), NodeId(2), NodeId(6), &Message::Goodbye, 46);
        t.on_deliver(at(1), NodeId(8), NodeId(0), &Message::Goodbye, 46);
        let store = t.drain();
        assert!(store.rows().map(|r| (r.t, r.probe, r.remote)).eq([
            (at(0), NodeId(0), NodeId(7)),
            (at(1), NodeId(0), NodeId(8)),
            (at(1), NodeId(2), NodeId(5)),
            (at(1), NodeId(2), NodeId(6)),
        ]));
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
        assert!(t
            .drain()
            .rows()
            .map(|r| r.remote_kind)
            .eq([RemoteKind::Tracker, RemoteKind::Peer]));
    }

    #[test]
    fn drain_empties_the_store() {
        let mut t = tap();
        let msg = Message::Goodbye;
        t.on_send(SimTime::ZERO, NodeId(0), NodeId(1), &msg, 46);
        assert_eq!(t.drain().len(), 1);
        assert_eq!(t.drain().len(), 0);
    }

    #[test]
    fn handles_share_state() {
        let t1 = tap();
        let mut t2 = t1.clone();
        t2.on_send(SimTime::ZERO, NodeId(0), NodeId(1), &Message::Goodbye, 46);
        assert_eq!(t1.drain().len(), 1);
    }

    #[test]
    fn fault_markers_are_recorded_and_drained() {
        let mut t = tap();
        t.on_fault(
            SimTime::from_secs(100),
            &FaultEvent::begin("tracker-outage"),
        );
        t.on_fault(SimTime::from_secs(200), &FaultEvent::end("tracker-outage"));
        // Markers live apart from packet records.
        assert_eq!(t.drain().len(), 0);
        let marks = t.drain_faults();
        assert_eq!(marks.len(), 2);
        assert_eq!(marks[0].label, "tracker-outage");
        assert!(marks[0].begins);
        assert!(!marks[1].begins);
        assert_eq!(marks[1].t, SimTime::from_secs(200));
        assert!(t.drain_faults().is_empty());
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
        assert_eq!(t.drain().to_records(), want);
    }

    /// A generated capture for the merge tests: `(t, probe)` per row, in
    /// capture order, over `probes`.
    struct Capture {
        rows: Vec<(SimTime, NodeId)>,
        probes: Vec<NodeId>,
    }

    impl Capture {
        /// `n` rows over `count` probes, then one row from every probe at
        /// the last time, highest probe first. The first probe captures
        /// about half the rows (so its store crosses page boundaries
        /// first; another may capture none). Four rows share each capture
        /// time, in random probe order, so rows of different probes tie on
        /// `t` out of probe order; probe ids run in an order unrelated to
        /// their index.
        fn generate(n: usize, count: usize, seed: u64) -> Capture {
            use rand::Rng;
            let mut rng = SmallRng::seed_from_u64(seed);
            let probes: Vec<NodeId> = (0..count as u32)
                .map(|k| NodeId((k * 7 + 3) % 11))
                .collect();
            let mut rows: Vec<(SimTime, NodeId)> = (0..n)
                .map(|i| {
                    let k = if rng.random_bool(0.5) {
                        0
                    } else {
                        rng.random_range(0..count)
                    };
                    (SimTime::from_micros(i as u64 / 4), probes[k])
                })
                .collect();
            let mut last = probes.clone();
            last.sort_by_key(|&p| std::cmp::Reverse(p));
            rows.extend(
                last.into_iter()
                    .map(|p| (SimTime::from_micros(n as u64 / 4), p)),
            );
            Capture { rows, probes }
        }

        /// Drains a tap over `probes` that saw the whole capture, under
        /// `budget`. Row `i` is a data request, a goodbye or a peer list
        /// of 0–3 addresses (arena spans of every length, empty included),
        /// inbound and outbound.
        fn drain(&self, probes: &[NodeId], budget: Option<u64>) -> TraceStore {
            let config = CaptureConfig {
                budget,
                aggregate_window: None,
            };
            let mut t =
                ProbeTap::with_config(probes.iter().copied(), tap().topology.clone(), config);
            for (i, &(at, probe)) in self.rows.iter().enumerate() {
                let n = i as u32;
                let remote = NodeId(100 + n % 7);
                match i % 3 {
                    0 => t.on_deliver(
                        at,
                        remote,
                        probe,
                        &Message::DataRequest {
                            channel: ChannelId(1),
                            seq: i as u64,
                            chunk: ChunkId(i as u64),
                            offset: 0,
                            count: 1,
                        },
                        64,
                    ),
                    1 => t.on_send(at, probe, remote, &Message::Goodbye, 46),
                    _ => t.on_deliver(
                        at,
                        remote,
                        probe,
                        &Message::PeerListResponse {
                            channel: ChannelId(1),
                            peers: (0..n % 4)
                                .map(|k| {
                                    PeerEntry::new(
                                        NodeId(k),
                                        Ipv4Addr::new(58, 0, k as u8, n as u8),
                                    )
                                })
                                .collect(),
                            req_id: i as u64,
                        },
                        80,
                    ),
                }
            }
            t.drain()
        }
    }

    /// Budgets: resident, every sealed page spilled, or spilling only past
    /// one and a half pages.
    fn budget(code: usize) -> Option<u64> {
        [None, Some(1), Some((PAGE_ROWS * 48 * 3 / 2) as u64)][code]
    }

    proptest! {
        /// Merging per-probe streams — resident and spilled mixed, some
        /// crossing page boundaries, some empty, under a budget on the
        /// output or not — sorts the rows by `(t, probe)` and keeps every
        /// probe's stream as it was. Merging taps over groups of the probes
        /// (a sharded world's shards) gives the same store, and so does one
        /// tap over them all (the monolithic world), down to its spill and
        /// resident figures under the same budget.
        #[test]
        fn merge_sorts_by_time_then_probe_and_keeps_every_stream(
            n in 0usize..20_000,
            count in 1usize..7,
            seed in any::<u64>(),
            budgets in collection::vec(0usize..3, 6..7),
            group_of in collection::vec(0usize..3, 6..7),
            group_budgets in collection::vec(0usize..3, 3..4),
            out_budget in prop_oneof![Just(None), (1u64..2 * 393_216).prop_map(Some)],
        ) {
            let capture = Capture::generate(n, count, seed);
            let probes = &capture.probes;
            let streams: Vec<TraceStore> = probes
                .iter()
                .zip(&budgets)
                .map(|(&p, &code)| capture.drain(&[p], budget(code)))
                .collect();
            let want: Vec<Vec<TraceRecord>> = streams.iter().map(TraceStore::to_records).collect();
            let merged = merge_traces(streams, out_budget);
            prop_assert_eq!(merged.len(), n + count);
            prop_assert_eq!(merged.budget(), out_budget);
            let keys: Vec<_> = merged.rows().map(|r| (r.t, r.probe)).collect();
            prop_assert!(keys.is_sorted(), "seed {seed}: not sorted by (t, probe)");
            for (probe, rows) in probes.iter().zip(&want) {
                prop_assert!(
                    merged.rows_for(*probe).eq(rows.iter().map(TraceRecord::as_ref)),
                    "seed {seed}: probe {probe:?}'s stream changed"
                );
            }
            let grouped = merge_traces(
                (0..3)
                    .map(|g| {
                        let members: Vec<NodeId> = probes
                            .iter()
                            .zip(&group_of)
                            .filter(|&(_, &k)| k == g)
                            .map(|(&p, _)| p)
                            .collect();
                        capture.drain(&members, budget(group_budgets[g]))
                    })
                    .collect::<Vec<_>>(),
                out_budget,
            );
            prop_assert!(grouped == merged, "seed {seed}: grouped merge differs");
            let monolithic = capture.drain(probes, out_budget);
            prop_assert!(monolithic == merged, "seed {seed}: one tap differs");
            let figures = |s: &TraceStore| (s.spilled_pages(), s.peak_resident_bytes());
            prop_assert_eq!(figures(&merged), figures(&monolithic));
            prop_assert_eq!(figures(&grouped), figures(&monolithic));
        }
    }

    #[test]
    fn merging_resident_parts_reuses_their_pages() {
        // Three resident parts, each past two pages (the first probe
        // captures about two thirds of the rows).
        let capture = Capture::generate(16 * PAGE_ROWS, 3, 7);
        let parts: Vec<TraceStore> = capture
            .probes
            .iter()
            .map(|&p| capture.drain(&[p], None))
            .collect();
        assert!(parts.iter().all(|p| p.len() > 2 * PAGE_ROWS));
        let theirs: std::collections::HashSet<_> =
            parts.iter().flat_map(TraceStore::page_buffers).collect();
        let merged = merge_traces(parts, None);
        assert_eq!(merged.len(), 16 * PAGE_ROWS + 3);
        let buffers = merged.page_buffers();
        assert_eq!(buffers.len(), merged.len().div_ceil(PAGE_ROWS));
        let fresh = buffers.iter().filter(|b| !theirs.contains(b)).count();
        assert!(
            fresh <= 3,
            "the merge allocated {fresh} pages beyond its 3 parts' own"
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
        assert_eq!(t.drain().len(), 0, "aggregate mode records no rows");
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
    fn drain_preserves_the_budget() {
        let config = CaptureConfig {
            budget: Some(1234),
            aggregate_window: None,
        };
        let t = ProbeTap::with_config([NodeId(0)], tap().topology.clone(), config);
        assert_eq!(t.drain().budget(), Some(1234));
        assert_eq!(t.drain().budget(), Some(1234), "fresh store keeps spilling");
    }
}
