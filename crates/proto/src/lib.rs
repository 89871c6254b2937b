//! # plsim-proto — PPLive protocol wire types
//!
//! The message vocabulary of the reverse-engineered PPLive 1.9 protocol as
//! described in §2 of the paper:
//!
//! * bootstrap: channel-list retrieval and per-channel join (playlink +
//!   tracker addresses);
//! * tracker interaction: peer-list queries and periodic announces;
//! * peer gossip: 20-second [`Message::PeerListRequest`] rounds that *enclose
//!   the sender's own peer list* and are answered with the neighbor's
//!   recently-connected peers (≤ 60 entries, [`PeerList::MAX_LEN`]);
//! * data exchange: chunked video divided into 1380-byte sub-pieces
//!   ([`SUB_PIECE_BYTES`]), pulled with sequence-numbered requests so that
//!   request/reply pairs can be matched offline exactly as the authors
//!   matched them in their packet traces.
//!
//! Self-addressed [`Message::Timer`] events drive node-internal clocks (the
//! gossip round, the chunk scheduler, playback).
//!
//! # Examples
//!
//! ```
//! use plsim_proto::{Message, PeerEntry, PeerList};
//! use plsim_des::NodeId;
//! use std::net::Ipv4Addr;
//!
//! let mut list = PeerList::new();
//! assert!(list.push(PeerEntry::new(NodeId(7), Ipv4Addr::new(58, 0, 0, 1))));
//! // Duplicates are rejected.
//! assert!(!list.push(PeerEntry::new(NodeId(7), Ipv4Addr::new(58, 0, 0, 1))));
//! let msg = Message::TrackerQuery { channel: plsim_proto::ChannelId(3) };
//! assert!(msg.wire_size() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod shared;
mod wire;

pub use shared::{PeerListArena, SharedPeerList};
pub use wire::WireMessage;

use plsim_des::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// Size of a regular sub-piece in bytes (the paper: "sub-pieces of 1380 or
/// 690 bytes each").
pub const SUB_PIECE_BYTES: u32 = 1380;

/// Size of the small sub-piece variant in bytes.
pub const SMALL_SUB_PIECE_BYTES: u32 = 690;

/// Approximate UDP/IP + application framing overhead per message, in bytes.
pub const HEADER_BYTES: u32 = 46;

/// Bytes each peer-list entry occupies on the wire (IPv4 + port).
pub const PEER_ENTRY_BYTES: u32 = 6;

/// Identifier of a live-streaming channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChannelId(pub u16);

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Index of a media chunk within a channel's stream (one chunk per second of
/// media in this reproduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChunkId(pub u64);

impl ChunkId {
    /// The next chunk in stream order.
    #[must_use]
    pub const fn next(self) -> ChunkId {
        ChunkId(self.0 + 1)
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One advertised peer: the simulation routing id plus the public address
/// that appears in captures (and is what the analysis maps to an ISP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PeerEntry {
    /// Simulator routing identity.
    pub node: NodeId,
    /// Public IPv4 address.
    pub ip: Ipv4Addr,
}

impl PeerEntry {
    /// Creates an entry.
    #[must_use]
    pub fn new(node: NodeId, ip: Ipv4Addr) -> Self {
        PeerEntry { node, ip }
    }
}

/// A peer list as carried by tracker responses and gossip replies.
///
/// Invariants (enforced by construction and checked by property tests):
/// at most [`PeerList::MAX_LEN`] entries, no duplicate nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerList {
    entries: Vec<PeerEntry>,
}

impl PeerList {
    /// "A peer list usually contains no more than 60 IP addresses of peers."
    pub const MAX_LEN: usize = 60;

    /// Creates an empty list.
    #[must_use]
    pub fn new() -> Self {
        PeerList::default()
    }

    /// Builds a list from candidates, keeping the first `MAX_LEN` unique
    /// entries.
    pub fn from_candidates<I: IntoIterator<Item = PeerEntry>>(candidates: I) -> Self {
        let mut list = PeerList::new();
        for entry in candidates {
            if list.is_full() {
                break;
            }
            list.push(entry);
        }
        list
    }

    /// Appends an entry unless the list is full or already contains the
    /// node. Returns whether the entry was added.
    pub fn push(&mut self, entry: PeerEntry) -> bool {
        if self.is_full() || self.contains(entry.node) {
            return false;
        }
        self.entries.push(entry);
        true
    }

    /// Whether the list holds `node`.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.iter().any(|e| e.node == node)
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the list is at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= Self::MAX_LEN
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, PeerEntry> {
        self.entries.iter()
    }

    /// The entries as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[PeerEntry] {
        &self.entries
    }
}

impl<'a> IntoIterator for &'a PeerList {
    type Item = &'a PeerEntry;
    type IntoIter = std::slice::Iter<'a, PeerEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl FromIterator<PeerEntry> for PeerList {
    /// Collects candidates, silently truncating to [`PeerList::MAX_LEN`]
    /// unique entries like [`PeerList::from_candidates`].
    fn from_iter<I: IntoIterator<Item = PeerEntry>>(iter: I) -> Self {
        PeerList::from_candidates(iter)
    }
}

/// Node-internal timer kinds (never cross the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimerKind {
    /// The node comes online and starts its bootstrap sequence.
    Join,
    /// Retry of an unanswered bootstrap request (e.g. the bootstrap server
    /// was down); only acted on while the node is online but not started.
    JoinRetry,
    /// The node departs (churn).
    Leave,
    /// 20-second neighbor peer-list gossip round.
    GossipRound,
    /// 5-minute tracker re-query round.
    TrackerRound,
    /// Periodic announce (keepalive) to trackers.
    AnnounceRound,
    /// Chunk-request scheduling tick.
    Scheduler,
    /// Playback advance tick.
    Playback,
    /// Stream source produces the next chunk.
    ProduceChunk,
    /// Neighbor-table maintenance (timeouts, slot replacement).
    Maintenance,
}

/// Every payload the simulation can carry: protocol messages plus timers.
///
/// `L` is the peer-list payload. In the simulation it is a
/// [`SharedPeerList`], so cloning a message on the hot path bumps an arena
/// refcount instead of deep-copying a `Vec<PeerEntry>`; the DES kernel's
/// event pool recycles the slots that carry these payloads, making the
/// steady-state send/receive loop allocation-free. Between shards it is an
/// owned [`PeerList`] ([`WireMessage`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message<L = SharedPeerList> {
    /// Client → bootstrap: request the active channel list.
    BootstrapRequest,
    /// Bootstrap → client: the active channels.
    BootstrapResponse {
        /// Channels currently on air.
        channels: Vec<ChannelId>,
    },
    /// Client → bootstrap: request playlink + trackers for one channel.
    JoinRequest {
        /// The chosen channel.
        channel: ChannelId,
    },
    /// Bootstrap → client: tracker set for the channel (one tracker per
    /// deployed tracker group).
    JoinResponse {
        /// The channel being joined.
        channel: ChannelId,
        /// One tracker address per group.
        trackers: Vec<PeerEntry>,
    },
    /// Client → tracker: request an active peer list.
    TrackerQuery {
        /// Channel of interest.
        channel: ChannelId,
    },
    /// Client → tracker: request a peer list with an ISP-locality hint
    /// (the "Deep Diving" managed-locality protocol extension). The
    /// tracker fills up to `want_same_isp` slots with members from the
    /// requester's ISP before falling back to the whole pool.
    TrackerQueryBiased {
        /// Channel of interest.
        channel: ChannelId,
        /// How many same-ISP entries the client asks for.
        want_same_isp: u16,
    },
    /// Tracker → client: random sample of active peers.
    TrackerResponse {
        /// Channel of interest.
        channel: ChannelId,
        /// Up to 60 active peers.
        peers: L,
    },
    /// Client → tracker: periodic membership announce.
    Announce {
        /// Channel the client is watching.
        channel: ChannelId,
    },
    /// Client → peer: open a neighbor relationship.
    Handshake {
        /// Channel the client is watching.
        channel: ChannelId,
    },
    /// Peer → client: accept or refuse the handshake.
    HandshakeAck {
        /// Channel in question.
        channel: ChannelId,
        /// Whether the peer accepted (it may be at its neighbor cap).
        accepted: bool,
    },
    /// Client → neighbor: gossip round; "sending the peer list maintained by
    /// itself" (§2), answered with the neighbor's list.
    PeerListRequest {
        /// Channel in question.
        channel: ChannelId,
        /// The requester's own current peer list, enclosed per protocol.
        my_peers: L,
        /// Correlates the eventual response.
        req_id: u64,
    },
    /// Neighbor → client: the neighbor's recently-connected peers.
    PeerListResponse {
        /// Channel in question.
        channel: ChannelId,
        /// The neighbor's peer list (≤ 60 entries).
        peers: L,
        /// Echo of the request id.
        req_id: u64,
    },
    /// Client → neighbor: pull `count` sub-pieces of `chunk` starting at
    /// sub-piece `offset`.
    DataRequest {
        /// Channel in question.
        channel: ChannelId,
        /// Requested chunk.
        chunk: ChunkId,
        /// First sub-piece index.
        offset: u16,
        /// Number of sub-pieces requested.
        count: u16,
        /// Requester-unique sequence number for req/reply matching.
        seq: u64,
    },
    /// Neighbor → client: the requested sub-pieces.
    DataReply {
        /// Chunk delivered.
        chunk: ChunkId,
        /// First sub-piece index.
        offset: u16,
        /// Number of sub-pieces delivered.
        count: u16,
        /// Echo of the request sequence number.
        seq: u64,
    },
    /// Neighbor → client: the request is refused — either the neighbor
    /// does not hold the data (`busy == false`) or its upload queue is
    /// saturated (`busy == true`).
    DataReject {
        /// Chunk that was requested.
        chunk: ChunkId,
        /// Echo of the request sequence number.
        seq: u64,
        /// True when the refusal is due to overload, not missing data.
        busy: bool,
    },
    /// Client → neighbor/tracker: graceful departure.
    Goodbye,
    /// Self-scheduled node-internal timer.
    Timer(TimerKind),
}

impl Message {
    /// Approximate on-the-wire size in bytes, used by the medium for
    /// serialization delay and by the capture layer for byte accounting.
    #[must_use]
    pub fn wire_size(&self) -> u32 {
        match self {
            Message::BootstrapRequest | Message::JoinRequest { .. } => HEADER_BYTES,
            Message::BootstrapResponse { channels } => HEADER_BYTES + 2 * channels.len() as u32,
            Message::JoinResponse { trackers, .. } => {
                HEADER_BYTES + PEER_ENTRY_BYTES * trackers.len() as u32
            }
            Message::TrackerQuery { .. } | Message::Announce { .. } => HEADER_BYTES,
            Message::TrackerQueryBiased { .. } => HEADER_BYTES + 2,
            Message::TrackerResponse { peers, .. } | Message::PeerListResponse { peers, .. } => {
                HEADER_BYTES + PEER_ENTRY_BYTES * peers.len() as u32
            }
            Message::PeerListRequest { my_peers, .. } => {
                HEADER_BYTES + PEER_ENTRY_BYTES * my_peers.len() as u32
            }
            Message::Handshake { .. } | Message::HandshakeAck { .. } => HEADER_BYTES,
            Message::DataRequest { .. } => HEADER_BYTES + 16,
            Message::DataReply { count, .. } => {
                HEADER_BYTES + 12 + u32::from(*count) * SUB_PIECE_BYTES
            }
            Message::DataReject { .. } => HEADER_BYTES + 12,
            Message::Goodbye => HEADER_BYTES,
            Message::Timer(_) => 0,
        }
    }

    /// Number of media payload bytes this message carries (only data replies
    /// carry any).
    #[must_use]
    pub fn payload_bytes(&self) -> u32 {
        match self {
            Message::DataReply { count, .. } => u32::from(*count) * SUB_PIECE_BYTES,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: u32) -> PeerEntry {
        PeerEntry::new(NodeId(n), Ipv4Addr::new(58, 0, 0, (n % 250) as u8 + 1))
    }

    #[test]
    fn peer_list_caps_at_sixty() {
        let list: PeerList = (0..200).map(entry).collect();
        assert_eq!(list.len(), PeerList::MAX_LEN);
        assert!(list.is_full());
    }

    #[test]
    fn peer_list_rejects_duplicates() {
        let mut list = PeerList::new();
        assert!(list.push(entry(1)));
        assert!(!list.push(entry(1)));
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn from_candidates_dedupes() {
        let list = PeerList::from_candidates([entry(1), entry(2), entry(1), entry(3)]);
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn data_reply_wire_size_scales_with_subpieces() {
        let small = Message::DataReply {
            chunk: ChunkId(0),
            offset: 0,
            count: 1,
            seq: 0,
        };
        let large = Message::DataReply {
            chunk: ChunkId(0),
            offset: 0,
            count: 7,
            seq: 0,
        };
        assert_eq!(large.wire_size() - small.wire_size(), 6 * SUB_PIECE_BYTES);
        assert_eq!(large.payload_bytes(), 7 * SUB_PIECE_BYTES);
    }

    #[test]
    fn timers_have_no_wire_size() {
        assert_eq!(Message::Timer(TimerKind::GossipRound).wire_size(), 0);
    }

    #[test]
    fn biased_tracker_query_carries_its_hint_bytes() {
        let plain = Message::TrackerQuery {
            channel: ChannelId(1),
        };
        let biased = Message::TrackerQueryBiased {
            channel: ChannelId(1),
            want_same_isp: 60,
        };
        assert_eq!(biased.wire_size(), plain.wire_size() + 2);
        assert_eq!(biased.payload_bytes(), 0);
    }

    #[test]
    fn gossip_request_carries_own_list_size() {
        let my_peers: SharedPeerList = (0..10).map(entry).collect();
        let msg = Message::PeerListRequest {
            channel: ChannelId(1),
            my_peers,
            req_id: 9,
        };
        assert_eq!(msg.wire_size(), HEADER_BYTES + 10 * PEER_ENTRY_BYTES);
    }

    #[test]
    fn chunk_id_next_increments() {
        assert_eq!(ChunkId(41).next(), ChunkId(42));
    }
}
