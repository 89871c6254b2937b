//! The `Send` form of [`Message`] for crossing shard boundaries.
//!
//! [`Message`] itself is deliberately `!Send`: its peer-list payloads are
//! [`SharedPeerList`]s backed by a thread-local [`PeerListArena`] (an `Rc`
//! refcount bump per clone on the hot path). A sharded world, however, must
//! hand messages between threads. [`WireMessage`] is the same enum with the
//! peer lists flattened to owned [`PeerList`]s — exactly the bytes the
//! message carries on the simulated wire — and re-interned into the
//! *receiving* shard's arena on ingest. Because [`SharedPeerList`]'s
//! equality is representation-independent and interning preserves (≤ 60,
//! deduped) list contents, a message that round-trips through its wire form
//! is indistinguishable from one delivered locally.
//!
//! [`SharedPeerList`]: crate::SharedPeerList

use crate::{Message, PeerList, PeerListArena};

/// [`Message`] with every peer list an owned [`PeerList`], so the value is
/// `Send`. See the module docs.
pub type WireMessage = Message<PeerList>;

impl<L> Message<L> {
    /// The same message with every peer list passed through `f`; every
    /// other field moves across unchanged.
    #[must_use]
    pub fn map_lists<M>(self, mut f: impl FnMut(L) -> M) -> Message<M> {
        match self {
            Message::BootstrapRequest => Message::BootstrapRequest,
            Message::BootstrapResponse { channels } => Message::BootstrapResponse { channels },
            Message::JoinRequest { channel } => Message::JoinRequest { channel },
            Message::JoinResponse { channel, trackers } => {
                Message::JoinResponse { channel, trackers }
            }
            Message::TrackerQuery { channel } => Message::TrackerQuery { channel },
            Message::TrackerQueryBiased {
                channel,
                want_same_isp,
            } => Message::TrackerQueryBiased {
                channel,
                want_same_isp,
            },
            Message::TrackerResponse { channel, peers } => Message::TrackerResponse {
                channel,
                peers: f(peers),
            },
            Message::Announce { channel } => Message::Announce { channel },
            Message::Handshake { channel } => Message::Handshake { channel },
            Message::HandshakeAck { channel, accepted } => {
                Message::HandshakeAck { channel, accepted }
            }
            Message::PeerListRequest {
                channel,
                my_peers,
                req_id,
            } => Message::PeerListRequest {
                channel,
                my_peers: f(my_peers),
                req_id,
            },
            Message::PeerListResponse {
                channel,
                peers,
                req_id,
            } => Message::PeerListResponse {
                channel,
                peers: f(peers),
                req_id,
            },
            Message::DataRequest {
                channel,
                chunk,
                offset,
                count,
                seq,
            } => Message::DataRequest {
                channel,
                chunk,
                offset,
                count,
                seq,
            },
            Message::DataReply {
                chunk,
                offset,
                count,
                seq,
            } => Message::DataReply {
                chunk,
                offset,
                count,
                seq,
            },
            Message::DataReject { chunk, seq, busy } => Message::DataReject { chunk, seq, busy },
            Message::Goodbye => Message::Goodbye,
            Message::Timer(kind) => Message::Timer(kind),
        }
    }
}

impl Message {
    /// Flattens this message into its `Send` wire form (arena-backed peer
    /// lists become owned [`PeerList`]s).
    #[must_use]
    pub fn into_wire(self) -> WireMessage {
        self.map_lists(|list| list.to_list())
    }
}

impl WireMessage {
    /// Rebuilds the in-simulation [`Message`], interning peer lists into the
    /// receiving shard's `arena`.
    #[must_use]
    pub fn into_message(self, arena: &PeerListArena) -> Message {
        self.map_lists(|list| arena.intern(list.iter().copied()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChannelId, ChunkId, PeerEntry, TimerKind};
    use plsim_des::NodeId;
    use std::net::Ipv4Addr;

    fn entry(n: u32) -> PeerEntry {
        PeerEntry::new(NodeId(n), Ipv4Addr::new(58, 0, 0, (n % 250) as u8 + 1))
    }

    fn assert_send<T: Send>() {}

    #[test]
    fn wire_form_is_send() {
        assert_send::<WireMessage>();
    }

    /// The instance that follows `msg` in [`one_of_each`]. The match is
    /// exhaustive, so a new variant does not compile until it has an arm
    /// here; the arm before it in the list must return it.
    fn next_instance(msg: &Message, arena: &PeerListArena) -> Option<Message> {
        let channel = ChannelId(2);
        Some(match msg {
            Message::BootstrapRequest => Message::BootstrapResponse {
                channels: vec![ChannelId(1), ChannelId(4)],
            },
            Message::BootstrapResponse { .. } => Message::JoinRequest { channel },
            Message::JoinRequest { .. } => Message::JoinResponse {
                channel,
                trackers: vec![entry(900), entry(901)],
            },
            Message::JoinResponse { .. } => Message::TrackerQuery { channel },
            Message::TrackerQuery { .. } => Message::TrackerQueryBiased {
                channel,
                want_same_isp: 60,
            },
            Message::TrackerQueryBiased { .. } => Message::TrackerResponse {
                channel,
                peers: arena.intern((0..25).map(entry)),
            },
            Message::TrackerResponse { .. } => Message::Announce { channel },
            Message::Announce { .. } => Message::Handshake { channel },
            Message::Handshake { .. } => Message::HandshakeAck {
                channel,
                accepted: true,
            },
            Message::HandshakeAck { .. } => Message::PeerListRequest {
                channel,
                my_peers: arena.intern((0..60).map(entry)),
                req_id: 7,
            },
            Message::PeerListRequest { .. } => Message::PeerListResponse {
                channel,
                peers: arena.intern((30..40).rev().map(entry)),
                req_id: 7,
            },
            Message::PeerListResponse { .. } => Message::DataRequest {
                channel,
                chunk: ChunkId(9),
                offset: 3,
                count: 7,
                seq: 41,
            },
            Message::DataRequest { .. } => Message::DataReply {
                chunk: ChunkId(9),
                offset: 3,
                count: 7,
                seq: 41,
            },
            Message::DataReply { .. } => Message::DataReject {
                chunk: ChunkId(9),
                seq: 42,
                busy: true,
            },
            Message::DataReject { .. } => Message::Goodbye,
            Message::Goodbye => Message::Timer(TimerKind::GossipRound),
            Message::Timer(_) => return None,
        })
    }

    /// One instance of every [`Message`] variant, peer lists interned in
    /// `arena`.
    fn one_of_each(arena: &PeerListArena) -> Vec<Message> {
        std::iter::successors(Some(Message::BootstrapRequest), |m| next_instance(m, arena))
            .collect()
    }

    #[test]
    fn every_variant_round_trips_unchanged() {
        let sender_arena = PeerListArena::new();
        let receiver_arena = PeerListArena::new();
        let all = one_of_each(&sender_arena);
        let variants: std::collections::HashSet<_> =
            all.iter().map(std::mem::discriminant).collect();
        assert_eq!(variants.len(), all.len(), "a variant is listed twice");
        for msg in all {
            let size = msg.wire_size();
            let back = msg.clone().into_wire().into_message(&receiver_arena);
            assert_eq!(back, msg);
            assert_eq!(back.wire_size(), size, "{msg:?}");
        }
        // Every list was re-interned on the receiving side and is gone
        // with the messages.
        assert_eq!(receiver_arena.live_blocks(), 0);
    }
}
