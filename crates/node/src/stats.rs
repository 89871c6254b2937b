//! Per-peer quality-of-experience and traffic counters.

use parking_lot::Mutex;
use plsim_des::{DetHashMap, NodeId, SimTime};
use plsim_net::Isp;
use plsim_telemetry::{Counter, MetricsRegistry};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Counters one peer exports: playback quality and traffic volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerStats {
    /// The peer.
    pub node: NodeId,
    /// Its ISP.
    pub isp: Isp,
    /// When it joined.
    pub joined_at: SimTime,
    /// When playback started, if it did.
    pub playback_started: Option<SimTime>,
    /// Chunks played out.
    pub chunks_played: u64,
    /// Playback ticks with the due chunk missing.
    pub stalls: u64,
    /// Media bytes downloaded.
    pub bytes_down: u64,
    /// Media bytes uploaded to other peers.
    pub bytes_up: u64,
    /// Data requests issued.
    pub data_requests_sent: u64,
    /// Data replies received.
    pub data_replies_received: u64,
    /// Data rejects received.
    pub data_rejects_received: u64,
    /// Gossip (peer-list) requests issued.
    pub gossip_requests_sent: u64,
    /// Gossip responses received.
    pub gossip_responses_received: u64,
    /// Distinct peers that ever served this peer data.
    pub unique_data_peers: u64,
    /// Neighbors connected at the last flush.
    pub neighbors_now: u64,
    /// Whether the peer has left.
    pub departed: bool,
}

impl PeerStats {
    /// Creates zeroed counters for a peer.
    #[must_use]
    pub fn new(node: NodeId, isp: Isp, joined_at: SimTime) -> Self {
        PeerStats {
            node,
            isp,
            joined_at,
            playback_started: None,
            chunks_played: 0,
            stalls: 0,
            bytes_down: 0,
            bytes_up: 0,
            data_requests_sent: 0,
            data_replies_received: 0,
            data_rejects_received: 0,
            gossip_requests_sent: 0,
            gossip_responses_received: 0,
            unique_data_peers: 0,
            neighbors_now: 0,
            departed: false,
        }
    }

    /// Fraction of playback ticks that stalled (0 when playback never ran).
    ///
    /// Always finite and in `[0, 1]`, including for probes whose playback
    /// never starts under heavy faults.
    #[must_use]
    pub fn stall_ratio(&self) -> f64 {
        let total = self.chunks_played.saturating_add(self.stalls);
        if total == 0 {
            0.0
        } else {
            self.stalls as f64 / total as f64
        }
    }

    /// Time from join to first played chunk, or `None` if playback never
    /// started (e.g. the peer joined during an outage and starved).
    #[must_use]
    pub fn startup_delay(&self) -> Option<SimTime> {
        self.playback_started
            .map(|t| t.saturating_sub(self.joined_at))
    }
}

/// Fault-tolerant aggregate of a set of [`PeerStats`]: every field is well
/// defined (no NaN, no panic) even when some or all peers never started
/// playback — the normal situation under heavy fault plans.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlaybackSummary {
    /// Peers aggregated.
    pub peers: usize,
    /// Peers whose playback started.
    pub started: usize,
    /// Mean stall ratio over peers that started (`None` if none did).
    pub mean_stall_ratio: Option<f64>,
    /// Mean startup delay over peers that started (`None` if none did).
    pub mean_startup_delay: Option<SimTime>,
    /// Total chunks played across all peers.
    pub chunks_played: u64,
    /// Total stalled ticks across all peers.
    pub stalls: u64,
}

impl PlaybackSummary {
    /// Aggregates `stats`; safe on an empty slice and on peers that never
    /// started playback.
    #[must_use]
    pub fn summarize(stats: &[PeerStats]) -> Self {
        let started: Vec<&PeerStats> = stats
            .iter()
            .filter(|s| s.playback_started.is_some())
            .collect();
        let mean_stall_ratio = if started.is_empty() {
            None
        } else {
            Some(started.iter().map(|s| s.stall_ratio()).sum::<f64>() / started.len() as f64)
        };
        let mean_startup_delay = if started.is_empty() {
            None
        } else {
            let total: f64 = started
                .iter()
                .filter_map(|s| s.startup_delay())
                .map(|d| d.as_secs_f64())
                .sum();
            Some(SimTime::from_secs_f64(total / started.len() as f64))
        };
        PlaybackSummary {
            peers: stats.len(),
            started: started.len(),
            mean_stall_ratio,
            mean_startup_delay,
            chunks_played: stats
                .iter()
                .fold(0, |a, s| a.saturating_add(s.chunks_played)),
            stalls: stats.iter().fold(0, |a, s| a.saturating_add(s.stalls)),
        }
    }
}

/// Population-wide counter handles a peer bumps alongside its private
/// [`PeerStats`] ledger.
///
/// The two deliberately coexist: `PeerStats` stays the per-node record
/// analysis slices by peer and ISP, while these handles aggregate the
/// same events across *every* node of a run into the shared
/// [`MetricsRegistry`], giving the one-snapshot export path its
/// population totals without a post-hoc fold over the sink.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeMetrics {
    pub chunks_played: Counter,
    pub stalls: Counter,
    pub playback_starts: Counter,
    pub bytes_up: Counter,
    pub bytes_down: Counter,
    /// Media bytes downloaded from same-ISP peers (observer-only split of
    /// `bytes_down` for the transit-savings frontier).
    pub bytes_down_same_isp: Counter,
    /// Media bytes downloaded from cross-ISP peers — the transit traffic
    /// a locality policy tries to save.
    pub bytes_down_cross_isp: Counter,
    /// Candidates a selection policy refused at the connect gate.
    pub policy_rejections: Counter,
    pub data_requests_sent: Counter,
    pub data_replies_received: Counter,
    pub data_rejects_received: Counter,
    pub gossip_requests_sent: Counter,
    pub gossip_responses_received: Counter,
    pub departures: Counter,
}

impl NodeMetrics {
    /// Handles interned in `registry` under the `node.*` namespace.
    pub fn attached(registry: &MetricsRegistry) -> Self {
        NodeMetrics {
            chunks_played: registry.counter("node.chunks_played"),
            stalls: registry.counter("node.stalls"),
            playback_starts: registry.counter("node.playback_starts"),
            bytes_up: registry.counter("node.bytes_up"),
            bytes_down: registry.counter("node.bytes_down"),
            bytes_down_same_isp: registry.counter("node.bytes_down_same_isp"),
            bytes_down_cross_isp: registry.counter("node.bytes_down_cross_isp"),
            policy_rejections: registry.counter("node.policy_rejections"),
            data_requests_sent: registry.counter("node.data_requests_sent"),
            data_replies_received: registry.counter("node.data_replies_received"),
            data_rejects_received: registry.counter("node.data_rejects_received"),
            gossip_requests_sent: registry.counter("node.gossip_requests_sent"),
            gossip_responses_received: registry.counter("node.gossip_responses_received"),
            departures: registry.counter("node.departures"),
        }
    }
}

/// Shared sink peers flush their stats into; the harness keeps a handle.
#[derive(Debug, Clone, Default)]
pub struct StatsSink {
    inner: Arc<Mutex<DetHashMap<NodeId, PeerStats>>>,
}

impl StatsSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        StatsSink::default()
    }

    /// Inserts or replaces a peer's stats snapshot.
    pub fn publish(&self, stats: PeerStats) {
        self.inner.lock().insert(stats.node, stats);
    }

    /// Copies out all stats, sorted by node id.
    #[must_use]
    pub fn collect(&self) -> Vec<PeerStats> {
        let mut all: Vec<PeerStats> = self.inner.lock().values().copied().collect();
        all.sort_by_key(|s| s.node);
        all
    }

    /// Stats of one peer, if it ever flushed.
    #[must_use]
    pub fn get(&self, node: NodeId) -> Option<PeerStats> {
        self.inner.lock().get(&node).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_and_collect_round_trip() {
        let sink = StatsSink::new();
        let mut s = PeerStats::new(NodeId(3), Isp::Tele, SimTime::ZERO);
        s.chunks_played = 10;
        sink.publish(s);
        s.chunks_played = 20;
        sink.publish(s);
        let all = sink.collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].chunks_played, 20);
        assert_eq!(sink.get(NodeId(3)).unwrap().chunks_played, 20);
        assert_eq!(sink.get(NodeId(4)), None);
    }

    #[test]
    fn stall_ratio_is_safe_and_correct() {
        let mut s = PeerStats::new(NodeId(0), Isp::Cnc, SimTime::ZERO);
        assert_eq!(s.stall_ratio(), 0.0);
        s.chunks_played = 90;
        s.stalls = 10;
        assert!((s.stall_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn stall_ratio_survives_counter_extremes() {
        // Saturating totals: ratio stays finite and within [0, 1] even for
        // absurd counter values (regression for a debug-mode overflow).
        let mut s = PeerStats::new(NodeId(0), Isp::Cnc, SimTime::ZERO);
        s.chunks_played = u64::MAX;
        s.stalls = u64::MAX;
        let r = s.stall_ratio();
        assert!(r.is_finite());
        assert!((0.0..=1.0).contains(&r));

        // All stalls, no plays: exactly 1.
        let mut s = PeerStats::new(NodeId(1), Isp::Cnc, SimTime::ZERO);
        s.stalls = 40;
        assert_eq!(s.stall_ratio(), 1.0);
    }

    #[test]
    fn startup_delay_is_none_until_playback_starts() {
        let mut s = PeerStats::new(NodeId(0), Isp::Tele, SimTime::from_secs(30));
        assert_eq!(s.startup_delay(), None);
        s.playback_started = Some(SimTime::from_secs(42));
        assert_eq!(s.startup_delay(), Some(SimTime::from_secs(12)));
        // A playback_started stamp before join (clock quirks under rejoin)
        // saturates to zero instead of wrapping.
        s.playback_started = Some(SimTime::from_secs(10));
        assert_eq!(s.startup_delay(), Some(SimTime::ZERO));
    }

    #[test]
    fn summary_is_safe_when_no_peer_ever_plays() {
        // Empty input.
        let empty = PlaybackSummary::summarize(&[]);
        assert_eq!(empty.peers, 0);
        assert_eq!(empty.started, 0);
        assert_eq!(empty.mean_stall_ratio, None);
        assert_eq!(empty.mean_startup_delay, None);

        // Peers that joined but never started playback (heavy faults).
        let starved: Vec<PeerStats> = (0..3)
            .map(|i| PeerStats::new(NodeId(i), Isp::Tele, SimTime::from_secs(5)))
            .collect();
        let sum = PlaybackSummary::summarize(&starved);
        assert_eq!(sum.peers, 3);
        assert_eq!(sum.started, 0);
        assert_eq!(sum.mean_stall_ratio, None);
        assert_eq!(sum.mean_startup_delay, None);
        assert_eq!(sum.chunks_played, 0);
    }

    #[test]
    fn summary_averages_only_started_peers() {
        let mut a = PeerStats::new(NodeId(0), Isp::Tele, SimTime::from_secs(10));
        a.playback_started = Some(SimTime::from_secs(20));
        a.chunks_played = 90;
        a.stalls = 10;
        let b = PeerStats::new(NodeId(1), Isp::Cnc, SimTime::from_secs(10)); // never started
        let sum = PlaybackSummary::summarize(&[a, b]);
        assert_eq!(sum.peers, 2);
        assert_eq!(sum.started, 1);
        assert!((sum.mean_stall_ratio.unwrap() - 0.1).abs() < 1e-12);
        assert_eq!(sum.mean_startup_delay, Some(SimTime::from_secs(10)));
        assert_eq!(sum.chunks_played, 90);
        assert_eq!(sum.stalls, 10);
    }

    #[test]
    fn collect_is_sorted_by_node() {
        let sink = StatsSink::new();
        for id in [5u32, 1, 9, 3] {
            sink.publish(PeerStats::new(NodeId(id), Isp::Tele, SimTime::ZERO));
        }
        let ids: Vec<u32> = sink.collect().iter().map(|s| s.node.0).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
    }
}
