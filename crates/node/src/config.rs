//! Peer behaviour configuration: the four settings experiments vary
//! ([`PeerConfig`]), and the PPLive protocol constants every peer shares.
//!
//! The constants are the ones reverse-engineered in §2 of the paper
//! (20-second gossip, 5-minute tracker fallback, ≤60-entry lists,
//! 1380-byte sub-pieces) plus the client's scheduling and buffering
//! parameters, which no experiment varies.

use plsim_des::SimTime;
use serde::{Deserialize, Serialize};

/// Gossip round period ("once every 20 seconds").
pub const GOSSIP_INTERVAL: SimTime = SimTime::from_secs(20);
/// Neighbors asked per gossip round.
pub const GOSSIP_FANOUT: usize = 10;
/// Chunk-scheduler tick.
pub const SCHEDULER_INTERVAL: SimTime = SimTime::from_millis(250);
/// Maintenance (timeout/eviction/stats-flush) tick.
pub const MAINTENANCE_INTERVAL: SimTime = SimTime::from_secs(5);
/// Data / gossip request timeout.
pub const REQUEST_TIMEOUT: SimTime = SimTime::from_millis(2500);
/// Handshake timeout.
pub const HANDSHAKE_TIMEOUT: SimTime = SimTime::from_secs(4);
/// Maximum data requests a viewer keeps in flight in total.
pub const MAX_OUTSTANDING: usize = 24;
/// Maximum data requests a viewer keeps in flight per neighbor.
pub const PER_NEIGHBOR_OUTSTANDING: u32 = 8;
/// Candidates contacted per received peer list.
pub const CONNECT_BURST: usize = 5;
/// Upper bound on the remembered-candidate pool.
pub const CANDIDATE_POOL: usize = 300;
/// Neighbor slots a viewer actively fills; the source fills three times
/// as many.
pub const MAX_NEIGHBORS: usize = 18;
/// Inbound connections a viewer accepts beyond [`MAX_NEIGHBORS`]; the
/// source accepts three times as many.
pub const ACCEPT_SLACK: usize = 14;

/// Sub-pieces per chunk (one chunk per second of video: 30 × 1380 B ≈
/// 331 kbit/s).
pub const CHUNK_SUBPIECES: u16 = 30;
/// Bitmask with one bit per sub-piece of a full chunk (a chunk of 64 or
/// more sub-pieces fails to compile here).
pub const FULL_MASK: u64 = (1 << CHUNK_SUBPIECES) - 1;
/// Sub-pieces requested per data request.
pub const BATCH_SUBPIECES: u16 = 7;
/// Chunks the source keeps available behind the live edge.
pub const LIVE_WINDOW: u64 = 240;
/// How many chunks ahead of the playhead a viewer tries to buffer.
pub const BUFFER_TARGET: u64 = 12;
/// Minimum complete chunks needed before playback starts.
pub const STARTUP_CHUNKS: u64 = 4;
/// Extra startup buffering sampled per viewer in `0..=STARTUP_JITTER`
/// chunks. Viewers therefore play at different lags behind the live edge
/// and hold different stream windows — the content-availability diversity
/// that makes same-ISP supply scarce in small channels.
pub const STARTUP_JITTER: u64 = 26;
/// Chunks a viewer keeps behind its playhead for serving others.
pub const SERVE_WINDOW: u64 = 45;

/// How a peer turns candidate lists into connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnectPolicy {
    /// PPLive behaviour: "it randomly selects a number of peers from the
    /// list and connects to them immediately" — so whoever's list arrives
    /// first wins the race for neighbor slots, which (lists being mostly
    /// same-ISP and arriving fastest from nearby peers) is the engine of
    /// emergent locality.
    Immediate,
    /// Ablation: collect candidates and connect to a random batch on a slow
    /// fixed cadence, removing the latency race.
    DelayedRandom,
}

/// How a peer picks the neighbor to ask for the next piece of data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataSelection {
    /// Prefer neighbors with fast, reliable past responses (PPLive's
    /// latency-based strategy).
    LatencyWeighted,
    /// Uniform random among eligible neighbors (baseline).
    Uniform,
}

/// The peer behaviour the ablations vary; everything else is a protocol
/// constant of this module.
///
/// Defaults reproduce the PPLive client: neighbor referral, immediate
/// connection on list receipt and latency-weighted data scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeerConfig {
    /// Exponent applied to the response-time term of the scheduling weight
    /// (`weight = reliability / resp^latency_bias`); larger values chase
    /// fast neighbors harder. Ignored under [`DataSelection::Uniform`].
    ///
    /// A field rather than a constant on purpose: with the exponent known
    /// at compile time the optimizer folds `powf(x, -1.0)` into `1.0 / x`,
    /// which differs in the last bit for some `x` and so would move
    /// neighbor weights and the random picks made from them.
    pub latency_bias: f64,
    /// Whether the peer gossips with neighbors (true = PPLive referral;
    /// false = tracker-only BitTorrent-style baseline, which also polls
    /// its trackers faster).
    pub referral: bool,
    /// Connection policy (see [`ConnectPolicy`]).
    pub connect_policy: ConnectPolicy,
    /// Data-scheduling policy (see [`DataSelection`]).
    pub data_selection: DataSelection,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            latency_bias: 1.0,
            referral: true,
            connect_policy: ConnectPolicy::Immediate,
            data_selection: DataSelection::LatencyWeighted,
        }
    }
}

impl PeerConfig {
    /// The BitTorrent-style baseline of the paper's discussion: no neighbor
    /// referral (tracker is the only peer source, polled on a fixed cadence)
    /// and no latency bias anywhere.
    #[must_use]
    pub fn tracker_only_baseline() -> Self {
        PeerConfig {
            referral: false,
            connect_policy: ConnectPolicy::DelayedRandom,
            data_selection: DataSelection::Uniform,
            ..PeerConfig::default()
        }
    }

    /// Tracker query period while playback is not yet satisfactory: 40 s,
    /// or 30 s for a peer whose tracker is its only peer source.
    pub(crate) fn tracker_interval_hungry(&self) -> SimTime {
        SimTime::from_secs(if self.referral { 40 } else { 30 })
    }

    /// Tracker query period once satisfied ("once every five minutes"), or
    /// 60 s for a peer whose tracker is its only peer source.
    pub(crate) fn tracker_interval_satisfied(&self) -> SimTime {
        SimTime::from_secs(if self.referral { 300 } else { 60 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let cfg = PeerConfig::default();
        assert_eq!(GOSSIP_INTERVAL, SimTime::from_secs(20));
        assert_eq!(cfg.tracker_interval_satisfied(), SimTime::from_secs(300));
        assert!(cfg.referral);
        assert_eq!(cfg.connect_policy, ConnectPolicy::Immediate);
    }

    #[test]
    fn full_mask_has_one_bit_per_subpiece() {
        assert_eq!(FULL_MASK.count_ones(), u32::from(CHUNK_SUBPIECES));
        assert_eq!(FULL_MASK.trailing_ones(), u32::from(CHUNK_SUBPIECES));
    }

    #[test]
    fn baseline_disables_referral_and_bias() {
        let cfg = PeerConfig::tracker_only_baseline();
        assert!(!cfg.referral);
        assert_eq!(cfg.data_selection, DataSelection::Uniform);
        assert_eq!(cfg.connect_policy, ConnectPolicy::DelayedRandom);
        assert_eq!(cfg.tracker_interval_hungry(), SimTime::from_secs(30));
        assert_eq!(cfg.tracker_interval_satisfied(), SimTime::from_secs(60));
    }
}
