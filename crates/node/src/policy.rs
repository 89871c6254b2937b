//! Neighbor-selection policies: the locality laboratory.
//!
//! The paper's deployed system selects neighbors with a topology-blind
//! gossip race and lets locality *emerge* from timing. The follow-on
//! literature ("Pushing BitTorrent Locality to the Limit", "Deep Diving
//! into BitTorrent Locality") instead *engineers* locality and charts the
//! transit-savings vs quality-of-experience frontier. [`PolicySpec`] names
//! each regime, and its hooks ([`admits`](PolicySpec::admits),
//! [`wants_isp_hint`](PolicySpec::wants_isp_hint),
//! [`adapt_config`](PolicySpec::adapt_config)) are what a peer runs, so
//! both regimes — and the frontier between them — run in one simulator.
//!
//! Determinism contract: every hook is a **pure function** of its inputs —
//! no RNG, no interior state, no clocks. Policies therefore never perturb
//! the per-actor random streams, which keeps every policy bit-identical
//! across sequential, `JobPool` and sharded execution, and keeps the
//! default [`PolicySpec::GossipRace`] bit-identical to the pre-policy code
//! path (it admits everyone and changes nothing).

use crate::config::PeerConfig;
use plsim_des::SimTime;
use serde::{Deserialize, Serialize};

/// Below this many connected neighbors an admission-gating policy accepts
/// anyone: a starving peer must not refuse the only partners it can find.
const STARVATION_FLOOR: usize = 4;

/// A neighbor-selection policy: serializable and copyable, so the same
/// value travels through [`crate::WorldConfig`], across shard threads and
/// into every peer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// The paper's deployed behaviour: topology-blind gossip race. The
    /// golden baseline — bit-identical to the pre-policy simulator.
    #[default]
    GossipRace,
    /// Referral disabled: peers learn neighbors only from trackers, with
    /// delayed-random connects and uniform chunk scheduling (the classic
    /// tracker-driven swarm the paper contrasts against).
    TrackerOnly,
    /// Engineered locality: at most `cross_isp_quota` connected neighbors
    /// outside the peer's own ISP ("Pushing BitTorrent Locality to the
    /// Limit"). Same-ISP candidates are always admitted. The quota counts
    /// *connected* neighbors, so a candidate learned from both a tracker
    /// reply and a gossip payload consumes one slot, not two. `usize::MAX`
    /// disables the gate — behaviourally identical to
    /// [`PolicySpec::GossipRace`], the frontier's no-bias anchor.
    BiasedLocality {
        /// Maximum simultaneous cross-ISP neighbors per peer.
        cross_isp_quota: usize,
    },
    /// Delay-based locality: refuse neighbors whose base RTT exceeds
    /// `cutoff`, unless the peer is starving (below four neighbors it takes
    /// what it can get — a viewer with an empty table must not refuse
    /// bootstrap help). A decentralized proxy for ISP boundaries that needs
    /// no oracle.
    RttThreshold {
        /// Maximum acceptable base RTT to a new neighbor.
        cutoff: SimTime,
    },
    /// ISP-managed locality ("Deep Diving into BitTorrent Locality"): the
    /// tracker — which the ISP operates or fronts — serves same-ISP
    /// members first; clients stay unmodified and topology-blind. Locality
    /// is injected at the membership database, exactly where the paper
    /// puts the oracle.
    DeepDivingOracle,
}

impl PolicySpec {
    /// A short human-readable label for tables and CSV output.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PolicySpec::GossipRace => "gossip_race".to_string(),
            PolicySpec::TrackerOnly => "tracker_only".to_string(),
            PolicySpec::BiasedLocality { cross_isp_quota } => {
                if *cross_isp_quota == usize::MAX {
                    "biased_locality:max".to_string()
                } else {
                    format!("biased_locality:{cross_isp_quota}")
                }
            }
            PolicySpec::RttThreshold { cutoff } => {
                format!("rtt_threshold:{}", cutoff.as_millis())
            }
            PolicySpec::DeepDivingOracle => "deep_diving".to_string(),
        }
    }

    /// Rewrites the peer configuration before the world is built:
    /// [`PolicySpec::TrackerOnly`] runs the tracker-only baseline (keeping
    /// the caller's `latency_bias`); every other policy keeps `cfg`.
    #[must_use]
    pub fn adapt_config(&self, cfg: PeerConfig) -> PeerConfig {
        match self {
            PolicySpec::TrackerOnly => PeerConfig {
                latency_bias: cfg.latency_bias,
                ..PeerConfig::tracker_only_baseline()
            },
            _ => cfg,
        }
    }

    /// Whether the peer may connect to / accept this candidate. Only the
    /// quota and RTT policies gate; every other policy admits everyone.
    #[must_use]
    pub fn admits(&self, link: &CandidateLink) -> bool {
        match *self {
            PolicySpec::BiasedLocality { cross_isp_quota } => {
                link.same_isp || link.cross_isp_neighbors < cross_isp_quota
            }
            PolicySpec::RttThreshold { cutoff } => {
                link.base_rtt <= cutoff || link.neighbors < STARVATION_FLOOR
            }
            PolicySpec::GossipRace | PolicySpec::TrackerOnly | PolicySpec::DeepDivingOracle => true,
        }
    }

    /// Whether the peer asks trackers for ISP-biased samples.
    #[must_use]
    pub fn wants_isp_hint(&self) -> bool {
        *self == PolicySpec::DeepDivingOracle
    }
}

/// What a peer knows about a prospective neighbor at admission time —
/// everything a policy may condition on. Pure data so every policy hook
/// stays a pure function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateLink {
    /// Whether the candidate sits in the peer's own ISP.
    pub same_isp: bool,
    /// Propagation RTT between the peer and the candidate (no queueing).
    pub base_rtt: SimTime,
    /// The peer's current count of connected cross-ISP neighbors.
    pub cross_isp_neighbors: usize,
    /// The peer's current total neighbor count.
    pub neighbors: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(same_isp: bool, rtt_ms: u64, cross: usize, total: usize) -> CandidateLink {
        CandidateLink {
            same_isp,
            base_rtt: SimTime::from_millis(rtt_ms),
            cross_isp_neighbors: cross,
            neighbors: total,
        }
    }

    #[test]
    fn gossip_race_admits_everything() {
        let p = PolicySpec::GossipRace;
        assert!(p.admits(&link(false, 400, 100, 100)));
        assert!(!p.wants_isp_hint());
        let cfg = PeerConfig::default();
        assert_eq!(p.adapt_config(cfg), cfg);
    }

    #[test]
    fn biased_locality_enforces_quota_but_not_same_isp() {
        let p = PolicySpec::BiasedLocality { cross_isp_quota: 2 };
        assert!(p.admits(&link(false, 250, 1, 10)));
        assert!(!p.admits(&link(false, 250, 2, 10)));
        // Same-ISP candidates never count against the quota.
        assert!(p.admits(&link(true, 30, 2, 10)));
        // An unlimited quota admits everything — the no-bias anchor.
        let unlimited = PolicySpec::BiasedLocality {
            cross_isp_quota: usize::MAX,
        };
        assert!(unlimited.admits(&link(false, 250, usize::MAX - 1, 10)));
    }

    #[test]
    fn rtt_threshold_gates_slow_links_unless_starving() {
        let p = PolicySpec::RttThreshold {
            cutoff: SimTime::from_millis(100),
        };
        assert!(p.admits(&link(false, 100, 0, 10)));
        assert!(!p.admits(&link(false, 101, 0, 10)));
        // Starvation floor: a nearly-empty table accepts anyone.
        assert!(p.admits(&link(false, 400, 0, STARVATION_FLOOR - 1)));
    }

    #[test]
    fn tracker_only_runs_the_baseline_with_the_callers_bias() {
        let cfg = PeerConfig {
            latency_bias: 2.5,
            ..PeerConfig::default()
        };
        let adapted = PolicySpec::TrackerOnly.adapt_config(cfg);
        assert_eq!(
            adapted,
            PeerConfig {
                latency_bias: 2.5,
                ..PeerConfig::tracker_only_baseline()
            }
        );
        assert!(PolicySpec::TrackerOnly.admits(&link(false, 400, 50, 50)));
    }

    #[test]
    fn deep_diving_wants_hint_only() {
        let p = PolicySpec::DeepDivingOracle;
        assert!(p.wants_isp_hint());
        assert!(p.admits(&link(false, 400, 50, 50)));
        let cfg = PeerConfig::default();
        assert_eq!(p.adapt_config(cfg), cfg);
    }
}
