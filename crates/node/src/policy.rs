//! Pluggable neighbor-selection policies: the locality laboratory.
//!
//! The paper's deployed system selects neighbors with a topology-blind
//! gossip race and lets locality *emerge* from timing. The follow-on
//! literature ("Pushing BitTorrent Locality to the Limit", "Deep Diving
//! into BitTorrent Locality") instead *engineers* locality and charts the
//! transit-savings vs quality-of-experience frontier. This module turns the
//! single hard-coded behaviour into a [`SelectionPolicy`] trait so both
//! regimes — and the frontier between them — run in one simulator.
//!
//! Determinism contract: every hook is a **pure function** of its inputs —
//! no RNG, no interior state, no clocks. Policies therefore never perturb
//! the per-actor random streams, which keeps every policy bit-identical
//! across sequential, `JobPool` and sharded execution, and keeps the
//! default [`GossipRace`] policy bit-identical to the pre-policy code path
//! (its hooks are the trait's admit-everything defaults).

use crate::config::{ConnectPolicy, DataSelection, PeerConfig};
use plsim_des::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::sync::Arc;

/// Below this many connected neighbors an admission-gating policy accepts
/// anyone: a starving peer must not refuse the only partners it can find.
const STARVATION_FLOOR: usize = 4;

/// A serializable, copyable description of a selection policy — the form
/// that travels through [`crate::WorldConfig`] and across shard threads.
/// [`PolicySpec::build`] turns it into the behaviour object.
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
    /// Limit"). `usize::MAX` disables the gate — behaviourally identical
    /// to [`PolicySpec::GossipRace`], the frontier's no-bias anchor.
    BiasedLocality {
        /// Maximum simultaneous cross-ISP neighbors per peer.
        cross_isp_quota: usize,
    },
    /// Delay-based locality: refuse neighbors whose base RTT exceeds
    /// `cutoff` (unless starving). A decentralized proxy for ISP
    /// boundaries that needs no oracle.
    RttThreshold {
        /// Maximum acceptable base RTT to a new neighbor.
        cutoff: SimTime,
    },
    /// ISP-managed locality ("Deep Diving into BitTorrent Locality"): the
    /// tracker — which the ISP operates or fronts — serves same-ISP
    /// members first; clients stay unmodified and topology-blind.
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

    /// Instantiates the behaviour object this spec describes.
    #[must_use]
    pub fn build(&self) -> Arc<dyn SelectionPolicy> {
        match *self {
            PolicySpec::GossipRace => Arc::new(GossipRace),
            PolicySpec::TrackerOnly => Arc::new(TrackerOnly),
            PolicySpec::BiasedLocality { cross_isp_quota } => {
                Arc::new(BiasedLocality { cross_isp_quota })
            }
            PolicySpec::RttThreshold { cutoff } => Arc::new(RttThreshold { cutoff }),
            PolicySpec::DeepDivingOracle => Arc::new(DeepDivingOracle),
        }
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

/// A neighbor-selection strategy. All hooks are pure (no RNG, no
/// mutation), so policies never perturb actor random streams and every
/// policy is deterministic under sharded and pooled execution. The
/// defaults encode [`GossipRace`]: admit everyone, change nothing.
pub trait SelectionPolicy: Debug + Send + Sync {
    /// Short identifier for logs and metrics.
    fn name(&self) -> &'static str;

    /// Rewrites the peer configuration before the world is built (e.g.
    /// [`TrackerOnly`] disables referral). Identity by default.
    fn adapt_config(&self, cfg: PeerConfig) -> PeerConfig {
        cfg
    }

    /// Whether the peer may connect to / accept this candidate. `true` by
    /// default (the emergent-locality race admits everyone).
    fn admits(&self, link: &CandidateLink) -> bool {
        let _ = link;
        true
    }

    /// Whether the peer should ask trackers for ISP-biased samples
    /// ([`DeepDivingOracle`]). `false` by default.
    fn wants_isp_hint(&self) -> bool {
        false
    }
}

/// The paper's behaviour: topology-blind, timing-driven. All trait
/// defaults — the peer executes the identical pre-policy code path.
#[derive(Debug, Clone, Copy, Default)]
pub struct GossipRace;

impl SelectionPolicy for GossipRace {
    fn name(&self) -> &'static str {
        "gossip_race"
    }
}

/// Tracker-driven swarm: no referral gossip, delayed-random connects,
/// uniform chunk scheduling. Mirrors [`PeerConfig::tracker_only_baseline`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TrackerOnly;

impl SelectionPolicy for TrackerOnly {
    fn name(&self) -> &'static str {
        "tracker_only"
    }

    fn adapt_config(&self, cfg: PeerConfig) -> PeerConfig {
        PeerConfig {
            referral: false,
            connect_policy: ConnectPolicy::DelayedRandom,
            data_selection: DataSelection::Uniform,
            tracker_interval_hungry: SimTime::from_secs(30),
            tracker_interval_satisfied: SimTime::from_secs(60),
            ..cfg
        }
    }
}

/// Quota-capped cross-ISP admission. Same-ISP candidates are always
/// admitted; a cross-ISP candidate only while the peer holds fewer than
/// `cross_isp_quota` cross-ISP neighbors. The quota counts *connected*
/// neighbors, so a candidate learned from both a tracker reply and a
/// gossip payload consumes one slot, not two.
#[derive(Debug, Clone, Copy)]
pub struct BiasedLocality {
    /// Maximum simultaneous cross-ISP neighbors.
    pub cross_isp_quota: usize,
}

impl SelectionPolicy for BiasedLocality {
    fn name(&self) -> &'static str {
        "biased_locality"
    }

    fn admits(&self, link: &CandidateLink) -> bool {
        link.same_isp || link.cross_isp_neighbors < self.cross_isp_quota
    }
}

/// Delay-based admission: refuse links slower than `cutoff`, unless the
/// peer is starving (below [`STARVATION_FLOOR`] neighbors it takes what it
/// can get — a viewer with an empty table must not refuse bootstrap help).
#[derive(Debug, Clone, Copy)]
pub struct RttThreshold {
    /// Maximum acceptable base RTT.
    pub cutoff: SimTime,
}

impl SelectionPolicy for RttThreshold {
    fn name(&self) -> &'static str {
        "rtt_threshold"
    }

    fn admits(&self, link: &CandidateLink) -> bool {
        link.base_rtt <= self.cutoff || link.neighbors < STARVATION_FLOOR
    }
}

/// ISP-managed locality: clients stay unmodified (all admission defaults)
/// but request ISP-biased tracker samples; the tracker serves same-ISP
/// members first. Locality is injected at the membership database, exactly
/// where "Deep Diving into BitTorrent Locality" puts the oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeepDivingOracle;

impl SelectionPolicy for DeepDivingOracle {
    fn name(&self) -> &'static str {
        "deep_diving"
    }

    fn wants_isp_hint(&self) -> bool {
        true
    }
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
        let p = PolicySpec::GossipRace.build();
        assert!(p.admits(&link(false, 400, 100, 100)));
        assert!(!p.wants_isp_hint());
        let cfg = PeerConfig::default();
        assert_eq!(p.adapt_config(cfg), cfg);
    }

    #[test]
    fn biased_locality_enforces_quota_but_not_same_isp() {
        let p = BiasedLocality { cross_isp_quota: 2 };
        assert!(p.admits(&link(false, 250, 1, 10)));
        assert!(!p.admits(&link(false, 250, 2, 10)));
        // Same-ISP candidates never count against the quota.
        assert!(p.admits(&link(true, 30, 2, 10)));
        // An unlimited quota admits everything — the no-bias anchor.
        let unlimited = BiasedLocality {
            cross_isp_quota: usize::MAX,
        };
        assert!(unlimited.admits(&link(false, 250, usize::MAX - 1, 10)));
    }

    #[test]
    fn rtt_threshold_gates_slow_links_unless_starving() {
        let p = RttThreshold {
            cutoff: SimTime::from_millis(100),
        };
        assert!(p.admits(&link(false, 100, 0, 10)));
        assert!(!p.admits(&link(false, 101, 0, 10)));
        // Starvation floor: a nearly-empty table accepts anyone.
        assert!(p.admits(&link(false, 400, 0, STARVATION_FLOOR - 1)));
    }

    #[test]
    fn tracker_only_rewrites_config() {
        let cfg = TrackerOnly.adapt_config(PeerConfig::default());
        assert!(!cfg.referral);
        assert_eq!(cfg.connect_policy, ConnectPolicy::DelayedRandom);
        assert_eq!(cfg.data_selection, DataSelection::Uniform);
    }

    #[test]
    fn deep_diving_wants_hint_only() {
        let p = DeepDivingOracle;
        assert!(p.wants_isp_hint());
        assert!(p.admits(&link(false, 400, 50, 50)));
        let cfg = PeerConfig::default();
        assert_eq!(p.adapt_config(cfg), cfg);
    }
}
