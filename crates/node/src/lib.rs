//! # plsim-node — PPLive node behaviours and the world builder
//!
//! Implements every host type of the measured system as a
//! [`plsim_des::Actor`]:
//!
//! * [`BootstrapServer`] — the channel server of the paper's Figure 1
//!   (steps 1–4);
//! * [`TrackerServer`] — the five tracker groups: membership databases that
//!   return *random* samples, deliberately locality-blind;
//! * [`PeerNode`] — the client: bootstrap, tracker queries, 20-second
//!   neighbor gossip, immediate connection on list receipt, a
//!   latency-weighted pull scheduler over 1380-byte sub-pieces, playback
//!   with stall accounting, and an upload queue that turns load into
//!   response latency. The same type plays the stream source.
//!
//! Under the default [`PolicySpec::GossipRace`] selection policy peers
//! never see topology information; locality *emerges* from timing, as the
//! paper claims. The [`policy`] module adds engineered-locality strategies
//! (quota-biased, RTT-gated, ISP-managed) as further [`PolicySpec`]
//! variants for the transit-savings frontier studies; the [`config`]
//! module holds the four peer settings the ablations vary and the protocol
//! constants every peer shares. The [`World`] builder
//! assembles a full scenario (topology + infrastructure + population +
//! probes + capture) and runs it.
//!
//! # Examples
//!
//! ```
//! use plsim_des::SimTime;
//! use plsim_net::Isp;
//! use plsim_node::{run_world, ProbeSpec, WorldConfig};
//! use plsim_workload::{ChannelClass, PopulationSpec, SessionPlan};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let plan = SessionPlan::generate(
//!     &PopulationSpec::tiny(ChannelClass::Unpopular),
//!     300.0,
//!     &mut rng,
//! );
//! let mut cfg = WorldConfig::new(7, plan, SimTime::from_secs(300));
//! cfg.probes.push(ProbeSpec::residential(Isp::Tele));
//! let out = run_world(&cfg);
//! assert!(!out.records.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod bootstrap;
mod chunks;
pub mod config;
mod det;
mod fault;
mod invariants;
mod neighbors;
mod outbox;
mod peer;
pub mod policy;
mod shard;
mod stats;
mod tracker;
mod world;

pub use bootstrap::BootstrapServer;
pub use config::{ConnectPolicy, DataSelection, PeerConfig};
pub use fault::{Fault, FaultBoundary, FaultPlan};
pub use invariants::{check_world, InvariantReport, InvariantViolation};
pub use outbox::ShardExchange;
pub use peer::{PeerNode, Role};
pub use plsim_capture::{CaptureAggregates, CaptureConfig};
/// Re-exported from `plsim-des`, where the deterministic hasher lives.
pub use plsim_des::{DetHashMap, Fnv1a};
pub use policy::{CandidateLink, PolicySpec};
pub use shard::{partition_preview, PartitionReport};
pub use stats::{PeerStats, PlaybackSummary, StatsSink};
pub use tracker::TrackerServer;
pub use world::{run_world, ProbeSpec, World, WorldConfig, WorldOutput};
