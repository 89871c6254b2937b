//! # plsim-net — the simulated Internet underlay
//!
//! This crate substitutes for the real Internet of the original measurement
//! study. It models exactly the properties the paper's findings depend on:
//!
//! * an ISP partition ([`Isp`]: TELE, CNC, CER, OtherCN, Foreign) with a
//!   synthetic but realistic address plan and an authoritative IP→ASN oracle
//!   ([`AsnDirectory`], standing in for the Team Cymru service);
//! * a latency structure in which intra-ISP paths are faster than cross-ISP
//!   paths, the TELE↔CNC interconnect is congested, and transoceanic paths
//!   are slowest ([`core_one_way_ms`], [`Topology`]);
//! * per-host access links with 2008-era capacities ([`BandwidthClass`]);
//! * a lossy, jittery packet medium ([`Underlay`], a [`plsim_des::Medium`]).
//!
//! Peers in the protocol layer never see any of this information directly —
//! they only observe message timing, exactly like real PPLive clients. The
//! analysis layer, by contrast, uses the oracle the same way the authors used
//! Team Cymru.
//!
//! # Examples
//!
//! ```
//! use plsim_net::{BandwidthClass, Isp, LinkModel, TopologyBuilder, Underlay};
//! use rand::{rngs::SmallRng, SeedableRng};
//! use std::sync::Arc;
//!
//! let mut rng = SmallRng::seed_from_u64(42);
//! let mut builder = TopologyBuilder::new();
//! let a = builder.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng);
//! let b = builder.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng);
//! let c = builder.add_host(Isp::Foreign, BandwidthClass::Campus, &mut rng);
//! let topo = Arc::new(builder.build());
//!
//! // Same-ISP RTT beats transoceanic RTT.
//! assert!(topo.base_rtt(a, b) < topo.base_rtt(a, c));
//!
//! let _medium = Underlay::new(topo, LinkModel::default());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod bandwidth;
mod isp;
mod medium;
mod topology;

pub use bandwidth::{transfer_time, Bandwidth, BandwidthClass};
pub use isp::{Asn, AsnDirectory, AsnRecord, IpAllocator, Isp, IspGroup};
pub use medium::{LinkFault, LinkModel, Underlay};
pub use topology::{congestion_extra_ms, core_one_way_ms, HostInfo, Topology, TopologyBuilder};
