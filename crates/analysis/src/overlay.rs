//! Overlay-structure analysis.
//!
//! The paper attributes PPLive's locality to an "iterative triangle
//! construction" of the overlay: peers introduce their neighbors to each
//! other, so the graph closes triangles and self-organizes "into highly
//! connected clusters ... highly localized at the ISP level".
//!
//! A probe cannot see the whole overlay, but every gossip reply it receives
//! is one peer's adjacency list ("a normal peer returns its recently
//! connected peers"). Union of those lists = a sampled subgraph of the
//! overlay around the probe, on which clustering and ISP-assortativity are
//! measurable.

use crate::fold::RecordFold;
use plsim_capture::{Direction, KindRef, RecordRef};
use plsim_net::{AsnDirectory, Isp};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Structure metrics of the overlay subgraph observed at a probe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverlayStats {
    /// Nodes in the sampled subgraph.
    pub nodes: usize,
    /// Undirected edges.
    pub edges: usize,
    /// Closed triangles.
    pub triangles: u64,
    /// Mean local clustering coefficient over nodes with degree ≥ 2.
    pub clustering_coefficient: f64,
    /// Fraction of edges whose endpoints share an ISP.
    pub same_isp_edge_fraction: f64,
    /// Newman categorical assortativity by ISP in [−1, 1]; 0 = edges mix
    /// ISPs as if at random given degrees, 1 = perfectly ISP-partitioned.
    pub isp_assortativity: f64,
}

/// Builds the observed overlay subgraph from gossip replies and computes
/// its structure metrics. Tracker responses are excluded: a tracker's list
/// is a random membership sample, not an adjacency list. Accumulates the
/// sampled adjacency (O(observed subgraph), not O(records)) while rows
/// stream by; all graph metrics are computed in `finish`.
#[derive(Debug)]
pub struct OverlayFold<'d> {
    dir: &'d AsnDirectory,
    adjacency: BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>>,
}

impl<'d> OverlayFold<'d> {
    /// A fresh accumulator classifying addresses with `dir`.
    #[must_use]
    pub fn new(dir: &'d AsnDirectory) -> Self {
        OverlayFold {
            dir,
            adjacency: BTreeMap::new(),
        }
    }
}

impl RecordFold for OverlayFold<'_> {
    type Output = OverlayStats;

    fn push(&mut self, r: RecordRef<'_>) {
        if r.direction != Direction::Inbound {
            return;
        }
        let KindRef::PeerListResponse { peer_ips, .. } = r.kind else {
            return;
        };
        for &ip in peer_ips {
            if ip == r.remote_ip {
                continue;
            }
            self.adjacency.entry(r.remote_ip).or_default().insert(ip);
            self.adjacency.entry(ip).or_default().insert(r.remote_ip);
        }
    }

    fn finish(self) -> OverlayStats {
        finish_overlay(&self.adjacency, self.dir)
    }
}

fn finish_overlay(
    adjacency: &BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>>,
    dir: &AsnDirectory,
) -> OverlayStats {
    let nodes = adjacency.len();
    let edges = adjacency.values().map(BTreeSet::len).sum::<usize>() / 2;

    // Triangles and local clustering.
    let mut triangles_times_3 = 0u64;
    let mut cc_sum = 0.0;
    let mut cc_nodes = 0usize;
    for neighbors in adjacency.values() {
        let degree = neighbors.len();
        if degree < 2 {
            continue;
        }
        let mut closed = 0u64;
        let list: Vec<Ipv4Addr> = neighbors.iter().copied().collect();
        for (i, a) in list.iter().enumerate() {
            for b in &list[i + 1..] {
                if adjacency.get(a).is_some_and(|n| n.contains(b)) {
                    closed += 1;
                }
            }
        }
        triangles_times_3 += closed;
        cc_sum += closed as f64 / (degree * (degree - 1) / 2) as f64;
        cc_nodes += 1;
    }
    let clustering_coefficient = if cc_nodes == 0 {
        0.0
    } else {
        cc_sum / cc_nodes as f64
    };

    // ISP mixing: same-ISP edge fraction and categorical assortativity.
    let isp_of = |ip: Ipv4Addr| dir.isp_of(ip);
    let mut same = 0usize;
    let mut classified_edges = 0usize;
    let mut within: BTreeMap<Isp, f64> = BTreeMap::new();
    let mut ends: BTreeMap<Isp, f64> = BTreeMap::new();
    for (a, neighbors) in adjacency {
        for b in neighbors {
            if b <= a {
                continue; // each undirected edge once
            }
            let (Some(ia), Some(ib)) = (isp_of(*a), isp_of(*b)) else {
                continue;
            };
            classified_edges += 1;
            *ends.entry(ia).or_default() += 1.0;
            *ends.entry(ib).or_default() += 1.0;
            if ia == ib {
                same += 1;
                *within.entry(ia).or_default() += 1.0;
            }
        }
    }
    let (same_frac, assortativity) = if classified_edges == 0 {
        (0.0, 0.0)
    } else {
        let m = classified_edges as f64;
        let e_within: f64 = within.values().map(|w| w / m).sum();
        let a_sq: f64 = ends.values().map(|e| (e / (2.0 * m)).powi(2)).sum();
        let assort = if (1.0 - a_sq).abs() < 1e-12 {
            1.0
        } else {
            (e_within - a_sq) / (1.0 - a_sq)
        };
        (same as f64 / m, assort)
    };

    OverlayStats {
        nodes,
        edges,
        triangles: triangles_times_3 / 3,
        clustering_coefficient,
        same_isp_edge_fraction: same_frac,
        isp_assortativity: assortativity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::fold_records;
    use plsim_capture::{RecordKind, RemoteKind, TraceRecord};
    use plsim_des::{NodeId, SimTime};

    fn rows(records: &[TraceRecord]) -> impl Iterator<Item = RecordRef<'_>> {
        records.iter().map(TraceRecord::as_ref)
    }

    fn list_reply(from_ip: Ipv4Addr, ips: Vec<Ipv4Addr>) -> TraceRecord {
        TraceRecord {
            t: SimTime::ZERO,
            probe: NodeId(0),
            remote: NodeId(1),
            remote_ip: from_ip,
            remote_kind: RemoteKind::Peer,
            direction: Direction::Inbound,
            kind: RecordKind::PeerListResponse {
                req_id: 1,
                peer_ips: ips,
            },
            wire_bytes: 0,
        }
    }

    fn tele(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(58, 0, 0, n)
    }
    fn cnc(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(60, 0, 0, n)
    }

    #[test]
    fn triangle_is_detected() {
        let dir = AsnDirectory::new();
        // a-b, a-c from a's list; b-c from b's list → triangle a,b,c.
        let records = vec![
            list_reply(tele(1), vec![tele(2), tele(3)]),
            list_reply(tele(2), vec![tele(3)]),
        ];
        let stats = fold_records(OverlayFold::new(&dir), rows(&records));
        assert_eq!(stats.nodes, 3);
        assert_eq!(stats.edges, 3);
        assert_eq!(stats.triangles, 1);
        assert!((stats.clustering_coefficient - 1.0).abs() < 1e-12);
        assert!((stats.same_isp_edge_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_isp_cliques_are_perfectly_assortative() {
        let dir = AsnDirectory::new();
        let records = vec![
            list_reply(tele(1), vec![tele(2), tele(3)]),
            list_reply(tele(2), vec![tele(3)]),
            list_reply(cnc(1), vec![cnc(2), cnc(3)]),
            list_reply(cnc(2), vec![cnc(3)]),
        ];
        let stats = fold_records(OverlayFold::new(&dir), rows(&records));
        assert_eq!(stats.same_isp_edge_fraction, 1.0);
        assert!((stats.isp_assortativity - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bipartite_cross_isp_graph_is_disassortative() {
        let dir = AsnDirectory::new();
        // Every edge crosses TELE↔CNC.
        let records = vec![
            list_reply(tele(1), vec![cnc(1), cnc(2)]),
            list_reply(tele(2), vec![cnc(1), cnc(2)]),
        ];
        let stats = fold_records(OverlayFold::new(&dir), rows(&records));
        assert_eq!(stats.same_isp_edge_fraction, 0.0);
        assert!(stats.isp_assortativity < 0.0);
        assert_eq!(stats.triangles, 0);
    }

    #[test]
    fn self_and_duplicate_entries_are_ignored() {
        let dir = AsnDirectory::new();
        let records = vec![
            list_reply(tele(1), vec![tele(1), tele(2), tele(2)]),
            list_reply(tele(1), vec![tele(2)]),
        ];
        let stats = fold_records(OverlayFold::new(&dir), rows(&records));
        assert_eq!(stats.nodes, 2);
        assert_eq!(stats.edges, 1);
    }

    #[test]
    fn empty_records_yield_zeroes() {
        let dir = AsnDirectory::new();
        let stats = fold_records(OverlayFold::new(&dir), std::iter::empty::<RecordRef>());
        assert_eq!(stats.nodes, 0);
        assert_eq!(stats.edges, 0);
        assert_eq!(stats.clustering_coefficient, 0.0);
    }
}
