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
use crate::PerIsp;
use plsim_capture::{Direction, KindRef, RecordRef};
use plsim_des::DetHashMap;
use plsim_net::{AsnDirectory, Isp};
use serde::{Deserialize, Serialize};
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
/// is a random membership sample, not an adjacency list.
///
/// While rows stream by, each address is interned once to a dense id and
/// every listed pair is appended, both ways, to its endpoints' id lists
/// (duplicates included), so a push costs one hash probe per address.
/// `finish` relabels the ids in ascending address order, sorts and
/// dedups each list into one compressed adjacency, and computes every
/// graph metric over it.
#[derive(Debug)]
pub struct OverlayFold<'d> {
    dir: &'d AsnDirectory,
    ids: DetHashMap<Ipv4Addr, u32>,
    addrs: Vec<Ipv4Addr>,
    lists: Vec<Vec<u32>>,
}

impl<'d> OverlayFold<'d> {
    /// A fresh accumulator classifying addresses with `dir`.
    #[must_use]
    pub fn new(dir: &'d AsnDirectory) -> Self {
        OverlayFold {
            dir,
            ids: DetHashMap::default(),
            addrs: Vec::new(),
            lists: Vec::new(),
        }
    }

    /// The dense id of `ip`, assigning the next one on first sight.
    fn intern(&mut self, ip: Ipv4Addr) -> u32 {
        let next = self.addrs.len() as u32;
        let id = *self.ids.entry(ip).or_insert(next);
        if id == next {
            self.addrs.push(ip);
            self.lists.push(Vec::new());
        }
        id
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
        // The replier joins the graph with its first edge, not before: a
        // reply that lists nobody but itself adds no node.
        let mut replier = None;
        for &ip in peer_ips {
            if ip == r.remote_ip {
                continue;
            }
            let a = *replier.get_or_insert_with(|| self.intern(r.remote_ip));
            let b = self.intern(ip);
            self.lists[a as usize].push(b);
            self.lists[b as usize].push(a);
        }
    }

    fn finish(self) -> OverlayStats {
        Adjacency::new(&self.addrs, self.lists).stats(self.dir)
    }
}

/// The sampled overlay in compressed form: nodes are numbered in
/// ascending address order, and `adj[offsets[v]..offsets[v + 1]]` lists
/// node `v`'s distinct neighbours in ascending order.
struct Adjacency {
    addrs: Vec<Ipv4Addr>,
    offsets: Vec<usize>,
    adj: Vec<u32>,
}

impl Adjacency {
    /// Relabels interned ids in address order and sorts and dedups every
    /// neighbour list.
    fn new(addrs: &[Ipv4Addr], mut lists: Vec<Vec<u32>>) -> Self {
        let mut order: Vec<u32> = (0..addrs.len() as u32).collect();
        order.sort_unstable_by_key(|&id| addrs[id as usize]);
        let mut rank = vec![0u32; addrs.len()];
        for (new, &old) in order.iter().enumerate() {
            rank[old as usize] = new as u32;
        }
        let mut offsets = Vec::with_capacity(addrs.len() + 1);
        offsets.push(0);
        let mut adj = Vec::new();
        for &old in &order {
            let list = &mut lists[old as usize];
            for id in list.iter_mut() {
                *id = rank[*id as usize];
            }
            list.sort_unstable();
            list.dedup();
            adj.extend_from_slice(list);
            offsets.push(adj.len());
        }
        Adjacency {
            addrs: order.iter().map(|&id| addrs[id as usize]).collect(),
            offsets,
            adj,
        }
    }

    fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Every metric of [`OverlayStats`], classifying nodes with `dir`.
    fn stats(&self, dir: &AsnDirectory) -> OverlayStats {
        let nodes = self.addrs.len();
        let edges = self.adj.len() / 2;

        // Triangles and local clustering. For node `v`, every pair `a < b`
        // of its neighbours closes a triangle when `b ∈ N(a)`: mark `N(v)`,
        // then count the marked entries of each `N(a)` above `a`. Nodes are
        // visited in address order, so `cc_sum` adds up in that order.
        let mut mark = vec![u32::MAX; nodes];
        let mut triangles_times_3 = 0u64;
        let mut cc_sum = 0.0;
        let mut cc_nodes = 0usize;
        for v in 0..nodes {
            let neighbors = self.neighbors(v);
            let degree = neighbors.len();
            if degree < 2 {
                continue;
            }
            for &a in neighbors {
                mark[a as usize] = v as u32;
            }
            let mut closed = 0u64;
            for &a in neighbors {
                let n_a = self.neighbors(a as usize);
                let above = n_a.partition_point(|&b| b <= a);
                closed += n_a[above..]
                    .iter()
                    .filter(|&&b| mark[b as usize] == v as u32)
                    .count() as u64;
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

        // ISP mixing: same-ISP edge fraction and categorical assortativity,
        // over each undirected edge once, each node classified once.
        let isps: Vec<Option<Isp>> = self.addrs.iter().map(|&ip| dir.isp_of(ip)).collect();
        let mut same = 0usize;
        let mut classified_edges = 0usize;
        let mut within: PerIsp<u64> = PerIsp::default();
        let mut ends: PerIsp<u64> = PerIsp::default();
        for (v, &isp_v) in isps.iter().enumerate() {
            let Some(ia) = isp_v else { continue };
            for &b in self.neighbors(v) {
                if b as usize <= v {
                    continue;
                }
                let Some(ib) = isps[b as usize] else { continue };
                classified_edges += 1;
                ends[ia] += 1;
                ends[ib] += 1;
                if ia == ib {
                    same += 1;
                    within[ia] += 1;
                }
            }
        }
        let (same_frac, assortativity) = if classified_edges == 0 {
            (0.0, 0.0)
        } else {
            // Summed in `Isp` order. An ISP no classified edge touched adds
            // a +0.0 term, which leaves a positive partial sum bit for bit,
            // and turns an empty `e_within` from −0.0 into +0.0, which
            // `e_within − a_sq` (a_sq > 0) cannot tell apart.
            let m = classified_edges as f64;
            let e_within: f64 = within.0.iter().map(|&w| w as f64 / m).sum();
            let a_sq: f64 = ends.0.iter().map(|&e| (e as f64 / (2.0 * m)).powi(2)).sum();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::fold_records;
    use plsim_capture::{RecordKind, RemoteKind, TraceRecord};
    use plsim_des::{NodeId, SimTime};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The fold as it was before dense ids: an ordered adjacency map built
    /// row by row. Kept as the oracle the compressed graph must equal.
    fn oracle<'a>(dir: &AsnDirectory, rows: impl Iterator<Item = RecordRef<'a>>) -> OverlayStats {
        let mut adjacency: BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>> = BTreeMap::new();
        for r in rows {
            if r.direction != Direction::Inbound {
                continue;
            }
            let KindRef::PeerListResponse { peer_ips, .. } = r.kind else {
                continue;
            };
            for &ip in peer_ips {
                if ip == r.remote_ip {
                    continue;
                }
                adjacency.entry(r.remote_ip).or_default().insert(ip);
                adjacency.entry(ip).or_default().insert(r.remote_ip);
            }
        }
        finish_overlay(&adjacency, dir)
    }

    fn finish_overlay(
        adjacency: &BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>>,
        dir: &AsnDirectory,
    ) -> OverlayStats {
        let nodes = adjacency.len();
        let edges = adjacency.values().map(BTreeSet::len).sum::<usize>() / 2;

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

        let isp_of = |ip: Ipv4Addr| dir.isp_of(ip);
        let mut same = 0usize;
        let mut classified_edges = 0usize;
        let mut within: BTreeMap<Isp, f64> = BTreeMap::new();
        let mut ends: BTreeMap<Isp, f64> = BTreeMap::new();
        for (a, neighbors) in adjacency {
            for b in neighbors {
                if b <= a {
                    continue;
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

    /// Address `n` of a 24-address pool: four each in TELE, CNC, CER,
    /// OtherCN and Foreign blocks, and four unclassifiable `10.x` ones.
    fn pool(n: u32) -> Ipv4Addr {
        const FIRST: [u8; 6] = [58, 60, 166, 210, 24, 10];
        Ipv4Addr::new(FIRST[n as usize / 4], 0, 0, n as u8 % 4 + 1)
    }

    /// A gossip reply from `from`, or (for `kind` 1) the same list as an
    /// outbound or tracker row the fold must ignore.
    fn reply(kind: u32, from: u32, listed: &[u32]) -> TraceRecord {
        let mut r = list_reply(pool(from), listed.iter().map(|&n| pool(n)).collect());
        if kind == 1 {
            r.direction = Direction::Outbound;
        } else if kind == 2 {
            r.kind = RecordKind::TrackerResponse {
                peer_ips: listed.iter().map(|&n| pool(n)).collect(),
            };
        }
        r
    }

    proptest! {
        #[test]
        fn dense_ids_match_the_ordered_map(
            replies in collection::vec(
                (0u32..8, 0u32..24, collection::vec(0u32..24, 0..12)),
                0..40,
            ),
        ) {
            // Repliers and entries share one small pool, so lists repeat
            // entries, list their own replier, and name each other; most
            // rows are gossip replies, a few are rows the fold skips.
            let dir = AsnDirectory::new();
            let records: Vec<TraceRecord> = replies
                .iter()
                .map(|(kind, from, listed)| reply(*kind, *from, listed))
                .collect();
            let got = fold_records(OverlayFold::new(&dir), rows(&records));
            let want = oracle(&dir, rows(&records));
            prop_assert_eq!(got.nodes, want.nodes);
            prop_assert_eq!(got.edges, want.edges);
            prop_assert_eq!(got.triangles, want.triangles);
            prop_assert_eq!(
                got.clustering_coefficient.to_bits(),
                want.clustering_coefficient.to_bits()
            );
            prop_assert_eq!(
                got.same_isp_edge_fraction.to_bits(),
                want.same_isp_edge_fraction.to_bits()
            );
            prop_assert_eq!(got.isp_assortativity.to_bits(), want.isp_assortativity.to_bits());
        }
    }

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
