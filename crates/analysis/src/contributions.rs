//! Per-neighbor contribution analysis: the paper's §3.4–§3.5
//! (Figures 11–18).

use crate::fold::{fold_records, RecordFold};
use crate::PerIsp;
use plsim_capture::{Direction, KindRef, RecordRef};
use plsim_des::{DetHashMap, DetHashSet, NodeId, SimTime};
use plsim_net::{AsnDirectory, Isp};
use plsim_stats::{
    log_log_correlation, stretched_exp_fit, top_share, zipf_fit, StretchedExpFit, ZipfFit,
};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Everything measured about one peer the probe exchanged data with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeerContribution {
    /// The remote peer.
    pub remote: NodeId,
    /// Its address.
    pub ip: Ipv4Addr,
    /// Its ISP.
    pub isp: Isp,
    /// Data requests the probe sent it.
    pub requests: u64,
    /// Data replies it returned.
    pub replies: u64,
    /// Media bytes it uploaded to the probe.
    pub bytes: u64,
    /// RTT estimate: the minimum application-level data response time, as
    /// in §3.5 ("we take the minimum of them as the RTT estimation").
    pub rtt_est_secs: Option<f64>,
}

/// The §3.4/§3.5 analysis bundle for one probe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContributionAnalysis {
    /// Per-peer contributions, sorted by descending request count (rank
    /// order of Figures 11b–14b).
    pub peers: Vec<PeerContribution>,
    /// Unique connected (data-transferring) peers per ISP (Figures 11a–14a).
    pub connected_by_isp: PerIsp<u64>,
    /// Unique addresses ever seen on returned peer lists (the denominators
    /// quoted in §3.4, e.g. "326 of 3812 unique IPs").
    pub unique_listed_peers: u64,
    /// Zipf fit of the request rank distribution.
    pub zipf: Option<ZipfFit>,
    /// Stretched-exponential fit of the request rank distribution.
    pub se: Option<StretchedExpFit>,
    /// Share of bytes uploaded by the top 10% of connected peers.
    pub top10_byte_share: Option<f64>,
    /// Share of requests sent to the top 10% of connected peers.
    pub top10_request_share: Option<f64>,
    /// Correlation of log(#requests) vs log(RTT) (Figures 15–18).
    pub rtt_correlation: Option<f64>,
}

impl ContributionAnalysis {
    /// Request counts in rank order (input of the paper's model fits).
    #[must_use]
    pub fn request_ranks(&self) -> Vec<f64> {
        self.peers.iter().map(|p| p.requests as f64).collect()
    }

    /// Byte contributions in request-rank order.
    #[must_use]
    pub fn byte_contributions(&self) -> Vec<f64> {
        self.peers.iter().map(|p| p.bytes as f64).collect()
    }

    /// Cumulative byte-contribution CDF over ranked peers (Figures 11c–14c).
    #[must_use]
    pub fn contribution_cdf(&self) -> Vec<f64> {
        let mut bytes: Vec<f64> = self.byte_contributions();
        bytes.sort_by(|a, b| b.partial_cmp(a).expect("finite bytes"));
        let total: f64 = bytes.iter().sum();
        let mut acc = 0.0;
        bytes
            .iter()
            .map(|b| {
                acc += b;
                if total > 0.0 {
                    acc / total
                } else {
                    0.0
                }
            })
            .collect()
    }
}

#[derive(Debug)]
struct PeerAcc {
    ip: Ipv4Addr,
    requests: u64,
    replies: u64,
    bytes: u64,
    min_rt: Option<f64>,
}

/// Streaming fold behind [`contribution_analysis`]: state is O(peers
/// exchanged with + outstanding requests + unique listed addresses) — the
/// analysis' own output size, never the record count. Its maps are only
/// probed, never walked in a way the output can see (`finish` sorts the
/// peers totally), and hash with the deterministic FNV-1a.
#[derive(Debug)]
pub struct ContributionFold<'d> {
    dir: &'d AsnDirectory,
    acc: DetHashMap<NodeId, PeerAcc>,
    pending: DetHashMap<u64, (NodeId, SimTime)>,
    listed: DetHashSet<Ipv4Addr>,
}

impl<'d> ContributionFold<'d> {
    /// A fresh accumulator classifying addresses with `dir`.
    #[must_use]
    pub fn new(dir: &'d AsnDirectory) -> Self {
        ContributionFold {
            dir,
            acc: DetHashMap::default(),
            pending: DetHashMap::default(),
            listed: DetHashSet::default(),
        }
    }
}

impl RecordFold for ContributionFold<'_> {
    type Output = ContributionAnalysis;

    fn push(&mut self, r: RecordRef<'_>) {
        match (r.kind, r.direction) {
            (KindRef::TrackerResponse { peer_ips }, Direction::Inbound)
            | (KindRef::PeerListResponse { peer_ips, .. }, Direction::Inbound) => {
                self.listed.extend(peer_ips.iter().copied());
            }
            (KindRef::DataRequest { seq, .. }, Direction::Outbound) => {
                let e = self.acc.entry(r.remote).or_insert(PeerAcc {
                    ip: r.remote_ip,
                    requests: 0,
                    replies: 0,
                    bytes: 0,
                    min_rt: None,
                });
                e.requests += 1;
                self.pending.insert(seq, (r.remote, r.t));
            }
            (
                KindRef::DataReply {
                    seq, payload_bytes, ..
                },
                Direction::Inbound,
            ) => {
                if let Some((node, sent)) = self.pending.remove(&seq) {
                    if node == r.remote {
                        let rt = r.t.saturating_sub(sent).as_secs_f64();
                        if let Some(e) = self.acc.get_mut(&node) {
                            e.replies += 1;
                            e.bytes += u64::from(payload_bytes);
                            e.min_rt = Some(e.min_rt.map_or(rt, |m: f64| m.min(rt)));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn finish(self) -> ContributionAnalysis {
        let dir = self.dir;
        let mut peers: Vec<PeerContribution> = self
            .acc
            .into_iter()
            .filter(|(_, a)| a.replies > 0)
            .filter_map(|(node, a)| {
                dir.isp_of(a.ip).map(|isp| PeerContribution {
                    remote: node,
                    ip: a.ip,
                    isp,
                    requests: a.requests,
                    replies: a.replies,
                    bytes: a.bytes,
                    rtt_est_secs: a.min_rt,
                })
            })
            .collect();
        peers.sort_by(|a, b| b.requests.cmp(&a.requests).then(a.remote.cmp(&b.remote)));

        let mut connected_by_isp: PerIsp<u64> = PerIsp::default();
        for p in &peers {
            connected_by_isp[p.isp] += 1;
        }

        let request_ranks: Vec<f64> = peers.iter().map(|p| p.requests as f64).collect();
        let bytes: Vec<f64> = peers.iter().map(|p| p.bytes as f64).collect();
        let rtts: Vec<f64> = peers
            .iter()
            .map(|p| p.rtt_est_secs.unwrap_or(f64::NAN))
            .collect();
        let requests_f: Vec<f64> = request_ranks.clone();

        ContributionAnalysis {
            zipf: zipf_fit(&request_ranks),
            se: stretched_exp_fit(&request_ranks),
            top10_byte_share: top_share(&bytes, 0.1),
            top10_request_share: top_share(&request_ranks, 0.1),
            rtt_correlation: log_log_correlation(&requests_f, &rtts),
            unique_listed_peers: self.listed.len() as u64,
            connected_by_isp,
            peers,
        }
    }
}

/// Runs the contribution analysis over one probe's records.
///
/// A peer counts as "connected" if at least one data transmission (matched
/// request/reply pair) completed with it, mirroring the paper's "unique
/// peers that have been connected for data transferring".
#[must_use]
pub fn contribution_analysis<'a, I>(records: I, dir: &AsnDirectory) -> ContributionAnalysis
where
    I: IntoIterator<Item = RecordRef<'a>>,
{
    fold_records(ContributionFold::new(dir), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plsim_capture::{RecordKind, RemoteKind, TraceRecord};
    use plsim_proto::ChunkId;

    fn rows(records: &[TraceRecord]) -> impl Iterator<Item = RecordRef<'_>> {
        records.iter().map(TraceRecord::as_ref)
    }

    fn tele_ip(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(58, 0, 1, n)
    }

    fn rec(
        t_ms: u64,
        direction: Direction,
        remote: u32,
        ip: Ipv4Addr,
        kind: RecordKind,
    ) -> TraceRecord {
        TraceRecord {
            t: SimTime::from_millis(t_ms),
            probe: NodeId(0),
            remote: NodeId(remote),
            remote_ip: ip,
            remote_kind: RemoteKind::Peer,
            direction,
            kind,
            wire_bytes: 0,
        }
    }

    fn exchange(seq: u64, t_ms: u64, remote: u32, rt_ms: u64) -> [TraceRecord; 2] {
        let ip = tele_ip(remote as u8);
        [
            rec(
                t_ms,
                Direction::Outbound,
                remote,
                ip,
                RecordKind::DataRequest {
                    seq,
                    chunk: ChunkId(0),
                },
            ),
            rec(
                t_ms + rt_ms,
                Direction::Inbound,
                remote,
                ip,
                RecordKind::DataReply {
                    seq,
                    chunk: ChunkId(0),
                    payload_bytes: 1380,
                },
            ),
        ]
    }

    #[test]
    fn contributions_count_requests_replies_bytes_and_min_rt() {
        let dir = AsnDirectory::new();
        let mut records = Vec::new();
        records.extend(exchange(1, 0, 1, 100));
        records.extend(exchange(2, 1000, 1, 300));
        records.extend(exchange(3, 2000, 2, 50));
        let out = contribution_analysis(rows(&records), &dir);
        assert_eq!(out.peers.len(), 2);
        // Peer 1 has more requests → rank 1.
        assert_eq!(out.peers[0].remote, NodeId(1));
        assert_eq!(out.peers[0].requests, 2);
        assert_eq!(out.peers[0].bytes, 2760);
        assert!((out.peers[0].rtt_est_secs.unwrap() - 0.1).abs() < 1e-9);
        assert_eq!(out.connected_by_isp[Isp::Tele], 2);
    }

    #[test]
    fn peers_without_replies_are_not_connected() {
        let dir = AsnDirectory::new();
        let records = vec![rec(
            0,
            Direction::Outbound,
            5,
            tele_ip(5),
            RecordKind::DataRequest {
                seq: 9,
                chunk: ChunkId(0),
            },
        )];
        let out = contribution_analysis(rows(&records), &dir);
        assert!(out.peers.is_empty());
    }

    #[test]
    fn cdf_is_monotone_to_one() {
        let dir = AsnDirectory::new();
        let mut records = Vec::new();
        let mut seq = 0;
        for remote in 1..=20u32 {
            for k in 0..remote {
                seq += 1;
                records.extend(exchange(seq, seq * 10, remote, 40 + u64::from(k)));
            }
        }
        let out = contribution_analysis(rows(&records), &dir);
        let cdf = out.contribution_cdf();
        assert_eq!(cdf.len(), 20);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-9);
        assert!(out.se.is_some());
        assert!(out.top10_byte_share.unwrap() > 0.1);
    }

    #[test]
    fn listed_peers_are_counted_unique() {
        let dir = AsnDirectory::new();
        let records = vec![
            rec(
                0,
                Direction::Inbound,
                7,
                tele_ip(7),
                RecordKind::PeerListResponse {
                    req_id: 1,
                    peer_ips: vec![tele_ip(1), tele_ip(2), tele_ip(1)],
                },
            ),
            rec(
                10,
                Direction::Inbound,
                8,
                tele_ip(8),
                RecordKind::TrackerResponse {
                    peer_ips: vec![tele_ip(2), tele_ip(3)],
                },
            ),
        ];
        let out = contribution_analysis(rows(&records), &dir);
        assert_eq!(out.unique_listed_peers, 3);
    }
}
