//! ISP-level locality analysis: the paper's §3.2 (Figures 2–6).
//!
//! Each quantity is a [`RecordFold`]: O(ISPs) accumulator state, one row
//! at a time, so spilled captures stream through without rematerializing.

use crate::fold::{fold_records, RecordFold};
use crate::PerIsp;
use plsim_capture::{Direction, KindRef, RecordRef, RemoteKind};
use plsim_net::{AsnDirectory, Isp};
use serde::{Deserialize, Serialize};

/// Which kind of host returned a peer list — the paper's `_p` (normal peer)
/// vs `_s` (tracker server) distinction in Figures 2(b)–5(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ListSource {
    /// Returned by a regular peer in the given ISP ("TELE_p" etc.).
    Peer(Isp),
    /// Returned by a tracker server in the given ISP ("TELE_s" etc.).
    Tracker(Isp),
}

impl ListSource {
    /// The paper's label for the source, e.g. `TELE_p` or `CNC_s`.
    /// OtherCN and Foreign peers are folded into `OTHER_p` like the figures
    /// do (PPLive deploys no trackers outside the three big Chinese ISPs).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            ListSource::Peer(isp) if !matches!(isp, Isp::Tele | Isp::Cnc | Isp::Cer) => {
                "OTHER_p".to_string()
            }
            ListSource::Peer(isp) => format!("{}_p", isp.label()),
            ListSource::Tracker(isp) => format!("{}_s", isp.label()),
        }
    }
}

/// Counts of returned peer-list addresses (with duplicates, as in the
/// figures) grouped by the advertised address's ISP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReturnedAddresses {
    /// All addresses, regardless of who returned them (Figures 2a–5a).
    pub total: PerIsp<u64>,
}

/// Figure 2(a)–5(a): counts every address on every peer list the probe
/// received (tracker responses and gossip responses), with duplicates.
/// O(ISPs) state.
#[derive(Debug)]
pub struct ReturnedAddressesFold<'d> {
    dir: &'d AsnDirectory,
    out: ReturnedAddresses,
}

impl<'d> ReturnedAddressesFold<'d> {
    /// A fresh accumulator classifying addresses with `dir`.
    #[must_use]
    pub fn new(dir: &'d AsnDirectory) -> Self {
        ReturnedAddressesFold {
            dir,
            out: ReturnedAddresses::default(),
        }
    }
}

impl RecordFold for ReturnedAddressesFold<'_> {
    type Output = ReturnedAddresses;

    fn push(&mut self, r: RecordRef<'_>) {
        if r.direction != Direction::Inbound {
            return;
        }
        let ips = match r.kind {
            KindRef::TrackerResponse { peer_ips } | KindRef::PeerListResponse { peer_ips, .. } => {
                peer_ips
            }
            _ => return,
        };
        for &ip in ips {
            if let Some(isp) = self.dir.isp_of(ip) {
                self.out.total[isp] += 1;
            }
        }
    }

    fn finish(self) -> ReturnedAddresses {
        self.out
    }
}

/// Streaming fold behind [`returned_by_source`]: O(source buckets) state.
#[derive(Debug)]
pub struct ReturnedBySourceFold<'d> {
    dir: &'d AsnDirectory,
    buckets: Vec<(ListSource, PerIsp<u64>)>,
}

impl<'d> ReturnedBySourceFold<'d> {
    /// A fresh accumulator classifying addresses with `dir`.
    #[must_use]
    pub fn new(dir: &'d AsnDirectory) -> Self {
        ReturnedBySourceFold {
            dir,
            buckets: Vec::new(),
        }
    }

    fn bump(&mut self, source: ListSource, isp: Isp) {
        if let Some((_, counts)) = self.buckets.iter_mut().find(|(s, _)| *s == source) {
            counts[isp] += 1;
        } else {
            let mut counts: PerIsp<u64> = PerIsp::default();
            counts[isp] += 1;
            self.buckets.push((source, counts));
        }
    }
}

impl RecordFold for ReturnedBySourceFold<'_> {
    type Output = Vec<(ListSource, PerIsp<u64>)>;

    fn push(&mut self, r: RecordRef<'_>) {
        if r.direction != Direction::Inbound {
            return;
        }
        let Some(replier_isp) = self.dir.isp_of(r.remote_ip) else {
            return;
        };
        let (ips, source) = match (r.kind, r.remote_kind) {
            (KindRef::TrackerResponse { peer_ips }, RemoteKind::Tracker) => {
                (peer_ips, ListSource::Tracker(replier_isp))
            }
            (KindRef::PeerListResponse { peer_ips, .. }, _) => {
                (peer_ips, ListSource::Peer(replier_isp))
            }
            _ => return,
        };
        for &ip in ips {
            if let Some(isp) = self.dir.isp_of(ip) {
                self.bump(source, isp);
            }
        }
    }

    fn finish(mut self) -> Vec<(ListSource, PerIsp<u64>)> {
        self.buckets.sort_by_key(|(s, _)| s.label());
        self.buckets
    }
}

/// Figure 2(b)–5(b): the same counts, broken down by who returned the list
/// (per replier ISP, peers vs trackers). Entries are sorted by label for
/// stable output.
#[must_use]
pub fn returned_by_source<'a, I>(records: I, dir: &AsnDirectory) -> Vec<(ListSource, PerIsp<u64>)>
where
    I: IntoIterator<Item = RecordRef<'a>>,
{
    fold_records(ReturnedBySourceFold::new(dir), records)
}

/// Figure 2(c)–5(c): data transmissions (request/reply pairs) and received
/// media bytes, grouped by the serving peer's ISP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DataByIsp {
    /// Completed transmissions (a matched data request/reply pair).
    pub transmissions: PerIsp<u64>,
    /// Media bytes received.
    pub bytes: PerIsp<u64>,
}

impl DataByIsp {
    /// Traffic locality: the fraction of received bytes served by peers in
    /// `home` — the paper's headline metric (Figure 6).
    #[must_use]
    pub fn locality(&self, home: Isp) -> f64 {
        self.bytes.fraction(home)
    }
}

/// Streaming fold behind [`data_by_isp`]: O(ISPs) state.
#[derive(Debug)]
pub struct DataByIspFold<'d> {
    dir: &'d AsnDirectory,
    out: DataByIsp,
}

impl<'d> DataByIspFold<'d> {
    /// A fresh accumulator classifying addresses with `dir`.
    #[must_use]
    pub fn new(dir: &'d AsnDirectory) -> Self {
        DataByIspFold {
            dir,
            out: DataByIsp::default(),
        }
    }
}

impl RecordFold for DataByIspFold<'_> {
    type Output = DataByIsp;

    fn push(&mut self, r: RecordRef<'_>) {
        if r.direction != Direction::Inbound {
            return;
        }
        if let KindRef::DataReply { payload_bytes, .. } = r.kind {
            if let Some(isp) = self.dir.isp_of(r.remote_ip) {
                self.out.transmissions[isp] += 1;
                self.out.bytes[isp] += u64::from(payload_bytes);
            }
        }
    }

    fn finish(self) -> DataByIsp {
        self.out
    }
}

/// Computes transmissions and bytes per serving ISP from inbound data
/// replies (each reply closes exactly one request, as matched by sequence
/// number in the captures).
#[must_use]
pub fn data_by_isp<'a, I>(records: I, dir: &AsnDirectory) -> DataByIsp
where
    I: IntoIterator<Item = RecordRef<'a>>,
{
    fold_records(DataByIspFold::new(dir), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plsim_capture::{RecordKind, TraceRecord};
    use plsim_des::{NodeId, SimTime};
    use plsim_proto::ChunkId;
    use std::net::Ipv4Addr;

    fn rows(records: &[TraceRecord]) -> impl Iterator<Item = RecordRef<'_>> {
        records.iter().map(TraceRecord::as_ref)
    }

    fn tele_ip(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(58, 0, 0, n)
    }
    fn cnc_ip(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(60, 0, 0, n)
    }

    fn record(kind: RecordKind, remote_ip: Ipv4Addr, remote_kind: RemoteKind) -> TraceRecord {
        TraceRecord {
            t: SimTime::ZERO,
            probe: NodeId(0),
            remote: NodeId(1),
            remote_ip,
            remote_kind,
            direction: Direction::Inbound,
            kind,
            wire_bytes: 100,
        }
    }

    #[test]
    fn returned_addresses_counts_duplicates() {
        let dir = AsnDirectory::new();
        let records = vec![
            record(
                RecordKind::PeerListResponse {
                    req_id: 1,
                    peer_ips: vec![tele_ip(1), tele_ip(1), cnc_ip(2)],
                },
                tele_ip(9),
                RemoteKind::Peer,
            ),
            record(
                RecordKind::TrackerResponse {
                    peer_ips: vec![tele_ip(3)],
                },
                cnc_ip(9),
                RemoteKind::Tracker,
            ),
        ];
        let out = fold_records(ReturnedAddressesFold::new(&dir), rows(&records));
        assert_eq!(out.total[Isp::Tele], 3);
        assert_eq!(out.total[Isp::Cnc], 1);
        assert_eq!(out.total.total(), 4);
    }

    #[test]
    fn source_breakdown_separates_peers_and_trackers() {
        let dir = AsnDirectory::new();
        let records = vec![
            record(
                RecordKind::PeerListResponse {
                    req_id: 1,
                    peer_ips: vec![tele_ip(1)],
                },
                tele_ip(9),
                RemoteKind::Peer,
            ),
            record(
                RecordKind::TrackerResponse {
                    peer_ips: vec![tele_ip(2)],
                },
                tele_ip(10),
                RemoteKind::Tracker,
            ),
        ];
        let out = returned_by_source(rows(&records), &dir);
        assert_eq!(out.len(), 2);
        let labels: Vec<String> = out.iter().map(|(s, _)| s.label()).collect();
        assert!(labels.contains(&"TELE_p".to_string()));
        assert!(labels.contains(&"TELE_s".to_string()));
    }

    #[test]
    fn other_peers_fold_into_other_p() {
        assert_eq!(ListSource::Peer(Isp::Foreign).label(), "OTHER_p");
        assert_eq!(ListSource::Peer(Isp::OtherCn).label(), "OTHER_p");
        assert_eq!(ListSource::Peer(Isp::Cer).label(), "CER_p");
    }

    #[test]
    fn data_by_isp_accumulates_and_computes_locality() {
        let dir = AsnDirectory::new();
        let mk = |ip: Ipv4Addr, bytes: u32| {
            record(
                RecordKind::DataReply {
                    seq: 0,
                    chunk: ChunkId(0),
                    payload_bytes: bytes,
                },
                ip,
                RemoteKind::Peer,
            )
        };
        let records = vec![
            mk(tele_ip(1), 3000),
            mk(tele_ip(2), 3000),
            mk(cnc_ip(1), 2000),
        ];
        let out = data_by_isp(rows(&records), &dir);
        assert_eq!(out.transmissions[Isp::Tele], 2);
        assert_eq!(out.bytes.total(), 8000);
        assert!((out.locality(Isp::Tele) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn outbound_records_are_ignored() {
        let dir = AsnDirectory::new();
        let mut r = record(
            RecordKind::DataReply {
                seq: 0,
                chunk: ChunkId(0),
                payload_bytes: 500,
            },
            tele_ip(1),
            RemoteKind::Peer,
        );
        r.direction = Direction::Outbound;
        let out = data_by_isp([r.as_ref()], &dir);
        assert_eq!(out.bytes.total(), 0);
    }
}
