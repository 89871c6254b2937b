//! Response-time analysis: the paper's §3.3 (Figures 7–10, Table 1).
//!
//! Requests are matched to replies exactly as the authors matched them in
//! their captures: data exchanges by sequence number, peer-list exchanges by
//! correlation id (the paper matched "the peer list reply to the latest
//! request designated to the same IP address"; our protocol carries an
//! explicit id, which is the same matching made exact).

use crate::fold::{fold_records, RecordFold};
use crate::PerGroup;
use plsim_capture::{Direction, KindRef, RecordRef, RemoteKind};
use plsim_des::{DetHashMap, SimTime};
use plsim_net::{AsnDirectory, IspGroup};
use serde::{Deserialize, Serialize};

/// One matched request/response pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RtSample {
    /// When the probe sent the request.
    pub sent_at: SimTime,
    /// Response time in seconds.
    pub rt_secs: f64,
    /// The replier's ISP group (TELE / CNC / OTHER).
    pub group: IspGroup,
}

/// Response-time series with per-group aggregates.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResponseTimes {
    /// All matched samples in request order.
    pub samples: Vec<RtSample>,
    /// Requests that never got an answer (the paper observed a non-trivial
    /// number of unanswered peer-list requests).
    pub unanswered: u64,
}

impl ResponseTimes {
    /// Samples of one group, in request order.
    #[must_use]
    pub fn of_group(&self, group: IspGroup) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.group == group)
            .map(|s| s.rt_secs)
            .collect()
    }

    /// Mean response time per group (`None` for groups with no samples).
    #[must_use]
    pub fn averages(&self) -> PerGroup<Option<f64>> {
        let mut sums: PerGroup<(f64, u64)> = PerGroup::default();
        for s in &self.samples {
            let e = &mut sums[s.group];
            e.0 += s.rt_secs;
            e.1 += 1;
        }
        let mut out: PerGroup<Option<f64>> = PerGroup::default();
        for g in IspGroup::ALL {
            let (sum, n) = sums[g];
            out[g] = if n == 0 { None } else { Some(sum / n as f64) };
        }
        out
    }
}

impl ResponseTimes {
    /// Windowed mean response times of one group along the session — the
    /// time-series view the paper's Figures 7–10 plot. Returns
    /// `(window_start_secs, mean_rt_secs, samples)` per non-empty window.
    ///
    /// # Panics
    ///
    /// Panics if `window_secs` is zero.
    #[must_use]
    pub fn windowed(&self, group: IspGroup, window_secs: u64) -> Vec<(u64, f64, usize)> {
        assert!(window_secs > 0, "window must be positive");
        let mut buckets: std::collections::BTreeMap<u64, (f64, usize)> =
            std::collections::BTreeMap::new();
        for s in self.samples.iter().filter(|s| s.group == group) {
            let w = s.sent_at.as_secs() / window_secs * window_secs;
            let e = buckets.entry(w).or_insert((0.0, 0));
            e.0 += s.rt_secs;
            e.1 += 1;
        }
        buckets
            .into_iter()
            .map(|(w, (sum, n))| (w, sum / n as f64, n))
            .collect()
    }
}

/// Which request/response exchange a matcher tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RtMode {
    /// Peer-list gossip, matched by correlation id (Figures 7–10).
    PeerList,
    /// Data exchange, matched by sequence number (Table 1).
    Data,
}

/// Shared request/response matcher: the streaming core of both response
/// time analyses. State is O(outstanding requests), not O(records), in a
/// deterministic FNV-1a map that is only probed, never walked.
#[derive(Debug)]
struct RtMatcher<'d> {
    mode: RtMode,
    dir: &'d AsnDirectory,
    pending: DetHashMap<u64, SimTime>,
}

impl<'d> RtMatcher<'d> {
    fn new(mode: RtMode, dir: &'d AsnDirectory) -> Self {
        RtMatcher {
            mode,
            dir,
            pending: DetHashMap::default(),
        }
    }

    /// Folds one record; returns the matched sample when `r` closes an
    /// outstanding request from a classifiable replier.
    fn push(&mut self, r: RecordRef<'_>) -> Option<RtSample> {
        match (self.mode, r.kind, r.direction) {
            (RtMode::PeerList, KindRef::PeerListRequest { req_id }, Direction::Outbound) => {
                self.pending.insert(req_id, r.t);
                None
            }
            (RtMode::PeerList, KindRef::PeerListResponse { req_id, .. }, Direction::Inbound) => {
                if !matches!(r.remote_kind, RemoteKind::Peer | RemoteKind::Source) {
                    return None;
                }
                let sent = self.pending.remove(&req_id)?;
                self.sample(sent, r)
            }
            (RtMode::Data, KindRef::DataRequest { seq, .. }, Direction::Outbound) => {
                self.pending.insert(seq, r.t);
                None
            }
            (RtMode::Data, KindRef::DataReply { seq, .. }, Direction::Inbound) => {
                let sent = self.pending.remove(&seq)?;
                self.sample(sent, r)
            }
            (RtMode::Data, KindRef::DataReject { seq, .. }, Direction::Inbound) => {
                self.pending.remove(&seq);
                None
            }
            _ => None,
        }
    }

    fn sample(&self, sent: SimTime, r: RecordRef<'_>) -> Option<RtSample> {
        let isp = self.dir.isp_of(r.remote_ip)?;
        Some(RtSample {
            sent_at: sent,
            rt_secs: r.t.saturating_sub(sent).as_secs_f64(),
            group: isp.group(),
        })
    }

    fn unanswered(&self) -> u64 {
        self.pending.len() as u64
    }
}

/// Streaming fold producing the full [`ResponseTimes`] series — the
/// figure-sized output (it retains one sample per matched exchange, which
/// the time-series plots need).
#[derive(Debug)]
pub struct ResponseTimesFold<'d> {
    matcher: RtMatcher<'d>,
    out: ResponseTimes,
}

impl<'d> ResponseTimesFold<'d> {
    /// A peer-list response-time fold (Figures 7–10).
    #[must_use]
    pub fn peer_list(dir: &'d AsnDirectory) -> Self {
        ResponseTimesFold {
            matcher: RtMatcher::new(RtMode::PeerList, dir),
            out: ResponseTimes::default(),
        }
    }

    /// A data response-time fold (Table 1).
    #[must_use]
    pub fn data(dir: &'d AsnDirectory) -> Self {
        ResponseTimesFold {
            matcher: RtMatcher::new(RtMode::Data, dir),
            out: ResponseTimes::default(),
        }
    }
}

impl RecordFold for ResponseTimesFold<'_> {
    type Output = ResponseTimes;

    fn push(&mut self, r: RecordRef<'_>) {
        if let Some(s) = self.matcher.push(r) {
            self.out.samples.push(s);
        }
    }

    fn finish(mut self) -> ResponseTimes {
        self.out.unanswered = self.matcher.unanswered();
        self.out.samples.sort_by_key(|s| s.sent_at);
        self.out
    }
}

/// Matches outbound peer-list requests to inbound responses (Figures 7–10).
///
/// Only regular peers and the source count as repliers; tracker responses
/// are a different mechanism and are excluded, as in the figures.
#[must_use]
pub fn peer_list_response_times<'a, I>(records: I, dir: &AsnDirectory) -> ResponseTimes
where
    I: IntoIterator<Item = RecordRef<'a>>,
{
    fold_records(ResponseTimesFold::peer_list(dir), records)
}

/// Matches outbound data requests to inbound data replies by sequence
/// number (Table 1). Rejects do not count as answers.
#[must_use]
pub fn data_response_times<'a, I>(records: I, dir: &AsnDirectory) -> ResponseTimes
where
    I: IntoIterator<Item = RecordRef<'a>>,
{
    fold_records(ResponseTimesFold::data(dir), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plsim_capture::{RecordKind, TraceRecord};
    use plsim_des::NodeId;
    use plsim_net::Isp;
    use plsim_proto::ChunkId;
    use std::net::Ipv4Addr;

    fn rows(records: &[TraceRecord]) -> impl Iterator<Item = RecordRef<'_>> {
        records.iter().map(TraceRecord::as_ref)
    }

    fn rec(
        t_ms: u64,
        direction: Direction,
        kind: RecordKind,
        remote_ip: Ipv4Addr,
        remote_kind: RemoteKind,
    ) -> TraceRecord {
        TraceRecord {
            t: SimTime::from_millis(t_ms),
            probe: NodeId(0),
            remote: NodeId(1),
            remote_ip,
            remote_kind,
            direction,
            kind,
            wire_bytes: 0,
        }
    }

    #[test]
    fn peer_list_matching_computes_rt_and_groups() {
        let dir = AsnDirectory::new();
        let records = vec![
            rec(
                1000,
                Direction::Outbound,
                RecordKind::PeerListRequest { req_id: 1 },
                Ipv4Addr::new(58, 0, 0, 1),
                RemoteKind::Peer,
            ),
            rec(
                1500,
                Direction::Inbound,
                RecordKind::PeerListResponse {
                    req_id: 1,
                    peer_ips: vec![],
                },
                Ipv4Addr::new(58, 0, 0, 1),
                RemoteKind::Peer,
            ),
            // Unanswered request.
            rec(
                2000,
                Direction::Outbound,
                RecordKind::PeerListRequest { req_id: 2 },
                Ipv4Addr::new(60, 0, 0, 1),
                RemoteKind::Peer,
            ),
        ];
        let out = peer_list_response_times(rows(&records), &dir);
        assert_eq!(out.samples.len(), 1);
        assert!((out.samples[0].rt_secs - 0.5).abs() < 1e-9);
        assert_eq!(out.samples[0].group, Isp::Tele.group());
        assert_eq!(out.unanswered, 1);
    }

    #[test]
    fn tracker_replies_are_excluded_from_peer_list_series() {
        let dir = AsnDirectory::new();
        let records = vec![
            rec(
                0,
                Direction::Outbound,
                RecordKind::PeerListRequest { req_id: 7 },
                Ipv4Addr::new(58, 0, 0, 1),
                RemoteKind::Tracker,
            ),
            rec(
                100,
                Direction::Inbound,
                RecordKind::PeerListResponse {
                    req_id: 7,
                    peer_ips: vec![],
                },
                Ipv4Addr::new(58, 0, 0, 1),
                RemoteKind::Tracker,
            ),
        ];
        let out = peer_list_response_times(rows(&records), &dir);
        assert!(out.samples.is_empty());
    }

    #[test]
    fn data_matching_ignores_rejects_as_answers() {
        let dir = AsnDirectory::new();
        let ip = Ipv4Addr::new(60, 0, 0, 1);
        let records = vec![
            rec(
                0,
                Direction::Outbound,
                RecordKind::DataRequest {
                    seq: 1,
                    chunk: ChunkId(0),
                },
                ip,
                RemoteKind::Peer,
            ),
            rec(
                200,
                Direction::Inbound,
                RecordKind::DataReply {
                    seq: 1,
                    chunk: ChunkId(0),
                    payload_bytes: 1380,
                },
                ip,
                RemoteKind::Peer,
            ),
            rec(
                300,
                Direction::Outbound,
                RecordKind::DataRequest {
                    seq: 2,
                    chunk: ChunkId(1),
                },
                ip,
                RemoteKind::Peer,
            ),
            rec(
                350,
                Direction::Inbound,
                RecordKind::DataReject {
                    seq: 2,
                    busy: false,
                },
                ip,
                RemoteKind::Peer,
            ),
        ];
        let out = data_response_times(rows(&records), &dir);
        assert_eq!(out.samples.len(), 1);
        assert_eq!(out.unanswered, 0);
        let avgs = out.averages();
        assert!(avgs[IspGroup::Cnc].is_some());
        assert!(avgs[IspGroup::Tele].is_none());
    }

    #[test]
    fn windowed_series_buckets_by_time() {
        let mut rt = ResponseTimes::default();
        for (t_s, v) in [(10u64, 0.2), (20, 0.4), (70, 1.0), (200, 2.0)] {
            rt.samples.push(RtSample {
                sent_at: SimTime::from_secs(t_s),
                rt_secs: v,
                group: IspGroup::Tele,
            });
        }
        let w = rt.windowed(IspGroup::Tele, 60);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].0, 0);
        assert!((w[0].1 - 0.3).abs() < 1e-12);
        assert_eq!(w[0].2, 2);
        assert_eq!(w[1], (60, 1.0, 1));
        assert_eq!(w[2], (180, 2.0, 1));
        assert!(rt.windowed(IspGroup::Cnc, 60).is_empty());
    }

    #[test]
    fn averages_per_group() {
        let mut rt = ResponseTimes::default();
        for (g, v) in [
            (IspGroup::Tele, 0.2),
            (IspGroup::Tele, 0.4),
            (IspGroup::Other, 1.0),
        ] {
            rt.samples.push(RtSample {
                sent_at: SimTime::ZERO,
                rt_secs: v,
                group: g,
            });
        }
        let a = rt.averages();
        assert!((a[IspGroup::Tele].unwrap() - 0.3).abs() < 1e-12);
        assert!((a[IspGroup::Other].unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(a[IspGroup::Cnc], None);
        assert_eq!(rt.of_group(IspGroup::Tele).len(), 2);
    }
}
