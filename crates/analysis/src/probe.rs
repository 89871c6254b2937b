//! One-call per-probe analysis bundling every figure's data.

use crate::contributions::{ContributionAnalysis, ContributionFold};
use crate::fold::RecordFold;
use crate::locality::{
    DataByIsp, DataByIspFold, ListSource, ReturnedAddressesFold, ReturnedBySourceFold,
};
use crate::overlay::{OverlayFold, OverlayStats};
use crate::response::{ResponseTimes, ResponseTimesFold};
use crate::PerIsp;
use plsim_capture::TraceStore;
use plsim_des::NodeId;
use plsim_net::{AsnDirectory, Isp};
use serde::{Deserialize, Serialize};

/// The complete §3 analysis of one probe's capture: every quantity the
/// paper plots, computed in one pass over the records.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbeReport {
    /// The probe host.
    pub probe: NodeId,
    /// The probe's ISP.
    pub home_isp: Isp,
    /// Figures 2a–5a: returned addresses per ISP (with duplicates).
    pub returned: PerIsp<u64>,
    /// Figures 2b–5b: returned addresses broken down by source.
    pub returned_by_source: Vec<(ListSource, PerIsp<u64>)>,
    /// Figures 2c–5c: data transmissions and bytes per serving ISP.
    pub data: DataByIsp,
    /// Figures 7–10: peer-list response times.
    pub peer_list_rt: ResponseTimes,
    /// Table 1: data-request response times.
    pub data_rt: ResponseTimes,
    /// Figures 11–18: per-peer contributions, fits and RTT correlation.
    pub contributions: ContributionAnalysis,
    /// Overlay-structure metrics (§1's triangle-construction claim).
    pub overlay: OverlayStats,
}

impl ProbeReport {
    /// Analyzes the records of `probe` (other probes' records are ignored).
    ///
    /// The probe's rows are streamed off the store's pages (under a capture
    /// budget, spilled ones included) exactly once: every [`RecordRef`] is
    /// fed to all seven analysis folds before the cursor moves on, so peak
    /// memory is one decoded page plus the folds' own accumulator state —
    /// never a materialized per-probe row list.
    ///
    /// [`RecordRef`]: plsim_capture::RecordRef
    #[must_use]
    pub fn new(
        probe: NodeId,
        home_isp: Isp,
        records: &TraceStore,
        dir: &AsnDirectory,
    ) -> ProbeReport {
        let mut returned = ReturnedAddressesFold::new(dir);
        let mut by_source = ReturnedBySourceFold::new(dir);
        let mut data = DataByIspFold::new(dir);
        let mut peer_list_rt = ResponseTimesFold::peer_list(dir);
        let mut data_rt = ResponseTimesFold::data(dir);
        let mut contributions = ContributionFold::new(dir);
        let mut overlay = OverlayFold::new(dir);
        for r in records.rows_for(probe) {
            returned.push(r);
            by_source.push(r);
            data.push(r);
            peer_list_rt.push(r);
            data_rt.push(r);
            contributions.push(r);
            overlay.push(r);
        }
        ProbeReport {
            probe,
            home_isp,
            returned: returned.finish().total,
            returned_by_source: by_source.finish(),
            data: data.finish(),
            peer_list_rt: peer_list_rt.finish(),
            data_rt: data_rt.finish(),
            contributions: contributions.finish(),
            overlay: overlay.finish(),
        }
    }

    /// Traffic locality: fraction of received bytes served from the home
    /// ISP (the paper's Figure 6 metric).
    #[must_use]
    pub fn locality(&self) -> f64 {
        self.data.locality(self.home_isp)
    }

    /// Fraction of returned addresses in the home ISP ("potential
    /// locality", Figures 2a–5a).
    #[must_use]
    pub fn returned_home_fraction(&self) -> f64 {
        self.returned.fraction(self.home_isp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plsim_capture::{Direction, RecordKind, RemoteKind, TraceRecord};
    use plsim_des::SimTime;
    use plsim_proto::ChunkId;
    use std::net::Ipv4Addr;

    #[test]
    fn report_filters_by_probe() {
        let dir = AsnDirectory::new();
        let mk = |probe: u32| TraceRecord {
            t: SimTime::ZERO,
            probe: NodeId(probe),
            remote: NodeId(99),
            remote_ip: Ipv4Addr::new(58, 0, 0, 1),
            remote_kind: RemoteKind::Peer,
            direction: Direction::Inbound,
            kind: RecordKind::DataReply {
                seq: 1,
                chunk: ChunkId(0),
                payload_bytes: 1380,
            },
            wire_bytes: 1426,
        };
        let records = TraceStore::from_records(&[mk(0), mk(1), mk(1)]);
        let report = ProbeReport::new(NodeId(1), Isp::Tele, &records, &dir);
        assert_eq!(report.data.bytes.total(), 2760);
        assert!((report.locality() - 1.0).abs() < 1e-12);
    }
}
