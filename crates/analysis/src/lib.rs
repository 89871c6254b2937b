//! # plsim-analysis — the paper's measurement analysis pipeline
//!
//! Turns probe captures into exactly the quantities the paper's evaluation
//! section plots. Every analysis streams borrowed
//! [`plsim_capture::RecordRef`] rows, so a
//! [`plsim_capture::TraceStore`] can be analyzed in place — pass the store
//! itself (it iterates its rows) or any row cursor such as
//! [`plsim_capture::TraceStore::rows_for`]:
//!
//! * §3.2 (Figures 2–6): [`ReturnedAddressesFold`], [`returned_by_source`],
//!   [`data_by_isp`] and the per-session locality percentage;
//! * §3.3 (Figures 7–10, Table 1): [`peer_list_response_times`] and
//!   [`data_response_times`] with per-ISP-group averages;
//! * §3.4 (Figures 11–14): [`contribution_analysis`] — unique connected
//!   peers per ISP, request rank distributions with Zipf and
//!   stretched-exponential fits, contribution CDFs and top-10% shares;
//! * §3.5 (Figures 15–18): min-response-time RTT estimation and the
//!   log-log request/RTT correlation;
//! * the overlay-structure claims of §1 ("triangle construction", ISP
//!   clusters): [`OverlayFold`] builds the subgraph visible in gossip
//!   replies and measures triangles, clustering and ISP assortativity.
//!
//! [`ProbeReport`] bundles all of it for one probe. ISP classification uses
//! the [`plsim_net::AsnDirectory`] oracle exactly the way the authors used
//! Team Cymru's IP→ASN service.
//!
//! Every analysis is implemented as a single-pass [`RecordFold`] (see the
//! [`fold_records`] driver): rows are consumed as they stream off the
//! cursor and only the fold's own accumulator state is retained, so peak
//! memory stays bounded even when the store has spilled pages to disk.
//! [`ProbeReport::new`] multiplexes one cursor pass into all seven folds.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod contributions;
mod fold;
mod locality;
mod overlay;
mod perisp;
mod probe;
mod response;

pub use contributions::{
    contribution_analysis, ContributionAnalysis, ContributionFold, PeerContribution,
};
pub use fold::{fold_records, RecordFold};
pub use locality::{
    data_by_isp, returned_by_source, DataByIsp, DataByIspFold, ListSource, ReturnedAddresses,
    ReturnedAddressesFold, ReturnedBySourceFold,
};
pub use overlay::{OverlayFold, OverlayStats};
pub use perisp::{PerGroup, PerIsp};
pub use probe::ProbeReport;
pub use response::{
    data_response_times, peer_list_response_times, ResponseTimes, ResponseTimesFold, RtSample,
};
