//! # pplive-locality — reproduction harness for the ICDCS'09 PPLive
//! traffic-locality study
//!
//! This crate ties the whole reproduction together:
//!
//! * [`Scenario`] / [`ScenarioRun`] — one measurement session (channel +
//!   audience + probes) at a chosen [`Scale`], built on the `plsim-*`
//!   substrate crates (DES kernel, underlay, protocol, nodes, capture,
//!   analysis);
//! * [`Suite`] — the popular + unpopular pair every figure draws from;
//! * one function per paper artifact: [`figs_2_to_5`], [`fig_6_on`],
//!   [`response_times`] (Figures 7–10 + Table 1), [`figs_11_to_14`],
//!   [`figs_15_to_18`];
//! * the design ablations ([`ablation_grid`], [`underlay_ablation_grid`])
//!   and the stretched-exponential workload round trip
//!   ([`workload_round_trip`]);
//! * the selection-policy transit-savings frontier
//!   ([`locality_frontier_seeds`]) — what engineered locality saves in
//!   transit traffic and costs in startup delay/stalls, per [`PolicySpec`];
//! * [`sweep`] over a [`JobPool`] — the one deterministic fan-out every
//!   multi-run artifact is a grid of labelled scenarios over (the caller
//!   picks the thread count; `plsim --threads N` on the command line),
//!   with row-order merging so parallel output is bit-identical to
//!   sequential output;
//! * plain-text rendering ([`render_table`] and per-figure `render`
//!   helpers) used by the examples and the benchmark harness.
//!
//! # Examples
//!
//! ```no_run
//! use pplive_locality::{figs_2_to_5, Scale, Suite};
//!
//! let suite = Suite::run(Scale::Reduced, 42);
//! for fig in figs_2_to_5(&suite) {
//!     println!("{}", fig.render());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod engine;
mod experiments;
mod export;
mod faults;
mod frontier;
mod render;
mod scenario;

pub use engine::{sweep, DispatchStats, JobPool};
pub use experiments::{
    ablation_grid, fig_6_grid, fig_6_on, figs_11_to_14, figs_15_to_18, figs_2_to_5,
    render_ablation, render_fig11_14, render_fig15_18, render_fig7_10, render_table1,
    render_underlay_ablation, response_times, underlay_ablation_grid, workload_round_trip,
    AblationResult, ContributionCell, DayLocality, FourWeeks, LocalityFigure, ResponseCell,
    RttCell, Suite, WorkloadRoundTrip, CELLS,
};
pub use export::{
    contributions_csv, export_suite, fault_plan_json, fig6_csv, locality_csv, response_samples_csv,
    suite_metrics_json, to_csv,
};
pub use faults::{
    all_presets, churn_storm, combined_chaos, interconnect_degradation, loss_surge,
    tele_cnc_partition, tracker_blackout, tracker_outage_early,
};
pub use frontier::{
    frontier_bands, frontier_bands_csv, frontier_csv, frontier_grid, locality_frontier_seeds,
    render_frontier, render_frontier_bands, Band, FrontierBand, FrontierPoint,
};
pub use plsim_net::LinkFault;
pub use plsim_node::{
    check_world, Fault, FaultPlan, InvariantReport, InvariantViolation, PlaybackSummary, PolicySpec,
};
pub use plsim_telemetry::{GaugeValue, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use render::{pct, render_table, secs};
pub use scenario::{ProbeSite, Scale, Scenario, ScenarioRun};
