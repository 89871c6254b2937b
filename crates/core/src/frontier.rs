//! The transit-savings frontier: what engineered locality buys and costs.
//!
//! The paper observes that PPLive's locality *emerges* from timing rather
//! than design, and asks (§V) how much transit traffic an ISP could save by
//! engineering it — e.g. the "deep diving" managed-peer idea — without
//! hurting playback. This module sweeps the [`PolicySpec`] space on the
//! popular channel and reports, per policy, the cross-ISP traffic share,
//! the transit savings relative to the unmodified gossip race, and the QoE
//! price (startup delay, stall ratio, fraction of peers that ever started).
//!
//! The first point of every sweep is the [`PolicySpec::GossipRace`] anchor;
//! savings are computed against its cross-ISP byte count, so the anchor row
//! always reads 0% savings. The quota axis of [`PolicySpec::BiasedLocality`]
//! is swept from effectively-unbounded down to zero: the far end starves
//! every viewer outside the source's ISP and is *meant* to look bad — that
//! cliff is the frontier's whole point.

use crate::engine::{sweep, JobPool};
use crate::render::{pct, render_table, secs};
use crate::scenario::{ProbeSite, Scale, Scenario, ScenarioRun};
use plsim_des::SimTime;
use plsim_node::{PlaybackSummary, PolicySpec};
use plsim_workload::ChannelClass;
use serde::{Deserialize, Serialize};

/// One policy's position on the transit-savings frontier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Policy label ([`PolicySpec::label`]), unique within a sweep.
    pub label: String,
    /// The policy that produced this point.
    pub policy: PolicySpec,
    /// Bytes the population downloaded from cross-ISP neighbors.
    pub cross_isp_bytes: u64,
    /// Total bytes the population downloaded.
    pub total_bytes: u64,
    /// `cross_isp_bytes / total_bytes` (0 when nothing was downloaded).
    pub cross_isp_share: f64,
    /// Transit bytes saved relative to the sweep's gossip-race anchor:
    /// `1 - cross_isp_bytes / anchor_cross_isp_bytes`. Negative means the
    /// policy *increased* transit traffic.
    pub transit_savings: f64,
    /// TELE probe traffic locality (the paper's headline metric).
    pub tele_locality: f64,
    /// Fraction of viewers whose playback ever started.
    pub started_fraction: f64,
    /// Mean stall ratio over peers that started (`None` if none did).
    pub mean_stall_ratio: Option<f64>,
    /// Mean startup delay in seconds over peers that started.
    pub mean_startup_delay_s: Option<f64>,
}

/// The policies a frontier sweep compares, anchor first.
///
/// `smoke` keeps three points (anchor, the default quota, and the starving
/// quota-zero extreme) for CI; the full sweep adds the non-quota policies
/// and walks the quota axis.
fn frontier_policies(smoke: bool) -> Vec<PolicySpec> {
    if smoke {
        return vec![
            PolicySpec::GossipRace,
            PolicySpec::BiasedLocality { cross_isp_quota: 2 },
            PolicySpec::BiasedLocality { cross_isp_quota: 0 },
        ];
    }
    vec![
        PolicySpec::GossipRace,
        PolicySpec::TrackerOnly,
        PolicySpec::RttThreshold {
            cutoff: SimTime::from_millis(100),
        },
        PolicySpec::DeepDivingOracle,
        PolicySpec::BiasedLocality { cross_isp_quota: 8 },
        PolicySpec::BiasedLocality { cross_isp_quota: 4 },
        PolicySpec::BiasedLocality { cross_isp_quota: 2 },
        PolicySpec::BiasedLocality { cross_isp_quota: 1 },
        PolicySpec::BiasedLocality { cross_isp_quota: 0 },
    ]
}

/// Measures one finished session into its frontier point (savings are
/// filled later, against the sweep's anchor).
fn frontier_point(policy: PolicySpec, run: &ScenarioRun) -> FrontierPoint {
    let m = run.metrics();
    let same = m.counter("node.bytes_down_same_isp").unwrap_or(0);
    let cross = m.counter("node.bytes_down_cross_isp").unwrap_or(0);
    let total = same + cross;
    let summary = PlaybackSummary::summarize(&run.output.peer_stats);
    FrontierPoint {
        label: policy.label(),
        policy,
        cross_isp_bytes: cross,
        total_bytes: total,
        cross_isp_share: if total == 0 {
            0.0
        } else {
            cross as f64 / total as f64
        },
        transit_savings: 0.0, // filled against the anchor below
        tele_locality: run.locality_avg(ProbeSite::Tele),
        started_fraction: if summary.peers == 0 {
            0.0
        } else {
            summary.started as f64 / summary.peers as f64
        },
        mean_stall_ratio: summary.mean_stall_ratio,
        mean_startup_delay_s: summary.mean_startup_delay.map(SimTime::as_secs_f64),
    }
}

/// Computes every point's transit savings against the sweep's first
/// (gossip-race anchor) point.
fn fill_savings(points: &mut [FrontierPoint]) {
    let anchor = points.first().map_or(0, |p| p.cross_isp_bytes);
    for p in points {
        p.transit_savings = if anchor == 0 {
            0.0
        } else {
            1.0 - p.cross_isp_bytes as f64 / anchor as f64
        };
    }
}

/// The frontier grid: one popular-channel session per policy (three for
/// `smoke`, nine otherwise; the gossip-race anchor first) at each of
/// `seeds` consecutive seeds (`seed`, `seed + 1`, …), seed-major, each
/// row labelled by its policy.
#[must_use]
pub fn frontier_grid(scale: Scale, seed: u64, smoke: bool, seeds: u64) -> Vec<(String, Scenario)> {
    (0..seeds.max(1))
        .flat_map(|off| {
            frontier_policies(smoke).into_iter().map(move |policy| {
                let mut scenario = Scenario::new(ChannelClass::Popular, scale, seed + off);
                scenario.policy = policy;
                (policy.label(), scenario)
            })
        })
        .collect()
}

/// Runs the [`frontier_grid`] on `pool` and returns one complete per-seed
/// sweep each, in seed order, bit-identical however many workers ran it.
/// Savings are computed against each seed's own gossip-race anchor.
#[must_use]
pub fn locality_frontier_seeds(
    pool: &JobPool,
    scale: Scale,
    seed: u64,
    smoke: bool,
    seeds: u64,
) -> Vec<Vec<FrontierPoint>> {
    let grid = frontier_grid(scale, seed, smoke, seeds);
    let points = sweep(pool, grid, |_, scenario, run| {
        frontier_point(scenario.policy, &run)
    });
    points
        .chunks(frontier_policies(smoke).len())
        .map(|one_seed| {
            let mut one_seed = one_seed.to_vec();
            fill_savings(&mut one_seed);
            one_seed
        })
        .collect()
}

/// A cross-seed summary of one scalar metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Band {
    /// Mean over seeds.
    pub mean: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl Band {
    fn over(values: impl Iterator<Item = f64> + Clone) -> Band {
        let n = values.clone().count().max(1) as f64;
        Band {
            mean: values.clone().sum::<f64>() / n,
            min: values.clone().fold(f64::INFINITY, f64::min),
            max: values.fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// One policy's cross-seed frontier position: mean and min/max bands of
/// the headline metrics over every seed of a multi-seed sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontierBand {
    /// Policy label.
    pub label: String,
    /// The policy.
    pub policy: PolicySpec,
    /// Seeds aggregated.
    pub seeds: u64,
    /// Cross-ISP traffic share.
    pub cross_isp_share: Band,
    /// Transit savings vs. each seed's own anchor.
    pub transit_savings: Band,
    /// TELE probe locality.
    pub tele_locality: Band,
    /// Fraction of viewers that started playback.
    pub started_fraction: Band,
}

/// Collapses per-seed sweeps (as returned by [`locality_frontier_seeds`])
/// into one banded row per policy.
///
/// # Panics
///
/// Panics if the sweeps disagree on the policy list.
#[must_use]
pub fn frontier_bands(sweeps: &[Vec<FrontierPoint>]) -> Vec<FrontierBand> {
    let Some(first) = sweeps.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, p0)| {
            let rows: Vec<&FrontierPoint> = sweeps
                .iter()
                .map(|sweep| {
                    let row = &sweep[i];
                    assert_eq!(row.label, p0.label, "sweeps disagree on policy order");
                    row
                })
                .collect();
            let band = |f: fn(&FrontierPoint) -> f64| Band::over(rows.iter().map(|r| f(r)));
            FrontierBand {
                label: p0.label.clone(),
                policy: p0.policy,
                seeds: sweeps.len() as u64,
                cross_isp_share: band(|r| r.cross_isp_share),
                transit_savings: band(|r| r.transit_savings),
                tele_locality: band(|r| r.tele_locality),
                started_fraction: band(|r| r.started_fraction),
            }
        })
        .collect()
}

/// Renders the frontier as an aligned text table.
#[must_use]
pub fn render_frontier(points: &[FrontierPoint]) -> String {
    let mut rows = vec![vec![
        "policy".to_string(),
        "cross-ISP share".to_string(),
        "transit savings".to_string(),
        "TELE locality".to_string(),
        "started".to_string(),
        "stall ratio".to_string(),
        "startup (s)".to_string(),
    ]];
    for p in points {
        rows.push(vec![
            p.label.clone(),
            pct(p.cross_isp_share),
            pct(p.transit_savings),
            pct(p.tele_locality),
            pct(p.started_fraction),
            p.mean_stall_ratio
                .map_or_else(|| "-".to_string(), |v| format!("{v:.4}")),
            secs(p.mean_startup_delay_s),
        ]);
    }
    render_table(&rows)
}

/// Serializes the frontier as CSV (stable column order, `-` for absent
/// QoE values).
#[must_use]
pub fn frontier_csv(points: &[FrontierPoint]) -> String {
    let mut out = String::from(
        "policy,cross_isp_bytes,total_bytes,cross_isp_share,transit_savings,\
         tele_locality,started_fraction,mean_stall_ratio,mean_startup_delay_s\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{:.6},{:.6},{:.6},{:.6},{},{}\n",
            p.label,
            p.cross_isp_bytes,
            p.total_bytes,
            p.cross_isp_share,
            p.transit_savings,
            p.tele_locality,
            p.started_fraction,
            p.mean_stall_ratio
                .map_or_else(|| "-".to_string(), |v| format!("{v:.6}")),
            p.mean_startup_delay_s
                .map_or_else(|| "-".to_string(), |v| format!("{v:.6}")),
        ));
    }
    out
}

/// Renders a banded multi-seed frontier as an aligned text table
/// (`mean [min, max]` per metric).
#[must_use]
pub fn render_frontier_bands(bands: &[FrontierBand]) -> String {
    let cell = |b: Band| format!("{} [{}, {}]", pct(b.mean), pct(b.min), pct(b.max));
    let mut rows = vec![vec![
        "policy".to_string(),
        "cross-ISP share".to_string(),
        "transit savings".to_string(),
        "TELE locality".to_string(),
        "started".to_string(),
    ]];
    for b in bands {
        rows.push(vec![
            b.label.clone(),
            cell(b.cross_isp_share),
            cell(b.transit_savings),
            cell(b.tele_locality),
            cell(b.started_fraction),
        ]);
    }
    render_table(&rows)
}

/// Serializes a banded multi-seed frontier as CSV: per metric, a
/// `_mean`/`_min`/`_max` column triple.
#[must_use]
pub fn frontier_bands_csv(bands: &[FrontierBand]) -> String {
    let mut out = String::from("policy,seeds");
    for metric in [
        "cross_isp_share",
        "transit_savings",
        "tele_locality",
        "started_fraction",
    ] {
        for stat in ["mean", "min", "max"] {
            out.push_str(&format!(",{metric}_{stat}"));
        }
    }
    out.push('\n');
    for b in bands {
        out.push_str(&format!("{},{}", b.label, b.seeds));
        for band in [
            b.cross_isp_share,
            b.transit_savings,
            b.tele_locality,
            b.started_fraction,
        ] {
            out.push_str(&format!(
                ",{:.6},{:.6},{:.6}",
                band.mean, band.min, band.max
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_lists_are_anchored_and_deduplicated() {
        for smoke in [true, false] {
            let specs = frontier_policies(smoke);
            assert_eq!(specs[0], PolicySpec::GossipRace, "anchor must come first");
            let labels: Vec<String> = specs.iter().map(PolicySpec::label).collect();
            let mut unique = labels.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), labels.len(), "duplicate policy in sweep");
        }
        assert_eq!(frontier_policies(true).len(), 3);
        assert!(frontier_policies(false).len() >= 5);
    }

    #[test]
    fn smoke_sweep_produces_consistent_points() {
        let points =
            locality_frontier_seeds(&JobPool::default(), Scale::Tiny, 42, true, 1).remove(0);
        assert_eq!(points.len(), 3);
        let anchor = &points[0];
        assert_eq!(anchor.policy, PolicySpec::GossipRace);
        assert!(
            anchor.transit_savings.abs() < 1e-12,
            "anchor must save nothing relative to itself"
        );
        for p in &points {
            assert!(p.total_bytes > 0, "{}: no traffic at all", p.label);
            assert!(
                (0.0..=1.0).contains(&p.cross_isp_share),
                "{}: share {} out of range",
                p.label,
                p.cross_isp_share
            );
            assert!(p.transit_savings <= 1.0 + 1e-12);
        }
        // CSV and table cover every point.
        let csv = frontier_csv(&points);
        assert_eq!(csv.lines().count(), 1 + points.len());
        let table = render_frontier(&points);
        for p in &points {
            assert!(csv.contains(&p.label) && table.contains(&p.label));
        }
    }

    #[test]
    fn bands_cover_min_mean_max_across_seeds() {
        let sweeps = locality_frontier_seeds(&JobPool::default(), Scale::Tiny, 42, true, 2);
        assert_eq!(sweeps.len(), 2);
        let bands = frontier_bands(&sweeps);
        assert_eq!(bands.len(), sweeps[0].len());
        for (i, b) in bands.iter().enumerate() {
            assert_eq!(b.seeds, 2);
            assert_eq!(b.label, sweeps[0][i].label);
            for band in [
                b.cross_isp_share,
                b.transit_savings,
                b.tele_locality,
                b.started_fraction,
            ] {
                assert!(band.min <= band.mean + 1e-12 && band.mean <= band.max + 1e-12);
            }
            let shares: Vec<f64> = sweeps.iter().map(|s| s[i].cross_isp_share).collect();
            assert!((b.cross_isp_share.mean - shares.iter().sum::<f64>() / 2.0).abs() < 1e-12);
        }
        let csv = frontier_bands_csv(&bands);
        assert!(csv.starts_with("policy,seeds,cross_isp_share_mean,"));
        assert_eq!(csv.lines().count(), 1 + bands.len());
        let table = render_frontier_bands(&bands);
        for b in &bands {
            assert!(csv.contains(&b.label) && table.contains(&b.label));
        }
    }
}
