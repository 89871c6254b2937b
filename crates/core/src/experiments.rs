//! One reproduction per table and figure of the paper's evaluation.
//!
//! Every multi-run artifact (the popular/unpopular suite, the ablations,
//! the Figure 6 day series, seed sweeps) is a grid of labelled
//! [`Scenario`] rows and a reducer, run through [`sweep`], so it uses
//! every core of the [`JobPool`] while producing output bit-identical to
//! a sequential run at the same seed.

use crate::engine::{sweep, JobPool};
use crate::render::{pct, render_table, secs};
use crate::scenario::{ProbeSite, Scale, Scenario, ScenarioRun};
use plsim_analysis::{PerIsp, ProbeReport};
use plsim_net::{Isp, IspGroup, LinkModel};
use plsim_node::{ConnectPolicy, DataSelection, PeerConfig};
use plsim_stats::{stretched_exp_fit, top_share, zipf_fit};
use plsim_workload::{se_workload, ChannelClass, DayFactor, SeWorkloadSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A suite's unpopular session runs at world seed `seed ^
/// UNPOPULAR_SEED_SALT`, so its world differs from the popular one's:
/// seed 42 → world seed 20,859.
const UNPOPULAR_SEED_SALT: u64 = 0x5151;

/// The two channel sessions (popular + unpopular) every §3 figure draws
/// from — the equivalent of one measurement day with all probes attached.
#[derive(Debug)]
pub struct Suite {
    /// The popular-channel session.
    pub popular: ScenarioRun,
    /// The unpopular-channel session.
    pub unpopular: ScenarioRun,
}

impl Suite {
    /// Simulates both channels at the given scale, in parallel on the
    /// default [`JobPool`].
    #[must_use]
    pub fn run(scale: Scale, seed: u64) -> Suite {
        Suite::run_on(&JobPool::default(), scale, seed)
    }

    /// Simulates both channels on an explicit pool.
    ///
    /// # Panics
    ///
    /// Panics if a session simulation panics.
    #[must_use]
    pub fn run_on(pool: &JobPool, scale: Scale, seed: u64) -> Suite {
        Suite::run_seeds_on(pool, scale, &[seed]).remove(0)
    }

    /// Multi-seed replication: one [`Suite`] per seed, all individual
    /// channel sessions flattened through one pool for maximum overlap.
    /// Use the per-seed suites to compute variance bands across replicas.
    #[must_use]
    pub fn run_seeds_on(pool: &JobPool, scale: Scale, seeds: &[u64]) -> Vec<Suite> {
        let mut runs = sweep(pool, Suite::grid(scale, seeds), |_, _, run| run).into_iter();
        seeds
            .iter()
            .map(|_| Suite {
                popular: runs.next().expect("popular session missing"),
                unpopular: runs.next().expect("unpopular session missing"),
            })
            .collect()
    }

    /// The suites' sessions, popular then unpopular for each seed in turn.
    #[must_use]
    pub fn grid(scale: Scale, seeds: &[u64]) -> Vec<(String, Scenario)> {
        seeds
            .iter()
            .flat_map(|&seed| {
                [
                    Scenario::new(ChannelClass::Popular, scale, seed),
                    Scenario::new(ChannelClass::Unpopular, scale, seed ^ UNPOPULAR_SEED_SALT),
                ]
            })
            .map(|s| (s.class.label().to_string(), s))
            .collect()
    }

    fn report(&self, class: ChannelClass, site: ProbeSite) -> &ProbeReport {
        match class {
            ChannelClass::Popular => self.popular.report(site),
            ChannelClass::Unpopular => self.unpopular.report(site),
        }
    }
}

/// The four (probe, channel) cells the paper walks through in Figures 2–5
/// and reuses for Figures 7–18 and Table 1.
pub const CELLS: [(ProbeSite, ChannelClass, &str); 4] = [
    (
        ProbeSite::Tele,
        ChannelClass::Popular,
        "Fig. 2/7/11/15 (TELE, popular)",
    ),
    (
        ProbeSite::Tele,
        ChannelClass::Unpopular,
        "Fig. 3/8/12/16 (TELE, unpopular)",
    ),
    (
        ProbeSite::Mason,
        ChannelClass::Popular,
        "Fig. 4/9/13/17 (Mason, popular)",
    ),
    (
        ProbeSite::Mason,
        ChannelClass::Unpopular,
        "Fig. 5/10/14/18 (Mason, unpopular)",
    ),
];

// ---------------------------------------------------------------- Figs 2–5

/// One locality figure (Figures 2–5): returned addresses, source breakdown,
/// transmissions and bytes per ISP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalityFigure {
    /// Which paper figure this reproduces.
    pub label: String,
    /// The probe site.
    pub site: String,
    /// Home-ISP fraction of returned addresses (panel a headline).
    pub returned_home: f64,
    /// Returned addresses per ISP (panel a).
    pub returned: PerIsp<u64>,
    /// Source breakdown rows: (source label, total, own-ISP fraction).
    pub by_source: Vec<(String, u64, f64)>,
    /// Data transmissions per ISP (panel c, top).
    pub transmissions: PerIsp<u64>,
    /// Received bytes per ISP (panel c, bottom).
    pub bytes: PerIsp<u64>,
    /// Traffic locality (home-ISP byte fraction).
    pub locality: f64,
}

/// Reproduces Figures 2–5 from a suite.
#[must_use]
pub fn figs_2_to_5(suite: &Suite) -> Vec<LocalityFigure> {
    CELLS
        .iter()
        .map(|&(site, class, label)| {
            let rep = suite.report(class, site);
            let by_source = rep
                .returned_by_source
                .iter()
                .map(|(src, counts)| {
                    let own = match src {
                        plsim_analysis::ListSource::Peer(isp)
                        | plsim_analysis::ListSource::Tracker(isp) => counts.fraction(*isp),
                    };
                    (src.label(), counts.total(), own)
                })
                .collect();
            LocalityFigure {
                label: label.to_string(),
                site: site.label().to_string(),
                returned_home: rep.returned_home_fraction(),
                returned: rep.returned,
                by_source,
                transmissions: rep.data.transmissions,
                bytes: rep.data.bytes,
                locality: rep.locality(),
            }
        })
        .collect()
}

impl LocalityFigure {
    /// Renders the figure as text tables.
    #[must_use]
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "ISP".to_string(),
            "returned".to_string(),
            "transmissions".to_string(),
            "bytes".to_string(),
        ]];
        for isp in Isp::ALL {
            rows.push(vec![
                isp.label().to_string(),
                self.returned[isp].to_string(),
                self.transmissions[isp].to_string(),
                self.bytes[isp].to_string(),
            ]);
        }
        let mut out = format!(
            "{} — returned home fraction {}, traffic locality {}\n",
            self.label,
            pct(self.returned_home),
            pct(self.locality)
        );
        out.push_str(&render_table(&rows));
        let mut src_rows = vec![vec![
            "source".to_string(),
            "returned".to_string(),
            "own-ISP".to_string(),
        ]];
        for (label, total, own) in &self.by_source {
            src_rows.push(vec![label.clone(), total.to_string(), pct(*own)]);
        }
        out.push('\n');
        out.push_str(&render_table(&src_rows));
        out
    }
}

// ------------------------------------------------------------------- Fig 6

/// One day of the four-week locality series (Figure 6).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DayLocality {
    /// Day index (1-based).
    pub day: u32,
    /// CNC probe's locality that day.
    pub cnc: f64,
    /// TELE probe's locality that day.
    pub tele: f64,
    /// Mason probe's locality that day.
    pub mason: f64,
}

/// The Figure 6 reproduction: a locality series per channel class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FourWeeks {
    /// Popular-channel series.
    pub popular: Vec<DayLocality>,
    /// Unpopular-channel series.
    pub unpopular: Vec<DayLocality>,
}

/// The Figure 6 grid: one session per channel and day (popular days
/// `1..=days`, then unpopular), each at world seed `seed + 7919·day` with
/// that day's population variation, drawn from `seed ^ (day << 16)`. Two
/// concurrent hosts per site, averaged — the paper's methodology.
#[must_use]
pub fn fig_6_grid(days: u32, scale: Scale, seed: u64) -> Vec<(String, Scenario)> {
    [ChannelClass::Popular, ChannelClass::Unpopular]
        .into_iter()
        .flat_map(|class| {
            (1..=days).map(move |day| {
                let mut day_rng = SmallRng::seed_from_u64(seed ^ (u64::from(day) << 16));
                let mut scenario =
                    Scenario::new(class, scale, seed.wrapping_add(u64::from(day) * 7919));
                scenario.probes = ProbeSite::ALL.iter().flat_map(|&p| [p, p]).collect();
                scenario.day = Some(DayFactor::sample(&mut day_rng));
                (format!("{} day {day}", class.label()), scenario)
            })
        })
        .collect()
}

/// Runs the [`fig_6_grid`] on `pool`: `days` daily sessions per channel
/// with day-to-day population variation.
///
/// All `2 × days` sessions go through one work queue, and each is reduced
/// to its three localities inside its job, so at most `pool.threads()`
/// day simulations (each holding its full trace) are resident at a time.
#[must_use]
pub fn fig_6_on(pool: &JobPool, days: u32, scale: Scale, seed: u64) -> FourWeeks {
    let localities = sweep(pool, fig_6_grid(days, scale, seed), |_, _, run| {
        [ProbeSite::Cnc, ProbeSite::Tele, ProbeSite::Mason].map(|site| run.locality_avg(site))
    });
    let mut popular: Vec<DayLocality> = (1..=days)
        .chain(1..=days)
        .zip(localities)
        .map(|(day, [cnc, tele, mason])| DayLocality {
            day,
            cnc,
            tele,
            mason,
        })
        .collect();
    let unpopular = popular.split_off(days as usize);
    FourWeeks { popular, unpopular }
}

impl FourWeeks {
    /// Standard deviation of a probe's series (volatility measure).
    #[must_use]
    pub fn volatility(series: &[DayLocality], pick: fn(&DayLocality) -> f64) -> f64 {
        let vals: Vec<f64> = series.iter().map(pick).collect();
        plsim_stats::std_dev(&vals).unwrap_or(0.0)
    }

    /// Renders both series as a table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "day".to_string(),
            "pop CNC".to_string(),
            "pop TELE".to_string(),
            "pop Mason".to_string(),
            "unpop CNC".to_string(),
            "unpop TELE".to_string(),
            "unpop Mason".to_string(),
        ]];
        for (p, u) in self.popular.iter().zip(&self.unpopular) {
            rows.push(vec![
                p.day.to_string(),
                pct(p.cnc),
                pct(p.tele),
                pct(p.mason),
                pct(u.cnc),
                pct(u.tele),
                pct(u.mason),
            ]);
        }
        render_table(&rows)
    }
}

// ------------------------------------------------- Figs 7–10 and Table 1

/// Response-time reproduction for one probe/channel cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResponseCell {
    /// Which figure/table row this is.
    pub label: String,
    /// Mean peer-list response time per ISP group (Figures 7–10).
    pub peer_list_avg: [Option<f64>; 3],
    /// Mean data response time per ISP group (Table 1).
    pub data_avg: [Option<f64>; 3],
    /// Matched peer-list samples.
    pub peer_list_samples: usize,
    /// Peer-list requests that went unanswered.
    pub unanswered: u64,
}

/// Reproduces Figures 7–10 and Table 1.
#[must_use]
pub fn response_times(suite: &Suite) -> Vec<ResponseCell> {
    CELLS
        .iter()
        .map(|&(site, class, label)| {
            let rep = suite.report(class, site);
            let pl = rep.peer_list_rt.averages();
            let dt = rep.data_rt.averages();
            let unpack = |avgs: plsim_analysis::PerGroup<Option<f64>>| {
                [
                    avgs[IspGroup::Tele],
                    avgs[IspGroup::Cnc],
                    avgs[IspGroup::Other],
                ]
            };
            ResponseCell {
                label: label.to_string(),
                peer_list_avg: unpack(pl),
                data_avg: unpack(dt),
                peer_list_samples: rep.peer_list_rt.samples.len(),
                unanswered: rep.peer_list_rt.unanswered,
            }
        })
        .collect()
}

/// Renders the Table 1 reproduction.
#[must_use]
pub fn render_table1(cells: &[ResponseCell]) -> String {
    let mut rows = vec![vec![
        "cell".to_string(),
        "TELE peers (s)".to_string(),
        "CNC peers (s)".to_string(),
        "OTHER peers (s)".to_string(),
    ]];
    for c in cells {
        rows.push(vec![
            c.label.clone(),
            secs(c.data_avg[0]),
            secs(c.data_avg[1]),
            secs(c.data_avg[2]),
        ]);
    }
    render_table(&rows)
}

/// Renders the Figures 7–10 reproduction (per-group averages).
#[must_use]
pub fn render_fig7_10(cells: &[ResponseCell]) -> String {
    let mut rows = vec![vec![
        "cell".to_string(),
        "TELE avg (s)".to_string(),
        "CNC avg (s)".to_string(),
        "OTHER avg (s)".to_string(),
        "samples".to_string(),
        "unanswered".to_string(),
    ]];
    for c in cells {
        rows.push(vec![
            c.label.clone(),
            secs(c.peer_list_avg[0]),
            secs(c.peer_list_avg[1]),
            secs(c.peer_list_avg[2]),
            c.peer_list_samples.to_string(),
            c.unanswered.to_string(),
        ]);
    }
    render_table(&rows)
}

// ------------------------------------------------------------ Figs 11–14

/// Contribution reproduction for one probe/channel cell (Figures 11–14).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContributionCell {
    /// Which figure this is.
    pub label: String,
    /// Unique connected (data) peers per ISP (panel a).
    pub connected: PerIsp<u64>,
    /// Unique addresses on returned lists (the "of N unique IPs" quote).
    pub listed: u64,
    /// Zipf fit R² of the request rank distribution (panel b).
    pub zipf_r2: Option<f64>,
    /// Stretched-exponential fit (c, a, b, R²) (panel b).
    pub se: Option<(f64, f64, f64, f64)>,
    /// Share of requests to the top 10% of peers.
    pub top10_requests: Option<f64>,
    /// Share of bytes from the top 10% of peers (panel c).
    pub top10_bytes: Option<f64>,
}

/// Reproduces Figures 11–14.
#[must_use]
pub fn figs_11_to_14(suite: &Suite) -> Vec<ContributionCell> {
    CELLS
        .iter()
        .map(|&(site, class, label)| {
            let c = &suite.report(class, site).contributions;
            ContributionCell {
                label: label.to_string(),
                connected: c.connected_by_isp,
                listed: c.unique_listed_peers,
                zipf_r2: c.zipf.map(|z| z.r2),
                se: c.se.map(|s| (s.c, s.a, s.b, s.r2)),
                top10_requests: c.top10_request_share,
                top10_bytes: c.top10_byte_share,
            }
        })
        .collect()
}

/// Renders the Figures 11–14 reproduction.
#[must_use]
pub fn render_fig11_14(cells: &[ContributionCell]) -> String {
    let mut rows = vec![vec![
        "cell".to_string(),
        "connected".to_string(),
        "listed".to_string(),
        "zipf R2".to_string(),
        "SE (c,a,b)".to_string(),
        "SE R2".to_string(),
        "top10% reqs".to_string(),
        "top10% bytes".to_string(),
    ]];
    for c in cells {
        rows.push(vec![
            c.label.clone(),
            c.connected.total().to_string(),
            c.listed.to_string(),
            c.zipf_r2.map_or("-".into(), |r| format!("{r:.3}")),
            c.se.map_or("-".into(), |(cc, a, b, _)| {
                format!("({cc:.2}, {a:.2}, {b:.2})")
            }),
            c.se.map_or("-".into(), |(_, _, _, r)| format!("{r:.3}")),
            c.top10_requests.map_or("-".into(), pct),
            c.top10_bytes.map_or("-".into(), pct),
        ]);
    }
    render_table(&rows)
}

// ------------------------------------------------------------ Figs 15–18

/// RTT-correlation reproduction for one cell (Figures 15–18).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RttCell {
    /// Which figure this is.
    pub label: String,
    /// Correlation of log(#requests) vs log(RTT) across connected peers.
    pub correlation: Option<f64>,
    /// Number of (requests, RTT) pairs.
    pub peers: usize,
}

/// Reproduces Figures 15–18.
#[must_use]
pub fn figs_15_to_18(suite: &Suite) -> Vec<RttCell> {
    CELLS
        .iter()
        .map(|&(site, class, label)| {
            let c = &suite.report(class, site).contributions;
            RttCell {
                label: label.to_string(),
                correlation: c.rtt_correlation,
                peers: c.peers.len(),
            }
        })
        .collect()
}

/// Renders the Figures 15–18 reproduction.
#[must_use]
pub fn render_fig15_18(cells: &[RttCell]) -> String {
    let mut rows = vec![vec![
        "cell".to_string(),
        "corr(log req, log RTT)".to_string(),
        "peers".to_string(),
    ]];
    for c in cells {
        rows.push(vec![
            c.label.clone(),
            c.correlation.map_or("-".into(), |r| format!("{r:.3}")),
            c.peers.to_string(),
        ]);
    }
    render_table(&rows)
}

// ------------------------------------------------------------- Ablations

/// One ablation row's result (experiments A1/A2): the popular channel's
/// locality under one protocol or underlay variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationResult {
    /// Variant label.
    pub variant: String,
    /// TELE probe locality on the popular channel.
    pub tele_locality: f64,
    /// TELE probe mean stall-free throughput proxy: received bytes.
    pub tele_bytes: u64,
    /// Mason probe home (Foreign) share.
    pub mason_locality: f64,
}

impl AblationResult {
    /// Measures one finished ablation session.
    #[must_use]
    pub fn of(variant: &str, run: &ScenarioRun) -> AblationResult {
        let tele = run.report(ProbeSite::Tele);
        AblationResult {
            variant: variant.to_string(),
            tele_locality: tele.locality(),
            tele_bytes: tele.data.bytes.total(),
            mason_locality: run.report(ProbeSite::Mason).locality(),
        }
    }
}

/// The protocol ablation's grid (A1): the popular channel under each
/// protocol variant, PPLive itself first.
#[must_use]
pub fn ablation_grid(scale: Scale, seed: u64) -> Vec<(String, Scenario)> {
    [
        ("PPLive (referral+latency)", PeerConfig::default()),
        (
            "No latency race (delayed-random connect)",
            PeerConfig {
                connect_policy: ConnectPolicy::DelayedRandom,
                ..PeerConfig::default()
            },
        ),
        (
            "Uniform data scheduling",
            PeerConfig {
                data_selection: DataSelection::Uniform,
                ..PeerConfig::default()
            },
        ),
        (
            "Tracker-only (BitTorrent-like)",
            PeerConfig::tracker_only_baseline(),
        ),
    ]
    .into_iter()
    .map(|(label, cfg)| {
        let mut scenario = Scenario::new(ChannelClass::Popular, scale, seed);
        scenario.peer_config = cfg;
        (label.to_string(), scenario)
    })
    .collect()
}

/// Renders the protocol ablation table.
#[must_use]
pub fn render_ablation(results: &[AblationResult]) -> String {
    let mut rows = vec![vec![
        "variant".to_string(),
        "TELE locality".to_string(),
        "TELE bytes".to_string(),
    ]];
    for r in results {
        rows.push(vec![
            r.variant.clone(),
            pct(r.tele_locality),
            r.tele_bytes.to_string(),
        ]);
    }
    render_table(&rows)
}

/// The underlay ablation's grid (A2): the popular channel under
/// progressively weakened underlays — the full calibrated model, one
/// without the load-dependent interconnect queue, one without the static
/// interconnect congestion, and one with neither. The protocol is
/// identical in all four, so any locality drop isolates the latency
/// structure that produced it.
#[must_use]
pub fn underlay_ablation_grid(scale: Scale, seed: u64) -> Vec<(String, Scenario)> {
    [
        ("calibrated 2008 underlay", LinkModel::default()),
        (
            "no interconnect queue",
            LinkModel {
                interconnect_mbps: 0.0,
                ..LinkModel::default()
            },
        ),
        (
            "no static congestion",
            LinkModel {
                congestion_scale: 0.0,
                ..LinkModel::default()
            },
        ),
        (
            "neither (propagation only)",
            LinkModel {
                interconnect_mbps: 0.0,
                congestion_scale: 0.0,
                ..LinkModel::default()
            },
        ),
    ]
    .into_iter()
    .map(|(label, link)| {
        let mut scenario = Scenario::new(ChannelClass::Popular, scale, seed);
        scenario.link = link;
        (label.to_string(), scenario)
    })
    .collect()
}

/// Renders the underlay ablation table.
#[must_use]
pub fn render_underlay_ablation(results: &[AblationResult]) -> String {
    let mut rows = vec![vec![
        "underlay variant".to_string(),
        "TELE locality".to_string(),
        "Mason locality".to_string(),
    ]];
    for r in results {
        rows.push(vec![
            r.variant.clone(),
            pct(r.tele_locality),
            pct(r.mason_locality),
        ]);
    }
    render_table(&rows)
}

// ----------------------------------------------------------- Workload W1

/// Result of the stretched-exponential workload round trip (experiment W1).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WorkloadRoundTrip {
    /// Generator parameters.
    pub spec: SeWorkloadSpec,
    /// Refitted (c, a, R²).
    pub refit: (f64, f64, f64),
    /// Zipf R² on the same data (should lose).
    pub zipf_r2: f64,
    /// Top-10% share of the generated workload.
    pub top10: f64,
}

/// Generates an SE workload from `spec` (the paper's Figure 11(b) fit is
/// [`SeWorkloadSpec::fig11`]) and refits it.
///
/// # Panics
///
/// Panics if `spec` has fewer than three contributors or non-positive
/// `c`/`a` — nothing to fit.
#[must_use]
pub fn workload_round_trip(spec: SeWorkloadSpec, seed: u64) -> WorkloadRoundTrip {
    let mut rng = SmallRng::seed_from_u64(seed);
    let w = se_workload(&spec, &mut rng);
    let se = stretched_exp_fit(&w).expect("SE fit on generated workload");
    let zipf = zipf_fit(&w).expect("Zipf fit on generated workload");
    WorkloadRoundTrip {
        spec,
        refit: (se.c, se.a, se.r2),
        zipf_r2: zipf.r2,
        top10: top_share(&w, 0.1).expect("top share"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_round_trip_recovers_parameters() {
        let rt = workload_round_trip(SeWorkloadSpec::fig11(), 1);
        assert!((rt.refit.0 - rt.spec.c).abs() < 0.051);
        assert!(rt.refit.2 > 0.99);
        assert!(rt.refit.2 > rt.zipf_r2);
    }

    #[test]
    fn ablation_variants_are_distinct() {
        let grid = ablation_grid(Scale::Tiny, 42);
        assert_eq!(grid.len(), 4);
        assert!(!grid[3].1.peer_config.referral);
        assert!(grid[0].1.peer_config.referral);
    }

    #[test]
    fn renderers_produce_labelled_tables() {
        let fig = LocalityFigure {
            label: "Fig. X".into(),
            site: "TELE".into(),
            returned_home: 0.7,
            returned: PerIsp([10, 5, 1, 2, 3]),
            by_source: vec![("TELE_p".into(), 12, 0.8)],
            transmissions: PerIsp([100, 20, 0, 5, 5]),
            bytes: PerIsp([1000, 200, 0, 50, 50]),
            locality: 0.77,
        };
        let text = fig.render();
        assert!(text.contains("Fig. X"));
        assert!(text.contains("TELE_p"));
        assert!(text.contains("77.0%"));

        let cell = ResponseCell {
            label: "row".into(),
            peer_list_avg: [Some(0.5), None, Some(1.0)],
            data_avg: [Some(0.4), Some(0.6), None],
            peer_list_samples: 10,
            unanswered: 2,
        };
        let t1 = render_table1(std::slice::from_ref(&cell));
        assert!(t1.contains("0.400") && t1.contains('-'));
        let f7 = render_fig7_10(std::slice::from_ref(&cell));
        assert!(f7.contains("0.500") && f7.contains("10") && f7.contains('2'));

        let ab = AblationResult {
            variant: "X".into(),
            tele_locality: 0.5,
            tele_bytes: 123,
            mason_locality: 0.75,
        };
        let protocol = render_ablation(std::slice::from_ref(&ab));
        assert!(protocol.contains("50.0%") && protocol.contains("123"));
        let underlay = render_underlay_ablation(&[ab]);
        assert!(underlay.contains("50.0%") && underlay.contains("75.0%"));
    }

    #[test]
    fn four_weeks_volatility_is_zero_for_constant_series() {
        let d = |day| DayLocality {
            day,
            cnc: 0.5,
            tele: 0.8,
            mason: 0.3,
        };
        let series = vec![d(1), d(2), d(3)];
        assert!(FourWeeks::volatility(&series, |x| x.tele) < 1e-12);
        let weeks = FourWeeks {
            popular: series.clone(),
            unpopular: series,
        };
        let table = weeks.render();
        assert!(table.contains("80.0%"));
        assert_eq!(table.lines().count(), 5);
    }

    #[test]
    fn cells_cover_both_probes_and_channels() {
        let sites: Vec<_> = CELLS.iter().map(|c| c.0).collect();
        assert!(sites.contains(&ProbeSite::Tele));
        assert!(sites.contains(&ProbeSite::Mason));
        let classes: Vec<_> = CELLS.iter().map(|c| c.1).collect();
        assert!(classes.contains(&ChannelClass::Popular));
        assert!(classes.contains(&ChannelClass::Unpopular));
    }
}
