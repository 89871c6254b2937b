//! Golden-equivalence suite: the default `GossipRace` selection policy must
//! regenerate the committed study outputs bit-identically, and every other
//! protocol path must replay its pinned digest.
//!
//! Every neighbor decision asks the peer's `PolicySpec`; these tests pin
//! the central promise — that the default policy is not merely *similar*
//! to the pre-policy protocol but replays it exactly. The fast tests pin
//! run digests (the gossip race's, and one per non-default frontier policy
//! and ablation variant) and the committed day-series prefix; the
//! `#[ignore]`d test regenerates the full 28-day
//! `studies/fig6_tiny_output.txt` (56 sessions — run it with
//! `cargo test --release -- --ignored` when touching the protocol path).
//! `probe_reports_are_pinned` pins the analysis layer on top of the gossip
//! race's run: each probe's whole `ProbeReport`, as a digest of its
//! `Debug` rendering, beside the overlay, contribution and response-time
//! fields no other test reads.
//!
//! Nothing here depends on the process environment: `Scenario::new` is a
//! pure function of its arguments and defaults to the gossip race.

use plsim_analysis::ProbeReport;
use plsim_node::{Fnv1a, PeerConfig};
use plsim_workload::ChannelClass;
use pplive_locality::{
    ablation_grid, fig_6_on, frontier_grid, pct, sweep, JobPool, PolicySpec, ProbeSite, Scale,
    Scenario, ScenarioRun,
};
use std::hash::Hasher;

const FIG6_GOLDEN: &str = include_str!("../studies/fig6_tiny_output.txt");

#[test]
fn gossip_race_digest_is_pinned() {
    // The exact event/message counts of the canonical Tiny popular session
    // (seed 7) from before the policy layer existed. Any drift here means
    // the default policy perturbed the simulation.
    let mut s = Scenario::new(ChannelClass::Popular, Scale::Tiny, 7);
    s.policy = PolicySpec::GossipRace;
    let run = s.run();
    assert_eq!(run.output.sim.events_processed, 429_724);
    assert_eq!(run.output.sim.messages_sent, 308_409);
    assert_eq!(run.output.sim.messages_dropped, 2_083);
    assert_eq!(pct(run.locality_avg(ProbeSite::Tele)), "93.5%");
    assert_eq!(pct(run.locality_avg(ProbeSite::Cnc)), "53.1%");
    assert_eq!(pct(run.locality_avg(ProbeSite::Mason)), "2.1%");
    // The default policy never rejects a candidate.
    assert_eq!(run.metrics().counter("node.policy_rejections"), Some(0));
    // The chunk scheduler's decisions — who is asked for what, and what
    // that delivers to the players. The event counts above barely move
    // when a scheduler edit redirects requests; these do.
    let counter = |name| run.metrics().counter(name);
    assert_eq!(counter("node.data_requests_sent"), Some(135_922));
    // Replies and rejects are the paths that hand a claim back to the
    // scheduler (a reject, a short reply) or keep it (an exact reply).
    assert_eq!(counter("node.data_replies_received"), Some(116_983));
    assert_eq!(counter("node.data_rejects_received"), Some(16_039));
    assert_eq!(counter("node.bytes_down"), Some(968_630_280));
    assert_eq!(counter("node.stalls"), Some(22));
    assert_eq!(counter("node.chunks_played"), Some(22_921));
    // The gossip path: requests sent, replies taken in, and the data
    // servers each peer came to download from (a per-peer set, summed).
    assert_eq!(counter("node.gossip_requests_sent"), Some(14_975));
    assert_eq!(counter("node.gossip_responses_received"), Some(14_724));
    let peers = &run.output.peer_stats;
    assert_eq!(peers.len(), 81);
    let servers: u64 = peers.iter().map(|p| p.unique_data_peers).sum();
    assert_eq!(servers, 1_712);
}

#[test]
fn gossip_race_matches_fig6_golden_prefix() {
    // Day rows of the committed 28-day series are independent runs, so a
    // 3-day regeneration must reproduce the file's first three data rows
    // (plus header) character-for-character.
    let rendered = fig_6_on(&JobPool::default(), 3, Scale::Tiny, 42).render();
    let got: Vec<&str> = rendered.lines().take(5).collect();
    let want: Vec<&str> = FIG6_GOLDEN.lines().take(5).collect();
    assert_eq!(
        got, want,
        "fig6 prefix diverged from studies/fig6_tiny_output.txt"
    );
}

#[test]
#[ignore = "regenerates 56 sessions; run with --release -- --ignored"]
fn gossip_race_regenerates_fig6_golden_in_full() {
    let mut rendered = fig_6_on(&JobPool::default(), 28, Scale::Tiny, 42).render();
    rendered.push('\n'); // the committed file was `plsim fig6 ... > file`
    assert_eq!(
        rendered, FIG6_GOLDEN,
        "full 28-day regeneration diverged from studies/fig6_tiny_output.txt"
    );
}

/// What a non-default protocol path is pinned by: events, messages, the
/// policy gate's rejections, cross-ISP download bytes and the TELE probes'
/// locality (to six decimals).
type Pin = (String, u64, u64, u64, u64, String);

fn pin(label: &str, run: &ScenarioRun) -> Pin {
    let counter = |name| run.metrics().counter(name).expect(name);
    (
        label.to_string(),
        run.output.sim.events_processed,
        run.output.sim.messages_sent,
        counter("node.policy_rejections"),
        counter("node.bytes_down_cross_isp"),
        format!("{:.6}", run.locality_avg(ProbeSite::Tele)),
    )
}

/// The pins, in the order [`non_default_protocol_paths_are_pinned`] runs
/// them: the full frontier grid's policies, then the ablation grid's
/// variants.
#[rustfmt::skip]
const PINS: [(&str, u64, u64, u64, u64, &str); 11] = [
    // label                                     events   messages  rejects   cross bytes   TELE
    ("tracker_only",                             430_598, 310_195,      0, 511_775_760, "0.249838"),
    ("rtt_threshold:100",                        422_836, 301_010,  1_836, 339_133_620, "0.990222"),
    ("deep_diving",                              427_492, 306_167,      0, 426_230_940, "0.999029"),
    ("biased_locality:8",                        433_375, 311_861, 23_610, 362_708_160, "1.000000"),
    ("biased_locality:4",                        430_319, 308_622, 24_895, 319_839_840, "1.000000"),
    ("biased_locality:2",                        426_870, 304_968, 22_159, 302_847_900, "1.000000"),
    ("biased_locality:1",                        439_251, 317_179, 19_939, 252_974_700, "1.000000"),
    ("biased_locality:0",                        549_635, 426_790, 14_011,           0, "1.000000"),
    ("No latency race (delayed-random connect)", 421_043, 299_884,      0, 482_752_980, "0.741629"),
    ("Uniform data scheduling",                  429_183, 307_866,      0, 427_071_360, "0.988613"),
    ("Tracker-only (BitTorrent-like)",           430_598, 310_195,      0, 511_775_760, "0.249838"),
];

fn tiny_popular() -> Scenario {
    Scenario::new(ChannelClass::Popular, Scale::Tiny, 7)
}

#[test]
fn non_default_protocol_paths_are_pinned() {
    // Every frontier policy and every ablation variant other than the
    // gossip race runs code the digest above never reaches: the policy
    // gate, the biased tracker query, delayed-random connects, uniform
    // data scheduling and the tracker-only cadence.
    let mut rows = frontier_grid(Scale::Tiny, 7, false, 1);
    rows.extend(ablation_grid(Scale::Tiny, 7));
    rows.retain(|(_, s)| {
        s.policy != PolicySpec::GossipRace || s.peer_config != PeerConfig::default()
    });
    let got: Vec<Pin> = sweep(&JobPool::new(2), rows, |label, _, run| pin(label, &run));
    let want = PINS.map(|(label, events, messages, rejects, cross, tele)| {
        (label.into(), events, messages, rejects, cross, tele.into())
    });
    assert_eq!(got, want);
}

#[test]
fn tracker_only_policy_equals_tracker_only_config() {
    // The policy and the config are two spellings of one protocol: the
    // same events, counters and capture.
    let mut by_policy = tiny_popular();
    by_policy.policy = PolicySpec::TrackerOnly;
    let mut by_config = tiny_popular();
    by_config.peer_config = PeerConfig::tracker_only_baseline();
    let runs = JobPool::new(2).map(vec![by_policy, by_config], |s| s.run());
    let (a, b) = (&runs[0].output, &runs[1].output);
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    assert_eq!(a.sim, b.sim);
    assert!(a.records == b.records, "captures differ");
}

/// What one probe's [`ProbeReport`] is pinned by: an FNV-1a digest of its
/// whole `Debug` rendering (every field, every f64 to its last bit), and
/// beside it the fields no other golden reads — the overlay's size,
/// triangles, clustering and assortativity (as bits), the number of
/// connected peers in the contribution analysis, and the peer-list and
/// data response-time sample counts.
#[derive(Debug, PartialEq)]
struct ReportPin {
    site: ProbeSite,
    digest: u64,
    nodes: usize,
    edges: usize,
    triangles: u64,
    clustering_bits: u64,
    assortativity_bits: u64,
    contribution_peers: usize,
    peer_list_samples: usize,
    data_samples: usize,
}

fn report_pin(site: ProbeSite, report: &ProbeReport) -> ReportPin {
    let mut hasher = Fnv1a::default();
    hasher.write(format!("{report:?}").as_bytes());
    ReportPin {
        site,
        digest: hasher.finish(),
        nodes: report.overlay.nodes,
        edges: report.overlay.edges,
        triangles: report.overlay.triangles,
        clustering_bits: report.overlay.clustering_coefficient.to_bits(),
        assortativity_bits: report.overlay.isp_assortativity.to_bits(),
        contribution_peers: report.contributions.peers.len(),
        peer_list_samples: report.peer_list_rt.samples.len(),
        data_samples: report.data_rt.samples.len(),
    }
}

#[test]
fn probe_reports_are_pinned() {
    // The analysis layer's own golden: the canonical Tiny popular session
    // (seed 7) as all three probes' reports see it. A change to how the
    // folds key, match or order what they accumulate shows up here even
    // when the simulation above it is untouched.
    let run = tiny_popular().run();
    let got: Vec<ReportPin> = run
        .reports
        .iter()
        .map(|(site, report)| report_pin(*site, report))
        .collect();
    assert_eq!(got, REPORT_PINS);
}

/// The pins of [`probe_reports_are_pinned`], in probe order. Clustering
/// reads 0.346248 / 0.382002 / 0.380122 and assortativity 0.184475 /
/// 0.189880 / 0.155461 (TELE / CNC / Mason).
#[rustfmt::skip]
const REPORT_PINS: [ReportPin; 3] = [
    ReportPin {
        site: ProbeSite::Tele, digest: 0x9f0c_aaaa_2833_0f5f,
        nodes: 80, edges: 682, triangles: 1_356,
        clustering_bits: 0x3fd6_28ee_6492_7387, assortativity_bits: 0x3fc7_9ce2_3d28_881d,
        contribution_peers: 22, peer_list_samples: 139, data_samples: 1_212,
    },
    ReportPin {
        site: ProbeSite::Cnc, digest: 0xdddf_055d_eb34_1297,
        nodes: 81, edges: 682, triangles: 1_529,
        clustering_bits: 0x3fd8_72b6_a365_be6c, assortativity_bits: 0x3fc8_4df9_412d_e0a3,
        contribution_peers: 26, peer_list_samples: 141, data_samples: 1_200,
    },
    ReportPin {
        site: ProbeSite::Mason, digest: 0xe7d6_a7b8_7287_3c69,
        nodes: 80, edges: 785, triangles: 1_982,
        clustering_bits: 0x3fd8_53eb_c964_f206, assortativity_bits: 0x3fc3_e625_c712_8a65,
        contribution_peers: 21, peer_list_samples: 149, data_samples: 1_198,
    },
];
