//! Integration test: the referral design produces more ISP-level locality
//! than the tracker-only baseline (the paper's §1/§4 discussion).

use plsim_node::PeerConfig;
use plsim_workload::ChannelClass;
use pplive_locality::{sweep, JobPool, ProbeSite, Scale, Scenario};

#[test]
fn referral_beats_tracker_only_on_locality() {
    // One grid of ten worlds: the PPLive config at seeds 1–5, then the
    // tracker-only baseline at the same seeds.
    let seeds = [1, 2, 3, 4, 5];
    let rows = [PeerConfig::default(), PeerConfig::tracker_only_baseline()]
        .into_iter()
        .flat_map(|cfg| {
            seeds.map(|seed| {
                let mut scenario = Scenario::new(ChannelClass::Popular, Scale::Tiny, seed);
                scenario.peer_config = cfg;
                (format!("seed {seed}"), scenario)
            })
        })
        .collect();
    let tele = sweep(&JobPool::new(2), rows, |_, _, run| {
        run.report(ProbeSite::Tele).locality()
    });
    // Average TELE-probe locality over the seeds, per config.
    let mean = |arm: &[f64]| arm.iter().sum::<f64>() / seeds.len() as f64;
    let (pplive, baseline) = (mean(&tele[..seeds.len()]), mean(&tele[seeds.len()..]));
    assert!(
        pplive > baseline,
        "PPLive locality {pplive:.3} should beat tracker-only {baseline:.3}"
    );
    // And it should beat it by a meaningful margin, not noise.
    assert!(
        pplive - baseline > 0.1,
        "margin too small: {pplive:.3} vs {baseline:.3}"
    );
}

#[test]
fn baseline_still_streams() {
    // The baseline is worse for the network, not broken for the user.
    let mut scenario = Scenario::new(ChannelClass::Popular, Scale::Tiny, 5);
    scenario.peer_config = PeerConfig::tracker_only_baseline();
    let run = scenario.run();
    let report = run.report(ProbeSite::Tele);
    assert!(report.data.bytes.total() > 1_000_000);
}
