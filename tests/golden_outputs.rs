//! Golden-equivalence suite: the default `GossipRace` selection policy must
//! regenerate the committed study outputs bit-identically.
//!
//! The policy refactor routes every neighbor decision through the
//! `SelectionPolicy` trait; these tests pin the refactor's central promise —
//! that the default policy is not merely *similar* to the pre-policy
//! protocol but replays it exactly. The fast tests pin run digests and the
//! committed day-series prefix; the `#[ignore]`d test regenerates the full
//! 28-day `studies/fig6_tiny_output.txt` (56 sessions — run it with
//! `cargo test --release -- --ignored` when touching the protocol path).
//!
//! Nothing here depends on the process environment: `Scenario::new` is a
//! pure function of its arguments and defaults to the gossip race.

use plsim_workload::ChannelClass;
use pplive_locality::{fig_6, pct, PolicySpec, ProbeSite, Scale, Scenario};

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
    let rendered = fig_6(3, Scale::Tiny, 42).render();
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
    let mut rendered = fig_6(28, Scale::Tiny, 42).render();
    rendered.push('\n'); // the committed file was `plsim fig6 ... > file`
    assert_eq!(
        rendered, FIG6_GOLDEN,
        "full 28-day regeneration diverged from studies/fig6_tiny_output.txt"
    );
}
