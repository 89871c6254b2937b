//! Integration tests: the chaos matrix.
//!
//! Every scenario here runs under a deterministic [`FaultPlan`] and must
//! (a) exhibit the qualitative behaviour the paper predicts — trackers are
//! mere entry points, churn is survivable, locality orderings hold where
//! the mesh survives — and (b) pass the runtime invariant checker, so a
//! faulted run that silently corrupts the simulation fails loudly instead
//! of producing quietly-wrong figures. Every scenario also asks for eight
//! shards — past the five populated ISPs, so the request exercises the
//! clamp to one whole ISP per shard — and must come out byte-equal and
//! just as clean.

use plsim_capture::{Direction, KindRef};
use plsim_des::SimTime;
use plsim_net::{Isp, LinkFault};
use plsim_workload::ChannelClass;
use pplive_locality::{FaultPlan, ProbeSite, Scale, Scenario, ScenarioRun};

/// Runs `scenario` unsharded and returns that run, after checking that
/// the same scenario asking for eight shards (clamped to the populated
/// ISPs) reproduces it exactly and passes the invariant checker too.
fn run_checked(scenario: &Scenario) -> ScenarioRun {
    let run = scenario.run();
    let mut sharded = scenario.clone();
    sharded.shards = Some(8);
    let sharded = sharded.run();
    assert!(sharded.output.partition.is_some(), "8 shards: not sharded");
    let (a, b) = (&sharded.output, &run.output);
    assert_eq!(a.sim, b.sim, "8 shards: sim");
    assert_eq!(a.metrics, b.metrics, "8 shards: metrics");
    assert_eq!(a.records, b.records, "8 shards: records");
    assert_eq!(a.peer_stats, b.peer_stats, "8 shards: peer_stats");
    assert_eq!(a.fault_marks, b.fault_marks, "8 shards: fault_marks");
    sharded.check_invariants().assert_clean();
    run
}

/// Latest inbound data reply captured at `probe`.
fn last_data_reply(run: &ScenarioRun, probe: plsim_des::NodeId) -> Option<SimTime> {
    run.output
        .records
        .rows()
        .filter(|r| r.probe == probe && r.direction == Direction::Inbound)
        .filter(|r| matches!(r.kind, KindRef::DataReply { .. }))
        .map(|r| r.t)
        .max()
}

fn probe_stats(run: &ScenarioRun, probe: plsim_des::NodeId) -> &plsim_node::PeerStats {
    run.output
        .peer_stats
        .iter()
        .find(|s| s.node == probe)
        .expect("probe stats flushed")
}

#[test]
fn streaming_survives_tracker_blackout_and_recovery() {
    // Trackers die at 150 s (probes join at 120 s) and restart empty at
    // 250 s. The mesh must keep streaming throughout on gossip referrals
    // alone — the paper's "trackers are databases of active peers" claim.
    let scenario = Scenario::new(ChannelClass::Popular, Scale::Tiny, 21).with_faults(
        FaultPlan::new().tracker_blackout(SimTime::from_secs(150), SimTime::from_secs(250)),
    );
    let run = run_checked(&scenario);
    let report = run.report(ProbeSite::Tele);

    let last_reply = last_data_reply(&run, report.probe).expect("probe received data");
    assert!(
        last_reply > SimTime::from_secs(300),
        "data flow died with the trackers (last reply at {last_reply})"
    );
    let stats = probe_stats(&run, report.probe);
    assert!(stats.playback_started.is_some());
    assert!(
        stats.stall_ratio() < 0.5,
        "stall ratio too high after outage: {}",
        stats.stall_ratio()
    );

    // The outage boundaries were marked in the capture stream.
    let marks: Vec<_> = run
        .output
        .fault_marks
        .iter()
        .filter(|m| m.label == "tracker-outage")
        .collect();
    assert_eq!(marks.len(), 2, "begin + recovery markers expected");
    assert!(marks[0].begins && !marks[1].begins);
    assert_eq!(marks[0].t, SimTime::from_secs(150));
    assert_eq!(marks[1].t, SimTime::from_secs(250));

    run.check_invariants().assert_clean();
}

#[test]
fn tracker_only_baseline_collapses_without_trackers() {
    use plsim_node::PeerConfig;
    // In the BitTorrent-style baseline, peers never learn about each other
    // except through trackers. If trackers die before the probes join,
    // late joiners cannot find anyone.
    let mut scenario = Scenario::new(ChannelClass::Popular, Scale::Tiny, 21)
        .with_faults(FaultPlan::new().tracker_outage(SimTime::from_secs(30)));
    scenario.peer_config = PeerConfig::tracker_only_baseline();
    let run = run_checked(&scenario);
    let report = run.report(ProbeSite::Tele);
    assert!(
        report.data.bytes.total() < 1_000_000,
        "tracker-only peer should starve without trackers, got {} bytes",
        report.data.bytes.total()
    );
    // Starvation must still be invariant-clean (no phantom playback).
    run.check_invariants().assert_clean();
}

#[test]
fn mesh_survives_churn_storm_at_steady_state() {
    // At 240 s — well into steady playback — 30% of the online viewers
    // vanish at once and rejoin 30 s later.
    let scenario = Scenario::new(ChannelClass::Popular, Scale::Tiny, 7).with_faults(
        FaultPlan::new().churn_storm(SimTime::from_secs(240), 0.30, Some(SimTime::from_secs(30))),
    );
    let run = run_checked(&scenario);
    let report = run.report(ProbeSite::Tele);

    let last_reply = last_data_reply(&run, report.probe).expect("probe received data");
    assert!(
        last_reply > SimTime::from_secs(300),
        "mesh did not survive the churn storm (last reply at {last_reply})"
    );
    let stats = probe_stats(&run, report.probe);
    assert!(stats.playback_started.is_some(), "probe never played");
    assert!(
        stats.stall_ratio() < 0.6,
        "probe mostly stalled through the storm: {}",
        stats.stall_ratio()
    );

    // The paper's locality ordering must still hold for the China probes:
    // a TELE host watching a popular channel fetches mostly from its own
    // ISP, while the Mason (Foreign) probe has almost no same-ISP supply.
    let tele = run.locality_avg(ProbeSite::Tele);
    let mason = run.locality_avg(ProbeSite::Mason);
    assert!(
        tele > mason,
        "locality ordering flipped under churn: TELE {tele:.3} vs Mason {mason:.3}"
    );

    run.check_invariants().assert_clean();
}

#[test]
fn tele_cnc_partition_cuts_cross_isp_traffic_and_streaming_survives() {
    // The TELE↔CNC interconnect is de-peered from 200 s to the end of the
    // run. Each side must keep streaming from same-ISP peers, and no
    // packet may cross the cut (the invariant checker enforces it).
    let partition_start = SimTime::from_secs(200);
    let horizon = SimTime::from_secs_f64(Scale::Tiny.duration_secs());
    let scenario =
        Scenario::new(ChannelClass::Popular, Scale::Tiny, 11).with_faults(FaultPlan::new().link(
            LinkFault::partition(Isp::Tele, Isp::Cnc, partition_start, horizon),
        ));
    let run = run_checked(&scenario);
    run.check_invariants().assert_clean();

    let report = run.report(ProbeSite::Tele);
    let last_reply = last_data_reply(&run, report.probe).expect("probe received data");
    assert!(
        last_reply > SimTime::from_secs(300),
        "TELE side stopped streaming after the partition (last reply at {last_reply})"
    );

    // Direct spot-check of the isolation, independent of the checker: no
    // inbound CNC packet at the TELE probe deep inside the window.
    let late_cross = run
        .output
        .records
        .rows()
        .filter(|r| r.probe == report.probe && r.direction == Direction::Inbound)
        .filter(|r| r.t >= partition_start + SimTime::from_secs(10))
        .filter(|r| run.output.topology.host(r.remote).isp == Isp::Cnc)
        .count();
    assert_eq!(late_cross, 0, "packets crossed a partitioned interconnect");
}

#[test]
fn combined_faults_run_clean() {
    // The union: tracker blackout + churn storm + degraded interconnect,
    // overlapping. The mesh may degrade, but the run must stay
    // structurally sound and somebody must still be playing.
    let scenario = Scenario::new(ChannelClass::Popular, Scale::Tiny, 5)
        .with_faults(pplive_locality::combined_chaos(Scale::Tiny));
    let run = run_checked(&scenario);
    run.check_invariants().assert_clean();

    let summary = pplive_locality::PlaybackSummary::summarize(&run.output.peer_stats);
    assert!(summary.started > 0, "nobody ever played");
    assert!(summary.chunks_played > 0);
    // Every scheduled boundary produced a marker, in firing order.
    assert!(!run.output.fault_marks.is_empty());
    assert!(run.output.fault_marks.windows(2).all(|w| w[0].t <= w[1].t));
}

#[test]
fn loss_ramp_degrades_gracefully() {
    // Packet loss ramps up by +8% over the middle of the run: drops must
    // rise, streaming must survive.
    let scenario = Scenario::new(ChannelClass::Popular, Scale::Tiny, 33)
        .with_faults(pplive_locality::loss_surge(Scale::Tiny));
    let run = run_checked(&scenario);
    let report = run.report(ProbeSite::Tele);
    assert!(
        report.data.bytes.total() > 1_000_000,
        "streaming should survive the loss surge, got {} bytes",
        report.data.bytes.total()
    );
    assert!(run.output.sim.messages_dropped > 0, "ramp dropped nothing");
    run.check_invariants().assert_clean();
}

#[test]
fn lossy_network_still_streams() {
    use plsim_net::LinkModel;
    // Static heavy loss (no fault plan): the pre-existing robustness bar.
    let mut scenario = Scenario::new(ChannelClass::Popular, Scale::Tiny, 33);
    scenario.link = LinkModel {
        loss_intra: 0.03,
        loss_cross_cn: 0.08,
        loss_transoceanic: 0.12,
        ..LinkModel::default()
    };
    let run = run_checked(&scenario);
    let report = run.report(ProbeSite::Tele);
    assert!(
        report.data.bytes.total() > 1_000_000,
        "streaming should survive heavy loss, got {} bytes",
        report.data.bytes.total()
    );
    assert!(run.output.sim.messages_dropped > 0);
    run.check_invariants().assert_clean();
}
