//! Property test: capture under a tight resident-byte budget — sealed
//! trace pages spilling to a per-run file — is bit-identical to unbounded
//! capture. Same records, same metrics snapshot, same per-probe analysis
//! reports; sharded runs (every shard's store under the budget, spilled
//! shard traces merged by `(t, probe)`) and fault plans included. The budget is set through
//! `WorldConfig::capture`, not the environment, so the reference run in
//! the same process stays unbounded.

use plsim_analysis::ProbeReport;
use plsim_des::SimTime;
use plsim_net::{AsnDirectory, Isp, LinkFault};
use plsim_node::{run_world, CaptureConfig, FaultPlan, ProbeSpec, WorldConfig, WorldOutput};
use plsim_workload::{ChannelClass, PopulationSpec, SessionPlan};
use proptest::prelude::*;
use proptest::test_rng;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Tight enough that a ~9k-record tiny world spills at least one sealed
/// page, loose enough that the run is not pathological.
const TIGHT_BUDGET: u64 = 64 * 1024;

/// Fault categories that cross capture windows: tracker blackout, churn
/// storm, and a lossy TELE–CNC interconnect.
fn boundary_fault_plan() -> FaultPlan {
    FaultPlan::new()
        .tracker_blackout(SimTime::from_secs(40), SimTime::from_secs(60))
        .churn_storm(SimTime::from_secs(70), 0.5, Some(SimTime::from_secs(15)))
        .link(LinkFault::loss_ramp(
            SimTime::from_secs(45),
            SimTime::from_secs(85),
            SimTime::from_secs(10),
            0.2,
        ))
}

/// A probe that joins early, so the capture covers nearly the whole run.
fn probe(isp: Isp) -> ProbeSpec {
    ProbeSpec {
        join_s: 30.0,
        ..ProbeSpec::residential(isp)
    }
}

/// A world long enough (360 s, three probes) to seal capture pages, with
/// the capture budget pinned explicitly.
fn world(seed: u64, shards: usize, budget: Option<u64>, faulted: bool) -> WorldConfig {
    let mut rng = SmallRng::seed_from_u64(seed);
    let plan = SessionPlan::generate(
        &PopulationSpec::tiny(ChannelClass::Unpopular),
        360.0,
        &mut rng,
    );
    let mut cfg = WorldConfig::new(seed, plan, SimTime::from_secs(360));
    cfg.probes.push(probe(Isp::Tele));
    cfg.probes.push(probe(Isp::Cnc));
    cfg.probes.push(probe(Isp::Foreign));
    if faulted {
        cfg.faults = boundary_fault_plan();
    }
    cfg.shards = shards;
    cfg.shard_threads = 2;
    cfg.capture = CaptureConfig {
        budget,
        aggregate_window: None,
    };
    cfg
}

/// Everything the analysis layer can see must be unchanged by spilling.
fn assert_equivalent(budgeted: &WorldOutput, reference: &WorldOutput, label: &str) {
    assert!(
        budgeted.records.spilled_pages() >= 1,
        "budgeted run never spilled — the property would be vacuous: {label}"
    );
    assert_eq!(
        reference.records.spilled_pages(),
        0,
        "unbounded run spilled: {label}"
    );
    assert_eq!(
        budgeted.records, reference.records,
        "capture rows diverged under budget: {label}"
    );
    assert_eq!(
        budgeted.metrics, reference.metrics,
        "metrics snapshot diverged under budget: {label}"
    );
    assert_eq!(budgeted.sim, reference.sim, "SimStats diverged: {label}");
    assert_eq!(
        budgeted.peer_stats, reference.peer_stats,
        "peer stats diverged: {label}"
    );
    assert_eq!(
        budgeted.fault_marks, reference.fault_marks,
        "fault marks diverged: {label}"
    );

    // The full per-probe analysis — locality, response times, rank fits,
    // overlay metrics — streamed off the spilled store must match the
    // in-RAM result bit for bit (Debug formatting preserves f64 bits).
    let dir = AsnDirectory::new();
    for (&node, isp) in reference
        .probes
        .iter()
        .zip([Isp::Tele, Isp::Cnc, Isp::Foreign])
    {
        let spilled = ProbeReport::new(node, isp, &budgeted.records, &dir);
        let in_ram = ProbeReport::new(node, isp, &reference.records, &dir);
        assert_eq!(
            format!("{spilled:?}"),
            format!("{in_ram:?}"),
            "probe {node:?} analysis diverged under budget: {label}"
        );
    }
}

/// The random-seed property, sampled through the harness's strategies but
/// with an explicit case count: each case simulates two full 360 s worlds,
/// so the default 64-case budget would dominate the suite. Four random
/// (seed, faulted) draws on top of the pinned tests below keep the
/// property honest at tier-1 cost.
#[test]
fn budgeted_capture_is_bit_identical() {
    let mut rng = test_rng(concat!(
        module_path!(),
        "::budgeted_capture_is_bit_identical"
    ));
    let strat = (0u64..1_000_000, any::<bool>());
    for _ in 0..4 {
        let (seed, faulted) = strat.sample(&mut rng);
        let reference = run_world(&world(seed, 1, None, faulted));
        let budgeted = run_world(&world(seed, 1, Some(TIGHT_BUDGET), faulted));
        assert_equivalent(
            &budgeted,
            &reference,
            &format!("seed {seed}, faulted {faulted}"),
        );
    }
}

/// Sharded runs: each shard's tap spills under the budget and the merge
/// streams spilled shard pages; the merged store (itself under budget)
/// must equal the unbounded single-shard capture.
#[test]
fn sharded_budgeted_capture_matches_unbounded_single_shard() {
    for (shards, faulted) in [(2usize, false), (4, true)] {
        let reference = run_world(&world(7, 1, None, faulted));
        let budgeted = run_world(&world(7, shards, Some(TIGHT_BUDGET), faulted));
        assert_equivalent(
            &budgeted,
            &reference,
            &format!("{shards} shards, faulted {faulted}"),
        );
    }
}

/// The budget actually bounds resident column bytes: the spilled store
/// reports a peak far below what the unbounded run kept resident.
#[test]
fn spilling_reduces_resident_footprint() {
    let reference = run_world(&world(3, 1, None, false));
    let budgeted = run_world(&world(3, 1, Some(TIGHT_BUDGET), false));
    assert_eq!(budgeted.records, reference.records);
    // The unbounded store holds every sealed page in RAM; the budgeted one
    // holds at most the budget's worth of sealed pages (the open page and
    // the shared address arena stay resident by design).
    assert!(
        budgeted.records.spilled_pages() >= 1,
        "tight budget did not spill"
    );
    assert!(
        reference.records.peak_resident_bytes() > TIGHT_BUDGET as usize,
        "world too small for the property to bite"
    );
}
