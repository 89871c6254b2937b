//! Integration tests: the parallel experiment engine is a pure
//! reordering of work — its output is byte-identical to a sequential
//! run of the same artifacts at the same seed, with or without a fault
//! schedule attached.

use plsim_des::{SchedulerKind, SimTime};
use plsim_net::{BandwidthClass, Isp, LinkFault};
use plsim_node::{run_world, FaultPlan, ProbeSpec, WorldConfig, WorldOutput};
use plsim_workload::{ChannelClass, PeerPlan, SessionPlan};
use pplive_locality::{
    ablation_on, fig_6_on, frontier_csv, locality_frontier_on, underlay_ablation_on, JobPool,
    Scale, Scenario, Suite,
};
use proptest::prelude::*;

const SEED: u64 = 42;

fn seq() -> JobPool {
    JobPool::sequential()
}

fn par() -> JobPool {
    JobPool::new(4)
}

#[test]
fn suite_parallel_is_bit_identical_to_sequential() {
    let a = Suite::run_on(&seq(), Scale::Tiny, SEED);
    let b = Suite::run_on(&par(), Scale::Tiny, SEED);
    for (s, p) in [(&a.popular, &b.popular), (&a.unpopular, &b.unpopular)] {
        assert_eq!(s.output.sim, p.output.sim, "kernel counters diverged");
        assert_eq!(s.output.records, p.output.records, "traces diverged");
        assert_eq!(s.output.peer_stats, p.output.peer_stats);
        assert_eq!(s.output.metrics, p.output.metrics, "metrics diverged");
    }
}

#[test]
fn multi_seed_sweep_is_order_stable() {
    let seeds = [1u64, 2, 3];
    let a = Suite::run_seeds_on(&seq(), Scale::Tiny, &seeds);
    let b = Suite::run_seeds_on(&par(), Scale::Tiny, &seeds);
    assert_eq!(a.len(), b.len());
    for (s, p) in a.iter().zip(&b) {
        assert_eq!(s.popular.output.records, p.popular.output.records);
        assert_eq!(s.unpopular.output.records, p.unpopular.output.records);
    }
}

#[test]
fn ablation_parallel_matches_sequential() {
    let a = ablation_on(&seq(), Scale::Tiny, SEED);
    let b = ablation_on(&par(), Scale::Tiny, SEED);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn frontier_sweep_parallel_matches_sequential() {
    // The policy sweep fans one session per policy through the pool; its
    // merged output (and the CSV serialization the studies commit) must be
    // byte-identical to a sequential sweep.
    let a = locality_frontier_on(&seq(), Scale::Tiny, SEED, true);
    let b = locality_frontier_on(&par(), Scale::Tiny, SEED, true);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(frontier_csv(&a), frontier_csv(&b));
}

#[test]
fn underlay_ablation_parallel_matches_sequential() {
    let a = underlay_ablation_on(&seq(), Scale::Tiny, SEED);
    let b = underlay_ablation_on(&par(), Scale::Tiny, SEED);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn fig_6_parallel_matches_sequential() {
    let a = fig_6_on(&seq(), 2, Scale::Tiny, SEED);
    let b = fig_6_on(&par(), 2, Scale::Tiny, SEED);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

// ---- FaultPlan determinism property ------------------------------------

#[test]
fn world_is_bit_identical_under_heap_and_calendar() {
    // The schedulers' own equivalence suites live in `plsim-des`, which
    // tier-1 does not compile; this holds the contract on a whole world's
    // key stream where tier-1 runs.
    let mut cfg = Scenario::new(ChannelClass::Unpopular, Scale::Tiny, SEED).world_config();
    cfg.scheduler = SchedulerKind::Heap;
    let heap = run_world(&cfg);
    cfg.scheduler = SchedulerKind::Calendar;
    let calendar = run_world(&cfg);
    assert!(heap.sim.events_processed > 100_000, "world too small");
    assert_eq!(heap.sim, calendar.sim, "kernel counters diverged");
    assert_eq!(heap.records, calendar.records, "traces diverged");
    assert_eq!(
        heap.metrics.to_json(),
        calendar.metrics.to_json(),
        "metrics snapshots diverged"
    );
}

/// A 150 s micro world — a dozen viewers split across TELE and CNC plus
/// one captured probe — small enough to run hundreds of times inside a
/// property test while still exercising trackers, gossip and playback.
fn micro_world(seed: u64, faults: FaultPlan) -> WorldConfig {
    let peers = (0..12u64)
        .map(|i| PeerPlan {
            isp: if i % 3 == 0 { Isp::Cnc } else { Isp::Tele },
            bandwidth: BandwidthClass::Adsl,
            join_s: (i * 5) as f64,
            leave_s: 150.0,
        })
        .collect();
    let mut cfg = WorldConfig::new(seed, SessionPlan { peers }, SimTime::from_secs(150));
    cfg.probes = vec![ProbeSpec {
        isp: Isp::Tele,
        bandwidth: BandwidthClass::Adsl,
        join_s: 30.0,
    }];
    cfg.faults = faults;
    cfg
}

fn assert_same_output(a: &WorldOutput, b: &WorldOutput, what: &str) {
    assert_eq!(a.sim, b.sim, "{what}: kernel counters diverged");
    assert_eq!(a.records, b.records, "{what}: traces diverged");
    assert_eq!(a.peer_stats, b.peer_stats, "{what}: peer stats diverged");
    assert_eq!(a.fault_marks, b.fault_marks, "{what}: fault marks diverged");
    assert_eq!(a.metrics, b.metrics, "{what}: metrics snapshots diverged");
}

proptest! {
    /// Any generated fault schedule — outages, storms, partitions, ramps,
    /// in any combination — leaves the engine deterministic: two
    /// sequential runs at the same seed are bit-identical, and so are runs
    /// fanned out through a [`JobPool`] and a run split over four shards.
    #[test]
    fn any_fault_plan_is_seed_stable_and_pool_invariant(
        seed in 0u64..1_000_000,
        events in collection::vec((0u32..7, 5u64..110, 10u64..60, 0.05f64..0.6), 0..4),
    ) {
        let mut plan = FaultPlan::new();
        for &(kind, at_s, gap_s, frac) in &events {
            let at = SimTime::from_secs(at_s);
            let until = SimTime::from_secs(at_s + gap_s);
            plan = match kind {
                0 => plan.tracker_blackout(at, until),
                1 => plan.tracker_outage(at),
                2 => plan.bootstrap_outage(at, Some(until)),
                3 => plan.churn_storm(at, frac, Some(SimTime::from_secs(gap_s))),
                4 => plan.link(LinkFault::partition(Isp::Tele, Isp::Cnc, at, until)),
                5 => plan.link(LinkFault::loss_ramp(
                    at,
                    until,
                    SimTime::from_secs(gap_s / 2),
                    frac * 0.3,
                )),
                _ => plan.link(LinkFault::degraded_interconnect(at, until, frac)),
            };
        }
        let cfg = micro_world(seed, plan);

        let a = run_world(&cfg);
        let b = run_world(&cfg);
        assert_same_output(&a, &b, "sequential rerun");

        let pooled = JobPool::new(2).map(vec![cfg.clone(), cfg.clone()], |c| run_world(&c));
        for out in &pooled {
            assert_same_output(&a, out, "pooled run");
        }

        // Three ISPs are populated, so four shards split one of them.
        let mut sharded = cfg;
        sharded.shards = 4;
        sharded.shard_threads = 1;
        let out = run_world(&sharded);
        prop_assert!(out.partition.is_some(), "4-shard run degenerated");
        assert_same_output(&a, &out, "4-shard run");
    }
}
