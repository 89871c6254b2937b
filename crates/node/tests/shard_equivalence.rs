//! Property test: a sharded world is bit-identical to the single-shard
//! run — same `SimStats`, same metrics snapshot, same capture bytes, same
//! peer stats and fault marks — for 1/2/4/8 shards at the same seed, over
//! random small worlds, with and without a fault plan whose events cross
//! shard boundaries. Shards are whole ISPs, so a request for eight is
//! clamped to the world's populated-ISP count: those runs are the
//! one-ISP-per-shard partition.

use plsim_des::SimTime;
use plsim_net::{Isp, LinkFault, LinkModel};
use plsim_node::{run_world, FaultPlan, PolicySpec, ProbeSpec, WorldConfig, WorldOutput};
use plsim_workload::{ChannelClass, PopulationSpec, SessionPlan};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A fault plan that stresses every cross-shard path at once: a tracker
/// blackout (timers fan out to trackers living on several shards at the
/// same instant), a churn storm (a same-time burst of leaves/rejoins over
/// the whole population), and a link fault over the TELE–CNC interconnect
/// (a fault window that both shard media must activate at the same global
/// pop positions).
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

/// A probe that joins early, so even these short worlds capture traffic.
fn probe(isp: Isp) -> ProbeSpec {
    ProbeSpec {
        join_s: 30.0,
        ..ProbeSpec::residential(isp)
    }
}

fn world(seed: u64, shards: usize, nat_fraction: f64, faulted: bool) -> WorldConfig {
    let mut rng = SmallRng::seed_from_u64(seed);
    let spec = PopulationSpec::tiny(ChannelClass::Unpopular);
    let plan = SessionPlan::generate(&spec, 120.0, &mut rng);
    let mut cfg = WorldConfig::new(seed, plan, SimTime::from_secs(120));
    // Probes in three ISPs, so captures span several shards.
    cfg.probes.push(probe(Isp::Tele));
    cfg.probes.push(probe(Isp::Cnc));
    cfg.probes.push(probe(Isp::Foreign));
    cfg.nat_fraction = nat_fraction;
    if faulted {
        cfg.faults = boundary_fault_plan();
    }
    cfg.shards = shards;
    cfg.shard_threads = 2;
    cfg
}

fn assert_identical(sharded: &WorldOutput, reference: &WorldOutput, label: &str) {
    assert_eq!(sharded.sim, reference.sim, "SimStats diverged: {label}");
    assert_eq!(
        sharded.metrics, reference.metrics,
        "metrics snapshot diverged: {label}"
    );
    assert_eq!(
        sharded.records, reference.records,
        "capture bytes diverged: {label}"
    );
    assert_eq!(
        sharded.peer_stats, reference.peer_stats,
        "peer stats diverged: {label}"
    );
    assert_eq!(
        sharded.fault_marks, reference.fault_marks,
        "fault marks diverged: {label}"
    );
}

/// The five selection-policy families, for sampling the policy dimension.
fn policy_strategy() -> impl Strategy<Value = PolicySpec> {
    prop_oneof![
        Just(PolicySpec::GossipRace),
        Just(PolicySpec::TrackerOnly),
        Just(PolicySpec::BiasedLocality { cross_isp_quota: 1 }),
        Just(PolicySpec::RttThreshold {
            cutoff: SimTime::from_millis(100),
        }),
        Just(PolicySpec::DeepDivingOracle),
    ]
}

proptest! {
    #[test]
    fn sharded_runs_are_bit_identical(
        seed in 0u64..1_000_000,
        nat in prop_oneof![Just(0.0), Just(0.3)],
        faulted in any::<bool>(),
    ) {
        let reference = run_world(&world(seed, 1, nat, faulted));
        for shards in [2usize, 4, 8] {
            let sharded = run_world(&world(seed, shards, nat, faulted));
            assert_identical(
                &sharded,
                &reference,
                &format!("seed {seed}, {shards} shards, nat {nat}, faulted {faulted}"),
            );
        }
    }

    /// The policy dimension: every selection policy — including the ones
    /// that reject candidates, rewrite the peer config, or bias tracker
    /// sampling — must stay bit-identical across shard counts, with and
    /// without the cross-shard fault preset.
    #[test]
    fn policies_are_bit_identical_across_shards(
        seed in 0u64..1_000_000,
        policy in policy_strategy(),
        faulted in any::<bool>(),
    ) {
        let mut reference_cfg = world(seed, 1, 0.0, faulted);
        reference_cfg.policy = policy;
        let reference = run_world(&reference_cfg);
        let mut sharded_cfg = world(seed, 4, 0.0, faulted);
        sharded_cfg.policy = policy;
        let sharded = run_world(&sharded_cfg);
        assert_identical(
            &sharded,
            &reference,
            &format!("seed {seed}, policy {policy:?}, faulted {faulted}"),
        );
    }
}

/// The fault preset pinned explicitly (the property above only sometimes
/// draws `faulted = true`): every fault category crossing shard
/// boundaries, 1 vs 2 vs 4 shards, including a thread count smaller than
/// the shard count.
#[test]
fn faulted_world_is_bit_identical_across_shard_counts() {
    let reference = run_world(&world(7, 1, 0.2, true));
    for (shards, threads) in [(2, 2), (4, 3), (4, 1)] {
        let mut cfg = world(7, shards, 0.2, true);
        cfg.shard_threads = threads;
        let sharded = run_world(&cfg);
        assert_identical(
            &sharded,
            &reference,
            &format!("{shards} shards / {threads} threads"),
        );
    }
}

/// Regression: the directed-queue backlog trajectories of a sharded run
/// match the single-shard run's event for event. The interconnect is
/// squeezed so every cross-ISP transfer queues, then the per-enqueue wait
/// distribution (`net.interconnect_wait_s` — one observation per enqueue,
/// in order) and the settled backlog gauge of the one-ISP-per-shard run
/// are compared against the single-shard run's. Every queue lives on its
/// source ISP's shard; an enqueue made on the wrong shard, out of order or
/// at the wrong capacity scale would shift at least one wait observation
/// into a different bucket.
#[test]
fn squeezed_interconnect_backlog_matches_single_shard() {
    let squeeze = |shards: usize| {
        let mut cfg = world(19, shards, 0.0, true);
        cfg.link = LinkModel {
            interconnect_mbps: 1.5,
            ..LinkModel::default()
        };
        cfg
    };
    let reference = run_world(&squeeze(1));
    let sharded = run_world(&squeeze(5));
    let report = sharded
        .partition
        .as_ref()
        .expect("5-shard run reports its partition");
    assert_eq!(report.isps, vec![1; 5], "one ISP per shard");

    let waits = |out: &WorldOutput| {
        out.metrics
            .histogram("net.interconnect_wait_s")
            .expect("interconnect wait histogram")
            .clone()
    };
    let ref_waits = waits(&reference);
    assert!(
        ref_waits.count > 0,
        "the squeezed interconnect never queued — the test is vacuous"
    );
    assert_eq!(
        waits(&sharded),
        ref_waits,
        "per-enqueue wait trajectory diverged"
    );
    assert_eq!(
        sharded.metrics.gauge("net.interconnect_backlog_bits"),
        reference.metrics.gauge("net.interconnect_backlog_bits"),
        "settled backlog gauge diverged"
    );
    assert_identical(&sharded, &reference, "squeezed interconnect, 5 shards");
}

/// The acceptance pin for 10×-Paper-scale worlds: a world with the
/// `Paper10x` population preset (10× the paper's unpopular-channel
/// audience — the popular channel is 7000 viewers and belongs in the
/// `--ignored` tier) is bit-identical across 1/2/4/5 shards, and a request
/// for 8 is clamped to the 5 populated ISPs. The horizon is shortened so
/// the suite stays runnable in debug CI; the population, and therefore
/// the partition shape, is the Paper10x one.
#[test]
fn paper10x_world_is_bit_identical_across_shard_counts() {
    let paper10x = |shards: usize| {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut spec = PopulationSpec::paper_default(ChannelClass::Unpopular);
        spec.steady_viewers = 1100; // Scale::Paper10x.viewers(Unpopular)
        let plan = SessionPlan::generate(&spec, 60.0, &mut rng);
        let mut cfg = WorldConfig::new(42, plan, SimTime::from_secs(60));
        // Early joiners: the shortened horizon still captures traffic.
        for isp in [Isp::Tele, Isp::Cnc] {
            cfg.probes.push(ProbeSpec {
                join_s: 10.0,
                ..ProbeSpec::residential(isp)
            });
        }
        cfg.shards = shards;
        cfg.shard_threads = 2;
        cfg
    };
    let reference = run_world(&paper10x(1));
    assert!(reference.partition.is_none());
    for shards in [2usize, 4, 5, 8] {
        let sharded = run_world(&paper10x(shards));
        let report = sharded
            .partition
            .as_ref()
            .expect("sharded run reports its partition");
        assert_eq!(report.shards, shards.min(5), "{shards} requested");
        assert_identical(&sharded, &reference, &format!("paper10x, {shards} shards"));
    }
}

/// Every policy family pinned explicitly under the cross-shard fault
/// preset (the property above samples the space; this nails all five at
/// one seed, including a thread count smaller than the shard count).
#[test]
fn every_policy_survives_faulted_sharding() {
    let policies = [
        PolicySpec::GossipRace,
        PolicySpec::TrackerOnly,
        PolicySpec::BiasedLocality { cross_isp_quota: 1 },
        PolicySpec::RttThreshold {
            cutoff: SimTime::from_millis(100),
        },
        PolicySpec::DeepDivingOracle,
    ];
    for policy in policies {
        let mut reference_cfg = world(11, 1, 0.2, true);
        reference_cfg.policy = policy;
        let reference = run_world(&reference_cfg);
        for (shards, threads) in [(2, 2), (4, 1)] {
            let mut cfg = world(11, shards, 0.2, true);
            cfg.policy = policy;
            cfg.shard_threads = threads;
            let sharded = run_world(&cfg);
            assert_identical(
                &sharded,
                &reference,
                &format!("{policy:?}, {shards} shards / {threads} threads"),
            );
        }
    }
}
