//! Integration test: the sharded window loop, where Tier-1 runs.
//!
//! One `Scale::Tiny` unpopular session over a grid of shard and thread
//! counts — past the five populated ISPs at 8, which the partitioner
//! clamps to 5 because shards are whole ISPs — plus one faulted session at
//! 8 shards, one budgeted session whose capture spills, and one Fig. 6
//! session whose six probes put two on each of three shards. Every output
//! must equal the `shards = 1` run at the same seed. The
//! property-based version of this contract lives in
//! `crates/node/tests/shard_equivalence.rs`; this file exists so that the
//! root package's `cargo test` notices a broken window loop.

use plsim_node::{run_world, CaptureConfig, WorldConfig, WorldOutput};
use plsim_workload::ChannelClass;
use pplive_locality::{combined_chaos, FaultPlan, ProbeSite, Scale, Scenario};

fn world(faults: FaultPlan, shards: usize, threads: usize) -> WorldConfig {
    let mut cfg = Scenario::new(ChannelClass::Unpopular, Scale::Tiny, 42)
        .with_faults(faults)
        .world_config();
    cfg.shards = shards;
    cfg.shard_threads = threads;
    cfg
}

fn assert_identical(sharded: &WorldOutput, reference: &WorldOutput, what: &str) {
    assert_eq!(sharded.sim, reference.sim, "{what}: sim");
    assert_eq!(sharded.metrics, reference.metrics, "{what}: metrics");
    assert_eq!(sharded.records, reference.records, "{what}: records");
    assert_eq!(
        sharded.peer_stats, reference.peer_stats,
        "{what}: peer_stats"
    );
    assert_eq!(
        sharded.fault_marks, reference.fault_marks,
        "{what}: fault_marks"
    );
}

#[test]
fn sharded_session_is_byte_equal_to_the_single_shard_run() {
    let reference = run_world(&world(FaultPlan::new(), 1, 1));
    assert!(reference.partition.is_none());
    assert!(reference.sim.events_processed > 0);
    for shards in [2, 5, 8] {
        for threads in [1, 2] {
            let cfg = world(FaultPlan::new(), shards, threads);
            let sharded = run_world(&cfg);
            let what = format!("{shards} shards / {threads} threads");
            assert_identical(&sharded, &reference, &what);

            let report = sharded.partition.as_ref().expect("sharded run reports");
            assert_eq!(report.shards, shards.min(5), "{what}");
            if shards == 8 {
                let rounds = 5 * cfg
                    .duration
                    .as_micros()
                    .div_ceil(report.lookahead.as_micros());
                assert_eq!(report.window_rounds, rounds, "{what}");
                assert_eq!(report.window_rounds_global, rounds, "{what}");
            }
        }
    }
}

#[test]
fn faulted_sharded_session_is_byte_equal_to_the_single_shard_run() {
    let faults = combined_chaos(Scale::Tiny);
    let reference = run_world(&world(faults.clone(), 1, 1));
    assert!(!reference.fault_marks.is_empty());
    let sharded = run_world(&world(faults, 8, 2));
    assert!(sharded.partition.is_some());
    assert_identical(&sharded, &reference, "combined-chaos, 8 shards / 2 threads");
}

/// Under a capture budget smaller than one page, every probe's store
/// spills its sealed pages and the merges stream them back; the merged
/// store, itself spilling, must hold the budgeted monolithic run's records
/// and report the same spill and resident figures.
#[test]
fn budgeted_sharded_session_matches_the_budgeted_single_shard_run() {
    let budgeted = |shards, threads| {
        let mut cfg = world(FaultPlan::new(), shards, threads);
        cfg.capture = CaptureConfig {
            budget: Some(256 * 1024),
            aggregate_window: None,
        };
        run_world(&cfg)
    };
    let reference = budgeted(1, 1);
    assert!(
        reference.records.spilled_pages() > 0,
        "reference never spilled"
    );
    for threads in [1, 2] {
        let sharded = budgeted(5, threads);
        let what = format!("budgeted, 5 shards / {threads} threads");
        assert!(sharded.records.spilled_pages() > 0, "{what}: never spilled");
        assert_identical(&sharded, &reference, &what);
        assert_eq!(
            sharded.records.spilled_pages(),
            reference.records.spilled_pages(),
            "{what}: spilled pages"
        );
        assert_eq!(
            sharded.records.peak_resident_bytes(),
            reference.records.peak_resident_bytes(),
            "{what}: peak resident bytes"
        );
    }
}

/// The Fig. 6 deployment — two concurrent hosts per site — on five
/// shards: each site's two probes share a shard, so a shard's tap merges
/// two probes' rows before the shards' stores are merged.
#[test]
fn two_probes_on_one_shard_match_the_single_shard_run() {
    let fig6 = |shards| {
        let mut scenario = Scenario::new(ChannelClass::Popular, Scale::Tiny, 42);
        scenario.probes = vec![
            ProbeSite::Tele,
            ProbeSite::Tele,
            ProbeSite::Cnc,
            ProbeSite::Cnc,
            ProbeSite::Mason,
            ProbeSite::Mason,
        ];
        let mut cfg = scenario.world_config();
        cfg.shards = shards;
        cfg.shard_threads = 2;
        run_world(&cfg)
    };
    let reference = fig6(1);
    let sharded = fig6(5);
    assert_eq!(sharded.partition.as_ref().map(|p| p.shards), Some(5));
    for pair in reference.probes.chunks(2) {
        let isp = |p| reference.topology.host(p).isp;
        assert_eq!(isp(pair[0]), isp(pair[1]), "a site's probes share an ISP");
        assert!(reference.records.rows_for(pair[1]).next().is_some());
    }
    assert_identical(&sharded, &reference, "Fig. 6 probes, 5 shards / 2 threads");
}
