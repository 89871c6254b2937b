//! Interplay of experiment fan-out and shard driving: a [`JobPool`] job
//! that runs a sharded world must complete even when the pool has fewer
//! threads than the world has shards, because shard threads come from a
//! scoped spawn inside the job, not from the pool's own workers. The pool
//! only has to account honestly for what *it* did: `DispatchStats` counts
//! the dispatch paths actually taken. Each world drives its shards on an
//! explicit one-thread budget, so the batch never oversubscribes.

use plsim_des::SimTime;
use plsim_net::Isp;
use plsim_node::{run_world, ProbeSpec, WorldConfig, WorldOutput};
use plsim_workload::{ChannelClass, PopulationSpec, SessionPlan};
use pplive_locality::JobPool;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A tiny world on `shards` shards, all driven by one thread.
fn sharded_world(seed: u64, shards: usize) -> WorldConfig {
    let mut rng = SmallRng::seed_from_u64(seed);
    let plan = SessionPlan::generate(
        &PopulationSpec::tiny(ChannelClass::Unpopular),
        90.0,
        &mut rng,
    );
    let mut cfg = WorldConfig::new(seed, plan, SimTime::from_secs(90));
    cfg.probes.push(ProbeSpec {
        join_s: 25.0,
        ..ProbeSpec::residential(Isp::Tele)
    });
    cfg.shards = shards;
    cfg.shard_threads = 1;
    cfg
}

fn run_batch(pool: &JobPool, seeds: &[u64], shards: usize) -> Vec<WorldOutput> {
    let cfgs: Vec<WorldConfig> = seeds.iter().map(|&s| sharded_world(s, shards)).collect();
    pool.map(cfgs, |cfg| run_world(&cfg))
}

/// Fewer threads than shards, expressed directly: a sequential pool
/// (one thread) driving four-shard worlds. Nothing blocks — the shard
/// barrier is between scoped threads the job owns, not pool workers —
/// and the dispatch ledger records the batch as inline.
#[test]
fn sequential_pool_drives_four_shard_worlds_without_deadlock() {
    let pool = JobPool::new(1);
    let before = pool.dispatch_stats();
    let outputs = run_batch(&pool, &[11, 12], 4);
    let after = pool.dispatch_stats();

    assert_eq!(outputs.len(), 2);
    assert_eq!(after.inline_runs, before.inline_runs + 1);
    assert_eq!(after.threaded_runs, before.threaded_runs);

    // Sharding changes scheduling on the wall clock only:
    // each output is still bit-identical to its unsharded twin.
    for (out, &seed) in outputs.iter().zip(&[11u64, 12]) {
        let reference = run_world(&sharded_world(seed, 1));
        assert_eq!(out.sim, reference.sim, "seed {seed}: SimStats diverged");
        assert_eq!(
            out.metrics, reference.metrics,
            "seed {seed}: metrics diverged"
        );
        assert_eq!(
            out.records, reference.records,
            "seed {seed}: capture diverged"
        );
    }
}

/// A two-thread pool over two sharded jobs: the batch fans out, each job
/// drives its shards on its own single-thread budget, and the ledger
/// counts one threaded dispatch.
#[test]
fn threaded_pool_shares_budget_with_shard_driving() {
    let pool = JobPool::new(2);
    let before = pool.dispatch_stats();
    let outputs = run_batch(&pool, &[21, 22], 4);
    let after = pool.dispatch_stats();

    assert_eq!(outputs.len(), 2);
    assert_eq!(after.threaded_runs, before.threaded_runs + 1);
    assert_eq!(after.inline_runs, before.inline_runs);
    assert_ne!(outputs[0].sim, outputs[1].sim, "distinct seeds, same stats");
}
