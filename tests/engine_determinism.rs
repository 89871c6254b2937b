//! Integration tests: the parallel experiment engine is a pure
//! reordering of work — every artifact driver's output is byte-identical
//! to a sequential run of the same artifacts at the same seed — and one
//! world's output does not depend on the kernel scheduler or on the pool,
//! shards and reruns that run it under any fault plan, checked as cells
//! of the equivalence lattice (`tests/lattice/mod.rs`).

mod lattice;

use lattice::{check_within, reference_of, sample_cells, Cell, Shape, LIMIT};
use plsim_des::SchedulerKind;
use pplive_locality::{
    ablation_on, fig_6_on, frontier_csv, locality_frontier_on, underlay_ablation_on, JobPool,
    Scale, Suite,
};

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

/// The Tiny unpopular world under the heap scheduler equals its calendar
/// reference. The schedulers' own equivalence suite lives in `plsim-des`,
/// which tier-1 does not compile; this holds the contract on a whole
/// world's key stream.
#[test]
fn world_is_bit_identical_under_heap_and_calendar() {
    let heap = Cell {
        scheduler: SchedulerKind::Heap,
        ..Cell::new(Shape::Tiny, SEED)
    };
    let refs = check_within(LIMIT, vec![heap.clone()]);
    let events = reference_of(&refs, &heap).sim.events_processed;
    assert!(events > 100_000, "heap world too small");
}

/// Cells drawn from the whole lattice: generated fault plans (outages,
/// storms, partitions, ramps, in any combination) on micro, two-minute
/// and Tiny worlds, under any policy, shards, threads, scheduler, budget
/// and dispatch — a rerun, a two-thread pool or one inline run.
#[test]
fn any_fault_plan_is_seed_stable_and_pool_invariant() {
    let name = "engine_determinism::any_fault_plan_is_seed_stable_and_pool_invariant";
    check_within(LIMIT, sample_cells(name, 6));
}
