//! Integration tests: a run is a pure function of its seed. Each test is
//! a set of cells of the equivalence lattice (`tests/lattice/mod.rs`),
//! checked against their references.

mod lattice;

use lattice::{check_within, reference_of, short, Cell, Dispatch, Shape, LIMIT};
use pplive_locality::Scale;

/// The two-minute unpopular world run twice in a row equals its
/// reference run on every output and probe report.
#[test]
fn identical_seeds_give_identical_runs() {
    let rerun = Cell {
        dispatch: Dispatch::Rerun,
        ..Cell::new(Shape::Cut(Scale::Tiny, 120), 42)
    };
    let refs = check_within(LIMIT, vec![rerun.clone()]);
    let reference = reference_of(&refs, &rerun);
    assert!(reference.sim.events_processed > 0 && !reference.records.is_empty());
}

/// Two references that differ only in their seed differ in their event
/// and record counts; each seed's world, fanned out as sharded jobs over
/// a pool, equals its own reference.
#[test]
fn different_seeds_give_different_runs() {
    let pooled = |seed, shards| Cell {
        dispatch: Dispatch::Pool,
        ..Cell::new(Shape::Micro, seed).on(shards, 1)
    };
    let (a, b) = (pooled(21, 8), pooled(22, 2));
    let refs = check_within(LIMIT, vec![a.clone(), b.clone()]);
    let counts = |cell| {
        let out = reference_of(&refs, cell);
        (out.sim.events_processed, out.records.len())
    };
    assert_ne!(counts(&a), counts(&b), "two seeds, one run");
}

/// Peer statistics are part of every cell's comparison; this rerun puts
/// them under faults and NAT, where peers leave, rejoin and go silent.
#[test]
fn peer_stats_are_deterministic_too() {
    let rerun = Cell {
        dispatch: Dispatch::Rerun,
        ..short()
    };
    let refs = check_within(LIMIT, vec![rerun.clone()]);
    assert!(!reference_of(&refs, &rerun).peer_stats.is_empty());
}
