//! Integration tests: the sharded window loop. Each test is a set of
//! cells of the equivalence lattice (`tests/lattice/mod.rs`): every
//! sharded output must equal the one-shard run of the same world, and
//! every sharded cell checks the clamp to the populated ISPs and the
//! closed-form window rounds.

mod lattice;

use lattice::{
    chaos, check_within, reference_of, short, Cell, Shape, LIMIT, PAGE_ROWS, TIGHT_BUDGET,
};
use pplive_locality::Scale;

/// The two-minute unpopular world over shards {2, 5, 8 → 5} × threads
/// {1, 2}.
#[test]
fn sharded_session_is_byte_equal_to_the_single_shard_run() {
    let cut = Cell::new(Shape::Cut(Scale::Tiny, 120), 42);
    let cells = [2, 5, 8]
        .into_iter()
        .flat_map(|shards| [cut.on(shards, 1), cut.on(shards, 2)])
        .collect();
    check_within(LIMIT, cells);
}

/// The Tiny session under combined chaos at 8 shards on two threads and,
/// with the interconnect squeezed so that fractional backlogs are left
/// at the horizon on every shard, at 5; and three threads over five
/// shards under boundary-crossing faults.
#[test]
fn faulted_sharded_session_is_byte_equal_to_the_single_shard_run() {
    let squeezed = Cell {
        squeeze: true,
        ..chaos()
    };
    check_within(
        LIMIT,
        vec![chaos().on(8, 2), squeezed.on(5, 2), short().on(5, 3)],
    );
}

/// Under a capture budget smaller than one page every sealed page spills,
/// unsharded and sharded, with and without faults; budgeted runs of one
/// world report the same spilled pages and peak resident bytes.
#[test]
fn budgeted_sharded_session_matches_the_budgeted_single_shard_run() {
    let tight = Cell {
        budget: Some(TIGHT_BUDGET),
        ..Cell::new(Shape::Tiny, 42)
    };
    let chaos_tight = Cell {
        budget: Some(TIGHT_BUDGET),
        ..chaos()
    };
    let cells = vec![
        tight.clone(),
        tight.on(5, 1),
        tight.on(5, 2),
        chaos_tight.on(2, 1),
    ];
    let refs = check_within(LIMIT, cells);
    for cell in [&tight, &chaos_tight] {
        let rows = reference_of(&refs, cell).records.len();
        assert!(rows >= PAGE_ROWS, "{cell:?}: the budget cells never spill");
    }
}

/// The Fig. 6 deployment, two probes at each site, on five shards: each
/// site's two probes share a shard, so a shard's tap merges two probes'
/// rows before the shards' stores are merged.
#[test]
fn two_probes_on_one_shard_match_the_single_shard_run() {
    check_within(LIMIT, vec![Cell::new(Shape::Fig6, 42).on(5, 2)]);
}
