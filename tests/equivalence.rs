//! The equivalence lattice's policy axis and its full slice: every
//! selection policy's world, under faults, is the same run however it is
//! sharded. The lattice itself, and where the rest of its fast slice
//! runs, is `tests/lattice/mod.rs`. The `#[ignore]`d full slice samples
//! more cells and adds the Paper10x population (`cargo test --release
//! --test equivalence -- --ignored`).

mod lattice;

use lattice::{check, check_within, sample_cells, short, Cell, Shape, LIMIT, POLICIES};
use pplive_locality::Scale;

/// All five selection policies under boundary-crossing faults, each at
/// two shards on two threads and at five shards on one.
#[test]
fn fast_slice() {
    let mut cells = Vec::new();
    for policy in POLICIES {
        let cell = Cell { policy, ..short() };
        cells.extend([cell.on(2, 2), cell.on(5, 1)]);
    }
    check_within(LIMIT, cells);
}

/// More sampled cells, and the Paper10x population over 60 s at every
/// shard count.
#[test]
#[ignore = "minutes in the debug profile; run with --release -- --ignored"]
fn full_slice() {
    let paper10x = Cell::new(Shape::Cut(Scale::Paper10x, 60), 42);
    let mut cells: Vec<Cell> = [2, 4, 5, 8].map(|s| paper10x.on(s, 2)).to_vec();
    cells.extend(sample_cells("equivalence::full_slice", 256));
    check(cells);
}
