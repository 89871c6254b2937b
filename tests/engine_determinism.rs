//! Integration tests: the parallel experiment engine is a pure
//! reordering of work — every artifact driver is a grid of labelled
//! scenarios through one fan-out, `sweep`, whose rows come back in grid
//! order and byte-identical to each row's scenario run alone, on any pool
//! — and one world's output does not depend on the kernel scheduler or on
//! the pool, shards and reruns that run it under any fault plan, checked
//! as cells of the equivalence lattice (`tests/lattice/mod.rs`).

mod lattice;

use std::ops::Range;
use std::sync::OnceLock;

use lattice::{check_within, reference_of, sample_cells, Cell, Shape, LIMIT};
use plsim_des::SchedulerKind;
use plsim_workload::ChannelClass::{self, Popular, Unpopular};
use pplive_locality::{
    ablation_grid, fig_6_grid, frontier_grid, sweep, underlay_ablation_grid, JobPool, Scale,
    Scenario, ScenarioRun, Suite,
};

const SEED: u64 = 42;

/// One mixed grid with every driver's kind of row, in this order: the
/// suite's popular and unpopular rows at seed 42 (the unpopular one under
/// the seed salt) and its unpopular row at seed 43, a Fig. 6 day with its
/// day factor, a `PeerConfig` arm, a `LinkModel` arm and a `PolicySpec`
/// arm at the frontier's second seed.
fn mixed_grid() -> Vec<(String, Scenario)> {
    let tiny = Scale::Tiny;
    let mut rows = Suite::grid(tiny, &[SEED, SEED + 1]);
    rows.remove(2); // popular at seed 43
    rows.push(fig_6_grid(1, tiny, SEED).swap_remove(1)); // unpopular day 1
    rows.push(ablation_grid(tiny, SEED).swap_remove(1)); // delayed-random connect
    rows.push(underlay_ablation_grid(tiny, SEED).swap_remove(1)); // no interconnect queue
    rows.push(frontier_grid(tiny, SEED, true, 2).swap_remove(4)); // biased_locality:2, seed 43
    rows
}

/// The mixed grid's rows run alone, through `sweep` inline and through
/// `sweep` on a four-thread pool.
struct Runs {
    rows: Vec<(String, Scenario)>,
    alone: Vec<ScenarioRun>,
    swept: [Vec<(String, ScenarioRun)>; 2],
}

/// The mixed grid runs once per test binary; each test below checks the
/// rows of the driver it names.
fn runs() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| {
        let rows = mixed_grid();
        let keep = |label: &str, _: &_, run| (label.to_string(), run);
        // The references run beside the sequential sweep, one core each.
        let (alone, sequential) = std::thread::scope(|scope| {
            let alone = scope.spawn(|| rows.iter().map(|(_, s)| s.run()).collect::<Vec<_>>());
            let sequential = sweep(&JobPool::sequential(), rows.clone(), keep);
            (alone.join().expect("reference runs"), sequential)
        });
        let pooled = sweep(&JobPool::new(4), rows.clone(), keep);
        Runs {
            rows,
            alone,
            swept: [sequential, pooled],
        }
    })
}

/// Rows `range` of the mixed grid come back from both sweeps in grid
/// order under their own labels, equal on every output and probe report
/// to their scenarios run alone.
fn check_rows(range: Range<usize>) {
    let Runs { rows, alone, swept } = runs();
    for runs in swept {
        assert_eq!(runs.len(), rows.len());
        for i in range.clone() {
            let ((label, run), ((want, _), reference)) = (&runs[i], (&rows[i], &alone[i]));
            assert_eq!(label, want, "row out of grid order");
            let (out, reference_out) = (&run.output, &reference.output);
            assert_eq!(out.sim, reference_out.sim, "{label}: sim");
            assert_eq!(out.records, reference_out.records, "{label}: records");
            assert_eq!(out.metrics, reference_out.metrics, "{label}: metrics");
            assert_eq!(out.peer_stats, reference_out.peer_stats, "{label}: peers");
            assert_eq!(
                format!("{:?}", run.reports),
                format!("{:?}", reference.reports),
                "{label}: probe reports"
            );
        }
    }
}

/// The whole mixed grid, run sequentially and on a four-thread pool.
#[test]
fn sweep_is_order_stable() {
    check_rows(0..runs().rows.len());
}

/// The suite's two sessions at one seed.
#[test]
fn suite_parallel_is_bit_identical_to_sequential() {
    check_rows(0..2);
}

/// The suite's rows at two master seeds keep their order: the two
/// unpopular worlds differ, so a swap would show.
#[test]
fn multi_seed_sweep_is_order_stable() {
    check_rows(0..3);
    let alone = &runs().alone;
    assert_ne!(alone[1].output.records, alone[2].output.records);
}

/// An unpopular Fig. 6 day with its day seed and day factor.
#[test]
fn fig_6_parallel_matches_sequential() {
    check_rows(3..4);
}

/// The A1 ablation's delayed-random `PeerConfig` arm.
#[test]
fn ablation_parallel_matches_sequential() {
    check_rows(4..5);
}

/// The A2 ablation's no-interconnect-queue `LinkModel` arm.
#[test]
fn underlay_ablation_parallel_matches_sequential() {
    check_rows(5..6);
}

/// The frontier's `biased_locality:2` arm at its second seed.
#[test]
fn frontier_sweep_parallel_matches_sequential() {
    check_rows(6..7);
}

/// Every driver's grid at seed 42, Tiny, as the rows it hands `sweep`:
/// label, class, world seed and whether a day factor is set. Runs no
/// session.
#[test]
fn driver_grids_are_pinned() {
    let grid = [
        Suite::grid(Scale::Tiny, &[SEED, SEED + 1]),
        fig_6_grid(3, Scale::Tiny, SEED),
        ablation_grid(Scale::Tiny, SEED),
        underlay_ablation_grid(Scale::Tiny, SEED),
        frontier_grid(Scale::Tiny, SEED, true, 2),
    ]
    .concat();
    assert!(grid.iter().all(|(_, s)| s.scale == Scale::Tiny));
    let got: Vec<(&str, ChannelClass, u64, bool)> = grid
        .iter()
        .map(|(label, s)| (label.as_str(), s.class, s.seed, s.day.is_some()))
        .collect();
    assert_eq!(got, GRIDS);
}

/// The pins of [`driver_grids_are_pinned`]. The suite's unpopular world
/// is seed `seed ^ 0x5151` (42 → 20,859, 43 → 20,858), and Fig. 6 day `d`
/// is seed `42 + 7919·d`.
#[rustfmt::skip]
const GRIDS: [(&str, ChannelClass, u64, bool); 24] = [
    // Suite::grid(Tiny, &[42, 43])
    ("popular",                                  Popular,   42,     false),
    ("unpopular",                                Unpopular, 20_859, false),
    ("popular",                                  Popular,   43,     false),
    ("unpopular",                                Unpopular, 20_858, false),
    // fig_6_grid(3, Tiny, 42)
    ("popular day 1",                            Popular,   7_961,  true),
    ("popular day 2",                            Popular,   15_880, true),
    ("popular day 3",                            Popular,   23_799, true),
    ("unpopular day 1",                          Unpopular, 7_961,  true),
    ("unpopular day 2",                          Unpopular, 15_880, true),
    ("unpopular day 3",                          Unpopular, 23_799, true),
    // ablation_grid(Tiny, 42)
    ("PPLive (referral+latency)",                Popular,   42,     false),
    ("No latency race (delayed-random connect)", Popular,   42,     false),
    ("Uniform data scheduling",                  Popular,   42,     false),
    ("Tracker-only (BitTorrent-like)",           Popular,   42,     false),
    // underlay_ablation_grid(Tiny, 42)
    ("calibrated 2008 underlay",                 Popular,   42,     false),
    ("no interconnect queue",                    Popular,   42,     false),
    ("no static congestion",                     Popular,   42,     false),
    ("neither (propagation only)",               Popular,   42,     false),
    // frontier_grid(Tiny, 42, smoke, 2 seeds)
    ("gossip_race",                              Popular,   42,     false),
    ("biased_locality:2",                        Popular,   42,     false),
    ("biased_locality:0",                        Popular,   42,     false),
    ("gossip_race",                              Popular,   43,     false),
    ("biased_locality:2",                        Popular,   43,     false),
    ("biased_locality:0",                        Popular,   43,     false),
];

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
