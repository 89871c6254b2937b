//! Shared plumbing for the benchmark harness.
//!
//! Each bench binary regenerates one family of the paper's tables/figures
//! (printing the rows the paper reports, at `Scale::Tiny` so `cargo bench`
//! stays fast) and then times the regeneration. The canonical full-scale
//! regeneration is `cargo run --release --example locality_study paper`.

use pplive_locality::{Scale, Suite};
use std::sync::OnceLock;

/// The shared (popular, unpopular) session pair used by all figure benches;
/// simulated once per bench binary.
pub fn bench_suite() -> &'static Suite {
    static SUITE: OnceLock<Suite> = OnceLock::new();
    SUITE.get_or_init(|| Suite::run(Scale::Tiny, 42))
}

/// Scale used when a bench needs to run fresh simulations in the timing
/// loop.
pub const BENCH_SCALE: Scale = Scale::Tiny;
