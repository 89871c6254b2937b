//! Ablation study: compares the PPLive design (neighbor referral +
//! latency-ordered connection + latency-weighted scheduling) against the
//! BitTorrent-style tracker-only baseline and two intermediate variants,
//! quantifying the §1/§4 discussion of the paper ("the tracker based peer
//! selection strategy in BitTorrent often causes unnecessary bandwidth
//! waste").
//!
//! ```sh
//! cargo run --release --example baseline_comparison [tiny|reduced|paper]
//! ```

use pplive_locality::{
    ablation_grid, render_ablation, render_underlay_ablation, sweep, underlay_ablation_grid,
    AblationResult, JobPool, Scale,
};

fn main() {
    let scale = match std::env::args().nth(1).as_deref() {
        Some("paper") => Scale::Paper,
        Some("tiny") => Scale::Tiny,
        _ => Scale::Reduced,
    };
    println!("running the popular channel under 4 protocol variants ({scale:?} scale)...\n");
    let t0 = std::time::Instant::now();
    let ablate = |rows| {
        sweep(&JobPool::default(), rows, |label, _, run| {
            AblationResult::of(label, &run)
        })
    };
    let results = ablate(ablation_grid(scale, 42));
    println!("{}", render_ablation(&results));

    let pplive = results
        .iter()
        .find(|r| r.variant.starts_with("PPLive"))
        .expect("PPLive variant");
    let tracker = results
        .iter()
        .find(|r| r.variant.starts_with("Tracker-only"))
        .expect("tracker-only variant");
    println!(
        "PPLive keeps {:.1}% of the probe's traffic inside its ISP; the tracker-only baseline keeps {:.1}% — {:.1}x more cross-ISP traffic.",
        100.0 * pplive.tele_locality,
        100.0 * tracker.tele_locality,
        (1.0 - tracker.tele_locality) / (1.0 - pplive.tele_locality).max(1e-9)
    );
    println!("\nunderlay-mechanism ablation (same protocol, weakened underlays):\n");
    println!(
        "{}",
        render_underlay_ablation(&ablate(underlay_ablation_grid(scale, 42)))
    );
    println!("(wall time {:.1?})", t0.elapsed());
}
