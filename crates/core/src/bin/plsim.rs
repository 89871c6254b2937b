//! `plsim` — command-line front end for the PPLive traffic-locality
//! reproduction.
//!
//! ```text
//! plsim run [popular|unpopular] [tiny|reduced|paper|paper10x] [seed] [--shards N] [--partition-json <path>]
//! plsim figures [tiny|reduced|paper] [seed]
//! plsim fig6 [days] [tiny|reduced|paper] [seed]
//! plsim ablation [tiny|reduced|paper] [seed]
//! plsim locality_frontier [--smoke] [--csv <path>] [--seeds N] [tiny|reduced|paper] [seed]
//! plsim workload [n] [c] [a] [noise]
//! plsim export <dir> [tiny|reduced|paper] [seed]
//! ```
//!
//! The global `--metrics-json <path>` flag additionally dumps the
//! end-of-run metrics-registry snapshot (with invariant tallies) for the
//! commands that simulate sessions (`run`, `figures`, `export`).
//!
//! `run --shards N` space-partitions the session across `N` shard
//! schedulers (sub-ISP host groups once `N` exceeds the populated ISP
//! count) and prints the partition-quality report — per-shard host/ISP
//! counts, split-ISP and owner-replayed-queue counts, load imbalance,
//! lookahead — in `DispatchStats`' honest-reporting style;
//! `--partition-json <path>` archives the same report as JSON.

use plsim_workload::ChannelClass;
use pplive_locality::{
    ablation, export_suite, fig_6, figs_11_to_14, figs_15_to_18, figs_2_to_5, frontier_bands,
    frontier_bands_csv, frontier_csv, locality_frontier, locality_frontier_seeds, pct,
    render_ablation, render_fig11_14, render_fig15_18, render_fig7_10, render_frontier,
    render_frontier_bands, render_table1, render_underlay_ablation, response_times,
    suite_metrics_json, underlay_ablation, workload_round_trip, ProbeSite, Scale, Scenario, Suite,
};

// The positional parsers default only an *absent* token; a token that is
// present but unrecognised is an error, never a silent fallback (which
// would print a table for a different run than the one asked for).

fn parse_class(s: Option<&str>) -> Result<ChannelClass, String> {
    match s {
        None | Some("popular") => Ok(ChannelClass::Popular),
        Some("unpopular") => Ok(ChannelClass::Unpopular),
        Some(other) => Err(format!(
            "unrecognised channel class {other:?} (expected popular|unpopular)"
        )),
    }
}

fn parse_scale(s: Option<&str>) -> Result<Scale, String> {
    match s {
        None | Some("tiny") => Ok(Scale::Tiny),
        Some("reduced") => Ok(Scale::Reduced),
        Some("paper") => Ok(Scale::Paper),
        Some("paper10x") => Ok(Scale::Paper10x),
        Some(other) => Err(format!(
            "unrecognised scale {other:?} (expected tiny|reduced|paper|paper10x)"
        )),
    }
}

fn parse_seed(s: Option<&str>) -> Result<u64, String> {
    s.map_or(Ok(42), |x| {
        x.parse()
            .map_err(|_| format!("unrecognised seed {x:?} (expected a non-negative integer)"))
    })
}

/// Unwraps a positional-argument parse, or exits 2 naming the bad token.
fn or_usage<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("plsim: {e}");
        std::process::exit(2);
    })
}

/// The `[scale] [seed]` pair every simulating command ends with, starting
/// at `args[at]`.
fn scale_and_seed(args: &[String], at: usize) -> (Scale, u64) {
    (
        or_usage(parse_scale(args.get(at).map(String::as_str))),
        or_usage(parse_seed(args.get(at + 1).map(String::as_str))),
    )
}

/// Removes `--metrics-json <path>` from `args`, returning the path.
/// Exits with usage when the flag is present but the path is missing.
fn take_metrics_json(args: &mut Vec<String>) -> Option<String> {
    let i = args.iter().position(|a| a == "--metrics-json")?;
    if i + 1 >= args.len() {
        eprintln!("--metrics-json requires a path argument");
        std::process::exit(2);
    }
    let path = args.remove(i + 1);
    args.remove(i);
    Some(path)
}

fn write_metrics(path: &str, json: &str) {
    match std::fs::write(path, json) {
        Ok(()) => println!("metrics snapshot written to {path}"),
        Err(e) => {
            eprintln!("writing metrics snapshot to {path} failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_run(args: &[String], metrics_json: Option<&str>) {
    let mut args: Vec<String> = args.to_vec();
    let shards = {
        let i = args.iter().position(|a| a == "--shards");
        i.map(|i| {
            if i + 1 >= args.len() {
                eprintln!("--shards requires a count argument");
                std::process::exit(2);
            }
            let n = args.remove(i + 1);
            args.remove(i);
            n.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    eprintln!("--shards requires a positive integer, got {n:?}");
                    std::process::exit(2);
                })
        })
    };
    let partition_json = {
        let i = args.iter().position(|a| a == "--partition-json");
        i.map(|i| {
            if i + 1 >= args.len() {
                eprintln!("--partition-json requires a path argument");
                std::process::exit(2);
            }
            let path = args.remove(i + 1);
            args.remove(i);
            path
        })
    };
    let class = or_usage(parse_class(args.first().map(String::as_str)));
    let (scale, seed) = scale_and_seed(&args, 1);
    println!(
        "simulating {} channel at {scale:?} scale, seed {seed}...",
        class.label()
    );
    let mut scenario = Scenario::new(class, scale, seed);
    scenario.shards = shards;
    let run = scenario.run();
    // Honest partition reporting, mirroring DispatchStats: print what the
    // partitioner actually did (clamping, splits, imbalance), not what was
    // asked for. Single-shard runs print nothing — their output text is
    // pinned by the golden-output tests.
    if let Some(report) = &run.output.partition {
        println!("{report}");
        // Same honesty rule as the bench's shard_warning: one thread
        // time-slices every shard, so sharded wall-clock is not a
        // parallelism measurement.
        if report.threads == 1 && report.shards > 1 {
            println!(
                "warning: 1 thread backs {} shards: sharded wall-clock measures \
                 windowing overhead, not parallelism",
                report.shards
            );
        }
    } else if shards.is_some_and(|n| n > 1) {
        println!("partition: degenerated to the single-shard path (tiny world or zero lookahead)");
    }
    if let Some(path) = &partition_json {
        match &run.output.partition {
            Some(report) => match std::fs::write(path, report.to_json()) {
                Ok(()) => println!("partition report written to {path}"),
                Err(e) => {
                    eprintln!("writing partition report to {path} failed: {e}");
                    std::process::exit(1);
                }
            },
            None => eprintln!("--partition-json: run was not sharded, no report written"),
        }
    }
    println!(
        "events: {}, messages: {} ({} dropped)\n",
        run.output.sim.events_processed,
        run.output.sim.messages_sent,
        run.output.sim.messages_dropped
    );
    // Only budgeted runs print capture-memory facts: the unbudgeted
    // output is pinned by the golden-output tests.
    if let Some(budget) = run.output.records.budget() {
        println!(
            "capture budget {budget} B: spilled {} pages, peak resident {} B\n",
            run.output.records.spilled_pages(),
            run.output.records.peak_resident_bytes()
        );
    }
    for site in ProbeSite::ALL {
        let r = run.report(site);
        println!(
            "{:6} probe: locality {:>6}, {} transmissions, {} connected peers, overlay same-ISP edges {:>6}, assortativity {:+.3}",
            site.label(),
            pct(r.locality()),
            r.data.transmissions.total(),
            r.contributions.peers.len(),
            pct(r.overlay.same_isp_edge_fraction),
            r.overlay.isp_assortativity,
        );
    }
    if let Some(path) = metrics_json {
        write_metrics(path, &run.metrics_with_invariants().to_json());
    }
}

fn cmd_figures(args: &[String], metrics_json: Option<&str>) {
    let (scale, seed) = scale_and_seed(args, 0);
    let suite = Suite::run(scale, seed);
    if let Some(path) = metrics_json {
        write_metrics(path, &suite_metrics_json(&suite));
    }
    for fig in figs_2_to_5(&suite) {
        println!("{}", fig.render());
    }
    let cells = response_times(&suite);
    println!("{}", render_fig7_10(&cells));
    println!("{}", render_table1(&cells));
    println!("{}", render_fig11_14(&figs_11_to_14(&suite)));
    println!("{}", render_fig15_18(&figs_15_to_18(&suite)));
}

fn cmd_fig6(args: &[String]) {
    let days: u32 = args.first().and_then(|s| s.parse().ok()).unwrap_or(7);
    let (scale, seed) = scale_and_seed(args, 1);
    println!("{}", fig_6(days, scale, seed).render());
}

fn cmd_ablation(args: &[String]) {
    let (scale, seed) = scale_and_seed(args, 0);
    println!("{}", render_ablation(&ablation(scale, seed)));
    println!(
        "{}",
        render_underlay_ablation(&underlay_ablation(scale, seed))
    );
}

fn cmd_workload(args: &[String]) {
    let noise: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0.25);
    let seed = 2008;
    let rt = workload_round_trip(noise, seed);
    println!(
        "generated SE workload (c={:.2}, a={:.2}, n={}, noise={noise})",
        rt.spec.c, rt.spec.a, rt.spec.n
    );
    println!(
        "refit: c={:.2}, a={:.2}, R²={:.4}; zipf R²={:.4}; top-10% share {:.1}%",
        rt.refit.0,
        rt.refit.1,
        rt.refit.2,
        rt.zipf_r2,
        100.0 * rt.top10
    );
}

fn cmd_export(args: &[String], metrics_json: Option<&str>) {
    let Some(dir) = args.first() else {
        eprintln!("usage: plsim export <dir> [scale] [seed]");
        std::process::exit(2);
    };
    let (scale, seed) = scale_and_seed(args, 1);
    let suite = Suite::run(scale, seed);
    if let Some(path) = metrics_json {
        write_metrics(path, &suite_metrics_json(&suite));
    }
    match export_suite(&suite, std::path::Path::new(dir)) {
        Ok(()) => println!("figure data written to {dir}/"),
        Err(e) => {
            eprintln!("export failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_frontier(args: &[String]) {
    let mut args: Vec<String> = args.to_vec();
    let smoke = if let Some(i) = args.iter().position(|a| a == "--smoke") {
        args.remove(i);
        true
    } else {
        false
    };
    let csv_path = {
        let i = args.iter().position(|a| a == "--csv");
        i.map(|i| {
            if i + 1 >= args.len() {
                eprintln!("--csv requires a path argument");
                std::process::exit(2);
            }
            let path = args.remove(i + 1);
            args.remove(i);
            path
        })
    };
    let seeds = {
        let i = args.iter().position(|a| a == "--seeds");
        i.map_or(1u64, |i| {
            if i + 1 >= args.len() {
                eprintln!("--seeds requires a count argument");
                std::process::exit(2);
            }
            let n = args.remove(i + 1);
            args.remove(i);
            n.parse::<u64>()
                .ok()
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    eprintln!("--seeds requires a positive integer, got {n:?}");
                    std::process::exit(2);
                })
        })
    };
    let (scale, seed) = scale_and_seed(&args, 0);
    let write_csv = |path: &str, csv: String| match std::fs::write(path, csv) {
        Ok(()) => println!("frontier CSV written to {path}"),
        Err(e) => {
            eprintln!("writing frontier CSV to {path} failed: {e}");
            std::process::exit(1);
        }
    };
    if seeds == 1 {
        println!(
            "sweeping {} selection policies at {scale:?} scale, seed {seed}...",
            if smoke { "smoke" } else { "full" }
        );
        let points = locality_frontier(scale, seed, smoke);
        println!("{}", render_frontier(&points));
        if let Some(path) = csv_path {
            write_csv(&path, frontier_csv(&points));
        }
    } else {
        println!(
            "sweeping {} selection policies at {scale:?} scale, seeds {seed}..{}...",
            if smoke { "smoke" } else { "full" },
            seed + seeds - 1
        );
        let bands = frontier_bands(&locality_frontier_seeds(scale, seed, smoke, seeds));
        println!("{}", render_frontier_bands(&bands));
        if let Some(path) = csv_path {
            write_csv(&path, frontier_bands_csv(&bands));
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_json = take_metrics_json(&mut args);
    let metrics_json = metrics_json.as_deref();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], metrics_json),
        Some("figures") => cmd_figures(&args[1..], metrics_json),
        Some("fig6") => cmd_fig6(&args[1..]),
        Some("ablation") => cmd_ablation(&args[1..]),
        Some("locality_frontier") => cmd_frontier(&args[1..]),
        Some("workload") => cmd_workload(&args[1..]),
        Some("export") => cmd_export(&args[1..], metrics_json),
        _ => {
            eprintln!(
                "usage: plsim [--metrics-json <path>] <command>\n\
                 commands:\n\
                 \x20 run [popular|unpopular] [tiny|reduced|paper|paper10x] [seed]   one session, probe summaries\n\
                 \x20     [--shards N] [--partition-json <path>]            space-partitioned run + quality report\n\
                 \x20 figures [scale] [seed]                                Figures 2-5, 7-18 and Table 1\n\
                 \x20 fig6 [days] [scale] [seed]                            the locality-over-days series\n\
                 \x20 ablation [scale] [seed]                               protocol-variant comparison\n\
                 \x20 locality_frontier [--smoke] [--csv <path>] [--seeds N] [scale] [seed]  policy transit-savings frontier\n\
                 \x20                   (--seeds N > 1 reports cross-seed mean and min/max bands)\n\
                 \x20 workload [n] [c] [a] [noise]                          SE workload generator round trip\n\
                 \x20 export <dir> [scale] [seed]                           dump figure data as CSV\n\
                 flags:\n\
                 \x20 --metrics-json <path>   dump the end-of-run metrics snapshot (run/figures/export)"
            );
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_defaults_when_absent_and_rejects_unknown_tokens() {
        assert_eq!(parse_class(None), Ok(ChannelClass::Popular));
        assert_eq!(parse_class(Some("popular")), Ok(ChannelClass::Popular));
        assert_eq!(parse_class(Some("unpopular")), Ok(ChannelClass::Unpopular));
        let err = parse_class(Some("Unpopular")).unwrap_err();
        assert!(err.contains("\"Unpopular\""), "{err}");
    }

    #[test]
    fn scale_defaults_when_absent_and_rejects_unknown_tokens() {
        assert_eq!(parse_scale(None), Ok(Scale::Tiny));
        assert_eq!(parse_scale(Some("tiny")), Ok(Scale::Tiny));
        assert_eq!(parse_scale(Some("reduced")), Ok(Scale::Reduced));
        assert_eq!(parse_scale(Some("paper")), Ok(Scale::Paper));
        assert_eq!(parse_scale(Some("paper10x")), Ok(Scale::Paper10x));
        let err = parse_scale(Some("Paper")).unwrap_err();
        assert!(err.contains("\"Paper\""), "{err}");
    }

    #[test]
    fn seed_defaults_when_absent_and_rejects_unknown_tokens() {
        assert_eq!(parse_seed(None), Ok(42));
        assert_eq!(parse_seed(Some("7")), Ok(7));
        let err = parse_seed(Some("4x2")).unwrap_err();
        assert!(err.contains("\"4x2\""), "{err}");
        assert!(parse_seed(Some("-1")).is_err());
    }
}
