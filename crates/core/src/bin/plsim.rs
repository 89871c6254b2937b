//! `plsim` — command-line front end for the PPLive traffic-locality
//! reproduction; [`USAGE`] lists the commands and flags.
//!
//! This file is the only place user configuration enters the program:
//! the library reads no environment variable, and every flag is parsed and
//! validated once, into [`Options`], before any command runs. A token past
//! a command's last positional argument is an error, not ignored.
//!
//! `--threads N` sizes the job pool the multi-session commands fan out
//! over and the shard-driver threads of `run`; output never depends on it.
//! `--metrics-json <path>` dumps the end-of-run metrics-registry snapshot
//! (with invariant tallies) for `run`, `figures` and `export`.
//!
//! `run --shards N` space-partitions the session across `N` shard
//! schedulers, each a set of whole ISPs (so `N` is clamped to the world's
//! populated-ISP count, with a note on stderr), and prints the
//! partition-quality report in `DispatchStats`' honest-reporting style;
//! `--partition-json <path>` archives it as JSON.
//! `run --capture-budget N[K|M|G]` bounds the resident trace: sealed pages
//! past the budget spill to a per-run temporary file.
//!
//! A reader that stops early (`plsim run … | head -1`) is not an error:
//! once stdout is closed `plsim` prints nothing more, still writes every
//! file it was asked for, and exits 0. Any other failure to write stdout
//! exits 1 with a message on stderr.

use plsim_telemetry::parse_byte_budget;
use plsim_workload::{ChannelClass, SeWorkloadSpec};
use pplive_locality::{
    ablation_on, export_suite, fig_6_on, figs_11_to_14, figs_15_to_18, figs_2_to_5, frontier_bands,
    frontier_bands_csv, frontier_csv, locality_frontier_on, locality_frontier_seeds, pct,
    render_ablation, render_fig11_14, render_fig15_18, render_fig7_10, render_frontier,
    render_frontier_bands, render_table1, render_underlay_ablation, response_times,
    suite_metrics_json, underlay_ablation_on, workload_round_trip, JobPool, ProbeSite, Scale,
    Scenario, Suite,
};
use std::io::{ErrorKind, Write};
use std::sync::atomic::{AtomicBool, Ordering};

const USAGE: &str = "\
usage: plsim [--threads N] [--metrics-json <path>] <command>
commands:
  run [popular|unpopular] [tiny|reduced|paper|paper10x] [seed]   one session, probe summaries
      [--shards N] [--partition-json <path>]            space-partitioned run + quality report
      [--capture-budget N[K|M|G]]                       resident trace bytes before spilling to disk
  figures [scale] [seed]                                Figures 2-5, 7-18 and Table 1
  fig6 [days] [scale] [seed]                            the locality-over-days series
  ablation [scale] [seed]                               protocol-variant comparison
  locality_frontier [--smoke] [--csv <path>] [--seeds N] [scale] [seed]  policy transit-savings frontier
                    (--seeds N > 1 reports cross-seed mean and min/max bands)
  workload [n] [c] [a] [noise]                          SE workload generator round trip
  export <dir> [scale] [seed]                           dump figure data as CSV
flags:
  --threads N             worker threads (job pool; shard drivers of run); default: all cores
  --metrics-json <path>   dump the end-of-run metrics snapshot (run/figures/export)
exit status: 0 on success, also when the reader of stdout stops early (output is cut,
  files are still written); 1 when a file or stdout cannot be written; 2 on a bad argument";

/// Set once a stdout write has failed because the reader is gone.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// `println!` for everything `plsim` prints on stdout, with the closed-pipe
/// rule of the module docs in place of `println!`'s panic.
macro_rules! outln {
    ($($arg:tt)*) => {
        print_line(format_args!($($arg)*))
    };
}

fn print_line(line: std::fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match writeln!(std::io::stdout().lock(), "{line}") {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
        }
        Err(e) => {
            eprintln!("plsim: writing to stdout failed: {e}");
            std::process::exit(1);
        }
    }
}

// The parsers default only an *absent* token; a token that is present but
// unrecognised is an error, never a silent fallback (which would print a
// table for a different run than the one asked for).

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

/// A numeric token: `default` when absent, an error naming the token when
/// it does not parse or fails `in_range`.
fn parse_num<T: std::str::FromStr>(
    s: Option<&str>,
    default: T,
    what: &str,
    in_range: impl Fn(&T) -> bool,
) -> Result<T, String> {
    s.map_or(Ok(default), |x| {
        (x.parse().ok().filter(in_range)).ok_or_else(|| format!("unrecognised {what}, got {x:?}"))
    })
}

fn parse_seed(s: Option<&str>) -> Result<u64, String> {
    parse_num(s, 42, "seed (a non-negative integer)", |_| true)
}

fn parse_days(s: Option<&str>) -> Result<u32, String> {
    parse_num(s, 7, "day count (a positive integer)", |&d| d >= 1)
}

/// The value of `--threads`, `--shards` or `--seeds`.
fn parse_count(flag: &str, v: &str) -> Result<usize, String> {
    v.parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("{flag} requires a positive integer, got {v:?}"))
}

fn parse_budget(v: &str) -> Result<u64, String> {
    parse_byte_budget(v)
        .ok_or_else(|| format!("--capture-budget requires N[K|M|G] bytes, got {v:?}"))
}

/// Fails naming the first token past a command's `n` positionals: a
/// misspelt flag (`--shard 5`) or a stray word must not leave the run
/// looking as if it was asked for.
fn at_most(args: &[String], n: usize) -> Result<(), String> {
    match args.get(n) {
        Some(extra) => Err(format!(
            "unexpected argument {extra:?}: the command takes at most {n} positional arguments"
        )),
        None => Ok(()),
    }
}

/// `workload [n] [c] [a] [noise]`: absent tokens keep the Figure 11(b)
/// fit and 0.25 noise. The bounds keep every generated value finite and
/// positive (the largest is (1 + a·log10 n)^(1/c) · e^(8.6·noise)) over at
/// least the three ranks a refit needs, so no user input fails the fits.
fn parse_workload(args: &[String]) -> Result<SeWorkloadSpec, String> {
    let token = |i: usize| args.get(i).map(String::as_str);
    let fig11 = SeWorkloadSpec::fig11();
    let ranks = |n: &usize| (3..=1_000_000).contains(n);
    let stretch = |c: &f64| (0.05..=10.0).contains(c);
    let slope = |a: &f64| *a > 0.0 && *a <= 1e6;
    let sigma = |x: &f64| (0.0..=10.0).contains(x);
    at_most(args, 4)?;
    Ok(SeWorkloadSpec {
        n: parse_num(token(0), fig11.n, "workload n (3..=1000000)", ranks)?,
        c: parse_num(token(1), fig11.c, "workload c (0.05..=10)", stretch)?,
        a: parse_num(token(2), fig11.a, "workload a (> 0, <= 1e6)", slope)?,
        noise_sigma: parse_num(token(3), 0.25, "workload noise (0..=10)", sigma)?,
    })
}

/// Unwraps a command-line parse, or exits 2 naming the bad token.
fn or_usage<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("plsim: {e}");
        std::process::exit(2);
    })
}

/// The `[scale] [seed]` pair every simulating command ends with, starting
/// at `args[at]`; nothing may follow it.
fn scale_and_seed(args: &[String], at: usize) -> (Scale, u64) {
    or_usage(at_most(args, at + 2));
    (
        or_usage(parse_scale(args.get(at).map(String::as_str))),
        or_usage(parse_seed(args.get(at + 1).map(String::as_str))),
    )
}

/// Removes `flag <value>` from `args`, returning the value. Exits 2 when
/// the flag is present but its value is missing.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        or_usage::<()>(Err(format!("{flag} requires a value")));
    }
    args.remove(i);
    Some(args.remove(i))
}

/// Fails unless `path` can be opened for writing, so that an unwritable
/// destination is found before the simulation it would lose, not after.
/// Leaves the file system as it was: an existing file is opened for append
/// and not written to, a file the probe had to create is removed again.
fn check_writable(flag: &str, path: &str) -> Result<(), String> {
    let existed = std::path::Path::new(path).exists();
    std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| format!("{flag}: cannot write {path:?}: {e}"))?;
    if !existed {
        // Best effort: a leftover empty file is overwritten by the run.
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// Every value the user can set, parsed and validated once in `main`.
struct Options {
    threads: Option<usize>, // --threads (global): pool size, shard-driver threads
    metrics_json: Option<String>, // run/figures/export --metrics-json
    shards: Option<usize>,  // run --shards
    capture_budget: Option<u64>, // run --capture-budget, in bytes
    partition_json: Option<String>, // run --partition-json
    smoke: bool,            // locality_frontier --smoke
    csv: Option<String>,    // locality_frontier --csv
    seeds: u64,             // locality_frontier --seeds
}

impl Options {
    /// Removes every flag from `args`, leaving the command and its
    /// positional tokens. A command's flags are taken only for that
    /// command; anywhere else they stay behind and fail the strict
    /// positional parsers instead of being silently ignored.
    fn take(args: &mut Vec<String>) -> Options {
        let count = |flag: &str, v: String| or_usage(parse_count(flag, &v));
        let threads = take_value(args, "--threads").map(|v| count("--threads", v));
        // Accepted before the command like `--threads`, but only three
        // commands have a snapshot to write.
        let metrics_json = take_value(args, "--metrics-json");
        let command = args.first().map(String::as_str);
        if metrics_json.is_some() && !matches!(command, Some("run" | "figures" | "export")) {
            or_usage::<()>(Err(format!(
                "--metrics-json applies to run, figures and export only, got command {command:?}"
            )));
        }
        let run = command == Some("run");
        let frontier = command == Some("locality_frontier");
        let smoke_at = args.iter().position(|a| frontier && a == "--smoke");
        let smoke = smoke_at.map(|i| args.remove(i)).is_some();
        let mut take_for = |on: bool, flag: &str| on.then(|| take_value(args, flag)).flatten();
        let opts = Options {
            threads,
            metrics_json,
            shards: take_for(run, "--shards").map(|v| count("--shards", v)),
            capture_budget: take_for(run, "--capture-budget").map(|v| or_usage(parse_budget(&v))),
            partition_json: take_for(run, "--partition-json"),
            smoke,
            csv: take_for(frontier, "--csv"),
            seeds: take_for(frontier, "--seeds").map_or(1, |v| count("--seeds", v) as u64),
        };
        if opts.partition_json.is_some() && opts.shards.is_none_or(|n| n < 2) {
            or_usage::<()>(Err(
                "--partition-json requires --shards N with N > 1: an unsharded run has no \
                 partition report"
                    .to_string(),
            ));
        }
        for (flag, path) in [
            ("--metrics-json", &opts.metrics_json),
            ("--partition-json", &opts.partition_json),
            ("--csv", &opts.csv),
        ] {
            if let Some(path) = path {
                or_usage(check_writable(flag, path));
            }
        }
        opts
    }
}

fn write_file(what: &str, path: &str, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => outln!("{what} written to {path}"),
        Err(e) => {
            eprintln!("writing {what} to {path} failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_run(args: &[String], opts: &Options) {
    let class = or_usage(parse_class(args.first().map(String::as_str)));
    let (scale, seed) = scale_and_seed(args, 1);
    outln!(
        "simulating {} channel at {scale:?} scale, seed {seed}...",
        class.label()
    );
    let mut scenario = Scenario::new(class, scale, seed);
    scenario.shards = opts.shards;
    scenario.shard_threads = opts.threads;
    scenario.capture.budget = opts.capture_budget;
    let run = scenario.run();
    // Honest partition reporting, mirroring DispatchStats: print what the
    // partitioner actually did (clamping, imbalance), not what was
    // asked for. Single-shard runs print nothing — their output text is
    // pinned by the golden-output tests.
    if let Some(report) = &run.output.partition {
        outln!("{report}");
        if let Some(asked) = opts.shards.filter(|&n| n > report.shards) {
            eprintln!(
                "note: --shards {asked} clamped to {k}: shards are whole ISPs and this world \
                 populates {k}",
                k = report.shards
            );
        }
        // Same honesty rule as the bench's shard_warning: one thread
        // time-slices every shard, so sharded wall-clock is not a
        // parallelism measurement.
        if report.threads == 1 && report.shards > 1 {
            outln!(
                "warning: 1 thread backs {} shards: sharded wall-clock measures \
                 windowing overhead, not parallelism",
                report.shards
            );
        }
        // The round barrier spins and yields, it never sleeps: drivers
        // that outnumber the cores take turns on them and lose to one
        // thread. Say so; the run's output does not depend on it.
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        if report.threads > cores {
            outln!(
                "warning: {} shard threads on {cores} core(s): the drivers time-slice the \
                 cores, so expect this run to be slower than --threads {cores}",
                report.threads
            );
        }
    } else if opts.shards.is_some_and(|n| n > 1) {
        outln!(
            "partition: degenerated to the single-shard path (one populated ISP or zero lookahead)"
        );
    }
    if let Some(path) = &opts.partition_json {
        match &run.output.partition {
            Some(report) => write_file("partition report", path, &report.to_json()),
            // Asked to shard (`Options::take` saw to that) but the world
            // was too small to split.
            None => eprintln!("--partition-json: run was not sharded, no report written"),
        }
    }
    outln!(
        "events: {}, messages: {} ({} dropped)\n",
        run.output.sim.events_processed,
        run.output.sim.messages_sent,
        run.output.sim.messages_dropped
    );
    // Only budgeted runs print capture-memory facts: the unbudgeted
    // output is pinned by the golden-output tests.
    if let Some(budget) = run.output.records.budget() {
        outln!(
            "capture budget {budget} B: spilled {} pages, peak resident {} B\n",
            run.output.records.spilled_pages(),
            run.output.records.peak_resident_bytes()
        );
    }
    for site in ProbeSite::ALL {
        let r = run.report(site);
        outln!(
            "{:6} probe: locality {:>6}, {} transmissions, {} connected peers, overlay same-ISP edges {:>6}, assortativity {:+.3}",
            site.label(),
            pct(r.locality()),
            r.data.transmissions.total(),
            r.contributions.peers.len(),
            pct(r.overlay.same_isp_edge_fraction),
            r.overlay.isp_assortativity,
        );
    }
    if let Some(path) = &opts.metrics_json {
        write_file(
            "metrics snapshot",
            path,
            &run.metrics_with_invariants().to_json(),
        );
    }
}

/// Simulates the figure suite, dumping its metrics snapshot when asked.
fn run_suite(pool: &JobPool, scale: Scale, seed: u64, opts: &Options) -> Suite {
    let suite = Suite::run_on(pool, scale, seed);
    if let Some(path) = &opts.metrics_json {
        write_file("metrics snapshot", path, &suite_metrics_json(&suite));
    }
    suite
}

fn cmd_figures(args: &[String], pool: &JobPool, opts: &Options) {
    let (scale, seed) = scale_and_seed(args, 0);
    let suite = run_suite(pool, scale, seed, opts);
    for fig in figs_2_to_5(&suite) {
        outln!("{}", fig.render());
    }
    let cells = response_times(&suite);
    outln!("{}", render_fig7_10(&cells));
    outln!("{}", render_table1(&cells));
    outln!("{}", render_fig11_14(&figs_11_to_14(&suite)));
    outln!("{}", render_fig15_18(&figs_15_to_18(&suite)));
}

fn cmd_fig6(args: &[String], pool: &JobPool) {
    let days = or_usage(parse_days(args.first().map(String::as_str)));
    let (scale, seed) = scale_and_seed(args, 1);
    outln!("{}", fig_6_on(pool, days, scale, seed).render());
}

fn cmd_ablation(args: &[String], pool: &JobPool) {
    let (scale, seed) = scale_and_seed(args, 0);
    outln!("{}", render_ablation(&ablation_on(pool, scale, seed)));
    let underlay = underlay_ablation_on(pool, scale, seed);
    outln!("{}", render_underlay_ablation(&underlay));
}

fn cmd_workload(args: &[String]) {
    let rt = workload_round_trip(or_usage(parse_workload(args)), 2008);
    outln!(
        "generated SE workload (c={:.2}, a={:.2}, n={}, noise={})",
        rt.spec.c,
        rt.spec.a,
        rt.spec.n,
        rt.spec.noise_sigma
    );
    outln!(
        "refit: c={:.2}, a={:.2}, R²={:.4}; zipf R²={:.4}; top-10% share {:.1}%",
        rt.refit.0,
        rt.refit.1,
        rt.refit.2,
        rt.zipf_r2,
        100.0 * rt.top10
    );
}

fn cmd_export(args: &[String], pool: &JobPool, opts: &Options) {
    let dir = or_usage(args.first().ok_or("export requires a <dir>".to_string()));
    let (scale, seed) = scale_and_seed(args, 1);
    let suite = run_suite(pool, scale, seed, opts);
    match export_suite(&suite, std::path::Path::new(dir)) {
        Ok(()) => outln!("figure data written to {dir}/"),
        Err(e) => {
            eprintln!("export failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_frontier(args: &[String], pool: &JobPool, opts: &Options) {
    let (scale, seed) = scale_and_seed(args, 0);
    let &Options { smoke, seeds, .. } = opts;
    let last_seed = or_usage(seed.checked_add(seeds - 1).ok_or_else(|| {
        format!("seed {seed} is too large for --seeds {seeds}: the last seed overflows")
    }));
    let sweep = if smoke { "smoke" } else { "full" };
    let (table, csv) = if seeds == 1 {
        outln!("sweeping {sweep} selection policies at {scale:?} scale, seed {seed}...");
        let points = locality_frontier_on(pool, scale, seed, smoke);
        (render_frontier(&points), frontier_csv(&points))
    } else {
        outln!(
            "sweeping {sweep} selection policies at {scale:?} scale, seeds {seed}..{last_seed}..."
        );
        let bands = frontier_bands(&locality_frontier_seeds(pool, scale, seed, smoke, seeds));
        (render_frontier_bands(&bands), frontier_bands_csv(&bands))
    };
    outln!("{table}");
    if let Some(path) = &opts.csv {
        write_file("frontier CSV", path, &csv);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Options::take(&mut args);
    let pool = opts.threads.map_or_else(JobPool::default, JobPool::new);
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], &opts),
        Some("figures") => cmd_figures(&args[1..], &pool, &opts),
        Some("fig6") => cmd_fig6(&args[1..], &pool),
        Some("ablation") => cmd_ablation(&args[1..], &pool),
        Some("locality_frontier") => cmd_frontier(&args[1..], &pool, &opts),
        Some("workload") => cmd_workload(&args[1..]),
        Some("export") => cmd_export(&args[1..], &pool, &opts),
        _ => {
            eprintln!("{USAGE}");
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

    #[test]
    fn days_default_when_absent_and_reject_unknown_tokens() {
        assert_eq!(parse_days(None), Ok(7));
        assert_eq!(parse_days(Some("28")), Ok(28));
        let err = parse_days(Some("abc")).unwrap_err();
        assert!(err.contains("\"abc\""), "{err}");
        assert!(parse_days(Some("-1")).is_err());
        let err = parse_days(Some("0")).unwrap_err();
        assert!(err.contains("\"0\""), "{err}");
    }

    #[test]
    fn workload_reads_all_four_tokens_and_rejects_bad_ones() {
        let strings = |v: &[&str]| v.iter().map(ToString::to_string).collect::<Vec<_>>();
        let fig11 = SeWorkloadSpec {
            noise_sigma: 0.25,
            ..SeWorkloadSpec::fig11()
        };
        assert_eq!(parse_workload(&[]), Ok(fig11));
        assert_eq!(
            parse_workload(&strings(&["5000"])),
            Ok(SeWorkloadSpec { n: 5000, ..fig11 })
        );
        assert_eq!(
            parse_workload(&strings(&["5000", "0.3", "0.5", "0.1"])),
            Ok(SeWorkloadSpec {
                n: 5000,
                c: 0.3,
                a: 0.5,
                noise_sigma: 0.1
            })
        );
        for (args, bad) in [
            (&["2"][..], "2"),
            (&["50x"], "50x"),
            (&["500", "0.001"], "0.001"),
            (&["500", "0.3", "inf"], "inf"),
            (&["500", "0.3", "0"], "0"),
            (&["500", "0.3", "0.5", "-0.1"], "-0.1"),
            (&["500", "0.3", "0.5", "NaN"], "NaN"),
            (&["500", "0.3", "0.5", "loud"], "loud"),
        ] {
            let err = parse_workload(&strings(args)).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn flag_values_are_validated() {
        assert_eq!(parse_count("--threads", "3"), Ok(3));
        for bad in ["0", "-2", "two", ""] {
            let err = parse_count("--threads", bad).unwrap_err();
            assert!(
                err.contains("--threads") && err.contains(&format!("{bad:?}")),
                "{err}"
            );
        }
        assert_eq!(parse_budget("256k"), Ok(262_144));
        let err = parse_budget("12q").unwrap_err();
        assert!(err.contains("\"12q\""), "{err}");
        assert!(parse_budget("0").is_err());
    }

    #[test]
    fn flags_are_taken_only_for_their_command() {
        let strings = |v: &[&str]| v.iter().map(ToString::to_string).collect::<Vec<_>>();
        let mut args = strings(&[
            "--threads",
            "2",
            "run",
            "unpopular",
            "--shards",
            "8",
            "tiny",
            "--capture-budget",
            "1m",
            "42",
        ]);
        let opts = Options::take(&mut args);
        assert_eq!(args, strings(&["run", "unpopular", "tiny", "42"]));
        assert_eq!((opts.threads, opts.shards), (Some(2), Some(8)));
        assert_eq!(opts.capture_budget, Some(1 << 20));
        assert_eq!((opts.smoke, opts.seeds), (false, 1));

        // `--shards` means nothing to `figures`: it stays in the
        // positionals, where the scale parser rejects it.
        let mut args = strings(&["figures", "--shards", "8"]);
        let opts = Options::take(&mut args);
        assert_eq!(opts.shards, None);
        assert_eq!(args, strings(&["figures", "--shards", "8"]));

        let mut args = strings(&["locality_frontier", "--smoke", "--seeds", "3", "reduced"]);
        let opts = Options::take(&mut args);
        assert_eq!(args, strings(&["locality_frontier", "reduced"]));
        assert_eq!((opts.smoke, opts.seeds), (true, 3));
    }
}
