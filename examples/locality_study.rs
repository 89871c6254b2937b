//! The full reproduction: regenerates every table and figure of the
//! paper's evaluation section (Figures 2–18, Table 1) plus the design
//! ablations and the workload round trip, printing the rows/series the
//! paper reports.
//!
//! ```sh
//! cargo run --release --example locality_study [tiny|reduced|paper] [days]
//! ```
//!
//! `days` controls the Figure 6 series length (default 28, like the
//! study's four weeks). Wall times go to stderr, so stdout is a pure
//! function of the arguments: `studies/study_suite_output.txt` is
//! `locality_study paper 0`'s stdout.

use plsim_workload::SeWorkloadSpec;
use pplive_locality::{
    ablation_grid, fig_6_on, figs_11_to_14, figs_15_to_18, figs_2_to_5, render_ablation,
    render_fig11_14, render_fig15_18, render_fig7_10, render_table1, response_times, sweep,
    workload_round_trip, AblationResult, FourWeeks, JobPool, Scale, Suite,
};

fn main() {
    let scale = match std::env::args().nth(1).as_deref() {
        Some("paper") => Scale::Paper,
        Some("tiny") => Scale::Tiny,
        _ => Scale::Reduced,
    };
    let days: u32 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(28);

    println!("# PPLive traffic-locality study — full reproduction ({scale:?} scale)\n");
    let pool = JobPool::default();
    let t0 = std::time::Instant::now();
    let suite = Suite::run_on(&pool, scale, 42);
    eprintln!("(both channel sessions simulated in {:.1?})", t0.elapsed());
    println!(
        "(popular processed {} events)\n",
        suite.popular.output.sim.events_processed
    );

    println!("## Figures 2–5: ISP-level traffic locality\n");
    for fig in figs_2_to_5(&suite) {
        println!("{}", fig.render());
    }

    println!("## Figure 6: locality over {days} days\n");
    let t6 = std::time::Instant::now();
    let weeks = fig_6_on(&pool, days, scale, 42);
    println!("{}", weeks.render());
    println!(
        "volatility (std dev): popular Mason {:.3} vs popular TELE {:.3} (paper: Mason varies much more)\n",
        FourWeeks::volatility(&weeks.popular, |d| d.mason),
        FourWeeks::volatility(&weeks.popular, |d| d.tele),
    );
    eprintln!(
        "({days} days x 2 channels simulated in {:.1?})",
        t6.elapsed()
    );

    let cells = response_times(&suite);
    println!("## Figures 7–10: peer-list response times\n");
    println!("{}", render_fig7_10(&cells));
    // The paper's figures are time series; print the TELE-popular probe's
    // windowed series as a representative sample.
    {
        use plsim_net::IspGroup;
        use pplive_locality::ProbeSite;
        let rep = suite.popular.report(ProbeSite::Tele);
        println!("TELE-popular peer-list RT series (300 s windows, mean seconds):");
        for group in IspGroup::ALL {
            let series = rep.peer_list_rt.windowed(group, 300);
            let row: Vec<String> = series
                .iter()
                .map(|(t, avg, n)| format!("{}m:{:.2}({n})", t / 60, avg))
                .collect();
            println!("  {:5} {}", group.label(), row.join("  "));
        }
        println!();
    }
    println!("## Table 1: data-request response times\n");
    println!("{}", render_table1(&cells));

    println!("## Figures 11–14: connections and contributions\n");
    println!("{}", render_fig11_14(&figs_11_to_14(&suite)));

    println!("## Figures 15–18: request count vs RTT\n");
    println!("{}", render_fig15_18(&figs_15_to_18(&suite)));

    println!("## Ablations (A1/A2): what creates the locality\n");
    let t_a = std::time::Instant::now();
    let ablation = sweep(&pool, ablation_grid(scale, 42), |label, _, run| {
        AblationResult::of(label, &run)
    });
    println!("{}", render_ablation(&ablation));
    eprintln!("(4 variants simulated in {:.1?})", t_a.elapsed());

    println!("## W1: stretched-exponential workload generator round trip\n");
    for sigma in [0.0, 0.3] {
        let spec = SeWorkloadSpec {
            noise_sigma: sigma,
            ..SeWorkloadSpec::fig11()
        };
        let rt = workload_round_trip(spec, 42);
        println!(
            "noise={sigma}: generated (c={:.2}, a={:.2}, n={}) -> refit c={:.2}, a={:.2}, R²={:.3}; zipf R²={:.3}; top10%={:.1}%",
            rt.spec.c,
            rt.spec.a,
            rt.spec.n,
            rt.refit.0,
            rt.refit.1,
            rt.refit.2,
            rt.zipf_r2,
            100.0 * rt.top10
        );
    }

    eprintln!("total wall time: {:.1?}", t0.elapsed());
}
