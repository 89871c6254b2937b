//! Developer tool: seed sweep of locality per cell, fanned out through the
//! parallel experiment engine on all available cores.
use plsim_workload::ChannelClass;
use pplive_locality::{JobPool, ProbeSite, Scale, Scenario};

fn main() {
    let scale = match std::env::args().nth(1).as_deref() {
        Some("paper") => Scale::Paper,
        Some("tiny") => Scale::Tiny,
        _ => Scale::Reduced,
    };
    let seeds: Vec<u64> = std::env::args()
        .nth(2)
        .map(|s| s.split(',').map(|x| x.parse().unwrap()).collect())
        .unwrap_or_else(|| vec![1, 2, 3, 4, 5]);
    let pool = JobPool::default();
    for class in [ChannelClass::Popular, ChannelClass::Unpopular] {
        println!("== {:?} ==", class);
        let runs = pool.map(seeds.clone(), |seed| {
            (seed, Scenario::new(class, scale, seed).run())
        });
        for (seed, run) in &runs {
            let tele = run.report(ProbeSite::Tele);
            let mason = run.report(ProbeSite::Mason);
            let cnc = run.report(ProbeSite::Cnc);
            println!(
                "seed {seed}: TELE loc={:.3} (conn {}), CNC loc={:.3}, Mason loc={:.3}; TELE bytes={}",
                tele.locality(),
                tele.contributions.peers.len(),
                cnc.locality(),
                mason.locality(),
                tele.data.bytes.total()
            );
        }
    }
}
