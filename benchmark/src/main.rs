//! `plbench` — end-to-end and per-layer benchmark of the PPLive
//! traffic-locality simulator. `../BENCHMARK.json` names its workloads,
//! metrics and regression bounds; `README.md` says why each was chosen.
//!
//! ```text
//! plbench bench --workload W --seed N (--seconds S | --reps R) --trace 0|1 [--size full|smoke]
//! plbench run   (--all | --workload W) [--seed 42] [--seconds 10 | --reps R] [--json FILE]
//! plbench trace (--all | --workload W) [--seed 42] [--seconds 10 | --reps R]
//! plbench smoke
//! plbench compare A.json B.json
//! ```
//!
//! `bench` measures one workload in this process and is what the driver
//! calls. `run`, `trace` and `smoke` start one `bench` child per workload,
//! one at a time, so each workload's peak memory is its own.

mod bench;
mod compare;
mod json;
mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;

use bench::{BenchArgs, Stop};
use json::Value;
use spec::{Size, Workload};
use stats::human;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

const USAGE: &str = "usage: plbench bench --workload W --seed N (--seconds S | --reps R) --trace 0|1 [--size full|smoke]
       plbench run   (--all | --workload W) [--seed 42] [--seconds 10 | --reps R] [--json FILE]
       plbench trace (--all | --workload W) [--seed 42] [--seconds 10 | --reps R]
       plbench smoke
       plbench compare A.json B.json";

/// Seconds one run measures unless told otherwise; `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
const DEFAULT_SEED: u64 = 42;

/// A usage error: message for standard error, exit code 2.
struct Usage(String);

/// Ambient `PLSIM_*` knobs have silently changed past bench numbers, and
/// `fig_6_on` builds its scenarios from them, so none may be set.
fn refuse_plsim_env() -> Result<(), Usage> {
    match std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("PLSIM_")) {
        Some((name, _)) => Err(Usage(format!(
            "{} is set; plbench measures one fixed program and refuses to start \
             with any PLSIM_* variable in the environment",
            name.to_string_lossy()
        ))),
        None => Ok(()),
    }
}

/// `--flag value` pairs and bare `--flag`s, in order.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], bare: &[&str]) -> Result<Flags, Usage> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                return Err(Usage(format!("unexpected argument {arg:?}")));
            }
            if bare.contains(&arg.as_str()) {
                flags.push((arg.clone(), None));
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| Usage(format!("{arg} needs a value")))?;
                flags.push((arg.clone(), Some(value.clone())));
            }
        }
        Ok(Flags(flags))
    }

    fn take(&mut self, name: &str) -> Option<Option<String>> {
        let i = self.0.iter().position(|(n, _)| n == name)?;
        Some(self.0.remove(i).1)
    }

    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, Usage> {
        match self.take(name) {
            None => Ok(None),
            Some(v) => v
                .as_deref()
                .and_then(|s| s.parse().ok())
                .map(Some)
                .ok_or_else(|| Usage(format!("{name}: bad value {v:?}"))),
        }
    }

    fn finish(self) -> Result<(), Usage> {
        match self.0.first() {
            Some((name, _)) => Err(Usage(format!("unknown flag {name}"))),
            None => Ok(()),
        }
    }

    fn workload(&mut self) -> Result<Option<Workload>, Usage> {
        match self.value::<String>("--workload")? {
            None => Ok(None),
            Some(name) => Workload::from_name(&name).map(Some).ok_or_else(|| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                Usage(format!("unknown workload {name:?}; one of {known:?}"))
            }),
        }
    }

    /// `--seconds S` or `--reps R`; [`DEFAULT_SECONDS`] when neither.
    fn stop(&mut self) -> Result<Stop, Usage> {
        let seconds = self.value::<f64>("--seconds")?;
        let reps = self.value::<u32>("--reps")?;
        match (seconds, reps) {
            (Some(_), Some(_)) => Err(Usage("give --seconds or --reps, not both".to_string())),
            (Some(s), None) if s.is_finite() && (0.0..=3600.0).contains(&s) => {
                Ok(Stop::After(Duration::from_secs_f64(s)))
            }
            (Some(s), None) => Err(Usage(format!("--seconds {s} is out of range"))),
            (None, Some(0)) => Err(Usage("--reps must be at least 1".to_string())),
            (None, Some(r)) => Ok(Stop::Reps(r)),
            (None, None) => Ok(Stop::After(Duration::from_secs_f64(DEFAULT_SECONDS))),
        }
    }
}

fn cmd_bench(args: &[String]) -> Result<ExitCode, Usage> {
    let mut flags = Flags::parse(args, &[])?;
    let workload = flags
        .workload()?
        .ok_or_else(|| Usage("bench needs --workload".to_string()))?;
    let seed = flags.value("--seed")?.unwrap_or(DEFAULT_SEED);
    let stop = flags.stop()?;
    let trace = match flags.value::<u8>("--trace")? {
        None | Some(0) => false,
        Some(1) => true,
        Some(other) => return Err(Usage(format!("--trace {other}: 0 or 1"))),
    };
    let size = match flags.value::<String>("--size")? {
        None => Size::Full,
        Some(label) => Size::from_label(&label)
            .ok_or_else(|| Usage(format!("--size {label:?}: full or smoke")))?,
    };
    flags.finish()?;
    let args = BenchArgs {
        workload,
        seed,
        stop,
        trace,
        size,
    };
    // The capture spill tier writes under the system temp directory; point
    // it inside the checkout. No thread has been started yet.
    let tmp = bench::out_dir().join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("plbench: creating {}: {e}", tmp.display());
        return Ok(ExitCode::FAILURE);
    }
    std::env::set_var("TMPDIR", &tmp);
    Ok(match bench::run(&args) {
        Ok(report) => {
            println!("{}\n{}", report.detail, report.result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("plbench: {e}");
            ExitCode::FAILURE
        }
    })
}

/// Starts `plbench bench` for one workload in a child process and returns
/// the detail line it printed.
fn bench_child(args: &BenchArgs) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating plbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("bench")
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--size", args.size.label()]);
    match args.stop {
        Stop::After(limit) => cmd.args(["--seconds", &limit.as_secs_f64().to_string()]),
        Stop::Reps(n) => cmd.args(["--reps", &n.to_string()]),
    };
    // `output` waits for the child to end; its standard error passes
    // through so a panic message is seen where it happened.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting bench child: {e}"))?;
    if !out.status.success() {
        return Err(format!("bench child ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .nth(1)
        .ok_or("bench child printed no detail line")?;
    json::parse(line)
}

/// The human-readable rows of one workload's detail.
fn print_detail(detail: &Value) {
    let text = |key: &str| detail.get(key).and_then(Value::as_str).unwrap_or("?");
    let num = |key: &str| detail.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let (ops, failed) = (num("ops"), num("failed_ops"));
    println!(
        "{}  seed {}  size {}  ops {ops}  failed_ops {failed}  failed_ops_share {}  digest {}  {}",
        text("workload"),
        num("seed"),
        text("size"),
        failed / ops,
        text("digest"),
        if failed == 0.0 {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    if let Some(counts) = detail.get("counts").and_then(Value::as_obj) {
        let counts: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("  counts: {}", counts.join(" "));
    }
    for failure in detail
        .get("failures")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
    {
        println!("  FAILED {}", failure.as_str().unwrap_or("?"));
    }
    let work_unit = text("work_unit");
    for (name, m) in detail.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
        let f = |key: &str| m.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("?");
        let unit = if name == "work_per_s" {
            format!("{work_unit}/s")
        } else {
            unit.to_string()
        };
        let n = f("n");
        print!("  {name:<32} {:>16} {unit:<10} n={n}", human(f("median")));
        if n > 1.0 {
            print!(
                " min {} q1 {} q3 {} max {}",
                human(f("min")),
                human(f("q1")),
                human(f("q3")),
                human(f("max"))
            );
        }
        println!();
    }
}

/// `run`, `trace` and `smoke`: one `bench` child per workload, one at a
/// time.
fn suite(
    workloads: &[Workload],
    seed: u64,
    stop: Stop,
    trace: bool,
    size: Size,
    json_out: Option<&str>,
) -> ExitCode {
    let mut details = Vec::new();
    let mut ok = true;
    for &workload in workloads {
        let args = BenchArgs {
            workload,
            seed,
            stop,
            trace,
            size,
        };
        match bench_child(&args) {
            Ok(detail) => {
                print_detail(&detail);
                ok &= detail.get("failed_ops").and_then(Value::as_f64) == Some(0.0);
                details.push(detail);
            }
            Err(e) => {
                println!("{}  FAILED to run: {e}", workload.name());
                ok = false;
            }
        }
    }
    if trace {
        println!("spans written to {}", bench::out_dir().display());
    }
    if let Some(path) = json_out {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let doc = Value::obj([
            ("seed", Value::from(seed)),
            ("nproc", Value::from(nproc as u64)),
            ("workloads", Value::Arr(details)),
        ]);
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("plbench: writing {path}: {e}");
            ok = false;
        }
    }
    println!("verdict: {}", if ok { "correct" } else { "INCORRECT" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_suite(args: &[String], trace: bool) -> Result<ExitCode, Usage> {
    let mut flags = Flags::parse(args, &["--all"])?;
    let all = flags.take("--all").is_some();
    let workloads = match (all, flags.workload()?) {
        (true, None) => Workload::ALL.to_vec(),
        (false, Some(w)) => vec![w],
        _ => return Err(Usage("give --all or --workload W".to_string())),
    };
    let seed = flags.value("--seed")?.unwrap_or(DEFAULT_SEED);
    let stop = flags.stop()?;
    let json_out = flags.value::<String>("--json")?;
    flags.finish()?;
    Ok(suite(
        &workloads,
        seed,
        stop,
        trace,
        Size::Full,
        json_out.as_deref(),
    ))
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, Usage> {
    let [a, b] = args else {
        return Err(Usage("compare needs two result files".to_string()));
    };
    let read = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let verdict = (|| {
        let bounds_path = spec::benchmark_json_path();
        let bounds = std::fs::read_to_string(&bounds_path)
            .map_err(|e| format!("reading {}: {e}", bounds_path.display()))
            .and_then(|text| spec::parse_bounds(&text))?;
        compare::compare(&read(a)?, &read(b)?, &bounds)
    })();
    Ok(match verdict {
        Ok(true) => {
            println!("verdict: B is no worse than A");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("verdict: B is WORSE than A");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("plbench: {e}");
            ExitCode::FAILURE
        }
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = refuse_plsim_env().and_then(|()| match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "bench" => cmd_bench(rest),
            "run" => cmd_suite(rest, false),
            "trace" => cmd_suite(rest, true),
            "smoke" if rest.is_empty() => Ok(suite(
                &Workload::ALL,
                DEFAULT_SEED,
                Stop::Reps(1),
                false,
                Size::Smoke,
                None,
            )),
            "compare" => cmd_compare(rest),
            other => Err(Usage(format!("unknown command {other:?}"))),
        },
        None => Err(Usage("no command".to_string())),
    });
    outcome.unwrap_or_else(|Usage(message)| {
        eprintln!("plbench: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn flags_parse_values_bare_flags_and_reject_strays() {
        let mut f = Flags::parse(
            &strings(&["--all", "--seed", "7", "--workload", "fig6_sweep"]),
            &["--all"],
        )
        .ok()
        .unwrap();
        assert!(f.take("--all").is_some());
        assert_eq!(f.value::<u64>("--seed").ok().unwrap(), Some(7));
        assert_eq!(f.workload().ok().unwrap(), Some(Workload::Fig6Sweep));
        assert!(f.finish().is_ok());

        assert!(Flags::parse(&strings(&["stray"]), &[]).is_err());
        assert!(Flags::parse(&strings(&["--seed"]), &[]).is_err());
        let mut f = Flags::parse(&strings(&["--seed", "x", "--bogus", "1"]), &[])
            .ok()
            .unwrap();
        assert!(f.value::<u64>("--seed").is_err());
        assert!(f.finish().is_err());
    }

    #[test]
    fn stop_takes_seconds_or_reps() {
        let stop = |args: &[&str]| {
            Flags::parse(&strings(args), &[])
                .and_then(|mut f| f.stop())
                .ok()
        };
        assert_eq!(
            stop(&["--seconds", "2.5"]),
            Some(Stop::After(Duration::from_millis(2500)))
        );
        assert_eq!(stop(&["--reps", "3"]), Some(Stop::Reps(3)));
        assert_eq!(stop(&[]), Some(Stop::After(Duration::from_secs(10))));
        assert_eq!(stop(&["--reps", "0"]), None);
        assert_eq!(stop(&["--seconds", "-1"]), None);
        assert_eq!(stop(&["--seconds", "1", "--reps", "1"]), None);
    }
}
