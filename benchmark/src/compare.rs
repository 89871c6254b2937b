//! `plbench compare A.json B.json`: two result files of `plbench run
//! --json`, workload by workload and metric by metric, against the bounds
//! in `BENCHMARK.json`. A prototype of the `bench-gate` of ROADMAP item 3.

use crate::json::Value;
use crate::spec::{Better, Bound};
use crate::stats::{human, Summary};

/// Samples either side needs before "every run of B beats every run of A"
/// says anything.
const MIN_SAMPLES_FOR_BETTER: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of B reads better than every run of A.
    Better,
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Not worse, but a side's spread is wider than the bound, so "no
    /// change" cannot be told from a change of the bound's size.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(bound: &Bound, a: &Summary, b: &Summary) -> Verdict {
    let worse_by = match bound.better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    };
    let b_always_better = match bound.better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    if worse_by > bound.bound {
        Verdict::Worse
    } else if b_always_better && a.n.min(b.n) >= MIN_SAMPLES_FOR_BETTER {
        Verdict::Better
    } else if a.spread().max(b.spread()) > bound.bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

fn summary_of(metric: &Value) -> Option<Summary> {
    let num = |key: &str| metric.get(key).and_then(Value::as_f64);
    Some(Summary {
        n: num("n")? as usize,
        min: num("min")?,
        q1: num("q1")?,
        median: num("median")?,
        q3: num("q3")?,
        max: num("max")?,
    })
}

fn workloads_of(doc: &Value) -> Result<&[Value], String> {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "not a `plbench run --json` file: no workloads list".to_string())
}

fn failed_share(detail: &Value) -> f64 {
    let num = |key: &str| detail.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    if num("ops") > 0.0 {
        num("failed_ops") / num("ops")
    } else {
        1.0
    }
}

/// Prints the comparison; `Ok(true)` when nothing is worse and no
/// workload's share of failed operations rose.
pub fn compare(a: &Value, b: &Value, bounds: &[Bound]) -> Result<bool, String> {
    let (a_workloads, b_workloads) = (workloads_of(a)?, workloads_of(b)?);
    let mut pass = true;
    for da in a_workloads {
        let name = da.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(db) = b_workloads
            .iter()
            .find(|d| d.get("workload").and_then(Value::as_str) == Some(name))
        else {
            println!("{name}: missing from B");
            pass = false;
            continue;
        };
        let digest = |d: &Value| {
            d.get("digest")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let same_output = digest(da) == digest(db) && da.get("counts") == db.get("counts");
        println!(
            "{name}: digest {} -> {} ({})",
            digest(da),
            digest(db),
            if same_output {
                "identical output and counts"
            } else {
                "OUTPUT DIFFERS"
            }
        );
        let (fa, fb) = (failed_share(da), failed_share(db));
        if fb > fa {
            println!("  failed_ops_share rose {fa} -> {fb}: worse");
            pass = false;
        }
        for bound in bounds {
            let side = |d: &Value| d.get("metrics")?.get(&bound.name).and_then(summary_of);
            let (Some(sa), Some(sb)) = (side(da), side(db)) else {
                println!("  {:<12} missing on one side", bound.name);
                pass = false;
                continue;
            };
            let v = verdict(bound, &sa, &sb);
            pass &= v != Verdict::Worse;
            println!(
                "  {:<12} {:>12} -> {:>12}  {:.3}x of A ({} is better, bound {:.0}%, \
                 spread A {:.1}% B {:.1}%): {}",
                bound.name,
                human(sa.median),
                human(sb.median),
                sb.median / sa.median,
                bound.better.label(),
                bound.bound * 100.0,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                v.label()
            );
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(better: Better) -> Bound {
        Bound {
            name: "wall_s".to_string(),
            better,
            bound: 0.10,
        }
    }

    fn around(center: f64, half_width: f64) -> Summary {
        Summary::of(&[
            center - half_width,
            center - half_width / 2.0,
            center,
            center + half_width / 2.0,
            center + half_width,
        ])
        .unwrap()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = bound(Better::Lower);
        let base = around(10.0, 0.2);
        assert_eq!(
            verdict(&lower, &base, &around(10.3, 0.2)),
            Verdict::WithinBound
        );
        assert_eq!(verdict(&lower, &base, &around(11.5, 0.2)), Verdict::Worse);
        assert_eq!(verdict(&lower, &base, &around(9.0, 0.2)), Verdict::Better);
        // Wide spread hides a change of the bound's size...
        assert_eq!(
            verdict(&lower, &base, &around(10.2, 2.0)),
            Verdict::Unresolved
        );
        // ...but not a median that is plainly worse.
        assert_eq!(verdict(&lower, &base, &around(12.0, 2.0)), Verdict::Worse);

        let higher = bound(Better::Higher);
        assert_eq!(verdict(&higher, &base, &around(8.5, 0.2)), Verdict::Worse);
        assert_eq!(verdict(&higher, &base, &around(11.5, 0.2)), Verdict::Better);
    }

    #[test]
    fn single_samples_are_never_called_better() {
        let lower = bound(Better::Lower);
        let (a, b) = (Summary::single(10.0), Summary::single(9.0));
        assert_eq!(verdict(&lower, &a, &b), Verdict::WithinBound);
        assert_eq!(verdict(&lower, &b, &a), Verdict::Worse);
    }

    #[test]
    fn compare_fails_on_worse_and_on_new_failures() {
        let file = |wall: f64, failed: u64| {
            let s = around(wall, 0.1);
            let metric = Value::obj([
                ("n", Value::from(s.n as u64)),
                ("median", Value::Num(s.median)),
                ("min", Value::Num(s.min)),
                ("q1", Value::Num(s.q1)),
                ("q3", Value::Num(s.q3)),
                ("max", Value::Num(s.max)),
            ]);
            Value::obj([(
                "workloads",
                Value::Arr(vec![Value::obj([
                    ("workload", Value::str("w")),
                    ("ops", Value::from(5u64)),
                    ("failed_ops", Value::from(failed)),
                    ("digest", Value::str("00")),
                    ("metrics", Value::obj([("wall_s", metric)])),
                ])]),
            )])
        };
        let bounds = [bound(Better::Lower)];
        assert_eq!(compare(&file(10.0, 0), &file(10.2, 0), &bounds), Ok(true));
        assert_eq!(compare(&file(10.0, 0), &file(12.0, 0), &bounds), Ok(false));
        assert_eq!(compare(&file(10.0, 0), &file(10.0, 1), &bounds), Ok(false));
        assert!(compare(&Value::Null, &file(10.0, 0), &bounds).is_err());
    }
}
