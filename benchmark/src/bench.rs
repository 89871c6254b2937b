//! One workload measured in this process: `plbench bench`, the command
//! `BENCHMARK.json` names. It yields two JSON documents: the detail (every
//! metric with sample count, median, quartiles and extremes, the digest,
//! the exact counts, each failure) and the result line of the benchmark
//! contract, which `main` prints last.

use crate::json::Value;
use crate::layers::Ledger;
use crate::spec::{MetricDef, Size, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, Op};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// When the measuring loop stops starting operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// Once this much time has been measured (the driver's `--seconds`)
    /// and [`MIN_OPS`] operations have run. An operation in flight finishes.
    After(Duration),
    /// After this many operations (`--reps`).
    Reps(u32),
}

/// Fewest operations a timed run measures, however long one takes: the
/// second is what shows that an operation reproduces the first's digest.
const MIN_OPS: u32 = 2;

#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    pub workload: Workload,
    pub seed: u64,
    pub stop: Stop,
    pub trace: bool,
    pub size: Size,
}

/// Where the traced run's spans and the spill files go: `out/` beside this
/// package's manifest, inside the checkout wherever it is.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` has
/// none.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the measuring loop collected.
struct Measured {
    /// The operations that ran to completion, each with whether it ran
    /// with tracing on.
    ops: Vec<(Op, bool)>,
    /// Operations that panicked, by message.
    panics: Vec<String>,
    /// Id of the last traced operation.
    last_traced_op: u32,
}

/// Runs operations back to back, one at a time (a closed loop), until
/// `stop`. A traced run alternates untraced and traced operations — an
/// untraced one first, a traced one last — so the two can be compared.
fn measure(runner: &mut dyn workloads::Runner, tr: &mut Tracer, args: &BenchArgs) -> Measured {
    let mut m = Measured {
        ops: Vec::new(),
        panics: Vec::new(),
        last_traced_op: 0,
    };
    let started = Instant::now();
    let mut attempted = 0u32;
    loop {
        let traced = args.trace && attempted % 2 == 1;
        tr.set_enabled(traced);
        let op_id = tr.next_op();
        match catch_unwind(AssertUnwindSafe(|| runner.op(tr))) {
            Ok(op) => {
                m.ops.push((op, traced));
                if traced {
                    m.last_traced_op = op_id;
                }
            }
            Err(payload) => m.panics.push(
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "operation panicked".to_string()),
            ),
        }
        attempted += 1;
        let enough = match args.stop {
            Stop::After(limit) => started.elapsed() >= limit && attempted >= MIN_OPS,
            Stop::Reps(n) => attempted >= n,
        };
        // A traced run ends on a traced operation.
        if enough && (!args.trace || traced) {
            return m;
        }
    }
}

fn metric_json(def: &MetricDef, s: &Summary) -> (String, Value) {
    (
        def.name.to_string(),
        Value::obj([
            ("unit", Value::str(def.unit)),
            ("n", Value::from(s.n as u64)),
            ("median", Value::Num(s.median)),
            ("min", Value::Num(s.min)),
            ("q1", Value::Num(s.q1)),
            ("q3", Value::Num(s.q3)),
            ("max", Value::Num(s.max)),
        ]),
    )
}

/// The two documents of one measured workload.
#[derive(Debug)]
pub struct Report {
    pub detail: Value,
    /// `{"correct", "attempted", "failed", "metrics"}`, as the benchmark
    /// contract words it.
    pub result: Value,
}

/// Runs the workload. A traced run also writes its spans to
/// `out/trace-<workload>.json`.
pub fn run(args: &BenchArgs) -> Result<Report, String> {
    let mut tr = Tracer::new(args.trace);
    let mut runner = workloads::runner(args.workload, args.size, args.seed);
    let setup = runner.setup(&mut tr, args.trace);
    let m = measure(runner.as_mut(), &mut tr, args);

    let failures: Vec<String> = m
        .ops
        .iter()
        .enumerate()
        .flat_map(|(i, (op, _))| {
            op.failures
                .iter()
                .map(move |f| format!("op {}: {f}", i + 1))
        })
        .chain(m.panics.iter().map(|p| format!("panic: {p}")))
        .collect();
    let attempted = m.ops.len() + m.panics.len();
    let failed = m
        .ops
        .iter()
        .filter(|(op, _)| !op.failures.is_empty())
        .count()
        + m.panics.len();
    let Some((last, _)) = m.ops.last() else {
        return Err(format!("no operation completed: {failures:?}"));
    };

    let walls = |traced: bool| -> Vec<f64> {
        m.ops
            .iter()
            .filter(|(_, t)| *t == traced)
            .map(|(op, _)| op.wall_s)
            .collect()
    };
    let untraced = walls(false);
    let mut summaries: Vec<(MetricDef, Summary)> = Vec::new();
    if args.trace {
        let mut ledger = Ledger::default();
        runner.layers(&mut tr, m.last_traced_op, &mut ledger);
        let (on, off) = (median(&walls(true)), median(&untraced));
        if let (Some(on), Some(off)) = (on, off) {
            ledger.set("trace.overhead_share", (on - off) / off);
        }
        summaries.extend(
            PER_LAYER
                .iter()
                .map(|def| (*def, Summary::single(ledger.get(def.name)))),
        );
    } else {
        let rates: Vec<f64> = m
            .ops
            .iter()
            .map(|(op, _)| op.work as f64 / op.wall_s)
            .collect();
        let of = |values: &[f64]| Summary::of(values).expect("at least one sample");
        for def in &END_TO_END {
            let summary = match def.name {
                "wall_s" => of(&untraced),
                "work_per_s" => of(&rates),
                "peak_rss_mb" => Summary::single(peak_rss_mb()),
                "setup_s" => of(&setup),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            summaries.push((*def, summary));
        }
    }

    let detail = Value::obj([
        ("workload", Value::str(args.workload.name())),
        ("seed", Value::from(args.seed)),
        ("size", Value::str(args.size.label())),
        ("trace", Value::Bool(args.trace)),
        ("work_unit", Value::str(args.workload.work_unit())),
        ("ops", Value::from(attempted as u64)),
        ("failed_ops", Value::from(failed as u64)),
        (
            "failures",
            Value::Arr(failures.iter().map(Value::str).collect()),
        ),
        ("digest", Value::str(format!("{:016x}", last.digest))),
        (
            "counts",
            Value::obj(last.counts.iter().map(|&(k, v)| (k, Value::from(v)))),
        ),
        (
            "metrics",
            Value::Obj(summaries.iter().map(|(d, s)| metric_json(d, s)).collect()),
        ),
    ]);
    if args.trace {
        let out = out_dir();
        let path = out.join(format!("trace-{}.json", args.workload.name()));
        let doc = Value::obj([("detail", detail.clone()), ("spans", tr.to_json())]);
        std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, format!("{doc}\n")))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    let result = Value::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::from(attempted as u64)),
        ("failed", Value::from(failed as u64)),
        (
            "metrics",
            Value::Obj(
                summaries
                    .iter()
                    .map(|(d, s)| {
                        (
                            d.name.to_string(),
                            Value::obj([
                                ("value", Value::Num(s.median)),
                                ("unit", Value::str(d.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(Report { detail, result })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(v: &Value) -> Vec<&str> {
        v.as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    fn smoke(workload: Workload, trace: bool) -> Report {
        run(&BenchArgs {
            workload,
            seed: 7,
            stop: Stop::Reps(2),
            trace,
            size: Size::Smoke,
        })
        .unwrap()
    }

    /// Every workload, untraced: two operations reproduce one digest, the
    /// sharded world reproduces its monolithic twin's, and the result line
    /// carries exactly the end-to-end metrics, none of them zero.
    #[test]
    fn untraced_smoke_runs_are_correct_and_emit_every_end_to_end_metric() {
        let mut digests = Vec::new();
        for workload in Workload::ALL {
            let r = smoke(workload, false);
            assert_eq!(
                keys(&r.result),
                ["correct", "attempted", "failed", "metrics"]
            );
            assert_eq!(
                r.result.get("correct"),
                Some(&Value::Bool(true)),
                "{}",
                r.detail
            );
            assert_eq!(r.result.get("attempted"), Some(&Value::Num(2.0)));
            assert_eq!(r.result.get("failed"), Some(&Value::Num(0.0)));
            let metrics = r.result.get("metrics").unwrap();
            let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(keys(metrics), names);
            for def in &END_TO_END {
                let m = metrics.get(def.name).unwrap();
                assert_eq!(keys(m), ["value", "unit"]);
                assert_eq!(m.get("unit").unwrap().as_str(), Some(def.unit));
                let value = m.get("value").unwrap().as_f64().unwrap();
                assert!(value > 0.0, "{} {} = {value}", workload.name(), def.name);
            }
            digests.push(
                r.detail
                    .get("digest")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string(),
            );
        }
        // world_sharded8 runs world_unpopular_reduced's configuration.
        assert_eq!(digests[0], digests[2]);
        assert_ne!(digests[0], digests[1]);
    }

    /// A traced run reports every per-layer metric, and a fixed tiny run's
    /// digest does not depend on tracing.
    #[test]
    fn traced_smoke_run_emits_every_per_layer_metric() {
        let untraced = smoke(Workload::WorldSharded8, false);
        let traced = smoke(Workload::WorldSharded8, true);
        assert_eq!(traced.detail.get("digest"), untraced.detail.get("digest"));
        let metrics = traced.result.get("metrics").unwrap();
        let names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(keys(metrics), names);
        let value = |name: &str| {
            metrics
                .get(name)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert!(value("des.events") > 0.0);
        assert!(value("shard.window_rounds") > 0.0);
        assert!(value("shard.overhead_ratio") > 0.0);
        assert_eq!(value("core.pool_seq_wall_s"), 0.0);
        let spans = std::fs::read_to_string(out_dir().join("trace-world_sharded8.json")).unwrap();
        let spans = crate::json::parse(&spans).unwrap();
        assert!(!spans.get("spans").unwrap().as_arr().unwrap().is_empty());
    }
}
