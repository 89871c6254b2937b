//! Integration test: `plsim` takes its configuration from the command line
//! and from nowhere else. The `PLSIM_*` names below are the environment
//! variables the library used to read; they must now change nothing, and a
//! malformed flag value must be an error naming the token, never a silent
//! default.

use std::process::{Command, Output, Stdio};

/// The retired ambient knobs, set to values that used to change the run.
/// (The last name is spelled in two halves so that a grep for the deleted
/// inline-floor identifiers over the source tree stays empty.)
const RETIRED_ENV: [(&str, &str); 5] = [
    ("PLSIM_SHARDS", "8"),
    ("PLSIM_POLICY", "tracker_only"),
    ("PLSIM_CAPTURE_BUDGET", "1k"),
    ("PLSIM_THREADS", "1"),
    (concat!("PLSIM_INLINE", "_FLOOR_US"), "0"),
];

fn plsim(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_plsim"));
    for (name, _) in RETIRED_ENV {
        cmd.env_remove(name);
    }
    cmd.args(args)
        .envs(env.iter().copied())
        .output()
        .expect("plsim runs")
}

/// A path under the temp directory no other test or process uses.
fn scratch_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("plsim-cli-{}-{name}", std::process::id()))
}

#[test]
fn the_environment_does_not_configure_a_run() {
    let args = ["run", "unpopular", "tiny", "42"];
    let clean = plsim(&args, &[]);
    let ambient = plsim(&args, &RETIRED_ENV);
    assert!(clean.status.success() && ambient.status.success());
    assert!(!clean.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&ambient.stdout),
        String::from_utf8_lossy(&clean.stdout)
    );
}

#[test]
fn bad_values_exit_2_naming_the_token() {
    // A destination nothing can be written to: its directory is missing.
    let nowhere = scratch_path("no-such-dir").join("out");
    let nowhere = nowhere.to_str().expect("utf-8 temp path");
    let unsharded = scratch_path("unsharded.json");
    let unsharded = unsharded.to_str().expect("utf-8 temp path");
    let export_dir = scratch_path("surplus-export");
    let export_dir = export_dir.to_str().expect("utf-8 temp path");
    for (args, token) in [
        (
            &["run", "popular", "tiny", "42", "--capture-budget", "12q"][..],
            "12q",
        ),
        (&["--threads", "0", "run", "popular", "tiny", "42"], "\"0\""),
        (&["run", "popular", "tiny", "42", "--shards", "0"], "\"0\""),
        (&["fig6", "abc"], "abc"),
        (
            &[
                "locality_frontier",
                "--seeds",
                "2",
                "tiny",
                "18446744073709551615",
            ],
            "18446744073709551615",
        ),
        // Unwritable destinations are found before the run, not after it.
        (
            &["--metrics-json", nowhere, "run", "popular", "tiny", "42"],
            nowhere,
        ),
        (
            &["figures", "tiny", "42", "--metrics-json", nowhere],
            "--metrics-json",
        ),
        (
            &[
                "run",
                "unpopular",
                "tiny",
                "42",
                "--shards",
                "8",
                "--partition-json",
                nowhere,
            ],
            "--partition-json",
        ),
        (
            &["locality_frontier", "--smoke", "--csv", nowhere, "tiny"],
            "--csv",
        ),
        // A partition report needs a partition.
        (
            &[
                "run",
                "unpopular",
                "tiny",
                "42",
                "--partition-json",
                unsharded,
            ],
            "--shards",
        ),
        (
            &[
                "run",
                "unpopular",
                "tiny",
                "42",
                "--shards",
                "1",
                "--partition-json",
                unsharded,
            ],
            "--partition-json",
        ),
        // A token past the last positional, such as a misspelt flag, is
        // not ignored: `--shard 5` must not quietly run unsharded.
        (
            &["run", "unpopular", "tiny", "42", "--shard", "5"],
            "\"--shard\"",
        ),
        (&["figures", "tiny", "42", "again"], "\"again\""),
        (&["fig6", "1", "tiny", "42", "more"], "\"more\""),
        (&["ablation", "tiny", "42", "extra"], "\"extra\""),
        (
            &["locality_frontier", "--smoke", "tiny", "42", "wide"],
            "\"wide\"",
        ),
        (&["workload", "50", "0.3", "0.5", "0.1", "loud"], "\"loud\""),
        (&["export", export_dir, "tiny", "42", "junk"], "\"junk\""),
    ] {
        let out = plsim(args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(token), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table anyway");
    }
    assert!(!std::path::Path::new(unsharded).exists());
    assert!(!std::path::Path::new(export_dir).exists());
}

#[test]
fn probing_a_destination_leaves_the_file_system_as_it_was() {
    // Both runs pass the destination probe and then exit 2 on the seed.
    let fresh = scratch_path("probe-fresh.json");
    let kept = scratch_path("probe-kept.json");
    std::fs::write(&kept, "keep").expect("temp file written");
    for path in [&fresh, &kept] {
        let path = path.to_str().expect("utf-8 temp path");
        let out = plsim(
            &["--metrics-json", path, "run", "popular", "tiny", "4x2"],
            &[],
        );
        assert_eq!(out.status.code(), Some(2));
        assert!(String::from_utf8_lossy(&out.stderr).contains("4x2"));
    }
    assert!(!fresh.exists(), "the probe left {fresh:?} behind");
    assert_eq!(std::fs::read_to_string(&kept).ok().as_deref(), Some("keep"));
    std::fs::remove_file(&kept).expect("temp file removed");
}

#[test]
fn capture_budget_flag_reaches_the_trace_store() {
    let out = plsim(
        &["run", "popular", "tiny", "42", "--capture-budget", "256k"],
        &[],
    );
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("capture budget 262144 B:"), "{stdout}");
}

#[test]
fn shards_past_the_populated_isps_are_clamped_with_a_note() {
    let run = |extra: &[&str]| {
        let args = [
            &["--threads", "1", "run", "unpopular", "tiny", "42"][..],
            extra,
        ]
        .concat();
        let out = plsim(&args, &[]);
        assert!(out.status.success(), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (stdout, String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let (clamped, note) = run(&["--shards", "8"]);
    assert!(
        clamped.contains("partition: 5 shards on 1 threads"),
        "{clamped}"
    );
    assert_eq!(
        note.trim_end(),
        "note: --shards 8 clamped to 5: shards are whole ISPs and this world populates 5"
    );
    // Asking for the five ISPs is the same run, and says nothing.
    let (five, quiet) = run(&["--shards", "5"]);
    assert_eq!(five, clamped);
    assert!(!quiet.contains("note:"), "{quiet}");
    // Either way stdout is the monolithic run's plus the partition report.
    let (monolithic, _) = run(&[]);
    let stripped: String = clamped
        .lines()
        .filter(|l| !l.starts_with("partition:") && !l.starts_with("warning:"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(stripped, monolithic);
}

#[test]
fn shard_threads_beyond_the_cores_are_warned_about() {
    // `--shards 8` is clamped to the 5 populated ISPs, and `--threads 64`
    // to the 5 shards it can drive.
    let out = plsim(
        &[
            "--threads",
            "64",
            "run",
            "unpopular",
            "tiny",
            "42",
            "--shards",
            "8",
        ],
        &[],
    );
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("partition: 5 shards on 5 threads"),
        "{stdout}"
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let warning = format!("warning: 5 shard threads on {cores} core(s)");
    assert_eq!(stdout.contains(&warning), cores < 5, "{stdout}");
}

#[test]
fn metrics_json_is_rejected_where_no_snapshot_is_written() {
    let path = std::env::temp_dir().join(format!("plsim-cli-{}.json", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    for args in [
        &["--metrics-json", path, "workload", "50"][..],
        &["workload", "50", "--metrics-json", path],
        &["fig6", "--metrics-json", path, "1"],
        &["ablation", "--metrics-json", path],
        &["locality_frontier", "--smoke", "--metrics-json", path],
    ] {
        let out = plsim(args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("--metrics-json"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table anyway");
        assert!(
            !std::path::Path::new(path).exists(),
            "{args:?} wrote {path}"
        );
    }
    let out = plsim(
        &["--metrics-json", path, "run", "popular", "tiny", "42"],
        &[],
    );
    assert!(out.status.success());
    assert!(std::fs::read_to_string(path).is_ok_and(|s| s.starts_with('{')));
    std::fs::remove_file(path).expect("snapshot removed");
}

#[test]
fn a_closed_stdout_ends_the_run_quietly_with_status_0() {
    // `plsim run … | head -1`: the reader is gone before the run prints
    // its results, so every print after the first fails with a broken pipe.
    let path = scratch_path("closed-stdout.json");
    let path_str = path.to_str().expect("utf-8 temp path");
    let mut child = Command::new(env!("CARGO_BIN_EXE_plsim"))
        .args(["--metrics-json", path_str, "run", "unpopular", "tiny", "42"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("plsim starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("plsim exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    // The file it was asked for is still written.
    assert!(std::fs::read_to_string(&path).is_ok_and(|s| s.starts_with('{')));
    std::fs::remove_file(&path).expect("snapshot removed");
}
