//! Error paths of the `reproduce` CLI: every bad input exits with its
//! documented code and a one-line message, never a panic, and never after
//! running a sweep. Usage errors exit 2; unreadable inputs and unwritable
//! outputs exit 1.

use std::path::PathBuf;
use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce")
}

/// A path under the integration-test scratch directory.
fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs `args` and checks the exit code and that stderr names the problem.
fn assert_fails(args: &[&str], code: i32, message: &str) -> Output {
    let out = reproduce(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: stderr {stderr}");
    assert!(stderr.contains(message), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr}");
    out
}

#[test]
fn malformed_at_scale_options_exit_2() {
    let sample = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../data/azure_trace_sample.csv"
    );
    let day_zero = format!("trace:{sample}@0");
    let cases: [(&[&str], &str); 8] = [
        (&["--racks", "0"], "--racks must be a positive integer"),
        (&["--racks", "abc"], "--racks must be a positive integer"),
        (&["--jobs", "-1"], "--jobs must be a non-negative integer"),
        (&["--seed", "x"], "--seed must be an integer"),
        (&["--scale", "nope"], "--scale must be smoke, quick"),
        (&["--balancer", "x"], "--balancer must be one of"),
        (&["--cold-path", "x"], "--cold-path must be one of"),
        (&["--workload", &day_zero], "is not a valid trace day"),
    ];
    let out = scratch("malformed.json");
    let _ = std::fs::remove_file(&out);
    for (flags, message) in cases {
        let mut args = vec!["at-scale", "--smoke", "--out", out.to_str().unwrap()];
        args.extend_from_slice(flags);
        let result = assert_fails(&args, 2, message);
        assert!(result.stdout.is_empty(), "{args:?} must not start a sweep");
    }
    assert!(!out.exists(), "a usage error must not create the report");
}

#[test]
fn unreadable_trace_file_exits_1_and_leaves_no_report() {
    let out = scratch("unreadable_trace.json");
    let _ = std::fs::remove_file(&out);
    assert_fails(
        &[
            "at-scale",
            "--smoke",
            "--workload",
            "trace:/nonexistent",
            "--out",
            out.to_str().unwrap(),
        ],
        1,
        "cannot read trace file /nonexistent",
    );
    assert!(
        !out.exists(),
        "a rejected sweep removes its empty report file"
    );
}

#[test]
fn unwritable_out_fails_before_the_sweep_runs() {
    let result = assert_fails(
        &["at-scale", "--smoke", "--out", "/nonexistent/dir/x.json"],
        1,
        "failed to write /nonexistent/dir/x.json",
    );
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.is_empty(), "no sweep, no table: {stdout}");
}

/// `perf-gate` is not a subcommand: like any unknown name it exits 2 with
/// the list of valid ones.
#[test]
fn the_removed_gate_subcommand_is_an_unknown_experiment() {
    assert_fails(&["perf-gate"], 2, "unknown experiment 'perf-gate'");
}
