//! The `gqos-bench` CLI and the measurement tools must reject a malformed
//! command line with a clear `error: …` diagnostic and exit status 2 —
//! never a panic, never a backtrace, never silent misbehavior.

use std::path::Path;
use std::process::{Command, Output};

use gqos_bench::experiments::REGISTRY;

const BIN: &str = env!("CARGO_BIN_EXE_gqos-bench");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"))
}

fn assert_clean_usage_error(name: &str, args: &[&str], output: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{name} {args:?}: expected exit 2, got {:?}\nstderr: {stderr}",
        output.status.code()
    );
    assert!(
        stderr.contains("error:"),
        "{name} {args:?}: stderr lacks `error:`\nstderr: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{name} {args:?}: stderr lacks `{needle}`\nstderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{name} {args:?}: panicked instead of exiting cleanly\nstderr: {stderr}"
    );
}

#[test]
fn unknown_flag_is_a_clean_error_for_every_experiment() {
    let names = REGISTRY.iter().map(|e| e.name).chain(["all"]);
    for name in names {
        let args = [name, "--bogus"];
        let output = run(BIN, &args);
        assert_clean_usage_error(name, &args, &output, "unknown flag");
    }
}

#[test]
fn unknown_experiment_is_a_clean_error() {
    let cases: [(&[&str], &str); 3] = [
        (&["fig9"], "unknown experiment `fig9`"),
        (&["--quick"], "unknown experiment `--quick`"),
        (&[], "missing experiment name"),
    ];
    for (args, needle) in cases {
        let output = run(BIN, args);
        assert_clean_usage_error("gqos-bench", args, &output, needle);
        // The diagnostic lists the valid names.
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("fig6_schedulers"), "{stderr}");
    }
}

#[test]
fn malformed_values_are_clean_errors() {
    // One case per failure class; the parser is shared by every row.
    let cases: &[(&[&str], &str)] = &[
        (&["--span", "abc"], "--span value"),
        (&["--span"], "--span requires"),
        (&["--seed", "1.5"], "--seed value"),
        (&["--threads", "0"], "at least 1"),
        (&["--threads", "-3"], "--threads value"),
        (&["--threads", "many"], "--threads value"),
    ];
    for &(flags, needle) in cases {
        let args: Vec<&str> = ["fig3_scl"].iter().chain(flags).copied().collect();
        let output = run(BIN, &args);
        assert_clean_usage_error("fig3_scl", &args, &output, needle);
    }
}

#[test]
fn unusable_out_dir_is_a_clean_error() {
    // Point --out below a regular file: the directory cannot be created.
    let dir = std::env::temp_dir().join(format!("gqos-cli-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, b"occupied").expect("temp file");
    let out = file.join("results");
    let out = out.to_str().expect("utf-8 temp path");
    let output = run(BIN, &["fig3_scl", "--quick", "--out", out]);
    assert_clean_usage_error(
        "fig3_scl",
        &["fig3_scl", "--quick", "--out", "<file>/results"],
        &output,
        "output directory",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn custom_parsers_reject_garbage_cleanly() {
    // perf_report and obs_overhead parse their own flags; they must meet
    // the same contract as the shared parser.
    for (name, bin, args) in [
        (
            "perf_report",
            env!("CARGO_BIN_EXE_perf_report"),
            ["--samples", "abc"],
        ),
        (
            "obs_overhead",
            env!("CARGO_BIN_EXE_obs_overhead"),
            ["--samples", "-4"],
        ),
    ] {
        let output = run(bin, &args);
        assert_clean_usage_error(name, &args, &output, "--samples");
        // The usage line names the tool, not the `gqos-bench` CLI.
        assert_clean_usage_error(name, &args, &output, &format!("usage: {name} "));
    }
}

#[test]
fn well_formed_quick_run_still_works() {
    // The hardening must not break the happy path: a quick serial run of
    // the cheapest experiment exits 0 and writes its CSV.
    let dir = std::env::temp_dir().join(format!("gqos-cli-ok-{}", std::process::id()));
    let out = dir.to_str().expect("utf-8 temp path");
    let output = run(
        BIN,
        &["fig3_scl", "--quick", "--out", out, "--threads", "1"],
    );
    assert!(
        output.status.success(),
        "fig3_scl --quick failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(Path::new(out).join("fig3_scl.csv").exists());
    std::fs::remove_dir_all(&dir).ok();
}
