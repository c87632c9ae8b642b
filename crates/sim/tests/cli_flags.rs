//! `run`, `fuzz` and `equiv` reject unknown flags with a usage error (exit
//! 2) instead of silently running a default configuration — `equiv --help`
//! must not start the full campaign, and a mistyped `--mech` must not
//! simulate the default mechanism.

use std::process::{Command, Output};

fn cdf_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cdf-sim"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn assert_usage_error(args: &[&str], flag: &str) {
    let out = cdf_sim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("unknown flag `{flag}`")),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran before rejecting");
}

#[test]
fn run_rejects_unknown_flags() {
    assert_usage_error(&["run", "omnetpp_like", "--mehc", "base"], "--mehc");
    assert_usage_error(
        &["run", "omnetpp_like", "--fast", "--warmupp", "10"],
        "--warmupp",
    );
}

#[test]
fn fuzz_rejects_unknown_flags() {
    assert_usage_error(&["fuzz", "--seed", "5"], "--seed");
    assert_usage_error(&["fuzz", "--help"], "--help");
}

#[test]
fn equiv_rejects_unknown_flags() {
    assert_usage_error(&["equiv", "--help"], "--help");
    assert_usage_error(&["equiv", "--seeds", "1", "--memory"], "--memory");
}

#[test]
fn known_flags_still_run() {
    let fuzz = cdf_sim(&["fuzz", "--seeds", "1", "--mechs", "base", "--minimize"]);
    assert_eq!(fuzz.status.code(), Some(0), "{fuzz:?}");
    let equiv = cdf_sim(&[
        "equiv",
        "--seeds",
        "1",
        "--mechs",
        "base",
        "--mem",
        "--threads",
        "1",
    ]);
    assert_eq!(equiv.status.code(), Some(0), "{equiv:?}");
}
