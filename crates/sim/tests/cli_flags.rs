//! Every subcommand rejects unknown flags with a usage error (exit 2)
//! instead of silently running a default configuration — `equiv --help`
//! must not start the full campaign, `sweep --theads 4` must not run the
//! grid single-threaded, and a mistyped `--mech` must not simulate the
//! default mechanism. Flag values the simulator cannot run (`--rob 0`) are
//! refused the same way.

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

/// One bogus flag per `usage()` line, so every subcommand is covered.
#[test]
fn every_subcommand_rejects_unknown_flags() {
    let cases: &[(&[&str], &str)] = &[
        (&["list", "--bogus"], "--bogus"),
        (&["table1", "--bogus"], "--bogus"),
        (&["run", "libq_like", "--bogus"], "--bogus"),
        (&["report", "libq_like", "--bogus"], "--bogus"),
        (&["explain", "--bogus"], "--bogus"),
        (&["telemetry", "libq_like", "--bogus"], "--bogus"),
        (&["profile", "libq_like", "--bogus"], "--bogus"),
        (&["compare", "libq_like", "--bogus"], "--bogus"),
        (&["compare", "latest", "latest~1", "--bogus"], "--bogus"),
        (&["record", "--bogus"], "--bogus"),
        (&["sweep", "--fast", "--theads", "4"], "--theads"),
        (&["fuzz", "--bogus"], "--bogus"),
        (&["equiv", "--bogus"], "--bogus"),
        (
            &["mix", "--workloads", "mcf_like,stream_hog", "--bogus"],
            "--bogus",
        ),
        (&["campaign", "run", "--bogus"], "--bogus"),
        (&["campaign", "resume", "--bogus"], "--bogus"),
        (&["campaign", "status", "--bogus"], "--bogus"),
        (&["campaign", "shard", "--bogus"], "--bogus"),
    ];
    for (args, flag) in cases {
        assert_usage_error(args, flag);
    }
}

/// A zero-entry ROB can never retire; it is refused up front instead of
/// spinning into the no-retirement watchdog.
#[test]
fn zero_entry_rob_is_refused() {
    let out = cdf_sim(&["run", "libq_like", "--fast", "--rob", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--rob must be at least 1"), "{stderr}");
    assert!(out.stdout.is_empty(), "ran before refusing");
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
