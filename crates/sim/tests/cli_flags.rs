//! Every subcommand rejects unknown flags with a usage error (exit 2)
//! instead of silently running a default configuration — `equiv --help`
//! must not start the full campaign, `sweep --theads 4` must not run the
//! grid single-threaded, and a mistyped `--mech` must not simulate the
//! default mechanism. Flag values the simulator cannot run (`--rob 0`) are
//! refused the same way, and so is every other malformed invocation: a
//! missing value, a repeated flag, a stray or missing positional, a value
//! that does not parse or is out of range, and `--mem` with `--boundary`.

use std::process::{Command, Output};

fn cdf_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cdf-sim"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Asserts exit 2 with `needle` on stderr and nothing on stdout.
fn assert_refused(args: &[&str], needle: &str) {
    let out = cdf_sim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran before rejecting");
}

fn assert_usage_error(args: &[&str], flag: &str) {
    assert_refused(args, &format!("unknown flag `{flag}`"));
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

/// One case per rejection class beyond unknown flags.
#[test]
fn every_rejection_class_is_refused_before_running() {
    let cases: &[(&[&str], &str)] = &[
        // missing value, at the end or before the next flag
        (
            &["fuzz", "--seeds", "1", "--report"],
            "missing value for `--report`",
        ),
        (
            &["sweep", "--fast", "--out", "--profile"],
            "missing value for `--out`",
        ),
        // repeated flag
        (
            &["fuzz", "--seeds", "1", "--seeds", "2"],
            "`--seeds` given more than once",
        ),
        (
            &["run", "libq_like", "--rob", "128", "--rob", "256"],
            "`--rob` given more than once",
        ),
        // stray and missing positionals
        (
            &["sweep", "stray_arg", "--fast"],
            "unexpected argument `stray_arg`",
        ),
        (&["run", "--fast"], "missing <workload>"),
        (&["compare"], "missing <workload>"),
        (&["campaign"], "unknown subcommand `campaign`"),
        (&["nonsense"], "unknown subcommand `nonsense`"),
        // unparseable values
        (
            &["run", "astar_like", "--scale", "nan"],
            "`--scale` takes a finite number, got `nan`",
        ),
        (
            &["fuzz", "--seeds", "many"],
            "`--seeds` takes an unsigned integer, got `many`",
        ),
        (
            &["run", "astar_like", "--mech", "warp"],
            "unknown mechanism `warp`",
        ),
        (
            &["sweep", "--mechs", "base,,cdf"],
            "`--mechs` has an empty entry",
        ),
        // out-of-range values
        (
            &["run", "astar_like", "--scale", "-1"],
            "--scale must be a finite number above 0",
        ),
        (
            &["run", "astar_like", "--fast", "--measure", "0"],
            "--measure must be at least 1",
        ),
        (
            &["telemetry", "astar_like", "--interval", "0"],
            "--interval must be at least 1",
        ),
        (
            &["sweep", "--telemetry", "0"],
            "--telemetry must be at least 1",
        ),
        (
            &["compare", "latest", "latest~1", "--tolerance", "-0.5"],
            "--tolerance must not be negative",
        ),
        (
            &["campaign", "run", "--spec", "s.toml", "--shards", "0"],
            "--shards must be at least 1",
        ),
        // exclusive pair and required flags
        (
            &["equiv", "--mem", "--boundary"],
            "`--mem` and `--boundary` exclude each other",
        ),
        (&["campaign", "run"], "missing required flag `--spec`"),
        (
            &["campaign", "shard", "--dir", "d"],
            "missing required flag `--shard`",
        ),
        (&["mix", "--fast"], "missing required flag `--workloads`"),
        (
            &["mix", "--workloads", "mcf_like"],
            "a mix needs at least two cores",
        ),
    ];
    for (args, needle) in cases {
        assert_refused(args, needle);
    }
    // A filter that matches no cell writes nothing, not even a run id.
    let store = std::env::temp_dir().join(format!("cdf-cli-empty-{}.jsonl", std::process::id()));
    let store_arg = store.to_str().expect("utf-8 path");
    let args = ["record", "--fast", "--filter", "zzz", "--store", store_arg];
    assert_refused(&args, "`--filter` matched no cells");
    assert!(!store.exists(), "store created for an empty record run");
}

/// Every subcommand form refuses a stray positional and a value flag
/// with no value (`list` takes no value flags).
#[test]
fn every_subcommand_refuses_stray_positionals_and_missing_values() {
    let stray: &[&[&str]] = &[
        &["list", "x"],
        &["table1", "x"],
        &["run", "libq_like", "x"],
        &["report", "libq_like", "x"],
        &["explain", "x"],
        &["telemetry", "libq_like", "x"],
        &["profile", "libq_like", "x"],
        &["compare", "latest", "latest~1", "x"],
        &["record", "x"],
        &["sweep", "x"],
        &["fuzz", "x"],
        &["equiv", "x"],
        &["mix", "--workloads", "a,b", "x"],
        &["campaign", "run", "--spec", "s.toml", "x"],
        &["campaign", "resume", "--dir", "d", "x"],
        &["campaign", "status", "--dir", "d", "x"],
        &["campaign", "shard", "--dir", "d", "--shard", "0", "x"],
    ];
    for args in stray {
        assert_refused(args, "unexpected argument `x`");
    }
    let missing: &[(&[&str], &str)] = &[
        (&["table1", "--rob"], "--rob"),
        (&["run", "libq_like", "--mech"], "--mech"),
        (&["report", "libq_like", "--warmup"], "--warmup"),
        (&["explain", "--chains"], "--chains"),
        (&["telemetry", "libq_like", "--interval"], "--interval"),
        (&["profile", "libq_like", "--out"], "--out"),
        (&["compare", "libq_like", "--seed"], "--seed"),
        (&["compare", "latest", "latest~1", "--store"], "--store"),
        (&["record", "--filter"], "--filter"),
        (&["sweep", "--workloads"], "--workloads"),
        (&["fuzz", "--start"], "--start"),
        (&["equiv", "--report"], "--report"),
        (&["mix", "--workloads"], "--workloads"),
        (&["campaign", "run", "--spec"], "--spec"),
        (&["campaign", "resume", "--dir"], "--dir"),
        (&["campaign", "status", "--dir"], "--dir"),
        (&["campaign", "shard", "--dir", "d", "--shard"], "--shard"),
    ];
    for (args, flag) in missing {
        assert_refused(args, &format!("missing value for `{flag}`"));
    }
}

/// The usage text is generated from the flag tables; each subcommand's
/// usage lists exactly the flags it accepts.
#[test]
fn usage_lists_each_subcommands_flags() {
    const SIZING: &[&str] = &[
        "--rob",
        "--warmup",
        "--measure",
        "--scale",
        "--seed",
        "--max-cycles",
        "--fast",
    ];
    let cases: &[(&[&str], &[&str])] = &[
        (&["table1"], SIZING),
        (&["run", "x"], &["--mech"]),
        (&["report", "x"], &["--mech"]),
        (
            &["explain"],
            &[
                "--workloads",
                "--mechs",
                "--threads",
                "--chains",
                "--out",
                "--trace-out",
                "--record",
                "--store",
            ],
        ),
        (
            &["telemetry", "x"],
            &["--mech", "--interval", "--out", "--trace-out"],
        ),
        (&["profile", "x"], &["--mech", "--out", "--trace-out"]),
        (&["compare", "a", "b"], &["--store", "--tolerance", "--out"]),
        (
            &["record"],
            &[
                "--workloads",
                "--mechs",
                "--threads",
                "--filter",
                "--store",
                "--telemetry",
                "--explain",
                "--profile",
            ],
        ),
        (
            &["sweep"],
            &[
                "--workloads",
                "--mechs",
                "--threads",
                "--telemetry",
                "--explain",
                "--profile",
                "--record",
                "--store",
                "--out",
            ],
        ),
        (
            &["fuzz"],
            &[
                "--seeds",
                "--start",
                "--budget",
                "--shrink-budget",
                "--threads",
                "--mechs",
                "--minimize",
                "--report",
                "--out",
            ],
        ),
        (
            &["equiv"],
            &[
                "--mem",
                "--boundary",
                "--seeds",
                "--start",
                "--threads",
                "--mechs",
                "--report",
            ],
        ),
        (
            &["mix", "--workloads", "a,b"],
            &[
                "--workloads",
                "--mechs",
                "--telemetry",
                "--profile",
                "--out",
                "--record",
                "--store",
            ],
        ),
        (
            &["campaign", "run"],
            &[
                "--spec",
                "--dir",
                "--shards",
                "--threads",
                "--store",
                "--no-record",
            ],
        ),
        (
            &["campaign", "shard"],
            &["--dir", "--shard", "--threads", "--batch", "--abort-after"],
        ),
    ];
    for (args, flags) in cases {
        let mut argv = args.to_vec();
        argv.push("--bogus");
        let out = cdf_sim(&argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        for flag in *flags {
            assert!(
                stderr.contains(&format!("  {flag} ")),
                "{args:?} usage misses {flag}: {stderr}"
            );
        }
    }
    let all = cdf_sim(&[]);
    assert_eq!(all.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&all.stderr);
    for form in [
        "cdf-sim list",
        "cdf-sim table1",
        "cdf-sim run <workload>",
        "cdf-sim report <workload>",
        "cdf-sim explain",
        "cdf-sim telemetry <workload>",
        "cdf-sim profile <workload>",
        "cdf-sim compare <workload>",
        "cdf-sim compare <refA> <refB>",
        "cdf-sim record",
        "cdf-sim sweep",
        "cdf-sim fuzz",
        "cdf-sim equiv",
        "cdf-sim mix",
        "cdf-sim campaign run",
        "cdf-sim campaign resume",
        "cdf-sim campaign status",
        "cdf-sim campaign shard",
    ] {
        assert!(stderr.contains(form), "usage misses {form}");
    }
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
    // Positionals may come after flags.
    let run = cdf_sim(&[
        "run",
        "--fast",
        "--warmup",
        "1000",
        "libq_like",
        "--measure",
        "2000",
    ]);
    assert_eq!(run.status.code(), Some(0), "{run:?}");
    assert!(String::from_utf8_lossy(&run.stdout).contains("libq_like"));
}
