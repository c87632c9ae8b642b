//! `throughput-gate` refuses a flag it does not know before measuring
//! anything (so a typo such as `--ful` cannot silently run the quick suite).

use std::process::Command;

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_throughput-gate"))
        .arg("--bogus")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag `--bogus`"), "{stderr}");
    assert!(out.stdout.is_empty(), "measured before refusing");
}
