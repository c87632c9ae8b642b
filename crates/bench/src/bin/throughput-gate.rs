//! `throughput-gate` — CI guard against simulator-throughput regressions.
//!
//! ```text
//! throughput-gate --bless [--full]           # (re)write the baseline JSON
//! throughput-gate [--full] [--tolerance F]   # measure and compare
//! throughput-gate --baseline FILE ...        # non-default baseline path
//! throughput-gate --record [--store FILE]    # also append cdf-result/1
//!                                            # rows to the results store
//! throughput-gate --profile-out FILE         # also write per-case
//!                                            # cdf-profile/1 documents
//! ```
//!
//! Measures the scheduler + memory-model micro/macro suite (best-of-3,
//! quick sizing by default) and compares cycles/second per case against
//! the checked-in `crates/bench/baseline/throughput.json`. A case that
//! regresses by more than the tolerance (default 20%) fails the gate.
//! Wall-clock baselines are machine-dependent — re-bless when the
//! reference hardware changes.
//!
//! Three machine-independent invariants are checked as well:
//! * the `stall_window` micro case must keep the event-driven scheduler at
//!   least 3x faster than the reference scan,
//! * the `mshr_churn` micro case must keep the event-driven memory model
//!   at least 1.2x faster than the lazy reference, and
//! * the event-driven variant must not be slower than its reference on
//!   any case by more than the tolerance.

use cdf_bench::throughput::{
    measure, profile_once, rows_from_json, rows_json, speedup_ratios, throughput_cases,
};
use cdf_sim::cli::{self, Args, Form};
use cdf_sim::json::{field, Json};
use std::path::PathBuf;
use std::process::exit;

/// Counting allocator so `--profile-out` attributes allocation counts and
/// bytes to pipeline stages; free when profiling is off.
#[global_allocator]
static ALLOC: cdf_core::CountingAlloc = cdf_core::CountingAlloc;

#[rustfmt::skip]
mod flags {
    use cdf_sim::cli::{Flag, Kind::*};

    pub const FULL: Flag = Flag::switch("--full", "measure the full-size suite (default: quick sizing)");
    pub const BLESS: Flag = Flag::switch("--bless", "(re)write the baseline JSON instead of comparing");
    pub const TOLERANCE: Flag = Flag::value("--tolerance", Float, "F", "allowed cycles/sec regression as a fraction (default 0.20)")
        .checked(|v| if v >= 0.0 { Ok(()) } else { Err("must not be negative".into()) });
    pub const BASELINE: Flag = Flag::value("--baseline", Text, "FILE", "baseline path (default crates/bench/baseline/throughput.json)");
    pub const RECORD: Flag = Flag::switch("--record", "also append the rows as cdf-result/1 records to the results store");
    pub const STORE: Flag = Flag::value("--store", Text, "FILE", "results store path (default .cdf-results/results.jsonl)");
    pub const PROFILE_OUT: Flag = Flag::value("--profile-out", Text, "FILE", "also write one cdf-profile/1 document per case to FILE");
}
use flags::*;

const FORMS: &[Form] = &[Form::new(
    "",
    &[],
    "measure the throughput suite and compare it against the baseline",
    &[&[
        &FULL,
        &BLESS,
        &TOLERANCE,
        &BASELINE,
        &RECORD,
        &STORE,
        &PROFILE_OUT,
    ]],
    gate,
)];

fn main() {
    cli::main("throughput-gate", FORMS);
}

fn gate(args: &Args) {
    let full = args.has(&FULL);
    let bless = args.has(&BLESS);
    let tolerance = args.float(&TOLERANCE).unwrap_or(0.20);
    let baseline_path = args.text(&BASELINE).map(PathBuf::from).unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baseline/throughput.json")
    });

    let quick = !full;
    let rows = measure(&throughput_cases(quick), 3);
    for r in &rows {
        println!(
            "{:32} {:>12.0} cycles/s  ({} cycles in {:.3}s)",
            r.name,
            r.cycles_per_sec(),
            r.simulated_cycles,
            r.wall_seconds
        );
    }
    let ratios = speedup_ratios(&rows);
    for (case, ratio) in &ratios {
        println!("{case:32} event/reference = {ratio:.2}x");
    }

    if args.has(&RECORD) {
        let store_path = PathBuf::from(args.text(&STORE).unwrap_or(cdf_sim::DEFAULT_STORE_PATH));
        let store = cdf_sim::ResultStore::open(&store_path);
        let prov = cdf_core::Provenance::capture();
        let run_id = store
            .reserve_run_id(&prov)
            .unwrap_or_else(|e| panic!("recording to {}: {e}", store_path.display()));
        // The sizing is the only configuration axis the gate varies, so it
        // is the whole config hash: quick vs full rows must not compare as
        // same-config cells.
        let config_hash = if quick {
            "throughput-quick"
        } else {
            "throughput-full"
        };
        let records: Vec<_> = rows
            .iter()
            .enumerate()
            .map(|(seq, r)| {
                let (case, variant) = r.name.rsplit_once('/').unwrap_or((r.name.as_str(), ""));
                cdf_sim::throughput_record(
                    &run_id,
                    seq as u64,
                    &prov,
                    config_hash,
                    case,
                    variant,
                    r.simulated_cycles,
                    r.wall_seconds,
                )
            })
            .collect();
        store
            .append(&records)
            .unwrap_or_else(|e| panic!("recording to {}: {e}", store_path.display()));
        println!(
            "recorded {} throughput row(s) to {} as run {run_id}",
            records.len(),
            store_path.display()
        );
    }

    if let Some(path) = args.text(&PROFILE_OUT) {
        // One profiled pass per case (event-driven variant) so the gate's
        // own wall time is attributable to pipeline stages and subsystems.
        let cases = throughput_cases(quick);
        let profiles: Vec<Json> = cases
            .iter()
            .map(|case| {
                let p = profile_once(case);
                cdf_sim::profile_json(&p, &case.name, "event")
            })
            .collect();
        let doc = Json::Obj(vec![
            field("schema", cdf_sim::schema::PROFILE_SET),
            field("quick", quick),
            field("profiles", Json::Arr(profiles)),
        ]);
        std::fs::write(path, doc.render_pretty()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {} case profile(s) to {path}", cases.len());
    }

    let mut failures = Vec::new();
    for (micro, floor) in [("stall_window", 3.0), ("mshr_churn", 1.2)] {
        if let Some((_, ratio)) = ratios.iter().find(|(c, _)| c == micro) {
            if *ratio < floor {
                failures.push(format!(
                    "{micro} micro speedup collapsed: {ratio:.2}x < {floor}x"
                ));
            }
        } else {
            failures.push(format!("{micro} case missing from suite"));
        }
    }
    for (case, ratio) in &ratios {
        if *ratio < 1.0 - tolerance {
            failures.push(format!(
                "{case}: event variant slower than its reference by more than {:.0}%: {ratio:.2}x",
                tolerance * 100.0
            ));
        }
    }

    if bless {
        std::fs::create_dir_all(baseline_path.parent().expect("baseline dir"))
            .expect("create baseline dir");
        std::fs::write(&baseline_path, rows_json(&rows, quick).render_pretty())
            .unwrap_or_else(|e| panic!("writing {}: {e}", baseline_path.display()));
        println!("blessed baseline: {}", baseline_path.display());
    } else {
        match std::fs::read_to_string(&baseline_path) {
            Err(e) => failures.push(format!(
                "no baseline at {} ({e}); run `throughput-gate --bless`",
                baseline_path.display()
            )),
            Ok(text) => {
                let doc = Json::parse(&text).expect("baseline JSON parses");
                let baseline = rows_from_json(&doc).unwrap_or_else(|| {
                    panic!(
                        "{} is not a cdf-throughput/1 document",
                        baseline_path.display()
                    )
                });
                for (name, base_cps) in &baseline {
                    let Some(row) = rows.iter().find(|r| &r.name == name) else {
                        failures.push(format!("{name}: in baseline but not measured"));
                        continue;
                    };
                    let cps = row.cycles_per_sec();
                    if cps < base_cps * (1.0 - tolerance) {
                        failures.push(format!(
                            "{name}: {cps:.0} cycles/s is {:.1}% below baseline {base_cps:.0}",
                            (1.0 - cps / base_cps) * 100.0
                        ));
                    }
                }
            }
        }
    }

    if !failures.is_empty() {
        eprintln!("\nthroughput gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        exit(1);
    }
    println!(
        "\nthroughput gate passed (tolerance {:.0}%)",
        tolerance * 100.0
    );
}
