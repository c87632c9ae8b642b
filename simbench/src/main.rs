//! `simbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--bless]`
//!
//! Prints a human summary, a metadata JSON line, and as its last line the
//! result JSON (`correct`, `attempted`, `failed`, `metrics`). Exit code 0
//! when the run completed (check `correct`), 2 on a usage error. A traced
//! run also writes its spans to `.simbench_out/trace-<workload>-<seed>.json`.
//! `--bless` rewrites the workload's pinned statistics from the check pass;
//! it requires the default seed.

use simbench::spec::{self, DEFAULT_SEED};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            a.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value `{value}` for {flag}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {})",
            spec::NAMES.join(", ")
        ));
    }
    if a.bless && a.seed != DEFAULT_SEED {
        return Err("--bless pins the default seed; drop --seed".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec::lookup(&args.workload, args.seed) else {
        eprintln!(
            "simbench: unknown workload `{}` (one of {})",
            args.workload,
            spec::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let outcome = simbench::run(&spec, args.seconds, args.trace);

    if args.bless {
        let path = simbench::expected::path(spec.name);
        let text = simbench::expected::render(spec.name, &outcome.cells);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("simbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!(
            "simbench: pinned {} cells in {}",
            outcome.cells.len(),
            path.display()
        );
    }
    if args.trace {
        let dir = std::path::Path::new(".simbench_out");
        let path = dir.join(format!("trace-{}-{}.json", spec.name, args.seed));
        let doc = simbench::trace::to_json(&outcome.spans).render();
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
            eprintln!("simbench: writing {}: {e}", path.display());
        }
    }

    println!(
        "simbench {} seed={} {} — {} cells, {} failed",
        spec.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failures.len()
    );
    for (key, why) in &outcome.failures {
        println!("  FAILED {key}: {why}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!(
        "{}",
        simbench::meta_json(&spec, &outcome, args.trace).render()
    );
    println!("{}", simbench::result_json(&outcome).render());
    ExitCode::SUCCESS
}
