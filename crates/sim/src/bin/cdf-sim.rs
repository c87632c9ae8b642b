//! `cdf-sim` — command-line front end for the simulator.
//!
//! Every subcommand form, its positionals and its flags are declared once
//! in [`FORMS`]; run `cdf-sim` with no arguments for the generated usage.
//! Exit codes: 0 success, 1 run or I/O error, 2 usage error (and campaign
//! spec/journal/state errors), 3 failed cells, 4 fuzz divergence or
//! compare regression, 5 equivalence mismatch.

use cdf_core::TelemetryConfig;
use cdf_sim::cli::{self, Args, Form};
use cdf_sim::{
    accounting_table, profile_json, profile_table, profile_trace_json, run_explain, run_sweep,
    run_workload, simulate, table1_text, telemetry_json, trace_events_json, EvalConfig, Mechanism,
    RunOutput, Sweep, SweepConfig,
};
use cdf_workloads::registry;
use std::path::PathBuf;
use std::process::exit;

/// Counting allocator so host profiles ([`cdf_sim::prof`]) attribute
/// allocation counts and bytes to pipeline stages. Zero overhead beyond two
/// relaxed atomic increments per allocation; behaves identically to the
/// system allocator it wraps.
#[global_allocator]
static ALLOC: cdf_core::CountingAlloc = cdf_core::CountingAlloc;

/// The flags, each declared once, and the groups several forms share.
#[rustfmt::skip]
mod flags {
    use cdf_sim::cli::{Flag, Kind::*};
    use cdf_sim::{check_sizing, SizingKnob};

    pub const ROB: Flag = Flag::value("--rob", Int, "N", "scale the window to N ROB entries").checked(|v| check_sizing(SizingKnob::Rob, v));
    pub const WARMUP: Flag = Flag::value("--warmup", Int, "N", "warmup instructions");
    pub const MEASURE: Flag = Flag::value("--measure", Int, "N", "measured instructions").checked(|v| check_sizing(SizingKnob::Measure, v));
    pub const SCALE: Flag = Flag::value("--scale", Float, "F", "workload footprint scale").checked(|v| check_sizing(SizingKnob::Scale, v));
    pub const SEED: Flag = Flag::value("--seed", Int, "N", "workload seed");
    pub const MAX_CYCLES: Flag = Flag::value("--max-cycles", Int, "N", "per-run watchdog cycle budget (default: off)");
    pub const FAST: Flag = Flag::switch("--fast", "quick sizing preset");
    pub const MECH: Flag = Flag::value("--mech", Mech, "M", "mechanism: base|classify|cdf|pre|cdf-nobr|cdf-static|cdf-nomask (default cdf)");
    pub const WORKLOADS: Flag = Flag::value("--workloads", List, "a,b,c", "comma-separated workloads (default: full registry)");
    pub const MECHS: Flag = Flag::value("--mechs", Mechs, "a,b,c", "comma-separated mechanisms (default: all; fuzz base,cdf,pre; mix cdf)");
    pub const THREADS: Flag = Flag::value("--threads", Int, "N", "worker threads (default: all hardware threads)");
    pub const OUT: Flag = Flag::value("--out", Text, "PATH", "write the JSON document (fuzz: the failure corpus directory) to PATH");
    pub const TRACE_OUT: Flag = Flag::value("--trace-out", Text, "FILE", "write Chrome/Perfetto trace-event JSON to FILE");
    pub const RECORD: Flag = Flag::switch("--record", "also append cdf-result/1 records to the results store");
    pub const STORE: Flag = Flag::value("--store", Text, "FILE", "results store path (default .cdf-results/results.jsonl)");
    pub const CHAINS: Flag = Flag::value("--chains", Int, "N", "chain records embedded per cell (default 32)");
    pub const INTERVAL: Flag = Flag::value("--interval", Int, "N", "cycles per interval sample (default 1024)").checked(|v| check_sizing(SizingKnob::Interval, v));
    pub const TELEMETRY: Flag = Flag::value("--telemetry", Int, "N", "collect telemetry with an N-cycle interval, embedded in the JSON").checked(|v| check_sizing(SizingKnob::Interval, v));
    pub const EXPLAIN: Flag = Flag::switch("--explain", "collect criticality-provenance diagnostics, embedded per cell in the JSON");
    pub const PROFILE: Flag = Flag::switch("--profile", "attach the host self-profiler (record: also append a host-throughput row per cell)");
    pub const FILTER: Flag = Flag::value("--filter", Text, "SUBSTR", "only cells whose workload/mechanism label contains SUBSTR");
    pub const TOLERANCE: Flag = Flag::value("--tolerance", Float, "F", "relative tolerance for wall-clock metrics (default 0.25)").checked(|v| if v >= 0.0 { Ok(()) } else { Err("must not be negative".into()) });
    pub const SEEDS: Flag = Flag::value("--seeds", Int, "N", "fuzz programs to run");
    pub const START: Flag = Flag::value("--start", Int, "N", "first seed");
    pub const BUDGET: Flag = Flag::value("--budget", Int, "M", "cap on total dynamic uops across seeds (default: off)");
    pub const MINIMIZE: Flag = Flag::switch("--minimize", "delta-debug each failure to a minimal reproducer");
    pub const SHRINK_BUDGET: Flag = Flag::value("--shrink-budget", Int, "N", "shrinker predicate evaluations per failure (default 300)");
    pub const REPORT: Flag = Flag::value("--report", Text, "FILE", "write the JSON report to FILE");
    pub const MEM: Flag = Flag::switch("--mem", "compare the memory-model pair (event-driven vs lazy reference)");
    pub const BOUNDARY: Flag = Flag::switch("--boundary", "compare a private hierarchy with core 0 of a one-core shared memory system");
    pub const SPEC: Flag = Flag::value("--spec", Text, "FILE", "TOML/JSON experiment spec");
    pub const DIR: Flag = Flag::value("--dir", Text, "DIR", "campaign directory (run: default .cdf-campaigns/<name>)");
    pub const SHARDS: Flag = Flag::value("--shards", Int, "N", "worker processes (default 1)").checked(|v| if v >= 1.0 { Ok(()) } else { Err("must be at least 1".into()) });
    pub const NO_RECORD: Flag = Flag::switch("--no-record", "skip the results store");
    pub const SHARD: Flag = Flag::value("--shard", Int, "I", "shard index to run");
    pub const BATCH: Flag = Flag::value("--batch", Int, "N", "cells per checkpoint append (default auto)");
    pub const ABORT_AFTER: Flag = Flag::value("--abort-after", Int, "N", "stop the shard after N new cells (crash injection)");

    pub const SIZING: &[&Flag] = &[&ROB, &WARMUP, &MEASURE, &SCALE, &SEED, &MAX_CYCLES, &FAST];
    pub const GRID: &[&Flag] = &[&WORKLOADS, &MECHS, &THREADS];
    pub const OUTPUTS: &[&Flag] = &[&OUT, &TRACE_OUT];
    pub const STORE_GROUP: &[&Flag] = &[&RECORD, &STORE];
}
use flags::*;

/// Every subcommand form: command words, positionals, help line, flags.
#[rustfmt::skip]
const FORMS: &[Form] = &[
    Form::new("list", &[], "print the workload registry", &[], run_list),
    Form::new("table1", &[], "print the simulated core configuration (Table 1)", &[SIZING], run_table1),
    Form::new("run", &["<workload>"], "simulate one workload and print its measurement", &[SIZING, &[&MECH]], run_run),
    Form::new("report", &["<workload>"], "simulate one workload and print its cycle accounting", &[SIZING, &[&MECH]], run_report),
    Form::new("explain", &[], "criticality-provenance diagnostics over a grid (cdf-explain/1)",
              &[SIZING, GRID, &[&CHAINS], OUTPUTS, STORE_GROUP], run_explain_command),
    Form::new("telemetry", &["<workload>"], "simulate one workload with telemetry attached (cdf-telemetry/1)",
              &[SIZING, &[&MECH, &INTERVAL], OUTPUTS], run_telemetry),
    Form::new("profile", &["<workload>"], "simulate one workload with the host self-profiler attached (cdf-profile/1)",
              &[SIZING, &[&MECH], OUTPUTS], run_profile),
    Form::new("compare", &["<workload>"], "base vs CDF vs PRE table for one workload", &[SIZING], run_compare_workload),
    Form::new("compare", &["<refA>", "<refB>"],
              "classify every cell of two recorded runs (cdf-compare/1); a ref is latest, latest~N, a run id, or a commit prefix",
              &[&[&STORE, &TOLERANCE, &OUT]], run_compare_store),
    Form::new("record", &[], "run a grid and append one cdf-result/1 record per cell to the store",
              &[SIZING, GRID, &[&FILTER, &STORE, &TELEMETRY, &EXPLAIN, &PROFILE]], run_record),
    Form::new("sweep", &[], "run a (workload x mechanism) grid in parallel (cdf-sweep/1)",
              &[SIZING, GRID, &[&TELEMETRY, &EXPLAIN, &PROFILE, &OUT], STORE_GROUP], run_sweep_command),
    Form::new("fuzz", &[], "lockstep differential fuzzing against the functional oracle (cdf-fuzz/1); defaults --seeds 100 --start 0",
              &[&[&SEEDS, &START, &BUDGET, &MECHS, &MINIMIZE, &SHRINK_BUDGET, &THREADS, &OUT, &REPORT]], run_fuzz),
    Form { exclusive: &[(&MEM, &BOUNDARY)], ..Form::new("equiv", &[],
              "each fuzz seed under an optimised variant and its reference (cdf-equiv/1); defaults --seeds 500 --start 1, the scheduler pair",
              &[&[&SEEDS, &START, &MECHS, &THREADS, &MEM, &BOUNDARY, &REPORT]], run_equiv) },
    Form { required: &[&WORKLOADS], ..Form::new("mix", &[],
              "one workload per core (2+) on a shared memory system (cdf-mix/1); --mechs gives one mechanism per core or one for all",
              &[SIZING, &[&WORKLOADS, &MECHS, &TELEMETRY, &PROFILE, &OUT], STORE_GROUP], run_mix) },
    Form { required: &[&SPEC], ..Form::new("campaign run", &[],
              "initialise a campaign directory from a spec and run it to completion; --threads is the total, split across shards",
              &[&[&SPEC, &DIR, &SHARDS, &THREADS, &STORE, &NO_RECORD]], campaign_run) },
    Form { required: &[&DIR], ..Form::new("campaign resume", &[], "restart a killed campaign exactly where it stopped",
              &[&[&DIR, &THREADS, &STORE, &NO_RECORD]], campaign_resume) },
    Form { required: &[&DIR], ..Form::new("campaign status", &[], "streaming aggregate of the journals, usable mid-run",
              &[&[&DIR]], campaign_status) },
    Form { required: &[&DIR, &SHARD], ..Form::new("campaign shard", &[], "run one shard in this process (what `campaign run` spawns)",
              &[&[&DIR, &SHARD, &THREADS, &BATCH, &ABORT_AFTER]], campaign_shard) },
];

fn main() {
    cli::main("cdf-sim", FORMS);
}

/// A refusal found after parsing (a value that only fails in context).
fn refuse(command: &str, message: &str) -> ! {
    cli::exit_usage("cdf-sim", FORMS, Some(command), message)
}

// ---------------------------------------------------------------------------
// Shared readers.
// ---------------------------------------------------------------------------

/// The evaluation sizing: `--fast` picks the preset, the other sizing
/// flags, `--telemetry`/`--interval` and `--explain` override it.
fn eval_config(a: &Args) -> EvalConfig {
    let mut cfg = if a.has(&FAST) {
        EvalConfig::quick()
    } else {
        EvalConfig::default()
    };
    if let Some(rob) = a.int(&ROB) {
        cfg.core = cfg.core.clone().with_scaled_window(rob as usize);
    }
    if let Some(v) = a.int(&WARMUP) {
        cfg.warmup_instructions = v;
    }
    if let Some(v) = a.int(&MEASURE) {
        cfg.measure_instructions = v;
    }
    if let Some(v) = a.float(&SCALE) {
        cfg.gen.scale = v;
    }
    if let Some(v) = a.int(&SEED) {
        cfg.gen.seed = v;
    }
    if let Some(v) = a.int(&MAX_CYCLES) {
        cfg.max_cycles = Some(v);
    }
    if let Some(interval) = a.int(&TELEMETRY).or(a.int(&INTERVAL)) {
        cfg.telemetry = Some(TelemetryConfig {
            interval,
            ..TelemetryConfig::default()
        });
    }
    cfg.diagnostics = a.has(&EXPLAIN);
    cfg
}

/// The grid selection (`--workloads/--mechs/--threads`, `--profile`) over
/// the full registry grid at the given sizing.
fn sweep_config(a: &Args) -> SweepConfig {
    let mut cfg = SweepConfig::full_grid(eval_config(a));
    if let Some(w) = a.list(&WORKLOADS) {
        cfg.workloads = w.to_vec();
    }
    if let Some(m) = a.mechs(&MECHS) {
        cfg.mechanisms = m.to_vec();
    }
    cfg.threads = a.int(&THREADS).unwrap_or(0) as usize;
    cfg.profile = a.has(&PROFILE);
    cfg
}

fn mech(a: &Args) -> Mechanism {
    a.mech(&MECH).unwrap_or(Mechanism::Cdf)
}

/// The `--store` flag, defaulting to the standard store location.
fn store_path(a: &Args) -> PathBuf {
    PathBuf::from(a.text(&STORE).unwrap_or(cdf_sim::DEFAULT_STORE_PATH))
}

fn write_file(path: &str, contents: String, what: &str) {
    or_exit(
        std::fs::write(path, contents),
        1,
        &format!("writing {path}"),
    );
    eprintln!("wrote {what} to {path}");
}

/// Unwraps `r`, or prints the error (after `context`, unless empty) and
/// exits with `code`.
fn or_exit<T, E: std::fmt::Display>(r: Result<T, E>, code: i32, context: &str) -> T {
    r.unwrap_or_else(|e| {
        match context {
            "" => eprintln!("{e}"),
            c => eprintln!("{c}: {e}"),
        }
        exit(code)
    })
}

/// `--record`: tees a finished sweep into the store.
fn record(a: &Args, sweep: &Sweep) {
    let store = store_path(a);
    let context = format!("recording to {}", store.display());
    let run_id = or_exit(cdf_sim::record_sweep(&store, sweep), 1, &context);
    eprintln!(
        "recorded {} cell(s) to {} as run {run_id}",
        sweep.cells.len(),
        store.display()
    );
}

// ---------------------------------------------------------------------------
// Single-workload subcommands.
// ---------------------------------------------------------------------------

fn run_list(_: &Args) {
    for name in registry::NAMES {
        let w = registry::by_name(name, &cdf_workloads::GenConfig::test()).expect("known");
        println!(
            "{name:14} stands in for {:28} — {}",
            w.stands_in_for, w.description
        );
    }
}

fn run_table1(a: &Args) {
    print!("{}", table1_text(&eval_config(a).core));
}

fn run_run(a: &Args) {
    let m = or_exit(
        cdf_sim::try_simulate(&a.positionals()[0], mech(a), &eval_config(a)),
        1,
        "",
    );
    print_measurement(&m);
}

/// Runs one workload with the given extras attached, exiting on failure.
fn run_one(a: &Args, cfg: &EvalConfig, profile: bool) -> RunOutput {
    let w = or_exit(registry::lookup(&a.positionals()[0], &cfg.gen), 1, "");
    let m = mech(a);
    or_exit(run_workload(&w, m.mode(), m.label(), cfg, profile), 1, "")
}

/// One run with telemetry attached: prints the measurement and the
/// whole-run cycle accounting.
fn run_with_accounting(a: &Args) -> cdf_core::Telemetry {
    let mut cfg = eval_config(a);
    cfg.telemetry.get_or_insert_with(TelemetryConfig::default);
    let out = run_one(a, &cfg, false);
    let tel = out.telemetry.expect("telemetry was enabled in the config");
    print_measurement(&out.measurement);
    println!("\ncycle accounting (whole run, warmup + measurement):");
    print!("{}", accounting_table(&tel.accounting));
    tel
}

fn run_report(a: &Args) {
    run_with_accounting(a);
}

fn run_telemetry(a: &Args) {
    let tel = run_with_accounting(a);
    println!(
        "\nintervals     : {} retained (+{} evicted into totals), {} cycles/sample",
        tel.intervals.len(),
        tel.intervals.evicted_count(),
        tel.config().interval
    );
    let occ: Vec<String> = tel
        .occupancy
        .named()
        .iter()
        .map(|(n, h)| format!("{n} {:.1}", h.mean()))
        .collect();
    println!("mean occupancy: {}", occ.join(", "));
    println!(
        "events        : {} collected, {} dropped",
        tel.events().len(),
        tel.events_dropped()
    );
    if let Some(path) = a.text(&OUT) {
        write_file(path, telemetry_json(&tel).render_pretty(), "telemetry JSON");
    }
    if let Some(path) = a.text(&TRACE_OUT) {
        write_file(path, trace_events_json(&tel).render(), "trace events");
    }
}

/// `cdf-sim profile <workload>` — run one cell with the host self-profiler
/// attached and report where the simulator's own wall-clock time went.
fn run_profile(a: &Args) {
    let out = run_one(a, &eval_config(a), true);
    let p = out.profile.expect("profiling was requested");
    print_measurement(&out.measurement);
    println!();
    print!("{}", profile_table(&p));
    if let Some(path) = a.text(&OUT) {
        let doc = profile_json(&p, &a.positionals()[0], mech(a).label());
        write_file(path, doc.render_pretty(), "profile JSON");
    }
    if let Some(path) = a.text(&TRACE_OUT) {
        write_file(path, profile_trace_json(&p).render(), "trace events");
    }
}

/// Legacy form: base/cdf/pre mechanism table for one workload.
fn run_compare_workload(a: &Args) {
    let name = &a.positionals()[0];
    let cfg = eval_config(a);
    let base = or_exit(
        cdf_sim::try_simulate(name, Mechanism::Baseline, &cfg),
        1,
        "",
    );
    let cdf = simulate(name, Mechanism::Cdf, &cfg);
    let pre = simulate(name, Mechanism::Pre, &cfg);
    println!(
        "{:10} {:>8} {:>8} {:>8} {:>12} {:>12}",
        "mech", "IPC", "speedup", "MLP", "DRAM lines", "energy (uJ)"
    );
    for m in [&base, &cdf, &pre] {
        println!(
            "{:10} {:>8.3} {:>7.1}% {:>8.2} {:>12} {:>12.1}",
            m.mechanism,
            m.ipc,
            (m.ipc / base.ipc - 1.0) * 100.0,
            m.mlp,
            m.dram_lines,
            m.energy_nj / 1000.0
        );
    }
}

// ---------------------------------------------------------------------------
// Grid subcommands and the results store.
// ---------------------------------------------------------------------------

fn run_explain_command(a: &Args) {
    let chain_limit = a
        .int(&CHAINS)
        .map_or(cdf_sim::explain::DEFAULT_CHAIN_LIMIT, |n| n as usize);
    let report = run_explain(&sweep_config(a), chain_limit);
    print!("{}", report.render_summary());
    if let Some(path) = a.text(&OUT) {
        write_file(path, report.to_json().render_pretty(), "cdf-explain/1 JSON");
    }
    if let Some(path) = a.text(&TRACE_OUT) {
        write_file(path, report.chain_trace_events().render(), "chain spans");
    }
    if a.has(&RECORD) {
        record(a, &report.sweep);
    }
    if report.sweep.counts().1 > 0 {
        exit(3);
    }
}

fn run_sweep_command(a: &Args) {
    let sweep = run_sweep(&sweep_config(a));
    print!("{}", sweep.render_summary());
    if let Some(path) = a.text(&OUT) {
        write_file(path, sweep.to_json().render_pretty(), "cdf-sweep/1 JSON");
    }
    if a.has(&RECORD) {
        record(a, &sweep);
    }
    // Failed cells are recorded, not fatal — but reflect them in the exit
    // status so scripts notice.
    if sweep.counts().1 > 0 {
        exit(3);
    }
}

fn run_record(a: &Args) {
    let store = store_path(a);
    let run = cdf_sim::run_record(&sweep_config(a), a.text(&FILTER), &store);
    let run = or_exit(run, 1, &format!("recording to {}", store.display()));
    if run.records.is_empty() {
        refuse("record", "`--filter` matched no cells");
    }
    println!(
        "recorded {} cell(s) to {} as run {} ({} failed)",
        run.records.len(),
        store.display(),
        run.run_id,
        run.failed
    );
    if run.failed > 0 {
        exit(3);
    }
}

/// Store form: join two recorded runs and classify every cell.
fn run_compare_store(a: &Args) {
    let (ref_a, ref_b) = (&a.positionals()[0], &a.positionals()[1]);
    let store = cdf_sim::ResultStore::open(store_path(a));
    let path = store.path().display();
    let records = or_exit(store.load(), 1, &format!("loading {path}"));
    let resolve = |wanted: &str| {
        let context = format!("resolving {wanted:?} in {path}");
        or_exit(cdf_sim::resolve_ref(&records, wanted), 1, &context)
    };
    let run_a = resolve(ref_a);
    let run_b = resolve(ref_b);
    let mut cfg = cdf_sim::CompareConfig::default();
    if let Some(t) = a.float(&TOLERANCE) {
        cfg.wall_tolerance = t;
    }
    let report = cdf_sim::compare_runs(
        (ref_a, &cdf_sim::records_for_run(&records, &run_a)),
        (ref_b, &cdf_sim::records_for_run(&records, &run_b)),
        &cfg,
    );
    print!("{}", report.render_summary());
    if let Some(path) = a.text(&OUT) {
        write_file(path, report.to_json().render_pretty(), "cdf-compare/1 JSON");
    }
    // Exit 4 on regression, matching the fuzzer's divergence exit.
    if report.has_regressions() {
        exit(4);
    }
}

fn run_mix(a: &Args) {
    let eval = eval_config(a);
    let workloads = a.list(&WORKLOADS).expect("required flag").to_vec();
    if workloads.len() < 2 {
        refuse(
            "mix",
            &format!("a mix needs at least two cores (got {})", workloads.len()),
        );
    }
    let mechs = a.mechs(&MECHS).map_or(vec![Mechanism::Cdf], <[_]>::to_vec);
    if mechs.len() != 1 && mechs.len() != workloads.len() {
        refuse(
            "mix",
            &format!(
                "--mechs needs one mechanism (for every core) or one per core \
                 ({} cores, {} mechanisms)",
                workloads.len(),
                mechs.len()
            ),
        );
    }
    let mut cfg = cdf_sim::MixConfig::new(workloads, mechs);
    if let Some(budget) = eval.max_cycles {
        cfg.cycle_budget = budget;
    }
    cfg.eval = eval;
    cfg.profile = a.has(&PROFILE);
    let report = or_exit(cdf_sim::run_mix(&cfg), 1, "");

    println!(
        "{} cores, {} cycles, {} MSHR steals, channel utilization [{}]",
        report.cores.len(),
        report.shared.cycles,
        report.shared.total_steals,
        report
            .channel_utilization
            .iter()
            .map(|u| format!("{u:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for c in &report.cores {
        println!(
            "  c{} {:12} {:12} ipc {:.4}  dram {:6}  llc-share {:.3}  rejections {:5}  steals -{}/+{}",
            c.core,
            c.workload,
            c.mechanism.label(),
            c.measurement.ipc,
            c.measurement.dram_lines,
            c.llc_occupancy_share,
            c.share.llc_rejections,
            c.share.mshr_steals_suffered,
            c.share.mshr_steals_caused,
        );
    }
    if let Some(p) = &report.profile {
        println!();
        print!("{}", profile_table(p));
    }

    if let Some(path) = a.text(&OUT) {
        let mut body = cdf_sim::mix_json(&report).render();
        body.push('\n');
        write_file(path, body, "cdf-mix/1 JSON");
    }
    if a.has(&RECORD) {
        let store = cdf_sim::ResultStore::open(store_path(a));
        let recorded = store.reserve_run_id(&report.provenance).and_then(|run_id| {
            let records = cdf_sim::records_from_mix(&run_id, &report.provenance, &report);
            store.append(&records).map(|()| (run_id, records.len()))
        });
        let context = format!("recording to {}", store.path().display());
        let (run_id, n) = or_exit(recorded, 1, &context);
        eprintln!(
            "recorded {n} core(s) to {} as run {run_id}",
            store.path().display()
        );
    }
}

// ---------------------------------------------------------------------------
// Checking subcommands.
// ---------------------------------------------------------------------------

fn run_fuzz(a: &Args) {
    let mut cfg = cdf_sim::FuzzConfig::default();
    if let Some(v) = a.int(&SEEDS) {
        cfg.seeds = v;
    }
    if let Some(v) = a.int(&START) {
        cfg.start_seed = v;
    }
    cfg.budget_uops = a.int(&BUDGET);
    if let Some(v) = a.int(&SHRINK_BUDGET) {
        cfg.shrink_budget = u32::try_from(v).unwrap_or(u32::MAX);
    }
    if let Some(v) = a.int(&THREADS) {
        cfg.threads = v as usize;
    }
    if let Some(m) = a.mechs(&MECHS) {
        cfg.mechanisms = m.to_vec();
    }
    cfg.minimize = a.has(&MINIMIZE);
    let report = cdf_sim::run_fuzz(&cfg);
    print!("{}", report.render_summary());
    if let Some(path) = a.text(&REPORT) {
        write_file(path, report.to_json().render_pretty(), "cdf-fuzz/1 JSON");
    }
    if let Some(dir) = a.text(&OUT) {
        if report.clean() {
            eprintln!("no failures; nothing written to {dir}");
        } else {
            let written = report.write_corpus(std::path::Path::new(dir));
            let paths = or_exit(written, 1, &format!("writing corpus to {dir}"));
            for p in paths {
                eprintln!("wrote {}", p.display());
            }
        }
    }
    if !report.clean() {
        exit(4);
    }
}

fn run_equiv(a: &Args) {
    let mut cfg = cdf_sim::EquivConfig::default();
    if a.has(&MEM) {
        cfg.axis = cdf_sim::EquivAxis::MemModel;
    }
    if a.has(&BOUNDARY) {
        cfg.axis = cdf_sim::EquivAxis::Boundary;
    }
    if let Some(v) = a.int(&SEEDS) {
        cfg.seeds = v;
    }
    if let Some(v) = a.int(&START) {
        cfg.start_seed = v;
    }
    if let Some(v) = a.int(&THREADS) {
        cfg.threads = v as usize;
    }
    if let Some(m) = a.mechs(&MECHS) {
        cfg.mechanisms = m.to_vec();
    }
    let report = cdf_sim::run_equivalence(&cfg);
    println!("{}", report.render_summary());
    if let Some(path) = a.text(&REPORT) {
        write_file(path, report.to_json().render_pretty(), "cdf-equiv/1 JSON");
    }
    if !report.clean() {
        exit(5);
    }
}

// ---------------------------------------------------------------------------
// campaign subcommands. Exit codes: 2 spec/journal/state errors, 3 failed
// cells, 4 divergence.
// ---------------------------------------------------------------------------

fn campaign_load(a: &Args) -> cdf_sim::Campaign {
    let dir = a.text(&DIR).expect("required flag");
    or_exit(cdf_sim::load_campaign(std::path::Path::new(dir)), 2, "")
}

fn threads(a: &Args) -> usize {
    a.int(&THREADS).unwrap_or(0) as usize
}

fn campaign_run(a: &Args) {
    let spec_path = a.text(&SPEC).expect("required flag");
    let text = or_exit(
        std::fs::read_to_string(spec_path),
        2,
        &format!("reading {spec_path}"),
    );
    let spec = or_exit(cdf_sim::CampaignSpec::parse(&text), 2, spec_path);
    let dir = a
        .text(&DIR)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".cdf-campaigns").join(&spec.name));
    let shards = a.int(&SHARDS).unwrap_or(1);
    let c = or_exit(
        cdf_sim::init_campaign(&dir, spec, shards, cdf_core::Provenance::capture()),
        2,
        "",
    );
    eprintln!(
        "campaign {}: {} cells across {} shard(s) in {}",
        c.spec.name,
        c.spec.cell_count(),
        c.shards,
        c.dir.display()
    );
    campaign_execute(&c, a);
}

fn campaign_resume(a: &Args) {
    campaign_execute(&campaign_load(a), a);
}

/// Runs every shard to completion (in-process for one shard, one spawned
/// `campaign shard` process each otherwise), then finalizes: report,
/// store append, exit status.
fn campaign_execute(c: &cdf_sim::Campaign, a: &Args) {
    let threads = threads(a);
    if c.shards == 1 {
        let opts = cdf_sim::ShardOptions {
            threads,
            ..Default::default()
        };
        or_exit(cdf_sim::run_shard(c, 0, &opts), 2, "");
    } else {
        let exe = or_exit(std::env::current_exe(), 2, "resolving own executable");
        let codes = or_exit(cdf_sim::campaign::spawn_shards(c, &exe, threads), 2, "");
        for (shard, code) in codes {
            if code != Some(0) {
                eprintln!(
                    "shard {shard} exited with {} — resume with `cdf-sim campaign resume --dir {}`",
                    code.map_or("signal".to_string(), |c| c.to_string()),
                    c.dir.display()
                );
            }
        }
    }
    let store = (!a.has(&NO_RECORD)).then(|| store_path(a));
    let (status, recorded) = or_exit(cdf_sim::finalize_campaign(c, store.as_deref()), 2, "");
    print!("{}", status.render_text());
    if let (Some(run_id), Some(store)) = (&recorded, &store) {
        eprintln!(
            "recorded {} cell(s) to {} as run {run_id}",
            status.done,
            store.display()
        );
    }
    eprintln!("report: {}", c.report_path().display());
    if status.failed > 0 {
        exit(3);
    }
    if status.divergent > 0 {
        exit(4);
    }
}

fn campaign_status(a: &Args) {
    let status = or_exit(cdf_sim::campaign_status(&campaign_load(a)), 2, "");
    print!("{}", status.render_text());
}

fn campaign_shard(a: &Args) {
    let c = campaign_load(a);
    let shard = a.int(&SHARD).expect("required flag");
    let opts = cdf_sim::ShardOptions {
        threads: threads(a),
        batch: a.int(&BATCH).unwrap_or(0) as usize,
        abort_after: a.int(&ABORT_AFTER).map(|n| n as usize),
    };
    let run = or_exit(cdf_sim::run_shard(&c, shard, &opts), 2, "");
    eprintln!(
        "shard {shard}: {} cell(s) completed, {} remaining",
        run.completed, run.remaining
    );
}

fn print_measurement(m: &cdf_sim::Measurement) {
    println!("workload      : {}", m.workload);
    println!("mechanism     : {}", m.mechanism);
    println!("instructions  : {}", m.instructions);
    println!("cycles        : {}", m.cycles);
    println!("IPC           : {:.4}", m.ipc);
    println!("MLP           : {:.2}", m.mlp);
    println!("branch MPKI   : {:.2}", m.branch_mpki);
    println!("LLC MPKI      : {:.2}", m.llc_mpki);
    println!("DRAM lines    : {}", m.dram_lines);
    println!("energy (uJ)   : {:.2}", m.energy_nj / 1000.0);
    println!("stall cycles  : {}", m.full_window_stall_cycles);
    if m.critical_uops > 0 {
        println!("critical uops : {}", m.critical_uops);
        println!("CDF cycles    : {}", m.cdf_mode_cycles);
        println!("dep violations: {}", m.dependence_violations);
    }
    if m.runahead_uops > 0 {
        println!("runahead uops : {}", m.runahead_uops);
    }
}
