//! # simbench — host-performance benchmark of the CDF simulator
//!
//! One run simulates one workload's cells and reports either the
//! end-to-end metrics (untraced) or the per-layer metrics (traced). Every
//! run first runs an untimed check pass with the functional oracle in
//! lockstep with retirement; every later pass must reproduce the check
//! pass's statistics exactly. Untraced timings are rescaled to a reference
//! host speed (see [`speed`]). See README.md.

pub mod expected;
pub mod host;
pub mod replay;
pub mod runner;
pub mod spec;
pub mod speed;
pub mod stats;
pub mod trace;

use cdf_sim::json::{field, Json};
use cdf_sim::report::geomean;
use cdf_sim::Mechanism;
use cdf_workloads::registry;
use runner::{
    nanos, run_pass, setup_once, CellRun, Norm, Probe, SetUp, StepTrace, BUSY, FLUSH, STALL,
};
use spec::{Spec, DEFAULT_SEED};
use stats::{fnv1a, median, percentile, ratio};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Span;

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_uops_per_s.base", "uops/s"),
    ("sim_uops_per_s.cdf", "uops/s"),
    ("peak_rss_mb", "MB"),
    ("cdf_speedup", "ratio"),
    ("pass_frac", "fraction"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("workloads.build_ms", "ms"),
    ("core.new_ms", "ms"),
    ("sim.makespan_s", "s"),
    ("sim.thread_util", "fraction"),
    ("sim.cell_s.p50", "s"),
    ("sim.cell_s.p90", "s"),
    ("core.step_ns.p50", "ns"),
    ("core.step_ns.p999", "ns"),
    ("core.ns_per_cycle.flush", "ns"),
    ("core.ns_per_cycle.stall", "ns"),
    ("core.ns_per_cycle.busy", "ns"),
    ("core.cycles.flush", "count"),
    ("core.cycles.stall", "count"),
    ("core.cycles.busy", "count"),
    ("core.cdf_mode_host_frac", "fraction"),
    ("bpred.ns_per_branch", "ns"),
    ("bpred.mispredict_frac", "fraction"),
    ("mem.ns_per_access", "ns"),
    ("mem.l1d_miss_frac", "fraction"),
    ("mem.llc_miss_frac", "fraction"),
    ("mem.reject_frac", "fraction"),
    ("mem.dram_lines", "count"),
    ("mem_shared.ns_per_access", "ns"),
    ("mem_shared.steal_frac", "fraction"),
    ("isa.ns_per_uop", "ns"),
    ("trace.overhead_frac", "fraction"),
    ("layers.explained_frac", "fraction"),
];

/// Timed passes per untraced run, at least; more while `--seconds` allows.
pub const MIN_PASSES: usize = 2;

/// Set-ups of a traced run, before its check pass; `workloads.build_ms`
/// and `core.new_ms` are medians over them.
pub const SETUP_REPS: usize = 15;

/// Extra set-ups before each timed pass of an untraced run, on top of the
/// one each cell does in the pass.
pub const SETUPS_PER_PASS: usize = 2;

/// Co-runner of the shared-memory replay (the mix workload's bandwidth hog).
const CORUNNER: &str = "stream_hog";

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Metric name → value, in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Cells attempted.
    pub attempted: usize,
    /// `(cell key, first failure)` of every failed cell.
    pub failures: Vec<(String, String)>,
    /// FNV-1a (hex) over every cell's simulated statistics, in cell order.
    pub sim_digest: String,
    /// `(cell key, digest, ipc)` of every cell of the check pass.
    pub cells: Vec<(String, String, f64)>,
    /// Spans of the traced pass (empty when untraced).
    pub spans: Vec<Span>,
    /// Wall seconds of every pass after the check pass, in run order.
    pub pass_walls_s: Vec<f64>,
}

impl Outcome {
    /// Whether every cell passed every check.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }
}

/// First failure of each cell.
struct Failures(Vec<Option<String>>);

impl Failures {
    fn fail(&mut self, i: usize, why: String) {
        self.0[i].get_or_insert(why);
    }

    /// Fails cell `i` unless `got` reproduces the check pass's `reference`.
    fn agree(
        &mut self,
        i: usize,
        what: &str,
        reference: Option<&CellRun>,
        got: Result<&str, &str>,
    ) {
        match (reference, got) {
            (_, Err(e)) => self.fail(i, format!("{what}: {e}")),
            (Some(r), Ok(c)) if r.canon != c => {
                self.fail(i, format!("{what}: statistics differ from the check pass"))
            }
            _ => {}
        }
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Median over the set-up repetitions of `f` summed over the cells, in ns.
fn setup_median(setups: &[Vec<SetUp>], f: fn(&SetUp) -> u64) -> f64 {
    let totals: Vec<f64> = setups
        .iter()
        .map(|rep| rep.iter().map(f).sum::<u64>() as f64)
        .collect();
    median(&totals)
}

/// Runs one benchmark run of `spec`. Untraced: the check pass, then timed
/// passes for about `seconds`, at least [`MIN_PASSES`], each after
/// [`SETUPS_PER_PASS`] extra set-ups. Traced: [`SETUP_REPS`] set-ups, the
/// check pass, an untraced pass, a pass running each cell untraced and
/// traced back to back, and the layer replays.
pub fn run(spec: &Spec, seconds: f64, traced: bool) -> Outcome {
    let n = spec.cells.len();
    let mut fails = Failures(vec![None; n]);

    // Set-ups of a traced run, per repetition and cell. An untraced run
    // sets up between its timed passes instead.
    let mut setups: Vec<Vec<SetUp>> = Vec::new();
    for _ in 0..if traced { SETUP_REPS } else { 0 } {
        match setup_once(spec) {
            Ok(s) => setups.push(s),
            Err(e) => (0..n).for_each(|i| fails.fail(i, format!("setup: {e}"))),
        }
    }

    // The untimed check pass: the oracle checks every retired uop. It also
    // warms the host before timing.
    let check = run_pass(spec, Probe::Oracle);
    let reference: Vec<Option<CellRun>> = check
        .cells
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.map_err(|e| fails.fail(i, format!("check: {e}"))).ok())
        .collect();
    let digests: Vec<String> = reference
        .iter()
        .map(|r| {
            r.as_ref().map_or("failed".to_string(), |r| {
                format!("{:016x}", fnv1a(&r.canon))
            })
        })
        .collect();
    if spec.eval.gen.seed == DEFAULT_SEED {
        let pinned = expected::parse(expected::text(spec.name));
        for (i, cell) in spec.cells.iter().enumerate() {
            match pinned.get(cell.key().as_str()) {
                None => fails.fail(i, "no pinned statistics at the default seed".into()),
                Some(&d) if reference[i].is_some() && d != digests[i] => {
                    fails.fail(i, "statistics differ from the pinned values".into())
                }
                _ => {}
            }
        }
    }

    let (metrics, spans, pass_walls_s) = if traced {
        traced_metrics(spec, &reference, &mut fails, &setups)
    } else {
        // Per pass, at the reference host's speed: (wall s, base rate,
        // cdf rate), and the pass's peak RSS in MB.
        let mut passes: Vec<(f64, f64, f64, f64)> = Vec::new();
        // Set-up totals at the reference speed: the extra set-ups and each
        // pass's own.
        let mut setup_totals: Vec<f64> = Vec::new();
        let mut walls = Vec::new();
        let t0 = Instant::now();
        loop {
            // Each pass's peak RSS covers its set-ups and cells only, not
            // the oracle-instrumented check pass or earlier passes.
            host::reset_peak_rss();
            for _ in 0..SETUPS_PER_PASS {
                match setup_once(spec) {
                    Ok(s) => setup_totals.push(s.iter().map(|c| c.norm_ns).sum()),
                    Err(e) => (0..n).for_each(|i| fails.fail(i, format!("setup: {e}"))),
                }
            }
            let p = run_pass(spec, Probe::Timed);
            let norms: Vec<Option<Norm>> = p
                .cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let got = c.as_ref().map(|r| r.canon.as_str()).map_err(String::as_str);
                    fails.agree(i, "timed", reference[i].as_ref(), got);
                    c.as_ref().ok().and_then(|r| r.norm)
                })
                .collect();
            setup_totals.push(norms.iter().flatten().map(|n| n.setup_ns).sum());
            let rate = |cdf: bool| {
                let (mut uops, mut ns) = (0u64, 0.0);
                for (i, cell) in spec.cells.iter().enumerate() {
                    if let (true, Some(r), Some(t)) =
                        (cell.uses_cdf() == cdf, &reference[i], norms[i])
                    {
                        uops += r.uops;
                        ns += t.step_ns;
                    }
                }
                ratio(uops as f64, ns / 1e9)
            };
            let wall: f64 = norms.iter().flatten().map(|n| n.setup_ns + n.step_ns).sum();
            let rss = host::peak_rss_mb().unwrap_or(0.0);
            passes.push((wall / 1e9, rate(false), rate(true), rss));
            walls.push(secs(p.wall_ns));
            let elapsed = t0.elapsed().as_secs_f64();
            if passes.len() >= MIN_PASSES && elapsed + secs(p.wall_ns) > seconds {
                break;
            }
        }
        let col =
            |f: fn(&(f64, f64, f64, f64)) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        let metrics = vec![
            col(|p| p.0),
            median(&setup_totals) / 1e9,
            col(|p| p.1),
            col(|p| p.2),
            col(|p| p.3),
            cdf_speedup(spec, &reference),
            0.0, // pass_frac, filled in below
        ];
        (metrics, Vec::new(), walls)
    };

    let failures: Vec<(String, String)> = spec
        .cells
        .iter()
        .zip(fails.0)
        .filter_map(|(c, f)| f.map(|f| (c.key(), f)))
        .collect();
    let names = if traced {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut metrics: Vec<(&'static str, f64, &'static str)> = names
        .iter()
        .zip(metrics)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    if !traced {
        metrics[6].1 = 1.0 - failures.len() as f64 / n as f64;
    }
    let cells = spec
        .cells
        .iter()
        .zip(&reference)
        .zip(digests.iter())
        .map(|((c, r), d)| (c.key(), d.clone(), r.as_ref().map_or(0.0, |r| r.ipc)))
        .collect();
    Outcome {
        metrics,
        attempted: n,
        failures,
        sim_digest: format!("{:016x}", fnv1a(&digests.join(","))),
        cells,
        spans,
        pass_walls_s,
    }
}

/// Geomean over the workload's kernels of IPC(CDF) / IPC(base).
fn cdf_speedup(spec: &Spec, reference: &[Option<CellRun>]) -> f64 {
    let mut ipc: BTreeMap<(&str, bool), f64> = BTreeMap::new();
    for (cell, r) in spec.cells.iter().zip(reference) {
        if let Some(r) = r {
            match cell.mech() {
                Mechanism::Baseline => ipc.insert((cell.kernel(), false), r.ipc),
                Mechanism::Cdf => ipc.insert((cell.kernel(), true), r.ipc),
                _ => None,
            };
        }
    }
    let ratios: Vec<f64> = ipc
        .iter()
        .filter(|((_, cdf), _)| *cdf)
        .filter_map(|(&(k, _), &c)| ipc.get(&(k, false)).map(|&b| c / b))
        .collect();
    geomean(&ratios)
}

fn traced_metrics(
    spec: &Spec,
    reference: &[Option<CellRun>],
    fails: &mut Failures,
    setups: &[Vec<SetUp>],
) -> (Vec<f64>, Vec<Span>, Vec<f64>) {
    // The sim.* figures come from a plain untraced pass.
    let untraced = run_pass(spec, Probe::None);
    // Then each cell runs untraced and traced back to back, in alternating
    // order, so drifting host speed hits both sides of the overhead alike.
    let t_pass = Instant::now();
    let pairs: Vec<_> = spec
        .cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let run = |probe| runner::run_cell(cell, &spec.eval, probe);
            if i % 2 == 0 {
                let u = run(Probe::None);
                (u, run(Probe::Trace))
            } else {
                let t = run(Probe::Trace);
                (run(Probe::None), t)
            }
        })
        .collect();
    let t_pass_end = Instant::now();
    let mut step = StepTrace::default();
    let mut spans = vec![trace::span("pass", spec.name, t_pass, t_pass_end, None)];
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let mut cell_s = Vec::new();
    let mut counts = Vec::new();
    let canon =
        |c: &Result<CellRun, String>| c.as_ref().map(|r| r.canon.clone()).map_err(Clone::clone);
    for (i, (plain, (u, t))) in untraced.cells.iter().zip(&pairs).enumerate() {
        for (what, c) in [("untraced", plain), ("paired", u), ("traced", t)] {
            let got = canon(c);
            fails.agree(
                i,
                what,
                reference[i].as_ref(),
                got.as_deref().map_err(String::as_str),
            );
        }
        if let Ok(p) = plain {
            cell_s.push(secs(p.wall_ns));
        }
        if let (Ok(u), Ok(t)) = (u, t) {
            untraced_ns += u.step_ns;
            traced_ns += t.step_ns;
            counts.extend(t.counts.iter().cloned());
            if let Some(tr) = &t.trace {
                step.merge(tr);
            }
            trace::adopt(&mut spans, 0, t.spans.clone());
        }
    }
    let makespan = secs(untraced.wall_ns);
    let total_step_ns: u64 = step.ns.iter().sum();
    let per_cycle = |c: usize| ratio(step.ns[c] as f64, step.cycles[c] as f64);
    let layers = replay_layers(spec);
    let explained: f64 = counts
        .iter()
        .map(|c| {
            let mem_ns = if c.shared {
                layers.shared_ns
            } else {
                layers.mem_ns.get(c.kernel).copied().unwrap_or(0.0)
            };
            c.branches as f64 * layers.bpred_ns.get(c.kernel).copied().unwrap_or(0.0)
                + c.mem_accesses as f64 * mem_ns
        })
        .sum();
    let mut metrics = vec![
        setup_median(setups, |s| s.build_ns) / 1e6,
        setup_median(setups, |s| s.new_ns) / 1e6,
        makespan,
        ratio(cell_s.iter().sum(), makespan),
        percentile(&cell_s, 0.5),
        percentile(&cell_s, 0.9),
        step.hist.quantile(0.5) as f64,
        step.hist.quantile(0.999) as f64,
        per_cycle(FLUSH),
        per_cycle(STALL),
        per_cycle(BUSY),
        step.cycles[FLUSH] as f64,
        step.cycles[STALL] as f64,
        step.cycles[BUSY] as f64,
        ratio(step.cdf_ns as f64, total_step_ns as f64),
    ];
    metrics.extend(layers.metrics);
    metrics.push(ratio(
        traced_ns as f64 - untraced_ns as f64,
        untraced_ns as f64,
    ));
    metrics.push(ratio(explained, untraced_ns as f64));
    (
        metrics,
        spans,
        vec![makespan, secs(nanos(t_pass, t_pass_end))],
    )
}

/// `ks` without repeats, in first-seen order.
fn distinct(ks: impl IntoIterator<Item = &'static str>) -> Vec<&'static str> {
    let mut out = Vec::new();
    for k in ks {
        if !out.contains(&k) {
            out.push(k);
        }
    }
    out
}

/// Results of the isolated layer replays.
struct Layers {
    /// Host ns per branch, per kernel.
    bpred_ns: BTreeMap<&'static str, f64>,
    /// Host ns per accepted access in the private hierarchy, per kernel.
    mem_ns: BTreeMap<&'static str, f64>,
    /// Host ns per accepted access in the shared system.
    shared_ns: f64,
    /// `bpred.ns_per_branch` through `isa.ns_per_uop`, in [`PER_LAYER`] order.
    metrics: Vec<f64>,
}

/// Replays every kernel of `spec` through the predictor, the private
/// memory hierarchy and the functional executor, and every measured kernel
/// against the bandwidth hog through the shared memory system.
fn replay_layers(spec: &Spec) -> Layers {
    let core = &spec.eval.core;
    let window = spec.eval.warmup_instructions + spec.eval.measure_instructions;
    let kernels = distinct(spec.cells.iter().flat_map(|c| c.kernels()));
    let load =
        |k: &str| registry::lookup(k, &spec.eval.gen).expect("benchmark kernels are registered");
    let streams: BTreeMap<&str, replay::Streams> = kernels
        .iter()
        .chain(std::iter::once(&CORUNNER))
        .map(|&k| (k, replay::streams(&load(k), window, core.code_base)))
        .collect();

    let (mut bpred_ns, mut mem_ns) = (BTreeMap::new(), BTreeMap::new());
    let mut b = replay::BpredReplay::default();
    let mut m = replay::MemReplay::default();
    let (mut isa_ns, mut isa_uops) = (0u64, 0u64);
    for &k in &kernels {
        let br = replay::bpred(&streams[k], &core.tage);
        bpred_ns.insert(k, ratio(br.ns as f64, br.branches as f64));
        b.ns += br.ns;
        b.branches += br.branches;
        b.mispredicts += br.mispredicts;
        let mr = replay::mem(&streams[k], &core.mem);
        mem_ns.insert(k, ratio(mr.ns as f64, mr.accesses as f64));
        m.add(&mr);
        let (ns, uops) = replay::isa(&load(k), window);
        isa_ns += ns;
        isa_uops += uops;
    }
    let mut sh = replay::MemReplay::default();
    for k in distinct(spec.cells.iter().map(|c| c.kernel())) {
        sh.add(&replay::shared(&streams[k], &streams[CORUNNER], &core.mem));
    }
    let shared_ns = ratio(sh.ns as f64, sh.accesses as f64);
    Layers {
        bpred_ns,
        mem_ns,
        shared_ns,
        metrics: vec![
            ratio(b.ns as f64, b.branches as f64),
            ratio(b.mispredicts as f64, b.branches as f64),
            ratio(m.ns as f64, m.accesses as f64),
            ratio(m.l1d.1 as f64, (m.l1d.0 + m.l1d.1) as f64),
            ratio(m.llc.1 as f64, (m.llc.0 + m.llc.1) as f64),
            ratio(m.rejections as f64, m.attempts as f64),
            m.dram_lines as f64,
            shared_ns,
            ratio(sh.steals as f64, sh.attempts as f64),
            ratio(isa_ns as f64, isa_uops as f64),
        ],
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(o: &Outcome) -> Json {
    let metrics = o
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            field(
                name,
                Json::Obj(vec![field("value", value), field("unit", unit)]),
            )
        })
        .collect();
    Json::Obj(vec![
        field("correct", o.correct()),
        field("attempted", o.attempted),
        field("failed", o.failures.len()),
        field("metrics", Json::Obj(metrics)),
    ])
}

/// The metadata line printed before the result: host, sizing, digest and
/// per-cell outcomes.
pub fn meta_json(spec: &Spec, o: &Outcome, traced: bool) -> Json {
    let failed: BTreeMap<&str, &str> = o
        .failures
        .iter()
        .map(|(k, why)| (k.as_str(), why.as_str()))
        .collect();
    let cells = o
        .cells
        .iter()
        .map(|(key, digest, ipc)| {
            let mut f = vec![
                field("cell", key.as_str()),
                field("digest", digest.as_str()),
                field("ipc", *ipc),
            ];
            if let Some(why) = failed.get(key.as_str()) {
                f.push(field("failure", *why));
            }
            Json::Obj(f)
        })
        .collect();
    Json::Obj(vec![
        field("benchmark", "simbench"),
        field("workload", spec.name),
        field("traced", traced),
        field("host", host::metadata(spec)),
        field("sim_digest", o.sim_digest.as_str()),
        field("probe_median_ns", speed::probe_median_ns()),
        field("reference_probe_ns", speed::REFERENCE_PROBE_NS),
        field(
            "pass_walls_s",
            Json::Arr(o.pass_walls_s.iter().map(|&w| Json::from(w)).collect()),
        ),
        field("cells", Json::Arr(cells)),
    ])
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}
