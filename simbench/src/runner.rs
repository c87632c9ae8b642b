//! Running cells through the simulator's public API: set-up, the warm-up
//! and measure windows, the optional oracle check and per-step tracing.
//!
//! A solo cell follows `cdf_sim`'s own windowing step for step (warm-up
//! window, snapshot, measure window, snapshot) and builds the same
//! [`Measurement`], so its statistics equal `cdf_sim::run_cell`'s — the
//! self-tests assert it. A mix cell runs one whole-run window from cycle 0,
//! as `cdf_sim::run_mix` does.

use crate::spec::{Cell, Spec, MIX_CYCLE_BUDGET};
use crate::speed;
use crate::stats::Histogram;
use crate::trace::{span, Span};
use cdf_core::{Core, CoreConfig, CoreStats, LockstepLog, MultiCore, OracleLockstep};
use cdf_sim::{EvalConfig, Measurement, Mechanism};
use cdf_workloads::{registry, Workload};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

/// Cycles of one timed chunk of a [`Probe::Timed`] cell (sweeps of all
/// cores for a mix): each chunk is rescaled to the reference host's speed
/// on its own (see [`crate::speed`]).
pub const CHUNK_CYCLES: u64 = 10_000;

/// What is attached to a cell while it runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Probe {
    /// Nothing: the untraced side of a traced run.
    None,
    /// Chunks of stepping and the set-up timed and rescaled by the host
    /// speed probe: the configuration untraced runs time.
    Timed,
    /// An [`OracleLockstep`] retire observer on every core (untimed check).
    Oracle,
    /// Per-step timing into histograms, plus spans.
    Trace,
}

/// Cycle class of a step in which a misprediction or ordering violation
/// flushed the pipeline. Classes are disjoint and judged from `CoreStats`
/// deltas in this order: flush, then stall, then busy.
pub const FLUSH: usize = 0;
/// Cycle class of a step that retired nothing.
pub const STALL: usize = 1;
/// Cycle class of a step that retired uops.
pub const BUSY: usize = 2;

/// Per-step timing of a traced cell.
#[derive(Clone, Debug, Default)]
pub struct StepTrace {
    /// Host ns per `Core::step` call.
    pub hist: Histogram,
    /// Host ns per class, indexed by [`FLUSH`], [`STALL`], [`BUSY`].
    pub ns: [u64; 3],
    /// Cycles per class, indexed likewise.
    pub cycles: [u64; 3],
    /// Host ns of steps in which the core was in CDF mode.
    pub cdf_ns: u64,
}

impl StepTrace {
    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &StepTrace) {
        self.hist.merge(&other.hist);
        for i in 0..3 {
            self.ns[i] += other.ns[i];
            self.cycles[i] += other.cycles[i];
        }
        self.cdf_ns += other.cdf_ns;
    }

    fn step(&mut self, core: &mut Core<'_>) {
        let before = Counters::of(core.stats());
        let t = Instant::now();
        core.step();
        let ns = t.elapsed().as_nanos() as u64;
        let after = Counters::of(core.stats());
        let class = if after.flushes > before.flushes {
            FLUSH
        } else if after.retired == before.retired {
            STALL
        } else {
            BUSY
        };
        self.hist.record(ns);
        self.ns[class] += ns;
        self.cycles[class] += 1;
        if after.cdf_mode_cycles > before.cdf_mode_cycles {
            self.cdf_ns += ns;
        }
    }
}

#[derive(Clone, Copy)]
struct Counters {
    retired: u64,
    flushes: u64,
    cdf_mode_cycles: u64,
}

impl Counters {
    fn of(s: &CoreStats) -> Counters {
        Counters {
            retired: s.retired,
            flushes: s.mispredicts + s.memory_violations + s.dependence_violations,
            cdf_mode_cycles: s.cdf_mode_cycles,
        }
    }
}

/// In-context operation counts of one simulated core, for reconciling the
/// isolated layer replays with stepping time.
#[derive(Clone, Debug)]
pub struct CoreCounts {
    /// Kernel the core ran.
    pub kernel: &'static str,
    /// Conditional branches retired (`CoreStats::branches`).
    pub branches: u64,
    /// Accesses the memory system accepted (demand loads, stores and
    /// instruction-fetch lines from `MemStats`).
    pub mem_accesses: u64,
    /// Whether the core ran on the shared multi-core memory system.
    pub shared: bool,
}

/// One finished cell.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// Debug rendering of every simulated statistic of the cell: the
    /// [`Measurement`] of a solo cell, the per-core outcomes and shared
    /// report of a mix. Equal canons mean equal simulations.
    pub canon: String,
    /// IPC of the measured kernel (core 0 of a mix) over its window.
    pub ipc: f64,
    /// Uops retired, warm-up plus measured, over all cores.
    pub uops: u64,
    /// Host ns of stepping (both windows). For [`Probe::Timed`] it includes
    /// the speed probes; use [`norm`](Self::norm).
    pub step_ns: u64,
    /// Host ns of the whole cell.
    pub wall_ns: u64,
    /// The cell's times rescaled to the reference host, for [`Probe::Timed`].
    pub norm: Option<Norm>,
    /// Per-core operation counts.
    pub counts: Vec<CoreCounts>,
    /// Per-step timing, for [`Probe::Trace`].
    pub trace: Option<StepTrace>,
    /// `cell`, `setup`, `warmup` and `measure` spans, for [`Probe::Trace`];
    /// index 0 is the cell span.
    pub spans: Vec<Span>,
}

/// Times of one cell in ns of the reference host (see [`crate::speed`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Norm {
    /// `registry::lookup` and `Core::new`/`MultiCore::new`.
    pub setup_ns: f64,
    /// Stepping, both windows.
    pub step_ns: f64,
}

/// Runs one cell; panics, watchdog expiry and oracle divergence come back
/// as `Err` with a reason.
pub fn run_cell(cell: &Cell, eval: &EvalConfig, probe: Probe) -> Result<CellRun, String> {
    let run = || match *cell {
        Cell::Solo { kernel, mech } => run_solo(cell, kernel, mech, eval, probe),
        Cell::Mix { kernels, mech } => run_mix(cell, kernels, mech, eval, probe),
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(r) => r,
        Err(payload) => Err(format!("panicked: {}", panic_message(payload.as_ref()))),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn core_config(eval: &EvalConfig, mech: Mechanism) -> CoreConfig {
    CoreConfig {
        mode: mech.mode(),
        ..eval.core.clone()
    }
}

fn attach_oracle<'p>(core: &mut Core<'p>, w: &'p Workload) -> Rc<RefCell<LockstepLog>> {
    let oracle = OracleLockstep::new(&w.program, w.memory.clone());
    let log = oracle.log();
    core.attach_retire_observer(Box::new(oracle));
    log
}

fn check_oracle(log: &LockstepLog, retired: u64) -> Result<(), String> {
    if let Some(d) = &log.divergence {
        return Err(format!("oracle divergence: {d}"));
    }
    if log.checked != retired {
        return Err(format!(
            "oracle saw {} of {retired} retired uops",
            log.checked
        ));
    }
    Ok(())
}

fn live(core: &Core<'_>, target: u64, budget: u64) -> bool {
    !core.halted() && core.stats().retired < target && core.now() < budget
}

/// Steps `core` until it halts, retires `target` uops or reaches `budget`,
/// then closes the window. With a trace, every step is timed; with `norm`,
/// every [`CHUNK_CYCLES`] steps are timed and rescaled into it. The closing
/// `run_bounded` then steps no further, so the statistics are the same.
fn advance(
    core: &mut Core<'_>,
    target: u64,
    budget: u64,
    trace: Option<&mut StepTrace>,
    norm: Option<&mut Norm>,
) -> CoreStats {
    match (trace, norm) {
        (Some(tr), _) => {
            while live(core, target, budget) {
                tr.step(core);
            }
        }
        (None, Some(norm)) => {
            while live(core, target, budget) {
                let t = Instant::now();
                for _ in 0..CHUNK_CYCLES {
                    if !live(core, target, budget) {
                        break;
                    }
                    core.step();
                }
                norm.step_ns += speed::normalize(nanos(t, Instant::now()));
            }
        }
        (None, None) => {}
    }
    core.run_bounded(target, budget)
}

fn watchdog_fired(s: &CoreStats, target: u64, budget: u64) -> bool {
    !s.halted && s.retired < target && s.cycles >= budget
}

/// The counters `cdf_sim` snapshots at each window boundary.
struct Snapshot {
    stats: CoreStats,
    dram_total: u64,
    energy_nj: f64,
    cdf_energy_nj: f64,
}

impl Snapshot {
    fn take(core: &Core<'_>, stats: CoreStats) -> Snapshot {
        let e = core.energy_report();
        Snapshot {
            stats,
            dram_total: core.hierarchy().dram_stats().total(),
            energy_nj: e.total_nj(),
            cdf_energy_nj: e.cdf_structures_nj(),
        }
    }
}

/// The measure-window [`Measurement`], computed exactly as `cdf_sim` does.
fn measurement(workload: &str, label: &str, start: &Snapshot, end: &Snapshot) -> Measurement {
    let (s, e) = (&start.stats, &end.stats);
    let cycles = e.cycles - s.cycles;
    let instructions = e.retired - s.retired;
    let mlp_cycles = e.mlp_cycles - s.mlp_cycles;
    let mlp_sum = e.mlp_sum - s.mlp_sum;
    let rob_c = e.rob_mix.critical - s.rob_mix.critical;
    let rob_n = e.rob_mix.non_critical - s.rob_mix.non_critical;
    let per_kilo = |n: u64| {
        if instructions == 0 {
            0.0
        } else {
            n as f64 * 1000.0 / instructions as f64
        }
    };
    Measurement {
        workload: workload.to_string(),
        mechanism: label.to_string(),
        instructions,
        cycles,
        ipc: if cycles == 0 {
            0.0
        } else {
            instructions as f64 / cycles as f64
        },
        mlp: if mlp_cycles == 0 {
            0.0
        } else {
            mlp_sum as f64 / mlp_cycles as f64
        },
        dram_lines: end.dram_total - start.dram_total,
        energy_nj: end.energy_nj - start.energy_nj,
        cdf_energy_nj: end.cdf_energy_nj - start.cdf_energy_nj,
        branch_mpki: per_kilo(e.mispredicts - s.mispredicts),
        llc_mpki: per_kilo(e.llc_miss_loads - s.llc_miss_loads),
        rob_critical_fraction: if rob_c + rob_n == 0 {
            0.0
        } else {
            rob_c as f64 / (rob_c + rob_n) as f64
        },
        full_window_stall_cycles: e.full_window_stall_cycles - s.full_window_stall_cycles,
        cdf_mode_cycles: e.cdf_mode_cycles - s.cdf_mode_cycles,
        critical_uops: e.critical_uops_issued - s.critical_uops_issued,
        runahead_uops: e.runahead_uops - s.runahead_uops,
        dependence_violations: e.dependence_violations - s.dependence_violations,
    }
}

/// Nanoseconds from `a` to `b`.
pub fn nanos(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

fn run_solo(
    cell: &Cell,
    kernel: &'static str,
    mech: Mechanism,
    eval: &EvalConfig,
    probe: Probe,
) -> Result<CellRun, String> {
    let t0 = Instant::now();
    let w = registry::lookup(kernel, &eval.gen).map_err(|e| e.to_string())?;
    let mut core = Core::new(&w.program, w.memory.clone(), core_config(eval, mech));
    let t_ready = Instant::now();
    let log = (probe == Probe::Oracle).then(|| attach_oracle(&mut core, &w));
    let mut trace = (probe == Probe::Trace).then(StepTrace::default);
    let mut norm = (probe == Probe::Timed).then(|| Norm {
        setup_ns: speed::normalize(nanos(t0, t_ready)),
        ..Norm::default()
    });
    let budget = eval.max_cycles.unwrap_or(u64::MAX);

    let t_warm = Instant::now();
    let warm = advance(
        &mut core,
        eval.warmup_instructions,
        budget,
        trace.as_mut(),
        norm.as_mut(),
    );
    let t_warm_end = Instant::now();
    if watchdog_fired(&warm, eval.warmup_instructions, budget) {
        return Err(format!("watchdog: {budget} cycles ran out in warm-up"));
    }
    let start = Snapshot::take(&core, warm);

    let target = eval.warmup_instructions + eval.measure_instructions;
    let t_meas = Instant::now();
    let end_stats = advance(&mut core, target, budget, trace.as_mut(), norm.as_mut());
    let t_end = Instant::now();
    if watchdog_fired(&end_stats, target, budget) {
        return Err(format!(
            "watchdog: {budget} cycles ran out in the measure window"
        ));
    }
    let end = Snapshot::take(&core, end_stats);
    if let Some(log) = log {
        check_oracle(&log.borrow(), end.stats.retired)?;
    }
    let m = measurement(w.name, mech.label(), &start, &end);
    let mem = core.hierarchy().stats();
    let spans = if probe == Probe::Trace {
        let key = cell.key();
        vec![
            span("cell", &key, t0, t_end, None),
            span("setup", &key, t0, t_ready, Some(0)),
            span("warmup", &key, t_warm, t_warm_end, Some(0)),
            span("measure", &key, t_meas, t_end, Some(0)),
        ]
    } else {
        Vec::new()
    };
    Ok(CellRun {
        canon: format!("{m:?}"),
        ipc: m.ipc,
        uops: end.stats.retired,
        step_ns: nanos(t_warm, t_warm_end) + nanos(t_meas, t_end),
        wall_ns: nanos(t0, t_end),
        norm,
        counts: vec![CoreCounts {
            kernel,
            branches: end.stats.branches,
            mem_accesses: mem.demand_loads + mem.demand_stores + mem.inst_fetches,
            shared: false,
        }],
        trace,
        spans,
    })
}

fn run_mix(
    cell: &Cell,
    kernels: [&'static str; 2],
    mech: Mechanism,
    eval: &EvalConfig,
    probe: Probe,
) -> Result<CellRun, String> {
    let t0 = Instant::now();
    let ws = kernels
        .iter()
        .map(|k| registry::lookup(k, &eval.gen))
        .collect::<Result<Vec<Workload>, _>>()
        .map_err(|e| e.to_string())?;
    let mut mc = MultiCore::new(
        ws.iter()
            .map(|w| (&w.program, w.memory.clone(), core_config(eval, mech)))
            .collect(),
    );
    let t_ready = Instant::now();
    let logs: Vec<_> = if probe == Probe::Oracle {
        mc.cores_mut()
            .iter_mut()
            .zip(&ws)
            .map(|(core, w)| attach_oracle(core, w))
            .collect()
    } else {
        Vec::new()
    };
    let mut trace = (probe == Probe::Trace).then(StepTrace::default);
    let target = eval.warmup_instructions + eval.measure_instructions;

    // The same round-robin lockstep as `MultiCore::run`: traced, one timed
    // step at a time; timed, [`CHUNK_CYCLES`] sweeps at a time. The
    // closing `run` then steps no further.
    let mut norm = (probe == Probe::Timed).then(|| Norm {
        setup_ns: speed::normalize(nanos(t0, t_ready)),
        ..Norm::default()
    });
    let sweep = |mc: &mut MultiCore<'_>, mut tr: Option<&mut StepTrace>| {
        let mut any = false;
        for core in mc.cores_mut() {
            if live(core, target, MIX_CYCLE_BUDGET) {
                match tr.as_deref_mut() {
                    Some(tr) => tr.step(core),
                    None => core.step(),
                }
                any = true;
            }
        }
        any
    };
    match (trace.as_mut(), norm.as_mut()) {
        (Some(tr), _) => while sweep(&mut mc, Some(&mut *tr)) {},
        (None, Some(norm)) => {
            let mut any = true;
            while any {
                let t = Instant::now();
                for _ in 0..CHUNK_CYCLES {
                    any = sweep(&mut mc, None);
                    if !any {
                        break;
                    }
                }
                norm.step_ns += speed::normalize(nanos(t, Instant::now()));
            }
        }
        (None, None) => {}
    }
    let outcomes = mc.run(target, MIX_CYCLE_BUDGET);
    let t_end = Instant::now();
    for o in &outcomes {
        if !o.stats.halted && o.stats.retired < target {
            return Err(format!("watchdog: {MIX_CYCLE_BUDGET} cycles ran out"));
        }
    }
    for (log, o) in logs.iter().zip(&outcomes) {
        check_oracle(&log.borrow(), o.stats.retired)?;
    }
    let shared = mc.shared_report();
    let spans = if probe == Probe::Trace {
        let key = cell.key();
        vec![
            span("cell", &key, t0, t_end, None),
            span("setup", &key, t0, t_ready, Some(0)),
            span("measure", &key, t_ready, t_end, Some(0)),
        ]
    } else {
        Vec::new()
    };
    Ok(CellRun {
        canon: format!("{outcomes:?}|{shared:?}"),
        ipc: outcomes[0].stats.ipc(),
        uops: outcomes.iter().map(|o| o.stats.retired).sum(),
        step_ns: nanos(t_ready, t_end),
        wall_ns: nanos(t0, t_end),
        norm,
        counts: outcomes
            .iter()
            .zip(kernels)
            .map(|(o, kernel)| CoreCounts {
                kernel,
                branches: o.stats.branches,
                mem_accesses: o.mem.demand_loads + o.mem.demand_stores + o.mem.inst_fetches,
                shared: true,
            })
            .collect(),
        trace,
        spans,
    })
}

/// Times of one cell's set-up.
#[derive(Clone, Copy, Debug)]
pub struct SetUp {
    /// Host ns of `registry::lookup`.
    pub build_ns: u64,
    /// Host ns of `Core::new` / `MultiCore::new`.
    pub new_ns: u64,
    /// Both, in ns of the reference host (see [`crate::speed`]).
    pub norm_ns: f64,
}

/// Builds every cell's workloads and cores once and simulates nothing.
pub fn setup_once(spec: &Spec) -> Result<Vec<SetUp>, String> {
    spec.cells
        .iter()
        .map(|cell| {
            let t0 = Instant::now();
            let ws = cell
                .kernels()
                .iter()
                .map(|k| registry::lookup(k, &spec.eval.gen))
                .collect::<Result<Vec<Workload>, _>>()
                .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let cfg = core_config(&spec.eval, cell.mech());
            let t2 = match cell {
                Cell::Solo { .. } => {
                    let core = Core::new(&ws[0].program, ws[0].memory.clone(), cfg);
                    let t2 = Instant::now();
                    std::hint::black_box(&core);
                    t2
                }
                Cell::Mix { .. } => {
                    let mc = MultiCore::new(
                        ws.iter()
                            .map(|w| (&w.program, w.memory.clone(), cfg.clone()))
                            .collect(),
                    );
                    let t2 = Instant::now();
                    std::hint::black_box(&mc);
                    t2
                }
            };
            Ok(SetUp {
                build_ns: nanos(t0, t1),
                new_ns: nanos(t1, t2),
                norm_ns: speed::normalize(nanos(t0, t2)),
            })
        })
        .collect()
}

/// One pass over every cell of `spec`.
#[derive(Debug)]
pub struct Pass {
    /// Per-cell results, in cell order.
    pub cells: Vec<Result<CellRun, String>>,
    /// Host ns from the first cell's start to the last cell's end.
    pub wall_ns: u64,
}

/// Runs every cell of `spec` with `probe` attached, one after another on
/// the calling thread: a closed loop, the next cell starts when the last
/// one ends.
pub fn run_pass(spec: &Spec, probe: Probe) -> Pass {
    let t0 = Instant::now();
    let cells = spec
        .cells
        .iter()
        .map(|c| run_cell(c, &spec.eval, probe))
        .collect();
    Pass {
        cells,
        wall_ns: nanos(t0, Instant::now()),
    }
}
