//! Implementation-equivalence harness: proves a hot-path rewrite
//! produces **bit-identical** results to the reference implementation it
//! replaced. Three axes are covered ([`EquivAxis`]): the wakeup/select
//! scheduler ([`SchedulerKind`]), the memory-hierarchy bookkeeping
//! ([`MemModelKind`]), and the core↔memory boundary: a private hierarchy
//! vs core 0 of a one-core [`MultiCore`].
//!
//! The core keeps both scheduler and memory-model implementations compiled
//! and runtime-selectable, and the harness builds either memory topology;
//! this module drives each pair against each other two ways:
//!
//! 1. **Fuzz-seed lockstep** ([`run_equivalence`]): every seed builds one
//!    random program, which runs to completion under *both* variants of
//!    the chosen axis for each requested mechanism — each run with the
//!    PR-3 [`OracleLockstep`] observer attached, so every retired uop is
//!    also checked against the functional executor. The two runs must
//!    agree on the FNV retirement digest, the per-uop comparison count,
//!    and the complete final [`CoreStats`] struct, field for field.
//! 2. **Workload windows** ([`workload_equivalence`]): full warmup+measure
//!    windows over the registry kernels, compared [`Measurement`] for
//!    [`Measurement`] (which folds in DRAM traffic and energy, so a
//!    variant that perturbed the memory-system event order would show up
//!    here even if the retirement stream matched). A shared core has no
//!    private hierarchy to build a `Measurement` from, so the boundary
//!    axis instead runs the same bounded window on both sides and compares
//!    the [`CoreStats`], the energy report and the memory traffic.
//!
//! Reports serialize as `cdf-equiv/1` JSON for the `cdf-sim equiv`
//! subcommand and the CI equivalence job.
//!
//! [`OracleLockstep`]: cdf_core::OracleLockstep
//! [`Measurement`]: crate::Measurement

use crate::fuzz::{run_lockstep_full, LockstepOutcome};
use crate::json::{field, Json};
use crate::run::{try_simulate, EvalConfig, Mechanism};
use crate::sweep::parallel_map;
use cdf_core::{Core, CoreConfig, CoreStats, DramStats, MemModelKind, MultiCore, SchedulerKind};
use cdf_energy::EnergyReport;
use cdf_mem::MemStats;
use cdf_workloads::fuzz::FuzzSpec;
use cdf_workloads::{registry, Workload};

/// Schema tag of the equivalence report document.
pub use crate::schema::EQUIV as EQUIV_SCHEMA;

/// Which pair of runtime-selectable implementations a campaign compares.
/// Each axis flips exactly one implementation while pinning the other to
/// its default, so a disagreement is attributable to a single swap.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EquivAxis {
    /// Event-driven wakeup/select vs the reference per-cycle RS scan
    /// ([`SchedulerKind`]).
    #[default]
    Scheduler,
    /// Event-driven memory-hierarchy bookkeeping vs the lazy rescanning
    /// reference ([`MemModelKind`]).
    MemModel,
    /// A private memory hierarchy vs core 0 of a one-core
    /// [`MultiCore`] over the shared memory system.
    Boundary,
}

/// One side of an equivalence pair: the implementation choices a run is
/// made with. The default is the production single-core configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EquivVariant {
    /// Wakeup/select implementation.
    pub scheduler: SchedulerKind,
    /// Outstanding-miss bookkeeping implementation.
    pub mem_model: MemModelKind,
    /// Run as core 0 of a one-core [`MultiCore`] instead of on a private
    /// hierarchy.
    pub shared: bool,
}

impl EquivAxis {
    /// Stable machine-readable tag (used in reports and filenames).
    pub fn as_str(self) -> &'static str {
        match self {
            EquivAxis::Scheduler => "scheduler",
            EquivAxis::MemModel => "mem-model",
            EquivAxis::Boundary => "boundary",
        }
    }

    /// The two variants compared: the default/new one first, the reference
    /// second.
    pub fn pair(self) -> [EquivVariant; 2] {
        let d = EquivVariant::default();
        match self {
            EquivAxis::Scheduler => [
                d,
                EquivVariant {
                    scheduler: SchedulerKind::ReferenceScan,
                    ..d
                },
            ],
            EquivAxis::MemModel => [
                d,
                EquivVariant {
                    mem_model: MemModelKind::ReferenceLazy,
                    ..d
                },
            ],
            EquivAxis::Boundary => [d, EquivVariant { shared: true, ..d }],
        }
    }
}

/// Configuration of a fuzz-seed equivalence campaign.
#[derive(Clone, Debug)]
pub struct EquivConfig {
    /// Number of fuzz seeds to run.
    pub seeds: u64,
    /// First seed (campaigns shard by seed range).
    pub start_seed: u64,
    /// Mechanisms to run each seed under.
    pub mechanisms: Vec<Mechanism>,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Which implementation pair to compare.
    pub axis: EquivAxis,
}

impl Default for EquivConfig {
    fn default() -> EquivConfig {
        EquivConfig {
            seeds: 500,
            start_seed: 1,
            mechanisms: Mechanism::ALL.to_vec(),
            threads: 0,
            axis: EquivAxis::Scheduler,
        }
    }
}

/// One disagreement between the two schedulers.
#[derive(Clone, Debug)]
pub struct EquivMismatch {
    /// Fuzz seed (or the workload generator seed for window runs).
    pub seed: u64,
    /// Mechanism label.
    pub mechanism: String,
    /// What differed, rendered for humans.
    pub detail: String,
}

/// Result of an equivalence campaign.
#[derive(Clone, Debug)]
pub struct EquivReport {
    /// The implementation pair compared.
    pub axis: EquivAxis,
    /// Seeds run.
    pub seeds: u64,
    /// First seed.
    pub start_seed: u64,
    /// Mechanism labels covered.
    pub mechanisms: Vec<String>,
    /// (seed × mechanism) pairs run under both variants.
    pub cases: u64,
    /// Retired uops oracle-checked across all event-driven runs.
    pub checked_uops: u64,
    /// Every disagreement found.
    pub mismatches: Vec<EquivMismatch>,
}

impl EquivReport {
    /// Whether the campaign found zero disagreements.
    pub fn clean(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Serializes the report as a `cdf-equiv/1` document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            field("schema", EQUIV_SCHEMA),
            field(
                "provenance",
                crate::provenance::provenance_json(&cdf_core::Provenance::capture()),
            ),
            field("axis", self.axis.as_str()),
            field("seeds", self.seeds),
            field("start_seed", self.start_seed),
            field(
                "mechanisms",
                Json::Arr(
                    self.mechanisms
                        .iter()
                        .map(|m| Json::from(m.as_str()))
                        .collect(),
                ),
            ),
            field("cases", self.cases),
            field("checked_uops", self.checked_uops),
            field(
                "mismatches",
                Json::Arr(
                    self.mismatches
                        .iter()
                        .map(|m| {
                            Json::Obj(vec![
                                field("seed", m.seed),
                                field("mechanism", m.mechanism.as_str()),
                                field("detail", m.detail.as_str()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// One-paragraph human summary.
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "{} equivalence: {} seeds x {} mechanisms = {} dual-run cases, \
             {} retired uops oracle-checked, {} mismatches",
            self.axis.as_str(),
            self.seeds,
            self.mechanisms.len(),
            self.cases,
            self.checked_uops,
            self.mismatches.len()
        );
        for m in self.mismatches.iter().take(10) {
            out.push_str(&format!(
                "\n  seed {} [{}]: {}",
                m.seed, m.mechanism, m.detail
            ));
        }
        out
    }
}

/// Renders the first differing [`CoreStats`] field between two runs, or
/// `None` when they are identical.
pub fn stats_divergence(a: &CoreStats, b: &CoreStats) -> Option<String> {
    divergence("stats field", a, b)
}

/// Renders the first line where the pretty `Debug` renderings of `a` and `b`
/// differ, or `None` when they are equal. Working off `Debug` keeps it
/// complete as fields are added.
fn divergence<T: PartialEq + std::fmt::Debug>(what: &str, a: &T, b: &T) -> Option<String> {
    if a == b {
        return None;
    }
    let fa = format!("{a:#?}");
    let fb = format!("{b:#?}");
    for (la, lb) in fa.lines().zip(fb.lines()) {
        if la != lb {
            return Some(format!(
                "{what} diverged: default `{}` vs reference `{}`",
                la.trim().trim_end_matches(','),
                lb.trim().trim_end_matches(',')
            ));
        }
    }
    Some(format!("{what} differs but Debug renderings agree"))
}

/// Runs one fuzz seed under every mechanism with both variants of `axis`
/// and returns the oracle-checked uop count plus any disagreements.
pub fn check_seed(
    seed: u64,
    mechanisms: &[Mechanism],
    axis: EquivAxis,
) -> (u64, Vec<EquivMismatch>) {
    let fp = FuzzSpec::from_seed(seed).build();
    let [ev_variant, sc_variant] = axis.pair();
    let mut checked_total = 0u64;
    let mut mismatches = Vec::new();
    for &mech in mechanisms {
        let (ev, ev_stats) = run_lockstep_full(&fp, mech, ev_variant);
        let (sc, sc_stats) = run_lockstep_full(&fp, mech, sc_variant);
        let mut fail = |detail: String| {
            mismatches.push(EquivMismatch {
                seed,
                mechanism: mech.label().to_string(),
                detail,
            });
        };
        match (&ev, &sc) {
            (
                LockstepOutcome::Ok {
                    digest: ed,
                    checked: ec,
                },
                LockstepOutcome::Ok {
                    digest: sd,
                    checked: sc_n,
                },
            ) => {
                checked_total += ec;
                if ed != sd {
                    fail(format!(
                        "retirement digest: event {ed:#018x} vs scan {sd:#018x}"
                    ));
                } else if ec != sc_n {
                    fail(format!("checked-uop count: event {ec} vs scan {sc_n}"));
                } else if let (Some(a), Some(b)) = (&ev_stats, &sc_stats) {
                    if let Some(d) = stats_divergence(a, b) {
                        fail(d);
                    }
                }
            }
            (LockstepOutcome::Fail { kind, detail }, _) => {
                fail(format!(
                    "event variant failed ({}): {detail}",
                    kind.as_str()
                ));
            }
            (_, LockstepOutcome::Fail { kind, detail }) => {
                fail(format!(
                    "reference variant failed ({}): {detail}",
                    kind.as_str()
                ));
            }
        }
    }
    (checked_total, mismatches)
}

/// Runs a fuzz-seed equivalence campaign in parallel.
pub fn run_equivalence(cfg: &EquivConfig) -> EquivReport {
    let seeds: Vec<u64> = (cfg.start_seed..cfg.start_seed + cfg.seeds).collect();
    let per_seed = parallel_map(&seeds, cfg.threads, |&seed| {
        check_seed(seed, &cfg.mechanisms, cfg.axis)
    });
    let mut checked_uops = 0u64;
    let mut mismatches = Vec::new();
    for (checked, mut mm) in per_seed {
        checked_uops += checked;
        mismatches.append(&mut mm);
    }
    mismatches.sort_by(|a, b| (a.seed, &a.mechanism).cmp(&(b.seed, &b.mechanism)));
    EquivReport {
        axis: cfg.axis,
        seeds: cfg.seeds,
        start_seed: cfg.start_seed,
        mechanisms: cfg
            .mechanisms
            .iter()
            .map(|m| m.label().to_string())
            .collect(),
        cases: cfg.seeds * cfg.mechanisms.len() as u64,
        checked_uops,
        mismatches,
    }
}

/// Runs full warmup+measure windows over `workloads × mechanisms` under both
/// schedulers and compares the complete
/// [`Measurement`](crate::Measurement)s. Returns every disagreement (empty =
/// bit-identical end to end, including DRAM traffic and energy).
pub fn workload_equivalence(
    workloads: &[&str],
    mechanisms: &[Mechanism],
    cfg: &EvalConfig,
) -> Vec<EquivMismatch> {
    workload_equivalence_axis(workloads, mechanisms, cfg, EquivAxis::Scheduler)
}

/// [`workload_equivalence`] over an explicit [`EquivAxis`]: full windows
/// under both variants of the chosen implementation pair.
pub fn workload_equivalence_axis(
    workloads: &[&str],
    mechanisms: &[Mechanism],
    cfg: &EvalConfig,
    axis: EquivAxis,
) -> Vec<EquivMismatch> {
    let [ev, sc] = axis.pair();
    let jobs: Vec<(&str, Mechanism)> = workloads
        .iter()
        .flat_map(|&w| mechanisms.iter().map(move |&m| (w, m)))
        .collect();
    let results = parallel_map(&jobs, 0, |&(w, m)| {
        let detail = if axis == EquivAxis::Boundary {
            match registry::lookup(w, &cfg.gen) {
                Ok(workload) => divergence(
                    "bounded window",
                    &bounded_window(&workload, m, cfg, false),
                    &bounded_window(&workload, m, cfg, true),
                ),
                Err(e) => Some(e.to_string()),
            }
        } else {
            match (
                try_simulate(w, m, &with_variant(cfg, ev)),
                try_simulate(w, m, &with_variant(cfg, sc)),
            ) {
                (Ok(a), Ok(b)) => divergence("measurement", &a, &b),
                (Err(e), _) => Some(format!("event variant window failed: {e}")),
                (_, Err(e)) => Some(format!("reference variant window failed: {e}")),
            }
        };
        detail.map(|detail| EquivMismatch {
            seed: cfg.gen.seed,
            mechanism: format!("{w}/{}", m.label()),
            detail,
        })
    });
    results.into_iter().flatten().collect()
}

/// `cfg` with the core template switched to `variant`'s implementations.
fn with_variant(cfg: &EvalConfig, variant: EquivVariant) -> EvalConfig {
    let mut out = cfg.clone();
    out.core.scheduler = variant.scheduler;
    out.core.mem_model = variant.mem_model;
    out
}

/// What the boundary axis compares for one workload window.
#[derive(PartialEq, Debug)]
struct BoundedWindow {
    stats: CoreStats,
    energy: EnergyReport,
    mem: MemStats,
    dram: DramStats,
}

/// Runs `w` for the warmup plus measurement instruction count (within the
/// watchdog budget) on a private core or, when `shared`, on core 0 of a
/// one-core [`MultiCore`].
fn bounded_window(w: &Workload, m: Mechanism, cfg: &EvalConfig, shared: bool) -> BoundedWindow {
    let core_cfg = CoreConfig {
        mode: m.mode(),
        ..cfg.core.clone()
    };
    let target = cfg.warmup_instructions + cfg.measure_instructions;
    let budget = cfg.max_cycles.unwrap_or(u64::MAX);
    if shared {
        let mut mc = MultiCore::new(vec![(&w.program, w.memory.clone(), core_cfg)]);
        let stats = mc.run(target, budget).swap_remove(0).stats;
        let sys = mc.shared().borrow();
        BoundedWindow {
            stats,
            energy: mc.cores()[0].energy_report(),
            mem: *sys.core_stats(0),
            dram: *sys.dram_stats(),
        }
    } else {
        let mut core = Core::new(&w.program, w.memory.clone(), core_cfg);
        BoundedWindow {
            stats: core.run_bounded(target, budget),
            energy: core.energy_report(),
            mem: *core.hierarchy().stats(),
            dram: *core.hierarchy().dram_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_divergence_reports_field() {
        let a = CoreStats::default();
        assert!(stats_divergence(&a, &CoreStats::default()).is_none());
        let b = CoreStats {
            cycles: 7,
            ..CoreStats::default()
        };
        let d = stats_divergence(&a, &b).expect("differs");
        assert!(d.contains("cycles"), "diff names the field: {d}");
    }

    #[test]
    fn one_seed_both_schedulers_agree() {
        let (checked, mm) = check_seed(
            42,
            &[Mechanism::Baseline, Mechanism::Cdf],
            EquivAxis::Scheduler,
        );
        assert!(checked > 0, "oracle compared retired uops");
        assert!(mm.is_empty(), "schedulers agree on seed 42: {mm:?}");
    }

    #[test]
    fn one_seed_both_mem_models_agree() {
        let (checked, mm) = check_seed(
            42,
            &[Mechanism::Baseline, Mechanism::Cdf],
            EquivAxis::MemModel,
        );
        assert!(checked > 0, "oracle compared retired uops");
        assert!(mm.is_empty(), "mem models agree on seed 42: {mm:?}");
    }

    #[test]
    fn report_json_shape() {
        let report = run_equivalence(&EquivConfig {
            seeds: 2,
            start_seed: 7,
            mechanisms: vec![Mechanism::Baseline],
            threads: 1,
            ..EquivConfig::default()
        });
        assert!(report.clean(), "{}", report.render_summary());
        assert_eq!(report.cases, 2);
        let j = report.to_json();
        assert_eq!(j.get("schema").and_then(Json::as_str), Some(EQUIV_SCHEMA));
        assert_eq!(j.get("axis").and_then(Json::as_str), Some("scheduler"));
        assert!(j.get("checked_uops").and_then(Json::as_u64).unwrap() > 0);
    }
}
