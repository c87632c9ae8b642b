//! The `cdf-sim explain` report: criticality-provenance diagnostics over a
//! (workload × mechanism) grid, rendered as a versioned `cdf-explain/1` JSON
//! document, a human-readable table, and Perfetto async spans (one per
//! chain).
//!
//! Where the sweep answers *how fast*, explain answers *why*: for every cell
//! it runs the simulation with [`CdfDiagnostics`](cdf_core::CdfDiagnostics)
//! attached and reports the three metric families the prefetching literature
//! uses to justify a mechanism —
//!
//! * **coverage** — of the retired LLC-miss loads / mispredicted H2P
//!   branches, how many had a live CUC trace covering that very uop;
//! * **accuracy** — of the fetched critical uops, how many were consumed by
//!   the replayed program-order stream vs. poisoned, squashed, or wasted;
//! * **timeliness** — the log₂ lead-time histogram of critical LLC-miss
//!   initiations and the branch early-resolution distance histogram.
//!
//! Diagnostics are observation-only: the measurements embedded in the
//! report are bit-identical to a plain sweep of the same grid (enforced by
//! `crates/sim/tests/explain.rs`).

use crate::error::SimError;
use crate::json::{field, Json};
use crate::report::Table;
use crate::run::{run_workload, EvalConfig, Measurement, Mechanism, RunOutput};
use crate::sweep::{measurement_json, panic_message, parallel_map};
use cdf_core::{CdfDiagnostics, ChainRecord, Coverage, Histogram};
use cdf_workloads::registry;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The JSON schema tag stamped on every emitted explain document.
pub use crate::schema::EXPLAIN as EXPLAIN_SCHEMA;

/// Chain records embedded per cell (the busiest chains by fetched uops);
/// aggregate counters always cover every chain.
pub const DEFAULT_CHAIN_LIMIT: usize = 32;

/// The grid and sizing of one explain run.
#[derive(Clone, Debug)]
pub struct ExplainConfig {
    /// Workload names (rows of the grid).
    pub workloads: Vec<String>,
    /// Mechanisms (columns of the grid).
    pub mechanisms: Vec<Mechanism>,
    /// Shared evaluation sizing; `diagnostics` is forced on per cell.
    pub eval: EvalConfig,
    /// Worker threads; `0` means one per available hardware thread.
    pub threads: usize,
    /// Chain records embedded per cell in the JSON document.
    pub chain_limit: usize,
}

impl ExplainConfig {
    /// An explain run over the given workloads and mechanisms.
    pub fn new<I, S>(workloads: I, mechanisms: Vec<Mechanism>, eval: EvalConfig) -> ExplainConfig
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ExplainConfig {
            workloads: workloads.into_iter().map(Into::into).collect(),
            mechanisms,
            eval,
            threads: 0,
            chain_limit: DEFAULT_CHAIN_LIMIT,
        }
    }

    /// The full default grid: every registry workload × every mechanism.
    pub fn full_grid(eval: EvalConfig) -> ExplainConfig {
        ExplainConfig::new(
            registry::NAMES.iter().copied(),
            Mechanism::ALL.to_vec(),
            eval,
        )
    }
}

/// One grid point: the measurement plus the provenance diagnostics, or the
/// typed reason the cell failed.
#[derive(Clone, Debug)]
pub struct ExplainCell {
    /// Workload name.
    pub workload: String,
    /// Mechanism simulated.
    pub mechanism: Mechanism,
    /// Measurement + diagnostics, or the failure.
    pub result: Result<(Measurement, CdfDiagnostics), SimError>,
}

/// A completed explain run over the whole grid.
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// The configuration that produced this report.
    pub config: ExplainConfig,
    /// Results in deterministic grid order (workload-major).
    pub cells: Vec<ExplainCell>,
}

/// Runs the explain grid: every cell simulates with diagnostics attached,
/// in parallel, with per-cell fault isolation (a failing cell is recorded,
/// never fatal).
pub fn run_explain(config: &ExplainConfig) -> ExplainReport {
    let mut eval = config.eval.clone();
    eval.diagnostics = true;
    let jobs: Vec<(&str, Mechanism)> = config
        .workloads
        .iter()
        .flat_map(|w| config.mechanisms.iter().map(move |&m| (w.as_str(), m)))
        .collect();
    let cells = parallel_map(&jobs, config.threads, |&(w, m)| explain_cell(w, m, &eval));
    ExplainReport {
        config: config.clone(),
        cells,
    }
}

/// Runs one explain cell, capturing every failure mode as a [`SimError`].
pub fn explain_cell(workload: &str, mechanism: Mechanism, eval: &EvalConfig) -> ExplainCell {
    let mut eval = eval.clone();
    eval.diagnostics = true;
    let result = match registry::lookup(workload, &eval.gen) {
        Err(e) => Err(SimError::from(e)),
        Ok(w) => match catch_unwind(AssertUnwindSafe(|| {
            run_workload(&w, mechanism.mode(), mechanism.label(), &eval, false)
        })) {
            Ok(Ok(RunOutput {
                measurement,
                diagnostics: Some(d),
                ..
            })) => Ok((measurement, d)),
            Ok(Ok(_)) => unreachable!("diagnostics were enabled in the config"),
            Ok(Err(e)) => Err(e),
            Err(payload) => Err(SimError::Panicked(panic_message(payload))),
        },
    };
    ExplainCell {
        workload: workload.to_string(),
        mechanism,
        result,
    }
}

impl ExplainReport {
    /// The cell for one grid point, if it was in the grid.
    pub fn cell(&self, workload: &str, mechanism: Mechanism) -> Option<&ExplainCell> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.mechanism == mechanism)
    }

    /// The diagnostics for one grid point, if the cell ran and succeeded.
    pub fn diagnostics(&self, workload: &str, mechanism: Mechanism) -> Option<&CdfDiagnostics> {
        self.cell(workload, mechanism)
            .and_then(|c| c.result.as_ref().ok())
            .map(|(_, d)| d)
    }

    /// `(succeeded, failed)` cell counts.
    pub fn counts(&self) -> (usize, usize) {
        let failed = self.cells.iter().filter(|c| c.result.is_err()).count();
        (self.cells.len() - failed, failed)
    }

    /// The full report as a JSON document (schema [`EXPLAIN_SCHEMA`]).
    pub fn to_json(&self) -> Json {
        let gen = &self.config.eval.gen;
        Json::Obj(vec![
            field("schema", EXPLAIN_SCHEMA),
            field(
                "provenance",
                crate::provenance::provenance_json(&cdf_core::Provenance::capture()),
            ),
            field(
                "gen",
                Json::Obj(vec![
                    field("seed", gen.seed),
                    field("scale", gen.scale),
                    field("iters", gen.iters),
                ]),
            ),
            field(
                "eval",
                Json::Obj(vec![
                    field("warmup_instructions", self.config.eval.warmup_instructions),
                    field(
                        "measure_instructions",
                        self.config.eval.measure_instructions,
                    ),
                    field("max_cycles", self.config.eval.max_cycles),
                ]),
            ),
            field(
                "workloads",
                Json::Arr(
                    self.config
                        .workloads
                        .iter()
                        .map(|w| w.as_str().into())
                        .collect(),
                ),
            ),
            field(
                "mechanisms",
                Json::Arr(
                    self.config
                        .mechanisms
                        .iter()
                        .map(|m| m.label().into())
                        .collect(),
                ),
            ),
            field(
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| cell_json(c, self.config.chain_limit))
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes [`to_json`](Self::to_json) (pretty-printed) to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().render_pretty())
    }

    /// Chrome/Perfetto trace-event JSON with one async span per recorded
    /// chain (`ph:"b"`/`ph:"e"`, spanning install → last lifecycle event),
    /// grouped by grid cell. Load into Perfetto to see chain lifetimes laid
    /// out against each other.
    pub fn chain_trace_events(&self) -> Json {
        let mut events = Vec::new();
        for (tid, c) in self.cells.iter().enumerate() {
            let Ok((_, d)) = &c.result else { continue };
            let tid = tid as u64 + 1;
            events.push(Json::Obj(vec![
                field("name", "thread_name"),
                field("ph", "M"),
                field("pid", 1u64),
                field("tid", tid),
                field(
                    "args",
                    Json::Obj(vec![field(
                        "name",
                        format!("{} / {}", c.workload, c.mechanism.label()),
                    )]),
                ),
            ]));
            for ch in d.chains() {
                let name = format!("chain {} @pc{}", ch.id, ch.block_start.index());
                let common = |ph: &str, ts: u64| {
                    vec![
                        field("name", name.as_str()),
                        field("cat", "chain"),
                        field("ph", ph),
                        field("id", ch.id),
                        field("ts", ts),
                        field("pid", 1u64),
                        field("tid", tid),
                    ]
                };
                let mut begin = common("b", ch.installed_at);
                begin.push(field(
                    "args",
                    Json::Obj(vec![
                        field("crit_uops", ch.crit_uops),
                        field("cuc_hits", ch.cuc_hits),
                        field("fetched", ch.uops_fetched),
                        field("consumed", ch.uops_consumed),
                        field("poisoned", ch.uops_poisoned),
                        field("squashed", ch.uops_squashed),
                        field("wasted", ch.uops_wasted()),
                    ]),
                ));
                events.push(Json::Obj(begin));
                events.push(Json::Obj(common("e", ch.last_event.max(ch.installed_at))));
            }
        }
        Json::Arr(events)
    }

    /// The human-readable per-cell table: coverage, accuracy, and lead-time
    /// summaries side by side.
    pub fn render_summary(&self) -> String {
        let mut t = Table::new(&[
            "workload",
            "mechanism",
            "chains",
            "ld-cov",
            "br-cov",
            "accuracy",
            "fetched",
            "wasted",
            "lead-mean",
            "lead-p50",
        ]);
        for c in &self.cells {
            match &c.result {
                Ok((_, d)) => {
                    t.row(&[
                        c.workload.clone(),
                        c.mechanism.label().to_string(),
                        format!("{}", d.chains().len()),
                        pct(&d.load_coverage),
                        pct(&d.branch_coverage),
                        format!("{:.1}%", d.accuracy() * 100.0),
                        format!("{}", d.critical_uops_fetched),
                        format!("{}", d.critical_uops_wasted()),
                        format!("{:.0}", d.lead_time.mean()),
                        format!("{}", histogram_p50(&d.lead_time)),
                    ]);
                }
                Err(e) => {
                    t.row(&[
                        c.workload.clone(),
                        c.mechanism.label().to_string(),
                        format!("ERROR({})", e.kind()),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                }
            }
        }
        let (ok, failed) = self.counts();
        format!(
            "Explain — CUC coverage / accuracy / lead time per (workload × mechanism); \
             {ok} ok, {failed} failed\n{}",
            t.render()
        )
    }
}

fn pct(c: &Coverage) -> String {
    if c.total == 0 {
        "n/a".to_string()
    } else {
        format!("{:.1}%", c.fraction() * 100.0)
    }
}

/// The lower bound of the bucket holding the median sample (0 when empty) —
/// a scale-free "typical lead" figure for the summary table.
fn histogram_p50(h: &Histogram) -> u64 {
    let total = h.samples();
    if total == 0 {
        return 0;
    }
    let mut seen = 0;
    for (i, &count) in h.buckets().iter().enumerate() {
        seen += count;
        if seen * 2 >= total {
            return Histogram::bucket_range(i).0;
        }
    }
    0
}

fn cell_json(c: &ExplainCell, chain_limit: usize) -> Json {
    let mut fields = vec![
        field("workload", c.workload.as_str()),
        field("mechanism", c.mechanism.label()),
        field("status", if c.result.is_ok() { "ok" } else { "error" }),
    ];
    match &c.result {
        Ok((m, d)) => {
            fields.push(field("measurement", measurement_json(m)));
            fields.push(field("diagnostics", diagnostics_json(d, chain_limit)));
        }
        Err(e) => fields.push(field(
            "error",
            Json::Obj(vec![
                field("kind", e.kind()),
                field("message", e.to_string()),
            ]),
        )),
    }
    Json::Obj(fields)
}

/// Serializes one [`CdfDiagnostics`] collector: lifecycle counters, the
/// coverage/accuracy/timeliness families, and the `chain_limit` busiest
/// chain records (by fetched uops; `chains_recorded` counts all of them).
pub fn diagnostics_json(d: &CdfDiagnostics, chain_limit: usize) -> Json {
    let mut busiest: Vec<&ChainRecord> = d.chains().iter().collect();
    busiest.sort_by(|a, b| b.uops_fetched.cmp(&a.uops_fetched).then(a.id.cmp(&b.id)));
    busiest.truncate(chain_limit);
    Json::Obj(vec![
        field(
            "lifecycle",
            Json::Obj(vec![
                field("walks", d.walks),
                field("walks_dropped", d.walks_dropped),
                field("installs", d.installs),
                field("installs_rejected", d.installs_rejected),
                field("chains_recorded", d.chains().len()),
                field("chains_dropped", d.chains_dropped),
                field("cuc_fetch_hits", d.cuc_fetch_hits),
                field("cuc_fetch_misses", d.cuc_fetch_misses),
            ]),
        ),
        field(
            "coverage",
            Json::Obj(vec![
                field("loads", coverage_json(&d.load_coverage)),
                field("branches", coverage_json(&d.branch_coverage)),
            ]),
        ),
        field(
            "accuracy",
            Json::Obj(vec![
                field("fetched", d.critical_uops_fetched),
                field("consumed", d.critical_uops_consumed),
                field("poisoned", d.critical_uops_poisoned),
                field("squashed", d.critical_uops_squashed),
                field("wasted", d.critical_uops_wasted()),
                field("fraction", d.accuracy()),
            ]),
        ),
        field(
            "timeliness",
            Json::Obj(vec![
                field("llc_miss_initiations", d.llc_miss_initiations),
                field("lead_time", histogram_json(&d.lead_time)),
                field("branch_resolution", histogram_json(&d.branch_resolution)),
            ]),
        ),
        field(
            "intervals",
            Json::Obj(vec![
                field("interval", d.config().interval),
                field("evicted_samples", d.intervals().evicted_count()),
                field("totals", diag_interval_json(&d.intervals().totals())),
                field(
                    "samples",
                    Json::Arr(d.intervals().samples().map(diag_interval_json).collect()),
                ),
            ]),
        ),
        field(
            "chains",
            Json::Arr(busiest.into_iter().map(chain_json).collect()),
        ),
    ])
}

/// One coverage/accuracy interval sample (or the series totals) — the
/// per-interval time series joining `cdf-core::diag` chain outcomes with
/// the telemetry interval cadence.
fn diag_interval_json(s: &cdf_core::DiagIntervalSample) -> Json {
    Json::Obj(vec![
        field("start_cycle", s.start_cycle),
        field("end_cycle", s.end_cycle),
        field("cycles", s.cycles),
        field("walks", s.walks),
        field("installs", s.installs),
        field("cuc_hits", s.cuc_hits),
        field("cuc_misses", s.cuc_misses),
        field("fetched", s.fetched),
        field("consumed", s.consumed),
        field("poisoned", s.poisoned),
        field("squashed", s.squashed),
        field("accuracy", s.accuracy()),
        field("load_coverage", coverage_json(&s.load_coverage())),
        field("branch_coverage", coverage_json(&s.branch_coverage())),
        field("miss_initiations", s.miss_initiations),
    ])
}

fn coverage_json(c: &Coverage) -> Json {
    Json::Obj(vec![
        field("covered", c.covered),
        field("total", c.total),
        field("fraction", c.fraction()),
    ])
}

fn histogram_json(h: &Histogram) -> Json {
    let buckets: Vec<Json> = h
        .buckets()
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(i, &count)| {
            let (lo, hi) = Histogram::bucket_range(i);
            Json::Obj(vec![
                field("lo", lo),
                field("hi", hi),
                field("count", count),
            ])
        })
        .collect();
    Json::Obj(vec![
        field("samples", h.samples()),
        field("mean", h.mean()),
        field("buckets", Json::Arr(buckets)),
    ])
}

fn chain_json(c: &ChainRecord) -> Json {
    Json::Obj(vec![
        field("id", c.id),
        field("block_start", c.block_start.index()),
        field("block_len", c.block_len),
        field("crit_uops", c.crit_uops),
        field("installed_at", c.installed_at),
        field("cuc_hits", c.cuc_hits),
        field("fetched", c.uops_fetched),
        field("consumed", c.uops_consumed),
        field("poisoned", c.uops_poisoned),
        field("squashed", c.uops_squashed),
        field("wasted", c.uops_wasted()),
        field("last_event", c.last_event),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_eval() -> EvalConfig {
        EvalConfig {
            warmup_instructions: 10_000,
            measure_instructions: 20_000,
            gen: cdf_workloads::GenConfig {
                seed: 7,
                scale: 1.0 / 32.0,
                iters: u64::MAX / 4,
            },
            ..EvalConfig::quick()
        }
    }

    #[test]
    fn explain_cell_collects_cdf_provenance() {
        let c = explain_cell("astar_like", Mechanism::Cdf, &tiny_eval());
        let (m, d) = c.result.as_ref().expect("cell runs");
        assert!(m.critical_uops > 0, "CDF must engage");
        assert!(d.walks > 0, "walks observed");
        assert!(d.critical_uops_fetched > 0, "critical fetch observed");
        assert_eq!(
            d.lead_time.samples(),
            d.llc_miss_initiations,
            "lead-time totality"
        );
        assert!(!d.chains().is_empty());
    }

    #[test]
    fn report_json_is_valid_and_tagged() {
        let cfg = ExplainConfig::new(
            ["astar_like"],
            vec![Mechanism::Baseline, Mechanism::Cdf],
            tiny_eval(),
        );
        let report = run_explain(&cfg);
        assert_eq!(report.counts(), (2, 0));
        let text = report.to_json().render_pretty();
        let doc = Json::parse(&text).expect("emitted JSON parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(EXPLAIN_SCHEMA)
        );
        let cells = doc.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 2);
        for cell in cells {
            let diag = cell.get("diagnostics").expect("ok cells embed diag");
            for family in ["lifecycle", "coverage", "accuracy", "timeliness", "chains"] {
                assert!(diag.get(family).is_some(), "{family} present");
            }
        }
        assert!(report.render_summary().contains("accuracy"));
    }

    #[test]
    fn failed_cells_are_recorded_not_fatal() {
        let cfg = ExplainConfig::new(
            ["no_such_kernel", "astar_like"],
            vec![Mechanism::Baseline],
            tiny_eval(),
        );
        let report = run_explain(&cfg);
        assert_eq!(report.counts(), (1, 1));
        let bad = report.cell("no_such_kernel", Mechanism::Baseline).unwrap();
        assert_eq!(bad.result.as_ref().unwrap_err().kind(), "unknown_workload");
        assert!(report.to_json().render().contains("\"status\":\"error\""));
        assert!(report.render_summary().contains("ERROR(unknown_workload)"));
    }

    #[test]
    fn chain_spans_balance_begin_end() {
        let cfg = ExplainConfig::new(["astar_like"], vec![Mechanism::Cdf], tiny_eval());
        let report = run_explain(&cfg);
        let doc = Json::parse(&report.chain_trace_events().render()).expect("valid JSON");
        let events = doc.as_arr().unwrap();
        let count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .count()
        };
        assert!(count("b") > 0, "chains emitted");
        assert_eq!(count("b"), count("e"), "async spans balance");
    }

    #[test]
    fn histogram_p50_picks_median_bucket() {
        let mut h = Histogram::default();
        for _ in 0..3 {
            h.record(0);
        }
        for _ in 0..4 {
            h.record(100);
        }
        let (lo, _) = Histogram::bucket_range(Histogram::bucket_of(100));
        assert_eq!(histogram_p50(&h), lo);
        assert_eq!(histogram_p50(&Histogram::default()), 0);
    }
}
