//! Core↔memory boundary equivalence suite: a core whose memory is core 0's
//! slice of a one-core [`MultiCore`](cdf_core::MultiCore) must be
//! **bit-identical** to a core over its own private hierarchy — same
//! retirement digest, same oracle-checked uop count, same complete
//! [`CoreStats`], same energy report and memory traffic — on every
//! mechanism, and the full 98-cell golden grid must agree cell for cell.
//!
//! The equivalence argument (DESIGN.md, "Multi-core boundary"): the shared
//! system's per-core access path mirrors the private hierarchy line for
//! line, and core 0 maps addresses identically, so with one core nothing is
//! shared and nothing can differ. These tests are the proof.
//!
//! The in-tree tests run bounded campaigns; the full acceptance campaign
//! (500 seeds × all seven mechanisms) is the `#[ignore]`d
//! `full_boundary_equivalence_campaign`, run in release mode or via
//! `cdf-sim equiv --boundary`.
//!
//! [`CoreStats`]: cdf_core::CoreStats

use cdf_sim::{
    collect_golden, run_equivalence, workload_equivalence_axis, EquivAxis, EquivConfig, EvalConfig,
    GoldenConfig, Mechanism,
};
use cdf_workloads::registry;

#[test]
fn bounded_fuzz_boundary_equivalence_all_mechanisms() {
    let cfg = EquivConfig {
        seeds: 24,
        start_seed: 1,
        mechanisms: Mechanism::ALL.to_vec(),
        axis: EquivAxis::Boundary,
        ..EquivConfig::default()
    };
    let report = run_equivalence(&cfg);
    assert!(report.clean(), "{}", report.render_summary());
    assert_eq!(report.cases, 24 * 7);
    assert!(report.checked_uops > 0, "oracle compared retired uops");
}

/// The same bounded window on both topologies over the **entire 98-cell
/// grid** (every workload × every mechanism), compared on `CoreStats`, the
/// energy report, and the core's memory and DRAM counters: a shared path
/// that reordered memory-system events would fail here even with a clean
/// retirement stream.
#[test]
fn workload_windows_bit_identical_across_boundaries_full_grid() {
    let mut cfg = EvalConfig::quick();
    cfg.warmup_instructions = 5_000;
    cfg.measure_instructions = 10_000;
    let workloads: Vec<&str> = registry::NAMES.to_vec();
    let mismatches =
        workload_equivalence_axis(&workloads, &Mechanism::ALL, &cfg, EquivAxis::Boundary);
    assert!(mismatches.is_empty(), "windows diverged: {mismatches:#?}");
}

/// The complete golden grid (every workload × every mechanism), collected
/// on private cores and on one-core shared systems and compared cell for
/// cell — the grid-level version of the `cdf-sim equiv --boundary` proof.
#[test]
fn golden_grid_bit_identical_across_boundaries() {
    let private = collect_golden(&GoldenConfig::default());
    let shared = collect_golden(&GoldenConfig {
        shared: true,
        ..GoldenConfig::default()
    });
    assert_eq!(private.len(), shared.len());
    assert_eq!(private.len(), registry::NAMES.len() * Mechanism::ALL.len());
    for (p, s) in private.iter().zip(&shared) {
        assert_eq!(p.workload, s.workload);
        assert_eq!(p.mechanism, s.mechanism);
        assert_eq!(
            p.stats, s.stats,
            "boundaries diverged on {}/{}",
            p.workload, p.mechanism
        );
    }
}

/// The full acceptance campaign: 500 seeds × all seven mechanisms, each
/// seed run to completion on both topologies with per-retired-uop oracle
/// checking.
/// `cargo test -p cdf-sim --release --test boundary_equivalence -- --ignored`
#[test]
#[ignore = "full 3500-case campaign; run explicitly in release mode"]
fn full_boundary_equivalence_campaign() {
    let report = run_equivalence(&EquivConfig {
        axis: EquivAxis::Boundary,
        ..EquivConfig::default()
    });
    assert_eq!(report.cases, 3500);
    assert!(report.clean(), "{}", report.render_summary());
}
