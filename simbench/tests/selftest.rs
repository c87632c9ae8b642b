//! Self-tests of the benchmark: metric names, failure accounting under a
//! deliberate perturbation, digest repeatability, and that the benchmark's
//! cell runner reproduces the simulator's own runners.

use cdf_sim::{run_cell, run_mix, EvalConfig, Mechanism, MixConfig};
use simbench::runner::{self, Probe};
use simbench::spec::{self, Cell, Spec, DEFAULT_SEED};
use simbench::{valid_metric_name, END_TO_END, PER_LAYER};
use std::collections::BTreeSet;

/// Two quick grid cells (mcf_like under base and CDF) whose statistics
/// are pinned at the default seed.
fn small_grid() -> Spec {
    let mut s = spec::lookup("grid_fast", DEFAULT_SEED).expect("grid_fast exists");
    s.cells.retain(|c| {
        c.kernel() == "mcf_like" && matches!(c.mech(), Mechanism::Baseline | Mechanism::Cdf)
    });
    assert_eq!(s.cells.len(), 2);
    s
}

#[test]
fn metric_names_are_valid_and_unique() {
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_metric_name(name), "{name}");
        assert!(!unit.is_empty(), "{name} has a unit");
        assert!(seen.insert(*name), "{name} is listed twice");
    }
    assert!(!valid_metric_name("bad name"));
    assert!(!valid_metric_name(""));
}

#[test]
fn unperturbed_cells_pass_and_halved_l1d_mshrs_fail() {
    let spec = small_grid();
    let ok = simbench::run(&spec, 1e-3, false);
    assert!(ok.correct(), "{:?}", ok.failures);
    assert_eq!(ok.metric("pass_frac"), Some(1.0));
    let names: Vec<&str> = ok.metrics.iter().map(|m| m.0).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names, expected);
    assert!(
        ok.metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
        "{:?}",
        ok.metrics
    );

    let mut perturbed = spec.clone();
    perturbed.eval.core.mem.l1d_mshrs /= 2;
    let bad = simbench::run(&perturbed, 1e-3, false);
    assert!(!bad.correct());
    assert!(
        bad.failures.iter().any(|(_, why)| why.contains("pinned")),
        "{:?}",
        bad.failures
    );
    let pass_frac = bad.metric("pass_frac").expect("reported");
    assert_eq!(
        pass_frac,
        1.0 - bad.failures.len() as f64 / bad.attempted as f64
    );
    assert!(pass_frac < 1.0);
}

#[test]
fn sim_digest_repeats_across_runs_and_tracing() {
    let spec = small_grid();
    let a = simbench::run(&spec, 1e-3, false);
    let b = simbench::run(&spec, 1e-3, false);
    assert_eq!(a.sim_digest, b.sim_digest);
    assert_eq!(a.cells, b.cells);

    let traced = simbench::run(&spec, 1e-3, true);
    assert!(traced.correct(), "{:?}", traced.failures);
    assert_eq!(traced.sim_digest, a.sim_digest);
    let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names, expected);
    assert!(
        traced.metrics.iter().all(|m| m.1.is_finite()),
        "{:?}",
        traced.metrics
    );
    for name in [
        "core.step_ns.p50",
        "bpred.ns_per_branch",
        "mem.ns_per_access",
        "isa.ns_per_uop",
    ] {
        assert!(traced.metric(name).expect("reported") > 0.0, "{name}");
    }
    // One pass span, then cell/setup/warmup/measure per cell, each with
    // its parent earlier in the list.
    assert_eq!(traced.spans.len(), 1 + 4 * spec.cells.len());
    for (i, s) in traced.spans.iter().enumerate().skip(1) {
        assert!(s.parent.is_some_and(|p| p < i), "span {i} {s:?}");
    }
}

#[test]
fn solo_cells_match_the_simulator_runner() {
    let eval = EvalConfig {
        gen: cdf_workloads::GenConfig {
            seed: 7,
            ..EvalConfig::quick().gen
        },
        ..EvalConfig::quick()
    };
    for mech in [Mechanism::Baseline, Mechanism::Cdf, Mechanism::Pre] {
        let cell = Cell::Solo {
            kernel: "astar_like",
            mech,
        };
        let lib = run_cell("astar_like", mech, &eval)
            .result
            .expect("cell runs");
        for probe in [Probe::None, Probe::Timed, Probe::Oracle, Probe::Trace] {
            let ours = runner::run_cell(&cell, &eval, probe).expect("cell runs");
            assert_eq!(ours.canon, format!("{lib:?}"), "{} {probe:?}", mech.label());
            // Only the timed configuration runs the speed probe.
            assert_eq!(
                ours.norm
                    .is_some_and(|n| n.setup_ns > 0.0 && n.step_ns > 0.0),
                probe == Probe::Timed,
                "{probe:?}"
            );
        }
    }
}

#[test]
fn mix_cells_match_the_simulator_mix() {
    let mut cfg = MixConfig::new(
        vec!["mcf_like".into(), "stream_hog".into()],
        vec![Mechanism::Cdf],
    )
    .quick();
    cfg.eval.gen.seed = 7;
    let lib = run_mix(&cfg).expect("mix runs");
    let cell = Cell::Mix {
        kernels: ["mcf_like", "stream_hog"],
        mech: Mechanism::Cdf,
    };
    for probe in [Probe::None, Probe::Timed, Probe::Oracle, Probe::Trace] {
        let ours = runner::run_cell(&cell, &cfg.eval, probe).expect("mix runs");
        assert_eq!(ours.ipc, lib.cores[0].measurement.ipc, "{probe:?}");
        let retired: u64 = lib.cores.iter().map(|c| c.measurement.instructions).sum();
        assert_eq!(ours.uops, retired, "{probe:?}");
    }
}
