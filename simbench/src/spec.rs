//! The three benchmark workloads: which cells each runs and at what sizing.

use cdf_sim::{EvalConfig, Mechanism};
use cdf_workloads::registry;

/// The seed used when `--seed` is not given; expected statistics are
/// pinned at this seed.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Warm-up and measure windows of `grid_fast` (uops): a third of
/// `EvalConfig::quick()`'s, so that a single-threaded pass over all 98
/// cells takes about ten seconds.
pub const GRID_WARMUP: u64 = 10_000;
/// See [`GRID_WARMUP`].
pub const GRID_MEASURE: u64 = 20_000;

/// Global cycle budget of one mix (the `cdf-sim mix` default).
pub const MIX_CYCLE_BUDGET: u64 = 50_000_000;

/// One simulation of a workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cell {
    /// One kernel on one private core.
    Solo {
        /// Registry name of the kernel.
        kernel: &'static str,
        /// Mechanism simulated.
        mech: Mechanism,
    },
    /// Two kernels co-scheduled on a two-core [`cdf_core::MultiCore`], both
    /// cores running `mech`. Core 0 is the measured kernel.
    Mix {
        /// Registry names, core 0 first.
        kernels: [&'static str; 2],
        /// Mechanism simulated on both cores.
        mech: Mechanism,
    },
}

impl Cell {
    /// A stable name, e.g. `astar_like/CDF` or `mcf_like+stream_hog/base`.
    pub fn key(&self) -> String {
        match self {
            Cell::Solo { kernel, mech } => format!("{kernel}/{}", mech.label()),
            Cell::Mix { kernels, mech } => {
                format!("{}+{}/{}", kernels[0], kernels[1], mech.label())
            }
        }
    }

    /// The mechanism simulated.
    pub fn mech(&self) -> Mechanism {
        match *self {
            Cell::Solo { mech, .. } | Cell::Mix { mech, .. } => mech,
        }
    }

    /// The measured kernel (core 0 of a mix).
    pub fn kernel(&self) -> &'static str {
        match *self {
            Cell::Solo { kernel, .. } => kernel,
            Cell::Mix { kernels, .. } => kernels[0],
        }
    }

    /// Every kernel the cell simulates.
    pub fn kernels(&self) -> Vec<&'static str> {
        match *self {
            Cell::Solo { kernel, .. } => vec![kernel],
            Cell::Mix { kernels, .. } => kernels.to_vec(),
        }
    }

    /// Whether the cell runs the CDF engine (CDF and its three ablations).
    pub fn uses_cdf(&self) -> bool {
        matches!(
            self.mech(),
            Mechanism::Cdf
                | Mechanism::CdfNoBranches
                | Mechanism::CdfStaticPartition
                | Mechanism::CdfNoMaskCache
        )
    }
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Cells in run order.
    pub cells: Vec<Cell>,
    /// Sizing: generation seed and scale, windows, core template.
    pub eval: EvalConfig,
}

/// Workload names, as gated by `BENCHMARK.json`.
pub const NAMES: [&str; 3] = ["grid_fast", "mem_steady", "mix_contention"];

fn base_and_cdf(kernels: &[&'static str]) -> Vec<Cell> {
    kernels
        .iter()
        .flat_map(|&kernel| {
            [Mechanism::Baseline, Mechanism::Cdf].map(|mech| Cell::Solo { kernel, mech })
        })
        .collect()
}

fn seeded(mut eval: EvalConfig, seed: u64) -> EvalConfig {
    eval.gen.seed = seed;
    eval
}

/// The named workload at `seed`, or `None` for an unknown name.
pub fn lookup(name: &str, seed: u64) -> Option<Spec> {
    let spec = match name {
        // Every kernel × every mechanism: the "regenerate every figure"
        // grid, at quick generation scale with a third of its windows.
        "grid_fast" => Spec {
            name: "grid_fast",
            cells: registry::NAMES
                .iter()
                .flat_map(|&kernel| Mechanism::ALL.map(|mech| Cell::Solo { kernel, mech }))
                .collect(),
            eval: seeded(
                EvalConfig {
                    warmup_instructions: GRID_WARMUP,
                    measure_instructions: GRID_MEASURE,
                    ..EvalConfig::quick()
                },
                seed,
            ),
        },
        // Memory-bound kernels at default sizing: caches, MSHRs, DRAM,
        // the memport and the CDF engine do most of the work.
        "mem_steady" => Spec {
            name: "mem_steady",
            cells: base_and_cdf(&["gems_like", "mcf_like", "astar_like", "omnetpp_like"]),
            eval: seeded(EvalConfig::default(), seed),
        },
        // mcf_like co-scheduled with a bandwidth hog on a shared LLC, MSHR
        // pool and DRAM, under base and then CDF.
        "mix_contention" => Spec {
            name: "mix_contention",
            cells: [Mechanism::Baseline, Mechanism::Cdf]
                .map(|mech| Cell::Mix {
                    kernels: ["mcf_like", "stream_hog"],
                    mech,
                })
                .to_vec(),
            eval: seeded(EvalConfig::default(), seed),
        },
        _ => return None,
    };
    Some(spec)
}
