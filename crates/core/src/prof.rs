//! Host-side self-profiling: where does the *simulator's* wall-clock go?
//!
//! The guest has had measurement discipline since PR 2 (cycle accounting,
//! chain provenance, durable result records); this module applies the same
//! discipline to the instrument itself. A [`HostProf`] is an optional
//! sidecar on [`Core`](crate::Core) — the exact pattern of
//! [`Telemetry`](crate::telemetry::Telemetry) and
//! [`CdfDiagnostics`](crate::diag::CdfDiagnostics) — that wraps each
//! pipeline stage of the per-cycle loop in a monotonic timer and counts
//! heap churn per stage through [`CountingAlloc`]. Subsystem boundaries
//! (scheduler wakeup/select, the MSHR/MLP completion heaps, the
//! core↔memory port, the shared LLC) get their own timers, nested *inside* the
//! stage timers, so the stage rows alone answer the totality question.
//!
//! # Overhead guarantee
//!
//! A core without a profiler runs zero profiling code beyond one `Option`
//! null check per stage — the same standard the telemetry and diagnostics
//! sidecars are held to — and an enabled profiler only ever *reads*
//! simulation state, so [`CoreStats`](crate::CoreStats) are bit-identical
//! either way (enforced by `crates/sim/tests/prof.rs` across all seven
//! mechanisms).
//!
//! # Totality invariant
//!
//! Stage timers cover disjoint sub-intervals of the run loop, so their sum
//! is ≤ the wall time measured around the whole run; the remainder is
//! reported explicitly as `untracked_ns` (harness overhead, snapshotting,
//! the timers themselves) and is ≥ 0 by construction
//! ([`HostProf::into_profile`] uses saturating subtraction and a proptest
//! fuzzes the invariant over generated programs).

use cdf_mem::MemProfReport;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One pipeline stage of the per-cycle loop, in execution order
/// (backwards through the pipeline, like [`Core`](crate::Core) itself).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// In-order retirement (includes store commit into the memory system).
    Retire,
    /// Completion-event drain + register wakeup.
    Complete,
    /// Select + execute (issue ports, functional execution, load/store
    /// address generation and memory access).
    Schedule,
    /// Decode drain, rename, dispatch into ROB/RS/LSQ (covers the decode
    /// and rename stages of the modeled pipeline).
    Rename,
    /// Critical + regular instruction fetch, including I-cache access.
    Fetch,
    /// Pipeline flush recovery (replaces fetch on flush cycles).
    Flush,
    /// End-of-cycle bookkeeping (stall accounting, partition controllers,
    /// telemetry sampling).
    PostCycle,
}

impl Stage {
    /// Every stage, in per-cycle execution order.
    pub const ALL: [Stage; 7] = [
        Stage::Retire,
        Stage::Complete,
        Stage::Schedule,
        Stage::Rename,
        Stage::Fetch,
        Stage::Flush,
        Stage::PostCycle,
    ];

    /// Stable label used in `cdf-profile/1` documents and tables.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Retire => "retire",
            Stage::Complete => "complete",
            Stage::Schedule => "schedule_execute",
            Stage::Rename => "rename_dispatch",
            Stage::Fetch => "fetch",
            Stage::Flush => "flush",
            Stage::PostCycle => "post_cycle",
        }
    }
}

/// A subsystem boundary timed *inside* the stages (never added to the
/// stage totality sum — subsystem time is a refinement, not a partition).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Subsystem {
    /// Event-driven scheduler wakeup (waiter drain + ready enqueue).
    SchedWake,
    /// Event-driven scheduler select loop.
    SchedSelect,
    /// The core↔memory port (demand accesses, runahead prefetches, MLP
    /// samples through [`MemSide`](crate::MemSide)).
    MemPort,
    /// MSHR completion-heap operations (from `cdf-mem`).
    MshrHeap,
    /// MLP outstanding-miss heap operations (from `cdf-mem`).
    MlpHeap,
    /// Shared-LLC accesses of a multi-core memory system (from `cdf-mem`).
    SharedLlc,
}

impl Subsystem {
    /// Every subsystem, in report order.
    pub const ALL: [Subsystem; 6] = [
        Subsystem::SchedWake,
        Subsystem::SchedSelect,
        Subsystem::MemPort,
        Subsystem::MshrHeap,
        Subsystem::MlpHeap,
        Subsystem::SharedLlc,
    ];

    /// Stable label used in `cdf-profile/1` documents and tables.
    pub fn label(self) -> &'static str {
        match self {
            Subsystem::SchedWake => "sched_wake",
            Subsystem::SchedSelect => "sched_select",
            Subsystem::MemPort => "memport",
            Subsystem::MshrHeap => "mshr_heap",
            Subsystem::MlpHeap => "mlp_heap",
            Subsystem::SharedLlc => "shared_llc",
        }
    }
}

// ---------------------------------------------------------------------
// Counting allocator.
// ---------------------------------------------------------------------

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator: two relaxed atomic
/// increments per allocation, so per-stage heap churn can be attributed by
/// snapshotting [`alloc_counts`] at stage boundaries.
///
/// Install it in a *binary* (`cdf-sim` and the throughput gate do):
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: cdf_core::prof::CountingAlloc = cdf_core::prof::CountingAlloc;
/// ```
///
/// When it is not installed the counters simply stay zero and profiles
/// report no allocation data; nothing else changes.
#[derive(Debug, Default)]
pub struct CountingAlloc;

// SAFETY: delegates allocation verbatim to `System`; the only additional
// work is two relaxed counter increments, which touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Cumulative `(allocation calls, allocated bytes)` since process start —
/// zero unless [`CountingAlloc`] is installed as the global allocator.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------
// Collection.
// ---------------------------------------------------------------------

/// A stage/subsystem timer started by [`HostProf::begin`] (monotonic clock
/// plus an allocation-counter snapshot).
#[derive(Debug)]
pub struct ProfToken {
    at: Instant,
    allocs: u64,
    alloc_bytes: u64,
}

impl ProfToken {
    /// Starts a timer now.
    pub fn now() -> ProfToken {
        let (allocs, alloc_bytes) = alloc_counts();
        ProfToken {
            at: Instant::now(),
            allocs,
            alloc_bytes,
        }
    }
}

const STAGES: usize = Stage::ALL.len();
const SUBS: usize = Subsystem::ALL.len();

/// The live collector: per-stage wall-clock, call counts and heap churn,
/// plus per-subsystem wall-clock and operation counts. Attached to a core
/// via [`Core::enable_prof`](crate::Core::enable_prof) and drained by
/// [`Core::take_profile`](crate::Core::take_profile).
#[derive(Clone, Debug, Default)]
pub struct HostProf {
    stage_ns: [u64; STAGES],
    stage_calls: [u64; STAGES],
    stage_allocs: [u64; STAGES],
    stage_alloc_bytes: [u64; STAGES],
    sub_ns: [u64; SUBS],
    sub_ops: [u64; SUBS],
}

impl HostProf {
    /// A fresh collector.
    pub fn new() -> HostProf {
        HostProf::default()
    }

    /// Starts a timer (alias for [`ProfToken::now`], reads nicely at call
    /// sites).
    pub fn begin() -> ProfToken {
        ProfToken::now()
    }

    /// Closes a stage interval opened with [`begin`](Self::begin).
    pub fn end_stage(&mut self, stage: Stage, t: ProfToken) {
        let i = stage as usize;
        self.stage_ns[i] += t.at.elapsed().as_nanos() as u64;
        self.stage_calls[i] += 1;
        let (allocs, bytes) = alloc_counts();
        self.stage_allocs[i] += allocs - t.allocs;
        self.stage_alloc_bytes[i] += bytes - t.alloc_bytes;
    }

    /// Closes a subsystem interval opened with [`begin`](Self::begin).
    pub fn end_sub(&mut self, sub: Subsystem, t: ProfToken) {
        let i = sub as usize;
        self.sub_ns[i] += t.at.elapsed().as_nanos() as u64;
        self.sub_ops[i] += 1;
    }

    /// Folds externally-timed subsystem counters in (the `cdf-mem` heap
    /// timers report through [`MemProfReport`]).
    pub fn fold_mem(&mut self, mem: &MemProfReport) {
        self.sub_ns[Subsystem::MshrHeap as usize] += mem.mshr_ns;
        self.sub_ops[Subsystem::MshrHeap as usize] += mem.mshr_ops;
        self.sub_ns[Subsystem::MlpHeap as usize] += mem.mlp_ns;
        self.sub_ops[Subsystem::MlpHeap as usize] += mem.mlp_ops;
        self.sub_ns[Subsystem::SharedLlc as usize] += mem.shared_llc_ns;
        self.sub_ops[Subsystem::SharedLlc as usize] += mem.shared_llc_ops;
    }

    /// Merges another collector's counters into this one (the multi-core
    /// driver folds per-core collectors before finalizing: cores interleave
    /// on one host thread, so their intervals are disjoint in wall time).
    pub fn merge(&mut self, other: &HostProf) {
        for i in 0..STAGES {
            self.stage_ns[i] += other.stage_ns[i];
            self.stage_calls[i] += other.stage_calls[i];
            self.stage_allocs[i] += other.stage_allocs[i];
            self.stage_alloc_bytes[i] += other.stage_alloc_bytes[i];
        }
        for i in 0..SUBS {
            self.sub_ns[i] += other.sub_ns[i];
            self.sub_ops[i] += other.sub_ops[i];
        }
    }

    /// Finalizes into a [`HostProfile`]. `total_wall_ns` is the wall time
    /// the harness measured around the whole run; the untracked remainder
    /// is `total - Σ stages`, saturating so the totality invariant
    /// (`untracked ≥ 0`, `Σ stages ≤ total`) holds by construction.
    pub fn into_profile(self, cycles: u64, retired: u64, total_wall_ns: u64) -> HostProfile {
        let stages: Vec<StageSample> = Stage::ALL
            .iter()
            .map(|&s| {
                let i = s as usize;
                StageSample {
                    name: s.label().to_string(),
                    ns: self.stage_ns[i],
                    calls: self.stage_calls[i],
                    allocs: self.stage_allocs[i],
                    alloc_bytes: self.stage_alloc_bytes[i],
                }
            })
            .collect();
        let subsystems: Vec<SubsystemSample> = Subsystem::ALL
            .iter()
            .map(|&s| {
                let i = s as usize;
                SubsystemSample {
                    name: s.label().to_string(),
                    ns: self.sub_ns[i],
                    ops: self.sub_ops[i],
                }
            })
            .collect();
        let tracked: u64 = stages.iter().map(|s| s.ns).sum();
        HostProfile {
            cycles,
            retired,
            total_wall_ns: total_wall_ns.max(tracked),
            untracked_ns: total_wall_ns.saturating_sub(tracked),
            stages,
            subsystems,
        }
    }
}

// ---------------------------------------------------------------------
// The finished profile.
// ---------------------------------------------------------------------

/// One stage's aggregated host-side cost.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StageSample {
    /// Stable stage label ([`Stage::label`]).
    pub name: String,
    /// Wall-clock nanoseconds spent inside the stage.
    pub ns: u64,
    /// Times the stage ran (= cycles simulated while profiling).
    pub calls: u64,
    /// Heap allocations performed inside the stage (0 without
    /// [`CountingAlloc`]).
    pub allocs: u64,
    /// Bytes allocated inside the stage (0 without [`CountingAlloc`]).
    pub alloc_bytes: u64,
}

/// One subsystem's aggregated host-side cost.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubsystemSample {
    /// Stable subsystem label ([`Subsystem::label`]).
    pub name: String,
    /// Wall-clock nanoseconds spent inside the subsystem.
    pub ns: u64,
    /// Operations timed.
    pub ops: u64,
}

/// A finished host profile: stage-level wall-clock attribution with the
/// totality invariant (`Σ stages + untracked = total`, both sides ≥ 0),
/// host throughput denominators, and the subsystem refinement.
#[derive(Clone, PartialEq, Debug)]
pub struct HostProfile {
    /// Guest cycles simulated while profiling.
    pub cycles: u64,
    /// Guest uops retired while profiling.
    pub retired: u64,
    /// Total wall-clock nanoseconds measured around the run (≥ Σ stages).
    pub total_wall_ns: u64,
    /// Wall time not attributed to any stage (harness overhead, the timers
    /// themselves). `total_wall_ns - Σ stages`, ≥ 0 by construction.
    pub untracked_ns: u64,
    /// Per-stage attribution, in per-cycle execution order.
    pub stages: Vec<StageSample>,
    /// Per-subsystem refinement (nested inside stages; not part of the
    /// totality sum).
    pub subsystems: Vec<SubsystemSample>,
}

impl HostProfile {
    /// Σ stage nanoseconds (the tracked portion of the wall).
    pub fn tracked_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.ns).sum()
    }

    /// Host simulation rate in guest cycles per wall-clock second.
    pub fn cycles_per_sec(&self) -> f64 {
        if self.total_wall_ns == 0 {
            0.0
        } else {
            self.cycles as f64 * 1e9 / self.total_wall_ns as f64
        }
    }

    /// Host simulation rate in retired guest uops per wall-clock second —
    /// the ROADMAP's 10M uops/s target is stated in this unit.
    pub fn uops_per_sec(&self) -> f64 {
        if self.total_wall_ns == 0 {
            0.0
        } else {
            self.retired as f64 * 1e9 / self.total_wall_ns as f64
        }
    }

    /// Merges another profile into this one by summing every field —
    /// multi-core mixes fold their per-core profiles this way, which is
    /// sound because the round-robin driver interleaves cores on one host
    /// thread, so per-core stage intervals are disjoint in wall time.
    pub fn fold(&mut self, other: &HostProfile) {
        self.cycles += other.cycles;
        self.retired += other.retired;
        self.total_wall_ns += other.total_wall_ns;
        self.untracked_ns += other.untracked_ns;
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            debug_assert_eq!(a.name, b.name);
            a.ns += b.ns;
            a.calls += b.calls;
            a.allocs += b.allocs;
            a.alloc_bytes += b.alloc_bytes;
        }
        for (a, b) in self.subsystems.iter_mut().zip(&other.subsystems) {
            debug_assert_eq!(a.name, b.name);
            a.ns += b.ns;
            a.ops += b.ops;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_unique() {
        let mut seen = Vec::new();
        for s in Stage::ALL {
            assert!(!seen.contains(&s.label()), "duplicate {}", s.label());
            seen.push(s.label());
        }
        for s in Subsystem::ALL {
            assert!(!seen.contains(&s.label()), "duplicate {}", s.label());
            seen.push(s.label());
        }
    }

    #[test]
    fn totality_holds_by_construction() {
        let mut p = HostProf::new();
        let t = HostProf::begin();
        std::hint::black_box(0u64);
        p.end_stage(Stage::Retire, t);
        let t = HostProf::begin();
        p.end_sub(Subsystem::SchedWake, t);
        // A wall shorter than the tracked sum must clamp, never underflow.
        let tight = p.clone().into_profile(10, 5, 0);
        assert_eq!(tight.untracked_ns, 0);
        assert!(tight.total_wall_ns >= tight.tracked_ns());
        // A generous wall leaves the remainder as untracked.
        let wide = p.into_profile(10, 5, u64::MAX / 2);
        assert_eq!(
            wide.tracked_ns() + wide.untracked_ns,
            wide.total_wall_ns,
            "stages + untracked partition the wall"
        );
    }

    #[test]
    fn fold_sums_fields() {
        let mut a = HostProf::new();
        let t = HostProf::begin();
        a.end_stage(Stage::Fetch, t);
        let mut p1 = a.clone().into_profile(100, 50, 1_000_000);
        let p2 = a.into_profile(200, 70, 2_000_000);
        p1.fold(&p2);
        assert_eq!(p1.cycles, 300);
        assert_eq!(p1.retired, 120);
        assert_eq!(p1.total_wall_ns, 3_000_000);
        assert_eq!(p1.stages[4].calls, 2);
    }

    #[test]
    fn mem_report_folds_into_subsystems() {
        let mut p = HostProf::new();
        p.fold_mem(&MemProfReport {
            mshr_ns: 7,
            mshr_ops: 3,
            mlp_ns: 5,
            mlp_ops: 2,
            shared_llc_ns: 11,
            shared_llc_ops: 1,
        });
        let prof = p.into_profile(1, 1, 100);
        let get = |n: &str| {
            prof.subsystems
                .iter()
                .find(|s| s.name == n)
                .expect("present")
                .clone()
        };
        assert_eq!(get("mshr_heap").ns, 7);
        assert_eq!(get("mlp_heap").ops, 2);
        assert_eq!(get("shared_llc").ns, 11);
    }
}
