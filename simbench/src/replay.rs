//! Isolated layer replays. The functional executor runs each kernel and
//! records its branch and data-address streams; the predictor and the
//! memory systems then replay those streams alone, outside the core, so
//! their host cost per operation is measured without the pipeline around
//! them.
//!
//! The scheduler, rename and the load/store queue are private to
//! `cdf-core` and cannot be driven from outside it; timing them waits for
//! spans inside the simulator.

use cdf_bpred::{DirectionPredictor, TageConfig, TageScL};
use cdf_isa::Executor;
use cdf_mem::{
    AccessKind, AccessResult, MemConfig, MemoryHierarchy, MultiCoreMemory, SharedMemConfig,
};
use cdf_workloads::Workload;
use std::time::Instant;

/// Branch and data-access streams of one kernel.
#[derive(Clone, Debug, Default)]
pub struct Streams {
    /// Conditional branches: `(pc byte address, taken)`.
    pub branches: Vec<(u64, bool)>,
    /// Data accesses in program order: `(address, load or store)`.
    pub accesses: Vec<(u64, AccessKind)>,
}

/// Runs `w` functionally for up to `uops` uops and records its streams.
/// Branch pcs are byte addresses under `code_base`, as the core feeds its
/// predictor.
pub fn streams(w: &Workload, uops: u64, code_base: u64) -> Streams {
    let mut ex = Executor::new(&w.program, w.memory.clone());
    let mut s = Streams::default();
    for _ in 0..uops {
        let Ok(ev) = ex.step() else { break };
        if let Some(taken) = ev.branch_taken {
            s.branches.push((ev.pc.byte_addr(code_base), taken));
        }
        if let Some((addr, _)) = ev.load {
            s.accesses.push((addr, AccessKind::Load));
        }
        if let Some((addr, _)) = ev.store {
            s.accesses.push((addr, AccessKind::Store));
        }
    }
    s
}

/// Host ns and uops of `Executor::step` over up to `uops` uops of `w`.
pub fn isa(w: &Workload, uops: u64) -> (u64, u64) {
    let mut ex = Executor::new(&w.program, w.memory.clone());
    let t = Instant::now();
    let mut n = 0;
    while n < uops && ex.step().is_ok() {
        n += 1;
    }
    (t.elapsed().as_nanos() as u64, n)
}

/// Result of a predictor replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct BpredReplay {
    /// Host ns of the replay.
    pub ns: u64,
    /// Branches replayed.
    pub branches: u64,
    /// Branches whose prediction was wrong.
    pub mispredicts: u64,
}

/// Replays the branch stream through a fresh TAGE-SC-L: predict, repair
/// the history on a misprediction, train — the order the core uses.
pub fn bpred(s: &Streams, cfg: &TageConfig) -> BpredReplay {
    let mut p = TageScL::new(cfg.clone());
    let t = Instant::now();
    let mut wrong = 0;
    for &(pc, taken) in &s.branches {
        let pred = p.predict(pc);
        if pred.taken != taken {
            wrong += 1;
            p.recover(&pred, taken);
        }
        p.update(pc, taken, &pred);
    }
    BpredReplay {
        ns: t.elapsed().as_nanos() as u64,
        branches: s.branches.len() as u64,
        mispredicts: wrong,
    }
}

/// Result of a memory-system replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemReplay {
    /// Host ns of the replay.
    pub ns: u64,
    /// Accesses accepted (each logical access once).
    pub accesses: u64,
    /// Access attempts, rejected ones included.
    pub attempts: u64,
    /// Attempts rejected because MSHRs were full.
    pub rejections: u64,
    /// L1D `(hits, misses)`.
    pub l1d: (u64, u64),
    /// LLC `(hits, misses)`.
    pub llc: (u64, u64),
    /// Lines moved to or from DRAM.
    pub dram_lines: u64,
    /// MSHR fairness steals (shared replay only).
    pub steals: u64,
}

impl MemReplay {
    /// Adds `r`'s counts and time to these.
    pub fn add(&mut self, r: &MemReplay) {
        self.ns += r.ns;
        self.accesses += r.accesses;
        self.attempts += r.attempts;
        self.rejections += r.rejections;
        self.l1d = (self.l1d.0 + r.l1d.0, self.l1d.1 + r.l1d.1);
        self.llc = (self.llc.0 + r.llc.0, self.llc.1 + r.llc.1);
        self.dram_lines += r.dram_lines;
        self.steals += r.steals;
    }
}

/// Replays the access stream through a fresh private hierarchy, issuing one
/// access per cycle. An access rejected with full MSHRs is retried at its
/// `retry_at` and counted as a rejection.
pub fn mem(s: &Streams, cfg: &MemConfig) -> MemReplay {
    let mut h = MemoryHierarchy::new(cfg.clone());
    let mut r = MemReplay::default();
    let mut now = 0u64;
    let t = Instant::now();
    for &(addr, kind) in &s.accesses {
        loop {
            r.attempts += 1;
            match h.access(addr, kind, now, false) {
                AccessResult::Done(_) => break,
                AccessResult::Rejected(full) => {
                    r.rejections += 1;
                    now = full.retry_at.max(now + 1);
                }
            }
        }
        now += 1;
    }
    r.ns = t.elapsed().as_nanos() as u64;
    r.accesses = s.accesses.len() as u64;
    r.l1d = h.l1d_stats();
    r.llc = h.llc_stats();
    r.dram_lines = h.dram_stats().total();
    r
}

/// Replays two access streams on a two-core shared memory system, one
/// access per core per cycle in core order, until core 0's stream ends.
/// Rejected accesses stall their core until `retry_at`.
pub fn shared(victim: &Streams, corunner: &Streams, cfg: &MemConfig) -> MemReplay {
    let mut sys = MultiCoreMemory::new(SharedMemConfig {
        cores: 2,
        mem: cfg.clone(),
    });
    let streams = [&victim.accesses, &corunner.accesses];
    let mut next = [0usize; 2];
    let mut ready = [0u64; 2];
    let mut r = MemReplay::default();
    let mut now = 0u64;
    let t = Instant::now();
    while next[0] < streams[0].len() {
        for core in 0..2 {
            if next[core] >= streams[core].len() || ready[core] > now {
                continue;
            }
            let (addr, kind) = streams[core][next[core]];
            r.attempts += 1;
            match sys.access(core, addr, kind, now, false, 0) {
                AccessResult::Done(_) => {
                    next[core] += 1;
                    r.accesses += 1;
                }
                AccessResult::Rejected(full) => {
                    r.rejections += 1;
                    ready[core] = full.retry_at.max(now + 1);
                }
            }
        }
        now += 1;
    }
    r.ns = t.elapsed().as_nanos() as u64;
    r.llc = sys.llc_stats();
    r.dram_lines = sys.dram_stats().total();
    r.steals = sys.total_steals();
    r
}
