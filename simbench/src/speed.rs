//! Host-speed normalisation of timings.
//!
//! A shared virtual machine runs slower for seconds to minutes at a time
//! while its neighbours are busy (the vCPU is not descheduled; it runs
//! slower while it runs), by up to 40%. A simulator change of a few percent
//! drowns in that. So every timed interval of an untraced run is followed
//! by a short, fixed probe computation that belongs to the benchmark, not
//! to the simulator: a sort, ordered-map inserts and hash-map updates,
//! which are branchy and allocate, as the simulator does. The interval is
//! then rescaled to a host on which the probe takes [`REFERENCE_PROBE_NS`]:
//! `raw × REFERENCE_PROBE_NS / probe`, with `probe` the median of the last
//! [`WINDOW`] probes. A change to the simulator moves the rescaled time as
//! it moves the raw time; a change of host speed moves raw time and probe
//! together and mostly cancels.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// The probe's duration on the reference host (a two-vCPU Intel Xeon
/// virtual machine, undisturbed). Rescaled timings are in nanoseconds of
/// that host.
pub const REFERENCE_PROBE_NS: f64 = 200_000.0;

/// Probes the host-speed estimate is the median of.
const WINDOW: usize = 5;

/// Elements sorted per probe.
const SORTED: usize = 3000;

/// Hash-map updates per probe, over [`KEYS`] keys.
const UPDATES: usize = 4000;
const KEYS: u64 = 4096;

struct Probe {
    recent: VecDeque<u64>,
    all: Vec<u64>,
    map: HashMap<u64, u64>,
    rng: u64,
}

impl Probe {
    fn next(&mut self) -> u64 {
        // xorshift64: fixed sequence, so every probe does the same work.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Runs the probe once; its duration in ns.
    fn run(&mut self) -> u64 {
        self.rng = 0x2545_F491_4F6C_DD1D;
        let mut v: Vec<u32> = (0..SORTED).map(|_| self.next() as u32).collect();
        let t = Instant::now();
        v.sort_unstable();
        let mut ordered = BTreeMap::new();
        for &e in v.iter().step_by(3) {
            ordered.insert(e.rotate_left(7), e);
        }
        black_box(&ordered);
        for _ in 0..UPDATES {
            let x = self.next();
            let k = x % KEYS;
            if x & 3 == 0 {
                self.map.remove(&k);
            } else {
                *self.map.entry(k).or_insert(0) += x >> 40;
            }
        }
        black_box(&self.map);
        t.elapsed().as_nanos() as u64
    }
}

thread_local!(static PROBE: RefCell<Probe> = RefCell::new(Probe {
    recent: VecDeque::with_capacity(WINDOW),
    all: Vec::new(),
    map: HashMap::new(),
    rng: 0,
}));

/// Runs the probe and returns `raw_ns`, an interval that just ended,
/// rescaled to the reference host's speed.
pub fn normalize(raw_ns: u64) -> f64 {
    PROBE.with(|p| {
        let p = &mut *p.borrow_mut();
        let ns = p.run();
        if p.recent.len() == WINDOW {
            p.recent.pop_front();
        }
        p.recent.push_back(ns);
        p.all.push(ns);
        let mut w: Vec<u64> = p.recent.iter().copied().collect();
        w.sort_unstable();
        raw_ns as f64 * REFERENCE_PROBE_NS / w[w.len() / 2].max(1) as f64
    })
}

/// Median duration in ns of every probe this thread has run (0 before the
/// first): the host speed the run saw, for the metadata line.
pub fn probe_median_ns() -> f64 {
    PROBE.with(|p| {
        let all: Vec<f64> = p.borrow().all.iter().map(|&ns| ns as f64).collect();
        crate::stats::median(&all)
    })
}
