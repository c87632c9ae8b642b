//! The Mask Cache (§3.2).
//!
//! The uops in a critical load's dependence chain differ across control-flow
//! paths, so the set of critical uops for a basic block must be the *union*
//! over all paths seen so far. The Mask Cache stores a 64-bit mask per basic
//! block (tagged by the block's first instruction) into which every
//! backwards-walk result is OR-merged, and it is periodically reset (every
//! 200k instructions) to forget control-flow paths that are no longer
//! active.

use cdf_isa::Pc;

#[derive(Clone, Copy, Debug)]
struct Entry {
    tag: u64,
    mask: u64,
    lru: u64,
}

/// Set-associative mask storage. Table 1: 4KB, 4-way.
///
/// ```
/// use cdf_core::mask_cache::MaskCache;
/// use cdf_isa::Pc;
///
/// let mut mc = MaskCache::new(64, 4);
/// mc.merge(Pc::new(8), 0b0101);
/// mc.merge(Pc::new(8), 0b0010); // another control-flow path
/// assert_eq!(mc.get(Pc::new(8)), Some(0b0111));
/// mc.reset();
/// assert_eq!(mc.get(Pc::new(8)), None);
/// ```
#[derive(Clone, Debug)]
pub struct MaskCache {
    sets: usize,
    ways: usize,
    entries: Vec<Option<Entry>>,
    clock: u64,
    merges: u64,
    /// Bumped whenever a merge, remove or reset can change what [`get`]
    /// returns (LRU refreshes alone do not count).
    ///
    /// [`get`]: MaskCache::get
    version: u64,
}

impl MaskCache {
    /// Creates a mask cache with `sets × ways` entries.
    pub fn new(sets: usize, ways: usize) -> MaskCache {
        MaskCache {
            entries: vec![None; sets * ways],
            sets,
            ways,
            clock: 0,
            merges: 0,
            version: 0,
        }
    }

    fn set_range(&self, block_start: Pc) -> std::ops::Range<usize> {
        let set = block_start.index() % self.sets;
        set * self.ways..(set + 1) * self.ways
    }

    /// The accumulated mask for a block, if present.
    pub fn get(&self, block_start: Pc) -> Option<u64> {
        let range = self.set_range(block_start);
        let tag = block_start.index() as u64;
        self.entries[range]
            .iter()
            .flatten()
            .find(|e| e.tag == tag)
            .map(|e| e.mask)
    }

    /// OR-merges `mask` into the block's entry, allocating (LRU victim) if
    /// absent. Returns the merged mask.
    pub fn merge(&mut self, block_start: Pc, mask: u64) -> u64 {
        self.clock += 1;
        self.merges += 1;
        let clock = self.clock;
        let range = self.set_range(block_start);
        let ways = &mut self.entries[range];
        let tag = block_start.index() as u64;
        if let Some(e) = ways.iter_mut().flatten().find(|e| e.tag == tag) {
            if e.mask | mask != e.mask {
                e.mask |= mask;
                self.version += 1;
            }
            e.lru = clock;
            return e.mask;
        }
        self.version += 1;
        let slot = ways
            .iter_mut()
            .min_by_key(|e| e.as_ref().map(|e| e.lru).unwrap_or(0))
            .expect("ways > 0");
        *slot = Some(Entry {
            tag,
            mask,
            lru: clock,
        });
        mask
    }

    /// Removes a block's entry (used when a block's criticality density is
    /// out of the useful range, §3.2).
    pub fn remove(&mut self, block_start: Pc) {
        let range = self.set_range(block_start);
        let tag = block_start.index() as u64;
        for e in &mut self.entries[range] {
            if e.map(|e| e.tag) == Some(tag) {
                *e = None;
                self.version += 1;
            }
        }
    }

    /// Clears all entries (the periodic 200k-instruction reset).
    pub fn reset(&mut self) {
        self.entries.fill(None);
        self.version += 1;
    }

    /// The contents version (see the `version` field).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of merges performed (energy accounting).
    pub fn merges(&self) -> u64 {
        self.merges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_across_paths() {
        let mut mc = MaskCache::new(4, 2);
        assert_eq!(mc.get(Pc::new(0)), None);
        assert_eq!(mc.merge(Pc::new(0), 0b1000), 0b1000);
        assert_eq!(mc.merge(Pc::new(0), 0b0001), 0b1001);
        assert_eq!(mc.get(Pc::new(0)), Some(0b1001));
        assert_eq!(mc.merges(), 2);
    }

    #[test]
    fn remove_is_targeted() {
        let mut mc = MaskCache::new(4, 2);
        mc.merge(Pc::new(0), 1);
        mc.merge(Pc::new(1), 2);
        mc.remove(Pc::new(0));
        assert_eq!(mc.get(Pc::new(0)), None);
        assert_eq!(mc.get(Pc::new(1)), Some(2));
    }

    #[test]
    fn version_moves_only_when_a_lookup_can_change() {
        let mut mc = MaskCache::new(4, 2);
        let mut v = mc.version();
        let mut changed = |mc: &MaskCache| {
            let moved = mc.version() != v;
            v = mc.version();
            moved
        };
        mc.merge(Pc::new(0), 0b11);
        assert!(changed(&mc), "allocation");
        mc.merge(Pc::new(0), 0b01);
        assert!(!changed(&mc), "a subset merge only refreshes LRU");
        mc.merge(Pc::new(0), 0b100);
        assert!(changed(&mc), "new bits");
        mc.remove(Pc::new(9));
        assert!(!changed(&mc), "removing an absent block");
        mc.remove(Pc::new(0));
        assert!(changed(&mc), "removal");
        mc.reset();
        assert!(changed(&mc), "reset");
    }

    #[test]
    fn lru_eviction_in_set() {
        let mut mc = MaskCache::new(1, 2);
        mc.merge(Pc::new(0), 1);
        mc.merge(Pc::new(1), 2);
        mc.merge(Pc::new(0), 4); // refresh 0
        mc.merge(Pc::new(2), 8); // evicts 1 (LRU)
        assert!(mc.get(Pc::new(0)).is_some());
        assert_eq!(mc.get(Pc::new(1)), None);
        assert!(mc.get(Pc::new(2)).is_some());
    }

    #[test]
    fn reset_clears_everything() {
        let mut mc = MaskCache::new(4, 4);
        for i in 0..16 {
            mc.merge(Pc::new(i), 1 << i);
        }
        mc.reset();
        for i in 0..16 {
            assert_eq!(mc.get(Pc::new(i)), None);
        }
    }
}
