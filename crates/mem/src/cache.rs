//! Set-associative, write-back LRU caches: the L1 and L2 of a
//! [`MemoryHierarchy`](crate::MemoryHierarchy).

use serde::{Deserialize, Serialize};

/// Geometry of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Kepler-flavoured 16 KiB L1: 32 B lines, 4-way, 128 sets.
    pub fn l1_default() -> CacheConfig {
        CacheConfig {
            sets: 128,
            ways: 4,
            line_bytes: 32,
        }
    }

    /// Kepler-flavoured 2 MiB L2: 32 B lines, 16-way.
    pub fn l2_default() -> CacheConfig {
        CacheConfig {
            sets: 4096,
            ways: 16,
            line_bytes: 32,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes as u64
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in [0, 1]; zero when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// A set-associative write-back cache with LRU replacement.
///
/// Purely a tag store: data travels through [`crate::DeviceMemory`];
/// the cache decides hits, misses and writebacks. `sets` and
/// `line_bytes` are powers of two, so set/tag extraction is a
/// precomputed shift/mask rather than division, and an MRU probe
/// answers repeat accesses to the most recently touched line without
/// scanning the set — both bit-identical to the scanning path
/// (same hits, misses, writebacks and LRU ordering).
///
/// The tag store is four parallel primitive arrays indexed by line
/// slot (`set * ways + way`). Validity is an epoch: a line is valid
/// only while its fill epoch equals the cache's, and epoch 0 never
/// matches, so a freshly allocated all-zero store is an empty cache
/// and [`Cache::reset`] empties it by bumping one counter.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Per-slot tag.
    tags: Vec<u64>,
    /// Per-slot LRU stamp (larger = more recently used).
    lru: Vec<u64>,
    /// Per-slot fill epoch; the slot is valid iff it equals `epoch`.
    epochs: Vec<u32>,
    /// Per-slot dirty flag, meaningful only while the slot is valid.
    dirty: Vec<bool>,
    /// The current epoch, never 0.
    epoch: u32,
    tick: u64,
    stats: CacheStats,
    /// `addr >> line_shift` = line key (tag and set packed together).
    line_shift: u32,
    /// `key & set_mask` = set index.
    set_mask: u64,
    /// `key >> set_shift` = tag.
    set_shift: u32,
    /// Line key of the most recent access, or `u64::MAX` when none.
    /// The most recent access always leaves its line resident (a hit
    /// touches it, a miss fills it), so a matching key is a hit in
    /// the line at `mru_slot` with no tag scan.
    mru_key: u64,
    /// Slot index of the most recent access's line.
    mru_slot: u32,
}

impl Cache {
    /// Creates an empty cache. The tag store is allocated zeroed,
    /// which is already the empty state (epoch 0 is never valid).
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_bytes` is not a power of two, or if
    /// `ways` is zero.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.ways > 0, "ways must be nonzero");
        let n = (cfg.sets * cfg.ways) as usize;
        Cache {
            cfg,
            tags: vec![0; n],
            lru: vec![0; n],
            epochs: vec![0; n],
            dirty: vec![false; n],
            epoch: 1,
            tick: 0,
            stats: CacheStats::default(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: (cfg.sets - 1) as u64,
            set_shift: cfg.sets.trailing_zeros(),
            mru_key: u64::MAX,
            mru_slot: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Empties the cache and clears its statistics, in O(1): bumping
    /// the epoch invalidates every line at once. Only when the epoch
    /// counter wraps is the epoch store zeroed, after which the count
    /// restarts at 1. Afterwards the cache behaves exactly like a
    /// freshly built one (same hits, misses, writebacks and victims).
    pub fn reset(&mut self) {
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.epochs.fill(0);
                1
            }
        };
        self.tick = 0;
        self.stats = CacheStats::default();
        self.mru_key = u64::MAX;
        self.mru_slot = 0;
    }

    /// Performs one line access. Returns `true` on hit. On a miss the
    /// line is filled (allocate-on-miss for both reads and writes) and
    /// the victim, if dirty, counts as a writeback.
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        self.tick += 1;
        let key = addr >> self.line_shift;
        // MRU probe: equal keys mean same set and same tag, and the
        // most recent access's line is still resident by construction,
        // so this is a hit with no way scan. The bookkeeping matches
        // the scanning hit path exactly.
        if key == self.mru_key {
            let slot = self.mru_slot as usize;
            debug_assert!(
                self.epochs[slot] == self.epoch && self.tags[slot] == key >> self.set_shift
            );
            self.lru[slot] = self.tick;
            self.dirty[slot] |= write;
            self.stats.hits += 1;
            return true;
        }
        let ways = self.cfg.ways as usize;
        let base = (key & self.set_mask) as usize * ways;
        let tag = key >> self.set_shift;
        let epoch = self.epoch;
        // One pass over the set finds the hit, or else the victim: the
        // first invalid way, else the least recently used one (LRU
        // stamps are distinct, so there are no ties).
        let mut way = 0;
        let mut way_rank = u64::MAX;
        let lines = self.tags[base..base + ways]
            .iter()
            .zip(&self.epochs[base..base + ways])
            .zip(&self.lru[base..base + ways]);
        for (w, ((&t, &e), &lru)) in lines.enumerate() {
            // An invalid way ranks 0, a valid one by its LRU stamp + 1.
            let rank = if e != epoch {
                0
            } else if t == tag {
                let slot = base + w;
                self.lru[slot] = self.tick;
                self.dirty[slot] |= write;
                self.stats.hits += 1;
                self.mru_key = key;
                self.mru_slot = slot as u32;
                return true;
            } else {
                lru + 1
            };
            if rank < way_rank {
                way = w;
                way_rank = rank;
            }
        }

        self.stats.misses += 1;
        let slot = base + way;
        if self.epochs[slot] == epoch && self.dirty[slot] {
            self.stats.writebacks += 1;
        }
        self.tags[slot] = tag;
        self.epochs[slot] = epoch;
        self.dirty[slot] = write;
        self.lru[slot] = self.tick;
        self.mru_key = key;
        self.mru_slot = slot as u32;
        false
    }

    /// Probes without modifying state. Returns whether `addr` currently
    /// hits.
    pub fn probe(&self, addr: u64) -> bool {
        let ways = self.cfg.ways as usize;
        let key = addr >> self.line_shift;
        let base = (key & self.set_mask) as usize * ways;
        let tag = key >> self.set_shift;
        self.tags[base..base + ways]
            .iter()
            .zip(&self.epochs[base..base + ways])
            .any(|(&t, &e)| e == self.epoch && t == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            sets: 4,
            ways: 2,
            line_bytes: 32,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x100, false));
        assert!(c.access(0x100, false));
        assert!(c.access(0x11f, false), "same 32B line");
        assert!(!c.access(0x120, false), "next line misses");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets*line = 128).
        c.access(0x000, false);
        c.access(0x080, false);
        c.access(0x000, false); // refresh line 0
        c.access(0x100, false); // evicts 0x080 (LRU)
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x080, false);
        c.access(0x100, false); // evicts dirty 0x000
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn reset_clears() {
        let mut c = tiny();
        c.access(0x40, false);
        c.reset();
        assert!(!c.probe(0x40));
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn reset_forgets_dirty_lines() {
        let mut c = tiny();
        c.access(0x000, true);
        c.reset();
        // Refill the set past capacity: the stale dirty line is gone,
        // so no eviction writes it back.
        c.access(0x000, false);
        c.access(0x080, false);
        c.access(0x100, false);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn epoch_wraparound_invalidates_old_lines() {
        let mut c = tiny();
        c.access(0x020, true); // set 1, filled in epoch 1
        c.epoch = u32::MAX - 1; // as if 2^32 - 3 resets had passed
        c.access(0x000, true); // set 0
        c.reset(); // epoch u32::MAX
        assert!(!c.probe(0x020));
        assert!(!c.probe(0x000));
        c.access(0x080, true); // set 0
        c.reset(); // wraps to epoch 1, which must not revive 0x020
        assert_eq!(c.epoch, 1);
        for addr in [0x020, 0x000, 0x080] {
            assert!(!c.probe(addr), "{addr:#x} was filled before the wrap");
        }
        // Refilling set 0 of the 2-way cache past capacity evicts only
        // lines filled (clean) since the wrap.
        assert!(!c.access(0x020, false));
        assert!(!c.access(0x000, false));
        assert!(!c.access(0x080, false));
        assert!(!c.access(0x100, false));
        assert_eq!(c.stats().misses, 4);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn hit_rate_math() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        assert!((c.stats().hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn capacity_math() {
        assert_eq!(CacheConfig::l1_default().capacity(), 16 * 1024);
    }

    #[test]
    fn mru_repeat_hits_same_as_scan() {
        let mut c = tiny();
        c.access(0x100, false);
        for _ in 0..10 {
            assert!(c.access(0x100, false), "MRU repeat must hit");
        }
        // Write through the MRU probe marks the line dirty, so its
        // later eviction still counts a writeback.
        assert!(c.access(0x110, true), "same line via MRU");
        c.access(0x180, false);
        c.access(0x200, false); // evicts dirty 0x100 (2-way set)
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().hits, 11);
    }

    #[test]
    fn mru_survives_interleaved_sets_but_not_eviction() {
        let mut c = tiny();
        c.access(0x000, false);
        // A different set does not disturb the 0x000 residency, but it
        // steals the MRU slot; the next 0x000 access hits via scan.
        c.access(0x020, false);
        assert!(c.access(0x000, false));
        // Evict 0x000 by filling its set, then re-access: must miss.
        c.access(0x080, false);
        c.access(0x100, false);
        assert!(!c.access(0x000, false));
    }

    /// Differential check of the shift/mask + MRU fast path against a
    /// straightforward division-based LRU model, over a pseudo-random
    /// mix of reads and writes with heavy set conflicts.
    #[test]
    fn access_stream_matches_naive_model() {
        struct Naive {
            sets: u64,
            line: u64,
            ways: usize,
            // per set: (tag, dirty, lru), unordered
            v: Vec<Vec<(u64, bool, u64)>>,
            tick: u64,
            stats: CacheStats,
        }
        impl Naive {
            fn access(&mut self, addr: u64, write: bool) -> bool {
                self.tick += 1;
                let set = ((addr / self.line) % self.sets) as usize;
                let tag = addr / self.line / self.sets;
                if let Some(l) = self.v[set].iter_mut().find(|l| l.0 == tag) {
                    l.1 |= write;
                    l.2 = self.tick;
                    self.stats.hits += 1;
                    return true;
                }
                self.stats.misses += 1;
                if self.v[set].len() == self.ways {
                    let i = (0..self.ways).min_by_key(|&i| self.v[set][i].2).unwrap();
                    if self.v[set][i].1 {
                        self.stats.writebacks += 1;
                    }
                    self.v[set].remove(i);
                }
                self.v[set].push((tag, write, self.tick));
                false
            }
        }
        let cfg = CacheConfig {
            sets: 8,
            ways: 2,
            line_bytes: 32,
        };
        let mut c = Cache::new(cfg);
        let mut n = Naive {
            sets: 8,
            line: 32,
            ways: 2,
            v: vec![Vec::new(); 8],
            tick: 0,
            stats: CacheStats::default(),
        };
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..20_000 {
            // xorshift over a small footprint so repeats, conflicts
            // and evictions all occur often.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x % 96) * 17; // unaligned, ~51 distinct lines
            let write = x & 4 != 0;
            // Bias in some immediate repeats to exercise the MRU probe.
            let reps = if x & 3 == 0 { 2 } else { 1 };
            for _ in 0..reps {
                assert_eq!(c.access(addr, write), n.access(addr, write), "step {i}");
            }
        }
        assert_eq!(c.stats(), n.stats);
        assert!(n.stats.hits > 0 && n.stats.misses > 0 && n.stats.writebacks > 0);
    }
}
