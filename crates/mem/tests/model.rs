//! Model-based property tests: the set-associative LRU cache must agree
//! with a straightforward reference implementation on random traces.

use proptest::prelude::*;
use sassi_mem::{Cache, CacheConfig};
use std::collections::VecDeque;

/// Reference: per-set LRU queues of tags.
struct RefCache {
    sets: u64,
    ways: usize,
    line: u64,
    queues: Vec<VecDeque<u64>>, // front = most recent
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        RefCache {
            sets: cfg.sets as u64,
            ways: cfg.ways as usize,
            line: cfg.line_bytes as u64,
            queues: (0..cfg.sets).map(|_| VecDeque::new()).collect(),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let lineno = addr / self.line;
        let set = (lineno % self.sets) as usize;
        let tag = lineno / self.sets;
        let q = &mut self.queues[set];
        if let Some(pos) = q.iter().position(|&t| t == tag) {
            q.remove(pos);
            q.push_front(tag);
            true
        } else {
            q.push_front(tag);
            if q.len() > self.ways {
                q.pop_back();
            }
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_matches_lru_model(
        addrs in prop::collection::vec(0u64..8192, 1..400),
        sets_pow in 0u32..4,
        ways in 1u32..5,
    ) {
        let cfg = CacheConfig { sets: 1 << sets_pow, ways, line_bytes: 32 };
        let mut dut = Cache::new(cfg);
        let mut model = RefCache::new(cfg);
        for (i, &a) in addrs.iter().enumerate() {
            let hit = dut.access(a, false);
            let want = model.access(a);
            prop_assert_eq!(hit, want, "access {} to {:#x} diverged", i, a);
        }
        // Hit/miss counters are consistent with the outcomes.
        prop_assert_eq!(dut.stats().accesses(), addrs.len() as u64);
    }

    #[test]
    fn probe_never_mutates(
        addrs in prop::collection::vec(0u64..4096, 1..100),
        probe_at in 0u64..4096,
    ) {
        let cfg = CacheConfig { sets: 4, ways: 2, line_bytes: 32 };
        let mut c = Cache::new(cfg);
        for &a in &addrs {
            c.access(a, false);
        }
        let s0 = c.stats();
        let p1 = c.probe(probe_at);
        let p2 = c.probe(probe_at);
        prop_assert_eq!(p1, p2);
        prop_assert_eq!(c.stats(), s0);
        // A probe hit implies an access hit (and the access keeps it
        // resident).
        if p1 {
            prop_assert!(c.access(probe_at, false));
        }
    }

    #[test]
    fn writebacks_only_from_dirty_lines(
        ops in prop::collection::vec((0u64..2048, any::<bool>()), 1..300),
    ) {
        let cfg = CacheConfig { sets: 2, ways: 2, line_bytes: 32 };
        let mut c = Cache::new(cfg);
        let mut writes = 0u64;
        for &(a, w) in &ops {
            c.access(a, w);
            writes += w as u64;
        }
        prop_assert!(c.stats().writebacks <= writes, "cannot write back more than was written");
    }

    #[test]
    fn reset_matches_fresh_cache(
        ops in prop::collection::vec((0u64..4096, any::<bool>(), 0u64..4096, 0u8..24), 1..400),
        sets_pow in 0u32..4,
        ways in 1u32..5,
    ) {
        // Each op is an access, a probe of another address, and (one
        // time in 24) a reset first. After every reset the cache must
        // behave exactly like a freshly built one fed the same suffix.
        let cfg = CacheConfig { sets: 1 << sets_pow, ways, line_bytes: 32 };
        let mut dut = Cache::new(cfg);
        let mut fresh = Cache::new(cfg);
        for (i, &(a, w, probe_at, r)) in ops.iter().enumerate() {
            if r == 0 {
                dut.reset();
                fresh = Cache::new(cfg);
            }
            prop_assert_eq!(dut.access(a, w), fresh.access(a, w), "access {} to {:#x}", i, a);
            prop_assert_eq!(dut.stats(), fresh.stats(), "stats after access {}", i);
            prop_assert_eq!(dut.probe(probe_at), fresh.probe(probe_at), "probe {:#x}", probe_at);
        }
    }
}
