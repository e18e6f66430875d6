//! The assembled memory hierarchy of one SM: its L1 over an L2 over
//! DRAM, fed by the coalescer. Each CTA shard of a launch owns one.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::coalesce::coalesce_batch;
use crate::dram::{Dram, DramConfig};
use serde::{Deserialize, Serialize};

/// Hierarchy-wide configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// DRAM timing.
    pub dram: DramConfig,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// Additional latency of an L2 hit.
    pub l2_latency: u64,
    /// Latency of a shared-memory access.
    pub shared_latency: u64,
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig::l1_default(),
            l2: CacheConfig::l2_default(),
            dram: DramConfig::default(),
            l1_latency: 28,
            l2_latency: 160,
            shared_latency: 24,
        }
    }
}

/// Aggregate statistics of the hierarchy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// Warp-level memory instructions served.
    pub warp_accesses: u64,
    /// Coalesced line transactions generated.
    pub transactions: u64,
    /// L1 statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// DRAM transactions.
    pub dram_transactions: u64,
}

impl HierarchyStats {
    /// Accumulates another hierarchy's counters into this one (used to
    /// merge per-shard hierarchies after a CTA-parallel launch).
    pub fn merge(&mut self, other: &HierarchyStats) {
        self.warp_accesses += other.warp_accesses;
        self.transactions += other.transactions;
        self.l1.hits += other.l1.hits;
        self.l1.misses += other.l1.misses;
        self.l1.writebacks += other.l1.writebacks;
        self.l2.hits += other.l2.hits;
        self.l2.misses += other.l2.misses;
        self.l2.writebacks += other.l2.writebacks;
        self.dram_transactions += other.dram_transactions;
    }
}

/// Result of servicing one warp memory instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which all transactions have completed.
    pub ready_at: u64,
    /// Number of unique line transactions.
    pub transactions: u32,
}

/// The device memory hierarchy (timing side only — data moves through
/// [`crate::DeviceMemory`]).
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    dram: Dram,
    warp_accesses: u64,
    transactions: u64,
}

impl MemoryHierarchy {
    /// Builds one SM's hierarchy.
    pub fn new(cfg: HierarchyConfig) -> MemoryHierarchy {
        MemoryHierarchy {
            cfg,
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            dram: Dram::new(cfg.dram),
            warp_accesses: 0,
            transactions: 0,
        }
    }

    /// Services a warp's global-memory instruction: coalesces the lane
    /// addresses and walks each unique line through L1 → L2 → DRAM.
    ///
    /// `now` is the issue cycle; the warp may resume at
    /// `AccessOutcome::ready_at`.
    pub fn access_global(
        &mut self,
        now: u64,
        addrs: &[u64],
        width_bytes: u32,
        write: bool,
    ) -> AccessOutcome {
        self.warp_accesses += 1;
        let co = coalesce_batch(addrs, width_bytes);
        let line = self.cfg.l1.line_bytes as u64;
        let mut ready = now;
        for &line_addr in co.lines() {
            self.transactions += 1;
            let t = if self.l1.access(line_addr, write) {
                now + self.cfg.l1_latency
            } else if self.l2.access(line_addr, write) {
                now + self.cfg.l1_latency + self.cfg.l2_latency
            } else {
                self.dram
                    .access(now + self.cfg.l1_latency + self.cfg.l2_latency, line)
            };
            ready = ready.max(t);
        }
        AccessOutcome {
            ready_at: ready,
            transactions: co.unique_lines(),
        }
    }

    /// Latency of a shared-memory access (conflict-free model).
    pub fn shared_latency(&self) -> u64 {
        self.cfg.shared_latency
    }

    /// Latency of a local-memory access (backed by L1).
    pub fn local_latency(&self) -> u64 {
        self.cfg.l1_latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            warp_accesses: self.warp_accesses,
            transactions: self.transactions,
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            dram_transactions: self.dram.transactions(),
        }
    }

    /// Resets caches, DRAM queue and counters.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.dram.reset();
        self.warp_accesses = 0;
        self.transactions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::default())
    }

    #[test]
    fn coalesced_access_is_one_transaction() {
        let mut m = h();
        let addrs = vec![0x1000u64; 32];
        let out = m.access_global(0, &addrs, 4, false);
        assert_eq!(out.transactions, 1);
        assert!(out.ready_at > 0);
    }

    #[test]
    fn diverged_access_is_slower_than_coalesced() {
        let mut m = h();
        let coalesced: Vec<u64> = (0..32).map(|i| 0x1_0000 + 4 * i as u64).collect();
        let diverged: Vec<u64> = (0..32).map(|i| 0x8_0000 + 4096 * i as u64).collect();
        let a = m.access_global(0, &coalesced, 4, false);
        let mut m2 = h();
        let b = m2.access_global(0, &diverged, 4, false);
        assert!(b.ready_at > a.ready_at, "diverged {b:?} vs coalesced {a:?}");
        assert_eq!(b.transactions, 32);
    }

    #[test]
    fn l1_hit_is_fast_on_reuse() {
        let mut m = h();
        let addrs = vec![0x2000u64];
        let first = m.access_global(0, &addrs, 4, false);
        let second = m.access_global(first.ready_at, &addrs, 4, false);
        assert_eq!(second.ready_at - first.ready_at, 28);
    }

    #[test]
    fn l2_hit_after_l1_eviction_pays_both_latencies() {
        let mut m = h();
        // Five lines 4 KiB apart share one 4-way L1 set, so the first
        // is evicted from L1 but stays in the larger L2.
        for k in 0..5u64 {
            m.access_global(0, &[0x3000 + 4096 * k], 4, false);
        }
        let out = m.access_global(1000, &[0x3000], 4, false);
        assert_eq!(out.ready_at - 1000, 28 + 160);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut m = h();
        m.access_global(0, &[0x1000, 0x2000], 4, true);
        let s = m.stats();
        assert_eq!(s.warp_accesses, 1);
        assert_eq!(s.transactions, 2);
        m.reset();
        assert_eq!(m.stats(), HierarchyStats::default());
    }
}
