//! Criterion benchmark: the memory-path fast paths of PR 5.
//!
//! `Cache::access` is measured on its three regimes — repeat hits to
//! the most recently touched line (the MRU probe), hits that need a
//! way scan, and a miss stream that exercises victim selection — and
//! the batch coalescer is measured head-to-head against the per-lane
//! reference entry on the warp shapes the hierarchy actually issues
//! (unit-stride, strided and scattered), all on persistent warm state:
//! the cache and the address buffers are built once outside the timed
//! loop. The `hierarchy` cases time what every launch pays per CTA
//! shard before any kernel work: building a default hierarchy (a
//! zero-allocated tag store) and resetting a warm one (an epoch bump).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use sassi_mem::{
    coalesce_addresses, coalesce_batch, Cache, CacheConfig, HierarchyConfig, MemoryHierarchy,
    LINE_BYTES,
};

fn warm_cache() -> Cache {
    let mut c = Cache::new(CacheConfig {
        sets: 64,
        ways: 4,
        line_bytes: LINE_BYTES,
    });
    // Fill every way of every set so hit benchmarks never miss.
    for way in 0..4u64 {
        for set in 0..64u64 {
            c.access((way * 64 + set) * LINE_BYTES as u64, false);
        }
    }
    c
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_access");
    g.throughput(Throughput::Elements(1));

    // Same line every iteration: answered by the MRU key compare, no
    // way scan.
    let mut cache = warm_cache();
    g.bench_function("mru_repeat_hit", |b| {
        b.iter(|| black_box(cache.access(black_box(0), false)))
    });

    // Alternating lines in different sets: every access hits, but the
    // MRU key never matches, so each one pays the way scan.
    let mut cache = warm_cache();
    let pair = [0u64, 7 * LINE_BYTES as u64];
    let mut i = 0usize;
    g.bench_function("scan_hit", |b| {
        b.iter(|| {
            i = (i + 1) & 1;
            black_box(cache.access(black_box(pair[i]), false))
        })
    });

    // A streaming walk far larger than the cache: every access misses
    // and evicts (dirty lines, so writebacks are exercised too).
    let mut cache = warm_cache();
    let mut addr = 0u64;
    g.bench_function("miss_evict", |b| {
        b.iter(|| {
            addr = addr.wrapping_add(LINE_BYTES as u64);
            black_box(cache.access(black_box(addr), true))
        })
    });
    g.finish();
}

/// The three warp shapes of the divergence studies: fully coalesced,
/// strided across a few lines, and fully diverged.
fn lane_patterns() -> Vec<(&'static str, Vec<u64>)> {
    let unit: Vec<u64> = (0..32u64).map(|l| 0x1000 + 4 * l).collect();
    let strided: Vec<u64> = (0..32u64).map(|l| 0x1000 + 64 * l).collect();
    let scattered: Vec<u64> = (0..32u64)
        .map(|l| 0x1000 + (l * 2654435761) % 65536)
        .collect();
    vec![
        ("unit_stride", unit),
        ("strided", strided),
        ("scattered", scattered),
    ]
}

fn bench_coalesce(c: &mut Criterion) {
    for (name, addrs) in lane_patterns() {
        let group_name = format!("coalesce/{name}");
        let mut g = c.benchmark_group(&group_name);
        g.throughput(Throughput::Elements(addrs.len() as u64));
        g.bench_function("batch", |b| {
            b.iter(|| black_box(coalesce_batch(black_box(&addrs), 4)))
        });
        g.bench_function("per_lane", |b| {
            b.iter(|| black_box(coalesce_addresses(black_box(&addrs), 4)))
        });
        g.finish();
    }
}

fn bench_hierarchy(c: &mut Criterion) {
    let mut g = c.benchmark_group("hierarchy");
    g.bench_function("new", |b| {
        b.iter(|| black_box(MemoryHierarchy::new(black_box(HierarchyConfig::default()))))
    });
    // A hierarchy whose caches hold lines, as after a launch.
    let mut h = MemoryHierarchy::new(HierarchyConfig::default());
    let addrs: Vec<u64> = (0..32u64).map(|l| 0x1000 + 4096 * l).collect();
    h.access_global(0, &addrs, 4, true);
    g.bench_function("reset", |b| {
        b.iter(|| {
            h.reset();
            black_box(&h);
        })
    });
    g.finish();
}

criterion_group!(benches, bench_cache, bench_coalesce, bench_hierarchy);
criterion_main!(benches);
