//! Sweep definitions, all routed through the parallel engine in
//! [`crate::exec`].
//!
//! Each sweep names its work units up front (one per workload; one per
//! *injection* for Figure 10), fans them across the worker pool, and
//! merges results in canonical order. The `repro` binary and the
//! determinism tests both call these functions, so "what the CLI does"
//! and "what the tests assert" cannot drift apart.

use crate::exec::{run_units, Timing, WorkloadCache};
use sassi_studies::inject::{self, InjectionCampaign, InjectionSite};
use sassi_studies::{branch, memdiv, overhead, value};
use sassi_workloads::{fig10_set, fig7_set, table1_set, table2_set, table3_set, Workload};
use serde::Serialize;

/// The campaign seed every `repro fig10` run uses.
pub const FIG10_SEED: u64 = 0xC0FFEE;

fn set_names(set: Vec<Box<dyn Workload>>) -> Vec<String> {
    set.iter().map(|w| w.name()).collect()
}

/// Fans one study function across a workload set, one unit per
/// workload, returning rows in set order. Each unit runs its kernel
/// launches on its own worker thread.
pub fn per_workload<R: Send>(
    jobs: usize,
    label: &str,
    names: &[String],
    study: impl Fn(&dyn Workload) -> R + Sync,
) -> (Vec<R>, Timing) {
    run_units(
        jobs,
        names,
        WorkloadCache::default,
        |cache, name: &String, _| {
            eprintln!("[{label}] {name}");
            study(cache.get(name))
        },
    )
}

/// Table 1: branch-divergence statistics.
pub fn table1(jobs: usize) -> (Vec<branch::BranchStudy>, Timing) {
    per_workload(jobs, "table1", &set_names(table1_set()), branch::run)
}

/// Figure 5: per-branch profiles for bfs 1M vs UT.
pub fn fig5(jobs: usize) -> (Vec<branch::BranchStudy>, Timing) {
    let names = ["bfs (1M)", "bfs (UT)"].map(String::from);
    per_workload(jobs, "fig5", &names, branch::run)
}

/// Figure 7: memory-divergence PMFs.
pub fn fig7(jobs: usize) -> (Vec<memdiv::MemDivStudy>, Timing) {
    per_workload(jobs, "fig7", &set_names(fig7_set()), memdiv::run)
}

/// Figure 8: miniFE CSR vs ELL access matrices.
pub fn fig8(jobs: usize) -> (Vec<memdiv::MemDivStudy>, Timing) {
    let names = ["miniFE (CSR)", "miniFE (ELL)"].map(String::from);
    per_workload(jobs, "fig8", &names, memdiv::run)
}

/// Table 2: value profiling.
pub fn table2(jobs: usize) -> (Vec<value::ValueRow>, Timing) {
    per_workload(jobs, "table2", &set_names(table2_set()), value::run)
}

/// Table 3: instrumentation overheads.
pub fn table3(jobs: usize) -> (Vec<overhead::OverheadRow>, Timing) {
    per_workload(jobs, "table3", &set_names(table3_set()), overhead::run)
}

/// Figure 10: error-injection campaigns over `names`, `runs`
/// injections per workload.
///
/// Two engine passes: first one unit per workload (profile + site
/// selection, each site's seed a pure function of campaign seed,
/// workload and site index), then one unit per *injection*. Outcomes
/// are tallied back per workload in site order, so the merged
/// campaigns are bit-identical to a serial run regardless of `jobs`.
pub fn fig10_named(
    names: &[String],
    runs: usize,
    seed: u64,
    jobs: usize,
) -> (Vec<InjectionCampaign>, Timing) {
    let (plans, mut timing) = run_units(
        jobs,
        names,
        WorkloadCache::default,
        |cache, name: &String, _| {
            eprintln!("[fig10] {name} ({runs} injections)");
            inject::plan_campaign(cache.get(name), runs, seed)
        },
    );

    // One unit per injection: (workload index, site).
    let units: Vec<(usize, InjectionSite)> = plans
        .iter()
        .enumerate()
        .flat_map(|(wi, p)| p.sites.iter().map(move |&s| (wi, s)))
        .collect();
    let (outcomes, inject_timing) = run_units(
        jobs,
        &units,
        WorkloadCache::default,
        |cache, &(wi, site), _| inject::run_one(cache.get(&names[wi]), site, plans[wi].watchdog),
    );
    timing.merge(&inject_timing);

    // Units were flattened in workload order, so outcomes regroup by
    // contiguous runs of the same workload index.
    let mut campaigns = Vec::with_capacity(names.len());
    let mut cursor = 0;
    for (wi, plan) in plans.iter().enumerate() {
        let n = plan.sites.len();
        campaigns.push(inject::tally(
            names[wi].clone(),
            &outcomes[cursor..cursor + n],
        ));
        cursor += n;
    }
    (campaigns, timing)
}

/// Figure 10 over the paper's benchmark set.
pub fn fig10(runs: usize, seed: u64, jobs: usize) -> (Vec<InjectionCampaign>, Timing) {
    let names = set_names(fig10_set());
    fig10_named(&names, runs, seed, jobs)
}

/// §9.1 stub-handler ablation rows.
pub fn ablation_stub(jobs: usize) -> (Vec<overhead::OverheadRow>, Timing) {
    let names = ["nn", "sad", "kmeans", "stencil", "spmv (small)"].map(String::from);
    per_workload(jobs, "ablation-stub", &names, overhead::run)
}

/// One row of the liveness-ablation table.
#[derive(Clone, Debug, Serialize)]
pub struct SpillRow {
    /// Workload display name.
    pub name: String,
    /// Average liveness-driven saves per site.
    pub live_saves: f64,
    /// Save-everything saves per site.
    pub all_saves: f64,
    /// Kernel slowdown with liveness-driven spills.
    pub k_live: f64,
    /// Kernel slowdown with save-everything spills.
    pub k_all: f64,
}

/// Liveness-driven vs save-everything spill ablation rows.
pub fn ablation_spill(jobs: usize) -> (Vec<SpillRow>, Timing) {
    let names = [
        "nn",
        "sgemm (small)",
        "bfs (1M)",
        "heartwall",
        "miniFE (CSR)",
    ]
    .map(String::from);
    per_workload(jobs, "ablation-spill", &names, |w| {
        let (live_saves, all_saves) = overhead::spill_ablation(w);
        let (k_live, k_all) = overhead::run_spill_policy_ablation(w);
        SpillRow {
            name: w.name(),
            live_saves,
            all_saves,
            k_live,
            k_all,
        }
    })
}
