//! The campaign engine's core guarantee: sweep results are
//! byte-identical for any `--jobs` value.
//!
//! These tests run the same sweeps the `repro` binary runs (through
//! `sassi_bench::campaigns`), once with 1 worker and once with 4, and
//! compare the *serialized* results — the same bytes `save_json`
//! writes under `results/`.

use sassi_bench::campaigns;
use sassi_studies::{branch, inject};
use sassi_workloads::by_name;
use serde::Serialize;

fn json<T: Serialize>(v: &T) -> String {
    serde_json::to_string_pretty(v).expect("serialize")
}

#[test]
fn injection_campaign_is_identical_across_job_counts() {
    let names = vec![String::from("nn")];
    let (serial, t1) = campaigns::fig10_named(&names, 8, 0xD15EA5E, 1);
    let (parallel, t4) = campaigns::fig10_named(&names, 8, 0xD15EA5E, 4);
    assert_eq!(json(&serial), json(&parallel));
    // Two engine passes per campaign: planning (1 unit) + injections (8).
    assert_eq!(t1.units, 9);
    assert_eq!(t4.units, 9);
    assert_eq!(t1.jobs, 1);
    // One workload in the plan pass clamps the pool; the injection
    // pass runs all 4 workers.
    assert!(serial[0].runs == 8);
}

#[test]
fn site_lists_are_a_pure_function_of_the_campaign_inputs() {
    let w = by_name("nn").expect("nn workload");
    let a = inject::plan_campaign(w.as_ref(), 12, 99);
    let b = inject::plan_campaign(w.as_ref(), 12, 99);
    assert_eq!(a.watchdog, b.watchdog);
    assert_eq!(json(&a.sites), json(&b.sites));
    // Site k must not depend on how many sites were drawn with it:
    // a 4-site plan is a strict prefix of the 12-site plan.
    let prefix = inject::plan_campaign(w.as_ref(), 4, 99);
    assert_eq!(json(&prefix.sites), json(&a.sites[..4].to_vec()));
    // And a different campaign seed moves the sites.
    let other = inject::plan_campaign(w.as_ref(), 12, 100);
    assert_ne!(json(&other.sites), json(&a.sites));
}

#[test]
fn branch_sweep_is_identical_across_job_counts() {
    let names = ["nn", "bfs (UT)", "gaussian"].map(String::from);
    let study = |w: &dyn sassi_workloads::Workload| branch::run(w).row;
    let (serial, _) = campaigns::per_workload(1, "test-branch", &names, study);
    let (parallel, _) = campaigns::per_workload(4, "test-branch", &names, study);
    assert_eq!(json(&serial), json(&parallel));
    // Rows come back in set order, not completion order.
    let row_names: Vec<&str> = serial.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(row_names, ["nn", "bfs (UT)", "gaussian"]);
}
