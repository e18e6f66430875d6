//! Study-level integration tests: the qualitative results the paper
//! reports must emerge from our instrumentation on the synthetic
//! workloads.

use sassi_studies::{branch, inject, memdiv, overhead, value};
use sassi_workloads::by_name;

#[test]
fn sgemm_has_zero_dynamic_divergence() {
    let w = by_name("sgemm (small)").unwrap();
    let st = branch::run(w.as_ref());
    assert_eq!(
        st.row.dynamic_divergent, 0,
        "sgemm is fully convergent in Table 1: {:?}",
        st.row
    );
    assert!(st.row.dynamic_total > 0);
}

#[test]
fn streamcluster_has_zero_dynamic_divergence() {
    let w = by_name("streamcluster").unwrap();
    let st = branch::run(w.as_ref());
    assert_eq!(st.row.dynamic_divergent, 0);
}

#[test]
fn tpacf_and_heartwall_diverge_heavily() {
    let t = branch::run(by_name("tpacf (small)").unwrap().as_ref());
    assert!(
        t.row.dynamic_pct() > 10.0,
        "tpacf should diverge (paper: 25.2%), got {:.1}%",
        t.row.dynamic_pct()
    );
    let h = branch::run(by_name("heartwall").unwrap().as_ref());
    assert!(
        h.row.dynamic_pct() > 15.0,
        "heartwall should diverge heavily (paper: 42.1%), got {:.1}%",
        h.row.dynamic_pct()
    );
}

#[test]
fn bfs_divergence_varies_across_datasets() {
    let uniform = branch::run(by_name("bfs (1M)").unwrap().as_ref());
    let road = branch::run(by_name("bfs (UT)").unwrap().as_ref());
    assert!(uniform.row.dynamic_total > 0 && road.row.dynamic_total > 0);
    assert_ne!(
        (uniform.row.dynamic_pct() * 10.0) as i64,
        (road.row.dynamic_pct() * 10.0) as i64,
        "datasets should show different divergence"
    );
    // Per-branch data for Figure 5 exists and is sorted.
    assert!(uniform.per_branch.len() >= 2);
    assert!(uniform.per_branch[0].1.total_branches >= uniform.per_branch[1].1.total_branches);
}

#[test]
fn minife_csr_diverges_more_than_ell() {
    let csr = memdiv::run(by_name("miniFE (CSR)").unwrap().as_ref());
    let ell = memdiv::run(by_name("miniFE (ELL)").unwrap().as_ref());
    assert!(
        csr.fully_diverged > ell.fully_diverged,
        "CSR should be more address-diverged than ELL: {} vs {}",
        csr.fully_diverged,
        ell.fully_diverged
    );
    // ELL is dominated by low-divergence accesses.
    let ell_low: f64 = ell.pmf[..8].iter().sum();
    let csr_low: f64 = csr.pmf[..8].iter().sum();
    assert!(
        ell_low > csr_low,
        "ELL PMF should sit lower: {ell_low} vs {csr_low}"
    );
    // Matrices populated.
    assert!(csr.matrix.iter().flatten().sum::<u64>() > 0);
}

#[test]
fn value_profiling_finds_constant_bits_and_scalars() {
    let r = value::run(by_name("b+tree").unwrap().as_ref());
    assert!(
        r.dyn_scalar > 30.0,
        "b+tree traversals are value-similar (paper: 76% scalar), got {:.0}%",
        r.dyn_scalar
    );
    assert!(
        r.dyn_const_bits > 20.0,
        "constant bits expected, got {:.0}%",
        r.dyn_const_bits
    );
    let bp = value::run(by_name("backprop").unwrap().as_ref());
    assert!(bp.dyn_const_bits > 30.0);
}

#[test]
fn value_bit_pattern_renders() {
    let d = value::DstProfile {
        reg_num: 13,
        constant_ones: 1,
        constant_zeros: !1,
        is_scalar: true,
    };
    assert_eq!(
        value::bit_pattern(&d),
        "R13* <- [00000000000000000000000000000001]"
    );
}

#[test]
fn injection_profile_and_outcomes() {
    let w = by_name("nn").unwrap();
    let (space, cycles) = inject::profile(w.as_ref());
    assert!(space.total() > 1000, "nn writes registers constantly");
    assert!(cycles > 0);

    let campaign = inject::run_campaign(w.as_ref(), 20, 42);
    assert_eq!(campaign.runs, 20);
    let sum: u64 = campaign.counts.iter().map(|(_, c)| c).sum();
    assert_eq!(sum, 20, "every run categorized");
    // Masked outcomes must exist (most flips are benign).
    assert!(campaign.fraction(inject::Outcome::Masked) > 0.0);
}

#[test]
fn overhead_study_shapes() {
    let w = by_name("nn").unwrap();
    let row = overhead::run(w.as_ref());
    // Branch instrumentation is lighter than value profiling on the
    // kernel side (fewer sites), as in Table 3.
    assert!(
        row.slowdowns[0].kernel < row.slowdowns[2].kernel,
        "branches {}k vs value {}k",
        row.slowdowns[0].kernel,
        row.slowdowns[2].kernel
    );
    // Kernel slowdowns exceed whole-program slowdowns for CPU-bound nn.
    assert!(row.slowdowns[2].kernel > row.slowdowns[2].total);
    // The stub keeps the dominant share of the overhead (§9.1: ~80%).
    assert!(
        row.stub_fraction > 0.5,
        "ABI/spill floor should dominate, got {:.2}",
        row.stub_fraction
    );
    // Liveness ablation: far fewer saves than save-everything.
    let (live, all) = overhead::spill_ablation(w.as_ref());
    assert!(live < all / 2.0, "liveness {live} vs save-all {all}");
}

#[test]
fn save_everything_policy_is_transparent_but_slower() {
    use sassi_studies::overhead::run_spill_policy_ablation;
    let w = by_name("spmv (small)").unwrap();
    let (k_live, k_all) = run_spill_policy_ablation(w.as_ref());
    assert!(
        k_all > k_live * 1.05,
        "save-everything must cost noticeably more: {k_live:.1} vs {k_all:.1}"
    );
}

#[test]
fn reports_render_expected_sections() {
    use sassi_studies::report;
    let b = branch::run(by_name("sgemm (small)").unwrap().as_ref());
    let t1 = report::table1(std::slice::from_ref(&b));
    assert!(t1.contains("Table 1") && t1.contains("sgemm (small)"));
    let f5 = report::figure5(&b, 4);
    assert!(f5.contains("Figure 5"));

    let m = memdiv::run(by_name("spmv (small)").unwrap().as_ref());
    let f7 = report::figure7(std::slice::from_ref(&m));
    assert!(f7.contains("fully-diverged"));
    let f8 = report::figure8(&m);
    assert!(f8.lines().count() > 33, "32 matrix rows plus headers");

    let v = value::run(by_name("nn").unwrap().as_ref());
    assert!(report::table2(std::slice::from_ref(&v)).contains("const%"));

    let c = inject::run_campaign(by_name("nn").unwrap().as_ref(), 5, 1);
    let f10 = report::figure10(std::slice::from_ref(&c));
    assert!(f10.contains("Masked") && f10.contains("average"));

    let o = overhead::run(by_name("nn").unwrap().as_ref());
    let t3 = report::table3(std::slice::from_ref(&o));
    assert!(t3.contains("Harmonic mean") && t3.contains("Stub-handler ablation"));
}

/// The branch study (instrumentation-based) and the simulator's own
/// hardware counters measure the same events independently, on every
/// Table 1 row whose kernels have no consuming global atomic. In a
/// kernel with one (Parboil bfs), the instrumented run's different warp
/// interleaving changes which branches execute, so its counts differ.
#[test]
fn handler_counts_agree_with_simulator_statistics() {
    let mut checked = 0;
    for w in sassi_workloads::table1_set() {
        let mut mb = sassi_rt::ModuleBuilder::new();
        for k in w.kernels() {
            mb.add_kernel(k);
        }
        let module = mb.build(None).unwrap();
        if module.decoded().has_consuming_global_atomics() {
            continue;
        }
        let study = branch::run(w.as_ref());
        let mut rt = sassi_rt::Runtime::with_defaults();
        w.execute(&mut rt, &module, &mut sassi_sim::NoHandlers)
            .unwrap();
        let sum = |f: fn(&sassi_sim::LaunchStats) -> u64| -> u64 {
            rt.records().iter().map(|r| f(&r.result.stats)).sum()
        };
        let name = w.name();
        assert_eq!(
            sum(|s| s.cond_branches),
            study.row.dynamic_total,
            "{name}: conditional-branch counts agree"
        );
        assert_eq!(
            sum(|s| s.divergent_branches),
            study.row.dynamic_divergent,
            "{name}: divergent-branch counts agree"
        );
        checked += 1;
    }
    assert!(checked >= 9, "only {checked} Table 1 rows checked");
}
