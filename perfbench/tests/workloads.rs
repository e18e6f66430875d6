//! The benchmark's own checks: its apps exist, every workload completes
//! a minimal run without failures, tracing does not change what is
//! simulated, and the timing wrapper keeps CTA-parallel launches forked.

use perfbench::end_to_end;
use perfbench::suite::{Counts, Kind, Options, Suite, SITES_PER_APP};
use perfbench::trace::Tracer;
use sassi_bench::campaigns::FIG10_SEED;

fn minimal() -> Options {
    Options {
        seed: 0,
        campaign_seed: FIG10_SEED,
    }
}

#[test]
fn every_app_name_resolves() {
    for kind in Kind::ALL {
        for name in kind.apps() {
            assert!(
                sassi_workloads::by_name(name).is_some(),
                "{}: unknown app `{name}`",
                kind.name()
            );
        }
    }
}

#[test]
fn minimal_run_of_each_workload_completes() {
    for kind in Kind::ALL {
        let r = end_to_end(kind, &minimal(), 0.0, 1).expect("set-up succeeds");
        assert_eq!(r.failed, 0, "{}: {:?}", kind.name(), r.notes);
        assert!(r.correct, "{}: {:?}", kind.name(), r.notes);
        assert_eq!(
            r.attempted as usize,
            kind.apps().len() * kind_runs_per_app(kind)
        );
        assert!(r.metric("runs_per_s").is_some_and(|v| v > 0.0));
    }
}

fn kind_runs_per_app(kind: Kind) -> usize {
    match kind {
        Kind::ProfileStudies => 3,
        Kind::InjectCampaign => SITES_PER_APP,
        _ => 1,
    }
}

#[test]
fn traced_and_untraced_runs_agree() {
    for kind in Kind::ALL {
        let suite = Suite::setup(kind, &minimal()).expect("set-up succeeds");
        let tracer = Tracer::default();
        let mut counts = Counts::default();
        for i in 0..suite.len() {
            let plain = suite.run_untraced(i);
            let traced = suite.run_traced(i, &tracer, &mut counts);
            assert!(plain.ok, "{} {}", kind.name(), suite.key(i));
            assert_eq!(plain, traced, "{} {}", kind.name(), suite.key(i));
        }
        assert!(counts.warp_instrs > 0);
    }
}

#[test]
fn timing_wrapper_still_forks_shards() {
    let suite = Suite::setup(Kind::NativeSharded, &minimal()).expect("set-up succeeds");
    if suite.jobs() < 2 {
        eprintln!("one core: native_sharded runs serially, nothing forks");
        return;
    }
    let tracer = Tracer::default();
    let mut counts = Counts::default();
    for i in 0..suite.len() {
        assert!(suite.run_traced(i, &tracer, &mut counts).ok);
    }
    assert!(counts.shard_forks > 0, "no launch forked shard runtimes");
}

/// Prints `expected/profile_studies.json` as the code at hand computes
/// it. After a change that alters a study result on purpose, regenerate
/// the file with
/// `cargo test --release --test workloads -- --ignored --nocapture print_expected_study_digests`.
#[test]
#[ignore]
fn print_expected_study_digests() {
    let suite = Suite::setup(Kind::ProfileStudies, &minimal()).expect("set-up succeeds");
    let mut lines: Vec<String> = (0..suite.len())
        .map(|i| {
            format!(
                "  \"{}\": \"{:016x}\"",
                suite.key(i),
                suite.run_untraced(i).digest
            )
        })
        .collect();
    lines.sort();
    println!("{{\n{}\n}}", lines.join(",\n"));
}
