//! The profiling studies' instrumentors on real apps, under both
//! interpreters: every trap runs a real trampoline (spills, fills and
//! parameter stores on the decoded run loop's row paths) and a real
//! handler, and the two modes must agree on every launch record
//! (cycles included), the app's output and the study's accumulated
//! state.

use parking_lot::Mutex;
use sassi::Sassi;
use sassi_rt::{LaunchRecord, ModuleBuilder, Runtime};
use sassi_sim::ExecMode;
use sassi_studies::{branch, memdiv, value};
use sassi_workloads::{by_name, RunFailure, Workload, WorkloadOutput};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Three of perfbench's `profile_studies` apps that stay fast in a
/// debug build: Parboil bfs, whose consuming frontier atomics make
/// every scheduler run one µop long, a stencil, and a clustering
/// kernel.
const APPS: [&str; 3] = ["bfs (1M)", "hotspot", "streamcluster"];

type Run = (
    Result<WorkloadOutput, RunFailure>,
    Vec<LaunchRecord>,
    String,
);

/// Runs `w` in `mode` under the instrumentor `build` makes around a
/// fresh `S`; returns the output, the launch records and the study
/// state `digest` renders.
fn run<S: Default>(
    w: &dyn Workload,
    mode: ExecMode,
    build: fn(Arc<Mutex<S>>) -> Sassi,
    digest: fn(&S) -> String,
) -> Run {
    let state = Arc::new(Mutex::new(S::default()));
    let mut sassi = build(state.clone());
    let mut mb = ModuleBuilder::new();
    for k in w.kernels() {
        mb.add_kernel(k);
    }
    let module = mb.build(Some(&sassi)).expect("build");
    let mut rt = Runtime::with_defaults();
    rt.device.exec_mode = mode;
    let out = w.execute(&mut rt, &module, &mut sassi);
    let records = rt.records().to_vec();
    let st = digest(&state.lock());
    (out, records, st)
}

/// JSON of a map keyed by instruction address, in address order.
fn ordered<T: Serialize>(m: &HashMap<u64, T>) -> String {
    serde_json::to_string(&m.iter().collect::<BTreeMap<_, _>>()).unwrap()
}

fn check<S: Default>(
    w: &dyn Workload,
    study: &str,
    build: fn(Arc<Mutex<S>>) -> Sassi,
    digest: fn(&S) -> String,
) {
    let name = format!("{} / {study}", w.name());
    let (out_d, rec_d, st_d) = run(w, ExecMode::Decoded, build, digest);
    let (out_r, rec_r, st_r) = run(w, ExecMode::Reference, build, digest);
    assert!(out_d.is_ok(), "{name}: {:?}", out_d.err());
    assert_eq!(out_d, out_r, "{name}: output diverges across exec modes");
    assert_eq!(rec_d.len(), rec_r.len(), "{name}: launch count diverges");
    for (d, r) in rec_d.iter().zip(&rec_r) {
        assert_eq!(d, r, "{name}: launch {} diverges", d.info.launch_index);
    }
    assert!(
        rec_d.iter().any(|r| r.result.stats.handler_calls > 0),
        "{name}: no trap fired"
    );
    assert_eq!(st_d, st_r, "{name}: study state diverges");
}

#[test]
fn instrumented_studies_agree_across_modes() {
    std::thread::scope(|s| {
        for app in APPS {
            s.spawn(move || {
                let w = by_name(app).expect(app);
                let w = w.as_ref();
                check(w, "branch", branch::instrumentor, |st| {
                    ordered(&st.branches)
                });
                check(w, "memdiv", memdiv::instrumentor, |st| {
                    serde_json::to_string(&st.counters).unwrap()
                });
                check(w, "value", value::instrumentor, |st| ordered(&st.instrs));
            });
        }
    });
}
