//! The deterministic parallel campaign engine.
//!
//! Every `repro` sweep fans its independent work units (one per
//! workload, or one per injection for Figure 10) across a fixed-size
//! pool of worker threads. Determinism comes from the *plan/merge*
//! split, not from scheduling:
//!
//! 1. every unit is fully described before dispatch (workload name,
//!    injection site, per-site seed — never "the next draw of a shared
//!    RNG");
//! 2. workers claim units from an atomic counter in any order and
//!    write each result into the slot indexed by its unit;
//! 3. results are merged back in canonical (unit-index) order.
//!
//! Step 1 is why `--jobs 8` produces byte-identical `results/*.json`
//! to `--jobs 1`: no unit's inputs depend on which worker ran it or
//! when. Workers keep their own [`WorkloadCache`] so no simulator,
//! runtime or workload state is ever shared between threads.

use parking_lot::Mutex;
use sassi_workloads::{by_name, Workload};
use serde::Serialize;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

// The engine moves per-worker state and unit results across threads;
// these guarantees are what the `std::thread::scope` below relies on.
const _: () = {
    const fn assert_send<T: Send + ?Sized>() {}
    assert_send::<sassi::Sassi>();
    assert_send::<sassi_sim::Device>();
    assert_send::<sassi_rt::Runtime>();
    assert_send::<dyn Workload>();
};

/// Number of workers to use when the user gave no `--jobs`: the
/// machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Wall-clock and throughput accounting for one sweep.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Timing {
    /// Worker count the sweep ran with.
    pub jobs: usize,
    /// Work units completed.
    pub units: usize,
    /// End-to-end wall-clock seconds.
    pub wall_s: f64,
    /// Summed per-unit compute seconds across all workers.
    pub busy_s: f64,
}

impl Timing {
    /// Units completed per wall-clock second.
    pub fn units_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.units as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Estimated speedup over a 1-job run: total compute time divided
    /// by wall time. With one worker this is ~1.0 by construction; with
    /// N workers it approaches N when units are balanced.
    pub fn est_speedup(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.busy_s / self.wall_s
        } else {
            1.0
        }
    }

    /// Folds another sweep phase into this accounting (phases run back
    /// to back, so wall times add).
    pub fn merge(&mut self, other: &Timing) {
        self.units += other.units;
        self.wall_s += other.wall_s;
        self.busy_s += other.busy_s;
    }

    /// The one-line summary printed at the end of each sweep.
    pub fn summary(&self, label: &str) -> String {
        format!(
            "[{label}] {} units in {:.2} s — {:.2} units/s, jobs={}, est. speedup {:.2}x vs 1 job",
            self.units,
            self.wall_s,
            self.units_per_s(),
            self.jobs,
            self.est_speedup()
        )
    }
}

/// Per-worker workload instantiation: each worker thread owns its own
/// workload objects (and therefore its own simulator/runtime state per
/// execution), keyed by display name.
#[derive(Default)]
pub struct WorkloadCache {
    cache: HashMap<String, Box<dyn Workload>>,
}

impl WorkloadCache {
    /// Returns this worker's instance of the named workload,
    /// constructing it on first use.
    pub fn get(&mut self, name: &str) -> &dyn Workload {
        let boxed = self.cache.entry(name.to_owned()).or_insert_with(|| {
            by_name(name).unwrap_or_else(|| panic!("unknown workload `{name}`"))
        });
        &**boxed
    }
}

/// Runs every unit through a pool of `jobs` workers and returns the
/// results in unit order, plus the sweep's [`Timing`].
///
/// `init` builds one worker-local state (e.g. a [`WorkloadCache`]) per
/// worker thread; `run` computes one unit. Results are slotted by unit
/// index, so the output order — and, given order-independent units,
/// the output bytes — do not depend on `jobs` or scheduling.
///
/// # Panics
///
/// A panicking unit does not stop the sweep: its worker rebuilds its
/// state and goes on with the next unit. Once every unit has run,
/// `run_units` panics once, naming each failed unit's index and
/// message.
pub fn run_units<U, T, S, I, F>(jobs: usize, units: &[U], init: I, run: F) -> (Vec<T>, Timing)
where
    U: Sync,
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &U, usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(units.len().max(1));
    let started = Instant::now();
    let busy_ns = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = units.iter().map(|_| Mutex::new(None)).collect();
    let failed: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= units.len() {
                        break;
                    }
                    let t = Instant::now();
                    let out = catch_unwind(AssertUnwindSafe(|| run(&mut state, &units[i], i)));
                    busy_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    match out {
                        Ok(out) => *slots[i].lock() = Some(out),
                        Err(payload) => {
                            failed.lock().push((i, panic_message(payload.as_ref())));
                            // The unit may have left the state half
                            // updated; later units get a fresh one.
                            state = init();
                        }
                    }
                }
            });
        }
    });

    let mut failed = failed.into_inner();
    if !failed.is_empty() {
        failed.sort();
        let list: Vec<String> = failed
            .iter()
            .map(|(i, msg)| format!("unit {i}: {msg}"))
            .collect();
        panic!(
            "{} of {} units panicked: {}",
            failed.len(),
            units.len(),
            list.join("; ")
        );
    }

    let results = slots
        .into_iter()
        .map(|m| m.into_inner().expect("worker finished without a result"))
        .collect();
    let timing = Timing {
        jobs,
        units: units.len(),
        wall_s: started.elapsed().as_secs_f64(),
        busy_s: busy_ns.load(Ordering::Relaxed) as f64 / 1e9,
    };
    (results, timing)
}

/// The text of a panic payload (`panic!` with a literal or with a
/// formatted message), or a placeholder for other payload types.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_unit_order() {
        let units: Vec<usize> = (0..64).collect();
        let (out, timing) = run_units(
            4,
            &units,
            || (),
            |(), &u, i| {
                assert_eq!(u, i);
                u * 10
            },
        );
        assert_eq!(out, (0..64).map(|u| u * 10).collect::<Vec<_>>());
        assert_eq!(timing.units, 64);
        assert_eq!(timing.jobs, 4);
    }

    #[test]
    fn jobs_is_clamped_to_unit_count() {
        let (out, timing) = run_units(16, &[1u32, 2], || (), |(), &u, _| u);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(timing.jobs, 2);
    }

    #[test]
    fn empty_unit_list_is_fine() {
        let (out, timing) = run_units(4, &Vec::<u32>::new(), || (), |(), &u, _| u);
        assert!(out.is_empty());
        assert_eq!(timing.units, 0);
    }

    #[test]
    fn worker_state_is_per_thread() {
        // Each worker counts the units it ran; totals must cover all
        // units exactly once even though workers race to claim them.
        let units: Vec<usize> = (0..100).collect();
        let (out, _) = run_units(
            3,
            &units,
            || 0usize,
            |count, &u, _| {
                *count += 1;
                u
            },
        );
        assert_eq!(out, units);
    }

    #[test]
    fn a_panicking_unit_does_not_stop_the_others() {
        for jobs in [1, 2] {
            let units: Vec<usize> = (0..6).collect();
            let ran = Mutex::new(Vec::new());
            let err = catch_unwind(AssertUnwindSafe(|| {
                run_units(
                    jobs,
                    &units,
                    || (),
                    |(), &u, _| {
                        assert!(u != 2, "unit two is broken");
                        ran.lock().push(u);
                        u
                    },
                )
            }))
            .expect_err("a failed unit must fail the sweep");
            let mut ran = ran.into_inner();
            ran.sort();
            assert_eq!(ran, [0, 1, 3, 4, 5], "jobs={jobs}");
            let msg = panic_message(err.as_ref());
            assert!(
                msg.contains("1 of 6 units panicked: unit 2: unit two is broken"),
                "jobs={jobs}: {msg}"
            );
        }
    }
}
