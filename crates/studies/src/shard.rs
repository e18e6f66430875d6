//! The one shard-state pattern every accumulating study shares.
//!
//! A study handler holds its accumulator as `Arc<Mutex<S>>`. When a
//! CTA-parallel launch forks the handler, each shard gets a fresh `S`
//! and the shard's join folds it back into the parent with
//! [`Merge::merge`], in canonical shard order.

use parking_lot::Mutex;
use sassi::{Handler, HandlerShard, Sassi};
use sassi_workloads::{execute_with_jobs, Workload};
use std::sync::Arc;

/// A handler accumulator whose per-shard copies fold into one.
///
/// `merge` must be commutative and `Default` must be its identity, so
/// the merged state does not depend on how CTAs were split into
/// shards.
pub trait Merge: Default + Send + 'static {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: &Self);
}

/// The `Handler::fork` body: a fresh `S` for the shard, the handler
/// `make` builds around it, and a join merging it into `parent`.
pub(crate) fn fork<S: Merge>(
    parent: &Arc<Mutex<S>>,
    make: impl FnOnce(Arc<Mutex<S>>) -> Box<dyn Handler>,
) -> Option<HandlerShard> {
    let shard = Arc::new(Mutex::new(S::default()));
    let parent = parent.clone();
    let handler = make(shard.clone());
    Some(HandlerShard {
        handler,
        join: Box::new(move || parent.lock().merge(&shard.lock())),
    })
}

/// Runs `w` under the instrumentor `build` makes around a fresh `S`,
/// with `cta_jobs` inner worker threads per launch, and returns the
/// merged state.
///
/// # Panics
///
/// Panics if the instrumented run does not complete.
pub(crate) fn run<S: Merge>(
    w: &dyn Workload,
    cta_jobs: usize,
    build: fn(Arc<Mutex<S>>) -> Sassi,
) -> S {
    let state = Arc::new(Mutex::new(S::default()));
    let mut sassi = build(state.clone());
    let report = execute_with_jobs(w, Some(&mut sassi), None, cta_jobs);
    assert!(
        report.output.is_ok(),
        "{}: {:?}",
        w.name(),
        report.output.err()
    );
    let merged = std::mem::take(&mut *state.lock());
    merged
}
