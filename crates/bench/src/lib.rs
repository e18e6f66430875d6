//! # sassi-bench — experiment regeneration
//!
//! The [`repro`](../repro/index.html) binary drives every experiment of
//! the paper's evaluation:
//!
//! ```text
//! repro table1          # branch divergence (Table 1)
//! repro fig5            # per-branch profiles, bfs 1M vs UT (Figure 5)
//! repro fig7            # memory-divergence PMFs (Figure 7)
//! repro fig8            # miniFE CSR vs ELL matrices (Figure 8)
//! repro table2          # value profiling (Table 2)
//! repro fig10 [runs]    # error injection (Figure 10), default 150 runs/app
//! repro table3          # instrumentation overheads (Table 3)
//! repro ablation-stub   # §9.1 stub-handler ablation
//! repro ablation-spill  # liveness-driven vs save-everything spills
//! repro all             # everything above
//! ```
//!
//! Results print as ASCII tables/figures and are also written as JSON
//! under `results/` for EXPERIMENTS.md bookkeeping.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaigns;
pub mod exec;

use serde::Serialize;
use std::path::Path;

/// Writes a JSON artifact under `results/`. `name` may contain `/` to
/// target a subdirectory (e.g. `timings/table1`).
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = Path::new("results").join(format!("{name}.json"));
    let created = path
        .parent()
        .is_none_or(|p| std::fs::create_dir_all(p).is_ok());
    if created {
        if let Ok(s) = serde_json::to_string_pretty(value) {
            let _ = std::fs::write(path, s);
        }
    }
}
