//! Parboil-style `bfs`: frontier-based breadth-first search.
//!
//! One kernel launch per BFS level; each thread expands one frontier
//! node, claiming unvisited neighbours with `atomicCAS` and appending
//! them to the next frontier with `atomicAdd`. Control flow is
//! data-dependent twice over (frontier membership, adjacency length),
//! which is why the paper's Table 1 and Figure 5 show its branch
//! behaviour varying so strongly across datasets.

use crate::prelude::*;

/// Which synthetic input to run (named after the paper's datasets).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BfsDataset {
    /// Uniform random graph (the `1M` input, scaled).
    OneM,
    /// Road-network-like lattice (New York).
    Ny,
    /// Road-network-like lattice (San Francisco), larger.
    Sf,
    /// Road-network-like lattice (Utah), sparser.
    Ut,
}

impl BfsDataset {
    /// All four datasets.
    pub fn all() -> [BfsDataset; 4] {
        [
            BfsDataset::OneM,
            BfsDataset::Ny,
            BfsDataset::Sf,
            BfsDataset::Ut,
        ]
    }

    fn label(self) -> &'static str {
        match self {
            BfsDataset::OneM => "1M",
            BfsDataset::Ny => "NY",
            BfsDataset::Sf => "SF",
            BfsDataset::Ut => "UT",
        }
    }

    fn graph(self) -> data::CsrGraph {
        match self {
            BfsDataset::OneM => data::uniform_graph(4096, 4, 0x1a),
            BfsDataset::Ny => data::road_graph(56, 56, 0x2b),
            BfsDataset::Sf => data::road_graph(72, 64, 0x3c),
            BfsDataset::Ut => data::road_graph(48, 48, 0x4d),
        }
    }
}

/// The Parboil-style BFS workload.
#[derive(Clone, Copy, Debug)]
pub struct ParboilBfs {
    /// Input dataset.
    pub dataset: BfsDataset,
}

impl ParboilBfs {
    /// BFS on the given dataset.
    pub fn new(dataset: BfsDataset) -> ParboilBfs {
        ParboilBfs { dataset }
    }
}

fn bfs_step_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("bfs_step");
    let tid = b.global_tid_x();
    let fsize = b.param_u32(0);
    let frontier = b.param_ptr(1);
    let row_ptr = b.param_ptr(2);
    let cols = b.param_ptr(3);
    let dist = b.param_ptr(4);
    let nextf = b.param_ptr(5);
    let nsize = b.param_ptr(6);
    let level = b.param_u32(7);
    let in_frontier = b.setp_u32_lt(tid, fsize);
    b.if_(in_frontier, |b| {
        let eu = b.lea(frontier, tid, 2);
        let u = b.ld_global_u32(eu);
        let erp = b.lea(row_ptr, u, 2);
        let start = b.ld_global_u32(erp);
        let end = b.ld_global_u32_off(erp, 4);
        b.for_range(start, end, 1, |b, k| {
            let ec = b.lea(cols, k, 2);
            let v = b.ld_global_u32(ec);
            let ed = b.lea(dist, v, 2);
            let unvisited = b.iconst(u32::MAX);
            let old = b.atom_cas_global(ed, unvisited, level);
            let claimed = b.setp_u32_eq(old, u32::MAX);
            b.if_(claimed, |b| {
                let one = b.iconst(1);
                let idx = b.atom_add_global(nsize, one);
                let en = b.lea(nextf, idx, 2);
                b.st_global_u32(en, v);
            });
        });
    });
    b.finish()
}

impl Workload for ParboilBfs {
    fn name(&self) -> String {
        format!("bfs ({})", self.dataset.label())
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![bfs_step_kernel()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let g = self.dataset.graph();
        let n = g.nodes();
        rt.clock.add_host(0.4e-3); // graph parsing / setup

        let row_ptr = rt.alloc_u32(&g.row_ptr);
        let cols = rt.alloc_u32(&g.cols);
        let mut dist_init = vec![u32::MAX; n];
        dist_init[0] = 0;
        let dist = rt.alloc_u32(&dist_init);
        let cap = g.edges().max(1);
        let f_a = rt.alloc_u32(&{
            let mut f = vec![0u32; cap];
            f[0] = 0;
            f
        });
        let f_b = rt.alloc_zeroed_u32(cap);
        let nsize = rt.alloc_zeroed_u32(1);

        let mut frontiers = [f_a, f_b];
        let mut fsize = 1u32;
        let mut level = 1u32;
        let mut rounds = 0u32;
        while fsize > 0 && level < 10_000 {
            rounds += 1;
            rt.write_u32(nsize, &[0]);
            let dims = LaunchDims::linear(grid_for(fsize, 128), 128);
            launch(
                rt,
                module,
                "bfs_step",
                dims,
                &[
                    fsize as u64,
                    frontiers[0].addr,
                    row_ptr.addr,
                    cols.addr,
                    dist.addr,
                    frontiers[1].addr,
                    nsize.addr,
                    level as u64,
                ],
                handlers,
            )?;
            fsize = rt.read_u32(nsize)[0];
            frontiers.swap(0, 1);
            level += 1;
        }

        let out = rt.read_u32(dist);
        rt.clock.add_host(0.1e-3); // result write-out

        // The host prints how many BFS rounds ran — stdout content that
        // is *not* derived from the output buffer (an injection can
        // perturb it while distances stay correct).
        let mut output = WorkloadOutput::new(vec![out]);
        output.summary.insert_str(0, &format!("rounds={rounds}\n"));
        Ok(output)
    }

    fn golden(&self) -> WorkloadOutput {
        let d = self.dataset.graph().bfs_distances();
        let rounds = d
            .iter()
            .filter(|&&x| x != u32::MAX)
            .max()
            .copied()
            .unwrap_or(0)
            + 1;
        let mut output = WorkloadOutput::new(vec![d]);
        output.summary.insert_str(0, &format!("rounds={rounds}\n"));
        output
    }
}
