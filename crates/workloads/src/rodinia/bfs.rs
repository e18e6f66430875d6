//! Rodinia-style `bfs`: one thread per *node* each level, with frontier
//! membership flags — most threads idle every level, the classic
//! low-warp-efficiency formulation (Table 1 reports 14.2% dynamic
//! divergence).

use crate::prelude::*;

/// The Rodinia-flavoured BFS.
#[derive(Clone, Copy, Debug)]
pub struct RodiniaBfs {
    /// Node count for the synthetic uniform graph.
    pub nodes: usize,
}

impl RodiniaBfs {
    /// Default dataset.
    pub fn new() -> RodiniaBfs {
        RodiniaBfs { nodes: 4096 }
    }

    fn graph(&self) -> data::CsrGraph {
        data::uniform_graph(self.nodes, 3, 0x161)
    }
}

impl Default for RodiniaBfs {
    fn default() -> RodiniaBfs {
        RodiniaBfs::new()
    }
}

/// Phase 1: frontier nodes label unvisited neighbours `updating`.
fn bfs_kernel1() -> KFunction {
    let mut b = KernelBuilder::kernel("rbfs_k1");
    let tid = b.global_tid_x();
    let n = b.param_u32(0);
    let row_ptr = b.param_ptr(1);
    let cols = b.param_ptr(2);
    let frontier = b.param_ptr(3);
    let visited = b.param_ptr(4);
    let updating = b.param_ptr(5);
    let cost = b.param_ptr(6);
    let inr = b.setp_u32_lt(tid, n);
    b.if_(inr, |b| {
        let ef = b.lea(frontier, tid, 2);
        let f = b.ld_global_u32(ef);
        let active = b.setp_u32_ne(f, 0u32);
        b.if_(active, |b| {
            let z = b.iconst(0);
            b.st_global_u32(ef, z);
            let erp = b.lea(row_ptr, tid, 2);
            let start = b.ld_global_u32(erp);
            let end = b.ld_global_u32_off(erp, 4);
            let ec0 = b.lea(cost, tid, 2);
            let my_cost = b.ld_global_u32(ec0);
            let nc = b.iadd(my_cost, 1u32);
            b.for_range(start, end, 1, |b, k| {
                let ecol = b.lea(cols, k, 2);
                let v = b.ld_global_u32(ecol);
                let ev = b.lea(visited, v, 2);
                let seen = b.ld_global_u32(ev);
                let fresh = b.setp_u32_eq(seen, 0u32);
                b.if_(fresh, |b| {
                    let ecost = b.lea(cost, v, 2);
                    b.st_global_u32(ecost, nc);
                    let eu = b.lea(updating, v, 2);
                    let one = b.iconst(1);
                    b.st_global_u32(eu, one);
                });
            });
        });
    });
    b.finish()
}

/// Phase 2: promote `updating` to `frontier`, set the continue flag.
fn bfs_kernel2() -> KFunction {
    let mut b = KernelBuilder::kernel("rbfs_k2");
    let tid = b.global_tid_x();
    let n = b.param_u32(0);
    let frontier = b.param_ptr(1);
    let visited = b.param_ptr(2);
    let updating = b.param_ptr(3);
    let go_again = b.param_ptr(4);
    let inr = b.setp_u32_lt(tid, n);
    b.if_(inr, |b| {
        let eu = b.lea(updating, tid, 2);
        let u = b.ld_global_u32(eu);
        let pend = b.setp_u32_ne(u, 0u32);
        b.if_(pend, |b| {
            let one = b.iconst(1);
            let ef = b.lea(frontier, tid, 2);
            b.st_global_u32(ef, one);
            let ev = b.lea(visited, tid, 2);
            b.st_global_u32(ev, one);
            let z = b.iconst(0);
            b.st_global_u32(eu, z);
            b.st_global_u32(go_again, one);
        });
    });
    b.finish()
}

impl Workload for RodiniaBfs {
    fn name(&self) -> String {
        "bfs".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![bfs_kernel1(), bfs_kernel2()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let g = self.graph();
        let n = g.nodes();
        rt.clock.add_host(0.5e-3);
        let d_rp = rt.alloc_u32(&g.row_ptr);
        let d_c = rt.alloc_u32(&g.cols);
        let mut frontier0 = vec![0u32; n];
        frontier0[0] = 1;
        let mut visited0 = vec![0u32; n];
        visited0[0] = 1;
        let mut cost0 = vec![u32::MAX; n];
        cost0[0] = 0;
        let d_f = rt.alloc_u32(&frontier0);
        let d_v = rt.alloc_u32(&visited0);
        let d_u = rt.alloc_zeroed_u32(n);
        let d_cost = rt.alloc_u32(&cost0);
        let d_go = rt.alloc_zeroed_u32(1);

        let dims = LaunchDims::linear(grid_for(n as u32, 256), 256);
        let mut rounds = 0u32;
        for _ in 0..n {
            rounds += 1;
            rt.write_u32(d_go, &[0]);
            launch(
                rt,
                module,
                "rbfs_k1",
                dims,
                &[
                    n as u64,
                    d_rp.addr,
                    d_c.addr,
                    d_f.addr,
                    d_v.addr,
                    d_u.addr,
                    d_cost.addr,
                ],
                handlers,
            )?;
            launch(
                rt,
                module,
                "rbfs_k2",
                dims,
                &[n as u64, d_f.addr, d_v.addr, d_u.addr, d_go.addr],
                handlers,
            )?;
            if rt.read_u32(d_go)[0] == 0 {
                break;
            }
        }
        let out = rt.read_u32(d_cost);
        let mut output = WorkloadOutput::new(vec![out]);
        output.summary.insert_str(0, &format!("rounds={rounds}\n"));
        Ok(output)
    }

    fn golden(&self) -> WorkloadOutput {
        let d = self.graph().bfs_distances();
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
