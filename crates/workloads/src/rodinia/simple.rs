//! Rodinia-style kernels with simple host drivers: `nn` (nearest
//! neighbour), `pathfinder` (grid DP), `kmeans` (assignment step) and
//! `streamcluster` (weighted distance evaluation).

use crate::prelude::*;

// ---------------------------------------------------------------- nn --

/// `nn`: per-record Euclidean distance to a query point. Tiny,
/// CPU-bound, fully convergent.
#[derive(Clone, Copy, Debug)]
pub struct Nn {
    /// Record count.
    pub n: usize,
}

impl Nn {
    /// Default dataset.
    pub fn new() -> Nn {
        Nn { n: 2048 }
    }

    fn coords(&self) -> (Vec<u32>, Vec<u32>) {
        (
            data::random_f32_bits(self.n, 0xb1),
            data::random_f32_bits(self.n, 0xb2),
        )
    }
}

impl Default for Nn {
    fn default() -> Nn {
        Nn::new()
    }
}

fn nn_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("nn");
    let tid = b.global_tid_x();
    let n = b.param_u32(0);
    let xs = b.param_ptr(1);
    let ys = b.param_ptr(2);
    let out = b.param_ptr(3);
    let qx = b.param_f32(4);
    let qy = b.param_f32(5);
    let p = b.setp_u32_lt(tid, n);
    b.if_(p, |b| {
        let ex = b.lea(xs, tid, 2);
        let x = b.ld_global_f32(ex);
        let ey = b.lea(ys, tid, 2);
        let y = b.ld_global_f32(ey);
        let dx = b.fsub(x, qx);
        let dy = b.fsub(y, qy);
        let dx2 = b.fmul(dx, dx);
        let d2 = b.ffma(dy, dy, dx2);
        let d = b.fsqrt(d2);
        let eo = b.lea(out, tid, 2);
        b.st_global_u32(eo, d);
    });
    b.finish()
}

impl Workload for Nn {
    fn name(&self) -> String {
        "nn".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![nn_kernel()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let (xs, ys) = self.coords();
        rt.clock.add_host(0.25e-3); // record parsing dominates nn
        let dx = rt.alloc_u32(&xs);
        let dy = rt.alloc_u32(&ys);
        let dout = rt.alloc_zeroed_u32(self.n);
        let q = (0.5f32.to_bits() as u64, 0.25f32.to_bits() as u64);
        let dims = LaunchDims::linear(grid_for(self.n as u32, 256), 256);
        launch(
            rt,
            module,
            "nn",
            dims,
            &[self.n as u64, dx.addr, dy.addr, dout.addr, q.0, q.1],
            handlers,
        )?;
        let out = rt.read_u32(dout);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let (xs, ys) = self.coords();
        let out: Vec<u32> = xs
            .iter()
            .zip(&ys)
            .map(|(&xb, &yb)| {
                let dx = f32::from_bits(xb) - 0.5;
                let dy = f32::from_bits(yb) - 0.25;
                let d2 = dy.mul_add(dy, dx * dx);
                d2.sqrt().to_bits()
            })
            .collect();
        WorkloadOutput::new(vec![out])
    }
}

// -------------------------------------------------------- pathfinder --

/// `pathfinder`: row-by-row dynamic programming; each step takes the
/// min of three lower neighbours, with edge-lane divergence.
#[derive(Clone, Copy, Debug)]
pub struct Pathfinder {
    /// Columns.
    pub cols: usize,
    /// Rows.
    pub rows: usize,
}

impl Pathfinder {
    /// Default dataset.
    pub fn new() -> Pathfinder {
        Pathfinder {
            cols: 2048,
            rows: 12,
        }
    }

    fn grid(&self) -> Vec<Vec<u32>> {
        (0..self.rows)
            .map(|r| data::random_u32(self.cols, 100, 0xc0 + r as u64))
            .collect()
    }
}

impl Default for Pathfinder {
    fn default() -> Pathfinder {
        Pathfinder::new()
    }
}

fn pathfinder_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("pathfinder_step");
    let tid = b.global_tid_x();
    let n = b.param_u32(0);
    let prev = b.param_ptr(1);
    let row = b.param_ptr(2);
    let next = b.param_ptr(3);
    let p = b.setp_u32_lt(tid, n);
    b.if_(p, |b| {
        let ec = b.lea(prev, tid, 2);
        let center = b.ld_global_u32(ec);
        let best = b.var_u32(0u32);
        b.assign(best, center);
        // left neighbour (tid > 0)
        let nz = b.setp_u32_ne(tid, 0u32);
        b.if_(nz, |b| {
            let lm = b.isub(tid, 1u32);
            let el = b.lea(prev, lm, 2);
            let l = b.ld_global_u32(el);
            let m = b.umin(best, l);
            b.assign(best, m);
        });
        // right neighbour (tid < n-1)
        let nm1 = b.isub(n, 1u32);
        let has_r = b.setp_u32_lt(tid, nm1);
        b.if_(has_r, |b| {
            let rp = b.iadd(tid, 1u32);
            let er = b.lea(prev, rp, 2);
            let r = b.ld_global_u32(er);
            let m = b.umin(best, r);
            b.assign(best, m);
        });
        let ew = b.lea(row, tid, 2);
        let w = b.ld_global_u32(ew);
        let sum = b.iadd(best, w);
        let en = b.lea(next, tid, 2);
        b.st_global_u32(en, sum);
    });
    b.finish()
}

impl Workload for Pathfinder {
    fn name(&self) -> String {
        "pathfinder".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![pathfinder_kernel()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let grid = self.grid();
        rt.clock.add_host(0.3e-3);
        let mut bufs = [rt.alloc_u32(&grid[0]), rt.alloc_zeroed_u32(self.cols)];
        let rows: Vec<DevBuf> = grid[1..].iter().map(|r| rt.alloc_u32(r)).collect();
        for row in &rows {
            let dims = LaunchDims::linear(grid_for(self.cols as u32, 256), 256);
            launch(
                rt,
                module,
                "pathfinder_step",
                dims,
                &[self.cols as u64, bufs[0].addr, row.addr, bufs[1].addr],
                handlers,
            )?;
            bufs.swap(0, 1);
        }
        let out = rt.read_u32(bufs[0]);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let grid = self.grid();
        let mut prev = grid[0].clone();
        for row in &grid[1..] {
            let mut next = vec![0u32; self.cols];
            for i in 0..self.cols {
                let mut best = prev[i];
                if i > 0 {
                    best = best.min(prev[i - 1]);
                }
                if i + 1 < self.cols {
                    best = best.min(prev[i + 1]);
                }
                next[i] = best + row[i];
            }
            prev = next;
        }
        WorkloadOutput::new(vec![prev])
    }
}

// ------------------------------------------------------------ kmeans --

/// `kmeans`: the assignment step — each point scans all centroids for
/// the nearest one. Uniform loops, mostly convergent.
#[derive(Clone, Copy, Debug)]
pub struct Kmeans {
    /// Points.
    pub n: usize,
    /// Centroids.
    pub k: usize,
}

impl Kmeans {
    /// Default dataset.
    pub fn new() -> Kmeans {
        Kmeans { n: 2048, k: 8 }
    }

    fn points(&self) -> (Vec<u32>, Vec<u32>) {
        (
            data::random_u32(self.n, 1024, 0xd1),
            data::random_u32(self.n, 1024, 0xd2),
        )
    }

    fn centroids(&self) -> (Vec<u32>, Vec<u32>) {
        (
            data::random_u32(self.k, 1024, 0xd3),
            data::random_u32(self.k, 1024, 0xd4),
        )
    }
}

impl Default for Kmeans {
    fn default() -> Kmeans {
        Kmeans::new()
    }
}

fn kmeans_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("kmeans_assign");
    let tid = b.global_tid_x();
    let n = b.param_u32(0);
    let k = b.param_u32(1);
    let px = b.param_ptr(2);
    let py = b.param_ptr(3);
    let cx = b.param_ptr(4);
    let cy = b.param_ptr(5);
    let assign = b.param_ptr(6);
    let p = b.setp_u32_lt(tid, n);
    b.if_(p, |b| {
        let ex = b.lea(px, tid, 2);
        let x = b.ld_global_u32(ex);
        let ey = b.lea(py, tid, 2);
        let y = b.ld_global_u32(ey);
        let best_d = b.var_u32(u32::MAX);
        let best_i = b.var_u32(0u32);
        b.for_range(0u32, k, 1, |b, c| {
            let ecx = b.lea(cx, c, 2);
            let cxv = b.ld_global_u32(ecx);
            let ecy = b.lea(cy, c, 2);
            let cyv = b.ld_global_u32(ecy);
            let dx = b.isub(x, cxv);
            let dy = b.isub(y, cyv);
            let dx2 = b.imul(dx, dx);
            let d = b.imad(dy, dy, dx2);
            let better = b.setp_u32_lt(d, best_d);
            let nd = b.sel(better, d, best_d);
            let ni = b.sel(better, c, best_i);
            b.assign(best_d, nd);
            b.assign(best_i, ni);
        });
        let ea = b.lea(assign, tid, 2);
        b.st_global_u32(ea, best_i);
    });
    b.finish()
}

impl Workload for Kmeans {
    fn name(&self) -> String {
        "kmeans".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![kmeans_kernel()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let (px, py) = self.points();
        let (cx, cy) = self.centroids();
        rt.clock.add_host(0.4e-3);
        let d_px = rt.alloc_u32(&px);
        let d_py = rt.alloc_u32(&py);
        let d_cx = rt.alloc_u32(&cx);
        let d_cy = rt.alloc_u32(&cy);
        let d_a = rt.alloc_zeroed_u32(self.n);
        let dims = LaunchDims::linear(grid_for(self.n as u32, 256), 256);
        launch(
            rt,
            module,
            "kmeans_assign",
            dims,
            &[
                self.n as u64,
                self.k as u64,
                d_px.addr,
                d_py.addr,
                d_cx.addr,
                d_cy.addr,
                d_a.addr,
            ],
            handlers,
        )?;
        let out = rt.read_u32(d_a);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let (px, py) = self.points();
        let (cx, cy) = self.centroids();
        let out: Vec<u32> = (0..self.n)
            .map(|i| {
                let mut best = (u32::MAX, 0u32);
                for c in 0..self.k {
                    let dx = px[i].wrapping_sub(cx[c]);
                    let dy = py[i].wrapping_sub(cy[c]);
                    let d = dy.wrapping_mul(dy).wrapping_add(dx.wrapping_mul(dx));
                    if d < best.0 {
                        best = (d, c as u32);
                    }
                }
                best.1
            })
            .collect();
        WorkloadOutput::new(vec![out])
    }
}

// ----------------------------------------------------- streamcluster --

/// `streamcluster`: weighted distance of every point to a candidate
/// center — straight-line code, zero divergence (Table 1 shows 0%).
#[derive(Clone, Copy, Debug)]
pub struct Streamcluster {
    /// Points.
    pub n: usize,
    /// Dimensions (fixed small).
    pub dims: usize,
}

impl Streamcluster {
    /// Default dataset.
    pub fn new() -> Streamcluster {
        Streamcluster { n: 2048, dims: 8 }
    }

    fn points(&self) -> Vec<u32> {
        data::random_u32(self.n * self.dims, 256, 0xe1)
    }

    fn center(&self) -> Vec<u32> {
        data::random_u32(self.dims, 256, 0xe2)
    }

    fn weights(&self) -> Vec<u32> {
        data::random_u32(self.n, 8, 0xe3)
    }
}

impl Default for Streamcluster {
    fn default() -> Streamcluster {
        Streamcluster::new()
    }
}

fn streamcluster_kernel(dims: usize) -> KFunction {
    let mut b = KernelBuilder::kernel("sc_dist");
    let tid = b.global_tid_x();
    let n = b.param_u32(0);
    let pts = b.param_ptr(1);
    let center = b.param_ptr(2);
    let weights = b.param_ptr(3);
    let out = b.param_ptr(4);
    let p = b.setp_u32_lt(tid, n);
    b.if_(p, |b| {
        let base = b.imul(tid, dims as u32);
        let acc = b.var_u32(0u32);
        // Fully unrolled feature loop: uniform, no divergence. Feature
        // pairs are fetched with vectorized 64-bit loads (LD.64), the
        // "extended memory" category of the paper's Figure 3.
        for d in (0..dims).step_by(2) {
            let i = b.iadd(base, d as u32);
            let ep = b.lea(pts, i, 2);
            let pair = b.ld_global_u64(ep);
            let pv0 = b.lo32(pair);
            let pv1 = b.hi32(pair);
            let di = b.iconst(d as u32);
            let ec = b.lea(center, di, 2);
            let cpair = b.ld_global_u64(ec);
            let cv0 = b.lo32(cpair);
            let cv1 = b.hi32(cpair);
            let diff0 = b.isub(pv0, cv0);
            let nxt0 = b.imad(diff0, diff0, acc);
            b.assign(acc, nxt0);
            let diff1 = b.isub(pv1, cv1);
            let nxt1 = b.imad(diff1, diff1, acc);
            b.assign(acc, nxt1);
        }
        let ew = b.lea(weights, tid, 2);
        let w = b.ld_global_u32(ew);
        let cost = b.imul(acc, w);
        let eo = b.lea(out, tid, 2);
        b.st_global_u32(eo, cost);
    });
    b.finish()
}

impl Workload for Streamcluster {
    fn name(&self) -> String {
        "streamcluster".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![streamcluster_kernel(self.dims)]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let pts = self.points();
        rt.clock.add_host(0.5e-3);
        let d_p = rt.alloc_u32(&pts);
        let d_c = rt.alloc_u32(&self.center());
        let d_w = rt.alloc_u32(&self.weights());
        let d_o = rt.alloc_zeroed_u32(self.n);
        let dims = LaunchDims::linear(grid_for(self.n as u32, 256), 256);
        // Several rounds, like the clustering iterations of the original.
        for _ in 0..4 {
            launch(
                rt,
                module,
                "sc_dist",
                dims,
                &[self.n as u64, d_p.addr, d_c.addr, d_w.addr, d_o.addr],
                handlers,
            )?;
        }
        let out = rt.read_u32(d_o);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let pts = self.points();
        let c = self.center();
        let w = self.weights();
        let out: Vec<u32> = (0..self.n)
            .map(|i| {
                let mut acc = 0u32;
                for d in 0..self.dims {
                    let diff = pts[i * self.dims + d].wrapping_sub(c[d]);
                    acc = diff.wrapping_mul(diff).wrapping_add(acc);
                }
                acc.wrapping_mul(w[i])
            })
            .collect();
        WorkloadOutput::new(vec![out])
    }
}
