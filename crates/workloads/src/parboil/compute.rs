//! The compute-heavy Parboil-style workloads: `tpacf`, `lbm`, `sad`,
//! `cutcp`, `mri-q` and `mri-gridding`.

use crate::prelude::*;

// ------------------------------------------------------------- tpacf --

/// `tpacf`: two-point angular correlation — all-pairs dot products
/// binned by a divergent linear search (Table 1: ~25% dynamic branch
/// divergence).
#[derive(Clone, Copy, Debug)]
pub struct Tpacf {
    /// Points.
    pub n: usize,
    /// Histogram bins.
    pub bins: usize,
}

impl Tpacf {
    /// The `small` dataset.
    pub fn small() -> Tpacf {
        Tpacf { n: 256, bins: 16 }
    }

    fn points(&self) -> (Vec<u32>, Vec<u32>) {
        (
            data::random_u32(self.n, 256, 0x101),
            data::random_u32(self.n, 256, 0x102),
        )
    }

    fn edges(&self) -> Vec<u32> {
        // Monotone bin edges over the dot-product range.
        (0..self.bins as u32).map(|i| i * i * 1024).collect()
    }
}

fn tpacf_kernel(bins: usize) -> KFunction {
    let mut b = KernelBuilder::kernel("tpacf");
    let tid = b.global_tid_x();
    let n = b.param_u32(0);
    let xs = b.param_ptr(1);
    let ys = b.param_ptr(2);
    let edges = b.param_ptr(3);
    let hist = b.param_ptr(4);
    let p = b.setp_u32_lt(tid, n);
    b.if_(p, |b| {
        let exi = b.lea(xs, tid, 2);
        let xi = b.ld_global_u32(exi);
        let eyi = b.lea(ys, tid, 2);
        let yi = b.ld_global_u32(eyi);
        b.for_range(0u32, n, 1, |b, j| {
            let exj = b.lea(xs, j, 2);
            let xj = b.ld_global_u32(exj);
            let eyj = b.lea(ys, j, 2);
            let yj = b.ld_global_u32(eyj);
            let dx = b.imul(xi, xj);
            let dot = b.imad(yi, yj, dx);
            // Divergent linear bin search: trip count depends on dot.
            let bin = b.var_u32(0u32);
            let last = (bins - 1) as u32;
            b.while_(
                |b| {
                    let more = b.setp_u32_lt(bin, last);
                    let bin1 = b.iadd(bin, 1u32);
                    let ee = b.lea(edges, bin1, 2);
                    let edge = b.ld_global_u32(ee);
                    let below = b.setp_u32_ge(dot, edge);
                    b.and_p(more, below)
                },
                |b| {
                    let nxt = b.iadd(bin, 1u32);
                    b.assign(bin, nxt);
                },
            );
            let eh = b.lea(hist, bin, 2);
            let one = b.iconst(1);
            b.red_global(sassi_isa::AtomOp::Add, eh, one);
        });
    });
    b.finish()
}

impl Workload for Tpacf {
    fn name(&self) -> String {
        "tpacf (small)".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![tpacf_kernel(self.bins)]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let (xs, ys) = self.points();
        rt.clock.add_host(0.5e-3);
        let dx = rt.alloc_u32(&xs);
        let dy = rt.alloc_u32(&ys);
        let de = rt.alloc_u32(&self.edges());
        let dh = rt.alloc_zeroed_u32(self.bins);
        let dims = LaunchDims::linear(grid_for(self.n as u32, 128), 128);
        launch(
            rt,
            module,
            "tpacf",
            dims,
            &[self.n as u64, dx.addr, dy.addr, de.addr, dh.addr],
            handlers,
        )?;
        let out = rt.read_u32(dh);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let (xs, ys) = self.points();
        let edges = self.edges();
        let mut h = vec![0u32; self.bins];
        for i in 0..self.n {
            for j in 0..self.n {
                let dot = ys[i]
                    .wrapping_mul(ys[j])
                    .wrapping_add(xs[i].wrapping_mul(xs[j]));
                let mut bin = 0usize;
                while bin < self.bins - 1 && dot >= edges[bin + 1] {
                    bin += 1;
                }
                h[bin] += 1;
            }
        }
        WorkloadOutput::new(vec![h])
    }
}

// --------------------------------------------------------------- lbm --

/// `lbm`: lattice-Boltzmann-style per-cell relaxation over a D2Q5
/// neighbourhood with an obstacle branch. GPU-bound and float-heavy.
#[derive(Clone, Copy, Debug)]
pub struct Lbm {
    /// Lattice width.
    pub w: usize,
    /// Lattice height.
    pub h: usize,
    /// Time steps.
    pub steps: usize,
}

impl Lbm {
    /// The default (long) dataset.
    pub fn new() -> Lbm {
        Lbm {
            w: 64,
            h: 48,
            steps: 4,
        }
    }

    fn density(&self) -> Vec<u32> {
        data::random_f32_bits(self.w * self.h, 0x111)
    }

    fn obstacles(&self) -> Vec<u32> {
        data::random_u32(self.w * self.h, 100, 0x112)
            .into_iter()
            .map(|v| u32::from(v < 6))
            .collect()
    }

    fn host_step(&self, f: &[u32], obs: &[u32]) -> Vec<u32> {
        let (w, h) = (self.w, self.h);
        let mut out = f.to_vec();
        for y in 1..h - 1 {
            for x in 1..w - 1 {
                let i = y * w + x;
                if obs[i] != 0 {
                    continue;
                }
                let g = |k: usize| f32::from_bits(f[k]);
                let sum = g(i - 1) + g(i + 1);
                let sum = sum + g(i - w);
                let sum = sum + g(i + w);
                let v = 0.2f32.mul_add(sum, g(i) * 0.2);
                out[i] = v.to_bits();
            }
        }
        out
    }
}

impl Default for Lbm {
    fn default() -> Lbm {
        Lbm::new()
    }
}

fn lbm_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("lbm_step");
    let bx = b.ctaid_x();
    let by = b.ctaid_y();
    let tx = b.tid_x();
    let ty = b.tid_y();
    let w = b.param_u32(0);
    let h = b.param_u32(1);
    let src = b.param_ptr(2);
    let dst = b.param_ptr(3);
    let obs = b.param_ptr(4);
    let x = b.imad(bx, 16u32, tx);
    let y = b.imad(by, 16u32, ty);
    let x1 = b.isub(x, 1u32);
    let y1 = b.isub(y, 1u32);
    let wi = b.isub(w, 2u32);
    let hi = b.isub(h, 2u32);
    let px = b.setp_u32_lt(x1, wi);
    let py = b.setp_u32_lt(y1, hi);
    let interior = b.and_p(px, py);
    b.if_(interior, |b| {
        let i = b.imad(y, w, x);
        let eo = b.lea(obs, i, 2);
        let o = b.ld_global_u32(eo);
        let fluid = b.setp_u32_eq(o, 0u32);
        b.if_(fluid, |b| {
            let e_c = b.lea(src, i, 2);
            let c = b.ld_global_f32(e_c);
            let im = b.isub(i, 1u32);
            let e1 = b.lea(src, im, 2);
            let v1 = b.ld_global_f32(e1);
            let ip = b.iadd(i, 1u32);
            let e2 = b.lea(src, ip, 2);
            let v2 = b.ld_global_f32(e2);
            let iu = b.isub(i, w);
            let e3 = b.lea(src, iu, 2);
            let v3 = b.ld_global_f32(e3);
            let id = b.iadd(i, w);
            let e4 = b.lea(src, id, 2);
            let v4 = b.ld_global_f32(e4);
            let sum = b.fadd(v1, v2);
            let sum = b.fadd(sum, v3);
            let sum = b.fadd(sum, v4);
            let k = b.fconst(0.2);
            let ct = b.fmul(c, 0.2f32);
            let v = b.ffma(k, sum, ct);
            let ed = b.lea(dst, i, 2);
            b.st_global_u32(ed, v);
        });
    });
    b.finish()
}

impl Workload for Lbm {
    fn name(&self) -> String {
        "lbm".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![lbm_kernel()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let f0 = self.density();
        let obs = self.obstacles();
        rt.clock.add_host(0.4e-3);
        let mut bufs = [rt.alloc_u32(&f0), rt.alloc_u32(&f0)];
        let dobs = rt.alloc_u32(&obs);
        let dims = LaunchDims::plane(
            ((self.w as u32).div_ceil(16), (self.h as u32).div_ceil(16)),
            (16, 16),
        );
        for _ in 0..self.steps {
            // Carry non-updated cells through.
            let cur = rt.read_u32(bufs[0]);
            rt.write_u32(bufs[1], &cur);
            launch(
                rt,
                module,
                "lbm_step",
                dims,
                &[
                    self.w as u64,
                    self.h as u64,
                    bufs[0].addr,
                    bufs[1].addr,
                    dobs.addr,
                ],
                handlers,
            )?;
            bufs.swap(0, 1);
        }
        let out = rt.read_u32(bufs[0]);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let obs = self.obstacles();
        let mut f = self.density();
        for _ in 0..self.steps {
            f = self.host_step(&f, &obs);
        }
        WorkloadOutput::new(vec![f])
    }
}

// --------------------------------------------------------------- sad --

/// `sad`: sum-of-absolute-differences block matching over a small
/// search window; integer-only, modest divergence at frame edges.
#[derive(Clone, Copy, Debug)]
pub struct Sad {
    /// Frame length (1-D simplification).
    pub n: usize,
    /// Block length.
    pub block: usize,
    /// Search offsets.
    pub offsets: usize,
}

impl Sad {
    /// The default dataset.
    pub fn new() -> Sad {
        Sad {
            n: 4096,
            block: 8,
            offsets: 8,
        }
    }

    fn frames(&self) -> (Vec<u32>, Vec<u32>) {
        (
            data::random_u32(self.n, 256, 0x121),
            data::random_u32(self.n, 256, 0x122),
        )
    }
}

impl Default for Sad {
    fn default() -> Sad {
        Sad::new()
    }
}

fn sad_kernel(block: usize, offsets: usize) -> KFunction {
    let mut b = KernelBuilder::kernel("sad");
    let tid = b.global_tid_x();
    let n = b.param_u32(0);
    let cur = b.param_ptr(1);
    let reference = b.param_ptr(2);
    let out = b.param_ptr(3);
    // Valid block starts: tid + block + offsets <= n.
    let margin = (block + offsets) as u32;
    let lim = b.isub(n, margin);
    let p = b.setp_u32_lt(tid, lim);
    b.if_(p, |b| {
        let best = b.var_u32(u32::MAX);
        for off in 0..offsets {
            let acc = b.var_u32(0u32);
            for k in 0..block {
                let ic = b.iadd(tid, k as u32);
                let ec = b.lea(cur, ic, 2);
                let cv = b.ld_global_u32(ec);
                let ir = b.iadd(tid, (off + k) as u32);
                let er = b.lea(reference, ir, 2);
                let rv = b.ld_global_u32(er);
                let mx = b.umax(cv, rv);
                let mn = b.umin(cv, rv);
                let d = b.isub(mx, mn);
                let nxt = b.iadd(acc, d);
                b.assign(acc, nxt);
            }
            let m = b.umin(best, acc);
            b.assign(best, m);
        }
        let eo = b.lea(out, tid, 2);
        b.st_global_u32(eo, best);
    });
    b.finish()
}

impl Workload for Sad {
    fn name(&self) -> String {
        "sad".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![sad_kernel(self.block, self.offsets)]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let (cur, reference) = self.frames();
        rt.clock.add_host(0.6e-3); // frame decode
        let dc = rt.alloc_u32(&cur);
        let dr = rt.alloc_u32(&reference);
        let douts = rt.alloc_zeroed_u32(self.n);
        let dims = LaunchDims::linear(grid_for(self.n as u32, 128), 128);
        launch(
            rt,
            module,
            "sad",
            dims,
            &[self.n as u64, dc.addr, dr.addr, douts.addr],
            handlers,
        )?;
        let out = rt.read_u32(douts);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let (cur, reference) = self.frames();
        let margin = self.block + self.offsets;
        let mut out = vec![0u32; self.n];
        for t in 0..self.n.saturating_sub(margin) {
            let mut best = u32::MAX;
            for off in 0..self.offsets {
                let mut acc = 0u32;
                for k in 0..self.block {
                    acc += cur[t + k].abs_diff(reference[t + off + k]);
                }
                best = best.min(acc);
            }
            out[t] = best;
        }
        WorkloadOutput::new(vec![out])
    }
}

// ------------------------------------------------------------- cutcp --

/// `cutcp`: cutoff Coulomb potential — grid points accumulate
/// contributions of atoms inside a cutoff radius (divergent distance
/// test, SFU reciprocal).
#[derive(Clone, Copy, Debug)]
pub struct Cutcp {
    /// Grid points.
    pub points: usize,
    /// Atoms.
    pub atoms: usize,
}

impl Cutcp {
    /// The default dataset.
    pub fn new() -> Cutcp {
        Cutcp {
            points: 2048,
            atoms: 64,
        }
    }

    fn coords(&self) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        (
            data::random_u32(self.atoms, 256, 0x131), // ax
            data::random_u32(self.atoms, 256, 0x132), // ay
            data::random_u32(self.atoms, 16, 0x133),  // charge
        )
    }
}

impl Default for Cutcp {
    fn default() -> Cutcp {
        Cutcp::new()
    }
}

const CUTOFF2: u32 = 4096;

fn cutcp_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("cutcp");
    let tid = b.global_tid_x();
    let npts = b.param_u32(0);
    let natoms = b.param_u32(1);
    let ax = b.param_ptr(2);
    let ay = b.param_ptr(3);
    let q = b.param_ptr(4);
    let out = b.param_ptr(5);
    let p = b.setp_u32_lt(tid, npts);
    b.if_(p, |b| {
        // Grid point coordinates derived from tid.
        let gx = b.and(tid, 0xff_u32);
        let gy = b.shr(tid, 8u32);
        let acc = b.var_u32(0u32); // f32 bits
        b.for_range(0u32, natoms, 1, |b, a| {
            let eax = b.lea(ax, a, 2);
            let axv = b.ld_global_u32(eax);
            let eay = b.lea(ay, a, 2);
            let ayv = b.ld_global_u32(eay);
            let dx = b.isub(gx, axv);
            let dy = b.isub(gy, ayv);
            let dx2 = b.imul(dx, dx);
            let d2 = b.imad(dy, dy, dx2);
            let inside = b.setp_u32_lt(d2, CUTOFF2);
            b.if_(inside, |b| {
                let eq = b.lea(q, a, 2);
                let qv = b.ld_global_u32(eq);
                let qf = b.i2f(qv);
                let d2p1 = b.iadd(d2, 1u32);
                let df = b.i2f(d2p1);
                let inv = b.mufu(sassi_isa::MufuFunc::Rcp, df);
                let term = b.fmul(qf, inv);
                let nxt = b.fadd(acc, term);
                b.assign(acc, nxt);
            });
        });
        let eo = b.lea(out, tid, 2);
        b.st_global_u32(eo, acc);
    });
    b.finish()
}

impl Workload for Cutcp {
    fn name(&self) -> String {
        "cutcp".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![cutcp_kernel()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let (ax, ay, q) = self.coords();
        rt.clock.add_host(0.5e-3);
        let dax = rt.alloc_u32(&ax);
        let day = rt.alloc_u32(&ay);
        let dq = rt.alloc_u32(&q);
        let douts = rt.alloc_zeroed_u32(self.points);
        let dims = LaunchDims::linear(grid_for(self.points as u32, 128), 128);
        launch(
            rt,
            module,
            "cutcp",
            dims,
            &[
                self.points as u64,
                self.atoms as u64,
                dax.addr,
                day.addr,
                dq.addr,
                douts.addr,
            ],
            handlers,
        )?;
        let out = rt.read_u32(douts);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let (ax, ay, q) = self.coords();
        let out: Vec<u32> = (0..self.points)
            .map(|t| {
                let gx = (t as u32) & 0xff;
                let gy = (t as u32) >> 8;
                let mut acc = 0.0f32;
                for a in 0..self.atoms {
                    let dx = gx.wrapping_sub(ax[a]);
                    let dy = gy.wrapping_sub(ay[a]);
                    let d2 = dy.wrapping_mul(dy).wrapping_add(dx.wrapping_mul(dx));
                    if d2 < CUTOFF2 {
                        let term = q[a] as i32 as f32 * (1.0 / (d2.wrapping_add(1) as i32 as f32));
                        acc += term;
                    }
                }
                acc.to_bits()
            })
            .collect();
        WorkloadOutput::new(vec![out])
    }
}

// -------------------------------------------------------------- mri-q --

/// `mri-q`: Q-matrix computation — per-sample trigonometric
/// accumulation over the k-space trajectory. SFU-heavy and convergent.
#[derive(Clone, Copy, Debug)]
pub struct MriQ {
    /// Samples.
    pub n: usize,
    /// K-space points.
    pub k: usize,
}

impl MriQ {
    /// The default dataset.
    pub fn new() -> MriQ {
        MriQ { n: 1024, k: 64 }
    }

    fn inputs(&self) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        (
            data::random_f32_bits(self.n, 0x141),
            data::random_f32_bits(self.k, 0x142),
            data::random_f32_bits(self.k, 0x143),
        )
    }
}

impl Default for MriQ {
    fn default() -> MriQ {
        MriQ::new()
    }
}

fn mriq_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("mriq");
    let tid = b.global_tid_x();
    let n = b.param_u32(0);
    let k = b.param_u32(1);
    let xs = b.param_ptr(2);
    let kx = b.param_ptr(3);
    let rho = b.param_ptr(4);
    let out_r = b.param_ptr(5);
    let out_i = b.param_ptr(6);
    let p = b.setp_u32_lt(tid, n);
    b.if_(p, |b| {
        let ex = b.lea(xs, tid, 2);
        let x = b.ld_global_f32(ex);
        let qr = b.var_u32(0u32);
        let qi = b.var_u32(0u32);
        b.for_range(0u32, k, 1, |b, j| {
            let ek = b.lea(kx, j, 2);
            let kv = b.ld_global_f32(ek);
            let er = b.lea(rho, j, 2);
            let rv = b.ld_global_f32(er);
            let phi = b.fmul(kv, x);
            let c = b.mufu(sassi_isa::MufuFunc::Cos, phi);
            let s = b.mufu(sassi_isa::MufuFunc::Sin, phi);
            let nr = b.ffma(rv, c, qr);
            let ni = b.ffma(rv, s, qi);
            b.assign(qr, nr);
            b.assign(qi, ni);
        });
        let er = b.lea(out_r, tid, 2);
        b.st_global_u32(er, qr);
        let ei = b.lea(out_i, tid, 2);
        b.st_global_u32(ei, qi);
    });
    b.finish()
}

impl Workload for MriQ {
    fn name(&self) -> String {
        "mri-q".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![mriq_kernel()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let (xs, kx, rho) = self.inputs();
        rt.clock.add_host(0.15e-3);
        let dx = rt.alloc_u32(&xs);
        let dk = rt.alloc_u32(&kx);
        let dr = rt.alloc_u32(&rho);
        let dor = rt.alloc_zeroed_u32(self.n);
        let doi = rt.alloc_zeroed_u32(self.n);
        let dims = LaunchDims::linear(grid_for(self.n as u32, 128), 128);
        launch(
            rt,
            module,
            "mriq",
            dims,
            &[
                self.n as u64,
                self.k as u64,
                dx.addr,
                dk.addr,
                dr.addr,
                dor.addr,
                doi.addr,
            ],
            handlers,
        )?;
        let outr = rt.read_u32(dor);
        let outi = rt.read_u32(doi);
        Ok(WorkloadOutput::new(vec![outr, outi]))
    }

    fn golden(&self) -> WorkloadOutput {
        let (xs, kx, rho) = self.inputs();
        let mut outr = vec![0u32; self.n];
        let mut outi = vec![0u32; self.n];
        for t in 0..self.n {
            let x = f32::from_bits(xs[t]);
            let (mut qr, mut qi) = (0.0f32, 0.0f32);
            for j in 0..self.k {
                let phi = f32::from_bits(kx[j]) * x;
                let rv = f32::from_bits(rho[j]);
                qr = rv.mul_add(phi.cos(), qr);
                qi = rv.mul_add(phi.sin(), qi);
            }
            outr[t] = qr.to_bits();
            outi[t] = qi.to_bits();
        }
        WorkloadOutput::new(vec![outr, outi])
    }
}

// ------------------------------------------------------ mri-gridding --

/// `mri-gridding`: scattering irregular samples onto a regular grid
/// with atomics — data-dependent window sizes make both control flow
/// and addresses diverge (a Figure 7 subject).
#[derive(Clone, Copy, Debug)]
pub struct MriGridding {
    /// Samples.
    pub n: usize,
    /// Grid cells.
    pub grid: usize,
}

impl MriGridding {
    /// The default dataset.
    pub fn new() -> MriGridding {
        MriGridding { n: 2048, grid: 512 }
    }

    fn samples(&self) -> (Vec<u32>, Vec<u32>) {
        (
            data::random_u32(self.n, self.grid as u32, 0x151), // position
            data::random_u32(self.n, 15, 0x152),               // weight (also window)
        )
    }
}

impl Default for MriGridding {
    fn default() -> MriGridding {
        MriGridding::new()
    }
}

fn gridding_kernel(grid: usize) -> KFunction {
    let mut b = KernelBuilder::kernel("gridding");
    let tid = b.global_tid_x();
    let n = b.param_u32(0);
    let pos = b.param_ptr(1);
    let wgt = b.param_ptr(2);
    let out = b.param_ptr(3);
    let p = b.setp_u32_lt(tid, n);
    b.if_(p, |b| {
        let ep = b.lea(pos, tid, 2);
        let c = b.ld_global_u32(ep);
        let ew = b.lea(wgt, tid, 2);
        let w = b.ld_global_u32(ew);
        // Window radius = w & 3 (data dependent).
        let r = b.and(w, 3u32);
        let lo = b.isub(c, r);
        let hi = b.iadd(c, r);
        let hi1 = b.iadd(hi, 1u32);
        let g = b.var_u32(0u32);
        b.assign(g, lo);
        let gmax = (grid - 1) as u32;
        b.while_(
            |b| b.setp_u32_lt(g, hi1),
            |b| {
                // Clamp into the grid (positions near 0 underflow-wrap).
                let clamped = b.umin(g, gmax);
                let eo = b.lea(out, clamped, 2);
                b.red_global(sassi_isa::AtomOp::Add, eo, w);
                let nxt = b.iadd(g, 1u32);
                b.assign(g, nxt);
            },
        );
    });
    b.finish()
}

impl Workload for MriGridding {
    fn name(&self) -> String {
        "mri-gridding".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![gridding_kernel(self.grid)]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let (pos, wgt) = self.samples();
        rt.clock.add_host(0.9e-3);
        let dp = rt.alloc_u32(&pos);
        let dw = rt.alloc_u32(&wgt);
        let douts = rt.alloc_zeroed_u32(self.grid);
        let dims = LaunchDims::linear(grid_for(self.n as u32, 128), 128);
        launch(
            rt,
            module,
            "gridding",
            dims,
            &[self.n as u64, dp.addr, dw.addr, douts.addr],
            handlers,
        )?;
        let out = rt.read_u32(douts);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let (pos, wgt) = self.samples();
        let mut out = vec![0u32; self.grid];
        for t in 0..self.n {
            let r = wgt[t] & 3;
            let lo = pos[t].wrapping_sub(r);
            let hi = pos[t].wrapping_add(r);
            let mut g = lo;
            while g < hi.wrapping_add(1) {
                let clamped = g.min(self.grid as u32 - 1) as usize;
                out[clamped] = out[clamped].wrapping_add(wgt[t]);
                g = g.wrapping_add(1);
            }
        }
        WorkloadOutput::new(vec![out])
    }
}
