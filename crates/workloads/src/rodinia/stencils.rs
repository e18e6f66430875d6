//! Rodinia-style stencils: `hotspot` (shared-memory tile + barrier) and
//! `srad` in its two variants (v1 monolithic, v2 split kernels) whose
//! differing branch structure Table 1 highlights (0.5% vs 21.3%).

use crate::prelude::*;

// ------------------------------------------------------------ hotspot --

/// `hotspot`: thermal simulation step on a 2-D grid, staged through
/// shared memory with a block barrier.
#[derive(Clone, Copy, Debug)]
pub struct Hotspot {
    /// Grid side (multiple of 16).
    pub n: usize,
    /// Steps.
    pub steps: usize,
}

impl Hotspot {
    /// Default dataset.
    pub fn new() -> Hotspot {
        Hotspot { n: 64, steps: 2 }
    }

    fn temp(&self) -> Vec<u32> {
        data::random_u32(self.n * self.n, 1000, 0x1a1)
    }

    fn power(&self) -> Vec<u32> {
        data::random_u32(self.n * self.n, 16, 0x1a2)
    }

    fn host_step(&self, t: &[u32], p: &[u32]) -> Vec<u32> {
        let n = self.n;
        let mut out = t.to_vec();
        for y in 1..n - 1 {
            for x in 1..n - 1 {
                let i = y * n + x;
                let sum = t[i - 1]
                    .wrapping_add(t[i + 1])
                    .wrapping_add(t[i - n])
                    .wrapping_add(t[i + n]);
                let delta = (sum.wrapping_sub(t[i].wrapping_mul(4)).wrapping_add(p[i])) >> 3;
                out[i] = t[i].wrapping_add(delta);
            }
        }
        out
    }
}

impl Default for Hotspot {
    fn default() -> Hotspot {
        Hotspot::new()
    }
}

fn hotspot_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("hotspot_step");
    // 18x18 halo tile of u32.
    let tile = b.shared_alloc(18 * 18 * 4);
    let bx = b.ctaid_x();
    let by = b.ctaid_y();
    let tx = b.tid_x();
    let ty = b.tid_y();
    let n = b.param_u32(0);
    let temp = b.param_ptr(1);
    let power = b.param_ptr(2);
    let out = b.param_ptr(3);
    let gx = b.imad(bx, 16u32, tx);
    let gy = b.imad(by, 16u32, ty);
    let gi = b.imad(gy, n, gx);

    // Load center cell into the tile (+1,+1 halo offset).
    let ev = b.lea(temp, gi, 2);
    let v = b.ld_global_u32(ev);
    let lx = b.iadd(tx, 1u32);
    let ly = b.iadd(ty, 1u32);
    let li = b.imad(ly, 18u32, lx);
    let lb = b.shl(li, 2u32);
    let lb = {
        let base = b.iconst(tile.offset);
        b.iadd(lb, base)
    };
    b.st_shared_u32(lb, 0, v);

    // Edge threads also fetch their halo neighbour.
    let nm1 = b.isub(n, 1u32);
    let x_lo = b.setp_u32_eq(tx, 0u32);
    let g_ok = b.setp_u32_ne(gx, 0u32);
    let both = b.and_p(x_lo, g_ok);
    b.if_(both, |b| {
        let gl = b.isub(gi, 1u32);
        let e = b.lea(temp, gl, 2);
        let hv = b.ld_global_u32(e);
        let hl = b.isub(lb, 4u32);
        b.st_shared_u32(hl, 0, hv);
    });
    let x_hi = b.setp_u32_eq(tx, 15u32);
    let g_ok2 = b.setp_u32_lt(gx, nm1);
    let both2 = b.and_p(x_hi, g_ok2);
    b.if_(both2, |b| {
        let gr = b.iadd(gi, 1u32);
        let e = b.lea(temp, gr, 2);
        let hv = b.ld_global_u32(e);
        let hr = b.iadd(lb, 4u32);
        b.st_shared_u32(hr, 0, hv);
    });
    let y_lo = b.setp_u32_eq(ty, 0u32);
    let gy_ok = b.setp_u32_ne(gy, 0u32);
    let both3 = b.and_p(y_lo, gy_ok);
    b.if_(both3, |b| {
        let gu = b.isub(gi, n);
        let e = b.lea(temp, gu, 2);
        let hv = b.ld_global_u32(e);
        let hu = b.isub(lb, 18 * 4u32);
        b.st_shared_u32(hu, 0, hv);
    });
    let y_hi = b.setp_u32_eq(ty, 15u32);
    let gy_ok2 = b.setp_u32_lt(gy, nm1);
    let both4 = b.and_p(y_hi, gy_ok2);
    b.if_(both4, |b| {
        let gd = b.iadd(gi, n);
        let e = b.lea(temp, gd, 2);
        let hv = b.ld_global_u32(e);
        let hd = b.iadd(lb, 18 * 4u32);
        b.st_shared_u32(hd, 0, hv);
    });
    b.bar_sync();

    // Interior update from shared memory.
    let gx1 = b.isub(gx, 1u32);
    let gy1 = b.isub(gy, 1u32);
    let nm2 = b.isub(n, 2u32);
    let px = b.setp_u32_lt(gx1, nm2);
    let py = b.setp_u32_lt(gy1, nm2);
    let interior = b.and_p(px, py);
    b.if_(interior, |b| {
        let l = b.isub(lb, 4u32);
        let vl = b.ld_shared_u32(l, 0);
        let r = b.iadd(lb, 4u32);
        let vr = b.ld_shared_u32(r, 0);
        let u = b.isub(lb, 72u32);
        let vu = b.ld_shared_u32(u, 0);
        let dn = b.iadd(lb, 72u32);
        let vd = b.ld_shared_u32(dn, 0);
        let ep = b.lea(power, gi, 2);
        let pw = b.ld_global_u32(ep);
        let sum = b.iadd(vl, vr);
        let sum = b.iadd(sum, vu);
        let sum = b.iadd(sum, vd);
        let c4 = b.shl(v, 2u32);
        let diff = b.isub(sum, c4);
        let withp = b.iadd(diff, pw);
        let delta = b.shr(withp, 3u32);
        let nv = b.iadd(v, delta);
        let eo = b.lea(out, gi, 2);
        b.st_global_u32(eo, nv);
    });
    b.finish()
}

impl Workload for Hotspot {
    fn name(&self) -> String {
        "hotspot".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![hotspot_kernel()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let t0 = self.temp();
        rt.clock.add_host(0.3e-3);
        let mut bufs = [rt.alloc_u32(&t0), rt.alloc_u32(&t0)];
        let d_p = rt.alloc_u32(&self.power());
        let blocks = (self.n as u32) / 16;
        for _ in 0..self.steps {
            let cur = rt.read_u32(bufs[0]);
            rt.write_u32(bufs[1], &cur); // boundary carry-through
            launch(
                rt,
                module,
                "hotspot_step",
                LaunchDims::plane((blocks, blocks), (16, 16)),
                &[self.n as u64, bufs[0].addr, d_p.addr, bufs[1].addr],
                handlers,
            )?;
            bufs.swap(0, 1);
        }
        let out = rt.read_u32(bufs[0]);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let p = self.power();
        let mut t = self.temp();
        for _ in 0..self.steps {
            t = self.host_step(&t, &p);
        }
        WorkloadOutput::new(vec![t])
    }
}

// --------------------------------------------------------------- srad --

/// Which SRAD formulation to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SradVariant {
    /// Monolithic kernel (few, boundary-only branches).
    V1,
    /// Split kernels with a data-dependent clamp branch (more
    /// divergence, as Table 1 reports: 0.5% vs 21.3%).
    V2,
}

/// `srad`: speckle-reducing anisotropic diffusion (integerized).
#[derive(Clone, Copy, Debug)]
pub struct Srad {
    /// Variant.
    pub variant: SradVariant,
    /// Image side.
    pub n: usize,
    /// Iterations.
    pub iters: usize,
}

impl Srad {
    /// The v1 formulation.
    pub fn v1() -> Srad {
        Srad {
            variant: SradVariant::V1,
            n: 64,
            iters: 2,
        }
    }

    /// The v2 formulation.
    pub fn v2() -> Srad {
        Srad {
            variant: SradVariant::V2,
            n: 64,
            iters: 2,
        }
    }

    fn image(&self) -> Vec<u32> {
        data::random_u32(self.n * self.n, 256, 0x1b1)
    }

    fn host_step_v1(&self, img: &[u32]) -> Vec<u32> {
        let n = self.n;
        let mut out = img.to_vec();
        for y in 1..n - 1 {
            for x in 1..n - 1 {
                let i = y * n + x;
                let lap = img[i - 1]
                    .wrapping_add(img[i + 1])
                    .wrapping_add(img[i - n])
                    .wrapping_add(img[i + n])
                    .wrapping_sub(img[i].wrapping_mul(4));
                out[i] = img[i].wrapping_add(lap >> 2);
            }
        }
        out
    }

    fn host_step_v2(&self, img: &[u32]) -> Vec<u32> {
        let n = self.n;
        // Pass 1: diffusion coefficient (clamped gradient).
        let mut coeff = vec![0u32; n * n];
        for y in 1..n - 1 {
            for x in 1..n - 1 {
                let i = y * n + x;
                let g = img[i + 1].abs_diff(img[i - 1]) + img[i + n].abs_diff(img[i - n]);
                coeff[i] = if g > 64 { 64 } else { g };
            }
        }
        // Pass 2: update.
        let mut out = img.to_vec();
        for y in 1..n - 1 {
            for x in 1..n - 1 {
                let i = y * n + x;
                let lap = img[i - 1]
                    .wrapping_add(img[i + 1])
                    .wrapping_add(img[i - n])
                    .wrapping_add(img[i + n])
                    .wrapping_sub(img[i].wrapping_mul(4));
                out[i] = img[i].wrapping_add(lap.wrapping_mul(coeff[i]) >> 8);
            }
        }
        out
    }
}

fn interior_guard(b: &mut KernelBuilder, gx: V32, gy: V32, n: V32) -> sassi_kir::VP {
    let x1 = b.isub(gx, 1u32);
    let y1 = b.isub(gy, 1u32);
    let nm2 = b.isub(n, 2u32);
    let px = b.setp_u32_lt(x1, nm2);
    let py = b.setp_u32_lt(y1, nm2);
    b.and_p(px, py)
}

fn srad_v1_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("srad_v1");
    let bx = b.ctaid_x();
    let by = b.ctaid_y();
    let tx = b.tid_x();
    let ty = b.tid_y();
    let n = b.param_u32(0);
    let src = b.param_ptr(1);
    let dst = b.param_ptr(2);
    let gx = b.imad(bx, 16u32, tx);
    let gy = b.imad(by, 16u32, ty);
    let inside = interior_guard(&mut b, gx, gy, n);
    b.if_(inside, |b| {
        let i = b.imad(gy, n, gx);
        let e = b.lea(src, i, 2);
        let c = b.ld_global_u32(e);
        let il = b.isub(i, 1u32);
        let e1 = b.lea(src, il, 2);
        let vl = b.ld_global_u32(e1);
        let ir = b.iadd(i, 1u32);
        let e2 = b.lea(src, ir, 2);
        let vr = b.ld_global_u32(e2);
        let iu = b.isub(i, n);
        let e3 = b.lea(src, iu, 2);
        let vu = b.ld_global_u32(e3);
        let id = b.iadd(i, n);
        let e4 = b.lea(src, id, 2);
        let vd = b.ld_global_u32(e4);
        let sum = b.iadd(vl, vr);
        let sum = b.iadd(sum, vu);
        let sum = b.iadd(sum, vd);
        let c4 = b.shl(c, 2u32);
        let lap = b.isub(sum, c4);
        let q = b.shr(lap, 2u32);
        let nv = b.iadd(c, q);
        let eo = b.lea(dst, i, 2);
        b.st_global_u32(eo, nv);
    });
    b.finish()
}

fn srad_v2_kernel1() -> KFunction {
    let mut b = KernelBuilder::kernel("srad_v2_coeff");
    let bx = b.ctaid_x();
    let by = b.ctaid_y();
    let tx = b.tid_x();
    let ty = b.tid_y();
    let n = b.param_u32(0);
    let src = b.param_ptr(1);
    let coeff = b.param_ptr(2);
    let gx = b.imad(bx, 16u32, tx);
    let gy = b.imad(by, 16u32, ty);
    let inside = interior_guard(&mut b, gx, gy, n);
    b.if_(inside, |b| {
        let i = b.imad(gy, n, gx);
        let ir = b.iadd(i, 1u32);
        let e1 = b.lea(src, ir, 2);
        let vr = b.ld_global_u32(e1);
        let il = b.isub(i, 1u32);
        let e2 = b.lea(src, il, 2);
        let vl = b.ld_global_u32(e2);
        let id = b.iadd(i, n);
        let e3 = b.lea(src, id, 2);
        let vd = b.ld_global_u32(e3);
        let iu = b.isub(i, n);
        let e4 = b.lea(src, iu, 2);
        let vu = b.ld_global_u32(e4);
        // |a-b| with unsigned ops.
        let mx = b.umax(vr, vl);
        let mn = b.umin(vr, vl);
        let gh = b.isub(mx, mn);
        let mx2 = b.umax(vd, vu);
        let mn2 = b.umin(vd, vu);
        let gv = b.isub(mx2, mn2);
        let g = b.iadd(gh, gv);
        // Data-dependent clamp: the divergent branch of v2.
        let big = b.setp_u32_gt(g, 64u32);
        let out = b.var_u32(0u32);
        b.assign(out, g);
        b.if_(big, |b| {
            b.assign_imm(out, 64);
        });
        let eo = b.lea(coeff, i, 2);
        b.st_global_u32(eo, out);
    });
    b.finish()
}

fn srad_v2_kernel2() -> KFunction {
    let mut b = KernelBuilder::kernel("srad_v2_update");
    let bx = b.ctaid_x();
    let by = b.ctaid_y();
    let tx = b.tid_x();
    let ty = b.tid_y();
    let n = b.param_u32(0);
    let src = b.param_ptr(1);
    let coeff = b.param_ptr(2);
    let dst = b.param_ptr(3);
    let gx = b.imad(bx, 16u32, tx);
    let gy = b.imad(by, 16u32, ty);
    let inside = interior_guard(&mut b, gx, gy, n);
    b.if_(inside, |b| {
        let i = b.imad(gy, n, gx);
        let e = b.lea(src, i, 2);
        let c = b.ld_global_u32(e);
        let il = b.isub(i, 1u32);
        let e1 = b.lea(src, il, 2);
        let vl = b.ld_global_u32(e1);
        let ir = b.iadd(i, 1u32);
        let e2 = b.lea(src, ir, 2);
        let vr = b.ld_global_u32(e2);
        let iu = b.isub(i, n);
        let e3 = b.lea(src, iu, 2);
        let vu = b.ld_global_u32(e3);
        let id = b.iadd(i, n);
        let e4 = b.lea(src, id, 2);
        let vd = b.ld_global_u32(e4);
        let ec = b.lea(coeff, i, 2);
        let cf = b.ld_global_u32(ec);
        let sum = b.iadd(vl, vr);
        let sum = b.iadd(sum, vu);
        let sum = b.iadd(sum, vd);
        let c4 = b.shl(c, 2u32);
        let lap = b.isub(sum, c4);
        let scaled = b.imul(lap, cf);
        let q = b.shr(scaled, 8u32);
        let nv = b.iadd(c, q);
        let eo = b.lea(dst, i, 2);
        b.st_global_u32(eo, nv);
    });
    b.finish()
}

impl Workload for Srad {
    fn name(&self) -> String {
        match self.variant {
            SradVariant::V1 => "srad_v1".to_string(),
            SradVariant::V2 => "srad_v2".to_string(),
        }
    }

    fn kernels(&self) -> Vec<KFunction> {
        match self.variant {
            SradVariant::V1 => vec![srad_v1_kernel()],
            SradVariant::V2 => vec![srad_v2_kernel1(), srad_v2_kernel2()],
        }
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let img0 = self.image();
        rt.clock.add_host(0.2e-3);
        let mut bufs = [rt.alloc_u32(&img0), rt.alloc_u32(&img0)];
        let d_cf = rt.alloc_zeroed_u32(self.n * self.n);
        let blocks = (self.n as u32) / 16;
        let dims = LaunchDims::plane((blocks, blocks), (16, 16));
        for _ in 0..self.iters {
            let cur = rt.read_u32(bufs[0]);
            rt.write_u32(bufs[1], &cur);
            match self.variant {
                SradVariant::V1 => {
                    launch(
                        rt,
                        module,
                        "srad_v1",
                        dims,
                        &[self.n as u64, bufs[0].addr, bufs[1].addr],
                        handlers,
                    )?;
                }
                SradVariant::V2 => {
                    launch(
                        rt,
                        module,
                        "srad_v2_coeff",
                        dims,
                        &[self.n as u64, bufs[0].addr, d_cf.addr],
                        handlers,
                    )?;
                    launch(
                        rt,
                        module,
                        "srad_v2_update",
                        dims,
                        &[self.n as u64, bufs[0].addr, d_cf.addr, bufs[1].addr],
                        handlers,
                    )?;
                }
            }
            bufs.swap(0, 1);
        }
        let out = rt.read_u32(bufs[0]);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let mut img = self.image();
        for _ in 0..self.iters {
            img = match self.variant {
                SradVariant::V1 => self.host_step_v1(&img),
                SradVariant::V2 => self.host_step_v2(&img),
            };
        }
        WorkloadOutput::new(vec![img])
    }
}
