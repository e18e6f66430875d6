//! Rodinia-style linear-algebra workloads: `gaussian` (elimination with
//! many tiny launches), `lud` (tiled LU with shared memory) and `nw`
//! (Needleman-Wunsch wavefront DP).

use crate::prelude::*;

// ---------------------------------------------------------- gaussian --

/// `gaussian`: elimination without pivoting; 2 launches per column
/// (matching the original's thousands of tiny launches).
#[derive(Clone, Copy, Debug)]
pub struct Gaussian {
    /// Matrix dimension.
    pub n: usize,
}

impl Gaussian {
    /// Default dataset.
    pub fn new() -> Gaussian {
        Gaussian { n: 48 }
    }

    /// Diagonally dominant input keeps the elimination stable.
    fn matrix(&self) -> Vec<u32> {
        let n = self.n;
        let mut a = data::random_f32_bits(n * n, 0x171);
        for i in 0..n {
            a[i * n + i] = (f32::from_bits(a[i * n + i]) + n as f32).to_bits();
        }
        a
    }

    fn host_eliminate(&self) -> Vec<u32> {
        let n = self.n;
        let mut a: Vec<f32> = self.matrix().iter().map(|&b| f32::from_bits(b)).collect();
        for k in 0..n - 1 {
            let inv = 1.0f32 / a[k * n + k];
            // Fan1: multipliers stored in column k below the diagonal.
            let ms: Vec<f32> = (k + 1..n).map(|i| a[i * n + k] * inv).collect();
            // Fan2: row updates.
            for (off, i) in (k + 1..n).enumerate() {
                let m = ms[off];
                for j in k..n {
                    a[i * n + j] -= m * a[k * n + j];
                }
                a[i * n + k] = m; // keep the multiplier, like LU
            }
        }
        a.iter().map(|v| v.to_bits()).collect()
    }
}

impl Default for Gaussian {
    fn default() -> Gaussian {
        Gaussian::new()
    }
}

/// Fan1: m[i] = a[i][k] / a[k][k] for i in k+1..n.
fn fan1_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("fan1");
    let tid = b.global_tid_x();
    let n = b.param_u32(0);
    let k = b.param_u32(1);
    let a = b.param_ptr(2);
    let m = b.param_ptr(3);
    let k1 = b.iadd(k, 1u32);
    let i = b.iadd(tid, k1);
    let inr = b.setp_u32_lt(i, n);
    b.if_(inr, |b| {
        let idx_kk = b.imad(k, n, k);
        let ekk = b.lea(a, idx_kk, 2);
        let akk = b.ld_global_f32(ekk);
        let inv = b.mufu(sassi_isa::MufuFunc::Rcp, akk);
        let idx_ik = b.imad(i, n, k);
        let eik = b.lea(a, idx_ik, 2);
        let aik = b.ld_global_f32(eik);
        let mv = b.fmul(aik, inv);
        let em = b.lea(m, i, 2);
        b.st_global_u32(em, mv);
    });
    b.finish()
}

/// Fan2: a[i][j] -= m[i] * a[k][j] for i>k, j>=k; then a[i][k] = m[i].
fn fan2_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("fan2");
    let bx = b.ctaid_x();
    let by = b.ctaid_y();
    let tx = b.tid_x();
    let ty = b.tid_y();
    let n = b.param_u32(0);
    let k = b.param_u32(1);
    let a = b.param_ptr(2);
    let m = b.param_ptr(3);
    let k1 = b.iadd(k, 1u32);
    let jj = b.imad(bx, 16u32, tx);
    let ii = b.imad(by, 16u32, ty);
    let i = b.iadd(ii, k1);
    let j = b.iadd(jj, k);
    let pi = b.setp_u32_lt(i, n);
    let pj = b.setp_u32_lt(j, n);
    let inr = b.and_p(pi, pj);
    b.if_(inr, |b| {
        let em = b.lea(m, i, 2);
        let mv = b.ld_global_f32(em);
        let idx_kj = b.imad(k, n, j);
        let ekj = b.lea(a, idx_kj, 2);
        let akj = b.ld_global_f32(ekj);
        let idx_ij = b.imad(i, n, j);
        let eij = b.lea(a, idx_ij, 2);
        let aij = b.ld_global_f32(eij);
        let prod = b.fmul(mv, akj);
        let nv = b.fsub(aij, prod);
        b.st_global_u32(eij, nv);
        // j == k lane also records the multiplier afterwards.
        let at_k = b.setp_u32_eq(j, k);
        b.if_(at_k, |b| {
            b.st_global_u32(eij, mv);
        });
    });
    b.finish()
}

impl Workload for Gaussian {
    fn name(&self) -> String {
        "gaussian".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![fan1_kernel(), fan2_kernel()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let n = self.n;
        rt.clock.add_host(0.3e-3);
        let d_a = rt.alloc_u32(&self.matrix());
        let d_m = rt.alloc_zeroed_u32(n);
        for k in 0..n - 1 {
            let rows = (n - k - 1) as u32;
            launch(
                rt,
                module,
                "fan1",
                LaunchDims::linear(grid_for(rows, 64), 64),
                &[n as u64, k as u64, d_a.addr, d_m.addr],
                handlers,
            )?;
            let cols = (n - k) as u32;
            launch(
                rt,
                module,
                "fan2",
                LaunchDims::plane((cols.div_ceil(16), rows.div_ceil(16)), (16, 16)),
                &[n as u64, k as u64, d_a.addr, d_m.addr],
                handlers,
            )?;
        }
        let out = rt.read_u32(d_a);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let out = self.host_eliminate();
        WorkloadOutput::new(vec![out])
    }
}

// --------------------------------------------------------------- lud --

/// `lud`: blocked LU-style update using a shared-memory tile and block
/// barriers (exercises `LDS`/`STS` and `BAR.SYNC`).
#[derive(Clone, Copy, Debug)]
pub struct Lud {
    /// Matrix dimension (multiple of 16).
    pub n: usize,
}

impl Lud {
    /// Default dataset.
    pub fn new() -> Lud {
        Lud { n: 64 }
    }

    fn matrix(&self) -> Vec<u32> {
        data::random_u32(self.n * self.n, 64, 0x181)
    }

    fn host(&self) -> Vec<u32> {
        // The kernel computes, per 16×16 tile, out = tile + rowsum*colsum
        // staged through shared memory.
        let n = self.n;
        let a = self.matrix();
        let mut out = vec![0u32; n * n];
        for by in (0..n).step_by(16) {
            for bx in (0..n).step_by(16) {
                // Tile sums.
                let mut rowsum = [0u32; 16];
                let mut colsum = [0u32; 16];
                for y in 0..16 {
                    for x in 0..16 {
                        let v = a[(by + y) * n + bx + x];
                        rowsum[y] = rowsum[y].wrapping_add(v);
                        colsum[x] = colsum[x].wrapping_add(v);
                    }
                }
                for y in 0..16 {
                    for x in 0..16 {
                        let v = a[(by + y) * n + bx + x];
                        out[(by + y) * n + bx + x] =
                            v.wrapping_add(rowsum[y].wrapping_mul(colsum[x]));
                    }
                }
            }
        }
        out
    }
}

impl Default for Lud {
    fn default() -> Lud {
        Lud::new()
    }
}

fn lud_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("lud_tile");
    let tile = b.shared_alloc(16 * 16 * 4);
    let rowsum = b.shared_alloc(16 * 4);
    let colsum = b.shared_alloc(16 * 4);
    let bx = b.ctaid_x();
    let by = b.ctaid_y();
    let tx = b.tid_x();
    let ty = b.tid_y();
    let n = b.param_u32(0);
    let a = b.param_ptr(1);
    let out = b.param_ptr(2);
    let gx = b.imad(bx, 16u32, tx);
    let gy = b.imad(by, 16u32, ty);
    let gidx = b.imad(gy, n, gx);
    let ea = b.lea(a, gidx, 2);
    let v = b.ld_global_u32(ea);
    // Stage the tile in shared memory.
    let t16 = b.imad(ty, 16u32, tx);
    let toff = b.shl(t16, 2u32);
    let tbase = b.iadd(toff, tile.offset);
    b.st_shared_u32(tbase, 0, v);
    b.bar_sync();
    // Row 0 threads compute column sums; column 0 threads row sums.
    let is_row0 = b.setp_u32_eq(ty, 0u32);
    b.if_(is_row0, |b| {
        let acc = b.var_u32(0u32);
        for yy in 0..16u32 {
            let idx = b.iadd(tx, yy * 16);
            let off = b.shl(idx, 2u32);
            let sb = b.iadd(off, tile.offset);
            let tv = b.ld_shared_u32(sb, 0);
            let nxt = b.iadd(acc, tv);
            b.assign(acc, nxt);
        }
        let co = b.shl(tx, 2u32);
        let cb = b.iadd(co, colsum.offset);
        b.st_shared_u32(cb, 0, acc);
    });
    let is_col0 = b.setp_u32_eq(tx, 0u32);
    b.if_(is_col0, |b| {
        let acc = b.var_u32(0u32);
        for xx in 0..16u32 {
            let c = b.iconst(xx);
            let idx = b.imad(ty, 16u32, c);
            let off = b.shl(idx, 2u32);
            let sb = b.iadd(off, tile.offset);
            let tv = b.ld_shared_u32(sb, 0);
            let nxt = b.iadd(acc, tv);
            b.assign(acc, nxt);
        }
        let ro = b.shl(ty, 2u32);
        let rb = b.iadd(ro, rowsum.offset);
        b.st_shared_u32(rb, 0, acc);
    });
    b.bar_sync();
    let ro = b.shl(ty, 2u32);
    let rb = b.iadd(ro, rowsum.offset);
    let rs = b.ld_shared_u32(rb, 0);
    let co = b.shl(tx, 2u32);
    let cb = b.iadd(co, colsum.offset);
    let cs = b.ld_shared_u32(cb, 0);
    let prod = b.imul(rs, cs);
    let res = b.iadd(v, prod);
    let eo = b.lea(out, gidx, 2);
    b.st_global_u32(eo, res);
    b.finish()
}

impl Workload for Lud {
    fn name(&self) -> String {
        "lud".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![lud_kernel()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let n = self.n;
        rt.clock.add_host(0.2e-3);
        let d_a = rt.alloc_u32(&self.matrix());
        let d_o = rt.alloc_zeroed_u32(n * n);
        let blocks = (n as u32) / 16;
        launch(
            rt,
            module,
            "lud_tile",
            LaunchDims::plane((blocks, blocks), (16, 16)),
            &[n as u64, d_a.addr, d_o.addr],
            handlers,
        )?;
        let out = rt.read_u32(d_o);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let out = self.host();
        WorkloadOutput::new(vec![out])
    }
}

// ---------------------------------------------------------------- nw --

/// `nw`: Needleman-Wunsch DP, computed one anti-diagonal per launch.
#[derive(Clone, Copy, Debug)]
pub struct Nw {
    /// Sequence length.
    pub n: usize,
    /// Gap penalty.
    pub gap: u32,
}

impl Nw {
    /// Default dataset.
    pub fn new() -> Nw {
        Nw { n: 96, gap: 2 }
    }

    fn similarity(&self) -> Vec<u32> {
        // Pre-computed similarity matrix entries in 0..10.
        data::random_u32(self.n * self.n, 10, 0x191)
    }

    fn host(&self) -> Vec<u32> {
        let n = self.n;
        let sim = self.similarity();
        // score is (n+1)x(n+1), stored row-major; borders are i*gap.
        let w = n + 1;
        let mut s = vec![0i64; w * w];
        for i in 0..w {
            s[i * w] = -((i as u32 * self.gap) as i64);
            s[i] = -((i as u32 * self.gap) as i64);
        }
        for i in 1..w {
            for j in 1..w {
                let m = s[(i - 1) * w + j - 1] + sim[(i - 1) * n + j - 1] as i64;
                let d = s[(i - 1) * w + j] - self.gap as i64;
                let l = s[i * w + j - 1] - self.gap as i64;
                s[i * w + j] = m.max(d).max(l);
            }
        }
        s.iter().map(|&v| v as i32 as u32).collect()
    }
}

impl Default for Nw {
    fn default() -> Nw {
        Nw::new()
    }
}

/// One anti-diagonal: cells (i, d-i) for valid i.
fn nw_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("nw_diag");
    let tid = b.global_tid_x();
    let n = b.param_u32(0); // sequence length
    let d = b.param_u32(1); // diagonal index, 2..=2n
    let score = b.param_ptr(2); // (n+1)^2 i32 grid
    let sim = b.param_ptr(3);
    let w = b.iadd(n, 1u32);
    // i ranges over max(1, d-n) ..= min(n, d-1); thread tid maps to
    // i = lo + tid.
    let dm1 = b.isub(d, 1u32);
    let dmn = b.isub(d, n);
    let one = b.iconst(1);
    let lo_p = b.setp_s32_gt(dmn, 1u32);
    let lo = b.sel(lo_p, dmn, VSrc::Reg(one.vreg()));
    let hi_a = b.umin(dm1, n);
    let i = b.iadd(lo, tid);
    let hi1 = b.iadd(hi_a, 1u32);
    let ok = b.setp_u32_lt(i, hi1);
    b.if_(ok, |b| {
        let j = b.isub(d, i);
        let im1 = b.isub(i, 1u32);
        let jm1 = b.isub(j, 1u32);
        let idx_m = b.imad(im1, w, jm1);
        let em = b.lea(score, idx_m, 2);
        let sm = b.ld_global_u32(em);
        let idx_u = b.imad(im1, w, j);
        let eu = b.lea(score, idx_u, 2);
        let su = b.ld_global_u32(eu);
        let idx_l = b.imad(i, w, jm1);
        let el = b.lea(score, idx_l, 2);
        let sl = b.ld_global_u32(el);
        let idx_s = b.imad(im1, n, jm1);
        let es = b.lea(sim, idx_s, 2);
        let sv = b.ld_global_u32(es);
        let gap = b.param_u32(4);
        let m = b.iadd(sm, sv);
        let dd = b.isub(su, gap);
        let ll = b.isub(sl, gap);
        let mx1 = b.imax(m, dd);
        let mx = b.imax(mx1, ll);
        let idx = b.imad(i, w, j);
        let eo = b.lea(score, idx, 2);
        b.st_global_u32(eo, mx);
    });
    b.finish()
}

impl Workload for Nw {
    fn name(&self) -> String {
        "nw".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![nw_kernel()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let n = self.n;
        let w = n + 1;
        rt.clock.add_host(0.25e-3);
        let mut init = vec![0u32; w * w];
        for i in 0..w {
            init[i * w] = (-((i as u32 * self.gap) as i64) as i32) as u32;
            init[i] = (-((i as u32 * self.gap) as i64) as i32) as u32;
        }
        let d_s = rt.alloc_u32(&init);
        let d_sim = rt.alloc_u32(&self.similarity());
        for d in 2..=2 * n {
            let lo = if d > n { d - n } else { 1 };
            let hi = n.min(d - 1);
            let count = (hi - lo + 1) as u32;
            launch(
                rt,
                module,
                "nw_diag",
                LaunchDims::linear(grid_for(count, 64), 64),
                &[n as u64, d as u64, d_s.addr, d_sim.addr, self.gap as u64],
                handlers,
            )?;
        }
        let out = rt.read_u32(d_s);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let out = self.host();
        WorkloadOutput::new(vec![out])
    }
}
