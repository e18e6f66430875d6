//! miniFE-style CG step: sparse mat-vec plus a dot product, with the
//! matrix stored either as **CSR** (row-per-thread, scattered accesses,
//! heavily address-diverged — Figure 8 left) or as column-major **ELL**
//! (lane-contiguous accesses, well coalesced — Figure 8 right).

use crate::parboil::spmv::csr_spmv_kernel;
use crate::prelude::*;

/// Matrix storage format.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MiniFeFormat {
    /// Compressed sparse row.
    Csr,
    /// Padded ELLPACK, column-major.
    Ell,
}

/// The miniFE-style workload.
#[derive(Clone, Copy, Debug)]
pub struct MiniFe {
    /// Storage format.
    pub format: MiniFeFormat,
    /// Rows of the banded system matrix.
    pub rows: usize,
}

impl MiniFe {
    /// miniFE with the CSR matrix format.
    pub fn csr() -> MiniFe {
        MiniFe {
            format: MiniFeFormat::Csr,
            rows: 2048,
        }
    }

    /// miniFE with the ELL matrix format.
    pub fn ell() -> MiniFe {
        MiniFe {
            format: MiniFeFormat::Ell,
            rows: 2048,
        }
    }

    fn matrix(&self) -> data::CsrMatrix {
        match self.format {
            // The CSR variant stresses irregularity: skewed rows.
            MiniFeFormat::Csr => data::skewed_csr(self.rows, self.rows, 8, 0xf1),
            // The ELL variant holds the banded (regular) matrix.
            MiniFeFormat::Ell => data::banded_csr(self.rows, 7, 0xf2),
        }
    }

    fn x(&self) -> Vec<u32> {
        data::random_u32(self.rows, 64, 0xf3)
    }
}

/// ELL mat-vec: entry (r, j) at `j*rows + r`, so warps read
/// consecutive addresses each iteration.
fn ell_spmv_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("minife_ell");
    let row = b.global_tid_x();
    let nrows = b.param_u32(0);
    let width = b.param_u32(1);
    let cols = b.param_ptr(2);
    let vals = b.param_ptr(3);
    let x = b.param_ptr(4);
    let y = b.param_ptr(5);
    let inr = b.setp_u32_lt(row, nrows);
    b.if_(inr, |b| {
        let acc = b.var_u32(0u32);
        b.for_range(0u32, width, 1, |b, j| {
            let idx = b.imad(j, nrows, row);
            let ev = b.lea(vals, idx, 2);
            let v = b.ld_global_u32(ev);
            let ec = b.lea(cols, idx, 2);
            let c = b.ld_global_u32(ec);
            let ex = b.lea(x, c, 2);
            let xv = b.ld_global_u32(ex);
            let nxt = b.imad(v, xv, acc);
            b.assign(acc, nxt);
        });
        let ey = b.lea(y, row, 2);
        b.st_global_u32(ey, acc);
    });
    b.finish()
}

/// Warp-reduced dot product `out += Σ a[i]*b[i]` using `SHFL` butterfly
/// reduction plus one atomic per warp — miniFE's CG dot.
fn dot_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("minife_dot");
    let tid = b.global_tid_x();
    let n = b.param_u32(0);
    let pa = b.param_ptr(1);
    let pb = b.param_ptr(2);
    let out = b.param_ptr(3);
    let inr = b.setp_u32_lt(tid, n);
    let zero = b.iconst(0);
    let prod = b.var_u32(0u32);
    b.if_(inr, |b| {
        let ea = b.lea(pa, tid, 2);
        let av = b.ld_global_u32(ea);
        let eb = b.lea(pb, tid, 2);
        let bv = b.ld_global_u32(eb);
        let p = b.imad(av, bv, zero);
        b.assign(prod, p);
    });
    // Butterfly reduction across the (fully reconverged) warp.
    for delta in [16u32, 8, 4, 2, 1] {
        let other = b.shfl_xor(prod, delta);
        let sum = b.iadd(prod, other);
        b.assign(prod, sum);
    }
    let lane = b.lane_id();
    let is_leader = b.setp_u32_eq(lane, 0u32);
    b.if_(is_leader, |b| {
        let _ = b.atom_add_global(out, prod);
    });
    b.finish()
}

impl Workload for MiniFe {
    fn name(&self) -> String {
        match self.format {
            MiniFeFormat::Csr => "miniFE (CSR)".to_string(),
            MiniFeFormat::Ell => "miniFE (ELL)".to_string(),
        }
    }

    fn kernels(&self) -> Vec<KFunction> {
        match self.format {
            MiniFeFormat::Csr => vec![csr_spmv_kernel("minife_csr"), dot_kernel()],
            MiniFeFormat::Ell => vec![ell_spmv_kernel(), dot_kernel()],
        }
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let m = self.matrix();
        let x = self.x();
        rt.clock.add_host(1.2e-3); // mesh assembly
        let d_x = rt.alloc_u32(&x);
        let d_y = rt.alloc_zeroed_u32(m.rows);
        let dims = LaunchDims::linear(grid_for(m.rows as u32, 128), 128);

        match self.format {
            MiniFeFormat::Csr => {
                let d_rp = rt.alloc_u32(&m.row_ptr);
                let d_ci = rt.alloc_u32(&m.col_idx);
                let d_v = rt.alloc_u32(&m.values);
                launch(
                    rt,
                    module,
                    "minife_csr",
                    dims,
                    &[
                        m.rows as u64,
                        d_rp.addr,
                        d_ci.addr,
                        d_v.addr,
                        d_x.addr,
                        d_y.addr,
                    ],
                    handlers,
                )?;
            }
            MiniFeFormat::Ell => {
                let (width, cols, vals) = m.to_ell();
                let d_c = rt.alloc_u32(&cols);
                let d_v = rt.alloc_u32(&vals);
                launch(
                    rt,
                    module,
                    "minife_ell",
                    dims,
                    &[
                        m.rows as u64,
                        width as u64,
                        d_c.addr,
                        d_v.addr,
                        d_x.addr,
                        d_y.addr,
                    ],
                    handlers,
                )?;
            }
        }

        let d_dot = rt.alloc_zeroed_u32(1);
        launch(
            rt,
            module,
            "minife_dot",
            dims,
            &[m.rows as u64, d_y.addr, d_x.addr, d_dot.addr],
            handlers,
        )?;

        let y = rt.read_u32(d_y);
        let dot = rt.read_u32(d_dot);
        Ok(WorkloadOutput::new(vec![y, dot]))
    }

    fn golden(&self) -> WorkloadOutput {
        let m = self.matrix();
        let x = self.x();
        let y = m.spmv(&x);
        let dot = vec![y
            .iter()
            .zip(&x)
            .fold(0u32, |acc, (&a, &b)| acc.wrapping_add(a.wrapping_mul(b)))];
        WorkloadOutput::new(vec![y, dot])
    }
}
