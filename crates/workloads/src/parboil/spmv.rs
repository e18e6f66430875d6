//! Parboil-style `spmv`: sparse matrix–vector product, CSR, one row per
//! thread. Skewed row lengths make both control flow (loop trip counts)
//! and memory addresses diverge — a Figure 7 staple.

use crate::prelude::*;

/// CSR sparse mat-vec.
#[derive(Clone, Copy, Debug)]
pub struct Spmv {
    /// Matrix rows/cols.
    pub rows: usize,
    /// Mean nonzeros per row.
    pub mean_nnz: usize,
    /// Dataset label ("small" / "medium" / "large").
    pub dataset: &'static str,
}

impl Spmv {
    /// The `small` dataset.
    pub fn small() -> Spmv {
        Spmv {
            rows: 1024,
            mean_nnz: 4,
            dataset: "small",
        }
    }

    /// The `medium` dataset.
    pub fn medium() -> Spmv {
        Spmv {
            rows: 2048,
            mean_nnz: 6,
            dataset: "medium",
        }
    }

    /// The `large` dataset.
    pub fn large() -> Spmv {
        Spmv {
            rows: 4096,
            mean_nnz: 8,
            dataset: "large",
        }
    }

    fn matrix(&self) -> data::CsrMatrix {
        data::skewed_csr(self.rows, self.rows, self.mean_nnz, 0x77 + self.rows as u64)
    }

    fn x(&self) -> Vec<u32> {
        data::random_u32(self.rows, 1000, 0x88)
    }
}

/// Builds the CSR row-per-thread kernel shared with miniFE's CSR
/// variant.
pub fn csr_spmv_kernel(name: &str) -> KFunction {
    let mut b = KernelBuilder::kernel(name);
    let row = b.global_tid_x();
    let nrows = b.param_u32(0);
    let row_ptr = b.param_ptr(1);
    let col_idx = b.param_ptr(2);
    let values = b.param_ptr(3);
    let x = b.param_ptr(4);
    let y = b.param_ptr(5);
    let inrange = b.setp_u32_lt(row, nrows);
    b.if_(inrange, |b| {
        let erp = b.lea(row_ptr, row, 2);
        let start = b.ld_global_u32(erp);
        let end = b.ld_global_u32_off(erp, 4);
        let acc = b.var_u32(0u32);
        b.for_range(start, end, 1, |b, k| {
            let ev = b.lea(values, k, 2);
            let v = b.ld_global_u32(ev);
            let ec = b.lea(col_idx, k, 2);
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

impl Workload for Spmv {
    fn name(&self) -> String {
        format!("spmv ({})", self.dataset)
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![csr_spmv_kernel("spmv_csr")]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let m = self.matrix();
        let x = self.x();
        rt.clock.add_host(0.5e-3);
        let d_rp = rt.alloc_u32(&m.row_ptr);
        let d_ci = rt.alloc_u32(&m.col_idx);
        let d_v = rt.alloc_u32(&m.values);
        let d_x = rt.alloc_u32(&x);
        let d_y = rt.alloc_zeroed_u32(m.rows);
        let dims = LaunchDims::linear(grid_for(m.rows as u32, 128), 128);
        launch(
            rt,
            module,
            "spmv_csr",
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
        let out = rt.read_u32(d_y);
        rt.clock.add_host(0.1e-3);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let y = self.matrix().spmv(&self.x());
        WorkloadOutput::new(vec![y])
    }
}
