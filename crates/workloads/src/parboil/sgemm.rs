//! Parboil-style `sgemm`: dense single-precision matrix multiply.
//!
//! One thread per output element, uniform loop bounds — fully
//! convergent control flow, which is why Table 1 reports zero divergent
//! branches for it on every dataset.

use crate::prelude::*;

/// Dense matmul with `n × n` matrices.
#[derive(Clone, Copy, Debug)]
pub struct Sgemm {
    /// Matrix dimension.
    pub n: u32,
    /// Dataset label ("small" / "medium").
    pub dataset: &'static str,
}

impl Sgemm {
    /// The `small` dataset.
    pub fn small() -> Sgemm {
        Sgemm {
            n: 48,
            dataset: "small",
        }
    }

    /// The `medium` dataset.
    pub fn medium() -> Sgemm {
        Sgemm {
            n: 80,
            dataset: "medium",
        }
    }

    fn inputs(&self) -> (Vec<u32>, Vec<u32>) {
        let n = (self.n * self.n) as usize;
        (
            data::random_f32_bits(n, 0x5e),
            data::random_f32_bits(n, 0x6f),
        )
    }

    fn host_gemm(&self, a: &[u32], bm: &[u32]) -> Vec<u32> {
        let n = self.n as usize;
        let mut c = vec![0u32; n * n];
        for y in 0..n {
            for x in 0..n {
                let mut acc = 0.0f32;
                for k in 0..n {
                    let av = f32::from_bits(a[y * n + k]);
                    let bv = f32::from_bits(bm[k * n + x]);
                    acc = av.mul_add(bv, acc); // FFMA, same as the kernel
                }
                c[y * n + x] = acc.to_bits();
            }
        }
        c
    }
}

fn sgemm_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("sgemm");
    let bx = b.ctaid_x();
    let by = b.ctaid_y();
    let tx = b.tid_x();
    let ty = b.tid_y();
    let n = b.param_u32(0);
    let pa = b.param_ptr(1);
    let pb = b.param_ptr(2);
    let pc = b.param_ptr(3);
    let x = b.imad(bx, 16u32, tx);
    let y = b.imad(by, 16u32, ty);
    let inx = b.setp_u32_lt(x, n);
    let iny = b.setp_u32_lt(y, n);
    let inside = b.and_p(inx, iny);
    b.if_(inside, |b| {
        let acc = b.var_u32(0u32); // f32 bits
        let row_base = b.imul(y, VSrc::Reg(n.vreg())); // y*n
        b.for_range(0u32, n, 1, |b, k| {
            let ia = b.iadd(row_base, VSrc::Reg(k.vreg())); // y*n + k
            let ea = b.lea(pa, ia, 2);
            let av = b.ld_global_f32(ea);
            let ib = b.imad(k, VSrc::Reg(n.vreg()), x); // k*n + x
            let eb = b.lea(pb, ib, 2);
            let bv = b.ld_global_f32(eb);
            let nxt = b.ffma(av, VSrc::Reg(bv.vreg()), acc);
            b.assign(acc, nxt);
        });
        let ic = b.iadd(row_base, VSrc::Reg(x.vreg()));
        let ec = b.lea(pc, ic, 2);
        b.st_global_u32(ec, acc);
    });
    b.finish()
}

impl Workload for Sgemm {
    fn name(&self) -> String {
        format!("sgemm ({})", self.dataset)
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![sgemm_kernel()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let (a, bm) = self.inputs();
        rt.clock.add_host(0.6e-3);
        let da = rt.alloc_u32(&a);
        let db = rt.alloc_u32(&bm);
        let dc = rt.alloc_zeroed_u32((self.n * self.n) as usize);
        let blocks = self.n.div_ceil(16);
        let dims = LaunchDims::plane((blocks, blocks), (16, 16));
        launch(
            rt,
            module,
            "sgemm",
            dims,
            &[self.n as u64, da.addr, db.addr, dc.addr],
            handlers,
        )?;
        let out = rt.read_u32(dc);
        rt.clock.add_host(0.2e-3);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let (a, bm) = self.inputs();
        let c = self.host_gemm(&a, &bm);
        WorkloadOutput::new(vec![c])
    }
}
