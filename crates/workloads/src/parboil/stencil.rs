//! Parboil-style `stencil`: 3-D 7-point Jacobi sweep. One thread per
//! (x, y) column, marching in z; boundary threads idle, giving the
//! light, structured divergence typical of stencils.

use crate::prelude::*;

/// 7-point stencil on an `nx × ny × nz` grid.
#[derive(Clone, Copy, Debug)]
pub struct Stencil {
    /// Grid extent in x.
    pub nx: u32,
    /// Grid extent in y.
    pub ny: u32,
    /// Grid extent in z.
    pub nz: u32,
}

impl Stencil {
    /// The default dataset.
    pub fn new() -> Stencil {
        Stencil {
            nx: 24,
            ny: 24,
            nz: 8,
        }
    }

    fn input(&self) -> Vec<u32> {
        data::random_f32_bits((self.nx * self.ny * self.nz) as usize, 0x99)
    }

    fn host_stencil(&self, a: &[u32]) -> Vec<u32> {
        let (nx, ny, nz) = (self.nx as usize, self.ny as usize, self.nz as usize);
        let idx = |x: usize, y: usize, z: usize| z * nx * ny + y * nx + x;
        let mut out = a.to_vec();
        for z in 1..nz - 1 {
            for y in 1..ny - 1 {
                for x in 1..nx - 1 {
                    let f = |i: usize| f32::from_bits(a[i]);
                    // Same association order as the kernel.
                    let sum = f(idx(x - 1, y, z)) + f(idx(x + 1, y, z));
                    let sum = sum + f(idx(x, y - 1, z));
                    let sum = sum + f(idx(x, y + 1, z));
                    let sum = sum + f(idx(x, y, z - 1));
                    let sum = sum + f(idx(x, y, z + 1));
                    let c = f(idx(x, y, z));
                    let v = 0.15f32.mul_add(sum, c * 0.1);
                    out[idx(x, y, z)] = v.to_bits();
                }
            }
        }
        out
    }
}

impl Default for Stencil {
    fn default() -> Stencil {
        Stencil::new()
    }
}

fn stencil_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("stencil");
    let bx = b.ctaid_x();
    let by = b.ctaid_y();
    let tx = b.tid_x();
    let ty = b.tid_y();
    let nx = b.param_u32(0);
    let ny = b.param_u32(1);
    let nz = b.param_u32(2);
    let src = b.param_ptr(3);
    let dst = b.param_ptr(4);
    let x = b.imad(bx, 16u32, tx);
    let y = b.imad(by, 16u32, ty);

    let x1 = b.isub(x, 1u32);
    let y1 = b.isub(y, 1u32);
    let nxm = b.isub(nx, 2u32);
    let nym = b.isub(ny, 2u32);
    // interior iff x-1 < nx-2 (unsigned trick: x >= 1 && x <= nx-2).
    let px = b.setp_u32_lt(x1, nxm);
    let py = b.setp_u32_lt(y1, nym);
    let interior = b.and_p(px, py);
    b.if_(interior, |b| {
        let plane = b.imul(nx, ny);
        let row = b.imad(y, nx, x);
        let nzm1 = b.isub(nz, 1u32);
        let z = b.var_u32(1u32);
        b.while_(
            |b| b.setp_u32_lt(z, nzm1),
            |b| {
                let center = b.imad(z, plane, row);
                let e_c = b.lea(src, center, 2);
                let c = b.ld_global_f32(e_c);
                let im1 = b.isub(center, 1u32);
                let e1 = b.lea(src, im1, 2);
                let v1 = b.ld_global_f32(e1);
                let ip1 = b.iadd(center, 1u32);
                let e2 = b.lea(src, ip1, 2);
                let v2 = b.ld_global_f32(e2);
                let iym = b.isub(center, nx);
                let e3 = b.lea(src, iym, 2);
                let v3 = b.ld_global_f32(e3);
                let iyp = b.iadd(center, nx);
                let e4 = b.lea(src, iyp, 2);
                let v4 = b.ld_global_f32(e4);
                let izm = b.isub(center, plane);
                let e5 = b.lea(src, izm, 2);
                let v5 = b.ld_global_f32(e5);
                let izp = b.iadd(center, plane);
                let e6 = b.lea(src, izp, 2);
                let v6 = b.ld_global_f32(e6);

                let sum = b.fadd(v1, v2);
                let sum = b.fadd(sum, v3);
                let sum = b.fadd(sum, v4);
                let sum = b.fadd(sum, v5);
                let sum = b.fadd(sum, v6);
                let k015 = b.fconst(0.15);
                let cterm = b.fmul(c, 0.1f32);
                let v = b.ffma(k015, sum, cterm);
                let e_o = b.lea(dst, center, 2);
                b.st_global_u32(e_o, v);

                let zn = b.iadd(z, 1u32);
                b.assign(z, zn);
            },
        );
    });
    b.finish()
}

impl Workload for Stencil {
    fn name(&self) -> String {
        "stencil".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![stencil_kernel()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let a = self.input();
        rt.clock.add_host(0.3e-3);
        let src = rt.alloc_u32(&a);
        let dst = rt.alloc_u32(&a); // boundaries carry through
        let dims = LaunchDims::plane((self.nx.div_ceil(16), self.ny.div_ceil(16)), (16, 16));
        launch(
            rt,
            module,
            "stencil",
            dims,
            &[
                self.nx as u64,
                self.ny as u64,
                self.nz as u64,
                src.addr,
                dst.addr,
            ],
            handlers,
        )?;
        let out = rt.read_u32(dst);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let out = self.host_stencil(&self.input());
        WorkloadOutput::new(vec![out])
    }
}
