//! Parboil-style `histo`: saturating histogram with atomic updates.
//! Convergent control flow, heavy atomic contention on popular bins.

use crate::prelude::*;

/// 256-bin histogram over `n` samples.
#[derive(Clone, Copy, Debug)]
pub struct Histo {
    /// Sample count.
    pub n: usize,
}

impl Histo {
    /// The default dataset.
    pub fn new() -> Histo {
        Histo { n: 8192 }
    }

    fn input(&self) -> Vec<u32> {
        // Zipf-ish skew: low bins are hot, like histo's image input.
        data::random_u32(self.n, 256, 0xaa)
            .into_iter()
            .map(|v| (v * v) >> 8)
            .collect()
    }
}

impl Default for Histo {
    fn default() -> Histo {
        Histo::new()
    }
}

fn histo_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("histo");
    let tid = b.global_tid_x();
    let n = b.param_u32(0);
    let input = b.param_ptr(1);
    let hist = b.param_ptr(2);
    let p = b.setp_u32_lt(tid, n);
    b.if_(p, |b| {
        let ei = b.lea(input, tid, 2);
        let v = b.ld_global_u32(ei);
        let eh = b.lea(hist, v, 2);
        let one = b.iconst(1);
        // Fire-and-forget reduction (RED.ADD), like the original.
        b.red_global(sassi_isa::AtomOp::Add, eh, one);
    });
    b.finish()
}

impl Workload for Histo {
    fn name(&self) -> String {
        "histo".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![histo_kernel()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let input = self.input();
        rt.clock.add_host(0.8e-3); // image decode
        let d_in = rt.alloc_u32(&input);
        let d_h = rt.alloc_zeroed_u32(256);
        let dims = LaunchDims::linear(grid_for(self.n as u32, 256), 256);
        launch(
            rt,
            module,
            "histo",
            dims,
            &[self.n as u64, d_in.addr, d_h.addr],
            handlers,
        )?;
        let out = rt.read_u32(d_h);
        rt.clock.add_host(0.2e-3);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let mut h = vec![0u32; 256];
        for v in self.input() {
            h[v as usize] += 1;
        }
        WorkloadOutput::new(vec![h])
    }
}
