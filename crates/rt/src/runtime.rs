//! Device-buffer management, kernel launches, CUPTI-style callbacks and
//! per-launch accounting (the `nvprof` analogue behind Table 3).

use crate::clock::AppClock;
use sassi_sim::{
    Device, HandlerRuntime, KernelOutcome, LaunchDims, LaunchError, LaunchResult, Module,
};
use serde::{Deserialize, Serialize};

/// A typed device buffer (the `cudaMalloc` result).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DevBuf {
    /// Generic device address.
    pub addr: u64,
    /// Length in bytes.
    pub bytes: u64,
}

impl DevBuf {
    /// The device *address* of element `i` of a `u32` array (not the
    /// element's value — read that with [`Runtime::read_u32`]).
    pub fn u32_addr(&self, i: u64) -> u64 {
        self.addr + 4 * i
    }
}

/// Information about a launch, handed to CUPTI callbacks.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchInfo {
    /// Kernel symbol.
    pub kernel: String,
    /// Monotonic launch index within this runtime.
    pub launch_index: u64,
    /// Launch geometry.
    pub dims: LaunchDims,
}

/// One completed launch, for `nvprof`-style reporting.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LaunchRecord {
    /// What was launched.
    pub info: LaunchInfo,
    /// How it went.
    pub result: LaunchResult,
}

// `Send` so a whole `Runtime` can move to a campaign-engine worker
// thread; registered callbacks must capture `Send` state (e.g.
// `Arc<Mutex<..>>`, as the instrumentation libraries already do).
type LaunchCb = Box<dyn FnMut(&LaunchInfo, &mut Device) + Send>;
type ExitCb = Box<dyn FnMut(&LaunchInfo, &mut Device, &LaunchResult) + Send>;

/// CUPTI-style callback registry (paper §3.3): instrumentation
/// libraries register kernel-launch callbacks to initialize device-side
/// counters and kernel-exit callbacks to copy them back. Launches are
/// serialized, so callbacks never race with kernels.
#[derive(Default)]
pub struct Cupti {
    on_launch: Vec<LaunchCb>,
    on_exit: Vec<ExitCb>,
}

impl Cupti {
    /// Registers a kernel-launch callback.
    pub fn on_kernel_launch(&mut self, cb: impl FnMut(&LaunchInfo, &mut Device) + Send + 'static) {
        self.on_launch.push(Box::new(cb));
    }

    /// Registers a kernel-exit callback.
    pub fn on_kernel_exit(
        &mut self,
        cb: impl FnMut(&LaunchInfo, &mut Device, &LaunchResult) + Send + 'static,
    ) {
        self.on_exit.push(Box::new(cb));
    }
}

/// The host runtime: owns the device, buffers, the application clock
/// and the CUPTI registry.
pub struct Runtime {
    /// The simulated GPU.
    pub device: Device,
    /// CUPTI callbacks.
    pub cupti: Cupti,
    /// The whole-program clock.
    pub clock: AppClock,
    /// Watchdog budget per launch, in cycles.
    pub watchdog_cycles: u64,
    launches: u64,
    records: Vec<LaunchRecord>,
}

impl Runtime {
    /// Wraps a device.
    pub fn new(device: Device) -> Runtime {
        Runtime {
            device,
            cupti: Cupti::default(),
            clock: AppClock::new(),
            watchdog_cycles: 1_000_000_000,
            launches: 0,
            records: Vec::new(),
        }
    }

    /// A runtime on the default device.
    pub fn with_defaults() -> Runtime {
        Runtime::new(Device::with_defaults())
    }

    /// Sets how many worker threads execute the CTA shards of each
    /// launch (the inner half of a sweep's `--jobs` budget). Launch
    /// results are byte-identical for any value; `1` (the default)
    /// runs shards sequentially on the calling thread.
    pub fn set_cta_jobs(&mut self, jobs: usize) -> &mut Runtime {
        self.device.cta_jobs = jobs.max(1);
        self
    }

    /// Allocates a device buffer (`cudaMalloc`).
    ///
    /// # Panics
    ///
    /// Panics if the device heap is exhausted.
    pub fn alloc(&mut self, bytes: u64) -> DevBuf {
        let addr = self
            .device
            .mem
            .alloc(bytes, 8)
            .expect("device heap exhausted");
        DevBuf { addr, bytes }
    }

    /// Allocates and uploads a `u32` slice (`cudaMalloc` + H2D
    /// `cudaMemcpy`, charged to the clock).
    pub fn alloc_u32(&mut self, data: &[u32]) -> DevBuf {
        let buf = self.alloc(4 * data.len() as u64);
        self.write_u32(buf, data);
        buf
    }

    /// Allocates a zeroed `u32` array.
    pub fn alloc_zeroed_u32(&mut self, len: usize) -> DevBuf {
        self.alloc_u32(&vec![0u32; len])
    }

    /// Uploads data into a buffer (H2D `cudaMemcpy`).
    ///
    /// # Panics
    ///
    /// Panics if the buffer is too small.
    pub fn write_u32(&mut self, buf: DevBuf, data: &[u32]) {
        assert!(4 * data.len() as u64 <= buf.bytes, "upload exceeds buffer");
        for (i, v) in data.iter().enumerate() {
            self.device
                .mem
                .write_u32(buf.addr + 4 * i as u64, *v)
                .expect("upload");
        }
        self.clock.add_transfer(4 * data.len() as u64);
    }

    /// Downloads a buffer as `u32`s (D2H `cudaMemcpy`).
    pub fn read_u32(&mut self, buf: DevBuf) -> Vec<u32> {
        let n = (buf.bytes / 4) as usize;
        let out = (0..n)
            .map(|i| {
                self.device
                    .mem
                    .read_u32(buf.addr + 4 * i as u64)
                    .expect("download")
            })
            .collect();
        self.clock.add_transfer(buf.bytes);
        out
    }

    /// Downloads a buffer as `u64`s.
    pub fn read_u64(&mut self, buf: DevBuf) -> Vec<u64> {
        let n = (buf.bytes / 8) as usize;
        let out = (0..n)
            .map(|i| {
                self.device
                    .mem
                    .read_u64(buf.addr + 8 * i as u64)
                    .expect("download")
            })
            .collect();
        self.clock.add_transfer(buf.bytes);
        out
    }

    /// Launches a kernel, firing CUPTI callbacks around it and charging
    /// kernel cycles to the clock.
    ///
    /// # Errors
    ///
    /// Host-side [`LaunchError`]s; device faults/hangs are inside the
    /// returned [`LaunchResult`].
    pub fn launch(
        &mut self,
        module: &Module,
        kernel: &str,
        dims: LaunchDims,
        params: &[u64],
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<LaunchResult, LaunchError> {
        let info = LaunchInfo {
            kernel: kernel.to_string(),
            launch_index: self.launches,
            dims,
        };
        // Model the fixed host-side cost of a kernel launch (the
        // cudaLaunch + driver overhead that makes launch-heavy apps like
        // gaussian CPU-bound).
        self.clock.add_host(10e-6);
        for cb in &mut self.cupti.on_launch {
            cb(&info, &mut self.device);
        }
        let result = self.device.launch(
            module,
            kernel,
            dims,
            params,
            handlers,
            self.launches,
            self.watchdog_cycles,
        )?;
        self.launches += 1;
        self.clock.add_kernel_cycles(result.stats.cycles);
        for cb in &mut self.cupti.on_exit {
            cb(&info, &mut self.device, &result);
        }
        self.records.push(LaunchRecord { info, result });
        Ok(result)
    }

    /// All launches so far, in order (the `nvprof` trace).
    pub fn records(&self) -> &[LaunchRecord] {
        &self.records
    }

    /// Number of kernel launches.
    pub fn launch_count(&self) -> u64 {
        self.launches
    }

    /// Whether every launch completed normally.
    pub fn all_ok(&self) -> bool {
        self.records
            .iter()
            .all(|r| matches!(r.result.outcome, KernelOutcome::Completed))
    }

    /// Total kernel cycles across all launches.
    pub fn total_kernel_cycles(&self) -> u64 {
        self.records.iter().map(|r| r.result.stats.cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ModuleBuilder;
    use sassi_kir::KernelBuilder;
    use sassi_sim::NoHandlers;
    use std::sync::{Arc, Mutex};

    fn copy_kernel() -> sassi_kir::KFunction {
        let mut b = KernelBuilder::kernel("copy");
        let i = b.global_tid_x();
        let src = b.param_ptr(0);
        let dst = b.param_ptr(1);
        let es = b.lea(src, i, 2);
        let v = b.ld_global_u32(es);
        let ed = b.lea(dst, i, 2);
        b.st_global_u32(ed, v);
        b.finish()
    }

    #[test]
    fn upload_launch_download_roundtrip() {
        let mut mb = ModuleBuilder::new();
        mb.add_kernel(copy_kernel());
        let module = mb.build(None).unwrap();

        let mut rt = Runtime::with_defaults();
        let data: Vec<u32> = (0..64).map(|x| x * x).collect();
        let src = rt.alloc_u32(&data);
        let dst = rt.alloc_zeroed_u32(64);
        let res = rt
            .launch(
                &module,
                "copy",
                LaunchDims::linear(2, 32),
                &[src.addr, dst.addr],
                &mut NoHandlers,
            )
            .unwrap();
        assert!(res.is_ok());
        assert_eq!(rt.read_u32(dst), data);
        assert_eq!(rt.launch_count(), 1);
        assert!(rt.all_ok());
        assert!(rt.clock.kernel_cycles > 0);
        assert!(rt.clock.transfer_bytes >= 3 * 64 * 4);
    }

    #[test]
    fn cupti_callbacks_fire_in_order() {
        let mut mb = ModuleBuilder::new();
        mb.add_kernel(copy_kernel());
        let module = mb.build(None).unwrap();

        let log = Arc::new(Mutex::new(Vec::<String>::new()));
        let mut rt = Runtime::with_defaults();
        let l1 = log.clone();
        rt.cupti.on_kernel_launch(move |info, _dev| {
            l1.lock()
                .unwrap()
                .push(format!("launch:{}:{}", info.kernel, info.launch_index));
        });
        let l2 = log.clone();
        rt.cupti.on_kernel_exit(move |info, _dev, res| {
            l2.lock().unwrap().push(format!(
                "exit:{}:{}:{}",
                info.kernel,
                info.launch_index,
                res.is_ok()
            ));
        });

        let src = rt.alloc_zeroed_u32(32);
        let dst = rt.alloc_zeroed_u32(32);
        for _ in 0..2 {
            rt.launch(
                &module,
                "copy",
                LaunchDims::linear(1, 32),
                &[src.addr, dst.addr],
                &mut NoHandlers,
            )
            .unwrap();
        }
        assert_eq!(
            *log.lock().unwrap(),
            vec![
                "launch:copy:0",
                "exit:copy:0:true",
                "launch:copy:1",
                "exit:copy:1:true"
            ]
        );
        assert_eq!(rt.records().len(), 2);
    }

    #[test]
    fn unknown_kernel_is_host_error() {
        let mut mb = ModuleBuilder::new();
        mb.add_kernel(copy_kernel());
        let module = mb.build(None).unwrap();
        let mut rt = Runtime::with_defaults();
        assert!(rt
            .launch(
                &module,
                "nope",
                LaunchDims::linear(1, 32),
                &[],
                &mut NoHandlers
            )
            .is_err());
    }
}
