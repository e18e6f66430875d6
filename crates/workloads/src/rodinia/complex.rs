//! The irregular Rodinia-style workloads: `heartwall` (data-dependent
//! search windows — Table 1's 42% divergence), `b+tree` (pointer-chasing
//! index search), `backprop` (shared-memory layer reduction),
//! `lavaMD` (neighbour-box particle interactions) and `mummergpu`
//! (byte-granular string matching).

use crate::prelude::*;

// ---------------------------------------------------------- heartwall --

/// `heartwall`: per-point template search with a data-dependent window
/// — lanes in a warp run very different trip counts.
#[derive(Clone, Copy, Debug)]
pub struct Heartwall {
    /// Tracking points.
    pub points: usize,
    /// Signal length.
    pub n: usize,
}

impl Heartwall {
    /// Default dataset.
    pub fn new() -> Heartwall {
        Heartwall {
            points: 512,
            n: 4096,
        }
    }

    fn signal(&self) -> Vec<u32> {
        data::random_u32(self.n, 256, 0x1c1)
    }

    fn anchors(&self) -> Vec<u32> {
        data::random_u32(self.points, (self.n - 256) as u32, 0x1c2)
    }
}

impl Default for Heartwall {
    fn default() -> Heartwall {
        Heartwall::new()
    }
}

fn heartwall_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("heartwall");
    let tid = b.global_tid_x();
    let npts = b.param_u32(0);
    let signal = b.param_ptr(1);
    let anchors = b.param_ptr(2);
    let out = b.param_ptr(3);
    let p = b.setp_u32_lt(tid, npts);
    b.if_(p, |b| {
        let ea = b.lea(anchors, tid, 2);
        let a = b.ld_global_u32(ea);
        // Window size depends on the data at the anchor: 8..=135.
        let es = b.lea(signal, a, 2);
        let s0 = b.ld_global_u32(es);
        let wlow = b.and(s0, 127u32);
        let window = b.iadd(wlow, 8u32);
        let best = b.var_u32(u32::MAX);
        let besti = b.var_u32(0u32);
        b.for_range(0u32, window, 1, |b, off| {
            // 8-sample SAD against a sawtooth template.
            let acc = b.var_u32(0u32);
            for k in 0..8u32 {
                let base = b.iadd(a, off);
                let i = b.iadd(base, k);
                let ev = b.lea(signal, i, 2);
                let v = b.ld_global_u32(ev);
                let t = b.iconst(k * 32);
                let mx = b.umax(v, t);
                let mn = b.umin(v, t);
                let d = b.isub(mx, mn);
                let nxt = b.iadd(acc, d);
                b.assign(acc, nxt);
            }
            let better = b.setp_u32_lt(acc, best);
            let nb = b.sel(better, acc, best);
            let ni = b.sel(better, off, besti);
            b.assign(best, nb);
            b.assign(besti, ni);
        });
        let eo = b.lea(out, tid, 2);
        b.st_global_u32(eo, besti);
    });
    b.finish()
}

impl Workload for Heartwall {
    fn name(&self) -> String {
        "heartwall".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![heartwall_kernel()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        rt.clock.add_host(0.3e-3);
        let d_s = rt.alloc_u32(&self.signal());
        let d_a = rt.alloc_u32(&self.anchors());
        let d_o = rt.alloc_zeroed_u32(self.points);
        let dims = LaunchDims::linear(grid_for(self.points as u32, 128), 128);
        launch(
            rt,
            module,
            "heartwall",
            dims,
            &[self.points as u64, d_s.addr, d_a.addr, d_o.addr],
            handlers,
        )?;
        let out = rt.read_u32(d_o);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let s = self.signal();
        let a = self.anchors();
        let out: Vec<u32> = (0..self.points)
            .map(|t| {
                let anchor = a[t] as usize;
                let window = (s[anchor] & 127) + 8;
                let mut best = (u32::MAX, 0u32);
                for off in 0..window {
                    let mut acc = 0u32;
                    for k in 0..8u32 {
                        let v = s[anchor + off as usize + k as usize];
                        acc += v.abs_diff(k * 32);
                    }
                    if acc < best.0 {
                        best = (acc, off);
                    }
                }
                best.1
            })
            .collect();
        WorkloadOutput::new(vec![out])
    }
}

// ------------------------------------------------------------ b+tree --

/// `b+tree`: batched key search through a breadth-first-laid-out tree
/// of order 8 — value-similar traversals (Table 2's top scalar score).
#[derive(Clone, Copy, Debug)]
pub struct BplusTree {
    /// Leaf keys.
    pub keys: usize,
    /// Queries.
    pub queries: usize,
}

impl BplusTree {
    /// Default dataset.
    pub fn new() -> BplusTree {
        BplusTree {
            keys: 4096,
            queries: 1024,
        }
    }

    /// Sorted keys 0, 4, 8, ... laid out in a complete 8-ary tree of
    /// separator arrays.
    fn tree(&self) -> (Vec<u32>, usize) {
        // levels of separators; level l has 8^(l+1) entries guiding into
        // 8^(l+1) children; leaves store keys.
        let depth = 4; // 8^4 = 4096 leaves
        let mut seps = Vec::new();
        let fanout = 8usize;
        let total = self.keys;
        for l in 0..depth {
            let groups = fanout.pow(l as u32 + 1);
            let span = total / groups;
            for g in 0..groups {
                seps.push((g * span) as u32 * 4);
            }
        }
        (seps, depth)
    }

    fn queries_vec(&self) -> Vec<u32> {
        data::random_u32(self.queries, (self.keys * 4) as u32, 0x1d1)
    }
}

impl Default for BplusTree {
    fn default() -> BplusTree {
        BplusTree::new()
    }
}

fn btree_kernel(depth: usize) -> KFunction {
    let mut b = KernelBuilder::kernel("btree_search");
    let tid = b.global_tid_x();
    let nq = b.param_u32(0);
    let seps = b.param_ptr(1);
    let queries = b.param_ptr(2);
    let out = b.param_ptr(3);
    let p = b.setp_u32_lt(tid, nq);
    b.if_(p, |b| {
        let eq = b.lea(queries, tid, 2);
        let q = b.ld_global_u32(eq);
        let node = b.var_u32(0u32); // child index within level
        let level_base = b.var_u32(0u32);
        let mut groups = 8u32;
        for _l in 0..depth {
            // Linear scan of the 8 separators of this node.
            let slot = b.var_u32(0u32);
            let base8 = b.shl(node, 3u32); // node*8
            for s in 1..8u32 {
                let idx_rel = b.iadd(base8, s);
                let idx = b.iadd(level_base, idx_rel);
                let es = b.lea(seps, idx, 2);
                let sep = b.ld_global_u32(es);
                let ge = b.setp_u32_ge(q, sep);
                let s_c = b.iconst(s);
                let ns = b.sel(ge, s_c, slot);
                b.assign(slot, ns);
            }
            let child = b.iadd(base8, slot);
            b.assign(node, child);
            let nb = b.iadd(level_base, groups);
            b.assign(level_base, nb);
            groups *= 8;
        }
        let eo = b.lea(out, tid, 2);
        b.st_global_u32(eo, node);
    });
    b.finish()
}

impl Workload for BplusTree {
    fn name(&self) -> String {
        "b+tree".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        let (_, depth) = self.tree();
        vec![btree_kernel(depth)]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        let (seps, _) = self.tree();
        rt.clock.add_host(0.6e-3); // tree build
        let d_s = rt.alloc_u32(&seps);
        let d_q = rt.alloc_u32(&self.queries_vec());
        let d_o = rt.alloc_zeroed_u32(self.queries);
        let dims = LaunchDims::linear(grid_for(self.queries as u32, 128), 128);
        launch(
            rt,
            module,
            "btree_search",
            dims,
            &[self.queries as u64, d_s.addr, d_q.addr, d_o.addr],
            handlers,
        )?;
        let out = rt.read_u32(d_o);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let (seps, depth) = self.tree();
        let qs = self.queries_vec();
        let out: Vec<u32> = qs
            .iter()
            .map(|&q| {
                let mut node = 0u32;
                let mut level_base = 0u32;
                let mut groups = 8u32;
                for _ in 0..depth {
                    let base8 = node * 8;
                    let mut slot = 0u32;
                    for s in 1..8 {
                        let sep = seps[(level_base + base8 + s) as usize];
                        if q >= sep {
                            slot = s;
                        }
                    }
                    node = base8 + slot;
                    level_base += groups;
                    groups *= 8;
                }
                node
            })
            .collect();
        WorkloadOutput::new(vec![out])
    }
}

// ----------------------------------------------------------- backprop --

/// `backprop`: one hidden-layer forward pass — each block reduces the
/// weighted inputs of one hidden unit in shared memory.
#[derive(Clone, Copy, Debug)]
pub struct Backprop {
    /// Input units (block size).
    pub inputs: usize,
    /// Hidden units (grid size).
    pub hidden: usize,
}

impl Backprop {
    /// Default dataset.
    pub fn new() -> Backprop {
        Backprop {
            inputs: 64,
            hidden: 32,
        }
    }

    fn weights(&self) -> Vec<u32> {
        data::random_u32(self.inputs * self.hidden, 16, 0x1e1)
    }

    fn input(&self) -> Vec<u32> {
        data::random_u32(self.inputs, 16, 0x1e2)
    }
}

impl Default for Backprop {
    fn default() -> Backprop {
        Backprop::new()
    }
}

fn backprop_kernel(inputs: usize) -> KFunction {
    let mut b = KernelBuilder::kernel("backprop_fwd");
    let partial = b.shared_alloc((inputs * 4) as u32);
    let tid = b.tid_x();
    let hid = b.ctaid_x();
    let n_in = b.param_u32(0);
    let w = b.param_ptr(1);
    let x = b.param_ptr(2);
    let out = b.param_ptr(3);
    // partial[tid] = w[hid*n_in + tid] * x[tid]
    let base = b.imul(hid, n_in);
    let iw = b.iadd(base, tid);
    let ew = b.lea(w, iw, 2);
    let wv = b.ld_global_u32(ew);
    let ex = b.lea(x, tid, 2);
    let xv = b.ld_global_u32(ex);
    let zero = b.iconst(0);
    let prod = b.imad(wv, xv, zero);
    let soff = b.shl(tid, 2u32);
    let sbase = {
        let c = b.iconst(partial.offset);
        b.iadd(soff, c)
    };
    b.st_shared_u32(sbase, 0, prod);
    b.bar_sync();
    // Tree reduction in shared memory.
    let mut stride = (inputs / 2) as u32;
    while stride >= 1 {
        let sc = b.iconst(stride);
        let active = b.setp_u32_lt(tid, sc);
        b.if_(active, |b| {
            let other_i = b.iadd(tid, stride);
            let ooff = b.shl(other_i, 2u32);
            let obase = {
                let c = b.iconst(partial.offset);
                b.iadd(ooff, c)
            };
            let ov = b.ld_shared_u32(obase, 0);
            let mineoff = b.shl(tid, 2u32);
            let mbase = {
                let c = b.iconst(partial.offset);
                b.iadd(mineoff, c)
            };
            let mv = b.ld_shared_u32(mbase, 0);
            let sum = b.iadd(mv, ov);
            b.st_shared_u32(mbase, 0, sum);
        });
        b.bar_sync();
        stride /= 2;
    }
    let leader = b.setp_u32_eq(tid, 0u32);
    b.if_(leader, |b| {
        let c = b.iconst(partial.offset);
        let v = b.ld_shared_u32(c, 0);
        let eo = b.lea(out, hid, 2);
        b.st_global_u32(eo, v);
    });
    b.finish()
}

impl Workload for Backprop {
    fn name(&self) -> String {
        "backprop".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![backprop_kernel(self.inputs)]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        rt.clock.add_host(0.2e-3);
        let d_w = rt.alloc_u32(&self.weights());
        let d_x = rt.alloc_u32(&self.input());
        let d_o = rt.alloc_zeroed_u32(self.hidden);
        let dims = LaunchDims::linear(self.hidden as u32, self.inputs as u32);
        launch(
            rt,
            module,
            "backprop_fwd",
            dims,
            &[self.inputs as u64, d_w.addr, d_x.addr, d_o.addr],
            handlers,
        )?;
        let out = rt.read_u32(d_o);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let w = self.weights();
        let x = self.input();
        let out: Vec<u32> = (0..self.hidden)
            .map(|h| {
                (0..self.inputs).fold(0u32, |acc, i| {
                    acc.wrapping_add(w[h * self.inputs + i].wrapping_mul(x[i]))
                })
            })
            .collect();
        WorkloadOutput::new(vec![out])
    }
}

// ------------------------------------------------------------- lavaMD --

/// `lavaMD`: particles interact with every particle in their own and
/// neighbouring boxes, with a cutoff branch inside the pair loop.
#[derive(Clone, Copy, Debug)]
pub struct LavaMd {
    /// Boxes (1-D ring).
    pub boxes: usize,
    /// Particles per box.
    pub per_box: usize,
}

impl LavaMd {
    /// Default dataset.
    pub fn new() -> LavaMd {
        LavaMd {
            boxes: 32,
            per_box: 32,
        }
    }

    fn positions(&self) -> Vec<u32> {
        data::random_u32(self.boxes * self.per_box, 1024, 0x1f1)
    }
}

impl Default for LavaMd {
    fn default() -> LavaMd {
        LavaMd::new()
    }
}

fn lavamd_kernel(per_box: usize, boxes: usize) -> KFunction {
    let mut b = KernelBuilder::kernel("lavamd");
    let tid = b.tid_x(); // particle within box
    let bx = b.ctaid_x(); // box
    let pos = b.param_ptr(0);
    let out = b.param_ptr(1);
    let pb = b.iconst(per_box as u32);
    let my_i = b.imad(bx, VSrc::Reg(pb.vreg()), tid);
    let ep = b.lea(pos, my_i, 2);
    let my_pos = b.ld_global_u32(ep);
    let acc = b.var_u32(0u32);
    // Own box + left + right neighbour (ring).
    for d in [0i32, -1, 1] {
        let nbox = if d == 0 {
            bx
        } else {
            let off = b.iconst(((boxes as i32 + d) % boxes as i32) as u32);
            let sum = b.iadd(bx, off);
            let bc = b.iconst(boxes as u32);
            // modulo via subtract-if-ge (boxes is a power of two here,
            // but stay general):
            let ge = b.setp_u32_ge(sum, bc);
            let red = b.isub(sum, boxes as u32);
            b.sel(ge, red, VSrc::Reg(sum.vreg()))
        };
        let nbase = b.imul(nbox, per_box as u32);
        b.for_range(0u32, pb, 1, |b, j| {
            let oi = b.iadd(nbase, j);
            let eo = b.lea(pos, oi, 2);
            let opos = b.ld_global_u32(eo);
            let mx = b.umax(my_pos, opos);
            let mn = b.umin(my_pos, opos);
            let dist = b.isub(mx, mn);
            let near = b.setp_u32_lt(dist, 64u32);
            b.if_(near, |b| {
                let d2 = b.imul(dist, dist);
                let k4096 = b.iconst(64 * 64);
                let term = b.isub(k4096, d2);
                let nxt = b.iadd(acc, term);
                b.assign(acc, nxt);
            });
        });
    }
    let eo2 = b.lea(out, my_i, 2);
    b.st_global_u32(eo2, acc);
    b.finish()
}

impl Workload for LavaMd {
    fn name(&self) -> String {
        "lavaMD".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![lavamd_kernel(self.per_box, self.boxes)]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        rt.clock.add_host(0.3e-3);
        let d_p = rt.alloc_u32(&self.positions());
        let d_o = rt.alloc_zeroed_u32(self.boxes * self.per_box);
        let dims = LaunchDims::linear(self.boxes as u32, self.per_box as u32);
        launch(rt, module, "lavamd", dims, &[d_p.addr, d_o.addr], handlers)?;
        let out = rt.read_u32(d_o);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let pos = self.positions();
        let (nb, pb) = (self.boxes, self.per_box);
        let out: Vec<u32> = (0..nb * pb)
            .map(|i| {
                let my_box = i / pb;
                let my_pos = pos[i];
                let mut acc = 0u32;
                for d in [0isize, -1, 1] {
                    let nbox = ((my_box as isize + d + nb as isize) as usize) % nb;
                    for j in 0..pb {
                        let dist = my_pos.abs_diff(pos[nbox * pb + j]);
                        if dist < 64 {
                            acc = acc
                                .wrapping_add((64 * 64u32).wrapping_sub(dist.wrapping_mul(dist)));
                        }
                    }
                }
                acc
            })
            .collect();
        WorkloadOutput::new(vec![out])
    }
}

// ---------------------------------------------------------- mummergpu --

/// `mummergpu`: byte-granular substring matching — each thread extends
/// a query against the reference while characters match (data-dependent
/// while loop, `U8` loads).
#[derive(Clone, Copy, Debug)]
pub struct MummerGpu {
    /// Reference length.
    pub ref_len: usize,
    /// Queries.
    pub queries: usize,
}

impl MummerGpu {
    /// Default dataset.
    pub fn new() -> MummerGpu {
        MummerGpu {
            ref_len: 8192,
            queries: 1024,
        }
    }

    fn reference(&self) -> Vec<u32> {
        // 4-letter alphabet packed one byte per u32 slot's low byte via
        // byte buffer: store as bytes in u32 array (4 per word).
        data::random_u32(self.ref_len.div_ceil(4), u32::MAX, 0x201)
    }

    fn starts(&self) -> Vec<u32> {
        data::random_u32(self.queries, (self.ref_len - 64) as u32, 0x202)
    }
}

impl Default for MummerGpu {
    fn default() -> MummerGpu {
        MummerGpu::new()
    }
}

fn mummer_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("mummer");
    let tid = b.global_tid_x();
    let nq = b.param_u32(0);
    let reference = b.param_ptr(1);
    let starts = b.param_ptr(2);
    let out = b.param_ptr(3);
    let p = b.setp_u32_lt(tid, nq);
    b.if_(p, |b| {
        let es = b.lea(starts, tid, 2);
        let start = b.ld_global_u32(es);
        // Match run: compare bytes at `start+k` and `start+k+1` while the
        // 2-bit symbols agree, up to 63.
        let len = b.var_u32(0u32);
        let going = b.var_u32(1u32);
        b.while_(
            |b| {
                let more = b.setp_u32_lt(len, 63u32);
                let g = b.setp_u32_ne(going, 0u32);
                b.and_p(more, g)
            },
            |b| {
                let i = b.iadd(start, len);
                let ea = b.lea(reference, i, 0);
                let ca = b.ld_global_u8(ea);
                let i1 = b.iadd(i, 1u32);
                let eb = b.lea(reference, i1, 0);
                let cb = b.ld_global_u8(eb);
                let sa = b.and(ca, 3u32);
                let sb2 = b.and(cb, 3u32);
                let same = b.setp_u32_eq(sa, sb2);
                b.if_else(
                    same,
                    |b| {
                        let nl = b.iadd(len, 1u32);
                        b.assign(len, nl);
                    },
                    |b| {
                        b.assign_imm(going, 0);
                    },
                );
            },
        );
        let eo = b.lea(out, tid, 2);
        b.st_global_u32(eo, len);
    });
    b.finish()
}

impl Workload for MummerGpu {
    fn name(&self) -> String {
        "mummergpu".to_string()
    }

    fn kernels(&self) -> Vec<KFunction> {
        vec![mummer_kernel()]
    }

    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure> {
        rt.clock.add_host(1.0e-3); // suffix-tree build in the original
        let d_r = rt.alloc_u32(&self.reference());
        let d_s = rt.alloc_u32(&self.starts());
        let d_o = rt.alloc_zeroed_u32(self.queries);
        let dims = LaunchDims::linear(grid_for(self.queries as u32, 128), 128);
        launch(
            rt,
            module,
            "mummer",
            dims,
            &[self.queries as u64, d_r.addr, d_s.addr, d_o.addr],
            handlers,
        )?;
        let out = rt.read_u32(d_o);
        Ok(WorkloadOutput::new(vec![out]))
    }

    fn golden(&self) -> WorkloadOutput {
        let words = self.reference();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let starts = self.starts();
        let out: Vec<u32> = starts
            .iter()
            .map(|&s| {
                let mut len = 0u32;
                while len < 63 {
                    let a = bytes[(s + len) as usize] & 3;
                    let b = bytes[(s + len + 1) as usize] & 3;
                    if a != b {
                        break;
                    }
                    len += 1;
                }
                len
            })
            .collect();
        WorkloadOutput::new(vec![out])
    }
}
