//! Warp state: the SIMT divergence stack, the warp's register file and
//! local memory, call stack and scheduling status.
//!
//! Registers and local memory are stored register-major: one
//! `[u32; 32]` row per architectural register, and local memory
//! interleaved at 4-byte words the way CUDA lays it out (word `w` of
//! lane `l` at byte `(w * 32 + l) * 4`). An operation every lane
//! applies to the same register, or a spill every lane makes to the
//! same stack offset, then touches one contiguous row.
//!
//! The divergence model follows NVIDIA's stack-based reconvergence
//! (paper §5): `SSY` pushes a reconvergence token; a divergent branch
//! defers one path on the stack; `SYNC` parks the executing lanes and,
//! once the active set drains, pops deferred paths and finally the
//! reconvergence token, resuming all surviving lanes at the
//! reconvergence point.

use crate::stats::FaultKind;
use sassi_isa::{Gpr, LaneMask, PredReg};

/// How many return pcs a warp's call stack holds; a `CAL` past it
/// faults with [`FaultKind::CallStackOverflow`]. A GPU keeps return
/// addresses on the thread's finite stack, and so must the simulator:
/// an unbounded stack lets a runaway recursion, a `CAL` to its own pc
/// for one, grow host memory by 4 bytes a cycle until the watchdog
/// fires. The deepest call in the tree is 1 (a SASS handler call).
pub(crate) const MAX_CALL_DEPTH: usize = 1024;

/// One divergence-stack entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackEntry {
    /// Reconvergence token pushed by `SSY`.
    Ssy {
        /// Reconvergence pc.
        reconv: u32,
        /// Lanes to resume there.
        mask: LaneMask,
    },
    /// A deferred branch path.
    Div {
        /// Where the deferred lanes resume.
        pc: u32,
        /// The deferred lanes.
        mask: LaneMask,
    },
}

/// Why a warp is not currently issuing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarpStatus {
    /// Issuable once `ready_at` passes.
    Ready,
    /// Waiting at a block barrier.
    AtBarrier,
    /// All lanes exited.
    Done,
}

/// The architectural and scheduling state of one warp.
#[derive(Clone, Debug)]
pub struct Warp {
    /// Index of the resident CTA this warp belongs to.
    pub cta: usize,
    /// Warp index within its CTA.
    pub warp_in_cta: u32,
    /// Current program counter (flat module code space).
    ///
    /// Invariant the run-stepped scheduler depends on: executing any
    /// µop that does not end a run (see
    /// [`DecodedModule::run_end`](crate::DecodedModule::run_end))
    /// advances `pc` by exactly one — including instrumentation traps,
    /// whose handlers run to completion within the step and always
    /// resume at `pc + 1`. Only run-ending µops (branches,
    /// `SSY`/`SYNC`, calls, returns, `EXIT`, `BAR.SYNC`) may move `pc`
    /// anywhere else, and decode places each of those last in its run.
    pub pc: u32,
    /// Currently active lanes.
    pub active: LaneMask,
    /// Lanes that exist in this warp (partial last warp of a block).
    pub existing: LaneMask,
    /// Lanes that have executed `EXIT`.
    pub exited: LaneMask,
    /// Divergence stack.
    pub stack: Vec<StackEntry>,
    /// Warp-synchronous call stack of return pcs.
    pub call_stack: Vec<u32>,
    /// Earliest cycle at which the warp may issue.
    pub ready_at: u64,
    /// Scheduling status.
    pub status: WarpStatus,
    /// The register file, register-major: register `r` of lane `l` is
    /// `regs[32 * r + l]`, so each register is one `[u32; 32]` row.
    /// Flat, like `local`, so a fresh warp's storage comes from a
    /// zeroed allocation: `vec![[0; 32]; n]` writes every word.
    regs: Vec<u32>,
    /// Per-lane predicate files (bits 0..6 = P0..P6).
    pub preds: [u8; 32],
    /// Per-lane carry flags.
    pub cc: [bool; 32],
    /// Local memory interleaved at 4-byte words: word `w` of lane `l`'s
    /// slab is `local[32 * w + l]`, so each word of the slab is one
    /// `[u32; 32]` row, and byte `off` of lane `l` is byte `off % 4`
    /// (little-endian) of word `off / 4`. Written only through the
    /// `Warp` methods, which keep every byte outside
    /// `[local_lo, local_bytes)` of every slab zero.
    local: Vec<u32>,
    local_bytes: u32,
    /// Lowest slab offset written since the last reset (`local_bytes`
    /// when nothing was), so `reset` zeroes only what was written.
    local_lo: u32,
}

impl Warp {
    /// Creates a warp with `existing` lanes at `entry`.
    pub fn new(
        cta: usize,
        warp_in_cta: u32,
        entry: u32,
        existing: LaneMask,
        regs_per_thread: u32,
        local_bytes: u32,
    ) -> Warp {
        let mut w = Warp {
            cta,
            warp_in_cta,
            pc: entry,
            active: existing,
            existing,
            exited: 0,
            stack: Vec::new(),
            call_stack: Vec::new(),
            ready_at: 0,
            status: WarpStatus::Ready,
            regs: vec![0; 32 * regs_per_thread as usize],
            preds: [0; 32],
            cc: [false; 32],
            local: vec![0; 32 * slab_words(local_bytes)],
            local_bytes,
            local_lo: local_bytes,
        };
        w.init_sp();
        w
    }

    /// ABI: R1 is the stack pointer, initialized to the top of the
    /// thread's local slab (stack grows down).
    fn init_sp(&mut self) {
        let top = self.local_bytes;
        let sp = 32 * Gpr::SP.index() as usize;
        if let Some(sp) = self.regs.get_mut(sp..sp + 32) {
            sp.fill(top);
        }
    }

    /// Reinitializes a retired warp in place for a new block, reusing
    /// the register-file and local-slab allocations. The result equals
    /// what `new` builds: registers are zeroed, and of local memory
    /// only the word rows from `lo / 4` up are, in one fill, where `lo`
    /// is the lowest offset written since the last reset. Kernels that
    /// never touch local memory zero none of it, and trampoline
    /// spills, which push down from the slab top, zero only the stack
    /// they used. A change of `local_bytes` resizes every slab, so it
    /// zeroes the whole store.
    pub fn reset(
        &mut self,
        cta: usize,
        warp_in_cta: u32,
        entry: u32,
        existing: LaneMask,
        regs_per_thread: u32,
        local_bytes: u32,
    ) {
        self.cta = cta;
        self.warp_in_cta = warp_in_cta;
        self.pc = entry;
        self.active = existing;
        self.existing = existing;
        self.exited = 0;
        self.stack.clear();
        self.call_stack.clear();
        self.ready_at = 0;
        self.status = WarpStatus::Ready;
        self.regs.resize(32 * regs_per_thread as usize, 0);
        if self.local_bytes != local_bytes {
            self.local_bytes = local_bytes;
            self.local.clear();
            self.local.resize(32 * slab_words(local_bytes), 0);
        } else if self.local_lo < local_bytes {
            self.local[32 * (self.local_lo as usize / 4)..].fill(0);
        }
        self.local_lo = local_bytes;
        self.regs.fill(0);
        self.preds = [0; 32];
        self.cc = [false; 32];
        self.init_sp();
    }

    /// Registers provisioned per thread.
    pub fn regs_per_thread(&self) -> u32 {
        (self.regs.len() / 32) as u32
    }

    /// Bytes of local slab per thread.
    pub fn local_bytes(&self) -> u32 {
        self.local_bytes
    }

    /// Reads lane `lane`'s register `r` (`RZ` reads zero).
    pub fn reg(&self, lane: usize, r: Gpr) -> u32 {
        if r.is_rz() {
            return 0;
        }
        debug_assert!(
            (r.index() as usize) < self.regs.len() / 32,
            "R{} unprovisioned",
            r.index()
        );
        self.regs[32 * r.index() as usize + lane]
    }

    /// Writes lane `lane`'s register `r` (writes to `RZ` are dropped).
    pub fn set_reg(&mut self, lane: usize, r: Gpr, v: u32) {
        if r.is_rz() {
            return;
        }
        debug_assert!(
            (r.index() as usize) < self.regs.len() / 32,
            "R{} unprovisioned",
            r.index()
        );
        self.regs[32 * r.index() as usize + lane] = v;
    }

    /// Register `r` of every lane (`RZ` reads a row of zeros). A copy,
    /// so a caller may read operand rows and then write a destination
    /// that aliases one of them.
    #[inline(always)]
    pub(crate) fn row(&self, r: Gpr) -> [u32; 32] {
        if r.is_rz() {
            return [0; 32];
        }
        self.regs.as_chunks().0[r.index() as usize]
    }

    /// The value every lane of `mask` holds in register `r` (zero for
    /// `RZ`), if `mask` is not empty and all of its lanes agree. Folds
    /// the row in place, without copying it.
    #[inline(always)]
    pub(crate) fn uniform_reg(&self, mask: LaneMask, r: Gpr) -> Option<u32> {
        if mask == 0 {
            return None;
        }
        if r.is_rz() {
            return Some(0);
        }
        let row: &[u32; 32] = &self.regs.as_chunks().0[r.index() as usize];
        let v0 = row[mask.trailing_zeros() as usize];
        let uniform = if mask == u32::MAX {
            row.iter().fold(0, |differ, &v| differ | (v ^ v0)) == 0
        } else {
            sassi_isa::lanes(mask).all(|lane| row[lane] == v0)
        };
        uniform.then_some(v0)
    }

    /// Register `r` of every lane, for writing; `None` for `RZ`, whose
    /// writes are dropped.
    #[inline(always)]
    pub(crate) fn row_mut(&mut self, r: Gpr) -> Option<&mut [u32; 32]> {
        if r.is_rz() {
            return None;
        }
        Some(&mut self.regs.as_chunks_mut().0[r.index() as usize])
    }

    /// Reads a register pair as a 64-bit value.
    pub fn reg64(&self, lane: usize, r: Gpr) -> u64 {
        if r.is_rz() {
            return 0;
        }
        (self.reg(lane, r) as u64) | ((self.reg(lane, r.pair_hi()) as u64) << 32)
    }

    /// Writes a register pair from a 64-bit value.
    pub fn set_reg64(&mut self, lane: usize, r: Gpr, v: u64) {
        self.set_reg(lane, r, v as u32);
        self.set_reg(lane, r.pair_hi(), (v >> 32) as u32);
    }

    /// Reads lane `lane`'s predicate `p` (`PT` reads true).
    pub fn pred(&self, lane: usize, p: PredReg) -> bool {
        p.is_pt() || self.preds[lane] & (1 << p.index()) != 0
    }

    /// The lanes whose predicate `p` is set (every lane for `PT`).
    #[inline]
    pub(crate) fn pred_lanes(&self, p: PredReg) -> LaneMask {
        if p.is_pt() {
            return u32::MAX;
        }
        let mut m = 0;
        for (lane, &bits) in self.preds.iter().enumerate() {
            m |= ((bits >> p.index()) as u32 & 1) << lane;
        }
        m
    }

    /// Writes lane `lane`'s predicate `p` (writes to `PT` are dropped).
    pub fn set_pred(&mut self, lane: usize, p: PredReg, v: bool) {
        if p.is_pt() {
            return;
        }
        if v {
            self.preds[lane] |= 1 << p.index();
        } else {
            self.preds[lane] &= !(1 << p.index());
        }
    }

    /// Reads `buf.len()` bytes of lane `lane`'s slab at offset `off`.
    /// Returns `false`, reading nothing, if the read does not fit the
    /// slab.
    pub fn read_local(&self, lane: usize, off: u64, buf: &mut [u8]) -> bool {
        if !self.fits(off, buf.len()) {
            return false;
        }
        for (i, b) in buf.iter_mut().enumerate() {
            let at = off as usize + i;
            *b = (self.local[32 * (at / 4) + lane] >> (8 * (at % 4))) as u8;
        }
        true
    }

    /// Writes `bytes` into lane `lane`'s slab at offset `off`. Returns
    /// `false`, writing nothing, if the write does not fit the slab.
    pub fn write_local(&mut self, lane: usize, off: u64, bytes: &[u8]) -> bool {
        if !self.fits(off, bytes.len()) {
            return false;
        }
        self.local_lo = self.local_lo.min(off as u32);
        for (i, &b) in bytes.iter().enumerate() {
            let at = off as usize + i;
            let word = &mut self.local[32 * (at / 4) + lane];
            let shift = 8 * (at % 4);
            *word = (*word & !(0xff << shift)) | (b as u32) << shift;
        }
        true
    }

    /// Loads `n` words at the 4-aligned offset `off`, the same for
    /// every lane of `mask`, into the register group starting at `d`:
    /// one masked row copy per word. The caller has checked that the
    /// words fit the slab.
    #[inline(always)]
    pub(crate) fn load_words(&mut self, mask: LaneMask, off: u32, d: Gpr, n: u8) {
        debug_assert!(off.is_multiple_of(4) && self.fits(off as u64, 4 * n as usize));
        let w0 = off as usize / 4;
        for k in 0..n {
            let src = self.local.as_chunks().0[w0 + k as usize];
            if let Some(dst) = self.row_mut(group_reg(d, k)) {
                copy_lanes(dst, &src, mask);
            }
        }
    }

    /// Stores the register group starting at `v` (`n` words) at the
    /// 4-aligned offset `off`, the same for every lane of `mask`: one
    /// masked row copy per word. The caller has checked that the words
    /// fit the slab and recorded them with [`Warp::note_local_write`].
    #[inline(always)]
    pub(crate) fn store_words(&mut self, mask: LaneMask, off: u32, v: Gpr, n: u8) {
        debug_assert!(off.is_multiple_of(4) && off >= self.local_lo);
        let w0 = off as usize / 4;
        for k in 0..n {
            let src = self.row(group_reg(v, k));
            copy_lanes(
                &mut self.local.as_chunks_mut().0[w0 + k as usize],
                &src,
                mask,
            );
        }
    }

    /// Records a write at slab offset `off` and above, for `reset`.
    #[inline(always)]
    pub(crate) fn note_local_write(&mut self, off: u32) {
        self.local_lo = self.local_lo.min(off);
    }

    /// The slab word at the 4-aligned offset `off` of every lane, one
    /// row, or `None` if it does not fit the slab.
    #[inline]
    pub(crate) fn local_row(&self, off: u64) -> Option<&[u32; 32]> {
        debug_assert!(off.is_multiple_of(4));
        self.fits(off, 4)
            .then(|| &self.local.as_chunks().0[off as usize / 4])
    }

    /// Whether `len` bytes at slab offset `off` fit the slab.
    #[inline(always)]
    fn fits(&self, off: u64, len: usize) -> bool {
        off.saturating_add(len as u64) <= self.local_bytes as u64
    }

    /// Iterates the active lane indices (ascending, allocation-free).
    pub fn active_lanes(&self) -> sassi_isa::Lanes {
        sassi_isa::lanes(self.active)
    }

    /// Lowest active lane, if any — the "first active thread" handlers
    /// elect with `__ffs(__ballot(1))-1`.
    pub fn leader(&self) -> Option<usize> {
        if self.active == 0 {
            None
        } else {
            Some(self.active.trailing_zeros() as usize)
        }
    }

    // ---- divergence-stack transitions -----------------------------------

    /// Executes `SSY target`.
    pub fn push_ssy(&mut self, reconv: u32) {
        self.stack.push(StackEntry::Ssy {
            reconv,
            mask: self.active,
        });
        self.pc += 1;
    }

    /// Executes `CAL target`: pushes the return pc `pc + 1` and jumps,
    /// or faults if the call stack already holds [`MAX_CALL_DEPTH`]
    /// return pcs.
    pub(crate) fn call(&mut self, target: u32) -> Result<(), FaultKind> {
        if self.call_stack.len() >= MAX_CALL_DEPTH {
            return Err(FaultKind::CallStackOverflow);
        }
        self.call_stack.push(self.pc + 1);
        self.pc = target;
        Ok(())
    }

    /// Executes a branch: `taken` lanes (subset of active) go to
    /// `target`, the rest fall through. Returns whether the branch
    /// diverged (both sides non-empty).
    pub fn branch(&mut self, target: u32, taken: LaneMask) -> bool {
        let taken = taken & self.active;
        let not_taken = self.active & !taken;
        if taken == 0 {
            self.pc += 1;
            false
        } else if not_taken == 0 {
            self.pc = target;
            false
        } else {
            self.stack.push(StackEntry::Div {
                pc: self.pc + 1,
                mask: not_taken,
            });
            self.active = taken;
            self.pc = target;
            true
        }
    }

    /// Executes `SYNC` for `parkers` (subset of active): parks them at
    /// the pending reconvergence point. When the active set drains, pops
    /// deferred paths / reconverges.
    pub fn sync(&mut self, parkers: LaneMask) {
        self.active &= !parkers;
        if self.active == 0 {
            self.pop_until_runnable();
        } else {
            self.pc += 1;
        }
    }

    /// Executes `EXIT` for `exiters` (subset of active).
    pub fn exit_lanes(&mut self, exiters: LaneMask) {
        self.exited |= exiters;
        self.active &= !exiters;
        if self.active == 0 {
            self.pop_until_runnable();
        } else {
            self.pc += 1;
        }
    }

    /// Pops the divergence stack until some lane is runnable, or marks
    /// the warp done.
    fn pop_until_runnable(&mut self) {
        while self.active == 0 {
            match self.stack.pop() {
                Some(StackEntry::Div { pc, mask }) => {
                    self.active = mask & !self.exited;
                    self.pc = pc;
                }
                Some(StackEntry::Ssy { reconv, mask }) => {
                    self.active = mask & !self.exited;
                    self.pc = reconv;
                }
                None => {
                    self.status = WarpStatus::Done;
                    return;
                }
            }
        }
    }
}

/// Word rows a slab of `local_bytes` bytes spans.
fn slab_words(local_bytes: u32) -> usize {
    local_bytes.div_ceil(4) as usize
}

/// Register `k` of the group (pair or quad) starting at `r`. A group
/// based at `RZ` reads zero in every word and drops every write, as
/// [`Gpr::pair_hi`] does for pairs; so does a word past `R254`, which
/// the encoding would name `RZ`.
pub(crate) fn group_reg(r: Gpr, k: u8) -> Gpr {
    match r.index().checked_add(k) {
        Some(i) if i < Gpr::RZ.index() => Gpr::new(i),
        _ => Gpr::RZ,
    }
}

/// Copies the lanes of `mask` from `src` into `dst`; a full mask
/// copies the whole row.
#[inline(always)]
fn copy_lanes(dst: &mut [u32; 32], src: &[u32; 32], mask: LaneMask) {
    if mask == u32::MAX {
        *dst = *src;
    } else {
        for lane in sassi_isa::lanes(mask) {
            dst[lane] = src[lane];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> Warp {
        Warp::new(0, 0, 0, 0xffff_ffff, 32, 256)
    }

    #[test]
    fn sp_initialized_to_slab_top() {
        let w = w();
        assert_eq!(w.reg(0, Gpr::SP), 256);
        assert_eq!(w.reg(31, Gpr::SP), 256);
    }

    #[test]
    fn rz_reads_zero_ignores_writes() {
        let mut w = w();
        w.set_reg(3, Gpr::RZ, 77);
        assert_eq!(w.reg(3, Gpr::RZ), 0);
    }

    #[test]
    fn reg64_roundtrip() {
        let mut w = w();
        w.set_reg64(5, Gpr::new(8), 0xdead_beef_0123_4567);
        assert_eq!(w.reg64(5, Gpr::new(8)), 0xdead_beef_0123_4567);
        assert_eq!(w.reg(5, Gpr::new(8)), 0x0123_4567);
        assert_eq!(w.reg(5, Gpr::new(9)), 0xdead_beef);
    }

    #[test]
    fn pt_always_true() {
        let mut w = w();
        assert!(w.pred(0, PredReg::PT));
        w.set_pred(0, PredReg::PT, false);
        assert!(w.pred(0, PredReg::PT));
        w.set_pred(0, PredReg::new(2), true);
        assert!(w.pred(0, PredReg::new(2)));
        assert!(!w.pred(1, PredReg::new(2)));
    }

    #[test]
    fn if_else_reconverges() {
        // SSY end; branch lanes 0..16 taken; then sync; else sync; end.
        let mut w = w();
        w.push_ssy(100);
        assert_eq!(w.pc, 1);
        let diverged = w.branch(50, 0x0000_ffff);
        assert!(diverged);
        assert_eq!(w.pc, 50);
        assert_eq!(w.active, 0x0000_ffff);
        // Taken side syncs: deferred path resumes at fallthrough (2).
        w.sync(w.active);
        assert_eq!(w.pc, 2);
        assert_eq!(w.active, 0xffff_0000);
        // Else side syncs: reconverge at 100 with everyone.
        w.sync(w.active);
        assert_eq!(w.pc, 100);
        assert_eq!(w.active, 0xffff_ffff);
        assert!(w.stack.is_empty());
    }

    #[test]
    fn uniform_branch_no_push() {
        let mut w = w();
        assert!(!w.branch(10, 0xffff_ffff));
        assert_eq!(w.pc, 10);
        assert!(w.stack.is_empty());
        assert!(!w.branch(20, 0));
        assert_eq!(w.pc, 11);
    }

    #[test]
    fn loop_with_incremental_exits() {
        // SSY(end=40) once; lanes leave via guarded sync one by one.
        let mut w = Warp::new(0, 0, 0, 0b111, 32, 256);
        w.push_ssy(40);
        // Iteration: lane 0 leaves.
        w.sync(0b001);
        assert_eq!(w.active, 0b110);
        // Lane 2 leaves.
        w.sync(0b100);
        assert_eq!(w.active, 0b010);
        // Last lane leaves: reconverge at 40 with all three.
        w.sync(0b010);
        assert_eq!(w.pc, 40);
        assert_eq!(w.active, 0b111);
    }

    #[test]
    fn exited_lanes_do_not_reconverge() {
        let mut w = Warp::new(0, 0, 0, 0b1111, 32, 256);
        w.push_ssy(30);
        let _ = w.branch(10, 0b0011);
        // Taken lanes exit inside the region.
        w.exit_lanes(0b0011);
        // Deferred path resumes.
        assert_eq!(w.active, 0b1100);
        // It syncs; reconvergence excludes the exited lanes.
        w.sync(0b1100);
        assert_eq!(w.pc, 30);
        assert_eq!(w.active, 0b1100);
    }

    #[test]
    fn all_lanes_exit_marks_done() {
        let mut w = Warp::new(0, 0, 0, 0b11, 32, 256);
        w.exit_lanes(0b11);
        assert_eq!(w.status, WarpStatus::Done);
    }

    #[test]
    fn leader_is_lowest_active() {
        let mut w = w();
        w.active = 0b1010_0000;
        assert_eq!(w.leader(), Some(5));
        w.active = 0;
        assert_eq!(w.leader(), None);
    }

    #[test]
    fn reset_matches_fresh_warp() {
        let mut used = Warp::new(0, 0, 0, 0xffff_ffff, 32, 256);
        used.set_reg(3, Gpr::new(7), 0xdead);
        used.set_pred(3, PredReg::new(2), true);
        used.cc[5] = true;
        // Local writes at the slab's bottom, middle and top.
        assert!(used.write_local(1, 0, &[0x55; 4]));
        assert!(used.write_local(7, 128, &[0x66; 8]));
        assert!(used.write_local(31, 252, &[0x77; 4]));
        // A cross-word byte write and a warp-wide row spill.
        assert!(used.write_local(9, 61, &[0x44; 6]));
        used.note_local_write(200);
        used.store_words(u32::MAX, 200, Gpr::new(7), 2);
        used.push_ssy(40);
        used.call_stack.push(9);
        used.exit_lanes(0xffff_ffff);
        assert_eq!(used.status, WarpStatus::Done);

        used.reset(2, 1, 17, 0x0000_00ff, 32, 256);
        let fresh = Warp::new(2, 1, 17, 0x0000_00ff, 32, 256);
        assert_eq!(used.cta, fresh.cta);
        assert_eq!(used.warp_in_cta, fresh.warp_in_cta);
        assert_eq!(used.pc, fresh.pc);
        assert_eq!(used.active, fresh.active);
        assert_eq!(used.existing, fresh.existing);
        assert_eq!(used.exited, fresh.exited);
        assert_eq!(used.stack, fresh.stack);
        assert_eq!(used.call_stack, fresh.call_stack);
        assert_eq!(used.status, fresh.status);
        assert_eq!(used.regs, fresh.regs);
        assert_eq!(used.preds, fresh.preds);
        assert_eq!(used.cc, fresh.cc);
        assert_eq!(used.local, fresh.local);
        assert_eq!(used.local_lo, fresh.local_lo);

        // Only the top of the slab written: reset zeroes that much.
        assert!(used.write_local(4, 240, &[0x88; 16]));
        assert_eq!(used.local_lo, 240);
        used.reset(2, 1, 17, 0x0000_00ff, 32, 256);
        assert_eq!(used.local, fresh.local);
        // An unaligned lowest write still zeroes its whole word row.
        assert!(used.write_local(4, 243, &[0x88; 2]));
        used.reset(2, 1, 17, 0x0000_00ff, 32, 256);
        assert_eq!(used.local, fresh.local);

        // A reset that changes `local_bytes` moves the slab boundaries
        // and still leaves every slab zeroed.
        assert!(used.write_local(2, 100, &[0x99; 4]));
        used.reset(2, 1, 17, 0x0000_00ff, 32, 128);
        let fresh = Warp::new(2, 1, 17, 0x0000_00ff, 32, 128);
        assert_eq!(used.local, fresh.local);
        assert_eq!(used.local_lo, fresh.local_lo);
        assert_eq!(used.regs, fresh.regs);
    }

    #[test]
    fn write_local_rejects_writes_past_the_slab() {
        let mut w = w();
        assert!(!w.write_local(0, 253, &[1; 4]));
        assert!(!w.write_local(0, 256, &[1; 1]));
        assert!(!w.write_local(0, u64::MAX, &[1; 4]));
        assert!(
            w.local.iter().all(|&word| word == 0),
            "a rejected write stores nothing"
        );
        assert!(w.write_local(0, 252, &[1; 4]));
    }

    #[test]
    fn reset_reprovisions_on_geometry_change() {
        let mut w = Warp::new(0, 0, 0, 1, 16, 64);
        w.reset(0, 0, 0, 1, 48, 512);
        assert_eq!(w.regs_per_thread(), 48);
        assert_eq!(w.local_bytes(), 512);
        assert_eq!(w.regs.len(), 48 * 32);
        assert_eq!(w.local.len(), 512 / 4 * 32);
        assert_eq!(w.reg(0, Gpr::SP), 512);
    }

    #[test]
    fn lane_local_slabs_disjoint() {
        let mut w = w();
        assert!(w.write_local(0, 0, &[0xaa]));
        assert!(w.write_local(1, 0, &[0xbb]));
        let (mut a, mut b) = ([0u8; 1], [0u8; 1]);
        assert!(w.read_local(0, 0, &mut a));
        assert!(w.read_local(1, 0, &mut b));
        assert_eq!((a[0], b[0]), (0xaa, 0xbb));
        // Word `w` of lane `l` is `local[32 * w + l]`; bytes are
        // little-endian within the word.
        assert_eq!(w.local[0], 0xaa);
        assert_eq!(w.local[1], 0xbb);
        assert!(w.write_local(3, 6, &[1, 2, 3, 4]));
        assert_eq!(w.local[32 + 3], 0x0201_0000);
        assert_eq!(w.local[64 + 3], 0x0000_0403);
        let mut c = [0u8; 4];
        assert!(w.read_local(3, 6, &mut c));
        assert_eq!(c, [1, 2, 3, 4]);
    }

    #[test]
    fn row_spill_and_fill_round_trip() {
        let mut w = w();
        for lane in 0..32 {
            w.set_reg(lane, Gpr::new(4), 100 + lane as u32);
            w.set_reg(lane, Gpr::new(5), 200 + lane as u32);
        }
        // Half the warp spills R4:R5 to the slab top. (A group past the
        // slab never gets here: the run loop checks the bounds first,
        // see `warp_state_equiv.rs`.)
        w.note_local_write(248);
        w.store_words(0x0000_ffff, 248, Gpr::new(4), 2);
        assert_eq!(w.local_lo, 248);
        // Word 62 (offset 248) of lane `l` is `local[32 * 62 + l]`.
        let word = |w: &Warp, lane: usize, k: usize| w.local[32 * (62 + k) + lane];
        assert_eq!((word(&w, 3, 0), word(&w, 3, 1)), (103, 203));
        assert_eq!((word(&w, 20, 0), word(&w, 20, 1)), (0, 0));
        // Filling into RZ drops the word; the pair's other half lands.
        w.load_words(u32::MAX, 248, Gpr::new(8), 2);
        assert_eq!(w.reg(3, Gpr::new(8)), 103);
        assert_eq!(w.reg(3, Gpr::new(9)), 203);
        assert_eq!(w.reg(20, Gpr::new(9)), 0);
        w.load_words(u32::MAX, 248, Gpr::RZ, 2);
        // RZ stores zeros in every word of the group.
        w.store_words(u32::MAX, 248, Gpr::RZ, 2);
        assert_eq!((word(&w, 3, 0), word(&w, 3, 1)), (0, 0));
    }

    #[test]
    fn group_registers_stop_at_rz() {
        assert_eq!(group_reg(Gpr::new(4), 3), Gpr::new(7));
        assert_eq!(group_reg(Gpr::new(254), 1), Gpr::RZ);
        assert_eq!(group_reg(Gpr::RZ, 0), Gpr::RZ);
        assert_eq!(group_reg(Gpr::RZ, 3), Gpr::RZ);
    }
}
