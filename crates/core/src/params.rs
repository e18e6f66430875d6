//! Parameter objects passed to instrumentation handlers.
//!
//! The trampoline stack-allocates these objects in the thread's local
//! memory and passes generic pointers to them in the ABI parameter
//! registers, byte-for-byte in the layout of the paper's Figure 2:
//!
//! ```text
//! SASSIBeforeParams / SASSIAfterParams   (at bp = SP | local-window)
//!   +0x00  id                 +0x10  PRSpill
//!   +0x04  instrWillExecute   +0x14  CCSpill
//!   +0x08  fnAddr             +0x18  GPRSpill[16]
//!   +0x0c  insOffset          +0x58  insEncoding
//!                              +0x5c  liveMask           (size 0x60)
//!
//! SASSIMemoryParams           (at bp + 0x60)
//!   +0x00  address (64-bit)   +0x0c  width
//!   +0x08  properties         +0x10  domain             (size 0x20)
//!
//! SASSICondBranchParams       (at bp + 0x60)
//!   +0x00  direction          +0x08  fallthroughOffset
//!   +0x04  targetOffset                                  (size 0x20)
//!
//! SASSIRegisterParams         (at bp + 0x60)
//!   +0x00  numGPRDsts
//!   +0x04  4 × { regNum, value }                         (size 0x30)
//! ```
//!
//! Handlers read them through the typed views below, which mirror the
//! C++ accessor methods of the paper's Figure 2(b)/(c). Each view comes
//! in two forms.
//!
//! - **Warp views** (`WarpBeforeParams`, `WarpMemoryParams`,
//!   `WarpBranchParams`, `WarpRegisterParams`) read a field for the
//!   whole warp, as the paper's handlers `__ballot` a field and read the
//!   elected leader's. A view locates its object once, when it is made
//!   ([`TrapCtx::param_base`]). The trampoline builds every object at
//!   one SP-relative offset for every lane, so the pointer pair is the
//!   same 4-aligned local address in every active lane, and each 4-byte
//!   field is then one row of the interleaved local slab: one bounds
//!   check per field, however many lanes read it. Masks, such as the
//!   lanes that will execute or take a branch, are one masked compare
//!   over that row; destination values are the row itself; the
//!   leader's fields are its entry. If the lanes' pointers differ, or are not 4-aligned
//!   local addresses, the view reads each lane through its own pointer,
//!   with the same results.
//! - **Per-lane views** (`BeforeParamsView` and the others) read one
//!   lane's field through that lane's pointer.
//!
//! Every read is fallible. A field no lane's pointer can reach (a
//! pointer pair a fault injection or a bad handler left pointing
//! nowhere) records the fault on the [`TrapCtx`], and the launch ends
//! with it at the trap's pc once the handler returns: a
//! `KernelOutcome::Fault`, never a host panic. Warp views also return
//! the error, so a handler can stop early; per-lane views read zero.

use sassi_isa::{AddrSpace, LaneMask, OpcodeKind};
use sassi_sim::{MemError, ParamBase, TrapCtx};
use std::borrow::Cow;

/// Byte offsets and sizes of the stack-allocated parameter objects.
pub mod layout {
    /// `id` field offset within before/after params.
    pub const ID: i32 = 0x00;
    /// `instrWillExecute` offset.
    pub const WILL_EXECUTE: i32 = 0x04;
    /// `fnAddr` offset.
    pub const FN_ADDR: i32 = 0x08;
    /// `insOffset` offset.
    pub const INS_OFFSET: i32 = 0x0c;
    /// Predicate-spill word offset.
    pub const PR_SPILL: i32 = 0x10;
    /// Condition-code spill offset.
    pub const CC_SPILL: i32 = 0x14;
    /// First GPR spill slot; slot *r* is at `GPR_SPILL + 4*r`.
    pub const GPR_SPILL: i32 = 0x18;
    /// `insEncoding` offset.
    pub const INS_ENCODING: i32 = 0x58;
    /// Liveness word: bit *r* set iff `Rr` (r < 16) was live at the
    /// site — the "register liveness information" §3.2 says SASSI can
    /// hand to handlers.
    pub const LIVE_MASK: i32 = 0x5c;
    /// Size of the before/after params object.
    pub const BEFORE_SIZE: i32 = 0x60;

    /// Memory params: 64-bit effective address.
    pub const MEM_ADDRESS: i32 = 0x00;
    /// Memory params: property bits.
    pub const MEM_PROPERTIES: i32 = 0x08;
    /// Memory params: access width in bytes.
    pub const MEM_WIDTH: i32 = 0x0c;
    /// Memory params: address-space domain.
    pub const MEM_DOMAIN: i32 = 0x10;
    /// Size of the memory params object.
    pub const MEM_SIZE: i32 = 0x20;

    /// Branch params: per-lane direction (1 = taken).
    pub const BR_DIRECTION: i32 = 0x00;
    /// Branch params: branch target (function-relative pc).
    pub const BR_TARGET: i32 = 0x04;
    /// Branch params: fall-through pc.
    pub const BR_FALLTHROUGH: i32 = 0x08;
    /// Size of the branch params object.
    pub const BR_SIZE: i32 = 0x20;

    /// Register params: number of GPR destinations.
    pub const REG_NUM_DSTS: i32 = 0x00;
    /// Register params: first destination entry `{regNum, value}`.
    pub const REG_ENTRIES: i32 = 0x04;
    /// Maximum destination entries recorded.
    pub const REG_MAX_DSTS: u32 = 4;
    /// Bit mask of predicate registers the instruction writes (bit i =
    /// Pi) — the extension SASSIFI uses to inject into predicates.
    pub const REG_PRED_MASK: i32 = 0x24;
    /// 1 when the instruction writes the condition code.
    pub const REG_CC_WRITE: i32 = 0x28;
    /// Size of the register params object.
    pub const REG_SIZE: i32 = 0x30;

    /// Memory property bits (`MEM_PROPERTIES`).
    pub mod mem_props {
        /// The operation reads memory.
        pub const READ: u32 = 1 << 0;
        /// The operation writes memory.
        pub const WRITE: u32 = 1 << 1;
        /// The operation is atomic.
        pub const ATOMIC: u32 = 1 << 2;
        /// The operation is a compiler spill or fill.
        pub const SPILL: u32 = 1 << 3;
        /// The operation uses the texture path.
        pub const TEXTURE: u32 = 1 << 4;
    }
}

/// Address-space domains reported in `SASSIMemoryParams::domain`,
/// mirroring the paper's `SASSIMemoryDomain`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u32)]
pub enum MemoryDomain {
    /// Statically unknown (resolved generically).
    Generic = 2,
    /// Per-thread local memory.
    Local = 1,
    /// Global memory.
    Global = 3,
    /// Shared memory.
    Shared = 4,
    /// Texture path.
    Texture = 5,
}

impl MemoryDomain {
    /// The domain of a static address space.
    pub fn of_space(space: AddrSpace, texture: bool) -> MemoryDomain {
        if texture {
            return MemoryDomain::Texture;
        }
        match space {
            AddrSpace::Global => MemoryDomain::Global,
            AddrSpace::Local => MemoryDomain::Local,
            AddrSpace::Shared => MemoryDomain::Shared,
            AddrSpace::Generic => MemoryDomain::Generic,
        }
    }

    /// Decodes the on-stack encoding.
    pub fn from_code(v: u32) -> MemoryDomain {
        match v {
            1 => MemoryDomain::Local,
            3 => MemoryDomain::Global,
            4 => MemoryDomain::Shared,
            5 => MemoryDomain::Texture,
            _ => MemoryDomain::Generic,
        }
    }
}

/// Lane `lane`'s word at `off` past `ptr`; zero, with the fault
/// recorded, if it is unreadable.
fn read32(ctx: &TrapCtx<'_>, lane: usize, ptr: u64, off: i32) -> u32 {
    ctx.read_generic_u32(lane, ptr.wrapping_add(off as u64))
        .unwrap_or_else(|e| {
            ctx.record_fault(e);
            0
        })
}

/// The lanes of `mask` whose word in `row` satisfies `f`: one compare
/// per lane of the row, masked once.
#[inline]
fn lanes_where(row: &[u32; 32], mask: LaneMask, f: impl Fn(u32) -> bool) -> LaneMask {
    let mut m = 0;
    for (lane, &v) in row.iter().enumerate() {
        m |= (f(v) as u32) << lane;
    }
    m & mask
}

/// Lane `lane`'s word of field `field` of the object at `base`.
#[inline]
fn word(ctx: &TrapCtx<'_>, base: ParamBase, field: i32, lane: usize) -> Result<u32, MemError> {
    Ok(ctx.param_field(base, field as u32, 1 << lane)?[lane])
}

/// Warp form of [`BeforeParamsView`]: the `SASSIBeforeParams` /
/// `SASSIAfterParams` object R4:R5 names in every active lane, located
/// once when the view is made.
#[derive(Clone, Copy, Debug)]
pub struct WarpBeforeParams {
    base: ParamBase,
}

impl WarpBeforeParams {
    /// Locates the object R4:R5 names (see [`TrapCtx::param_base`]).
    #[inline]
    pub fn new(ctx: &TrapCtx<'_>) -> WarpBeforeParams {
        WarpBeforeParams {
            base: ctx.param_base(0),
        }
    }

    /// The active lanes whose guard passes,
    /// `__ballot(instrWillExecute)`: one masked compare over a row.
    ///
    /// # Errors
    ///
    /// As [`TrapCtx::param_field`]; the fault is recorded.
    #[inline]
    pub fn will_execute(&self, ctx: &TrapCtx<'_>) -> Result<LaneMask, MemError> {
        let mask = ctx.active_mask();
        let row = ctx.param_field(self.base, layout::WILL_EXECUTE as u32, mask)?;
        Ok(lanes_where(&row, mask, |v| v != 0))
    }

    /// Lane `lane`'s instruction address (`GetInsAddr`).
    ///
    /// # Errors
    ///
    /// As [`TrapCtx::param_field`]; the fault is recorded.
    #[inline]
    pub fn ins_addr(&self, ctx: &TrapCtx<'_>, lane: usize) -> Result<u64, MemError> {
        let fn_addr = word(ctx, self.base, layout::FN_ADDR, lane)?;
        let offset = word(ctx, self.base, layout::INS_OFFSET, lane)?;
        Ok(u64::from(fn_addr) + u64::from(offset))
    }
}

/// Warp form of [`MemoryParamsView`]: the `SASSIMemoryParams` object
/// R6:R7 names in every active lane, located once.
#[derive(Clone, Copy, Debug)]
pub struct WarpMemoryParams {
    base: ParamBase,
}

impl WarpMemoryParams {
    /// Locates the object R6:R7 names (see [`TrapCtx::param_base`]).
    #[inline]
    pub fn new(ctx: &TrapCtx<'_>) -> WarpMemoryParams {
        WarpMemoryParams {
            base: ctx.param_base(1),
        }
    }

    /// The lanes of `mask` whose access is in `domain` (`GetDomain`).
    ///
    /// # Errors
    ///
    /// As [`TrapCtx::param_field`]; the fault is recorded.
    #[inline]
    pub fn in_domain(
        &self,
        ctx: &TrapCtx<'_>,
        mask: LaneMask,
        domain: MemoryDomain,
    ) -> Result<LaneMask, MemError> {
        let row = ctx.param_field(self.base, layout::MEM_DOMAIN as u32, mask)?;
        Ok(lanes_where(&row, mask, |v| {
            MemoryDomain::from_code(v) == domain
        }))
    }

    /// The effective (generic) address of each lane of `mask`
    /// (`GetAddress`); the entries of other lanes are unspecified.
    ///
    /// # Errors
    ///
    /// As [`TrapCtx::param_field`]; the fault is recorded.
    #[inline]
    pub fn addresses(&self, ctx: &TrapCtx<'_>, mask: LaneMask) -> Result<[u64; 32], MemError> {
        let lo = ctx.param_field(self.base, layout::MEM_ADDRESS as u32, mask)?;
        let hi = ctx.param_field(self.base, layout::MEM_ADDRESS as u32 + 4, mask)?;
        Ok(std::array::from_fn(|l| {
            u64::from(lo[l]) | u64::from(hi[l]) << 32
        }))
    }
}

/// Warp form of [`CondBranchParamsView`]: the `SASSICondBranchParams`
/// object R6:R7 names in every active lane, located once.
#[derive(Clone, Copy, Debug)]
pub struct WarpBranchParams {
    base: ParamBase,
}

impl WarpBranchParams {
    /// Locates the object R6:R7 names (see [`TrapCtx::param_base`]).
    #[inline]
    pub fn new(ctx: &TrapCtx<'_>) -> WarpBranchParams {
        WarpBranchParams {
            base: ctx.param_base(1),
        }
    }

    /// The active lanes that take the branch, `__ballot(GetDirection())`:
    /// one masked compare over a row.
    ///
    /// # Errors
    ///
    /// As [`TrapCtx::param_field`]; the fault is recorded.
    #[inline]
    pub fn taken(&self, ctx: &TrapCtx<'_>) -> Result<LaneMask, MemError> {
        let mask = ctx.active_mask();
        let row = ctx.param_field(self.base, layout::BR_DIRECTION as u32, mask)?;
        Ok(lanes_where(&row, mask, |v| v != 0))
    }
}

/// Warp form of [`RegisterParamsView`]: the `SASSIRegisterParams`
/// object R6:R7 names in every active lane, located once.
#[derive(Clone, Copy, Debug)]
pub struct WarpRegisterParams {
    base: ParamBase,
}

impl WarpRegisterParams {
    /// Locates the object R6:R7 names (see [`TrapCtx::param_base`]).
    #[inline]
    pub fn new(ctx: &TrapCtx<'_>) -> WarpRegisterParams {
        WarpRegisterParams {
            base: ctx.param_base(1),
        }
    }

    /// Lane `lane`'s number of GPR destinations (`GetNumGPRDsts`).
    ///
    /// # Errors
    ///
    /// As [`TrapCtx::param_field`]; the fault is recorded.
    #[inline]
    pub fn num_dsts(&self, ctx: &TrapCtx<'_>, lane: usize) -> Result<u32, MemError> {
        Ok(word(ctx, self.base, layout::REG_NUM_DSTS, lane)?.min(layout::REG_MAX_DSTS))
    }

    /// Lane `lane`'s register number of destination `i` (`GetRegNum`).
    ///
    /// # Errors
    ///
    /// As [`TrapCtx::param_field`]; the fault is recorded.
    #[inline]
    pub fn reg_num(&self, ctx: &TrapCtx<'_>, lane: usize, i: u32) -> Result<u32, MemError> {
        word(ctx, self.base, layout::REG_ENTRIES + 8 * i as i32, lane)
    }

    /// Destination `i`'s value in each lane of `mask` (`GetRegValue`),
    /// as one row; the entries of other lanes are unspecified.
    ///
    /// # Errors
    ///
    /// As [`TrapCtx::param_field`]; the fault is recorded.
    #[inline]
    pub fn values<'t>(
        &self,
        ctx: &'t TrapCtx<'_>,
        mask: LaneMask,
        i: u32,
    ) -> Result<Cow<'t, [u32; 32]>, MemError> {
        let field = layout::REG_ENTRIES + 8 * i as i32 + 4;
        ctx.param_field(self.base, field as u32, mask)
    }
}

/// View of a lane's `SASSIBeforeParams` / `SASSIAfterParams`.
///
/// Constructed from the generic pointer the trampoline left in the
/// first ABI parameter pair (R4:R5).
#[derive(Clone, Copy, Debug)]
pub struct BeforeParamsView {
    ptr: u64,
    lane: usize,
}

impl BeforeParamsView {
    /// Binds the view to lane `lane`'s pointer (from R4:R5).
    pub fn new(ctx: &TrapCtx<'_>, lane: usize) -> BeforeParamsView {
        BeforeParamsView {
            ptr: ctx.abi_param(lane, 0),
            lane,
        }
    }

    /// The site id (`GetID`).
    pub fn id(&self, ctx: &TrapCtx<'_>) -> u32 {
        read32(ctx, self.lane, self.ptr, layout::ID)
    }

    /// Whether the original instruction's guard passes for this lane
    /// (`instrWillExecute`).
    pub fn will_execute(&self, ctx: &TrapCtx<'_>) -> bool {
        read32(ctx, self.lane, self.ptr, layout::WILL_EXECUTE) != 0
    }

    /// The function's base address (`GetFnAddr`).
    pub fn fn_addr(&self, ctx: &TrapCtx<'_>) -> u32 {
        read32(ctx, self.lane, self.ptr, layout::FN_ADDR)
    }

    /// The instruction's offset within its function (`GetInsOffset`).
    pub fn ins_offset(&self, ctx: &TrapCtx<'_>) -> u32 {
        read32(ctx, self.lane, self.ptr, layout::INS_OFFSET)
    }

    /// A stable unique instruction address (`GetInsAddr`), suitable as a
    /// hash-table key for per-instruction counters.
    pub fn ins_addr(&self, ctx: &TrapCtx<'_>) -> u64 {
        self.fn_addr(ctx) as u64 + self.ins_offset(ctx) as u64
    }

    /// The raw static encoding word.
    pub fn ins_encoding(&self, ctx: &TrapCtx<'_>) -> u32 {
        read32(ctx, self.lane, self.ptr, layout::INS_ENCODING)
    }

    /// The opcode family (`GetOpcode`).
    pub fn opcode(&self, ctx: &TrapCtx<'_>) -> OpcodeKind {
        let code = (self.ins_encoding(ctx) & 0xff) as usize;
        OpcodeKind::all()
            .get(code)
            .copied()
            .unwrap_or(OpcodeKind::Nop)
    }

    fn flag(&self, ctx: &TrapCtx<'_>, bit: u32) -> bool {
        self.ins_encoding(ctx) & (1 << bit) != 0
    }

    /// `IsMem`.
    pub fn is_mem(&self, ctx: &TrapCtx<'_>) -> bool {
        self.flag(ctx, 8)
    }

    /// `IsMemRead`.
    pub fn is_mem_read(&self, ctx: &TrapCtx<'_>) -> bool {
        self.flag(ctx, 9)
    }

    /// `IsMemWrite`.
    pub fn is_mem_write(&self, ctx: &TrapCtx<'_>) -> bool {
        self.flag(ctx, 10)
    }

    /// `IsSpillOrFill`.
    pub fn is_spill_or_fill(&self, ctx: &TrapCtx<'_>) -> bool {
        self.flag(ctx, 11)
    }

    /// `IsControlXfer`.
    pub fn is_control_xfer(&self, ctx: &TrapCtx<'_>) -> bool {
        self.flag(ctx, 12)
    }

    /// `IsCondControlXfer`.
    pub fn is_cond_control_xfer(&self, ctx: &TrapCtx<'_>) -> bool {
        self.flag(ctx, 13)
    }

    /// `IsSync`.
    pub fn is_sync(&self, ctx: &TrapCtx<'_>) -> bool {
        self.flag(ctx, 14)
    }

    /// `IsNumeric`.
    pub fn is_numeric(&self, ctx: &TrapCtx<'_>) -> bool {
        self.flag(ctx, 15)
    }

    /// `IsTexture`.
    pub fn is_texture(&self, ctx: &TrapCtx<'_>) -> bool {
        self.flag(ctx, 16)
    }

    /// `IsSurfaceMemory` — always false on this machine (kept for
    /// interface parity).
    pub fn is_surface_memory(&self, _ctx: &TrapCtx<'_>) -> bool {
        false
    }

    /// The saved value of GPR `r` at the site (from the spill area) —
    /// only meaningful for registers the trampoline saved.
    pub fn spilled_gpr(&self, ctx: &TrapCtx<'_>, r: u8) -> u32 {
        read32(ctx, self.lane, self.ptr, layout::GPR_SPILL + 4 * r as i32)
    }

    /// Bit mask of the caller-saved registers (`R0..R15`) live at the
    /// site, from the compiler's liveness analysis (§3.2). These are
    /// exactly the registers the trampoline saved into the spill area.
    pub fn live_gpr_mask(&self, ctx: &TrapCtx<'_>) -> u32 {
        read32(ctx, self.lane, self.ptr, layout::LIVE_MASK)
    }

    /// The raw object pointer (generic address).
    pub fn raw_ptr(&self) -> u64 {
        self.ptr
    }
}

/// View of a lane's `SASSIMemoryParams`.
#[derive(Clone, Copy, Debug)]
pub struct MemoryParamsView {
    ptr: u64,
    lane: usize,
}

impl MemoryParamsView {
    /// Binds the view to lane `lane`'s pointer (from R6:R7).
    pub fn new(ctx: &TrapCtx<'_>, lane: usize) -> MemoryParamsView {
        MemoryParamsView {
            ptr: ctx.abi_param(lane, 1),
            lane,
        }
    }

    /// The effective (generic) address of the access (`GetAddress`).
    pub fn address(&self, ctx: &TrapCtx<'_>) -> u64 {
        let lo = read32(ctx, self.lane, self.ptr, layout::MEM_ADDRESS) as u64;
        let hi = read32(ctx, self.lane, self.ptr, layout::MEM_ADDRESS + 4) as u64;
        lo | (hi << 32)
    }

    fn props(&self, ctx: &TrapCtx<'_>) -> u32 {
        read32(ctx, self.lane, self.ptr, layout::MEM_PROPERTIES)
    }

    /// `IsLoad`.
    pub fn is_load(&self, ctx: &TrapCtx<'_>) -> bool {
        self.props(ctx) & layout::mem_props::READ != 0
    }

    /// `IsStore`.
    pub fn is_store(&self, ctx: &TrapCtx<'_>) -> bool {
        self.props(ctx) & layout::mem_props::WRITE != 0
    }

    /// `IsAtomic`.
    pub fn is_atomic(&self, ctx: &TrapCtx<'_>) -> bool {
        self.props(ctx) & layout::mem_props::ATOMIC != 0
    }

    /// Access width in bytes (`GetWidth`).
    pub fn width(&self, ctx: &TrapCtx<'_>) -> u32 {
        read32(ctx, self.lane, self.ptr, layout::MEM_WIDTH)
    }

    /// Address-space domain (`GetDomain`).
    pub fn domain(&self, ctx: &TrapCtx<'_>) -> MemoryDomain {
        MemoryDomain::from_code(read32(ctx, self.lane, self.ptr, layout::MEM_DOMAIN))
    }
}

/// View of a lane's `SASSICondBranchParams`.
#[derive(Clone, Copy, Debug)]
pub struct CondBranchParamsView {
    ptr: u64,
    lane: usize,
}

impl CondBranchParamsView {
    /// Binds the view to lane `lane`'s pointer (from R6:R7).
    pub fn new(ctx: &TrapCtx<'_>, lane: usize) -> CondBranchParamsView {
        CondBranchParamsView {
            ptr: ctx.abi_param(lane, 1),
            lane,
        }
    }

    /// Which way this lane will branch (`GetDirection`).
    pub fn direction(&self, ctx: &TrapCtx<'_>) -> bool {
        read32(ctx, self.lane, self.ptr, layout::BR_DIRECTION) != 0
    }

    /// The branch target (function-relative pc).
    pub fn target_offset(&self, ctx: &TrapCtx<'_>) -> u32 {
        read32(ctx, self.lane, self.ptr, layout::BR_TARGET)
    }

    /// The fall-through pc.
    pub fn fallthrough_offset(&self, ctx: &TrapCtx<'_>) -> u32 {
        read32(ctx, self.lane, self.ptr, layout::BR_FALLTHROUGH)
    }
}

/// View of a lane's `SASSIRegisterParams`.
#[derive(Clone, Copy, Debug)]
pub struct RegisterParamsView {
    ptr: u64,
    lane: usize,
}

impl RegisterParamsView {
    /// Binds the view to lane `lane`'s pointer (from R6:R7).
    pub fn new(ctx: &TrapCtx<'_>, lane: usize) -> RegisterParamsView {
        RegisterParamsView {
            ptr: ctx.abi_param(lane, 1),
            lane,
        }
    }

    /// Number of GPR destinations (`GetNumGPRDsts`).
    pub fn num_dsts(&self, ctx: &TrapCtx<'_>) -> u32 {
        read32(ctx, self.lane, self.ptr, layout::REG_NUM_DSTS).min(layout::REG_MAX_DSTS)
    }

    /// Destination `i`'s register number (`GetRegNum`).
    pub fn reg_num(&self, ctx: &TrapCtx<'_>, i: u32) -> u32 {
        read32(ctx, self.lane, self.ptr, layout::REG_ENTRIES + 8 * i as i32)
    }

    /// Destination `i`'s value (`GetRegValue`).
    pub fn value(&self, ctx: &TrapCtx<'_>, i: u32) -> u32 {
        read32(
            ctx,
            self.lane,
            self.ptr,
            layout::REG_ENTRIES + 8 * i as i32 + 4,
        )
    }

    /// Mask of predicate registers written (bit i = Pi).
    pub fn pred_dst_mask(&self, ctx: &TrapCtx<'_>) -> u32 {
        read32(ctx, self.lane, self.ptr, layout::REG_PRED_MASK)
    }

    /// Whether the instruction writes the condition code.
    pub fn writes_cc(&self, ctx: &TrapCtx<'_>) -> bool {
        read32(ctx, self.lane, self.ptr, layout::REG_CC_WRITE) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_matches_paper_figure2() {
        // The Figure 2(a) trampoline stores id at [R1], willExecute at
        // [R1+0x4], PRSpill at [R1+0x10], R0's slot at [R1+0x18],
        // insEncoding at [R1+0x58], and the memory object at [R1+0x60]
        // with the 64-bit address first.
        assert_eq!(layout::ID, 0x0);
        assert_eq!(layout::WILL_EXECUTE, 0x4);
        assert_eq!(layout::PR_SPILL, 0x10);
        assert_eq!(layout::GPR_SPILL, 0x18);
        assert_eq!(layout::GPR_SPILL + 4 * 15, 0x54);
        assert_eq!(layout::INS_ENCODING, 0x58);
        assert_eq!(layout::BEFORE_SIZE, 0x60);
        assert_eq!(layout::BEFORE_SIZE + layout::MEM_SIZE, 0x80);
    }

    #[test]
    fn domain_codes_roundtrip() {
        for d in [
            MemoryDomain::Generic,
            MemoryDomain::Local,
            MemoryDomain::Global,
            MemoryDomain::Shared,
            MemoryDomain::Texture,
        ] {
            assert_eq!(MemoryDomain::from_code(d as u32), d);
        }
        assert_eq!(
            MemoryDomain::of_space(AddrSpace::Global, false),
            MemoryDomain::Global
        );
        assert_eq!(
            MemoryDomain::of_space(AddrSpace::Global, true),
            MemoryDomain::Texture
        );
    }
}
