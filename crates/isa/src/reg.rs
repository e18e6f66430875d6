//! Register-file name spaces: GPRs, predicate registers, special registers
//! and constant-bank addresses.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A general-purpose 32-bit register.
///
/// Encodings `0..=254` name the ordinary registers `R0..R254`; encoding
/// `255` is the architectural zero register [`Gpr::RZ`], which reads as
/// `0` and ignores writes. 64-bit quantities are held in an *aligned
/// pair*: `Rn` holds the low word and `Rn+1` the high word, with `n`
/// even (see [`Gpr::pair_hi`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Gpr(u8);

impl Gpr {
    /// The zero register: reads as zero, writes are discarded.
    pub const RZ: Gpr = Gpr(255);

    /// The ABI stack pointer. By convention of our compute ABI (as on
    /// NVIDIA GPUs) `R1` holds the per-thread local-memory stack pointer.
    pub const SP: Gpr = Gpr(1);

    /// Creates `Rn`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 254` (255 is reserved for `RZ`; use [`Gpr::RZ`]).
    #[inline]
    pub fn new(n: u8) -> Gpr {
        assert!(n < 255, "R{n} out of range (R0..R254)");
        Gpr(n)
    }

    /// The raw register number (255 for `RZ`).
    pub fn index(self) -> u8 {
        self.0
    }

    /// Whether this is the zero register.
    pub fn is_rz(self) -> bool {
        self.0 == 255
    }

    /// The high half of the 64-bit pair whose low half is `self`.
    ///
    /// `RZ.pair_hi()` is `RZ` (a 64-bit zero is a pair of zero reads).
    ///
    /// # Panics
    ///
    /// Panics if `self` is `R254` (no `R255` exists).
    #[inline]
    pub fn pair_hi(self) -> Gpr {
        if self.is_rz() {
            return Gpr::RZ;
        }
        assert!(self.0 < 254, "R{} has no pair high register", self.0);
        Gpr(self.0 + 1)
    }
}

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_rz() {
            write!(f, "RZ")
        } else {
            write!(f, "R{}", self.0)
        }
    }
}

impl fmt::Debug for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A single-bit predicate register.
///
/// Encodings `0..=6` name `P0..P6`; encoding `7` is the always-true
/// predicate [`PredReg::PT`], which reads as `true` and ignores writes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PredReg(u8);

impl PredReg {
    /// The always-true predicate.
    pub const PT: PredReg = PredReg(7);

    /// Creates `Pn`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 6` (7 is reserved for `PT`; use [`PredReg::PT`]).
    pub fn new(n: u8) -> PredReg {
        assert!(n < 7, "P{n} out of range (P0..P6)");
        PredReg(n)
    }

    /// The raw predicate number (7 for `PT`).
    pub fn index(self) -> u8 {
        self.0
    }

    /// Whether this is the always-true predicate.
    pub fn is_pt(self) -> bool {
        self.0 == 7
    }
}

impl fmt::Display for PredReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pt() {
            write!(f, "PT")
        } else {
            write!(f, "P{}", self.0)
        }
    }
}

impl fmt::Debug for PredReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Special (read-only) registers accessible through `S2R`.
///
/// These expose the thread's coordinates and machine identifiers, like
/// the `%tid`/`%ctaid`/`%laneid` special registers of PTX/SASS.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum SpecialReg {
    /// Thread index within the block, x component.
    TidX,
    /// Thread index within the block, y component.
    TidY,
    /// Thread index within the block, z component.
    TidZ,
    /// Block index within the grid, x component.
    CtaIdX,
    /// Block index within the grid, y component.
    CtaIdY,
    /// Block index within the grid, z component.
    CtaIdZ,
    /// Block dimensions, x component.
    NTidX,
    /// Block dimensions, y component.
    NTidY,
    /// Block dimensions, z component.
    NTidZ,
    /// Grid dimensions, x component.
    NCtaIdX,
    /// Grid dimensions, y component.
    NCtaIdY,
    /// Grid dimensions, z component.
    NCtaIdZ,
    /// Lane index within the warp (0..31).
    LaneId,
    /// Warp index within the SM.
    WarpId,
    /// Identifier of the SM executing the thread.
    SmId,
    /// Low 32 bits of the SM cycle counter.
    ClockLo,
    /// High 32 bits of the SM cycle counter.
    ClockHi,
    /// Mask of lanes with id < this thread's lane id.
    LaneMaskLt,
    /// Mask of lanes that are active at this instruction.
    ActiveMask,
}

impl fmt::Display for SpecialReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpecialReg::TidX => "SR_TID.X",
            SpecialReg::TidY => "SR_TID.Y",
            SpecialReg::TidZ => "SR_TID.Z",
            SpecialReg::CtaIdX => "SR_CTAID.X",
            SpecialReg::CtaIdY => "SR_CTAID.Y",
            SpecialReg::CtaIdZ => "SR_CTAID.Z",
            SpecialReg::NTidX => "SR_NTID.X",
            SpecialReg::NTidY => "SR_NTID.Y",
            SpecialReg::NTidZ => "SR_NTID.Z",
            SpecialReg::NCtaIdX => "SR_NCTAID.X",
            SpecialReg::NCtaIdY => "SR_NCTAID.Y",
            SpecialReg::NCtaIdZ => "SR_NCTAID.Z",
            SpecialReg::LaneId => "SR_LANEID",
            SpecialReg::WarpId => "SR_WARPID",
            SpecialReg::SmId => "SR_SMID",
            SpecialReg::ClockLo => "SR_CLOCKLO",
            SpecialReg::ClockHi => "SR_CLOCKHI",
            SpecialReg::LaneMaskLt => "SR_LANEMASK_LT",
            SpecialReg::ActiveMask => "SR_ACTIVEMASK",
        };
        f.write_str(s)
    }
}

/// An address into a constant bank, `c[bank][offset]`.
///
/// Bank 0 holds launch metadata and kernel parameters, like NVIDIA's
/// `c[0x0]` bank. Offsets are byte offsets and must be 4-byte aligned.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct CBankAddr {
    /// Constant bank number.
    pub bank: u8,
    /// Byte offset within the bank (4-byte aligned).
    pub offset: u16,
}

impl CBankAddr {
    /// Creates a constant-bank address.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not 4-byte aligned.
    pub fn new(bank: u8, offset: u16) -> CBankAddr {
        assert_eq!(offset % 4, 0, "constant bank offset must be 4-byte aligned");
        CBankAddr { bank, offset }
    }
}

impl fmt::Display for CBankAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c[{:#x}][{:#x}]", self.bank, self.offset)
    }
}

/// Well-known bank-0 offsets, mirroring the layout NVIDIA's driver
/// establishes for compute kernels.
pub mod cbank0 {
    /// Block dimension x (`ntid.x`).
    pub const NTID_X: u16 = 0x00;
    /// Block dimension y.
    pub const NTID_Y: u16 = 0x04;
    /// Block dimension z.
    pub const NTID_Z: u16 = 0x08;
    /// Grid dimension x (`nctaid.x`).
    pub const NCTAID_X: u16 = 0x0c;
    /// Grid dimension y.
    pub const NCTAID_Y: u16 = 0x10;
    /// Grid dimension z.
    pub const NCTAID_Z: u16 = 0x14;
    /// Per-thread local (stack) slab size in bytes.
    pub const LOCAL_SIZE: u16 = 0x18;
    /// Shared memory size allocated to the block, in bytes.
    pub const SHARED_SIZE: u16 = 0x1c;
    /// Generic-address window tag for local memory. This is the constant
    /// the paper's Figure 2 ORs with a stack offset
    /// (`LOP.OR R4, R1, c[0x0][0x24]`) to form a generic pointer to a
    /// stack-allocated object.
    pub const LOCAL_WINDOW: u16 = 0x24;
    /// Generic-address window tag for shared memory.
    pub const SHARED_WINDOW: u16 = 0x28;
    /// First byte of user kernel parameters.
    pub const PARAM_BASE: u16 = 0x140;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpr_display_and_rz() {
        assert_eq!(Gpr::new(0).to_string(), "R0");
        assert_eq!(Gpr::new(254).to_string(), "R254");
        assert_eq!(Gpr::RZ.to_string(), "RZ");
        assert!(Gpr::RZ.is_rz());
        assert!(!Gpr::new(3).is_rz());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gpr_255_rejected() {
        let _ = Gpr::new(255);
    }

    #[test]
    fn gpr_pairs() {
        assert_eq!(Gpr::new(4).pair_hi(), Gpr::new(5));
        assert_eq!(Gpr::RZ.pair_hi(), Gpr::RZ);
    }

    #[test]
    fn pred_display_and_pt() {
        assert_eq!(PredReg::new(0).to_string(), "P0");
        assert_eq!(PredReg::PT.to_string(), "PT");
        assert!(PredReg::PT.is_pt());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pred_7_rejected() {
        let _ = PredReg::new(7);
    }

    #[test]
    fn cbank_display() {
        assert_eq!(CBankAddr::new(0, 0x24).to_string(), "c[0x0][0x24]");
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn cbank_unaligned_rejected() {
        let _ = CBankAddr::new(0, 0x25);
    }

    #[test]
    fn sp_is_r1() {
        assert_eq!(Gpr::SP, Gpr::new(1));
    }
}
