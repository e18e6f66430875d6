//! Launch outcomes and statistics.

use sassi_isa::InstrClass;
use sassi_mem::HierarchyStats;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of fault that aborted a kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Global-memory access outside every allocation, or through the
    /// null/guard pages of the generic address space.
    MemViolation {
        /// Faulting address.
        addr: u64,
    },
    /// Misaligned access.
    Misaligned {
        /// Faulting address.
        addr: u64,
    },
    /// Local (stack) access outside the thread's slab.
    StackViolation {
        /// Faulting local offset.
        offset: u64,
    },
    /// Shared-memory access outside the block's segment.
    SharedViolation {
        /// Faulting shared offset.
        offset: u64,
    },
    /// Control transfer outside the module's code.
    InvalidPc {
        /// Faulting pc.
        pc: u64,
    },
    /// `RET` with an empty call stack.
    CallStackUnderflow,
    /// `CAL` with 1024 return pcs already on the call stack.
    CallStackOverflow,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::MemViolation { addr } => {
                write!(f, "illegal global memory access at {addr:#x}")
            }
            FaultKind::Misaligned { addr } => write!(f, "misaligned address {addr:#x}"),
            FaultKind::StackViolation { offset } => {
                write!(f, "local memory access out of stack at {offset:#x}")
            }
            FaultKind::SharedViolation { offset } => {
                write!(f, "shared memory access out of segment at {offset:#x}")
            }
            FaultKind::InvalidPc { pc } => write!(f, "control transfer to invalid pc {pc}"),
            FaultKind::CallStackUnderflow => write!(f, "return with empty call stack"),
            FaultKind::CallStackOverflow => write!(f, "call with full call stack"),
        }
    }
}

/// Where a fault happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultInfo {
    /// What happened.
    pub kind: FaultKind,
    /// Program counter of the faulting instruction.
    pub pc: u32,
    /// SM executing the faulting warp.
    pub sm: u32,
}

impl fmt::Display for FaultInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (pc {}, SM {})", self.kind, self.pc, self.sm)
    }
}

/// How a kernel launch ended.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum KernelOutcome {
    /// Ran to completion.
    Completed,
    /// Aborted on a fault (the CUDA "unspecified launch failure" /
    /// sticky-error analogue).
    Fault(FaultInfo),
    /// Exceeded the watchdog cycle budget.
    Hang,
}

impl KernelOutcome {
    /// Whether the kernel completed normally.
    pub fn is_ok(&self) -> bool {
        matches!(self, KernelOutcome::Completed)
    }
}

/// Coarse issue classification of an instruction, the profiling axes
/// of the per-class counters in [`IssueCounters`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IssueClass {
    /// Loads, stores, atomics, reductions, texture fetches.
    Memory,
    /// Branches, calls, returns, `SYNC`, `EXIT`.
    Control,
    /// Integer / floating-point arithmetic.
    Numeric,
    /// Everything else (moves, predicates, barriers, votes, …).
    Misc,
}

impl IssueClass {
    /// Maps the ISA's static classification onto the four profiling
    /// buckets.
    pub fn of(class: &InstrClass) -> IssueClass {
        if class.is_mem() {
            IssueClass::Memory
        } else if class.is_control_xfer() {
            IssueClass::Control
        } else if class.is_numeric() {
            IssueClass::Numeric
        } else {
            IssueClass::Misc
        }
    }
}

/// Warp-level instruction issue counts by [`IssueClass`] — the
/// where-do-cycles-go profiling hook (always sums to
/// [`LaunchStats::warp_instrs`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IssueCounters {
    /// Memory-class instructions issued.
    pub memory: u64,
    /// Control-class instructions issued.
    pub control: u64,
    /// Numeric-class instructions issued.
    pub numeric: u64,
    /// Everything else.
    pub misc: u64,
}

impl IssueCounters {
    /// Counts one issued instruction of `class`.
    #[inline(always)]
    pub fn bump(&mut self, class: IssueClass) {
        match class {
            IssueClass::Memory => self.memory += 1,
            IssueClass::Control => self.control += 1,
            IssueClass::Numeric => self.numeric += 1,
            IssueClass::Misc => self.misc += 1,
        }
    }

    /// Total instructions counted.
    pub fn total(&self) -> u64 {
        self.memory + self.control + self.numeric + self.misc
    }

    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &IssueCounters) {
        self.memory += other.memory;
        self.control += other.control;
        self.numeric += other.numeric;
        self.misc += other.misc;
    }
}

/// Statistics of one kernel launch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LaunchStats {
    /// Total SM cycles from launch to last warp retirement.
    pub cycles: u64,
    /// Warp-level instructions issued.
    pub warp_instrs: u64,
    /// Thread-level instructions executed (sum of guard-passing active
    /// lanes over issued instructions).
    pub thread_instrs: u64,
    /// Conditional branches that split a warp.
    pub divergent_branches: u64,
    /// Conditional branches executed (warp-level).
    pub cond_branches: u64,
    /// Traps into native instrumentation handlers.
    pub handler_calls: u64,
    /// Cycles charged to native handler bodies.
    pub handler_cycles: u64,
    /// Blocks executed.
    pub blocks: u64,
    /// Warp-level issues broken down by instruction class.
    pub issue: IssueCounters,
}

impl LaunchStats {
    /// Merges one SM shard's counters into the launch aggregate: work
    /// counters sum; `cycles` is the maximum over shards, because the
    /// shards model SMs running concurrently.
    pub fn merge_shard(&mut self, shard: &LaunchStats) {
        self.cycles = self.cycles.max(shard.cycles);
        self.warp_instrs += shard.warp_instrs;
        self.thread_instrs += shard.thread_instrs;
        self.divergent_branches += shard.divergent_branches;
        self.cond_branches += shard.cond_branches;
        self.handler_calls += shard.handler_calls;
        self.handler_cycles += shard.handler_cycles;
        self.blocks += shard.blocks;
        self.issue.merge(&shard.issue);
    }
}

/// The result of a launch: outcome, counters and the memory hierarchy's
/// view of the run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LaunchResult {
    /// How the launch ended.
    pub outcome: KernelOutcome,
    /// Core counters.
    pub stats: LaunchStats,
    /// Memory-system counters accumulated during this launch.
    pub mem: HierarchyStats,
}

impl LaunchResult {
    /// Whether the kernel completed normally.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_queries() {
        assert!(KernelOutcome::Completed.is_ok());
        assert!(!KernelOutcome::Hang.is_ok());
        let f = FaultInfo {
            kind: FaultKind::CallStackUnderflow,
            pc: 3,
            sm: 1,
        };
        assert!(!KernelOutcome::Fault(f).is_ok());
        assert!(f.to_string().contains("pc 3"));
    }

    #[test]
    fn fault_display() {
        let k = FaultKind::MemViolation { addr: 0x10 };
        assert!(k.to_string().contains("0x10"));
    }

    #[test]
    fn issue_class_buckets() {
        use sassi_isa::{Gpr, Instr, MemAddr, MemWidth, Op, Src};
        let class = |op: Op| IssueClass::of(&Instr::new(op).class());
        assert_eq!(
            class(Op::Ld {
                d: Gpr::new(0),
                width: MemWidth::B32,
                addr: MemAddr::global(Gpr::new(4), 0),
                spill: false,
            }),
            IssueClass::Memory
        );
        assert_eq!(class(Op::Exit), IssueClass::Control);
        assert_eq!(
            class(Op::IAdd {
                d: Gpr::new(0),
                a: Gpr::new(1),
                b: Src::Imm(1),
                x: false,
                cc: false,
            }),
            IssueClass::Numeric
        );
        assert_eq!(
            class(Op::Mov {
                d: Gpr::new(0),
                a: Src::Imm(0),
            }),
            IssueClass::Misc
        );
        // SSY sets up reconvergence but transfers no control itself.
        assert_eq!(
            class(Op::Ssy {
                target: sassi_isa::Label::Pc(0),
            }),
            IssueClass::Misc
        );
        assert_eq!(class(Op::BarSync), IssueClass::Misc);
    }

    #[test]
    fn issue_counters_accumulate() {
        let mut c = IssueCounters::default();
        c.bump(IssueClass::Memory);
        c.bump(IssueClass::Control);
        c.bump(IssueClass::Control);
        c.bump(IssueClass::Numeric);
        c.bump(IssueClass::Misc);
        assert_eq!(c.memory, 1);
        assert_eq!(c.control, 2);
        assert_eq!(c.numeric, 1);
        assert_eq!(c.misc, 1);
        assert_eq!(c.total(), 5);
    }
}
