//! Instruction set of the G-GPU's FGPU-like SIMT machine.
//!
//! A compact RISC-style ISA sufficient for the OpenCL micro-kernels of
//! the paper's evaluation: integer ALU ops, global/local memory
//! access, branches (full per-work-item divergence is handled by the
//! simulator's multi-PC lockstep scheme, so no reconvergence
//! instruction is needed), and the work-item identification reads the
//! OpenCL runtime provides (`get_local_id` etc.).

use std::fmt;

/// A register index (r0–r31). r0 is a normal register (not
/// hard-wired to zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// Number of architectural registers per work-item.
    pub const COUNT: u8 = 32;

    /// Creates a register index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub const fn new(index: u8) -> Self {
        assert!(index < Self::COUNT, "register index out of range");
        Self(index)
    }

    /// Creates a register index, returning `None` if `index >= 32` —
    /// the non-panicking form for untrusted input (the assembler and
    /// the instruction decoder go through this).
    pub const fn try_new(index: u8) -> Option<Self> {
        if index < Self::COUNT {
            Some(Self(index))
        } else {
            None
        }
    }

    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Two-source ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (low 32 bits).
    Mul,
    /// Unsigned division (x/0 = all-ones, like RISC-V M).
    Divu,
    /// Unsigned remainder (x%0 = x).
    Remu,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical left shift (by low 5 bits).
    Sll,
    /// Logical right shift.
    Srl,
    /// Arithmetic right shift.
    Sra,
    /// Set if less than (signed).
    Slt,
    /// Set if less than (unsigned).
    Sltu,
}

impl AluOp {
    /// Applies the operation.
    // Divide-by-zero follows the RISC-V M convention, so the manual
    // zero check is the specification, not a missed `checked_div`.
    //
    // `#[inline]` so the simulator's per-op specialized lane loops can
    // constant-fold the `match` away and autovectorize across lanes
    // (the workspace builds without LTO, so cross-crate inlining needs
    // the hint).
    #[allow(clippy::manual_checked_ops)]
    #[inline]
    pub fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Divu => {
                if b == 0 {
                    u32::MAX
                } else {
                    a / b
                }
            }
            AluOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => (a as i32).wrapping_shr(b & 31) as u32,
            AluOp::Slt => u32::from((a as i32) < (b as i32)),
            AluOp::Sltu => u32::from(a < b),
        }
    }

    /// `true` for multi-cycle operations (multiplier/divider paths).
    pub fn is_long_latency(self) -> bool {
        matches!(self, AluOp::Mul | AluOp::Divu | AluOp::Remu)
    }
}

/// Branch comparison conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than, signed.
    Lt,
    /// Greater or equal, signed.
    Ge,
    /// Less than, unsigned.
    Ltu,
    /// Greater or equal, unsigned.
    Geu,
}

impl BranchCond {
    /// Evaluates the condition.
    // `#[inline]` for the same cross-crate vectorization reason as
    // [`AluOp::apply`].
    #[inline]
    pub fn test(self, a: u32, b: u32) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i32) < (b as i32),
            BranchCond::Ge => (a as i32) >= (b as i32),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }
}

/// Work-item identification sources (the OpenCL `get_*` built-ins the
/// FGPU exposes through its runtime memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdSource {
    /// Global work-item id.
    GlobalId,
    /// Local id within the workgroup.
    LocalId,
    /// Workgroup id.
    GroupId,
    /// Workgroup size.
    GroupSize,
    /// Total number of work-items.
    GlobalSize,
}

/// One instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `rd = rs1 op rs2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
    },
    /// `rd = rs1 op sign_extend(imm)`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Operand.
        rs1: Reg,
        /// 16-bit signed immediate.
        imm: i16,
    },
    /// `rd = imm << 16`.
    Lui {
        /// Destination.
        rd: Reg,
        /// Upper immediate.
        imm: u16,
    },
    /// `rd = <id source>`.
    ReadId {
        /// Destination.
        rd: Reg,
        /// Which id to read.
        src: IdSource,
    },
    /// `rd = kernel_param[idx]` (the FGPU's runtime-memory parameter
    /// fetch).
    Param {
        /// Destination.
        rd: Reg,
        /// Parameter index (0–7).
        idx: u8,
    },
    /// Global-memory word load: `rd = mem[rs1 + imm]` (byte address,
    /// word aligned), through the shared data cache.
    Lw {
        /// Destination.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Byte offset.
        imm: i16,
    },
    /// Global-memory word store: `mem[rs1 + imm] = rs2`.
    Sw {
        /// Base address register.
        rs1: Reg,
        /// Value register.
        rs2: Reg,
        /// Byte offset.
        imm: i16,
    },
    /// Local scratch (LRAM) word load, one cycle-class faster and not
    /// shared across CUs.
    Lwl {
        /// Destination.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Byte offset.
        imm: i16,
    },
    /// Local scratch word store.
    Swl {
        /// Base address register.
        rs1: Reg,
        /// Value register.
        rs2: Reg,
        /// Byte offset.
        imm: i16,
    },
    /// Conditional branch to absolute instruction index `target`.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// First compare operand.
        rs1: Reg,
        /// Second compare operand.
        rs2: Reg,
        /// Target instruction index.
        target: u32,
    },
    /// Unconditional jump to instruction index `target`.
    Jmp {
        /// Target instruction index.
        target: u32,
    },
    /// Workgroup barrier: no work-item of the workgroup proceeds past
    /// the barrier until every live wavefront of the workgroup has
    /// reached it. All active lanes of a wavefront must reach the
    /// barrier together (uniform control flow), as on real SIMT
    /// hardware.
    Bar,
    /// Work-item termination.
    Ret,
}

impl Inst {
    /// `true` if the instruction accesses global memory.
    pub fn is_global_mem(self) -> bool {
        matches!(self, Inst::Lw { .. } | Inst::Sw { .. })
    }

    /// `true` if the instruction can change control flow.
    pub fn is_control(self) -> bool {
        matches!(self, Inst::Branch { .. } | Inst::Jmp { .. } | Inst::Ret)
    }

    /// The registers the instruction reads, in operand order. With
    /// [`Inst::def`] this is the one register-access table: the kernel
    /// verifier's dataflow and the simulator's fault fork both read it.
    pub fn uses(self) -> impl Iterator<Item = Reg> {
        let regs: [Option<Reg>; 2] = match self {
            Inst::Alu { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            Inst::AluImm { rs1, .. } => [Some(rs1), None],
            Inst::Lui { .. } | Inst::ReadId { .. } | Inst::Param { .. } => [None, None],
            Inst::Lw { rs1, .. } | Inst::Lwl { rs1, .. } => [Some(rs1), None],
            Inst::Sw { rs1, rs2, .. } | Inst::Swl { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            Inst::Branch { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            Inst::Jmp { .. } | Inst::Bar | Inst::Ret => [None, None],
        };
        regs.into_iter().flatten()
    }

    /// The register the instruction writes, if any.
    pub fn def(self) -> Option<Reg> {
        match self {
            Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Lui { rd, .. }
            | Inst::ReadId { rd, .. }
            | Inst::Param { rd, .. }
            | Inst::Lw { rd, .. }
            | Inst::Lwl { rd, .. } => Some(rd),
            Inst::Sw { .. }
            | Inst::Swl { .. }
            | Inst::Branch { .. }
            | Inst::Jmp { .. }
            | Inst::Bar
            | Inst::Ret => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), u32::MAX);
        assert_eq!(AluOp::Mul.apply(0x10000, 0x10000), 0);
        assert_eq!(AluOp::Divu.apply(7, 2), 3);
        assert_eq!(AluOp::Divu.apply(7, 0), u32::MAX);
        assert_eq!(AluOp::Remu.apply(7, 0), 7);
        assert_eq!(AluOp::Sra.apply(0x8000_0000, 31), u32::MAX);
        assert_eq!(AluOp::Srl.apply(0x8000_0000, 31), 1);
        assert_eq!(AluOp::Slt.apply(u32::MAX, 0), 1, "-1 < 0 signed");
        assert_eq!(AluOp::Sltu.apply(u32::MAX, 0), 0);
    }

    #[test]
    fn branch_semantics() {
        assert!(BranchCond::Eq.test(5, 5));
        assert!(BranchCond::Lt.test(u32::MAX, 0), "-1 < 0 signed");
        assert!(!BranchCond::Ltu.test(u32::MAX, 0));
        assert!(BranchCond::Geu.test(u32::MAX, 0));
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn reg_range_checked() {
        let _ = Reg::new(32);
    }

    #[test]
    fn classification() {
        let r = Reg::new(1);
        assert!(Inst::Lw {
            rd: r,
            rs1: r,
            imm: 0
        }
        .is_global_mem());
        assert!(!Inst::Lwl {
            rd: r,
            rs1: r,
            imm: 0
        }
        .is_global_mem());
        assert!(Inst::Ret.is_control());
        assert!(AluOp::Divu.is_long_latency());
        assert!(!AluOp::Add.is_long_latency());
    }

    #[test]
    fn register_table_covers_every_variant() {
        let (d, a, b) = (Reg::new(3), Reg::new(7), Reg::new(31));
        let op = AluOp::Add;
        let cases: [(Inst, &[Reg], Option<Reg>); 13] = [
            (
                Inst::Alu {
                    op,
                    rd: d,
                    rs1: a,
                    rs2: b,
                },
                &[a, b],
                Some(d),
            ),
            (
                Inst::AluImm {
                    op,
                    rd: d,
                    rs1: a,
                    imm: -1,
                },
                &[a],
                Some(d),
            ),
            (Inst::Lui { rd: d, imm: 1 }, &[], Some(d)),
            (
                Inst::ReadId {
                    rd: d,
                    src: IdSource::GlobalId,
                },
                &[],
                Some(d),
            ),
            (Inst::Param { rd: d, idx: 2 }, &[], Some(d)),
            (
                Inst::Lw {
                    rd: d,
                    rs1: a,
                    imm: 4,
                },
                &[a],
                Some(d),
            ),
            (
                Inst::Sw {
                    rs1: a,
                    rs2: b,
                    imm: 4,
                },
                &[a, b],
                None,
            ),
            (
                Inst::Lwl {
                    rd: d,
                    rs1: a,
                    imm: 4,
                },
                &[a],
                Some(d),
            ),
            (
                Inst::Swl {
                    rs1: a,
                    rs2: b,
                    imm: 4,
                },
                &[a, b],
                None,
            ),
            (
                Inst::Branch {
                    cond: BranchCond::Ne,
                    rs1: a,
                    rs2: b,
                    target: 0,
                },
                &[a, b],
                None,
            ),
            (Inst::Jmp { target: 0 }, &[], None),
            (Inst::Bar, &[], None),
            (Inst::Ret, &[], None),
        ];
        // The match has no wildcard, so a new variant fails to compile
        // here until it gets a case above.
        let variant = |inst: Inst| match inst {
            Inst::Alu { .. } => 0,
            Inst::AluImm { .. } => 1,
            Inst::Lui { .. } => 2,
            Inst::ReadId { .. } => 3,
            Inst::Param { .. } => 4,
            Inst::Lw { .. } => 5,
            Inst::Sw { .. } => 6,
            Inst::Lwl { .. } => 7,
            Inst::Swl { .. } => 8,
            Inst::Branch { .. } => 9,
            Inst::Jmp { .. } => 10,
            Inst::Bar => 11,
            Inst::Ret => 12,
        };
        for (i, (inst, uses, def)) in cases.into_iter().enumerate() {
            assert_eq!(variant(inst), i, "{inst:?}: one case per variant, in order");
            assert_eq!(inst.uses().collect::<Vec<_>>(), uses, "{inst:?} reads");
            assert_eq!(inst.def(), def, "{inst:?} writes");
        }
    }
}
