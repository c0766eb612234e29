//! RV32IM executor with a CV32E40P-class cycle model.
//!
//! In-order 4-stage pipeline accounting: one cycle per instruction,
//! one extra cycle for loads, two flush cycles for taken branches and
//! jumps, single-cycle multiply, 34-cycle iterative divide — matching
//! the published CV32E40P characteristics.

use crate::inst::{
    decode, BranchFunc, DecodeRvError, LoadFunc, OpFunc, OpImmFunc, RvInst, StoreFunc,
};
use std::error::Error;
use std::fmt;

/// Cycle costs of the core model.
pub mod cost {
    /// Base cycles per instruction.
    pub const BASE: u64 = 1;
    /// Extra cycles for a load (data-memory stage).
    pub const LOAD_EXTRA: u64 = 1;
    /// Flush penalty of a taken branch.
    pub const BRANCH_TAKEN_EXTRA: u64 = 2;
    /// Flush penalty of a jump.
    pub const JUMP_EXTRA: u64 = 2;
    /// Extra cycles of the iterative divider.
    pub const DIV_EXTRA: u64 = 34;
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuError {
    /// A word failed to decode.
    Decode(DecodeRvError),
    /// PC left the loaded program.
    PcOutOfRange {
        /// The offending program counter.
        pc: u32,
    },
    /// A data access fell outside memory.
    MemFault {
        /// The offending byte address.
        addr: u32,
    },
    /// A load/store was not aligned to its width.
    Unaligned {
        /// The offending byte address.
        addr: u32,
    },
    /// The instruction budget was exhausted (runaway program).
    StepLimit {
        /// The configured limit.
        limit: u64,
    },
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuError::Decode(e) => write!(f, "{e}"),
            CpuError::PcOutOfRange { pc } => write!(f, "pc {pc:#x} outside program"),
            CpuError::MemFault { addr } => write!(f, "memory fault at {addr:#x}"),
            CpuError::Unaligned { addr } => write!(f, "unaligned access at {addr:#x}"),
            CpuError::StepLimit { limit } => write!(f, "step limit {limit} exceeded"),
        }
    }
}

impl Error for CpuError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CpuError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeRvError> for CpuError {
    fn from(e: DecodeRvError) -> Self {
        CpuError::Decode(e)
    }
}

/// Counters of one program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuStats {
    /// Total cycles (per the CV32E40P-class model).
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
    /// Taken branches.
    pub branches_taken: u64,
    /// Multiply instructions.
    pub mul_ops: u64,
    /// Divide/remainder instructions.
    pub div_ops: u64,
}

/// The RISC-V core: registers, PC, and a flat byte-addressable memory
/// holding both program (at address 0) and data.
pub struct Cpu {
    regs: [u32; 32],
    pc: u32,
    program_bytes: u32,
    memory: Vec<u8>,
    /// Instruction budget per [`Cpu::run`].
    pub step_limit: u64,
}

impl fmt::Debug for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cpu")
            .field("pc", &self.pc)
            .field("memory_bytes", &self.memory.len())
            .finish()
    }
}

impl Cpu {
    /// Creates a core with `memory_bytes` of zeroed memory and loads
    /// `program` at address 0.
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit in memory.
    pub fn new(program: &[u32], memory_bytes: usize) -> Self {
        assert!(
            program.len() * 4 <= memory_bytes,
            "program ({} bytes) exceeds memory ({memory_bytes} bytes)",
            program.len() * 4
        );
        let mut memory = vec![0u8; memory_bytes];
        for (i, w) in program.iter().enumerate() {
            memory[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        Self {
            regs: [0; 32],
            pc: 0,
            program_bytes: (program.len() * 4) as u32,
            memory,
            step_limit: 2_000_000_000,
        }
    }

    /// Reads a register.
    pub fn reg(&self, index: u8) -> u32 {
        self.regs[index as usize]
    }

    /// Writes a register (writes to x0 are ignored).
    pub fn set_reg(&mut self, index: u8, value: u32) {
        if index != 0 {
            self.regs[index as usize] = value;
        }
    }

    /// Copies words into memory at a byte address.
    ///
    /// # Errors
    ///
    /// Fails if the range exceeds memory.
    pub fn write_words(&mut self, byte_addr: u32, data: &[u32]) -> Result<(), CpuError> {
        let start = self.words_start(byte_addr, data.len())?;
        for (i, w) in data.iter().enumerate() {
            self.memory[start + i * 4..start + i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        Ok(())
    }

    /// Reads words from memory at a byte address.
    ///
    /// # Errors
    ///
    /// Fails if the range exceeds memory.
    pub fn read_words(&self, byte_addr: u32, len: usize) -> Result<Vec<u32>, CpuError> {
        let start = self.words_start(byte_addr, len)?;
        Ok((0..len)
            .map(|i| {
                u32::from_le_bytes(
                    self.memory[start + i * 4..start + i * 4 + 4]
                        .try_into()
                        .expect("4 bytes"),
                )
            })
            .collect())
    }

    /// The byte offset of `len` words at `byte_addr` once they are
    /// known to be aligned and in memory. A range past the end faults at
    /// the byte address one past it, saturated to `u32::MAX`.
    fn words_start(&self, byte_addr: u32, len: usize) -> Result<usize, CpuError> {
        if !byte_addr.is_multiple_of(4) {
            return Err(CpuError::Unaligned { addr: byte_addr });
        }
        let start = byte_addr as usize;
        match len
            .checked_mul(4)
            .and_then(|bytes| start.checked_add(bytes))
        {
            Some(end) if end <= self.memory.len() => Ok(start),
            end => Err(CpuError::MemFault {
                addr: end.and_then(|e| u32::try_from(e).ok()).unwrap_or(u32::MAX),
            }),
        }
    }

    fn load(&self, func: LoadFunc, addr: u32) -> Result<u32, CpuError> {
        let width = match func {
            LoadFunc::Lb | LoadFunc::Lbu => 1,
            LoadFunc::Lh | LoadFunc::Lhu => 2,
            LoadFunc::Lw => 4,
        };
        if !addr.is_multiple_of(width) {
            return Err(CpuError::Unaligned { addr });
        }
        let a = addr as usize;
        if a + width as usize > self.memory.len() {
            return Err(CpuError::MemFault { addr });
        }
        Ok(match func {
            LoadFunc::Lb => self.memory[a] as i8 as i32 as u32,
            LoadFunc::Lbu => u32::from(self.memory[a]),
            LoadFunc::Lh => i16::from_le_bytes([self.memory[a], self.memory[a + 1]]) as i32 as u32,
            LoadFunc::Lhu => u32::from(u16::from_le_bytes([self.memory[a], self.memory[a + 1]])),
            LoadFunc::Lw => u32::from_le_bytes(self.memory[a..a + 4].try_into().expect("4 bytes")),
        })
    }

    fn store(&mut self, func: StoreFunc, addr: u32, value: u32) -> Result<(), CpuError> {
        let width = match func {
            StoreFunc::Sb => 1,
            StoreFunc::Sh => 2,
            StoreFunc::Sw => 4,
        };
        if !addr.is_multiple_of(width) {
            return Err(CpuError::Unaligned { addr });
        }
        let a = addr as usize;
        if a + width as usize > self.memory.len() {
            return Err(CpuError::MemFault { addr });
        }
        let bytes = value.to_le_bytes();
        self.memory[a..a + width as usize].copy_from_slice(&bytes[..width as usize]);
        Ok(())
    }

    /// Runs until `ecall`, returning the cycle/instruction counters.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError`] on decode failures, memory faults, PC
    /// escapes, or when `step_limit` instructions retire without a
    /// halt.
    pub fn run(&mut self) -> Result<CpuStats, CpuError> {
        let mut stats = CpuStats::default();
        loop {
            if stats.instructions >= self.step_limit {
                return Err(CpuError::StepLimit {
                    limit: self.step_limit,
                });
            }
            if !self.pc.is_multiple_of(4) || self.pc >= self.program_bytes {
                return Err(CpuError::PcOutOfRange { pc: self.pc });
            }
            let word = u32::from_le_bytes(
                self.memory[self.pc as usize..self.pc as usize + 4]
                    .try_into()
                    .expect("4 bytes"),
            );
            let inst = decode(word)?;
            stats.instructions += 1;
            stats.cycles += cost::BASE;
            let mut next_pc = self.pc.wrapping_add(4);

            match inst {
                RvInst::Lui { rd, imm } => self.set_reg(rd, imm as u32),
                RvInst::Auipc { rd, imm } => self.set_reg(rd, self.pc.wrapping_add(imm as u32)),
                RvInst::Jal { rd, offset } => {
                    self.set_reg(rd, self.pc.wrapping_add(4));
                    next_pc = self.pc.wrapping_add(offset as u32);
                    stats.cycles += cost::JUMP_EXTRA;
                }
                RvInst::Jalr { rd, rs1, offset } => {
                    let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                    self.set_reg(rd, self.pc.wrapping_add(4));
                    next_pc = target;
                    stats.cycles += cost::JUMP_EXTRA;
                }
                RvInst::Branch {
                    func,
                    rs1,
                    rs2,
                    offset,
                } => {
                    let (a, b) = (self.reg(rs1), self.reg(rs2));
                    let taken = match func {
                        BranchFunc::Beq => a == b,
                        BranchFunc::Bne => a != b,
                        BranchFunc::Blt => (a as i32) < (b as i32),
                        BranchFunc::Bge => (a as i32) >= (b as i32),
                        BranchFunc::Bltu => a < b,
                        BranchFunc::Bgeu => a >= b,
                    };
                    if taken {
                        next_pc = self.pc.wrapping_add(offset as u32);
                        stats.cycles += cost::BRANCH_TAKEN_EXTRA;
                        stats.branches_taken += 1;
                    }
                }
                RvInst::Load {
                    func,
                    rd,
                    rs1,
                    offset,
                } => {
                    let addr = self.reg(rs1).wrapping_add(offset as u32);
                    let v = self.load(func, addr)?;
                    self.set_reg(rd, v);
                    stats.cycles += cost::LOAD_EXTRA;
                    stats.loads += 1;
                }
                RvInst::Store {
                    func,
                    rs1,
                    rs2,
                    offset,
                } => {
                    let addr = self.reg(rs1).wrapping_add(offset as u32);
                    self.store(func, addr, self.reg(rs2))?;
                    stats.stores += 1;
                }
                RvInst::OpImm { func, rd, rs1, imm } => {
                    let a = self.reg(rs1);
                    let b = imm as u32;
                    let v = match func {
                        OpImmFunc::Addi => a.wrapping_add(b),
                        OpImmFunc::Slti => u32::from((a as i32) < imm),
                        OpImmFunc::Sltiu => u32::from(a < b),
                        OpImmFunc::Xori => a ^ b,
                        OpImmFunc::Ori => a | b,
                        OpImmFunc::Andi => a & b,
                        OpImmFunc::Slli => a.wrapping_shl(b & 31),
                        OpImmFunc::Srli => a.wrapping_shr(b & 31),
                        OpImmFunc::Srai => ((a as i32).wrapping_shr(b & 31)) as u32,
                    };
                    self.set_reg(rd, v);
                }
                #[allow(clippy::manual_checked_ops)] // RISC-V div-by-zero semantics
                RvInst::Op { func, rd, rs1, rs2 } => {
                    let a = self.reg(rs1);
                    let b = self.reg(rs2);
                    let v = match func {
                        OpFunc::Add => a.wrapping_add(b),
                        OpFunc::Sub => a.wrapping_sub(b),
                        OpFunc::Sll => a.wrapping_shl(b & 31),
                        OpFunc::Slt => u32::from((a as i32) < (b as i32)),
                        OpFunc::Sltu => u32::from(a < b),
                        OpFunc::Xor => a ^ b,
                        OpFunc::Srl => a.wrapping_shr(b & 31),
                        OpFunc::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
                        OpFunc::Or => a | b,
                        OpFunc::And => a & b,
                        OpFunc::Mul => a.wrapping_mul(b),
                        OpFunc::Mulh => ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32,
                        OpFunc::Mulhsu => ((i64::from(a as i32) * i64::from(b)) >> 32) as u32,
                        OpFunc::Mulhu => ((u64::from(a) * u64::from(b)) >> 32) as u32,
                        OpFunc::Div => {
                            if b == 0 {
                                u32::MAX
                            } else if a == 0x8000_0000 && b == u32::MAX {
                                a
                            } else {
                                ((a as i32) / (b as i32)) as u32
                            }
                        }
                        OpFunc::Divu => {
                            if b == 0 {
                                u32::MAX
                            } else {
                                a / b
                            }
                        }
                        OpFunc::Rem => {
                            if b == 0 {
                                a
                            } else if a == 0x8000_0000 && b == u32::MAX {
                                0
                            } else {
                                ((a as i32) % (b as i32)) as u32
                            }
                        }
                        OpFunc::Remu => {
                            if b == 0 {
                                a
                            } else {
                                a % b
                            }
                        }
                    };
                    self.set_reg(rd, v);
                    if func.is_mul() {
                        stats.mul_ops += 1;
                    }
                    if func.is_div() {
                        stats.div_ops += 1;
                        stats.cycles += cost::DIV_EXTRA;
                    }
                }
                RvInst::Ecall => return Ok(stats),
            }
            self.pc = next_pc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(src: &str) -> (Cpu, CpuStats) {
        let program = assemble(src).unwrap();
        let mut cpu = Cpu::new(&program, 1 << 20);
        let stats = cpu.run().unwrap();
        (cpu, stats)
    }

    #[test]
    fn sum_loop() {
        let (cpu, stats) = run("
            li   a0, 10
            li   a1, 0
            loop:
            add  a1, a1, a0
            addi a0, a0, -1
            bnez a0, loop
            ecall
            ");
        assert_eq!(cpu.reg(11), 55);
        assert_eq!(stats.branches_taken, 9);
        assert!(stats.cycles > stats.instructions);
    }

    #[test]
    fn x0_is_hardwired() {
        let (cpu, _) = run("li x0, 42\necall");
        assert_eq!(cpu.reg(0), 0);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let (cpu, stats) = run("
            li  a0, 0x1000
            li  a1, -7
            sw  a1, 0(a0)
            lw  a2, 0(a0)
            sb  a1, 8(a0)
            lbu a3, 8(a0)
            lb  a4, 8(a0)
            ecall
            ");
        assert_eq!(cpu.reg(12) as i32, -7);
        assert_eq!(cpu.reg(13), 0xF9);
        assert_eq!(cpu.reg(14) as i32, -7);
        assert_eq!(stats.loads, 3);
        assert_eq!(stats.stores, 2);
    }

    #[test]
    fn m_extension_semantics() {
        let (cpu, stats) = run("
            li  a0, -6
            li  a1, 4
            mul a2, a0, a1
            div a3, a0, a1
            rem a4, a0, a1
            li  a5, 7
            li  a6, 0
            divu a7, a5, a6
            ecall
            ");
        assert_eq!(cpu.reg(12) as i32, -24);
        assert_eq!(cpu.reg(13) as i32, -1, "-6/4 truncates toward zero");
        assert_eq!(cpu.reg(14) as i32, -2);
        assert_eq!(cpu.reg(17), u32::MAX, "divide by zero");
        assert_eq!(stats.div_ops, 3);
        assert_eq!(stats.mul_ops, 1);
    }

    #[test]
    fn div_costs_more_cycles_than_mul() {
        let (_, s_mul) = run("li a0, 3\nli a1, 4\nmul a2, a0, a1\necall");
        let (_, s_div) = run("li a0, 3\nli a1, 4\ndiv a2, a0, a1\necall");
        assert!(s_div.cycles > s_mul.cycles + 30);
    }

    #[test]
    fn function_call_via_jal_ret() {
        let (cpu, _) = run("
            li   a0, 5
            jal  double
            ecall
            double:
            add  a0, a0, a0
            ret
            ");
        assert_eq!(cpu.reg(10), 10);
    }

    #[test]
    fn mem_fault_detected() {
        let program = assemble("li a0, 0x7fffff00\nlw a1, 0(a0)\necall").unwrap();
        let mut cpu = Cpu::new(&program, 4096);
        assert!(matches!(cpu.run(), Err(CpuError::MemFault { .. })));
    }

    #[test]
    fn word_staging_past_memory_is_a_mem_fault() {
        let mut cpu = Cpu::new(&assemble("ecall").unwrap(), 4096);
        let fault = |addr| CpuError::MemFault { addr };
        assert_eq!(
            cpu.read_words(0, usize::MAX / 2).unwrap_err(),
            fault(u32::MAX)
        );
        assert_eq!(cpu.read_words(0, 1 << 62).unwrap_err(), fault(u32::MAX));
        assert_eq!(cpu.read_words(4092, 2).unwrap_err(), fault(4100));
        assert_eq!(
            cpu.write_words(0xFFFF_FFFC, &[1, 2]).unwrap_err(),
            fault(u32::MAX)
        );
        assert_eq!(cpu.write_words(4092, &[1, 2]).unwrap_err(), fault(4100));
        assert_eq!(cpu.write_words(4092, &[7]), Ok(()));
        assert_eq!(cpu.read_words(4092, 1), Ok(vec![7]));
    }

    #[test]
    fn runaway_hits_step_limit() {
        let program = assemble("loop: j loop").unwrap();
        let mut cpu = Cpu::new(&program, 4096);
        cpu.step_limit = 1000;
        assert!(matches!(
            cpu.run(),
            Err(CpuError::StepLimit { limit: 1000 })
        ));
    }

    #[test]
    fn pc_escape_detected() {
        // Fall off the end of the program (no ecall).
        let program = assemble("nop").unwrap();
        let mut cpu = Cpu::new(&program, 4096);
        assert!(matches!(cpu.run(), Err(CpuError::PcOutOfRange { .. })));
    }
}
