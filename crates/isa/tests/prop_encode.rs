//! Property tests: every representable SIMT instruction must survive
//! an encode/decode round trip, and the assembler must agree with the
//! constructed form.

use ggpu_isa::inst::{AluOp, BranchCond, IdSource, Inst, Reg};
use ggpu_isa::{assemble, decode, encode};
use ggpu_prop::{cases, Rng};

fn arb_reg(rng: &mut Rng) -> Reg {
    Reg::new(rng.u32_in(0, 31) as u8)
}

const ALU_OPS: [AluOp; 13] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Divu,
    AluOp::Remu,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Slt,
    AluOp::Sltu,
];

const CONDS: [BranchCond; 6] = [
    BranchCond::Eq,
    BranchCond::Ne,
    BranchCond::Lt,
    BranchCond::Ge,
    BranchCond::Ltu,
    BranchCond::Geu,
];

const IDS: [IdSource; 5] = [
    IdSource::GlobalId,
    IdSource::LocalId,
    IdSource::GroupId,
    IdSource::GroupSize,
    IdSource::GlobalSize,
];

fn arb_inst(rng: &mut Rng) -> Inst {
    match rng.u32_in(0, 11) {
        0 => Inst::Alu {
            op: rng.pick_copy(&ALU_OPS),
            rd: arb_reg(rng),
            rs1: arb_reg(rng),
            rs2: arb_reg(rng),
        },
        1 => Inst::AluImm {
            op: rng.pick_copy(&ALU_OPS),
            rd: arb_reg(rng),
            rs1: arb_reg(rng),
            imm: rng.any_i16(),
        },
        2 => Inst::Lui {
            rd: arb_reg(rng),
            imm: rng.any_u16(),
        },
        3 => Inst::ReadId {
            rd: arb_reg(rng),
            src: rng.pick_copy(&IDS),
        },
        4 => Inst::Param {
            rd: arb_reg(rng),
            idx: rng.u32_in(0, 7) as u8,
        },
        5 => Inst::Lw {
            rd: arb_reg(rng),
            rs1: arb_reg(rng),
            imm: rng.any_i16(),
        },
        6 => Inst::Sw {
            rs1: arb_reg(rng),
            rs2: arb_reg(rng),
            imm: rng.any_i16(),
        },
        7 => Inst::Lwl {
            rd: arb_reg(rng),
            rs1: arb_reg(rng),
            imm: rng.any_i16(),
        },
        8 => Inst::Swl {
            rs1: arb_reg(rng),
            rs2: arb_reg(rng),
            imm: rng.any_i16(),
        },
        9 => Inst::Branch {
            cond: rng.pick_copy(&CONDS),
            rs1: arb_reg(rng),
            rs2: arb_reg(rng),
            target: rng.u32_in(0, 65_535),
        },
        10 => Inst::Jmp {
            target: rng.u32_in(0, 65_535),
        },
        _ => Inst::Ret,
    }
}

#[test]
fn encode_decode_roundtrip() {
    // A `lui` immediate with its top bit set once failed to round-trip.
    let pinned = Inst::Lui {
        rd: Reg::new(0),
        imm: 0x8000,
    };
    assert_eq!(decode(encode(pinned)).expect("encodable"), pinned);
    cases(512, |rng| {
        let inst = arb_inst(rng);
        assert_eq!(decode(encode(inst)).expect("encodable"), inst);
    });
}

#[test]
#[allow(clippy::manual_checked_ops)] // reference mirrors ISA div-by-zero semantics
fn alu_ops_match_reference_semantics() {
    cases(512, |rng| {
        let op = rng.pick_copy(&ALU_OPS);
        let a = rng.any_u32();
        let b = rng.any_u32();
        let v = op.apply(a, b);
        let expect = match op {
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
            AluOp::Sll => a << (b & 31),
            AluOp::Srl => a >> (b & 31),
            AluOp::Sra => ((a as i32) >> (b & 31)) as u32,
            AluOp::Slt => u32::from((a as i32) < (b as i32)),
            AluOp::Sltu => u32::from(a < b),
        };
        assert_eq!(v, expect);
    });
}

#[test]
fn assembler_and_encoder_agree_on_alu() {
    cases(256, |rng| {
        let rd = rng.u32_in(0, 31) as u8;
        let rs1 = rng.u32_in(0, 31) as u8;
        let rs2 = rng.u32_in(0, 31) as u8;
        let text = format!("add r{rd}, r{rs1}, r{rs2}");
        let prog = assemble(&text).expect("valid text");
        let expect = Inst::Alu {
            op: AluOp::Add,
            rd: Reg::new(rd),
            rs1: Reg::new(rs1),
            rs2: Reg::new(rs2),
        };
        assert_eq!(prog[0], expect);
    });
}

/// Any random (label-free straight-line) program survives a full
/// disassemble -> reassemble trip.
#[test]
fn disassembly_roundtrip() {
    cases(256, |rng| {
        let insts = rng.vec_of(1..=39, arb_inst);
        // Clamp control-flow targets into the program so the
        // disassembler can label them.
        let len = insts.len() as u32;
        let prog: Vec<Inst> = insts
            .into_iter()
            .map(|i| match i {
                Inst::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => Inst::Branch {
                    cond,
                    rs1,
                    rs2,
                    target: target % (len + 1),
                },
                Inst::Jmp { target } => Inst::Jmp {
                    target: target % (len + 1),
                },
                other => other,
            })
            .collect();
        let text = ggpu_isa::disassemble(&prog);
        let back = assemble(&text).expect("disassembly must reassemble");
        assert_eq!(back, prog);
    });
}
