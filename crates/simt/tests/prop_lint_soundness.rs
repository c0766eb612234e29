//! Soundness of the static verifier's claims against the simulator,
//! and liveness of the scheduler under upsets:
//!
//! * a random program that the verifier does not flag with K004
//!   (reachable fallthrough off the end), K005 (target out of bounds)
//!   or K009 (empty program) must never raise
//!   `SimError::PcOutOfRange` when executed. That generator emits only
//!   register/control instructions — no memory accesses, no barriers —
//!   so the only simulator faults possible at all are `PcOutOfRange`
//!   (what we claim never happens) and `CycleLimit` (random loops may
//!   genuinely not terminate; that is outside the verifier's claims
//!   and accepted);
//! * a random program with barriers that has no K004, K005, K008 or
//!   K009 finding never raises `SimError::DivergentBarrier`, on either
//!   backend, at several launch shapes;
//! * a verifier-clean barrier program with a partial last wavefront
//!   never ends in `SimError::SchedulerStall` under one exec-mask, PC
//!   or register upset, whatever the cycle it lands at.

use ggpu_isa::asm::assemble;
use ggpu_isa::inst::{AluOp, BranchCond, IdSource, Inst, Reg};
use ggpu_lint::{verify_program, Code, LintConfig};
use ggpu_prop::Rng;
use ggpu_simt::{
    AccelBackend, FaultPlan, FaultSite, Gpu, HardenedOptions, Injection, Kernel, Launch,
    Protection, SimError, SimtConfig, WatchdogConfig,
};

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

const ID_SOURCES: [IdSource; 5] = [
    IdSource::GlobalId,
    IdSource::LocalId,
    IdSource::GroupId,
    IdSource::GroupSize,
    IdSource::GlobalSize,
];

fn any_reg(rng: &mut Rng) -> Reg {
    Reg::new(rng.usize_in(0, Reg::COUNT as usize - 1) as u8)
}

/// A random register/control instruction. Targets are drawn from
/// `0..=len+1`, deliberately including the out-of-range value `len`
/// and `len + 1` so the K005 detector is exercised, not just assumed.
fn any_inst(rng: &mut Rng, len: usize) -> Inst {
    match rng.usize_in(0, 9) {
        0 | 1 => Inst::Alu {
            op: rng.pick_copy(&ALU_OPS),
            rd: any_reg(rng),
            rs1: any_reg(rng),
            rs2: any_reg(rng),
        },
        2 | 3 => Inst::AluImm {
            op: rng.pick_copy(&ALU_OPS),
            rd: any_reg(rng),
            rs1: any_reg(rng),
            imm: rng.any_i16(),
        },
        4 => Inst::Lui {
            rd: any_reg(rng),
            imm: rng.any_u16(),
        },
        5 => Inst::ReadId {
            rd: any_reg(rng),
            src: rng.pick_copy(&ID_SOURCES),
        },
        6 => Inst::Param {
            rd: any_reg(rng),
            idx: rng.usize_in(0, 7) as u8,
        },
        7 => Inst::Branch {
            cond: rng.pick_copy(&CONDS),
            rs1: any_reg(rng),
            rs2: any_reg(rng),
            target: rng.usize_in(0, len + 1) as u32,
        },
        8 => Inst::Jmp {
            target: rng.usize_in(0, len + 1) as u32,
        },
        _ => Inst::Ret,
    }
}

fn any_program(rng: &mut Rng) -> Vec<Inst> {
    let len = rng.usize_in(1, 12);
    let mut program: Vec<Inst> = (0..len).map(|_| any_inst(rng, len)).collect();
    // Half the time, close the program with a `ret` so a healthy
    // share of samples pass the verifier and actually get executed.
    if rng.chance(0.5) {
        *program.last_mut().unwrap() = Inst::Ret;
    }
    program
}

#[test]
fn verifier_clean_programs_never_leave_the_program() {
    let config = LintConfig::new();
    // A tiny machine with a tight cycle ceiling: random loops are
    // common and genuinely infinite, and we only care whether the
    // abort reason is ever PcOutOfRange.
    let mut sim_config = SimtConfig::with_cus(1);
    sim_config.max_cycles = 20_000;
    let mut executed = 0u32;
    ggpu_prop::cases(384, |rng| {
        let program = any_program(rng);
        let report = verify_program("prop", &program, &config);
        if report.has(Code::K004) || report.has(Code::K005) || report.has(Code::K009) {
            return; // verifier rejected: nothing claimed about these
        }
        let mut gpu = Gpu::new(sim_config, 1 << 12);
        let kernel = Kernel {
            name: "prop".into(),
            program: program.clone(),
        };
        let launch = Launch::new(16, 8, vec![0; 8]);
        executed += 1;
        match gpu.launch(&kernel, &launch) {
            Ok(_) | Err(SimError::CycleLimit { .. }) => {}
            Err(e @ SimError::PcOutOfRange { .. }) => {
                panic!("verifier-clean program left the program: {e}\n{program:#?}")
            }
            Err(e) => panic!("impossible fault class for this generator: {e}\n{program:#?}"),
        }
    });
    assert!(
        executed >= 32,
        "generator too dirty: only {executed} verifier-clean samples ran"
    );
}

#[test]
fn verifier_flags_exactly_the_programs_that_fault() {
    // Converse direction on straight-line programs (no branches): the
    // verifier reports K004 if and only if the simulator faults with
    // PcOutOfRange.
    let config = LintConfig::new();
    let mut sim_config = SimtConfig::with_cus(1);
    sim_config.max_cycles = 20_000;
    ggpu_prop::cases(64, |rng| {
        let len = rng.usize_in(1, 6);
        let mut program: Vec<Inst> = (0..len)
            .map(|_| Inst::AluImm {
                op: AluOp::Add,
                rd: any_reg(rng),
                rs1: any_reg(rng),
                imm: rng.any_i16(),
            })
            .collect();
        let ends_with_ret = rng.chance(0.5);
        if ends_with_ret {
            *program.last_mut().unwrap() = Inst::Ret;
        }
        let report = verify_program("prop", &program, &config);
        assert_eq!(report.has(Code::K004), !ends_with_ret);
        let mut gpu = Gpu::new(sim_config, 1 << 12);
        let kernel = Kernel {
            name: "prop".into(),
            program,
        };
        let result = gpu.launch(&kernel, &Launch::new(8, 8, vec![0; 8]));
        match result {
            Ok(_) => assert!(ends_with_ret),
            Err(SimError::PcOutOfRange { pc }) => {
                assert!(!ends_with_ret);
                assert_eq!(pc as usize, len);
            }
            Err(e) => panic!("unexpected fault: {e}"),
        }
    });
}

const BACKENDS: [AccelBackend; 2] = [AccelBackend::Soa, AccelBackend::Scalar];

/// A register among `r0`–`r5`: few enough that defined values reach
/// the branches and barriers.
fn small_reg(rng: &mut Rng) -> Reg {
    Reg::new(rng.usize_in(0, 5) as u8)
}

/// A random program with barriers, forward and backward branches, and
/// lane-varying (`lid`, `gid`), group-uniform (group id) and
/// launch-uniform (`param`) operands. Every target stays inside the
/// program and the last instruction is `ret`, so most draws pass K004
/// and K005 and reach the simulator.
fn barrier_program(rng: &mut Rng) -> Vec<Inst> {
    const IDS: [IdSource; 3] = [IdSource::LocalId, IdSource::GlobalId, IdSource::GroupId];
    const OPS: [AluOp; 7] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Xor,
        AluOp::Srl,
        AluOp::Slt,
        AluOp::Sltu,
    ];
    let len = rng.usize_in(3, 12);
    let mut program: Vec<Inst> = (1..len)
        .map(|_| match rng.usize_in(0, 9) {
            0 | 1 => Inst::Bar,
            2 => Inst::ReadId {
                rd: small_reg(rng),
                src: rng.pick_copy(&IDS),
            },
            3 => Inst::Param {
                rd: small_reg(rng),
                idx: rng.usize_in(0, 2) as u8,
            },
            4 => Inst::AluImm {
                op: rng.pick_copy(&OPS),
                rd: small_reg(rng),
                rs1: small_reg(rng),
                imm: rng.i32_in(-2, 3) as i16,
            },
            5 => Inst::Alu {
                op: rng.pick_copy(&OPS),
                rd: small_reg(rng),
                rs1: small_reg(rng),
                rs2: small_reg(rng),
            },
            6..=8 => Inst::Branch {
                cond: rng.pick_copy(&CONDS),
                rs1: small_reg(rng),
                rs2: small_reg(rng),
                target: rng.usize_in(0, len - 1) as u32,
            },
            _ => Inst::Ret,
        })
        .collect();
    program.push(Inst::Ret);
    program
}

/// `true` if the verifier makes no claim the barrier properties test:
/// control-flow findings (K004, K005, K009) or a divergent barrier
/// (K008).
fn barrier_clean(program: &[Inst]) -> bool {
    let report = verify_program("prop", program, &LintConfig::new());
    ![Code::K004, Code::K005, Code::K008, Code::K009]
        .into_iter()
        .any(|c| report.has(c))
}

fn machine(backend: AccelBackend) -> Gpu {
    let mut config = SimtConfig::with_cus(2).with_backend(backend);
    // Random loops are common and often endless; only the abort
    // reason matters here.
    config.max_cycles = 5_000;
    Gpu::new(config, 1 << 12)
}

/// Runs a verifier-clean barrier program on both backends at one
/// group, a partial last wavefront (3 lanes) and two groups of a full
/// and a partial wavefront: none may split at a barrier.
fn assert_never_splits_at_a_barrier(program: &[Inst], params: &[u32]) {
    let kernel = Kernel {
        name: "prop".into(),
        program: program.to_vec(),
    };
    for backend in BACKENDS {
        for (global, group) in [(64, 64), (67, 67), (160, 80)] {
            let launch = Launch::new(global, group, params.to_vec());
            match machine(backend).launch(&kernel, &launch) {
                Ok(_) | Err(SimError::CycleLimit { .. }) => {}
                Err(e) => panic!(
                    "verifier-clean program failed on {backend:?} at {global}/{group}: \
                     {e}\n{program:#?}"
                ),
            }
        }
    }
}

#[test]
fn barrier_clean_programs_never_split_at_a_barrier() {
    // The corpus kernel whose r4 differs across lanes only because they
    // took different paths: a flow-insensitive taint calls it clean,
    // yet it splits at its barrier when param 0 is 1.
    let pinned = assemble(include_str!(
        "../../lint/tests/corpus/divergent_barrier_path_value.s"
    ))
    .unwrap();
    if barrier_clean(&pinned) {
        assert_never_splits_at_a_barrier(&pinned, &[1]);
    }
    let mut executed = 0u32;
    ggpu_prop::cases(256, |rng| {
        let program = barrier_program(rng);
        let params: Vec<u32> = (0..3).map(|_| rng.u32_in(0, 3)).collect();
        if barrier_clean(&program) {
            executed += 1;
            assert_never_splits_at_a_barrier(&program, &params);
        }
    });
    assert!(
        executed >= 64,
        "generator too dirty: only {executed} verifier-clean samples ran"
    );
}

/// One upset of an exec-mask bit, a PC bit or a register bit of a lane
/// of CU 0, biased toward the partial last wavefront (slot 1).
fn any_upset(rng: &mut Rng, cycle: u64, partial_lanes: u32) -> Injection {
    let slot = if rng.chance(0.75) { 1 } else { 0 };
    let lane = rng.u32_in(0, if slot == 1 { partial_lanes - 1 } else { 63 });
    let (site, bit) = match rng.usize_in(0, 2) {
        0 => (FaultSite::ExecMask { cu: 0, slot, lane }, 0),
        1 => (FaultSite::Pc { cu: 0, slot, lane }, rng.u32_in(0, 3) as u8),
        _ => (
            FaultSite::Register {
                cu: 0,
                slot,
                lane,
                reg: rng.u32_in(1, 5) as u8,
            },
            rng.u32_in(0, 31) as u8,
        ),
    };
    Injection::single(cycle, site, bit, Protection::None)
}

#[test]
fn single_upsets_never_stall_the_scheduler() {
    let mut upset_runs = 0u32;
    ggpu_prop::cases(128, |rng| {
        let program = barrier_program(rng);
        if !barrier_clean(&program) {
            return;
        }
        let kernel = Kernel {
            name: "prop".into(),
            program: program.clone(),
        };
        // One group whose last wavefront holds 1–3 lanes.
        let partial_lanes = rng.u32_in(1, 3);
        let params: Vec<u32> = (0..3).map(|_| rng.u32_in(0, 3)).collect();
        let launch = Launch::new(64 + partial_lanes, 64 + partial_lanes, params);
        for backend in BACKENDS {
            let Ok(clean) = machine(backend).launch(&kernel, &launch) else {
                return; // endless: no run to spread upsets over
            };
            for k in 0..12 {
                let cycle = clean.cycles * k / 11;
                let upset = any_upset(rng, cycle, partial_lanes);
                let opts = HardenedOptions {
                    plan: FaultPlan::new(vec![upset.clone()]),
                    watchdog: Some(WatchdogConfig::default()),
                };
                upset_runs += 1;
                let run = machine(backend).launch_hardened(&kernel, &launch, &opts);
                if let Err(e @ SimError::SchedulerStall { .. }) = run {
                    panic!(
                        "{backend:?}: {} at cycle {cycle} stalled the launch: {e}\n{program:#?}",
                        upset.site
                    );
                }
            }
        }
    });
    assert!(
        upset_runs >= 1_000,
        "generator too dirty: only {upset_runs} upset runs"
    );
}
