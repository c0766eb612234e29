//! Simulator-checked soundness of the abstract interpreter.
//!
//! The lint crate's absint engine *claims* facts about kernels —
//! address intervals, bounds (K010), alignment (K011), local-store
//! races (K012) and branch uniformity, which feeds the divergence
//! analysis. None of those claims are trusted here: randomized
//! programs run on both execution backends with the trace oracle
//! attached, and every abstract prediction must over-approximate what
//! the machine actually did:
//!
//! * every concrete address lies inside the predicted interval;
//! * a concrete out-of-bounds access implies a K010 finding (or the
//!   documented unbounded-interval escape, where K010 stays silent by
//!   design);
//! * a concrete unaligned access implies a K011 finding — no escape;
//! * a concrete racy local store implies a K012 finding — no escape;
//! * a branch that concretely diverged is never proven uniform.
//!
//! The two backends' traces must also be identical to each other,
//! extending the bit-identity contract to the observation hook.

use ggpu_isa::inst::{AluOp, BranchCond, IdSource, Inst, Reg};
use ggpu_lint::{
    analyze, verify_program_with_ctx, AnalysisCtx, Code, LintConfig, MemAccessSummary, Report,
};
use ggpu_prop::{cases, Rng};
use ggpu_simt::{AccelBackend, ExecTrace, Gpu, Kernel, Launch, SimError, SimtConfig, LOCAL_WORDS};

const PARAM_SLOTS: usize = 8;

fn reg(rng: &mut Rng) -> Reg {
    // A small register pool so defs and uses actually collide.
    Reg::new(rng.u32_in(1, 7) as u8)
}

fn alu_op(rng: &mut Rng) -> AluOp {
    rng.pick_copy(&[
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Divu,
        AluOp::Remu,
        AluOp::Slt,
        AluOp::Sltu,
    ])
}

/// A random terminating program: straight-line ALU/id/param/memory
/// work with forward-only branches and a final `ret`. Memory
/// immediates are word multiples and address bases are often `<< 2`,
/// so a useful share of runs completes instead of faulting at the
/// first access — faulting runs are kept too (the fault properties
/// need them).
fn gen_program(rng: &mut Rng) -> Vec<Inst> {
    let body = rng.usize_in(5, 14);
    let mut prog = Vec::with_capacity(body + 1);
    for _ in 0..body {
        let pc = prog.len() as u32;
        let inst = match rng.u32_in(0, 99) {
            0..=14 => Inst::ReadId {
                rd: reg(rng),
                src: rng.pick_copy(&[
                    IdSource::GlobalId,
                    IdSource::LocalId,
                    IdSource::GroupId,
                    IdSource::GroupSize,
                    IdSource::GlobalSize,
                ]),
            },
            15..=24 => Inst::Param {
                rd: reg(rng),
                idx: rng.u32_in(0, 3) as u8,
            },
            25..=40 => Inst::AluImm {
                op: alu_op(rng),
                rd: reg(rng),
                rs1: reg(rng),
                imm: rng.i32_in(-8, 64) as i16,
            },
            41..=52 => Inst::Alu {
                op: alu_op(rng),
                rd: reg(rng),
                rs1: reg(rng),
                rs2: reg(rng),
            },
            // Word-scaling shift: the canonical address-forming idiom.
            53..=60 => Inst::AluImm {
                op: AluOp::Sll,
                rd: reg(rng),
                rs1: reg(rng),
                imm: 2,
            },
            61..=79 => {
                let (rs1, rs2) = (reg(rng), reg(rng));
                let imm = (rng.i32_in(0, 16) * 4) as i16;
                match rng.u32_in(0, 3) {
                    0 => Inst::Lw { rd: rs2, rs1, imm },
                    1 => Inst::Sw { rs1, rs2, imm },
                    2 => Inst::Lwl { rd: rs2, rs1, imm },
                    _ => Inst::Swl { rs1, rs2, imm },
                }
            }
            80..=89 => Inst::Branch {
                cond: rng.pick_copy(&[
                    BranchCond::Eq,
                    BranchCond::Ne,
                    BranchCond::Lt,
                    BranchCond::Ge,
                    BranchCond::Ltu,
                    BranchCond::Geu,
                ]),
                rs1: reg(rng),
                rs2: reg(rng),
                // Forward-only: no loops, guaranteed termination, and
                // the final `ret` stays reachable from every path.
                target: rng.u32_in(pc + 1, body as u32),
            },
            _ => Inst::AluImm {
                op: AluOp::Add,
                rd: reg(rng),
                rs1: reg(rng),
                imm: rng.i32_in(0, 32) as i16,
            },
        };
        prog.push(inst);
    }
    prog.push(Inst::Ret);
    prog
}

/// Runs `kernel` on one backend with the trace oracle attached.
fn run_traced(
    backend: AccelBackend,
    kernel: &Kernel,
    launch: &Launch,
    memory_words: usize,
    init: &[u32],
) -> (Result<(), SimError>, ExecTrace) {
    let mut gpu = Gpu::new(SimtConfig::with_cus(1).with_backend(backend), memory_words);
    gpu.write_words(0, init).expect("init memory");
    let mut trace = ExecTrace::default();
    let res = gpu.launch_traced(kernel, launch, &mut trace).map(|_| ());
    (res, trace)
}

fn has_at(report: &Report, code: Code, pc: usize) -> bool {
    report
        .diagnostics
        .iter()
        .any(|d| d.code == code && d.inst == Some(pc))
}

/// Checks every soundness property of one executed program against its
/// trace. `ctx` must describe the exact launch the trace came from.
fn check_soundness(program: &[Inst], ctx: &AnalysisCtx, trace: &ExecTrace, label: &str) {
    let analysis = analyze(program, ctx);
    let report = verify_program_with_ctx("prop", program, &LintConfig::new(), ctx);

    for (pc, t) in trace.insts.iter().enumerate() {
        if t.issues == 0 {
            continue;
        }
        if t.divergent_branch {
            assert!(
                !analysis.uniform_branches.contains(&pc),
                "{label}: branch at {pc} diverged but was proven uniform\n{report}"
            );
        }
        if !t.any_access {
            continue;
        }
        let s: &MemAccessSummary = analysis
            .summary_at(pc)
            .unwrap_or_else(|| panic!("{label}: executed access at {pc} has no summary"));

        assert!(
            s.addr_lo <= t.min_addr && t.max_addr <= s.addr_hi,
            "{label}: inst {pc} touched [{}, {}] outside predicted [{}, {}]",
            t.min_addr,
            t.max_addr,
            s.addr_lo,
            s.addr_hi
        );
        if t.any_oob {
            assert!(
                has_at(&report, Code::K010, pc) || s.addr_hi == u32::MAX,
                "{label}: concrete OOB at {pc} with neither K010 nor the \
                 unbounded-interval escape\n{report}"
            );
        }
        if t.any_unaligned {
            assert!(
                has_at(&report, Code::K011, pc),
                "{label}: concrete unaligned access at {pc} without K011\n{report}"
            );
        }
        if t.racy_write {
            assert!(
                has_at(&report, Code::K012, pc),
                "{label}: concrete racy local store at {pc} without K012\n{report}"
            );
        }
    }
}

/// The main gate: randomized programs, both backends, trace parity
/// plus every soundness property — on completing *and* faulting runs.
#[test]
fn abstract_predictions_over_approximate_concrete_traces() {
    cases(128, |rng| {
        let program = gen_program(rng);
        let wgs = rng.pick_copy(&[2u32, 4, 8, 16, 32, 64]);
        let gs = wgs * rng.u32_in(1, 3);
        let memory_words = rng.usize_in(64, 256);
        let params: Vec<u32> = (0..4)
            .map(|_| rng.u32_in(0, (memory_words as u32 - 1) * 4) & !3)
            .collect();
        let init: Vec<u32> = (0..memory_words).map(|_| rng.u32_in(0, 255) * 4).collect();

        let kernel = Kernel {
            name: "prop".into(),
            program: program.clone(),
        };
        let launch = Launch::new(gs, wgs, params.clone());
        let (res_scalar, trace_scalar) =
            run_traced(AccelBackend::Scalar, &kernel, &launch, memory_words, &init);
        let (res_soa, trace_soa) =
            run_traced(AccelBackend::Soa, &kernel, &launch, memory_words, &init);

        // Backend parity extends to the observation hook: identical
        // outcomes AND identical traces.
        assert_eq!(res_scalar, res_soa, "backend outcomes diverged");
        assert_eq!(trace_scalar, trace_soa, "backend traces diverged");

        let mut padded = vec![0u32; PARAM_SLOTS];
        padded[..params.len()].copy_from_slice(&params);
        let ctx = AnalysisCtx {
            params: Some(padded),
            global_size: Some(gs),
            workgroup_size: Some(wgs),
            memory_words: Some(memory_words as u32),
            lram_words: LOCAL_WORDS as u32,
            ..AnalysisCtx::default()
        };
        let label = format!("gs={gs} wgs={wgs} mem={memory_words} res={res_scalar:?}");
        check_soundness(&program, &ctx, &trace_scalar, &label);
    });
}

/// Bug-injection pin: a store provably past the global bound faults in
/// the machine and carries a K010 under the exact launch context.
#[test]
fn concrete_global_oob_is_covered_by_k010() {
    let memory_words = 64usize;
    let program = vec![
        Inst::Param {
            rd: Reg::new(1),
            idx: 0,
        },
        Inst::Sw {
            rs1: Reg::new(1),
            rs2: Reg::new(2),
            imm: 0,
        },
        Inst::Ret,
    ];
    let kernel = Kernel {
        name: "oob".into(),
        program: program.clone(),
    };
    // Param 0 points one word past the end.
    let launch = Launch::new(4, 4, vec![memory_words as u32 * 4]);
    let (res, trace) = run_traced(AccelBackend::Scalar, &kernel, &launch, memory_words, &[]);
    assert_eq!(
        res,
        Err(SimError::MemoryOutOfBounds {
            addr: memory_words as u32 * 4
        })
    );
    let t = trace.at(1).expect("store observed");
    assert!(t.any_oob);

    let ctx = AnalysisCtx {
        params: Some(vec![memory_words as u32 * 4, 0, 0, 0, 0, 0, 0, 0]),
        global_size: Some(4),
        workgroup_size: Some(4),
        memory_words: Some(memory_words as u32),
        ..AnalysisCtx::default()
    };
    let report = verify_program_with_ctx("oob", &program, &LintConfig::new(), &ctx);
    assert!(has_at(&report, Code::K010, 1), "missing K010:\n{report}");
    check_soundness(&program, &ctx, &trace, "pinned-oob");
}

/// Bug-injection pin: lanes storing their distinct global id to one
/// shared LRAM word race in the machine and carry a K012.
#[test]
fn concrete_local_race_is_covered_by_k012() {
    let program = vec![
        Inst::ReadId {
            rd: Reg::new(1),
            src: IdSource::GlobalId,
        },
        Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::new(2),
            rs1: Reg::new(0),
            imm: 0,
        },
        Inst::Swl {
            rs1: Reg::new(2),
            rs2: Reg::new(1),
            imm: 0,
        },
        Inst::Ret,
    ];
    let kernel = Kernel {
        name: "race".into(),
        program: program.clone(),
    };
    let launch = Launch::new(8, 8, vec![]);
    let (res, trace) = run_traced(AccelBackend::Scalar, &kernel, &launch, 64, &[]);
    assert_eq!(res, Ok(()));
    let t = trace.at(2).expect("store observed");
    assert!(t.racy_write, "distinct ids into one word must race");

    let ctx = AnalysisCtx {
        params: Some(vec![0; PARAM_SLOTS]),
        global_size: Some(8),
        workgroup_size: Some(8),
        memory_words: Some(64),
        ..AnalysisCtx::default()
    };
    let report = verify_program_with_ctx("race", &program, &LintConfig::new(), &ctx);
    assert!(has_at(&report, Code::K012, 2), "missing K012:\n{report}");
    check_soundness(&program, &ctx, &trace, "pinned-race");
}

/// Bug-injection pin: a constant odd address faults as unaligned and
/// carries a K011.
#[test]
fn concrete_unaligned_access_is_covered_by_k011() {
    let program = vec![
        Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::new(1),
            rs1: Reg::new(0),
            imm: 2,
        },
        Inst::Lw {
            rd: Reg::new(2),
            rs1: Reg::new(1),
            imm: 0,
        },
        Inst::Ret,
    ];
    let kernel = Kernel {
        name: "mis".into(),
        program: program.clone(),
    };
    let launch = Launch::new(1, 1, vec![]);
    let (res, trace) = run_traced(AccelBackend::Scalar, &kernel, &launch, 64, &[]);
    assert_eq!(res, Err(SimError::Unaligned { addr: 2 }));
    assert!(trace.at(1).expect("load observed").any_unaligned);

    let ctx = AnalysisCtx {
        params: Some(vec![0; PARAM_SLOTS]),
        global_size: Some(1),
        workgroup_size: Some(1),
        memory_words: Some(64),
        ..AnalysisCtx::default()
    };
    let report = verify_program_with_ctx("mis", &program, &LintConfig::new(), &ctx);
    assert!(has_at(&report, Code::K011, 1), "missing K011:\n{report}");
    check_soundness(&program, &ctx, &trace, "pinned-unaligned");
}

/// Bug-injection pin: a branch on the local id concretely diverges and
/// is never claimed uniform, while a branch on a parameter stays
/// convergent and *is* proven uniform — the two sides of the
/// uniformity claim. A second program pins the solver's lane-mixing
/// rule: a value that is uniform on each side of a divergent branch
/// is per-lane at the merge.
#[test]
fn branch_uniformity_claims_match_observed_divergence() {
    let program = vec![
        Inst::ReadId {
            rd: Reg::new(1),
            src: IdSource::LocalId,
        },
        Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::new(2),
            rs1: Reg::new(0),
            imm: 4,
        },
        // Diverges: lanes 0–3 vs 4–7 go different ways.
        Inst::Branch {
            cond: BranchCond::Ltu,
            rs1: Reg::new(1),
            rs2: Reg::new(2),
            target: 4,
        },
        Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::new(3),
            rs1: Reg::new(3),
            imm: 1,
        },
        // Uniform: every lane compares the same parameter value.
        Inst::Param {
            rd: Reg::new(4),
            idx: 0,
        },
        Inst::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::new(4),
            rs2: Reg::new(0),
            target: 7,
        },
        Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::new(3),
            rs1: Reg::new(3),
            imm: 1,
        },
        Inst::Ret,
    ];
    let kernel = Kernel {
        name: "div".into(),
        program: program.clone(),
    };
    let launch = Launch::new(8, 8, vec![7]);
    let (res, trace) = run_traced(AccelBackend::Scalar, &kernel, &launch, 64, &[]);
    assert_eq!(res, Ok(()));
    assert!(trace.at(2).expect("branch observed").divergent_branch);
    assert!(!trace.at(5).expect("branch observed").divergent_branch);

    let ctx = AnalysisCtx {
        params: Some(vec![7, 0, 0, 0, 0, 0, 0, 0]),
        global_size: Some(8),
        workgroup_size: Some(8),
        memory_words: Some(64),
        ..AnalysisCtx::default()
    };
    let analysis = analyze(&program, &ctx);
    assert!(!analysis.uniform_branches.contains(&2));
    assert!(analysis.uniform_branches.contains(&5));
    check_soundness(&program, &ctx, &trace, "pinned-divergence");

    // Lane 0 reaches `skip` from the divergent branch with r2 = 0, the
    // other lanes fall through and set r2 = 1: each path's r2 is
    // uniform, the merged r2 is not, so the branch at 4 diverges.
    // Joining the two paths' r2 as one uniform value would prove it
    // uniform.
    let mixed = Kernel::from_asm(
        "mix",
        "lid  r1
         addi r2, r0, 0
         beq  r1, r0, skip
         addi r2, r0, 1
         skip:
         beq  r2, r0, end
         addi r3, r3, 1
         end:
         ret",
    )
    .expect("assembles");
    let launch = Launch::new(8, 8, vec![]);
    let (res, trace) = run_traced(AccelBackend::Scalar, &mixed, &launch, 64, &[]);
    assert_eq!(res, Ok(()));
    assert!(trace.at(4).expect("branch observed").divergent_branch);
    let ctx = AnalysisCtx {
        params: Some(vec![0; PARAM_SLOTS]),
        ..ctx
    };
    assert_eq!(
        analyze(&mixed.program, &ctx).uniform_branches,
        Vec::<usize>::new()
    );
    check_soundness(&mixed.program, &ctx, &trace, "pinned-lane-mixing");
}
