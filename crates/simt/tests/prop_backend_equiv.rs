//! Backend bit-identity: the SoA fast path must be indistinguishable
//! from the scalar reference engine — same `RunStats`, same memory
//! image, same typed errors, and same `launch_hardened` fault
//! semantics (injection outcomes, ECC verdicts, watchdog trips,
//! partial memory effects) — across randomized kernels, exec-mask
//! patterns, divergence/barrier shapes and fault plans. LRAM traffic
//! comes from the barrier-exchange template and from random
//! `lwl`/`swl`.

use ggpu_isa::inst::{AluOp, BranchCond, IdSource, Inst, Reg};
use ggpu_prop::{cases, Rng};
use ggpu_simt::{
    AccelBackend, FaultPlan, FaultSite, Gpu, HardenedOptions, Injection, Kernel, Launch,
    Protection, SimtConfig, WatchdogConfig,
};

const MEM_WORDS: usize = 4096;

/// Runs one launch on both backends over identically seeded machines
/// and asserts bit-identity of result and memory image.
fn assert_equiv(
    kernel: &Kernel,
    launch: &Launch,
    config: SimtConfig,
    seed_mem: &[u32],
    opts: Option<&HardenedOptions>,
) {
    let mut scalar_gpu = Gpu::new(config.with_backend(AccelBackend::Scalar), MEM_WORDS);
    let mut soa_gpu = Gpu::new(config.with_backend(AccelBackend::Soa), MEM_WORDS);
    scalar_gpu.write_words(0, seed_mem).expect("seed scalar");
    soa_gpu.write_words(0, seed_mem).expect("seed soa");

    match opts {
        None => {
            let a = scalar_gpu.launch(kernel, launch);
            let b = soa_gpu.launch(kernel, launch);
            match (a, b) {
                (Ok(sa), Ok(sb)) => assert_eq!(sa, sb, "RunStats diverge on {}", kernel.name),
                (Err(ea), Err(eb)) => assert_eq!(ea, eb, "errors diverge on {}", kernel.name),
                (a, b) => panic!("outcome diverges on {}: {a:?} vs {b:?}", kernel.name),
            }
        }
        Some(opts) => {
            let a = scalar_gpu.launch_hardened(kernel, launch, opts);
            let b = soa_gpu.launch_hardened(kernel, launch, opts);
            match (a, b) {
                (Ok(ra), Ok(rb)) => {
                    assert_eq!(
                        ra.stats, rb.stats,
                        "hardened stats diverge on {}",
                        kernel.name
                    );
                    assert_eq!(
                        ra.log.events, rb.log.events,
                        "fault logs diverge on {}",
                        kernel.name
                    );
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(ea, eb, "hardened errors diverge on {}", kernel.name)
                }
                (a, b) => panic!(
                    "hardened outcome diverges on {}: {a:?} vs {b:?}",
                    kernel.name
                ),
            }
        }
    }

    let ma = scalar_gpu.read_words(0, MEM_WORDS).expect("read scalar");
    let mb = soa_gpu.read_words(0, MEM_WORDS).expect("read soa");
    assert_eq!(ma, mb, "memory images diverge on {}", kernel.name);
}

fn small_config(rng: &mut Rng) -> SimtConfig {
    let mut c = SimtConfig::with_cus(rng.u32_in(1, 3));
    c.wavefront_size = rng.pick_copy(&[8, 16, 33, 64]);
    c.max_wavefronts_per_cu = rng.u32_in(2, 8);
    c.max_cycles = 200_000;
    c
}

fn seed_mem(rng: &mut Rng) -> Vec<u32> {
    (0..MEM_WORDS).map(|_| rng.any_u32()).collect()
}

/// Template kernels in the shape of the shipped suite: id reads,
/// ALU mixes, global loads/stores, bounded loops, divergence,
/// barriers with local memory.
fn template_kernel(rng: &mut Rng) -> Kernel {
    let which = rng.u32_in(0, 4);
    let c1 = rng.i32_in(1, 500);
    let c2 = rng.i32_in(1, 500);
    let op = rng.pick_copy(&["add", "sub", "mul", "xor", "sltu", "divu", "remu"]);
    let src = match which {
        // Straight-line ALU mix + store.
        0 => format!(
            "gid r1
             addi r2, r1, {c1}
             addi r3, r0, {c2}
             mul  r3, r1, r3
             {op} r4, r2, r3
             param r5, 0
             slli r6, r1, 2
             add  r6, r6, r5
             sw   r6, r4, 0
             ret"
        ),
        // Load-modify-store.
        1 => format!(
            "gid r1
             slli r2, r1, 2
             param r3, 0
             add  r2, r2, r3
             lw   r4, r2, 0
             addi r4, r4, {c1}
             param r5, 1
             slli r6, r1, 2
             add  r6, r6, r5
             sw   r6, r4, 0
             ret"
        ),
        // Uniform counted loop (trip count from param).
        2 => "gid  r1
              param r2, 2
              addi r3, r0, 0
              loop:
              add  r3, r3, r1
              addi r2, r2, -1
              bne  r2, r0, loop
              param r5, 0
              slli r6, r1, 2
              add  r6, r6, r5
              sw   r6, r3, 0
              ret"
        .to_string(),
        // Divergent trip counts: each lane loops gid % 8 times.
        3 => format!(
            "gid  r1
             addi r9, r0, 8
             remu r2, r1, r9
             addi r3, r0, {c1}
             loop:
             beq  r2, r0, done
             addi r3, r3, {c2}
             addi r2, r2, -1
             jmp  loop
             done:
             param r5, 0
             slli r6, r1, 2
             add  r6, r6, r5
             sw   r6, r3, 0
             ret"
        ),
        // Barrier + local-memory exchange within the workgroup.
        _ => "gid  r1
              lid  r2
              slli r3, r2, 2
              swl  r3, r1, 0
              bar
              wgsize r4
              addi r5, r4, -1
              sub  r5, r5, r2
              slli r5, r5, 2
              lwl  r6, r5, 0
              param r7, 0
              slli r8, r1, 2
              add  r8, r8, r7
              sw   r8, r6, 0
              ret"
        .to_string(),
    };
    Kernel::from_asm(format!("tmpl{which}"), &src).expect("template assembles")
}

/// A launch whose output region stays inside the seeded memory.
fn template_launch(rng: &mut Rng, config: &SimtConfig) -> Launch {
    let n = rng.u32_in(1, 300);
    let max_wg = config.wavefront_size * config.max_wavefronts_per_cu;
    let wg = rng.u32_in(1, max_wg.min(256));
    // Params: out base, aux base, trip count. Output fits: n*4 <= 8192.
    let out = rng.pick_copy(&[0u32, 0x400, 0x800]);
    Launch::new(n, wg, vec![out, 0x2000, rng.u32_in(1, 9), 3])
}

#[test]
fn template_kernels_bit_identical() {
    cases(120, |rng| {
        let config = small_config(rng);
        let kernel = template_kernel(rng);
        let launch = template_launch(rng, &config);
        let mem = seed_mem(rng);
        assert_equiv(&kernel, &launch, config, &mem, None);
    });
}

fn random_reg(rng: &mut Rng) -> Reg {
    Reg::new(rng.u32_in(0, 31) as u8)
}

/// Fully random instruction streams: most runs fault or hit the cycle
/// ceiling — the typed error and the partial memory image must match
/// between backends either way.
fn random_program(rng: &mut Rng) -> Vec<Inst> {
    let len = rng.usize_in(4, 24);
    let ops = [
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
    let conds = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];
    let srcs = [
        IdSource::GlobalId,
        IdSource::LocalId,
        IdSource::GroupId,
        IdSource::GroupSize,
        IdSource::GlobalSize,
    ];
    let mut prog: Vec<Inst> = (0..len)
        .map(|_| match rng.u32_in(0, 11) {
            0 | 1 => Inst::Alu {
                op: rng.pick_copy(&ops),
                rd: random_reg(rng),
                rs1: random_reg(rng),
                rs2: random_reg(rng),
            },
            2 | 3 => Inst::AluImm {
                op: rng.pick_copy(&ops),
                rd: random_reg(rng),
                rs1: random_reg(rng),
                imm: rng.i32_in(-40, 200) as i16,
            },
            4 => Inst::ReadId {
                rd: random_reg(rng),
                src: rng.pick_copy(&srcs),
            },
            5 => Inst::Param {
                rd: random_reg(rng),
                idx: rng.u32_in(0, 9) as u8, // sometimes out of range
            },
            6 => Inst::Lw {
                rd: random_reg(rng),
                rs1: random_reg(rng),
                imm: (rng.i32_in(-4, 400) * 4) as i16,
            },
            7 => Inst::Sw {
                rs1: random_reg(rng),
                rs2: random_reg(rng),
                imm: (rng.i32_in(-4, 400) * 4) as i16,
            },
            8 => Inst::Lwl {
                rd: random_reg(rng),
                rs1: random_reg(rng),
                imm: (rng.i32_in(0, 100) * 4) as i16,
            },
            9 => Inst::Swl {
                rs1: random_reg(rng),
                rs2: random_reg(rng),
                imm: (rng.i32_in(0, 100) * 4) as i16,
            },
            10 => Inst::Branch {
                cond: rng.pick_copy(&conds),
                rs1: random_reg(rng),
                rs2: random_reg(rng),
                target: rng.u32_in(0, len as u32 + 2), // may leave program
            },
            _ => {
                if rng.chance(0.3) {
                    Inst::Bar
                } else {
                    Inst::Jmp {
                        target: rng.u32_in(0, len as u32 + 2),
                    }
                }
            }
        })
        .collect();
    if rng.chance(0.8) {
        prog.push(Inst::Ret);
    }
    prog
}

#[test]
fn random_programs_bit_identical() {
    cases(200, |rng| {
        let mut config = small_config(rng);
        config.max_cycles = 30_000;
        let kernel = Kernel {
            name: "rand".into(),
            program: random_program(rng),
        };
        let n = rng.u32_in(1, 200);
        let wg = rng.u32_in(1, config.wavefront_size * config.max_wavefronts_per_cu);
        let launch = Launch::new(n, wg, vec![0x100, 0x600, 5]);
        let mem = seed_mem(rng);
        assert_equiv(&kernel, &launch, config, &mem, None);
    });
}

fn random_site(rng: &mut Rng, config: &SimtConfig) -> FaultSite {
    let cu = rng.u32_in(0, config.compute_units); // may be out of range
    let slot = rng.u32_in(0, config.max_wavefronts_per_cu);
    let lane = rng.u32_in(0, config.wavefront_size + 4); // sometimes beyond geometry
    match rng.u32_in(0, 4) {
        0 => FaultSite::Register {
            cu,
            slot,
            lane,
            reg: rng.u32_in(0, 255) as u8,
        },
        1 => FaultSite::LocalWord {
            cu,
            word: rng.u32_in(0, 5000),
        },
        2 => FaultSite::GlobalWord {
            word: rng.u32_in(0, MEM_WORDS as u32 + 64),
        },
        3 => FaultSite::Pc { cu, slot, lane },
        _ => FaultSite::ExecMask { cu, slot, lane },
    }
}

fn random_plan(rng: &mut Rng, config: &SimtConfig) -> FaultPlan {
    let n = rng.usize_in(1, 6);
    let injections = (0..n)
        .map(|i| {
            let protection =
                rng.pick_copy(&[Protection::None, Protection::Parity, Protection::SecDed]);
            let mut inj = Injection::single(
                rng.u64_in(0, 4000),
                random_site(rng, config),
                rng.u32_in(0, 40) as u8,
                protection,
            )
            .with_label(format!("inj{i}"));
            if rng.chance(0.4) {
                inj.flips.push(rng.u32_in(0, 40) as u8);
            }
            if rng.chance(0.3) {
                inj.codeword_flips = rng.u32_in(0, 4);
            }
            inj
        })
        .collect();
    FaultPlan::new(injections)
}

/// Non-empty fault plans (register/PC/exec-mask/memory upsets, all
/// three protection schemes) plus the watchdog: outcomes, logs, typed
/// errors and partial memory effects must match.
#[test]
fn fault_plans_bit_identical() {
    cases(150, |rng| {
        let mut config = small_config(rng);
        config.max_cycles = 100_000;
        let kernel = template_kernel(rng);
        let launch = template_launch(rng, &config);
        let opts = HardenedOptions {
            plan: random_plan(rng, &config),
            watchdog: rng.chance(0.5).then(|| WatchdogConfig {
                interval: rng.u64_in(32, 2048),
                patience: rng.u32_in(1, 3),
            }),
        };
        let mem = seed_mem(rng);
        assert_equiv(&kernel, &launch, config, &mem, Some(&opts));
    });
}

/// Exec-mask upsets that *reactivate* never-populated lanes: the
/// revived lane resumes at PC 0 with zeroed registers and id words on
/// both backends (the SoA engine computes ids on the fly and must
/// reproduce the zeroed-ids semantics for lanes beyond `items`).
#[test]
fn exec_mask_reactivation_matches() {
    cases(80, |rng| {
        let mut config = SimtConfig::with_cus(1);
        config.max_cycles = 100_000;
        let kernel = Kernel::from_asm(
            "revive",
            "gid  r1
             lid  r2
             add  r3, r1, r2
             slli r4, r1, 2
             param r5, 0
             add  r4, r4, r5
             sw   r4, r3, 0
             ret",
        )
        .expect("assembles");
        // Partial wavefront: items < wavefront_size.
        let n = rng.u32_in(1, 40);
        let launch = Launch::new(n, 64, vec![0x200]);
        let lane = rng.u32_in(0, 63); // often a lane >= items
        let plan = FaultPlan::new(vec![Injection::single(
            rng.u64_in(0, 40),
            FaultSite::ExecMask {
                cu: 0,
                slot: 0,
                lane,
            },
            0,
            Protection::None,
        )]);
        let opts = HardenedOptions {
            plan,
            watchdog: Some(WatchdogConfig {
                interval: 512,
                patience: 2,
            }),
        };
        let mem = seed_mem(rng);
        assert_equiv(&kernel, &launch, config, &mem, Some(&opts));
    });
}

/// A register upset in one lane of a lane-uniform row: the SoA engine
/// must stop treating the row as one value. Here lane 5 of the `param`
/// base that a load and a store then address through, at every cycle
/// from dispatch past the load, so some upset lands between the
/// `param` and the load.
#[test]
fn upset_lane_of_a_uniform_base_register_matches() {
    let kernel = Kernel::from_asm(
        "uniform_base",
        "param r3, 0
         gid  r1
         lw   r4, r3, 0
         sw   r3, r1, 64
         slli r5, r1, 2
         param r6, 1
         add  r5, r5, r6
         sw   r5, r4, 0
         ret",
    )
    .expect("assembles");
    let launch = Launch::new(64, 64, vec![0x100, 0x800]);
    let mut rng = Rng::seeded(5);
    let mem = seed_mem(&mut rng);
    for cycle in 0..48 {
        let plan = FaultPlan::new(vec![Injection::single(
            cycle,
            FaultSite::Register {
                cu: 0,
                slot: 0,
                lane: 5,
                reg: 3,
            },
            4,
            Protection::None,
        )]);
        let opts = HardenedOptions {
            plan,
            watchdog: None,
        };
        assert_equiv(&kernel, &launch, SimtConfig::with_cus(1), &mem, Some(&opts));
    }
}

/// The rank loop of the shipped `parallel_sel` kernel: every lane
/// walks all `n` values and branches on each one against its own, so
/// lanes of a wavefront stay at different PCs for most of the run
/// (random programs diverge only in short stretches).
const RANK_LOOP: &str = "
    gid   r1
    param r2, 0
    param r3, 1
    param r4, 3
    slli  r5, r1, 2
    add   r5, r5, r3
    lw    r6, r5, 0
    addi  r7, r0, 0
    addi  r8, r0, 0
    loop:
    slli  r9, r7, 2
    add   r9, r9, r3
    lw    r10, r9, 0
    bltu  r10, r6, inc
    bne   r10, r6, next
    bge   r7, r1, next
    inc:
    addi  r8, r8, 1
    next:
    addi  r7, r7, 1
    blt   r7, r2, loop
    slli  r11, r8, 2
    add   r11, r11, r4
    sw    r11, r6, 0
    ret";

/// Persistent data-dependent divergence over random memory at small
/// `n`: values drawn from 2, 16 or 2^32 distinct words, so runs mix
/// index tie-breaks with value comparisons. A test fn of its own keeps
/// the other properties' seeded cases on their current draws.
#[test]
fn data_dependent_divergence_bit_identical() {
    let kernel = Kernel::from_asm("rank", RANK_LOOP).expect("assembles");

    // One full wavefront: a lane-op count below a full issue per
    // instruction means the run did diverge.
    let mut gpu = Gpu::new(SimtConfig::with_cus(1), MEM_WORDS);
    let values: Vec<u32> = (0..64u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    gpu.write_words(0, &values).expect("seed");
    let stats = gpu
        .launch(&kernel, &Launch::new(64, 64, vec![64, 0, 0, 0x2000]))
        .expect("rank loop completes");
    assert!(
        stats.lane_ops < 64 * stats.vector_instructions,
        "the rank loop must diverge: {} lane ops over {} issues",
        stats.lane_ops,
        stats.vector_instructions
    );

    cases(60, |rng| {
        let config = small_config(rng);
        let n = rng.u32_in(1, 160);
        let wg = rng.u32_in(1, config.wavefront_size * config.max_wavefronts_per_cu);
        let top = rng.pick_copy(&[1u32, 15, u32::MAX]);
        let mut mem = seed_mem(rng);
        for w in &mut mem[..n as usize] {
            *w = rng.u32_in(0, top);
        }
        // Params: n, &a (word 0), unused, &out (word 2048).
        let launch = Launch::new(n, wg, vec![n, 0, 0, 0x2000]);
        assert_equiv(&kernel, &launch, config, &mem, None);
    });
}

/// Divergent-barrier rejection and barrier-heavy shapes agree.
#[test]
fn divergent_barrier_cases_match() {
    cases(60, |rng| {
        let config = small_config(rng);
        // Odd lanes skip the barrier -> DivergentBarrier on both
        // backends (or clean completion when the workgroup has no odd
        // lane at the barrier wavefront).
        let kernel = Kernel::from_asm(
            "divbar",
            "gid  r1
             addi r9, r0, 2
             remu r2, r1, r9
             bne  r2, r0, skip
             bar
             skip:
             ret",
        )
        .expect("assembles");
        let n = rng.u32_in(1, 150);
        let wg = rng.u32_in(1, config.wavefront_size * config.max_wavefronts_per_cu);
        let launch = Launch::new(n, wg, vec![]);
        let mem = seed_mem(rng);
        assert_equiv(&kernel, &launch, config, &mem, None);
    });
}
