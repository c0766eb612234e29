//! Monotone-framework fixpoint solver over the kernel CFG.
//!
//! A classic worklist iteration: abstract register states propagate
//! along [`crate::cfg::Cfg`] edges, joins happen at merge points, and
//! targets of back-edges (any edge whose target index does not exceed
//! its source) widen after a short delay so loops terminate. Every
//! cycle in the CFG contains at least one such edge, which bounds the
//! ascending chains of the interval component.
//!
//! The uniform-load rule — a load from a lane-uniform address at a
//! lane-convergent site produces a lane-uniform value — couples the
//! fixpoint to divergence information that itself depends on the
//! fixpoint (a site is divergent when some lane-varying branch reaches
//! it without being post-dominated by it). [`solve`] iterates the two
//! to a joint fixpoint: run the dataflow assuming the current
//! divergent-site set, recompute the set from the resulting branch
//! lane shapes, and repeat until the (monotonically growing) set
//! stabilizes.

use super::domain::{expr_eq, AbsVal, Align, Expr, ExprKind, Interval, Lane};
use super::AnalysisCtx;
use crate::cfg::{BitSet, Cfg};
use ggpu_isa::inst::{AluOp, IdSource, Inst, Reg};

/// Number of state-changing joins at a widen point before widening
/// engages (lets short constant chains settle exactly first).
const WIDEN_DELAY: u32 = 2;

/// Joint fixpoint of the dataflow and the divergence classification.
pub(crate) struct Solution {
    /// Abstract register state on entry to each instruction (`None`
    /// when the solver never reached it).
    pub input: Vec<Option<Box<[AbsVal]>>>,
    /// `divergent[i]`: `Some(v)` when instruction `i` can execute with
    /// only a subset of the wavefront's lanes, because it is reachable
    /// from the lane-varying branch at `v` and does not post-dominate
    /// it; `None` at lane-convergent sites.
    pub divergent: Vec<Option<usize>>,
    /// Reachable branch sites whose operands are both proven
    /// lane-uniform: the wavefront cannot split there.
    pub uniform_branches: Vec<usize>,
}

impl Solution {
    /// The abstract address (`rs1 + sign-extended imm`) of the memory
    /// instruction at `i`, if the solver reached it.
    pub fn address_at(&self, i: usize, base: Reg, imm: i16) -> Option<AbsVal> {
        let st = self.input.get(i)?.as_ref()?;
        Some(address_of(&st[base.index()], imm))
    }

    /// The abstract value of `r` on entry to instruction `i`.
    pub fn reg_at(&self, i: usize, r: Reg) -> Option<&AbsVal> {
        Some(&self.input.get(i)?.as_ref()?[r.index()])
    }
}

/// Computes the abstract address of a memory access.
pub(crate) fn address_of(base: &AbsVal, imm: i16) -> AbsVal {
    let off = AbsVal::constant(imm as i32 as u32);
    let mut v = eval_alu(AluOp::Add, base, &off);
    v.sym = base
        .sym
        .as_ref()
        .and_then(|b| Expr::op_imm(AluOp::Add, b, imm as i32 as u32));
    refine(&mut v);
    v
}

/// Runs the joint fixpoint for `program`.
pub(crate) fn solve(
    program: &[Inst],
    cfg: &Cfg,
    reachable: &BitSet,
    ctx: &AnalysisCtx,
) -> Solution {
    let n = cfg.len;
    let pdom = cfg.post_dominators();
    let mut divergent = vec![None; n];
    loop {
        let input = fixpoint(program, cfg, ctx, &divergent);
        // Lane-varying branches under the current assumption set.
        let mut varying_branches = Vec::new();
        let mut uniform_branches = Vec::new();
        for (i, inst) in program.iter().enumerate() {
            if !reachable.contains(i) {
                continue;
            }
            if let Inst::Branch { rs1, rs2, .. } = inst {
                let uniform = input[i].as_ref().is_some_and(|st| {
                    st[rs1.index()].lane.is_uniform() && st[rs2.index()].lane.is_uniform()
                });
                if uniform {
                    uniform_branches.push(i);
                } else {
                    varying_branches.push(i);
                }
            }
        }
        // Divergent sites: reachable from a varying branch it does not
        // post-dominate, which is recorded. Monotonically growing
        // across outer rounds (forcing loads opaque only makes more
        // values varying), so the iteration terminates.
        let mut grew = false;
        for &v in &varying_branches {
            let reach = reachable_from(cfg, v);
            for (s, d) in divergent.iter_mut().enumerate().take(n) {
                if d.is_none() && reach.contains(s) && !pdom[v].contains(s) {
                    *d = Some(v);
                    grew = true;
                }
            }
        }
        if !grew {
            return Solution {
                input,
                divergent,
                uniform_branches,
            };
        }
    }
}

/// Nodes reachable from `from` along CFG edges (excluding the trivial
/// empty path).
fn reachable_from(cfg: &Cfg, from: usize) -> BitSet {
    let mut seen = BitSet::new(cfg.len + 1);
    let mut stack: Vec<usize> = cfg.succs[from].clone();
    while let Some(i) = stack.pop() {
        if seen.contains(i) {
            continue;
        }
        seen.insert(i);
        stack.extend(cfg.succs[i].iter().copied());
    }
    seen
}

/// One worklist run of the dataflow under a fixed divergent-site set.
fn fixpoint(
    program: &[Inst],
    cfg: &Cfg,
    ctx: &AnalysisCtx,
    divergent: &[Option<usize>],
) -> Vec<Option<Box<[AbsVal]>>> {
    let n = cfg.len;
    let mut input: Vec<Option<Box<[AbsVal]>>> = vec![None; n + 1];
    let entry: Box<[AbsVal]> = (0..usize::from(Reg::COUNT))
        .map(|_| AbsVal::constant(0)) // the register file is zeroed
        .collect();
    input[0] = Some(entry);

    // Widen points: targets of edges that do not advance the program
    // order; every CFG cycle crosses one.
    let mut widen_point = vec![false; n + 1];
    for (i, succs) in cfg.succs.iter().enumerate() {
        for &s in succs {
            if s <= i {
                widen_point[s] = true;
            }
        }
    }
    let mut joins = vec![0u32; n + 1];
    let mut inwork = vec![false; n + 1];
    let mut work = vec![0usize];
    inwork[0] = true;

    while let Some(i) = work.pop() {
        inwork[i] = false;
        if i >= n {
            continue; // exit node
        }
        let Some(st) = input[i].clone() else { continue };
        let out = transfer(i, &program[i], st, ctx, divergent);
        // Lane-mixing merges: when the predecessor runs under
        // divergent control, the lanes arriving from it are a *subset*
        // of the wavefront — at the merge, each lane holds the value
        // of its own path. Joining two different path values as one
        // lane-affine shape would claim all lanes agree on a single
        // `a·tid + b`, which is unsound (caught by the trace oracle:
        // a "broadcast" store after an `if` touched two cache lines;
        // `prop_absint_soundness.rs` pins a branch on such a value).
        // Unless the two values are provably identical per lane, the
        // merged lane shape must be `Varying`.
        let lane_mixing = divergent.get(i).is_some_and(Option::is_some);
        for &s in &cfg.succs[i] {
            let next = match &input[s] {
                None => Some(out.clone()),
                Some(prev) => {
                    let mut joined: Box<[AbsVal]> = prev
                        .iter()
                        .zip(out.iter())
                        .map(|(p, o)| {
                            let mut j = p.join(o);
                            if lane_mixing
                                && !per_lane_identical(p, o, divergent)
                                && j.lane != Lane::Varying
                            {
                                j.lane = Lane::Varying;
                            }
                            j
                        })
                        .collect();
                    if joined[..] != prev[..] {
                        if widen_point[s] {
                            joins[s] += 1;
                            if joins[s] > WIDEN_DELAY {
                                joined = prev
                                    .iter()
                                    .zip(joined.iter())
                                    .map(|(p, j)| p.widen(j))
                                    .collect();
                            }
                        }
                        (joined[..] != prev[..]).then_some(joined)
                    } else {
                        None
                    }
                }
            };
            if let Some(state) = next {
                input[s] = Some(state);
                if !inwork[s] {
                    inwork[s] = true;
                    work.push(s);
                }
            }
        }
    }
    input
}

/// `true` when two abstract values are provably the *same* concrete
/// value in every lane, so a lane-mixing merge of them cannot create
/// lane variation: equal singletons, or equal symbolic expressions
/// whose loads all sit at convergent sites (a divergent-site load can
/// observe different memory at different partial issues, so the same
/// expression does not pin the same value).
fn per_lane_identical(a: &AbsVal, b: &AbsVal, divergent: &[Option<usize>]) -> bool {
    if let (Some(ca), Some(cb)) = (a.rng.as_singleton(), b.rng.as_singleton()) {
        return ca == cb;
    }
    match (&a.sym, &b.sym) {
        (Some(x), Some(y)) => expr_eq(x, y) && loads_convergent(x, divergent),
        _ => false,
    }
}

/// `true` when every `Load` node in `e` sits at a lane-convergent site.
fn loads_convergent(e: &Expr, divergent: &[Option<usize>]) -> bool {
    match &e.kind {
        ExprKind::Load(site, a) => {
            divergent.get(*site).is_some_and(Option::is_none) && loads_convergent(a, divergent)
        }
        ExprKind::Op(_, x, y) => loads_convergent(x, divergent) && loads_convergent(y, divergent),
        ExprKind::OpImm(_, x, _) => loads_convergent(x, divergent),
        _ => true,
    }
}

/// Product transfer of one ALU operation (symbolic part left to the
/// caller, which knows the operand expressions).
fn eval_alu(op: AluOp, a: &AbsVal, b: &AbsVal) -> AbsVal {
    AbsVal {
        rng: Interval::apply(op, a.rng, b.rng),
        align: Align::apply(op, a.align, b.align, b.rng),
        lane: Lane::apply(op, a.lane, b.lane, a.rng, b.rng),
        sym: None,
    }
}

/// Reduction step of the product: a pinned value refines the other
/// components.
fn refine(v: &mut AbsVal) {
    if let Some(c) = v.rng.as_singleton() {
        v.align = Align::constant(c);
        v.lane = Lane::UNIFORM;
    }
}

/// Abstract effect of one instruction on the register state.
fn transfer(
    i: usize,
    inst: &Inst,
    mut st: Box<[AbsVal]>,
    ctx: &AnalysisCtx,
    divergent: &[Option<usize>],
) -> Box<[AbsVal]> {
    match *inst {
        Inst::Alu { op, rd, rs1, rs2 } => {
            let a = &st[rs1.index()];
            let b = &st[rs2.index()];
            let mut v = eval_alu(op, a, b);
            v.sym = match (&a.sym, &b.sym) {
                (Some(x), Some(y)) => Expr::op(op, x, y),
                _ => None,
            };
            refine(&mut v);
            st[rd.index()] = v;
        }
        Inst::AluImm { op, rd, rs1, imm } => {
            let imm = imm as i32 as u32;
            let b = AbsVal::constant(imm);
            let a = &st[rs1.index()];
            let mut v = eval_alu(op, a, &b);
            v.sym = a.sym.as_ref().and_then(|x| Expr::op_imm(op, x, imm));
            refine(&mut v);
            st[rd.index()] = v;
        }
        Inst::Lui { rd, imm } => {
            st[rd.index()] = AbsVal::constant(u32::from(imm) << 16);
        }
        Inst::ReadId { rd, src } => {
            st[rd.index()] = read_id(src, ctx);
        }
        Inst::Param { rd, idx } => {
            st[rd.index()] = match &ctx.params {
                // The launch zero-pads unset slots.
                Some(p) => AbsVal::constant(p.get(usize::from(idx)).copied().unwrap_or(0)),
                None => AbsVal {
                    rng: Interval::TOP,
                    // Calling convention: pointer/size parameters are
                    // word-aligned (documented heuristic; exact when
                    // the context carries concrete parameters).
                    align: Align { m: 4, r: 0 },
                    lane: Lane::UNIFORM,
                    sym: Some(Expr::param(idx)),
                },
            };
        }
        Inst::Lw { rd, rs1, imm } => {
            let addr = address_of(&st[rs1.index()], imm);
            st[rd.index()] = load_result(i, &addr, true, divergent);
        }
        Inst::Lwl { rd, rs1, imm } => {
            let addr = address_of(&st[rs1.index()], imm);
            st[rd.index()] = load_result(i, &addr, false, divergent);
        }
        // No register effects.
        Inst::Sw { .. }
        | Inst::Swl { .. }
        | Inst::Branch { .. }
        | Inst::Jmp { .. }
        | Inst::Bar
        | Inst::Ret => {}
    }
    st
}

/// Abstract value produced by a load at site `i`.
///
/// The uniform-load rule: at a lane-convergent site, every lane of a
/// wavefront issues the load together, so a lane-uniform address
/// yields a lane-uniform value. Only *global* loads keep a symbolic
/// `Load` node (the race check's determined-by-address argument needs
/// it; local memory is the racy resource itself, so its loads stay
/// opaque).
fn load_result(i: usize, addr: &AbsVal, global: bool, divergent: &[Option<usize>]) -> AbsVal {
    let convergent = divergent[i].is_none();
    let lane = if convergent && addr.lane.is_uniform() {
        Lane::UNIFORM
    } else {
        Lane::Varying
    };
    let sym = if global && convergent {
        addr.sym.as_ref().and_then(|a| Expr::load(i, a))
    } else {
        None
    };
    AbsVal {
        rng: Interval::TOP,
        align: Align::UNKNOWN,
        lane,
        sym,
    }
}

/// Abstract value of an id-source read under the launch context.
fn read_id(src: IdSource, ctx: &AnalysisCtx) -> AbsVal {
    match src {
        IdSource::LocalId => AbsVal {
            rng: Interval {
                lo: 0,
                hi: ctx
                    .workgroup_size
                    .unwrap_or(ctx.max_workgroup)
                    .saturating_sub(1),
            },
            align: Align::UNKNOWN,
            lane: Lane::ID,
            sym: Some(Expr::id_leaf(ExprKind::Lid)),
        },
        IdSource::GlobalId => AbsVal {
            rng: Interval {
                lo: 0,
                hi: ctx.global_size.map_or(u32::MAX, |g| g.saturating_sub(1)),
            },
            align: Align::UNKNOWN,
            lane: Lane::ID,
            sym: Some(Expr::id_leaf(ExprKind::Gid)),
        },
        IdSource::GroupId => AbsVal {
            rng: Interval {
                lo: 0,
                hi: match (ctx.global_size, ctx.workgroup_size) {
                    (Some(g), Some(w)) if w > 0 => g.div_ceil(w).saturating_sub(1),
                    _ => u32::MAX,
                },
            },
            align: Align::UNKNOWN,
            lane: Lane::UNIFORM,
            sym: Some(Expr::id_leaf(ExprKind::GroupId)),
        },
        IdSource::GroupSize => match ctx.workgroup_size {
            Some(w) => AbsVal::constant(w),
            None => AbsVal {
                rng: Interval {
                    lo: 1,
                    hi: ctx.max_workgroup,
                },
                align: Align::UNKNOWN,
                lane: Lane::UNIFORM,
                sym: Some(Expr::id_leaf(ExprKind::GroupSize)),
            },
        },
        IdSource::GlobalSize => match ctx.global_size {
            Some(g) => AbsVal::constant(g),
            None => AbsVal {
                rng: Interval {
                    lo: 1,
                    hi: u32::MAX,
                },
                align: Align::UNKNOWN,
                lane: Lane::UNIFORM,
                sym: Some(Expr::id_leaf(ExprKind::GlobalSize)),
            },
        },
    }
}
