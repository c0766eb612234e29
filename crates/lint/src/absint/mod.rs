//! Abstract interpretation of SIMT kernels.
//!
//! A monotone-framework fixpoint (the private `solver` module) over
//! composable per-register domains ([`domain`]): interval
//! value-range, power-of-two stride/alignment, a lane-affine shape
//! (`a·tid + c` with interval coefficients — subsuming the old
//! uniform/varying taint bit), and a depth-capped symbolic
//! expression. On top of the fixpoint this module derives:
//!
//! * **K010** — out-of-bounds memory access: *proven* (every possible
//!   address faults) at deny strength, *possible* (the range reaches
//!   past the limit but a bounded part stays inside) capped at warn.
//!   Ranges widened to the unbounded sentinel stay silent — a loop
//!   whose bound the solver cannot see is not evidence.
//! * **K011** — misaligned word access: *proven* when the congruence
//!   excludes word alignment entirely, *possible* (capped at warn)
//!   when alignment is simply unknown.
//! * **K012** — flow-sensitive LRAM race, replacing K007's syntactic
//!   check: an `swl` is clean when the stored value is lane-uniform,
//!   when the address is provably lane-distinct per work-item
//!   (nonzero word-multiple affine coefficient small enough not to
//!   wrap), or when the value is *determined by the address* (a pure
//!   function of the address expression and launch invariants through
//!   convergent loads — colliding lanes then write identical bytes).
//!   A proven-uniform address with an unsafe value denies; everything
//!   else unproven caps at warn. Scope: intra-issue collisions within
//!   one workgroup, the same granularity the `crates/simt` trace
//!   oracle observes.
//! * [`MemAccessSummary`] — the static cost model per memory
//!   instruction: coalescing class (broadcast / unit-stride /
//!   strided-k / scattered), a cache-line bound per wavefront issue,
//!   and the LRAM bank-conflict degree.
//!
//! Soundness is *gated, not asserted*: `crates/simt` records concrete
//! per-access addresses and branch uniformity on both backends, and a
//! randomized property suite checks every prediction here
//! over-approximates the observed trace.

pub mod domain;
mod solver;

use crate::cfg::Cfg;
use crate::diag::{Code, LintConfig, Report, Severity};
use domain::{expr_eq, AbsVal, Expr, ExprKind, Lane};
use ggpu_isa::inst::{Inst, Reg};
use std::rc::Rc;

pub(crate) use solver::Solution;

/// Launch-context facts the analysis may assume. Everything is
/// optional: `None` means "analyze for any launch" (the default
/// pre-flight gate), `Some` pins the fact (the property suite builds
/// an exact context from the concrete launch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisCtx {
    /// Concrete kernel parameters, when known. Unknown parameters are
    /// assumed word-aligned (the documented calling convention for
    /// pointer/size arguments).
    pub params: Option<Vec<u32>>,
    /// Total work-items, when known.
    pub global_size: Option<u32>,
    /// Work-items per workgroup, when known.
    pub workgroup_size: Option<u32>,
    /// Global memory size in words, when known; global bounds checks
    /// are skipped otherwise.
    pub memory_words: Option<u32>,
    /// LRAM scratchpad words per CU (always known: a hardware
    /// constant).
    pub lram_words: u32,
    /// Largest launchable workgroup (wavefront × max wavefronts/CU).
    pub max_workgroup: u32,
    /// Wavefront width (lanes issuing together).
    pub wavefront: u32,
    /// Cache line size in bytes (coalescing bound).
    pub line_bytes: u32,
    /// LRAM banks (bank-conflict degree).
    pub lram_banks: u32,
    /// Processing elements served per LRAM beat.
    pub pes: u32,
}

impl Default for AnalysisCtx {
    fn default() -> Self {
        Self {
            params: None,
            global_size: None,
            workgroup_size: None,
            memory_words: None,
            lram_words: 4096,
            max_workgroup: 512,
            wavefront: 64,
            line_bytes: 64,
            lram_banks: 8,
            pes: 8,
        }
    }
}

impl AnalysisCtx {
    /// The largest work-item-index distance inside one workgroup.
    fn max_wg_span(&self) -> u64 {
        u64::from(self.workgroup_size.unwrap_or(self.max_workgroup).max(1)) - 1
    }
}

/// Which memory an access touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemSpace {
    /// Cached global memory.
    Global,
    /// Per-CU LRAM scratchpad.
    Local,
}

/// Static coalescing class of one memory instruction, ordered from
/// cheapest to most expensive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoalescingClass {
    /// Every lane touches one address.
    Broadcast,
    /// Consecutive lanes touch consecutive words (either direction).
    UnitStride,
    /// Constant word stride `k` between consecutive lanes.
    Strided(u32),
    /// No provable pattern.
    Scattered,
}

impl CoalescingClass {
    /// Cost rank: a prediction is sound iff its rank is at least the
    /// observed rank.
    pub fn rank(self) -> u8 {
        match self {
            CoalescingClass::Broadcast => 0,
            CoalescingClass::UnitStride => 1,
            CoalescingClass::Strided(_) => 2,
            CoalescingClass::Scattered => 3,
        }
    }
}

/// Static cost prediction for one reachable memory instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemAccessSummary {
    /// Instruction index.
    pub inst: usize,
    /// Address space.
    pub space: MemSpace,
    /// `true` for stores.
    pub is_store: bool,
    /// Lowest possible byte address.
    pub addr_lo: u32,
    /// Highest possible byte address (`u32::MAX` = unbounded).
    pub addr_hi: u32,
    /// Coalescing class (never more optimistic than any observable
    /// issue).
    pub class: CoalescingClass,
    /// Upper bound on distinct cache lines one full-wavefront issue
    /// touches (global space; `1` for LRAM, which has no cache).
    pub max_lines_per_issue: u32,
    /// Upper bound on the LRAM bank-conflict degree per beat (local
    /// space; `1` for global).
    pub bank_conflict_degree: u32,
}

/// Everything the abstract interpreter proves about one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelAnalysis {
    /// One summary per reachable memory instruction, in program order.
    pub summaries: Vec<MemAccessSummary>,
    /// Reachable branch sites proven lane-uniform (the wavefront
    /// cannot split there).
    pub uniform_branches: Vec<usize>,
}

impl KernelAnalysis {
    /// The summary for instruction `i`, if it is a reachable memory
    /// access.
    pub fn summary_at(&self, i: usize) -> Option<&MemAccessSummary> {
        self.summaries.iter().find(|s| s.inst == i)
    }
}

/// Runs the abstract interpreter standalone (builds its own CFG) and
/// returns the memory-access summaries and branch-uniformity facts.
pub fn analyze(program: &[Inst], ctx: &AnalysisCtx) -> KernelAnalysis {
    if program.is_empty() {
        return KernelAnalysis {
            summaries: Vec::new(),
            uniform_branches: Vec::new(),
        };
    }
    let cfg = Cfg::build(program);
    let reachable = cfg.reachable();
    let sol = solver::solve(program, &cfg, &reachable, ctx);
    let mut summaries = Vec::new();
    for (i, inst) in program.iter().enumerate() {
        if !reachable.contains(i) {
            continue;
        }
        let Some((space, is_store, base, imm)) = mem_access(inst) else {
            continue;
        };
        let Some(addr) = sol.address_at(i, base, imm) else {
            continue;
        };
        summaries.push(summarize(i, space, is_store, &addr, ctx));
    }
    KernelAnalysis {
        summaries,
        uniform_branches: sol.uniform_branches.clone(),
    }
}

/// Decodes a memory instruction into (space, is_store, base register,
/// immediate offset).
fn mem_access(inst: &Inst) -> Option<(MemSpace, bool, Reg, i16)> {
    match *inst {
        Inst::Lw { rs1, imm, .. } => Some((MemSpace::Global, false, rs1, imm)),
        Inst::Sw { rs1, imm, .. } => Some((MemSpace::Global, true, rs1, imm)),
        Inst::Lwl { rs1, imm, .. } => Some((MemSpace::Local, false, rs1, imm)),
        Inst::Swl { rs1, imm, .. } => Some((MemSpace::Local, true, rs1, imm)),
        _ => None,
    }
}

fn gcd(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Builds the static cost summary of one access from its abstract
/// address.
fn summarize(
    i: usize,
    space: MemSpace,
    is_store: bool,
    addr: &AbsVal,
    ctx: &AnalysisCtx,
) -> MemAccessSummary {
    // Coalescing class from the lane-affine shape of the address.
    let class = match addr.lane {
        _ if addr.lane.is_uniform() => CoalescingClass::Broadcast,
        Lane::Affine { .. } => match addr.lane.singleton_coeff() {
            Some(0) => CoalescingClass::Broadcast,
            Some(a) if a.unsigned_abs() == 4 => CoalescingClass::UnitStride,
            Some(a) if a.unsigned_abs() % 4 == 0 && a.unsigned_abs() / 4 <= u64::from(u32::MAX) => {
                CoalescingClass::Strided((a.unsigned_abs() / 4) as u32)
            }
            _ => CoalescingClass::Scattered,
        },
        Lane::Varying => CoalescingClass::Scattered,
    };
    let w = ctx.wavefront.max(1);
    let byte_stride: Option<u64> = match class {
        CoalescingClass::Broadcast => Some(0),
        CoalescingClass::UnitStride => Some(4),
        CoalescingClass::Strided(k) => Some(u64::from(k) * 4),
        CoalescingClass::Scattered => None,
    };
    let max_lines = match (space, byte_stride) {
        (MemSpace::Local, _) => 1,
        (MemSpace::Global, Some(0)) => 1,
        (MemSpace::Global, Some(s)) => {
            let span_lines = s * u64::from(w - 1) / u64::from(ctx.line_bytes.max(1)) + 2;
            span_lines.min(u64::from(w)) as u32
        }
        (MemSpace::Global, None) => w,
    };
    let bank_degree = match (space, byte_stride) {
        (MemSpace::Global, _) => 1,
        (MemSpace::Local, Some(0)) => 1,
        (MemSpace::Local, Some(s)) => {
            let words = ((s / 4) % u64::from(ctx.lram_banks.max(1))) as u32;
            let g = gcd(words, ctx.lram_banks.max(1)).max(1);
            let distinct_banks = ctx.lram_banks.max(1) / g;
            ctx.pes.max(1).div_ceil(distinct_banks).min(ctx.pes.max(1))
        }
        (MemSpace::Local, None) => ctx.pes.max(1),
    };
    MemAccessSummary {
        inst: i,
        space,
        is_store,
        addr_lo: addr.rng.lo,
        addr_hi: addr.rng.hi,
        class,
        max_lines_per_issue: max_lines,
        bank_conflict_degree: bank_degree,
    }
}

/// Runs the absint checks (K010/K011/K012) for `verify_program`,
/// reusing the caller's CFG and reachability.
pub(crate) fn check_kernel(
    program: &[Inst],
    cfg: &Cfg,
    reachable: &crate::cfg::BitSet,
    ctx: &AnalysisCtx,
    config: &LintConfig,
    report: &mut Report,
) {
    let sol = solver::solve(program, cfg, reachable, ctx);
    for (i, inst) in program.iter().enumerate() {
        if !reachable.contains(i) {
            continue;
        }
        let Some((space, is_store, base, imm)) = mem_access(inst) else {
            continue;
        };
        let Some(addr) = sol.address_at(i, base, imm) else {
            continue;
        };
        check_bounds(i, space, &addr, ctx, config, report);
        check_alignment(i, &addr, config, report);
        if space == MemSpace::Local && is_store {
            if let Inst::Swl { rs1, rs2, .. } = inst {
                check_race(i, &sol, *rs1, *rs2, &addr, ctx, config, report);
            }
        }
    }
}

/// K010: out-of-bounds access, proven vs. possible.
fn check_bounds(
    i: usize,
    space: MemSpace,
    addr: &AbsVal,
    ctx: &AnalysisCtx,
    config: &LintConfig,
    report: &mut Report,
) {
    let (name, limit) = match space {
        MemSpace::Local => ("local", Some(u64::from(ctx.lram_words) * 4)),
        MemSpace::Global => ("global", ctx.memory_words.map(|w| u64::from(w) * 4)),
    };
    let Some(limit) = limit else { return };
    if u64::from(addr.rng.lo) >= limit {
        report.push(
            config,
            Code::K010,
            format!(
                "proven out-of-bounds {name} access: every address in \
                 [{}, {}] is past the {limit}-byte limit",
                addr.rng.lo, addr.rng.hi
            ),
            Some(i),
            None,
        );
    } else if u64::from(addr.rng.hi) >= limit && !addr.rng.is_unbounded() {
        // An unbounded hi is the widening sentinel, not evidence.
        report.push_at_most(
            config,
            Code::K010,
            Severity::Warn,
            format!(
                "possible out-of-bounds {name} access: address range \
                 [{}, {}] crosses the {limit}-byte limit",
                addr.rng.lo, addr.rng.hi
            ),
            Some(i),
            None,
        );
    }
}

/// K011: misaligned word access, proven vs. possible.
fn check_alignment(i: usize, addr: &AbsVal, config: &LintConfig, report: &mut Report) {
    let m = addr.align.m.min(4);
    let r = addr.align.r & (m - 1);
    if m == 4 {
        if r != 0 {
            report.push(
                config,
                Code::K011,
                format!("proven misaligned word access: address ≡ {r} (mod 4)"),
                Some(i),
                None,
            );
        }
        // r == 0: provably word-aligned, clean.
    } else if m == 2 && r == 1 {
        report.push(
            config,
            Code::K011,
            "proven misaligned word access: address is always odd".to_string(),
            Some(i),
            None,
        );
    } else {
        report.push_at_most(
            config,
            Code::K011,
            Severity::Warn,
            format!(
                "possible misaligned word access: alignment only known \
                 modulo {m}"
            ),
            Some(i),
            None,
        );
    }
}

/// `true` when the affine address provably gives every work-item of a
/// workgroup its own word: exact nonzero word-multiple coefficient
/// whose largest in-group distance cannot wrap.
fn lane_distinct(lane: Lane, ctx: &AnalysisCtx) -> bool {
    match lane.singleton_coeff() {
        Some(a) => {
            a != 0 && a.unsigned_abs() % 4 == 0 && a.unsigned_abs() * ctx.max_wg_span() < 1 << 32
        }
        None => false,
    }
}

/// `true` when `e` is a pure function of the colliding address and
/// launch invariants: lanes that collide on a word then store
/// identical values, making the collision benign.
fn determined_by(e: &Rc<Expr>, anchor: &Rc<Expr>, divergent: &[bool]) -> bool {
    if expr_eq(e, anchor) {
        return true;
    }
    match &e.kind {
        ExprKind::Const(_)
        | ExprKind::Param(_)
        | ExprKind::GroupId
        | ExprKind::GroupSize
        | ExprKind::GlobalSize => true,
        ExprKind::Lid | ExprKind::Gid => false,
        ExprKind::Op(_, a, b) => {
            determined_by(a, anchor, divergent) && determined_by(b, anchor, divergent)
        }
        ExprKind::OpImm(_, a, _) => determined_by(a, anchor, divergent),
        ExprKind::Load(site, a) => !divergent[*site] && determined_by(a, anchor, divergent),
    }
}

/// K012: flow-sensitive LRAM race on one `swl`.
#[allow(clippy::too_many_arguments)]
fn check_race(
    i: usize,
    sol: &Solution,
    rs1: Reg,
    rs2: Reg,
    addr: &AbsVal,
    ctx: &AnalysisCtx,
    config: &LintConfig,
    report: &mut Report,
) {
    let Some(value) = sol.reg_at(i, rs2) else {
        return;
    };
    if value.lane.is_uniform() {
        return; // identical stores collide benignly
    }
    if lane_distinct(addr.lane, ctx) {
        return; // provably per-work-item words
    }
    // Determined-by-address: colliding lanes (equal word, both
    // aligned ⇒ equal base register) write equal values.
    let anchor = sol.reg_at(i, rs1).and_then(|b| b.sym.clone());
    if let (Some(v), Some(anchor)) = (&value.sym, &anchor) {
        if determined_by(v, anchor, &sol.divergent) {
            return;
        }
    }
    if addr.lane.is_uniform() {
        report.push(
            config,
            Code::K012,
            format!(
                "local-memory race: lane-uniform address in {rs1} stored \
                 with the lane-varying value in {rs2} — work-items of one \
                 issue clobber the same LRAM word"
            ),
            Some(i),
            None,
        );
    } else {
        report.push_at_most(
            config,
            Code::K012,
            Severity::Warn,
            format!(
                "possible local-memory race: address in {rs1} is not \
                 provably lane-distinct and the value in {rs2} is not \
                 provably collision-safe"
            ),
            Some(i),
            None,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_isa::asm::assemble;

    fn run(src: &str, ctx: &AnalysisCtx) -> Report {
        let program = assemble(src).unwrap();
        let cfg = Cfg::build(&program);
        let reachable = cfg.reachable();
        let mut report = Report::new("t");
        check_kernel(
            &program,
            &cfg,
            &reachable,
            ctx,
            &LintConfig::new(),
            &mut report,
        );
        report
    }

    #[test]
    fn proven_local_oob_is_denied() {
        let r = run("lui r1, 1\nswl r1, r0, 0\nret", &AnalysisCtx::default());
        assert!(r.has(Code::K010), "{r}");
        assert_eq!(r.denial_count(), 1, "{r}");
    }

    #[test]
    fn possible_local_oob_is_a_warning() {
        // lid << 6 reaches 32704 under the 512-item workgroup bound:
        // past 16384 but bounded, so possible-tier only.
        let r = run(
            "lid r1\nslli r2, r1, 6\nswl r2, r1, 0\nret",
            &AnalysisCtx::default(),
        );
        assert!(r.has(Code::K010), "{r}");
        assert_eq!(r.denial_count(), 0, "{r}");
    }

    #[test]
    fn widened_loop_address_stays_silent() {
        // Loop-carried pointer widens to the unbounded sentinel: no
        // K010 (silence, not a warning).
        let r = run(
            "
            addi r1, r0, 0
            addi r2, r0, 10
            loop:
            lwl  r3, r1, 0
            addi r1, r1, 16
            addi r4, r4, 1
            blt  r4, r2, loop
            swl  r0, r3, 0
            ret
            ",
            &AnalysisCtx::default(),
        );
        assert!(!r.has(Code::K010), "{r}");
    }

    #[test]
    fn exact_context_pins_global_bounds() {
        let ctx = AnalysisCtx {
            global_size: Some(64),
            workgroup_size: Some(64),
            memory_words: Some(64),
            ..AnalysisCtx::default()
        };
        // gid << 2 stays in [0, 252] < 256 bytes: clean.
        let r = run(
            "gid r1\nslli r2, r1, 2\nlw r3, r2, 0\nsw r2, r3, 0\nret",
            &ctx,
        );
        assert!(r.is_clean(), "{r}");
        // With an offset pushing past the end: possible OOB.
        let r = run(
            "gid r1\nslli r2, r1, 2\nlw r3, r2, 128\nsw r2, r3, 0\nret",
            &ctx,
        );
        assert!(r.has(Code::K010), "{r}");
    }

    #[test]
    fn tid_affine_store_is_not_a_race() {
        let r = run(
            "lid r1\nslli r2, r1, 2\nswl r2, r1, 0\nret",
            &AnalysisCtx::default(),
        );
        assert!(!r.has(Code::K012), "{r}");
    }

    #[test]
    fn uniform_addr_varying_value_is_a_proven_race() {
        let r = run(
            "lid r1\naddi r2, r0, 64\nswl r2, r1, 0\nret",
            &AnalysisCtx::default(),
        );
        assert!(r.has(Code::K012), "{r}");
        assert_eq!(r.denial_count(), 1, "{r}");
    }

    #[test]
    fn loaded_uniform_address_race_is_flow_sensitive() {
        // The address is uniform only through a load — the old
        // syntactic check could not see this.
        let r = run(
            "param r1, 0\nlw r2, r1, 0\nslli r2, r2, 2\nlid r3\nswl r2, r3, 0\nret",
            &AnalysisCtx::default(),
        );
        assert!(r.has(Code::K012), "{r}");
        assert_eq!(
            r.diagnostics
                .iter()
                .filter(|d| d.code == Code::K012 && d.severity == Severity::Deny)
                .count(),
            1,
            "{r}"
        );
    }

    #[test]
    fn masked_staging_store_is_determined_by_address() {
        // The mat_mul_local staging idiom: address = masked lid,
        // value = global load at address + uniform base. Colliding
        // lanes write identical values: benign.
        let r = run(
            "
            lid   r1
            param r2, 4
            param r3, 2
            addi  r4, r2, -1
            and   r5, r1, r4
            slli  r5, r5, 2
            add   r6, r5, r3
            lw    r7, r6, 0
            swl   r5, r7, 0
            ret
            ",
            &AnalysisCtx::default(),
        );
        assert!(!r.has(Code::K012), "{r}");
    }

    #[test]
    fn misalignment_proven_and_possible() {
        let r = run(
            "addi r1, r0, 2\nlwl r2, r1, 0\nswl r1, r2, 0\nret",
            &AnalysisCtx::default(),
        );
        assert!(r.has(Code::K011), "{r}");
        assert!(r.denial_count() >= 1, "{r}");
        // Loaded base: alignment unknown, warn only.
        let r = run(
            "param r1, 0\nlw r2, r1, 0\nlw r3, r2, 0\nsw r1, r3, 0\nret",
            &AnalysisCtx::default(),
        );
        assert!(r.has(Code::K011), "{r}");
        assert_eq!(r.denial_count(), 0, "{r}");
    }

    #[test]
    fn summaries_classify_coalescing() {
        let program = assemble(
            "
            gid   r1
            param r2, 0
            slli  r3, r1, 2
            add   r3, r3, r2
            lw    r4, r3, 0      ; unit stride
            lw    r5, r2, 0      ; broadcast
            slli  r6, r1, 5
            add   r6, r6, r2
            lw    r7, r6, 0      ; strided 8
            swl   r3, r4, 0
            sw    r3, r7, 0
            ret
            ",
        )
        .unwrap();
        let a = analyze(&program, &AnalysisCtx::default());
        assert_eq!(a.summary_at(4).unwrap().class, CoalescingClass::UnitStride);
        assert_eq!(a.summary_at(5).unwrap().class, CoalescingClass::Broadcast);
        assert_eq!(a.summary_at(5).unwrap().max_lines_per_issue, 1);
        assert_eq!(a.summary_at(8).unwrap().class, CoalescingClass::Strided(8));
        // Strided-8 words with 8 banks: every lane of a beat hits one
        // bank.
        let local = a.summary_at(9).unwrap();
        assert_eq!(local.space, MemSpace::Local);
        assert_eq!(local.class, CoalescingClass::UnitStride);
        assert_eq!(local.bank_conflict_degree, 1);
        assert!(a.summary_at(0).is_none());
    }

    #[test]
    fn uniform_branches_are_separated_from_varying() {
        let program = assemble(
            "
            lid  r1
            param r2, 0
            beq  r2, r0, skip
            beq  r1, r0, skip
            skip:
            ret
            ",
        )
        .unwrap();
        let a = analyze(&program, &AnalysisCtx::default());
        assert_eq!(a.uniform_branches, vec![2]);
    }
}
