//! The static kernel verifier: CFG + dataflow passes over a SIMT
//! program.
//!
//! Checks (stable codes, see [`crate::diag::Code`]):
//!
//! * **K009** empty program — the very first fetch faults.
//! * **K005** branch/jump targets outside the program.
//! * **K004** reachable fallthrough off the end (missing `ret`).
//! * **K003** unreachable instructions.
//! * **K001** may-uninitialized register reads (definite-assignment
//!   forward dataflow; `r0` is exempt as the zero-idiom register — the
//!   simulator zero-initializes the register file, so this is a smell,
//!   not a fault).
//! * **K002** dead stores (backward liveness; only side-effect-free
//!   writes are flagged, and `r0` writes are exempt so `nop` stays
//!   clean).
//! * **K006** divergence-depth estimate above
//!   [`DIVERGENCE_DEPTH_LIMIT`] (longest forward-edge path counting
//!   the branches the abstract interpreter cannot prove lane-uniform).
//! * **K008** barrier inside lane-divergent control flow: a `bar` the
//!   abstract interpreter marks divergent, i.e. reachable from a
//!   lane-varying branch that it does not post-dominate (the
//!   simulator faults with `DivergentBarrier`). Lane variance is
//!   flow-sensitive: a value that differs only because lanes took
//!   different paths to a merge is varying too.
//! * **K010/K011/K012** abstract-interpretation checks — proven or
//!   possible out-of-bounds access, misaligned word access, and the
//!   flow-sensitive LRAM race that replaced K007's syntactic check
//!   (see [`crate::absint`]).
//!
//! Soundness note used by the property suite: a program with no
//! K004/K005/K009 findings cannot raise `SimError::PcOutOfRange`,
//! because every reachable instruction's successors stay inside the
//! program or end at `ret`.

use crate::absint::{solve, AnalysisCtx, Solution};
use crate::cfg::{BitSet, Cfg};
use crate::diag::{Code, LintConfig, Report};
use ggpu_isa::asm::{assemble, AssembleError};
use ggpu_isa::inst::{Inst, Reg};

/// K006 threshold: estimated nesting depth of lane-varying branches
/// above which a kernel is reported as divergence-heavy. The shipped
/// paper kernels peak at 5.
pub const DIVERGENCE_DEPTH_LIMIT: u32 = 8;

/// `true` if the instruction's only effect is its register write, so a
/// dead destination makes the whole instruction dead. Loads are
/// excluded: they can fault and they perturb the memory system.
fn is_pure_def(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Alu { .. }
            | Inst::AluImm { .. }
            | Inst::Lui { .. }
            | Inst::ReadId { .. }
            | Inst::Param { .. }
    )
}

/// Verifies one assembled program under `config` with the default
/// (launch-agnostic) analysis context, producing a [`Report`] named
/// `name`.
pub fn verify_program(name: &str, program: &[Inst], config: &LintConfig) -> Report {
    verify_program_with_ctx(name, program, config, &AnalysisCtx::default())
}

/// Verifies one assembled program with launch facts pinned by `ctx`
/// (a known parameter block or geometry sharpens the K010–K012
/// verdicts).
pub fn verify_program_with_ctx(
    name: &str,
    program: &[Inst],
    config: &LintConfig,
    ctx: &AnalysisCtx,
) -> Report {
    let mut report = Report::new(name);
    if program.is_empty() {
        report.push(
            config,
            Code::K009,
            "empty program: the first fetch falls outside the program",
            None,
            None,
        );
        return report;
    }
    let cfg = Cfg::build(program);
    let reachable = cfg.reachable();

    // K005: static branch-target bounds.
    for &(i, target) in &cfg.bad_targets {
        report.push(
            config,
            Code::K005,
            format!(
                "control-flow target {target} outside program of {} instructions",
                cfg.len
            ),
            Some(i),
            None,
        );
    }

    // K004: reachable fallthrough off the end of the program.
    for &i in &cfg.off_end {
        if reachable.contains(i) {
            report.push(
                config,
                Code::K004,
                "reachable path falls through the end of the program (missing `ret`)",
                Some(i),
                None,
            );
        }
    }

    // K003: unreachable instructions, reported as contiguous ranges.
    let mut i = 0;
    while i < cfg.len {
        if !reachable.contains(i) {
            let start = i;
            while i < cfg.len && !reachable.contains(i) {
                i += 1;
            }
            let msg = if i - start == 1 {
                format!("unreachable instruction {start}")
            } else {
                format!("unreachable instructions {start}..{i}")
            };
            report.push(config, Code::K003, msg, Some(start), None);
        } else {
            i += 1;
        }
    }

    check_uninitialized_reads(program, &cfg, &reachable, config, &mut report);
    check_dead_stores(program, &cfg, &reachable, config, &mut report);
    let sol = solve(program, &cfg, &reachable, ctx);
    check_divergence(program, &cfg, &reachable, &sol, config, &mut report);
    crate::absint::check_kernel(program, &reachable, &sol, ctx, config, &mut report);
    report.sort_canonical();
    report
}

/// Assembles and verifies `source`.
///
/// # Errors
///
/// Returns [`AssembleError`] if the source does not assemble; lint
/// findings are never assembly errors.
pub fn verify_asm(
    name: &str,
    source: &str,
    config: &LintConfig,
) -> Result<(Vec<Inst>, Report), AssembleError> {
    let program = assemble(source)?;
    let report = verify_program(name, &program, config);
    Ok((program, report))
}

/// K001: definite-assignment forward dataflow (meet = intersection).
fn check_uninitialized_reads(
    program: &[Inst],
    cfg: &Cfg,
    reachable: &BitSet,
    config: &LintConfig,
    report: &mut Report,
) {
    let n = cfg.len;
    let regs = usize::from(Reg::COUNT);
    // in[i]: registers definitely assigned on entry to instruction i.
    // Unreached-so-far nodes start at top (all registers) so the meet
    // only narrows along real paths. r0 counts as assigned everywhere:
    // it is the conventional zero register and the simulator
    // zero-initializes the file.
    let mut input: Vec<BitSet> = (0..=n).map(|_| BitSet::full(regs)).collect();
    let mut entry = BitSet::new(regs);
    entry.insert(0);
    input[0] = entry;
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            if !reachable.contains(i) {
                continue;
            }
            let mut out = input[i].clone();
            if let Some(rd) = program[i].def() {
                out.insert(rd.index());
            }
            for &s in &cfg.succs[i] {
                if s == 0 {
                    continue; // entry keeps its boundary value
                }
                changed |= input[s].intersect_with(&out);
            }
        }
    }
    for (i, inst) in program.iter().enumerate() {
        if !reachable.contains(i) {
            continue;
        }
        for r in inst.uses() {
            if r.index() != 0 && !input[i].contains(r.index()) {
                report.push(
                    config,
                    Code::K001,
                    format!("{r} may be read before any assignment"),
                    Some(i),
                    None,
                );
            }
        }
    }
}

/// K002: backward liveness; a pure def whose destination is dead is a
/// dead store.
fn check_dead_stores(
    program: &[Inst],
    cfg: &Cfg,
    reachable: &BitSet,
    config: &LintConfig,
    report: &mut Report,
) {
    let n = cfg.len;
    let regs = usize::from(Reg::COUNT);
    // live_in[i]: registers whose value may still be read at entry to
    // instruction i. The exit node has nothing live.
    let mut live_in: Vec<BitSet> = (0..=n).map(|_| BitSet::new(regs)).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let mut out = BitSet::new(regs);
            for &s in &cfg.succs[i] {
                out.union_with(&live_in[s]);
            }
            if let Some(rd) = program[i].def() {
                out.remove(rd.index());
            }
            for r in program[i].uses() {
                out.insert(r.index());
            }
            if out != live_in[i] {
                live_in[i] = out;
                changed = true;
            }
        }
    }
    for (i, inst) in program.iter().enumerate() {
        if !reachable.contains(i) || !is_pure_def(inst) {
            continue;
        }
        let Some(rd) = inst.def() else { continue };
        if rd.index() == 0 {
            continue; // `nop` assembles to a write of r0
        }
        let mut live_out = false;
        for &s in &cfg.succs[i] {
            if live_in[s].contains(rd.index()) {
                live_out = true;
                break;
            }
        }
        if !live_out {
            report.push(
                config,
                Code::K002,
                format!("store to {rd} is never read (dead store)"),
                Some(i),
                None,
            );
        }
    }
}

/// K006/K008: divergence checks over the abstract interpreter's lane
/// shapes and divergent sites.
fn check_divergence(
    program: &[Inst],
    cfg: &Cfg,
    reachable: &BitSet,
    sol: &Solution,
    config: &LintConfig,
    report: &mut Report,
) {
    // K006: longest forward-edge path counting the reachable branches
    // not proven lane-uniform — a nesting-depth estimate that ignores
    // loop back-edges.
    let n = cfg.len;
    let mut depth = vec![0u32; n + 1];
    for i in (0..n).rev() {
        let own = u32::from(
            reachable.contains(i)
                && matches!(program[i], Inst::Branch { .. })
                && !sol.uniform_branches.contains(&i),
        );
        let best = cfg.succs[i]
            .iter()
            .filter(|&&s| s > i)
            .map(|&s| depth[s])
            .max()
            .unwrap_or(0);
        depth[i] = own + best;
    }
    if reachable.contains(0) && depth[0] > DIVERGENCE_DEPTH_LIMIT {
        report.push(
            config,
            Code::K006,
            format!(
                "estimated divergence depth {} exceeds limit {DIVERGENCE_DEPTH_LIMIT}",
                depth[0]
            ),
            Some(0),
            None,
        );
    }

    // K008: a barrier at a divergent site (only reachable sites are).
    for (b, inst) in program.iter().enumerate() {
        if let (Inst::Bar, Some(v)) = (inst, sol.divergent[b]) {
            report.push(
                config,
                Code::K008,
                format!(
                    "barrier is control-dependent on the lane-varying branch at {v}: \
                     lanes can arrive split"
                ),
                Some(b),
                None,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn lint(src: &str) -> Report {
        verify_asm("t", src, &LintConfig::new()).unwrap().1
    }

    #[test]
    fn clean_kernel_is_clean() {
        let r = lint(
            "
            gid   r1
            param r2, 0
            slli  r3, r1, 2
            add   r3, r3, r2
            lw    r4, r3, 0
            sw    r3, r4, 4
            ret
            ",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn empty_program_is_k009() {
        let r = lint("; nothing here");
        assert_eq!(r.codes(), vec![Code::K009]);
        assert_eq!(r.denial_count(), 1);
    }

    #[test]
    fn fallthrough_off_end_is_k004() {
        let r = lint("gid r1\naddi r2, r1, 1");
        let k004 = r
            .diagnostics
            .iter()
            .find(|d| d.code == Code::K004)
            .expect("K004 reported");
        assert_eq!(k004.severity, Severity::Deny);
    }

    #[test]
    fn unreachable_fallthrough_is_only_k003() {
        // The dead tail cannot fault, so it is a warning, not a K004.
        let r = lint("ret\nnop");
        assert!(r.has(Code::K003));
        assert!(!r.has(Code::K004));
        assert_eq!(r.denial_count(), 0);
    }

    #[test]
    fn trailing_label_jump_is_k005() {
        let r = lint("jmp off\nret\noff:");
        assert!(r.has(Code::K005));
    }

    #[test]
    fn uninit_read_is_k001_but_r0_is_exempt() {
        let r = lint("add r2, r1, r1\nret");
        assert!(r.has(Code::K001));
        let r = lint("addi r2, r0, 5\nsw r2, r2, 0\nret");
        assert!(!r.has(Code::K001), "{r}");
    }

    #[test]
    fn one_path_uninit_read_is_k001() {
        let r = lint(
            "
            gid  r1
            beq  r1, r0, skip
            addi r2, r0, 7
            skip:
            add  r3, r2, r1   ; r2 unset when the branch is taken
            sw   r1, r3, 0
            ret
            ",
        );
        assert!(r.has(Code::K001), "{r}");
    }

    #[test]
    fn dead_store_is_k002_but_nop_is_exempt() {
        let r = lint("addi r5, r0, 1\nret");
        assert!(r.has(Code::K002));
        let r = lint("nop\nret");
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn loop_induction_variable_is_not_dead() {
        let r = lint(
            "
            addi r1, r0, 0
            addi r2, r0, 10
            loop:
            addi r1, r1, 1
            blt  r1, r2, loop
            ret
            ",
        );
        assert!(!r.has(Code::K002), "{r}");
    }

    #[test]
    fn racey_local_store_is_k012() {
        let r = lint(
            "
            lid  r1
            addi r2, r0, 64   ; lane-uniform address
            swl  r2, r1, 0    ; lane-varying value
            ret
            ",
        );
        assert!(r.has(Code::K012), "{r}");
        assert!(!r.has(Code::K007), "K007 is retired: {r}");
        // Lane-distinct tid-affine address: each work-item owns its
        // word — the case the old taint bit could not prove.
        let r = lint(
            "
            lid  r1
            slli r2, r1, 2
            swl  r2, r1, 0
            ret
            ",
        );
        assert!(!r.has(Code::K012), "{r}");
    }

    #[test]
    fn divergent_barrier_is_k008() {
        let r = lint(
            "
            lid  r1
            beq  r1, r0, skip
            bar               ; only the nonzero lanes arrive
            skip:
            ret
            ",
        );
        assert!(r.has(Code::K008), "{r}");
        // A barrier that post-dominates the varying branch is fine.
        let r = lint(
            "
            lid  r1
            beq  r1, r0, join
            addi r2, r0, 1
            sw   r1, r2, 0
            join:
            bar
            ret
            ",
        );
        assert!(!r.has(Code::K008), "{r}");
    }

    #[test]
    fn deep_divergence_is_k006() {
        // 9 nested lane-varying branches exceed the limit of 8.
        let mut src = String::from("gid r1\n");
        for i in 0..9 {
            src.push_str(&format!("blt r1, r1, l{i}\n"));
        }
        for i in 0..9 {
            src.push_str(&format!("l{i}:\n"));
        }
        src.push_str("ret\n");
        let r = lint(&src);
        assert!(r.has(Code::K006), "{r}");
    }

    #[test]
    fn verify_asm_propagates_assembler_errors() {
        assert!(verify_asm("t", "frobnicate r1", &LintConfig::new()).is_err());
    }
}
