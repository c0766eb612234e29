//! Every shipped GPU kernel must verify cleanly — not just free of
//! deny-class findings, but free of warnings too. This is the
//! repo-side twin of the `ggpu-lint --all-kernels --deny warn` CI
//! gate: if a kernel edit introduces even a smell, this test names it.

use ggpu_kernels::bench::{all, mat_mul_local};
use ggpu_lint::{analyze, verify_asm, AnalysisCtx, KernelAnalysis, LintConfig};

#[test]
fn all_shipped_gpu_kernels_are_lint_clean_at_default_severity() {
    let benches: Vec<_> = all().into_iter().chain([mat_mul_local()]).collect();
    assert_eq!(benches.len(), 8);
    for bench in benches {
        let (program, report) = verify_asm(bench.name, bench.gpu_asm(), &LintConfig::new())
            .unwrap_or_else(|e| panic!("{}: failed to assemble: {e}", bench.name));
        assert!(!program.is_empty());
        assert!(
            report.is_clean(),
            "{} has lint findings at default severity:\n{report}",
            bench.name
        );
    }
}

#[test]
fn all_shipped_gpu_kernels_survive_the_strict_policy() {
    for bench in all().into_iter().chain([mat_mul_local()]) {
        let (_, report) = verify_asm(bench.name, bench.gpu_asm(), &LintConfig::strict()).unwrap();
        assert_eq!(
            report.denial_count(),
            0,
            "{} would fail `--deny warn`:\n{report}",
            bench.name
        );
    }
}

/// The abstract interpreter's memory profile of one shipped kernel,
/// under the launch-agnostic context.
fn profile(bench: &ggpu_kernels::Bench) -> KernelAnalysis {
    let (program, _) = verify_asm(bench.name, bench.gpu_asm(), &LintConfig::new())
        .unwrap_or_else(|e| panic!("{}: failed to assemble: {e}", bench.name));
    analyze(&program, &AnalysisCtx::default())
}

#[test]
fn memory_profiles_cover_every_shipped_kernel() {
    for bench in all().into_iter().chain([mat_mul_local()]) {
        let analysis = profile(&bench);
        assert!(
            !analysis.summaries.is_empty(),
            "{}: no memory accesses profiled",
            bench.name
        );
        for s in &analysis.summaries {
            assert!(s.addr_lo <= s.addr_hi, "{}: {s:?}", bench.name);
        }
    }
    // `copy` is the canonical coalesced kernel: every access is proven
    // unit-stride, and its line bound beats the scattered worst case
    // of one line per lane.
    let copy = all().into_iter().find(|b| b.name == "copy").unwrap();
    let copy = profile(&copy);
    let worst_rank = copy.summaries.iter().map(|s| s.class.rank()).max();
    assert_eq!(worst_rank, Some(1), "copy must be unit-stride");
    let max_lines = copy.summaries.iter().map(|s| s.max_lines_per_issue).max();
    assert!(max_lines.unwrap() < 64);
    // The LRAM-tiled kernel is the only one with local traffic, so
    // only it can report a bank-conflict degree.
    let tiled = profile(&mat_mul_local());
    let max_degree = tiled.summaries.iter().map(|s| s.bank_conflict_degree).max();
    assert!(max_degree.unwrap() >= 1);
}
