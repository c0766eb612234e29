//! Every shipped GPU kernel must verify cleanly — not just free of
//! deny-class findings, but free of warnings too. This is the
//! repo-side twin of the `ggpu-lint --all-kernels --deny warn` CI
//! gate: if a kernel edit introduces even a smell, this test names it.

use ggpu_kernels::bench::{all, mat_mul_local};
use ggpu_lint::{analyze, verify_asm, AnalysisCtx, LintConfig};

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

/// The abstract interpreter proves an address interval for the
/// accesses of every shipped kernel, under the launch-agnostic context.
#[test]
fn memory_profiles_cover_every_shipped_kernel() {
    for bench in all().into_iter().chain([mat_mul_local()]) {
        let (program, _) = verify_asm(bench.name, bench.gpu_asm(), &LintConfig::new())
            .unwrap_or_else(|e| panic!("{}: failed to assemble: {e}", bench.name));
        let analysis = analyze(&program, &AnalysisCtx::default());
        assert!(
            !analysis.summaries.is_empty(),
            "{}: no memory accesses profiled",
            bench.name
        );
        for s in &analysis.summaries {
            assert!(s.addr_lo <= s.addr_hi, "{}: {s:?}", bench.name);
        }
    }
}
