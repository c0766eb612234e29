//! Shared harness code for regenerating the paper's tables and
//! figures. Each binary in `src/bin/` prints one artifact:
//!
//! | binary    | artifact |
//! |-----------|----------|
//! | `table1`  | Table I — 12 logic-synthesis versions |
//! | `table2`  | Table II — per-layer wirelength of the 4 layouts |
//! | `table3`  | Table III — benchmark cycle counts |
//! | `fig5`    | Fig. 5 — raw speed-up over RISC-V |
//! | `fig6`    | Fig. 6 — speed-up derated by area |
//! | `layouts` | Figs. 3–4 — floorplan SVGs |

use ggpu_kernels::{all, scaled_speedup, Bench};
use ggpu_netlist::stats::design_stats;
use ggpu_rtl::{generate_riscv, RiscvConfig};
use ggpu_tech::Tech;
use std::fmt::Write as _;

/// CU counts of the paper's benchmark comparison.
pub const BENCH_CUS: [u32; 4] = [1, 2, 4, 8];

/// Pre-flight static verification of every shipped kernel: the
/// cycle-count harnesses run for minutes, so a kernel edit that would
/// fault in the simulator should fail here, in milliseconds, with the
/// lint report instead. Returns the one-line summary it also prints.
///
/// # Panics
///
/// Panics with the full report if any shipped kernel has a deny-level
/// finding.
pub fn lint_preflight() -> String {
    let reports = ggpu_lint::verify_shipped(&ggpu_lint::LintConfig::new());
    let denials: usize = reports.iter().map(ggpu_lint::Report::denial_count).sum();
    for report in &reports {
        assert_eq!(
            report.denial_count(),
            0,
            "shipped kernel failed static verification:\n{report}"
        );
    }
    let summary = format!(
        "lint preflight: {} kernels, {} denials",
        reports.len(),
        denials
    );
    println!("{summary}");
    summary
}

/// Renders an ASCII table: a header row plus data rows, columns
/// right-aligned and sized to the widest cell.
pub fn ascii_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate().take(cols) {
            let _ = write!(out, "{:>width$}  ", cell, width = widths[i]);
        }
        out.push('\n');
    };
    fmt_row(&mut out, header);
    let total: usize = widths.iter().map(|w| w + 2).sum();
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        fmt_row(&mut out, row);
    }
    out
}

/// Cycle counts of one benchmark row of Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCycles {
    /// The benchmark.
    pub bench: Bench,
    /// RISC-V cycles at its input size.
    pub riscv: u64,
    /// G-GPU cycles at its input size, for 1/2/4/8 CUs.
    pub gpu: [u64; 4],
}

impl KernelCycles {
    /// Raw speed-up over the RISC-V for the CU-count index `i`
    /// (the paper's pessimistic input-size scaling).
    pub fn speedup(&self, i: usize) -> f64 {
        scaled_speedup(
            self.riscv,
            self.bench.riscv_n,
            self.gpu[i],
            self.bench.gpu_n,
        )
    }
}

/// Runs every benchmark at the paper's input sizes on the RISC-V and
/// on 1/2/4/8-CU G-GPUs, verifying outputs.
///
/// # Panics
///
/// Panics if any simulation faults or produces a wrong result — the
/// harness must not silently report numbers from broken runs.
pub fn collect_table3() -> Vec<KernelCycles> {
    all()
        .into_iter()
        .map(|bench| {
            let riscv = bench
                .run_riscv(bench.riscv_n)
                .unwrap_or_else(|e| panic!("{} riscv: {e}", bench.name))
                .cycles;
            let mut gpu = [0u64; 4];
            for (i, cus) in BENCH_CUS.into_iter().enumerate() {
                gpu[i] = bench
                    .run_gpu(bench.gpu_n, cus)
                    .unwrap_or_else(|e| panic!("{} gpu {cus}cu: {e}", bench.name))
                    .cycles;
            }
            KernelCycles { bench, riscv, gpu }
        })
        .collect()
}

/// Area of the G-GPU with `cus` CUs relative to the RISC-V baseline
/// (Fig. 6's derating denominator), computed from the same technology
/// models.
///
/// # Panics
///
/// Panics if either design fails to generate — both are fixed known
/// configurations.
pub fn area_ratio_vs_riscv(cus: u32) -> f64 {
    let tech = Tech::l65();
    let ggpu = ggpu_rtl::generate(&ggpu_rtl::GgpuConfig::with_cus(cus).expect("1-8 CUs"))
        .expect("valid config");
    let ggpu_area = design_stats(&ggpu, &tech).expect("in range").total_area();
    let riscv = generate_riscv(&RiscvConfig::default());
    let riscv_area = design_stats(&riscv, &tech).expect("in range").total_area();
    ggpu_area / riscv_area
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_table_aligns() {
        let t = ascii_table(
            &["a".into(), "long".into()],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('a') && lines[0].contains("long"));
    }

    #[test]
    fn area_ratios_match_fig6_scale() {
        // Paper: 1 CU is ~6.5x the RISC-V, 8 CUs ~41x.
        let r1 = area_ratio_vs_riscv(1);
        let r8 = area_ratio_vs_riscv(8);
        assert!((4.0..9.0).contains(&r1), "1-CU ratio {r1}");
        assert!((25.0..55.0).contains(&r8), "8-CU ratio {r8}");
    }

    #[test]
    fn speedup_indexing() {
        let kc = KernelCycles {
            bench: ggpu_kernels::all()[1],
            riscv: 1000,
            gpu: [4000, 2000, 1000, 500],
        };
        // copy: 512 -> 32768 is a 64x scale.
        assert!((kc.speedup(0) - 16.0).abs() < 1e-9);
        assert!((kc.speedup(3) - 128.0).abs() < 1e-9);
    }
}
