//! `paper_repro`: one op regenerates Table III and the Fig. 5/6 data —
//! 7 kernels at the paper's input sizes on the RISC-V and on 1/2/4/8-CU
//! G-GPUs (35 verified simulations), plus the G-GPU/RISC-V area ratios
//! for 1/2/4/8 CUs. Every simulated machine starts with empty caches.
//!
//! The untraced op calls the user-facing `Bench::run_gpu` and
//! `Bench::run_riscv`. The traced op makes the same calls `run_gpu`
//! makes, one span around each, so the time splits into inputs, golden
//! model, machine set-up, kernel verification, launch, read-back and
//! output check.

use crate::trace::Tracer;
use crate::{mape, Layers, Outcome, Workload};
use ggpu_kernels::layout::{GPU_A, GPU_B, GPU_MEMORY_WORDS, GPU_OUT};
use ggpu_kernels::{all, scaled_speedup, Bench};
use ggpu_netlist::stats::design_stats;
use ggpu_rtl::{generate, generate_riscv, GgpuConfig, RiscvConfig};
use ggpu_simt::{Gpu, Kernel, Launch, RunStats, SimtConfig};
use ggpu_tech::Tech;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// CU counts of the paper's comparison.
const CUS: [u32; 4] = [1, 2, 4, 8];

/// Exact cycle counts every op must reproduce: (kernel, RISC-V,
/// G-GPU at 1/2/4/8 CUs). 35,162,254 cycles in all.
const EXPECTED_CYCLES: [(&str, u64, [u64; 4]); 7] = [
    ("mat_mul", 68_866, [98_383, 49_277, 34_479, 34_479]),
    ("copy", 5_121, [42_249, 24_461, 23_939, 23_939]),
    ("vec_mul", 14_337, [108_089, 69_103, 65_475, 64_963]),
    ("fir", 16_641, [48_229, 24_239, 12_309, 6_776]),
    ("div_int", 24_577, [154_515, 77_649, 39_927, 21_141]),
    (
        "xcorr",
        723_203,
        [13_644_071, 6_822_369, 3_415_739, 1_741_059],
    ),
    (
        "parallel_sel",
        198_145,
        [3_731_930, 1_866_115, 933_230, 933_230],
    ),
];

/// The paper's Table III, k-cycles: (kernel, RISC-V, 1/2/4/8 CUs).
const PAPER_KCYCLES: [(&str, f64, [f64; 4]); 7] = [
    ("mat_mul", 202.0, [48.0, 28.0, 18.0, 14.0]),
    ("copy", 71.0, [73.0, 36.0, 24.0, 22.0]),
    ("vec_mul", 78.0, [100.0, 49.0, 31.0, 26.0]),
    ("fir", 542.0, [694.0, 358.0, 185.0, 169.0]),
    ("div_int", 32.0, [209.0, 105.0, 57.0, 62.0]),
    ("xcorr", 542.0, [5343.0, 2802.0, 1467.0, 2079.0]),
    ("parallel_sel", 765.0, [5979.0, 3157.0, 1656.0, 1660.0]),
];

/// The workload's state: nothing survives between ops.
pub struct PaperRepro;

impl PaperRepro {
    /// Lint pre-flight over every shipped kernel (warming the process's
    /// verification memo), and one area ratio to warm the SRAM
    /// compiler's memo.
    pub fn setup(tr: &mut Tracer) -> Result<Self, String> {
        tr.span("lint.preflight", |_| lint_preflight())?;
        tr.span("setup.warm_area", |tr| area_ratio(1, tr))?;
        Ok(Self)
    }
}

/// Every shipped kernel must pass the static verifier.
pub fn lint_preflight() -> Result<(), String> {
    for report in ggpu_lint::verify_shipped(&ggpu_lint::LintConfig::new()) {
        if report.denial_count() > 0 {
            return Err(format!("shipped kernel failed verification:\n{report}"));
        }
    }
    Ok(())
}

/// Area of the `cus`-CU G-GPU over the RISC-V's, as
/// `ggpu_bench::area_ratio_vs_riscv` computes it for Fig. 6.
fn area_ratio(cus: u32, tr: &mut Tracer) -> Result<f64, String> {
    let tech = Tech::l65();
    let config = GgpuConfig::with_cus(cus).map_err(|e| e.to_string())?;
    let ggpu = tr.span("rtl.generate", |_| {
        generate(&config).map_err(|e| e.to_string())
    })?;
    let ggpu_area = tr
        .span("netlist.design_stats", |_| design_stats(&ggpu, &tech))
        .map_err(|e| e.to_string())?
        .total_area();
    let riscv = tr.span("rtl.generate", |_| generate_riscv(&RiscvConfig::default()));
    let riscv_area = tr
        .span("netlist.design_stats", |_| design_stats(&riscv, &tech))
        .map_err(|e| e.to_string())?
        .total_area();
    Ok(ggpu_area.to_mm2() / riscv_area.to_mm2())
}

/// `Bench::run_gpu`, call for call, with a span around each call.
fn run_gpu_traced(bench: &Bench, n: u32, cus: u32, tr: &mut Tracer) -> Result<RunStats, String> {
    let e = |e: ggpu_simt::SimError| format!("{} gpu {cus}cu: {e}", bench.name);
    tr.span_arg("kernels.run_gpu", bench.name, |tr| {
        let (a, b) = tr.span("kernels.inputs", |_| bench.inputs(n));
        let mut gpu = tr
            .span("simt.gpu_new", |_| {
                let mut gpu = Gpu::new(SimtConfig::with_cus(cus), GPU_MEMORY_WORDS);
                gpu.write_words(GPU_A, &a)?;
                if !b.is_empty() {
                    gpu.write_words(GPU_B, &b)?;
                }
                Ok(gpu)
            })
            .map_err(e)?;
        let kernel = tr
            .span("lint.kernel_verify", |_| {
                Kernel::from_asm_verified(bench.name, bench.gpu_asm())
            })
            .map_err(|err| format!("{}: {err}", bench.name))?;
        let launch = Launch::new(
            n,
            n.min(256),
            vec![n, GPU_A, GPU_B, GPU_OUT, bench.extra(n)],
        );
        let stats = tr
            .span_arg("simt.launch", bench.name, |_| gpu.launch(&kernel, &launch))
            .map_err(e)?;
        let golden = tr.span("kernels.golden", |_| bench.golden(n));
        let out = tr
            .span("simt.readback", |_| gpu.read_words(GPU_OUT, golden.len()))
            .map_err(e)?;
        tr.span("kernels.check", |_| {
            if out == golden {
                Ok(stats)
            } else {
                Err(format!("{} gpu {cus}cu: wrong output", bench.name))
            }
        })
    })
}

impl Workload for PaperRepro {
    fn op(&mut self, tr: &mut Tracer) -> Result<Outcome, String> {
        let mut counts: BTreeMap<String, f64> = BTreeMap::new();
        let mut add = |k: &str, v: u64| *counts.entry(k.to_string()).or_insert(0.0) += v as f64;
        let mut rows = Vec::new();
        let mut mem_hits = 0u64;
        for bench in all() {
            let rv = tr
                .span_arg("riscv.run", bench.name, |_| bench.run_riscv(bench.riscv_n))
                .map_err(|e| format!("{} riscv: {e}", bench.name))?;
            add("riscv.cycles", rv.cycles);
            let mut gpu = [0u64; 4];
            for (i, cus) in CUS.into_iter().enumerate() {
                let stats = if tr.enabled() {
                    run_gpu_traced(&bench, bench.gpu_n, cus, tr)?
                } else {
                    bench
                        .run_gpu(bench.gpu_n, cus)
                        .map_err(|e| format!("{} gpu {cus}cu: {e}", bench.name))?
                };
                gpu[i] = stats.cycles;
                add("simt.cycles", stats.cycles);
                add("simt.vector_instructions", stats.vector_instructions);
                add("simt.stall_cycles", stats.stall_cycles);
                add("simt.sched_iterations", stats.sched_iterations);
                add("simt.mem.accesses", stats.mem.accesses);
                add("simt.mem.fills", stats.mem.fills);
                add("simt.lram_conflict_cycles", stats.lram_conflict_cycles);
                mem_hits += stats.mem.hits;
            }
            rows.push((bench, rv.cycles, gpu));
        }
        let ratios = CUS
            .into_iter()
            .map(|cus| area_ratio(cus, tr))
            .collect::<Result<Vec<f64>, String>>()?;

        // Exact cycle counts.
        let measured: Vec<(&str, u64, [u64; 4])> = rows
            .iter()
            .map(|(b, rv, gpu)| (b.name, *rv, *gpu))
            .collect();
        if measured != EXPECTED_CYCLES {
            let mut table = String::new();
            for (name, rv, gpu) in &measured {
                let _ = writeln!(table, "    (\"{name}\", {rv}, {gpu:?}),");
            }
            return Err(format!(
                "Table III cycles differ from the expected ones:\n{table}"
            ));
        }

        // Accuracy against the paper.
        let mut columns: [Vec<(f64, f64)>; 5] = Default::default();
        for ((_, rv, gpu), (_, paper_rv, paper_gpu)) in measured.iter().zip(PAPER_KCYCLES) {
            columns[0].push((*rv as f64 / 1e3, paper_rv));
            for i in 0..4 {
                columns[i + 1].push((gpu[i] as f64 / 1e3, paper_gpu[i]));
            }
        }
        let all_cells: Vec<(f64, f64)> = columns.iter().flatten().copied().collect();
        counts.insert("accuracy.table3.mape_pct".into(), mape(&all_cells));
        for (col, name) in columns
            .iter()
            .zip(["rv", "gpu_1cu", "gpu_2cu", "gpu_4cu", "gpu_8cu"])
        {
            counts.insert(format!("accuracy.table3.{name}_mape_pct"), mape(col));
        }
        let mut peak_speedup = 0.0f64;
        let mut peak_derated = 0.0f64;
        for (bench, rv, gpu) in &rows {
            for i in 0..CUS.len() {
                let s = scaled_speedup(*rv, bench.riscv_n, gpu[i], bench.gpu_n);
                peak_speedup = peak_speedup.max(s);
                peak_derated = peak_derated.max(s / ratios[i]);
            }
        }
        counts.insert("accuracy.fig5.peak_speedup".into(), peak_speedup);
        counts.insert("accuracy.fig6.peak_derated".into(), peak_derated);
        let accesses = counts["simt.mem.accesses"];
        counts.insert(
            "simt.mem.hit_ratio".into(),
            if accesses > 0.0 {
                mem_hits as f64 / accesses
            } else {
                0.0
            },
        );

        let mut fingerprint = String::new();
        for r in &ratios {
            let _ = write!(fingerprint, "{:016x} ", r.to_bits());
        }
        Ok(Outcome {
            fingerprint,
            counts,
        })
    }

    fn layer_metrics(&self, layers: &Layers) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        let launch_ms = layers.ms("simt.launch", None);
        m.insert("simt.launch_s".into(), launch_ms / 1e3);
        for bench in all() {
            m.insert(
                format!("simt.{}.launch_ms", bench.name),
                layers.ms("simt.launch", Some(bench.name)),
            );
        }
        for (metric, span) in [
            ("simt.gpu_new_ms", "simt.gpu_new"),
            ("simt.readback_ms", "simt.readback"),
            ("kernels.inputs_ms", "kernels.inputs"),
            ("kernels.golden_ms", "kernels.golden"),
            ("kernels.check_ms", "kernels.check"),
            ("lint.kernel_verify_ms", "lint.kernel_verify"),
            ("riscv.run_ms", "riscv.run"),
            ("rtl.generate_ms", "rtl.generate"),
            ("netlist.design_stats_ms", "netlist.design_stats"),
        ] {
            m.insert(metric.into(), layers.ms(span, None));
        }
        m.insert(
            "lint.preflight_ms".into(),
            layers.setup_ms("lint.preflight"),
        );
        m
    }
}
