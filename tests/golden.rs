//! Golden outputs of the 12 Table-I versions, the 1-CU@667 MHz
//! frequency map, the benchmark's SEU campaign set (at seed 1, and its
//! whole op at held-out seed 7) and the Table-III simulation
//! statistics, regenerated on every run and compared byte for byte
//! against the files checked in under `tests/golden/`.
//!
//! Each version file pins the datasheet (recipe, PPA, per-layer
//! wirelength, route delays), the DSE trace, the synthesis fmax as an
//! IEEE-754 bit pattern and an FNV-1a-64 digest of the optimized
//! design's `Debug` rendering, which covers the whole netlist. This is
//! the paper's "single push of a button" promise: the same recipe
//! regenerates the same netlist and the same numbers.
//!
//! On a mismatch the actual files are written under the test's target
//! tmp directory and the test fails with a line diff plus the `cp`
//! command that accepts them.

use g_gpu::netlist::EccPolicy;
use g_gpu::planner::{
    datasheet, frequency_map, map_to_csv, paper_versions, GpuPlanner, Specification,
};
use g_gpu::rtl::{generate, GgpuConfig};
use g_gpu::tech::sram::EccScheme;
use g_gpu::tech::units::Mhz;
use g_gpu::tech::Tech;
use ggpu_fault::{run_campaign, CampaignConfig, MacroMap, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// FNV-1a, 64-bit: a fixed, dependency-free digest that is stable
/// across Rust releases (unlike `DefaultHasher`).
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One version's golden file: `(name, content)`, named after the
/// version (`1cu@500MHz` → `1cu_500mhz.txt`).
fn version_golden(planner: &GpuPlanner, spec: &Specification) -> (String, String) {
    let name = format!(
        "{}.txt",
        spec.version_name().replace('@', "_").to_lowercase()
    );
    let planned = planner.plan(spec).expect("every Table-I version plans");
    let implemented = planner
        .implement(&planned)
        .expect("every Table-I version implements");
    let mut out = String::new();
    out.push_str(&datasheet(&implemented));
    out.push_str("\n# dse trace\n");
    for line in &planned.trace {
        let _ = writeln!(out, "{line}");
    }
    let fmax = planned
        .synthesis
        .fmax
        .map(|f| format!("{:#018x}", f.value().to_bits()))
        .unwrap_or_else(|| "none".into());
    let _ = writeln!(out, "\n# synthesis fmax (f64 bits)\n{fmax}");
    let digest = fnv1a64(format!("{:?}", planned.design).as_bytes());
    let _ = writeln!(out, "\n# design digest (fnv1a64 of Debug)\n{digest:#018x}");
    (name, out)
}

/// Every golden file: `(file name, freshly generated content)`.
fn generate_all() -> Vec<(String, String)> {
    let tech = Tech::l65();
    let planner = GpuPlanner::new(tech.clone());
    let mut files: Vec<(String, String)> = paper_versions()
        .iter()
        .map(|spec| version_golden(&planner, spec))
        .collect();
    let base = generate(&GgpuConfig::with_cus(1).expect("1 CU is valid")).expect("1-CU baseline");
    let rows = frequency_map(&base, &tech, Mhz::new(667.0)).expect("map timing");
    files.push(("freq_map_1cu_667mhz.csv".into(), map_to_csv(&rows)));
    files
}

/// The 12 campaign reports of perfbench's `fault_campaign` set, one
/// JSON block each: mat_mul, copy, vec_mul and fir at n = 256 on the
/// 1-CU design, under no protection, parity and SEC-DED, `trials` per
/// campaign at campaign seed `seed`. Trials time out at 4× the golden
/// cycles, as in the benchmark. `threads = 0` leaves the worker count
/// to `GGPU_THREADS`, so running this file under several thread counts
/// checks that no report depends on which worker ran which trial.
fn fault_campaigns(seed: u64, trials: u32) -> String {
    let design = generate(&GgpuConfig::with_cus(1).expect("1 CU is valid")).expect("1-CU design");
    let maps: Vec<MacroMap> = [
        EccPolicy::unprotected(),
        EccPolicy::uniform(EccScheme::Parity),
        EccPolicy::uniform(EccScheme::SecDed),
    ]
    .iter()
    .map(|p| MacroMap::from_design(&design, p).expect("macro map"))
    .collect();
    let mut out = String::new();
    for bench in &g_gpu::kernels::all()[..4] {
        let w = Workload::from_bench(bench, 256).expect("campaign kernel prepares");
        let mut cfg = CampaignConfig::new(seed, trials);
        let golden = w.run_golden(cfg.sim).expect("golden run");
        cfg.sim.max_cycles = 4 * golden.cycles;
        for map in &maps {
            let report = run_campaign(&w, map, &cfg).expect("campaign runs");
            out.push_str(&report.to_json());
        }
    }
    out
}

/// Compute-unit counts of Table III's G-GPU columns.
const TABLE3_CUS: [u32; 4] = [1, 2, 4, 8];

/// Table III at the paper's input sizes, one line per run: the 7
/// RISC-V cycle counts and the 28 G-GPU `RunStats`, every field
/// `RunStats::eq` compares (so neither `sim_wall` nor
/// `sched_iterations`, which describe the host, not the simulation).
/// Every run is checked against its golden reference on the way.
fn table3_runstats() -> String {
    let mut out = String::from(
        "# Table III at the paper's input sizes (verified runs)\n\
         # kernel target n cycles [vector_instructions lane_ops wavefronts workgroups \
         stall_cycles busy_cycles lram_conflict_cycles mem.accesses mem.hits mem.fills \
         mem.writebacks]\n",
    );
    for bench in g_gpu::kernels::all() {
        let rv = bench
            .run_riscv(bench.riscv_n)
            .unwrap_or_else(|e| panic!("{} riscv: {e}", bench.name));
        let _ = writeln!(out, "{} riscv {} {}", bench.name, bench.riscv_n, rv.cycles);
        for cus in TABLE3_CUS {
            let s = bench
                .run_gpu(bench.gpu_n, cus)
                .unwrap_or_else(|e| panic!("{} gpu {cus}cu: {e}", bench.name));
            let _ = writeln!(
                out,
                "{} {cus}cu {} {} {} {} {} {} {} {} {} {} {} {} {}",
                bench.name,
                bench.gpu_n,
                s.cycles,
                s.vector_instructions,
                s.lane_ops,
                s.wavefronts,
                s.workgroups,
                s.stall_cycles,
                s.busy_cycles,
                s.lram_conflict_cycles,
                s.mem.accesses,
                s.mem.hits,
                s.mem.fills,
                s.mem.writebacks,
            );
        }
    }
    out
}

/// A line diff (longest common subsequence) of `expected` → `actual`,
/// `-`/`+` for removed/added lines, unchanged lines omitted.
fn line_diff(expected: &str, actual: &str) -> String {
    let a: Vec<&str> = expected.lines().collect();
    let b: Vec<&str> = actual.lines().collect();
    // lcs[i][j]: LCS length of a[i..] and b[j..].
    let mut lcs = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let (mut i, mut j, mut out) = (0, 0, String::new());
    while i < a.len() || j < b.len() {
        if i < a.len() && j < b.len() && a[i] == b[j] {
            i += 1;
            j += 1;
        } else if i < a.len() && (j == b.len() || lcs[i + 1][j] >= lcs[i][j + 1]) {
            let _ = writeln!(out, "  -{:>4}: {}", i + 1, a[i]);
            i += 1;
        } else {
            let _ = writeln!(out, "  +{:>4}: {}", j + 1, b[j]);
            j += 1;
        }
    }
    out
}

/// Compares freshly generated `files` against `tests/golden/`. On a
/// mismatch the actual files go to `CARGO_TARGET_TMPDIR/golden/<set>`
/// and the test fails with a line diff plus the `cp` command that
/// accepts them.
fn assert_goldens(set: &str, files: Vec<(String, String)>) {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let actual_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("golden")
        .join(set);
    // Stale files from an earlier failing run must not ride along
    // with the `cp` below.
    let _ = std::fs::remove_dir_all(&actual_dir);
    let mut report = String::new();
    for (name, actual) in files {
        let path = golden_dir.join(&name);
        let expected = std::fs::read_to_string(&path).unwrap_or_default();
        if expected == actual {
            continue;
        }
        std::fs::create_dir_all(&actual_dir).expect("create actual dir");
        std::fs::write(actual_dir.join(&name), &actual).expect("write actual file");
        let _ = writeln!(report, "{name}:\n{}", line_diff(&expected, &actual));
    }
    assert!(
        report.is_empty(),
        "goldens differ:\n{report}\nto accept the new outputs:\n  cp {}/* {}/",
        actual_dir.display(),
        golden_dir.display()
    );
}

#[test]
fn table1_versions_and_frequency_map_match_goldens() {
    assert_goldens("table1", generate_all());
}

#[test]
fn fault_campaigns_match_golden() {
    assert_goldens(
        "fault",
        vec![("fault_campaigns.txt".into(), fault_campaigns(1, 32))],
    );
}

/// Campaign seed of perfbench's held-out benchmark seed 7: SplitMix64
/// of 7, perfbench's `fault_campaign::mix(7)`.
const HELD_OUT_CAMPAIGN_SEED: u64 = 0x63cb_e1e4_5932_0dd7;

/// perfbench's whole `fault_campaign` op at its held-out seed 7:
/// 256 trials per campaign, 3,072 in all.
#[test]
fn held_out_seed_fault_campaigns_match_golden() {
    assert_goldens(
        "fault_seed7",
        vec![(
            "fault_campaigns_seed7.txt".into(),
            fault_campaigns(HELD_OUT_CAMPAIGN_SEED, 256),
        )],
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "28 paper-size launches take ~20 s unoptimized; run with --release"
)]
fn table3_runstats_match_golden() {
    assert_goldens(
        "table3",
        vec![("table3_runstats.txt".into(), table3_runstats())],
    );
}

#[test]
fn line_diff_marks_removed_and_added_lines() {
    let diff = line_diff("a\nb\nc\n", "a\nx\nc\nd\n");
    assert_eq!(diff, "  -   2: b\n  +   2: x\n  +   4: d\n");
    assert!(line_diff("same\n", "same\n").is_empty());
}
