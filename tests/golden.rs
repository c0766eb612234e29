//! Golden outputs of the 12 Table-I versions and the 1-CU@667 MHz
//! frequency map, regenerated on every run and compared byte for byte
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

use g_gpu::planner::{
    datasheet, frequency_map, map_to_csv, paper_versions, GpuPlanner, Specification,
};
use g_gpu::rtl::{generate, GgpuConfig};
use g_gpu::tech::units::Mhz;
use g_gpu::tech::Tech;
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

#[test]
fn table1_versions_and_frequency_map_match_goldens() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let actual_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
    // Stale files from an earlier failing run must not ride along
    // with the `cp` below.
    let _ = std::fs::remove_dir_all(&actual_dir);
    let mut report = String::new();
    for (name, actual) in generate_all() {
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
fn line_diff_marks_removed_and_added_lines() {
    let diff = line_diff("a\nb\nc\n", "a\nx\nc\nd\n");
    assert_eq!(diff, "  -   2: b\n  +   2: x\n  +   4: d\n");
    assert!(line_diff("same\n", "same\n").is_empty());
}
