//! Beam-search acceptance: width 1 is the greedy loop, bit for bit;
//! wider beams are never worse, across all 12 Table-I versions.

use ggpu_rtl::{generate, GgpuConfig};
use ggpu_tech::Tech;
use gpuplanner::{optimize_for_with, optimize_with_config, paper_versions, DseConfig, StaCache};

/// Width 1 must be *bit-identical* to greedy on every (CU count,
/// frequency) point of Table I; the goldens under `tests/golden/` pin
/// what greedy itself produces.
#[test]
fn beam_width_1_is_greedy_on_all_12_versions() {
    let tech = Tech::l65();
    let cache = StaCache::new();
    for spec in paper_versions() {
        let base = generate(&GgpuConfig::with_cus(spec.compute_units).unwrap()).unwrap();
        let greedy = optimize_for_with(&base, &tech, spec.frequency, &cache).unwrap();
        let width1 = optimize_with_config(
            &base,
            &tech,
            spec.frequency,
            &cache,
            &DseConfig::with_beam_width(1),
        )
        .unwrap();
        assert_eq!(width1.plan, greedy.plan, "{}", spec.version_name());
        assert_eq!(width1.design, greedy.design, "{}", spec.version_name());
        assert_eq!(width1.trace, greedy.trace, "{}", spec.version_name());
        assert_eq!(
            width1.fmax.value().to_bits(),
            greedy.fmax.value().to_bits(),
            "{}",
            spec.version_name()
        );
    }
}

/// Width 2 must meet every target greedy meets, in no more transform
/// steps (the protected greedy chain guarantees this structurally;
/// this test pins it empirically).
#[test]
fn beam_width_2_is_no_worse_on_all_12_versions() {
    let tech = Tech::l65();
    for spec in paper_versions() {
        let base = generate(&GgpuConfig::with_cus(spec.compute_units).unwrap()).unwrap();
        let greedy = optimize_for_with(&base, &tech, spec.frequency, &StaCache::new()).unwrap();
        let beam = optimize_with_config(
            &base,
            &tech,
            spec.frequency,
            &StaCache::new(),
            &DseConfig::with_beam_width(2),
        )
        .unwrap();
        assert!(
            beam.fmax.value() >= spec.frequency.value(),
            "{}: beam missed the target ({} < {})",
            spec.version_name(),
            beam.fmax,
            spec.frequency
        );
        assert!(
            beam.trace.len() <= greedy.trace.len(),
            "{}: beam used more steps ({} vs {})",
            spec.version_name(),
            beam.trace.len(),
            greedy.trace.len()
        );
        // The plan it found still replays deterministically.
        let replayed = gpuplanner::apply_plan(&base, &beam.plan).unwrap();
        assert_eq!(replayed, beam.design, "{}", spec.version_name());
    }
}
