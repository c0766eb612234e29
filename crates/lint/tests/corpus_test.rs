//! Seeded-bug corpus: every kernel under `tests/corpus/` carries one
//! planted defect and must be flagged with exactly the lint code the
//! file header documents — no more, no less. This pins both the
//! detection power (the bug is found) and the precision (nothing else
//! fires) of the verifier. Clean twins of the absint corpus pin the
//! other side: idioms near each defect that must pass `--deny warn`.

use ggpu_lint::{verify_asm, verify_shipped, Code, LintConfig, Severity};

/// `(file, source, expected code, denies at the default policy)` for
/// every corpus kernel. The last field is explicit because the absint
/// codes are deny-by-default yet emit *possible*-tier findings capped
/// at warn — the code alone no longer implies the gate.
const CORPUS: [(&str, &str, Code, bool); 19] = [
    (
        "uninit_read.s",
        include_str!("corpus/uninit_read.s"),
        Code::K001,
        false,
    ),
    (
        "uninit_read_one_path.s",
        include_str!("corpus/uninit_read_one_path.s"),
        Code::K001,
        false,
    ),
    (
        "dead_store.s",
        include_str!("corpus/dead_store.s"),
        Code::K002,
        false,
    ),
    (
        "dead_store_overwrite.s",
        include_str!("corpus/dead_store_overwrite.s"),
        Code::K002,
        false,
    ),
    (
        "unreachable_after_jmp.s",
        include_str!("corpus/unreachable_after_jmp.s"),
        Code::K003,
        false,
    ),
    (
        "fallthrough_off_end.s",
        include_str!("corpus/fallthrough_off_end.s"),
        Code::K004,
        true,
    ),
    (
        "branch_fallthrough_off_end.s",
        include_str!("corpus/branch_fallthrough_off_end.s"),
        Code::K004,
        true,
    ),
    (
        "jump_target_oob.s",
        include_str!("corpus/jump_target_oob.s"),
        Code::K005,
        true,
    ),
    (
        "deep_divergence.s",
        include_str!("corpus/deep_divergence.s"),
        Code::K006,
        false,
    ),
    (
        "racey_local_store.s",
        include_str!("corpus/racey_local_store.s"),
        Code::K012,
        true,
    ),
    (
        "divergent_barrier.s",
        include_str!("corpus/divergent_barrier.s"),
        Code::K008,
        true,
    ),
    (
        "divergent_barrier_path_value.s",
        include_str!("corpus/divergent_barrier_path_value.s"),
        Code::K008,
        true,
    ),
    ("empty.s", include_str!("corpus/empty.s"), Code::K009, true),
    (
        "local_oob_proven.s",
        include_str!("corpus/local_oob_proven.s"),
        Code::K010,
        true,
    ),
    (
        "local_oob_possible.s",
        include_str!("corpus/local_oob_possible.s"),
        Code::K010,
        false,
    ),
    (
        "misaligned_proven.s",
        include_str!("corpus/misaligned_proven.s"),
        Code::K011,
        true,
    ),
    (
        "misaligned_possible.s",
        include_str!("corpus/misaligned_possible.s"),
        Code::K011,
        false,
    ),
    (
        "local_race_flow.s",
        include_str!("corpus/local_race_flow.s"),
        Code::K012,
        true,
    ),
    (
        "local_race_possible.s",
        include_str!("corpus/local_race_possible.s"),
        Code::K012,
        false,
    ),
];

/// Clean twins: `(file, source)` pairs sitting right next to a seeded
/// defect that the verifier must prove safe, even under `--deny warn`.
const CLEAN_TWINS: [(&str, &str); 4] = [
    (
        "clean_lane_distinct_store.s",
        include_str!("corpus/clean_lane_distinct_store.s"),
    ),
    (
        "clean_uniform_broadcast_store.s",
        include_str!("corpus/clean_uniform_broadcast_store.s"),
    ),
    (
        "clean_masked_staging.s",
        include_str!("corpus/clean_masked_staging.s"),
    ),
    (
        "clean_aligned_global.s",
        include_str!("corpus/clean_aligned_global.s"),
    ),
];

#[test]
fn every_corpus_kernel_is_flagged_with_its_exact_code() {
    for (file, source, expected, _) in CORPUS {
        let (_, report) = verify_asm(file, source, &LintConfig::new())
            .unwrap_or_else(|e| panic!("{file} must assemble: {e}"));
        assert_eq!(
            report.codes(),
            vec![expected],
            "{file}: expected exactly {expected:?}, got:\n{report}"
        );
    }
}

#[test]
fn corpus_denials_match_documented_tiers() {
    for (file, source, expected, expect_denial) in CORPUS {
        let (_, report) = verify_asm(file, source, &LintConfig::new()).unwrap();
        assert_eq!(
            report.denial_count() > 0,
            expect_denial,
            "{file}: denial gating disagrees with the documented tier of {expected:?}:\n{report}"
        );
        // Under the strict policy every corpus kernel gates.
        let (_, strict) = verify_asm(file, source, &LintConfig::strict()).unwrap();
        assert!(strict.denial_count() > 0, "{file} must gate under strict");
    }
}

#[test]
fn clean_twins_pass_even_under_strict_policy() {
    for (file, source) in CLEAN_TWINS {
        let (_, report) = verify_asm(file, source, &LintConfig::strict())
            .unwrap_or_else(|e| panic!("{file} must assemble: {e}"));
        assert!(report.is_clean(), "{file} must stay clean:\n{report}");
    }
}

#[test]
fn corpus_covers_every_live_kernel_code() {
    let covered: Vec<Code> = {
        let mut v: Vec<Code> = CORPUS.iter().map(|(_, _, c, _)| *c).collect();
        v.sort();
        v.dedup();
        v
    };
    let kernel_codes: Vec<Code> = Code::ALL
        .into_iter()
        .filter(|c| c.as_str().starts_with('K') && !c.retired())
        .collect();
    assert_eq!(
        covered, kernel_codes,
        "corpus must exercise every live K-code"
    );
}

#[test]
fn shipped_kernels_stay_clean_at_default_severity() {
    for report in verify_shipped(&LintConfig::new()) {
        assert!(report.is_clean(), "shipped kernel not clean:\n{report}");
    }
}

#[test]
fn overriding_a_code_to_allow_suppresses_it() {
    let config = LintConfig::new().with_override(Code::K002, Severity::Allow);
    let (file, source, _, _) = CORPUS[2]; // dead_store.s
    let (_, report) = verify_asm(file, source, &config).unwrap();
    assert!(report.is_clean(), "{file} should be silenced:\n{report}");
}
