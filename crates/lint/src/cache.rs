//! Memoized kernel verification.
//!
//! The DSE loop re-lints the same kernels once per candidate netlist
//! (before/after gates), and `Kernel::from_asm_verified` re-verifies
//! every construction of the same source. The full verifier now runs
//! several fixpoints (dataflow + the abstract interpreter), so
//! repeated identical runs are pure waste: this module keys a
//! process-wide cache on a hash of the program *and* the lint policy
//! and replays the stored [`Report`].
//!
//! Collision discipline: the map key is the pair hash, but each entry
//! stores the full `(program, config)` it was computed from and a
//! lookup re-checks equality — a hash collision degrades to a miss,
//! never to a wrong report.

use crate::diag::{LintConfig, Report};
use crate::kernel::verify_program;
use ggpu_isa::inst::Inst;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Mutex, OnceLock};

/// One memoized verification result.
struct Entry {
    program: Vec<Inst>,
    config: LintConfig,
    report: Report,
}

static CACHE: OnceLock<Mutex<HashMap<u64, Vec<Entry>>>> = OnceLock::new();

fn cache() -> &'static Mutex<HashMap<u64, Vec<Entry>>> {
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn key(program: &[Inst], config: &LintConfig) -> u64 {
    let mut h = DefaultHasher::new();
    program.hash(&mut h);
    config.hash(&mut h);
    h.finish()
}

/// Verifies `program` under `config` with the default launch-agnostic
/// [`crate::absint::AnalysisCtx`], memoized process-wide. The cached
/// report is renamed to `name` on replay, so distinct call sites see
/// their own subject while sharing the analysis work. Callers with
/// exact launch facts use `verify_program_with_ctx` directly — a
/// per-launch context would fragment the cache across launches of the
/// same kernel.
pub fn verify_program_cached(name: &str, program: &[Inst], config: &LintConfig) -> Report {
    let k = key(program, config);
    if let Ok(map) = cache().lock() {
        if let Some(entries) = map.get(&k) {
            if let Some(e) = entries
                .iter()
                .find(|e| e.program == program && e.config == *config)
            {
                let mut report = e.report.clone();
                report.subject = name.to_string();
                return report;
            }
        }
    }
    let report = verify_program(name, program, config);
    if let Ok(mut map) = cache().lock() {
        map.entry(k).or_default().push(Entry {
            program: program.to_vec(),
            config: config.clone(),
            report: report.clone(),
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_isa::asm::assemble;

    #[test]
    fn cache_replays_identical_reports_from_one_entry() {
        // No other test verifies this program, so its key is ours alone.
        let program = assemble("gid r1\nslli r2, r1, 2\nlw r3, r2, 0\nsw r2, r3, 4\nret").unwrap();
        let config = LintConfig::new();
        let a = verify_program_cached("first", &program, &config);
        let b = verify_program_cached("second", &program, &config);
        let entries = cache()
            .lock()
            .unwrap()
            .get(&key(&program, &config))
            .map_or(0, Vec::len);
        assert_eq!(entries, 1, "the second call replays the first entry");
        assert_eq!(a.diagnostics, b.diagnostics);
        assert_eq!(b.subject, "second");
        // Direct verification agrees with the replay.
        let direct = verify_program("second", &program, &config);
        assert_eq!(direct.diagnostics, b.diagnostics);
    }

    #[test]
    fn different_policies_do_not_share_entries() {
        let program = assemble("addi r5, r0, 1\nret").unwrap(); // K002 warn
        let relaxed = verify_program_cached("t", &program, &LintConfig::new());
        let strict = verify_program_cached("t", &program, &LintConfig::strict());
        assert_eq!(relaxed.denial_count(), 0);
        assert_eq!(strict.denial_count(), 1);
    }
}
