//! Memoized static timing analysis, shared across design points.
//!
//! `best_within` evaluates 24 (CU count, frequency) points, and the
//! DSE loop behind each point re-times closely related netlists: the
//! three frequency targets of one CU count share the baseline design
//! and every common plan prefix. [`StaCache`] memoizes the STA entry
//! points — `max_frequency`, `analyze` and the incremental
//! `analyze_delta` — keyed by a structural fingerprint of the design
//! (and clock).
//!
//! Two levels of reuse compose here:
//!
//! 1. **Design-level memoization** (this module): a whole-design
//!    fingerprint maps to the finished `Option<Mhz>` / `TimingReport`,
//!    so literally repeated queries are table lookups.
//! 2. **Module-level incrementality** ([`ggpu_sta::IncrementalSta`]):
//!    when the design-level lookup misses — every DSE iteration
//!    produces a structurally new design — the backing engine still
//!    reuses the clock-independent timing of every module whose
//!    content is unchanged, so a transform that touched one module
//!    re-times one module.
//!
//! Both result tables are sharded 16 ways behind `RwLock`s, so the
//! `GGPU_THREADS` sweep workers sharing one cache take read locks on
//! distinct shards instead of serializing on a global mutex.

use ggpu_netlist::{Design, ModuleId};
use ggpu_sta::{analyze, max_frequency, EngineStats, IncrementalSta, StaError, TimingReport};
use ggpu_tech::units::Mhz;
use ggpu_tech::Tech;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Number of independent lock domains per result table; a power of two
/// so the shard index is a mask of the key's low bits.
const SHARDS: usize = 16;

/// A 64-bit structural fingerprint of a design under a technology.
///
/// Built from the design's cached per-module fingerprints
/// ([`Design::structural_fingerprint`]) and the technology's
/// ([`Tech::structural_fingerprint`]), so fingerprinting a warm design
/// is O(module count) — not a Debug-format walk over the full netlist.
/// The design *name* is deliberately excluded: the flow renames
/// optimized designs, and STA output never depends on the name, so
/// excluding it turns renamed-identical designs into cache hits.
///
/// Two designs get the same fingerprint iff their structural contents
/// (modules, cell groups, macro geometries, timing paths, activities)
/// and the technology agree; STA output is a pure function of exactly
/// that input. Collisions are birthday-bounded at ~n²/2⁶⁵ for n
/// distinct designs — negligible for the flow's design counts.
pub fn fingerprint(design: &Design, tech: &Tech) -> u64 {
    let mut h = DefaultHasher::new();
    h.write_u64(design.structural_fingerprint());
    h.write_u64(tech.structural_fingerprint());
    h.finish()
}

/// How a [`StaCache`] answers queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Full memoization: design-level tables backed by the incremental
    /// per-module engine.
    Incremental,
    /// Reference mode: every query recomputes from scratch through
    /// [`ggpu_sta::analyze`] / [`ggpu_sta::max_frequency`], with no
    /// fingerprinting at all. Used by the equivalence property tests.
    Passthrough,
}

/// A thread-safe memo table for STA results, backed by the
/// module-level incremental engine.
///
/// Cloning a [`crate::GpuPlanner`] shares its cache (it is held behind
/// an `Arc`), so parallel workers spawned from one planner all hit the
/// same table.
pub struct StaCache {
    mode: Mode,
    engine: IncrementalSta,
    fmax: [RwLock<HashMap<u64, Option<Mhz>>>; SHARDS],
    reports: [RwLock<HashMap<(u64, u64), TimingReport>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for StaCache {
    fn default() -> Self {
        Self::with_mode(Mode::Incremental)
    }
}

impl fmt::Debug for StaCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StaCache")
            .field("mode", &self.mode)
            .field("entries", &self.entries())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl StaCache {
    fn with_mode(mode: Mode) -> Self {
        Self {
            mode,
            engine: IncrementalSta::new(),
            fmax: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            reports: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache that never caches: every query recomputes through the
    /// full (non-incremental) engine with no fingerprinting. The
    /// reference for the property tests asserting the incremental
    /// path is bit-identical.
    pub fn passthrough() -> Self {
        Self::with_mode(Mode::Passthrough)
    }

    /// Memoized [`ggpu_sta::max_frequency`].
    ///
    /// # Errors
    ///
    /// Propagates [`StaError`] from the underlying analysis (errors
    /// are not cached).
    pub fn max_frequency(&self, design: &Design, tech: &Tech) -> Result<Option<Mhz>, StaError> {
        if self.mode == Mode::Passthrough {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return max_frequency(design, tech);
        }
        let key = fingerprint(design, tech);
        let shard = &self.fmax[(key as usize) & (SHARDS - 1)];
        if let Some(v) = shard.read().expect("sta cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(*v);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = self.engine.max_frequency(design, tech)?;
        shard.write().expect("sta cache poisoned").insert(key, v);
        Ok(v)
    }

    /// Memoized [`ggpu_sta::analyze`] at `clock`.
    ///
    /// # Errors
    ///
    /// Propagates [`StaError`] from the underlying analysis (errors
    /// are not cached).
    pub fn analyze(
        &self,
        design: &Design,
        tech: &Tech,
        clock: Mhz,
    ) -> Result<TimingReport, StaError> {
        self.analyze_inner(design, tech, clock, None)
    }

    /// Incremental [`analyze`](Self::analyze): `dirty` names the
    /// modules mutated since the designs this cache last saw. The
    /// dirty set is advisory — content addressing in the backing
    /// engine guarantees correctness regardless — and is used to audit
    /// transform instrumentation (see
    /// [`ggpu_sta::EngineStats::undeclared_dirty`]).
    ///
    /// # Errors
    ///
    /// Propagates [`StaError`] from the underlying analysis (errors
    /// are not cached).
    pub fn analyze_delta(
        &self,
        design: &Design,
        tech: &Tech,
        clock: Mhz,
        dirty: &[ModuleId],
    ) -> Result<TimingReport, StaError> {
        self.analyze_inner(design, tech, clock, Some(dirty))
    }

    fn analyze_inner(
        &self,
        design: &Design,
        tech: &Tech,
        clock: Mhz,
        dirty: Option<&[ModuleId]>,
    ) -> Result<TimingReport, StaError> {
        if self.mode == Mode::Passthrough {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return analyze(design, tech, clock);
        }
        let fp = fingerprint(design, tech);
        let key = (fp, clock.value().to_bits());
        let shard = &self.reports[(fp as usize) & (SHARDS - 1)];
        if let Some(r) = shard.read().expect("sta cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(r.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let r = match dirty {
            Some(dirty) => self.engine.analyze_delta(design, tech, clock, dirty)?,
            None => self.engine.analyze(design, tech, clock)?,
        };
        shard
            .write()
            .expect("sta cache poisoned")
            .insert(key, r.clone());
        Ok(r)
    }

    /// Number of memoized results (both tables, all shards).
    pub fn entries(&self) -> usize {
        let fmax: usize = self
            .fmax
            .iter()
            .map(|s| s.read().expect("sta cache poisoned").len())
            .sum();
        let reports: usize = self
            .reports
            .iter()
            .map(|s| s.read().expect("sta cache poisoned").len())
            .sum();
        fmax + reports
    }

    /// Analyses answered from the design-level tables.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Analyses actually computed (in passthrough mode, every query).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Counters of the backing module-level incremental engine.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_rtl::{generate, GgpuConfig};

    #[test]
    fn repeated_analyses_hit_the_cache() {
        let tech = Tech::l65();
        let design = generate(&GgpuConfig::with_cus(1).unwrap()).unwrap();
        let cache = StaCache::new();
        let f1 = cache.max_frequency(&design, &tech).unwrap();
        let f2 = cache.max_frequency(&design, &tech).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        let r1 = cache.analyze(&design, &tech, Mhz::new(500.0)).unwrap();
        let r2 = cache.analyze(&design, &tech, Mhz::new(500.0)).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 2);
        // A different clock is a different design-level key, but the
        // backing engine serves it from clock-independent module
        // entries: no new module is timed.
        let timed_before = cache.engine_stats().module_misses;
        let _ = cache.analyze(&design, &tech, Mhz::new(600.0)).unwrap();
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.entries(), 3);
        assert_eq!(cache.engine_stats().module_misses, timed_before);
    }

    #[test]
    fn cached_results_match_direct_calls() {
        let tech = Tech::l65();
        let design = generate(&GgpuConfig::with_cus(2).unwrap()).unwrap();
        let cache = StaCache::new();
        assert_eq!(
            cache.max_frequency(&design, &tech).unwrap(),
            max_frequency(&design, &tech).unwrap()
        );
        assert_eq!(
            cache.analyze(&design, &tech, Mhz::new(590.0)).unwrap(),
            analyze(&design, &tech, Mhz::new(590.0)).unwrap()
        );
    }

    #[test]
    fn fingerprints_separate_structurally_different_designs() {
        let tech = Tech::l65();
        let d1 = generate(&GgpuConfig::with_cus(1).unwrap()).unwrap();
        let d2 = generate(&GgpuConfig::with_cus(2).unwrap()).unwrap();
        assert_ne!(fingerprint(&d1, &tech), fingerprint(&d2, &tech));
        assert_eq!(fingerprint(&d1, &tech), fingerprint(&d1.clone(), &tech));
    }

    #[test]
    fn renamed_design_is_a_cache_hit() {
        let tech = Tech::l65();
        let design = generate(&GgpuConfig::with_cus(1).unwrap()).unwrap();
        let cache = StaCache::new();
        let f1 = cache.max_frequency(&design, &tech).unwrap();
        let mut renamed = design.clone();
        renamed.set_name("ggpu_1cu_optimized");
        let f2 = cache.max_frequency(&renamed, &tech).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn passthrough_never_caches_but_matches() {
        let tech = Tech::l65();
        let design = generate(&GgpuConfig::with_cus(1).unwrap()).unwrap();
        let reference = StaCache::passthrough();
        let f1 = reference.max_frequency(&design, &tech).unwrap();
        let f2 = reference.max_frequency(&design, &tech).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(reference.hits(), 0);
        assert_eq!(reference.misses(), 2);
        assert_eq!(reference.entries(), 0);
        let cached = StaCache::new();
        assert_eq!(cached.max_frequency(&design, &tech).unwrap(), f1);
        assert_eq!(
            cached.analyze(&design, &tech, Mhz::new(590.0)).unwrap(),
            reference.analyze(&design, &tech, Mhz::new(590.0)).unwrap()
        );
    }

    #[test]
    fn analyze_delta_matches_analyze() {
        let tech = Tech::l65();
        let design = generate(&GgpuConfig::with_cus(1).unwrap()).unwrap();
        let cache = StaCache::new();
        let full = cache.analyze(&design, &tech, Mhz::new(590.0)).unwrap();
        let mut variant = design.clone();
        let timed = variant
            .module_ids()
            .find(|&id| !variant.module(id).paths.is_empty())
            .expect("generated design has timing paths");
        variant.module_mut(timed).paths[0].route_delay = ggpu_tech::units::Ns::new(0.05);
        let delta = cache
            .analyze_delta(&variant, &tech, Mhz::new(590.0), &[timed])
            .unwrap();
        let reference = analyze(&variant, &tech, Mhz::new(590.0)).unwrap();
        assert_eq!(delta, reference);
        assert_ne!(delta, full);
        assert_eq!(cache.engine_stats().undeclared_dirty, 0);
    }
}
