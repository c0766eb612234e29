//! Memoized static timing analysis, shared across design points.
//!
//! `best_within` evaluates 24 (CU count, frequency) points, and the
//! DSE loop behind each point re-times closely related netlists: the
//! three frequency targets of one CU count share the baseline design
//! and every common plan prefix. [`StaCache`] memoizes the STA entry
//! points — `max_frequency` and `analyze` — keyed by a structural
//! fingerprint of the design and technology (and clock), so a repeated
//! query is a table lookup and a miss runs the full analyzer once.
//!
//! The fingerprint is the only reuse rule: nobody tells the cache what
//! changed, and a transformed design has a new fingerprint, so it
//! misses instead of getting its base's answer.
//!
//! Both result tables are sharded 16 ways behind `RwLock`s, so the
//! `GGPU_THREADS` sweep workers sharing one cache take read locks on
//! distinct shards instead of serializing on a global mutex.

use ggpu_netlist::Design;
use ggpu_sta::{analyze, max_frequency, StaError, TimingReport};
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
    /// Design-level memoization of the full analyzer.
    Memo,
    /// Reference mode: every query recomputes from scratch through
    /// [`ggpu_sta::analyze`] / [`ggpu_sta::max_frequency`], with no
    /// fingerprinting at all. Used by the equivalence property tests.
    Passthrough,
}

/// A thread-safe memo table for STA results.
///
/// Cloning a [`crate::GpuPlanner`] shares its cache (it is held behind
/// an `Arc`), so parallel workers spawned from one planner all hit the
/// same table.
pub struct StaCache {
    mode: Mode,
    fmax: [RwLock<HashMap<u64, Option<Mhz>>>; SHARDS],
    reports: [RwLock<HashMap<(u64, u64), TimingReport>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for StaCache {
    fn default() -> Self {
        Self::with_mode(Mode::Memo)
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
    /// full analyzer with no fingerprinting. The reference for the
    /// property tests asserting the memoized path is bit-identical,
    /// and the supervisor's uncached-STA rung.
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
        let v = max_frequency(design, tech)?;
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
        let r = analyze(design, tech, clock)?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_netlist::module::{MacroInst, MemoryRole, Module};
    use ggpu_netlist::timing::{PathEndpoint, TimingPath};
    use ggpu_rtl::{generate, GgpuConfig};
    use ggpu_tech::sram::{MemoryCompiler, SramConfig, SramParams};

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
        // A different clock is a different key.
        let _ = cache.analyze(&design, &tech, Mhz::new(600.0)).unwrap();
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.entries(), 3);
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
    fn mutated_variant_matches_full_analyze() {
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
        let retimed = cache.analyze(&variant, &tech, Mhz::new(590.0)).unwrap();
        let reference = analyze(&variant, &tech, Mhz::new(590.0)).unwrap();
        assert_eq!(retimed, reference);
        assert_ne!(retimed, full);
    }

    #[test]
    fn two_technologies_never_share_timing() {
        let design = generate(&GgpuConfig::with_cus(1).unwrap()).unwrap();
        let base = Tech::l65();
        let mut slow_sram = SramParams::l65lp();
        slow_sram.t_fixed += 0.25;
        let slow = Tech {
            memory_compiler: MemoryCompiler::new(slow_sram),
            ..Tech::l65()
        };
        let clock = Mhz::new(590.0);
        // One table serves both technologies, in both orders, so a
        // shared key would hand the second query the first's timing.
        let cache = StaCache::new();
        let mut seen = Vec::new();
        for tech in [&base, &slow, &base, &slow] {
            let report = cache.analyze(&design, tech, clock).unwrap();
            let fmax = cache.max_frequency(&design, tech).unwrap().unwrap();
            assert_eq!(report, analyze(&design, tech, clock).unwrap());
            assert_eq!(fmax, max_frequency(&design, tech).unwrap().unwrap());
            seen.push((report, fmax));
        }
        assert_ne!(seen[0].0, seen[1].0, "the SRAM change must move timing");
        assert!(seen[1].1 < seen[0].1, "slower macros must lower fmax");
    }

    #[test]
    fn errors_are_never_memoized() {
        let mut d = Design::new("bad");
        let mut m = Module::new("m");
        m.paths.push(TimingPath::new(
            "ghost_read",
            PathEndpoint::Macro("ghost".into()),
            PathEndpoint::Register,
            vec![],
        ));
        let id = d.add_module(m);
        d.set_top(id);
        let tech = Tech::l65();
        let clock = Mhz::new(500.0);
        let cache = StaCache::new();
        for query in 1..=2 {
            assert!(cache.analyze(&d, &tech, clock).is_err());
            assert!(cache.max_frequency(&d, &tech).is_err());
            assert_eq!(cache.misses(), 2 * query);
            assert_eq!(cache.hits(), 0);
            assert_eq!(cache.entries(), 0);
        }
        // The repaired design has a new fingerprint, and the same
        // cache answers it as the analyzer does.
        d.module_mut(id).macros.push(MacroInst::new(
            "ghost",
            SramConfig::dual(256, 32),
            MemoryRole::ScratchRam,
            0.5,
        ));
        assert_eq!(
            cache.analyze(&d, &tech, clock).unwrap(),
            analyze(&d, &tech, clock).unwrap()
        );
        assert_eq!(
            cache.max_frequency(&d, &tech).unwrap(),
            max_frequency(&d, &tech).unwrap()
        );
    }
}
