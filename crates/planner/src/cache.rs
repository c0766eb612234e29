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
//! distinct shards instead of serializing on a global mutex. A shard's
//! only update is one insert of a finished result, so a lock poisoned
//! by a panicking holder still guards a valid table, and the cache
//! keeps answering through it.

use ggpu_netlist::Design;
use ggpu_sta::{analyze, max_frequency, StaError, TimingReport};
use ggpu_tech::units::Mhz;
use ggpu_tech::Tech;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

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

/// A read guard on `shard`, poisoned or not.
fn read<T>(shard: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    shard.read().unwrap_or_else(PoisonError::into_inner)
}

/// A write guard on `shard`, poisoned or not.
fn write<T>(shard: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    shard.write().unwrap_or_else(PoisonError::into_inner)
}

/// A thread-safe memo table for STA results.
///
/// Cloning a [`crate::GpuPlanner`] shares its cache (it is held behind
/// an `Arc`), so parallel workers spawned from one planner all hit the
/// same table.
#[derive(Default)]
pub struct StaCache {
    fmax: [RwLock<HashMap<u64, Option<Mhz>>>; SHARDS],
    reports: [RwLock<HashMap<(u64, u64), TimingReport>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl fmt::Debug for StaCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StaCache")
            .field("entries", &self.entries())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl StaCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Memoized [`ggpu_sta::max_frequency`].
    ///
    /// # Errors
    ///
    /// Propagates [`StaError`] from the underlying analysis (errors
    /// are not cached).
    pub fn max_frequency(&self, design: &Design, tech: &Tech) -> Result<Option<Mhz>, StaError> {
        let key = fingerprint(design, tech);
        let shard = &self.fmax[(key as usize) & (SHARDS - 1)];
        if let Some(v) = read(shard).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(*v);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = max_frequency(design, tech)?;
        write(shard).insert(key, v);
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
        let fp = fingerprint(design, tech);
        let key = (fp, clock.value().to_bits());
        let shard = &self.reports[(fp as usize) & (SHARDS - 1)];
        if let Some(r) = read(shard).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(r.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let r = analyze(design, tech, clock)?;
        write(shard).insert(key, r.clone());
        Ok(r)
    }

    /// Number of memoized results (both tables, all shards).
    pub fn entries(&self) -> usize {
        let fmax: usize = self.fmax.iter().map(|s| read(s).len()).sum();
        let reports: usize = self.reports.iter().map(|s| read(s).len()).sum();
        fmax + reports
    }

    /// Analyses answered from the design-level tables.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Analyses actually computed.
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
    fn poisoned_shards_still_answer() {
        let tech = Tech::l65();
        let clock = Mhz::new(590.0);
        let warm = generate(&GgpuConfig::with_cus(1).unwrap()).unwrap();
        let cold = generate(&GgpuConfig::with_cus(2).unwrap()).unwrap();
        let cache = StaCache::new();
        let fmax = cache.max_frequency(&warm, &tech).unwrap();
        let report = cache.analyze(&warm, &tech, clock).unwrap();
        // A thread panics while it holds every write guard of both
        // tables, poisoning all 32 shards.
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _fmax: Vec<_> = cache.fmax.iter().map(|s| s.write().unwrap()).collect();
                let _reports: Vec<_> = cache.reports.iter().map(|s| s.write().unwrap()).collect();
                panic!("worker died holding the cache");
            })
            .join()
            .is_err()
        });
        assert!(panicked);
        assert!(cache.fmax.iter().all(RwLock::is_poisoned));
        assert!(cache.reports.iter().all(RwLock::is_poisoned));
        // Hits still answer...
        assert_eq!(cache.max_frequency(&warm, &tech).unwrap(), fmax);
        assert_eq!(cache.analyze(&warm, &tech, clock).unwrap(), report);
        assert_eq!(cache.hits(), 2);
        // ...and misses still compute and are memoized.
        assert_eq!(
            cache.max_frequency(&cold, &tech).unwrap(),
            max_frequency(&cold, &tech).unwrap()
        );
        assert_eq!(
            cache.analyze(&cold, &tech, clock).unwrap(),
            analyze(&cold, &tech, clock).unwrap()
        );
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.entries(), 4);
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
