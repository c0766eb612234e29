//! Incremental STA engine.
//!
//! [`IncrementalSta`] caches the clock-independent timing of each
//! module (the crate-private `UnclockedPath`) in a content-addressed
//! table keyed by the pair *(module structural fingerprint, technology
//! fingerprint)*. Because the key is derived from the module's
//! contents, invalidation is automatic: any transform that edits a
//! module (memory division, pipeline insertion, route annotation)
//! changes its fingerprint and the stale entry is simply never looked
//! up again. Entries are clock-independent, so an `analyze` at a new
//! clock is a pure cache hit — only slack is re-derived, with the exact
//! floating-point expression the full engine uses. Callers never say
//! which modules changed: the fingerprint is the only reuse rule.
//!
//! The table is sharded 16 ways, each shard behind its own `RwLock`,
//! so `GGPU_THREADS` design-space-exploration workers probing mostly
//! warm entries take read locks on distinct shards instead of
//! serializing on one global mutex.
//!
//! # Bit-identity
//!
//! The engine is a pure memoization of [`crate::analysis::analyze`] /
//! [`crate::analysis::max_frequency`]: per-module results are assembled
//! in arena order before the final slack sort, slack arithmetic is the
//! shared `UnclockedPath::at_period`, and critical selection uses the
//! same strict-less comparison as the report sort.
//! Property tests in the planner crate assert byte-identical reports
//! and plans between this engine and the full recompute.

use crate::analysis::{
    fmax_of_critical, select_critical, slack_order, time_module, StaError, UnclockedPath,
    FMAX_PROBE,
};
use crate::report::{PathTiming, TimingReport};
use ggpu_netlist::{Design, ModuleId};
use ggpu_tech::units::Mhz;
use ggpu_tech::Tech;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Number of independent lock domains in the timed-module table. A
/// power of two so the shard index is a mask of the key's low bits.
const SHARDS: usize = 16;

/// Counters describing the engine's cache behaviour. All counters are
/// cumulative and monotone over the engine's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Module timings served from the content-addressed table.
    pub module_hits: u64,
    /// Module timings computed (and inserted) on demand.
    pub module_misses: u64,
    /// `analyze` calls.
    pub analyze_calls: u64,
    /// `max_frequency` calls.
    pub fmax_calls: u64,
}

impl EngineStats {
    /// Hit rate over module lookups, in `0.0..=1.0`; zero when no
    /// lookups have happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.module_hits + self.module_misses;
        if total == 0 {
            0.0
        } else {
            self.module_hits as f64 / total as f64
        }
    }
}

/// Content-addressed, sharded cache of per-module clock-independent
/// timing results.
///
/// See the [module documentation](crate::engine) for the caching
/// scheme and identity guarantees.
#[derive(Debug)]
pub struct IncrementalSta {
    shards: [RwLock<HashMap<u64, Arc<Vec<UnclockedPath>>>>; SHARDS],
    module_hits: AtomicU64,
    module_misses: AtomicU64,
    analyze_calls: AtomicU64,
    fmax_calls: AtomicU64,
}

impl Default for IncrementalSta {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalSta {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            module_hits: AtomicU64::new(0),
            module_misses: AtomicU64::new(0),
            analyze_calls: AtomicU64::new(0),
            fmax_calls: AtomicU64::new(0),
        }
    }

    /// Cache key for one module under one technology. The tech
    /// fingerprint is hoisted out by the public entry points (one tech
    /// hash per query, not one per module).
    fn key(design: &Design, id: ModuleId, tech_fp: u64) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        design.module_fingerprint(id).hash(&mut h);
        tech_fp.hash(&mut h);
        h.finish()
    }

    /// Looks up (or computes and inserts) the clock-independent timing
    /// of module `id`.
    fn timed_module(
        &self,
        design: &Design,
        id: ModuleId,
        tech: &Tech,
        tech_fp: u64,
    ) -> Result<Arc<Vec<UnclockedPath>>, StaError> {
        let key = Self::key(design, id, tech_fp);
        let shard = &self.shards[(key as usize) & (SHARDS - 1)];
        if let Some(hit) = shard
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.module_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        // Compute outside the lock; a racing duplicate compute is
        // benign (results are content-derived and identical).
        let timed = Arc::new(time_module(design, id, tech)?);
        self.module_misses.fetch_add(1, Ordering::Relaxed);
        let mut w = shard.write().unwrap_or_else(PoisonError::into_inner);
        let entry = w.entry(key).or_insert_with(|| Arc::clone(&timed));
        Ok(Arc::clone(entry))
    }

    /// Full analysis through the cache: byte-identical to
    /// [`crate::analyze`], but each module whose content was timed
    /// before (under this technology) is a table lookup. Per-module
    /// results are assembled in arena order, slack is derived per path,
    /// then one global sort runs — the exact pipeline of the full
    /// engine, so tie ordering matches.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::analyze`].
    pub fn analyze(
        &self,
        design: &Design,
        tech: &Tech,
        clock: Mhz,
    ) -> Result<TimingReport, StaError> {
        self.analyze_calls.fetch_add(1, Ordering::Relaxed);
        let period = clock.period();
        let tech_fp = tech.structural_fingerprint();
        let mut paths = Vec::new();
        for id in design.module_ids() {
            let timed = self.timed_module(design, id, tech, tech_fp)?;
            paths.extend(timed.iter().map(|up| up.at_period(period)));
        }
        paths.sort_by(slack_order);
        Ok(TimingReport::new(clock, paths))
    }

    /// Maximum clock frequency through the cache: top-1 selection over
    /// cached clock-independent paths, byte-identical to
    /// [`crate::max_frequency`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::max_frequency`].
    pub fn max_frequency(&self, design: &Design, tech: &Tech) -> Result<Option<Mhz>, StaError> {
        self.fmax_calls.fetch_add(1, Ordering::Relaxed);
        let period = FMAX_PROBE.period();
        let tech_fp = tech.structural_fingerprint();
        let mut crit: Option<PathTiming> = None;
        for id in design.module_ids() {
            let timed = self.timed_module(design, id, tech, tech_fp)?;
            let module_crit = select_critical(timed.iter().map(|up| up.at_period(period)));
            if let Some(p) = module_crit {
                let better = match &crit {
                    None => true,
                    Some(c) => slack_order(&p, c).is_lt(),
                };
                if better {
                    crit = Some(p);
                }
            }
        }
        crit.as_ref().map(fmax_of_critical).transpose()
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            module_hits: self.module_hits.load(Ordering::Relaxed),
            module_misses: self.module_misses.load(Ordering::Relaxed),
            analyze_calls: self.analyze_calls.load(Ordering::Relaxed),
            fmax_calls: self.fmax_calls.load(Ordering::Relaxed),
        }
    }

    /// Number of cached module timings across all shards.
    pub fn cached_modules(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, max_frequency};
    use ggpu_netlist::module::{MacroInst, MemoryRole, Module};
    use ggpu_netlist::timing::{LogicStage, PathEndpoint, TimingPath};
    use ggpu_tech::sram::SramConfig;
    use ggpu_tech::stdcell::CellClass;
    use ggpu_tech::units::Ns;

    fn demo_design() -> Design {
        let mut d = Design::new("demo");
        let mut pe = Module::new("pe");
        pe.macros.push(MacroInst::new(
            "rf",
            SramConfig::dual(1024, 32),
            MemoryRole::RegisterFile,
            0.7,
        ));
        pe.paths.push(TimingPath::new(
            "rf_read",
            PathEndpoint::Macro("rf".into()),
            PathEndpoint::Register,
            LogicStage::chain(CellClass::Nand2, 5, 2),
        ));
        pe.paths.push(TimingPath::new(
            "alu",
            PathEndpoint::Register,
            PathEndpoint::Register,
            LogicStage::chain(CellClass::FullAdder, 8, 2),
        ));
        let pe_id = d.add_module(pe);
        let mut cu = Module::new("cu");
        cu.children.push(ggpu_netlist::module::Instance {
            name: "pe0".into(),
            module: pe_id,
        });
        cu.paths.push(TimingPath::new(
            "sched",
            PathEndpoint::Register,
            PathEndpoint::Register,
            LogicStage::chain(CellClass::Nand2, 10, 3),
        ));
        let cu_id = d.add_module(cu);
        d.set_top(cu_id);
        d
    }

    #[test]
    fn engine_matches_full_analyze_bit_for_bit() {
        let d = demo_design();
        let tech = Tech::l65();
        let engine = IncrementalSta::new();
        for mhz in [333.0, 590.0, 667.0, 804.0] {
            let clock = Mhz::new(mhz);
            let full = analyze(&d, &tech, clock).unwrap();
            let inc = engine.analyze(&d, &tech, clock).unwrap();
            assert_eq!(full, inc, "reports diverge at {mhz} MHz");
            for (a, b) in full.paths().iter().zip(inc.paths()) {
                assert_eq!(a.slack.value().to_bits(), b.slack.value().to_bits());
            }
        }
    }

    #[test]
    fn engine_matches_full_fmax_bit_for_bit() {
        let d = demo_design();
        let tech = Tech::l65();
        let engine = IncrementalSta::new();
        let full = max_frequency(&d, &tech).unwrap().unwrap();
        let inc = engine.max_frequency(&d, &tech).unwrap().unwrap();
        assert_eq!(full.value().to_bits(), inc.value().to_bits());
    }

    #[test]
    fn second_analysis_is_all_hits() {
        let d = demo_design();
        let tech = Tech::l65();
        let engine = IncrementalSta::new();
        engine.analyze(&d, &tech, Mhz::new(500.0)).unwrap();
        let after_first = engine.stats();
        assert_eq!(after_first.module_misses, 2);
        assert_eq!(after_first.module_hits, 0);
        // Different clock: still a pure hit — entries are
        // clock-independent.
        engine.analyze(&d, &tech, Mhz::new(667.0)).unwrap();
        let after_second = engine.stats();
        assert_eq!(after_second.module_misses, 2);
        assert_eq!(after_second.module_hits, 2);
        assert_eq!(engine.cached_modules(), 2);
    }

    #[test]
    fn mutation_invalidates_only_touched_module() {
        let mut d = demo_design();
        let tech = Tech::l65();
        let engine = IncrementalSta::new();
        engine.analyze(&d, &tech, Mhz::new(500.0)).unwrap();
        let top = d.top();
        d.module_mut(top).paths[0].route_delay = Ns::new(0.2);
        let report = engine.analyze(&d, &tech, Mhz::new(500.0)).unwrap();
        let full = analyze(&d, &tech, Mhz::new(500.0)).unwrap();
        assert_eq!(report, full);
        let stats = engine.stats();
        // pe hit, cu (mutated) missed.
        assert_eq!(stats.module_misses, 3);
        assert_eq!(stats.module_hits, 1);
    }

    #[test]
    fn identical_module_content_shares_entries_across_designs() {
        let tech = Tech::l65();
        let engine = IncrementalSta::new();
        let d1 = demo_design();
        engine.analyze(&d1, &tech, Mhz::new(500.0)).unwrap();
        // Same structure, different design name (the flow renames
        // optimized designs): every module must hit.
        let mut d2 = demo_design();
        d2.set_name("demo_opt");
        engine.analyze(&d2, &tech, Mhz::new(500.0)).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.module_misses, 2);
        assert_eq!(stats.module_hits, 2);
    }

    #[test]
    fn errors_are_propagated_not_cached() {
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
        let engine = IncrementalSta::new();
        let tech = Tech::l65();
        assert!(engine.analyze(&d, &tech, Mhz::new(500.0)).is_err());
        // Fix the module; the repaired content is a fresh key and must
        // succeed.
        d.module_mut(id).macros.push(MacroInst::new(
            "ghost",
            SramConfig::dual(256, 32),
            MemoryRole::ScratchRam,
            0.5,
        ));
        assert!(engine.analyze(&d, &tech, Mhz::new(500.0)).is_ok());
    }

    #[test]
    fn hit_rate_reporting() {
        let stats = EngineStats {
            module_hits: 3,
            module_misses: 1,
            ..Default::default()
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(EngineStats::default().hit_rate(), 0.0);
    }
}
