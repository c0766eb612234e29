//! The push-button GPUPlanner flow (the paper's Fig. 2): specify →
//! estimate → explore → logic synthesis → physical synthesis → PPA
//! check.

use crate::cache::StaCache;
use crate::dse::{apply_plan, optimize_for_with, DseError, OptimizationPlan};
use crate::spec::Specification;
use ggpu_kernels::suite_threads;
use ggpu_netlist::Design;
use ggpu_pnr::{place_and_route, Layout, PnrError};
use ggpu_rtl::{generate, ConfigError, GgpuConfig};
use ggpu_sta::max_frequency;
use ggpu_synth::{synthesize, SynthesisError, SynthesisReport};
use ggpu_tech::units::Mhz;
use ggpu_tech::Tech;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// Maps `job(0..jobs)` across `threads` scoped workers, returning the
/// results in job order (as if mapped sequentially).
///
/// Work is handed out through an atomic index, so long jobs do not
/// stall the queue behind them. With `threads <= 1` this degenerates
/// to a plain sequential map with zero thread overhead.
pub(crate) fn parallel_map<T, F>(jobs: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || jobs <= 1 {
        return (0..jobs).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(jobs));
    thread::scope(|scope| {
        for _ in 0..threads.min(jobs) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let out = job(i);
                results.lock().expect("worker poisoned").push((i, out));
            });
        }
    });
    let mut collected = results.into_inner().expect("worker poisoned");
    collected.sort_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, v)| v).collect()
}

/// Errors of the end-to-end flow.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The specification's frequency is not finite and positive.
    Frequency(Mhz),
    /// The specification maps to an invalid generator configuration.
    Config(ConfigError),
    /// The exploration could not reach the requested frequency.
    Dse(DseError),
    /// Logic synthesis failed.
    Synthesis(SynthesisError),
    /// Physical synthesis failed.
    Pnr(PnrError),
    /// The pre-flight design lint denied a netlist (generated baseline
    /// or optimized result); the report carries every finding.
    Lint(ggpu_lint::Report),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Frequency(mhz) => {
                write!(f, "frequency {mhz} is not a finite positive clock")
            }
            PlanError::Config(e) => write!(f, "configuration: {e}"),
            PlanError::Dse(e) => write!(f, "exploration: {e}"),
            PlanError::Synthesis(e) => write!(f, "synthesis: {e}"),
            PlanError::Pnr(e) => write!(f, "physical synthesis: {e}"),
            PlanError::Lint(report) => write!(f, "design lint: {report}"),
        }
    }
}

impl Error for PlanError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlanError::Config(e) => Some(e),
            PlanError::Dse(e) => Some(e),
            PlanError::Synthesis(e) => Some(e),
            PlanError::Pnr(e) => Some(e),
            PlanError::Frequency(_) | PlanError::Lint(_) => None,
        }
    }
}

impl From<ConfigError> for PlanError {
    fn from(e: ConfigError) -> Self {
        PlanError::Config(e)
    }
}
impl From<DseError> for PlanError {
    fn from(e: DseError) -> Self {
        PlanError::Dse(e)
    }
}
impl From<SynthesisError> for PlanError {
    fn from(e: SynthesisError) -> Self {
        PlanError::Synthesis(e)
    }
}
impl From<PnrError> for PlanError {
    fn from(e: PnrError) -> Self {
        PlanError::Pnr(e)
    }
}

/// First-order PPA estimate produced before committing to synthesis
/// (the flow's "contrast specification with technology
/// characteristics" phase).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpaEstimate {
    /// Maximum frequency of the unoptimized netlist.
    pub baseline_fmax: Mhz,
    /// Estimated total area after optimization, mm².
    pub est_area_mm2: f64,
    /// Estimated total power at the requested clock, W.
    pub est_power_w: f64,
    /// Whether the requested frequency looks reachable by the map's
    /// strategies.
    pub likely_feasible: bool,
}

/// A version after exploration and logic synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedVersion {
    /// The originating specification.
    pub spec: Specification,
    /// The generator configuration used.
    pub config: GgpuConfig,
    /// The optimized netlist.
    pub design: Design,
    /// The optimization recipe.
    pub plan: OptimizationPlan,
    /// The logic-synthesis report (one Table-I row).
    pub synthesis: SynthesisReport,
    /// The map's advice trace.
    pub trace: Vec<String>,
}

/// A version after physical synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct ImplementedVersion {
    /// The planned version this layout implements.
    pub planned: PlannedVersion,
    /// The finished layout.
    pub layout: Layout,
    /// `true` if the layout meets the specification (timing and any
    /// PPA ceilings).
    pub within_spec: bool,
}

impl ImplementedVersion {
    /// The clock the silicon would actually run at.
    pub fn achieved_clock(&self) -> Mhz {
        self.layout.achieved_clock
    }
}

/// The automated flow.
#[derive(Debug, Clone)]
pub struct GpuPlanner {
    tech: Tech,
    sta_cache: Arc<StaCache>,
}

impl GpuPlanner {
    /// A planner over the given technology.
    pub fn new(tech: Tech) -> Self {
        Self {
            tech,
            sta_cache: Arc::new(StaCache::new()),
        }
    }

    /// The technology in use.
    pub fn tech(&self) -> &Tech {
        &self.tech
    }

    /// The planner's STA memo table. Clones of a planner share it, so
    /// parallel workers and successive sweeps reuse each other's
    /// analyses; inspect [`StaCache::hits`]/[`StaCache::misses`] for
    /// effectiveness.
    pub fn sta_cache(&self) -> &StaCache {
        &self.sta_cache
    }

    /// Pre-flight static gate: rejects a netlist with deny-level
    /// design-lint findings before spending synthesis effort on it
    /// (and before trusting its sweep numbers).
    fn lint_gate(design: &Design) -> Result<(), PlanError> {
        let report = ggpu_lint::lint_design(design, &ggpu_lint::LintConfig::new());
        if report.denial_count() > 0 {
            return Err(PlanError::Lint(report));
        }
        Ok(())
    }

    pub(crate) fn config_for(&self, spec: &Specification) -> Result<GgpuConfig, PlanError> {
        // A clock period exists only for a finite positive frequency;
        // anything else would panic in `Mhz::period` downstream.
        let mhz = spec.frequency.value();
        if !(mhz.is_finite() && mhz > 0.0) {
            return Err(PlanError::Frequency(spec.frequency));
        }
        let cfg = GgpuConfig {
            compute_units: spec.compute_units,
            memory_controllers: spec.memory_controllers,
            ..GgpuConfig::default()
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// First-order PPA estimation for a specification, without running
    /// the full exploration.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if the specification is invalid or the
    /// baseline cannot be synthesized.
    pub fn estimate(&self, spec: &Specification) -> Result<PpaEstimate, PlanError> {
        let config = self.config_for(spec)?;
        let design = generate(&config)?;
        let report = synthesize(&design, &self.tech, spec.frequency)?;
        let baseline_fmax = max_frequency(&design, &self.tech)
            .map_err(SynthesisError::from)?
            .unwrap_or(spec.frequency);
        // Optimization overhead heuristic: the paper measured ~10 %
        // area going 500 -> 590 MHz and ~2 % more to 667 MHz.
        let stretch = (spec.frequency.value() / baseline_fmax.value() - 1.0).max(0.0);
        let est_area_mm2 = report.stats.total_area().to_mm2() * (1.0 + 0.6 * stretch);
        let est_power_w = report.total_power().to_watts() * (1.0 + 0.9 * stretch);
        Ok(PpaEstimate {
            baseline_fmax,
            est_area_mm2,
            est_power_w,
            // The division strategy runs out of steam as macros reach
            // the compiler's minimum size; ~1.45x the baseline fmax is
            // where the 65 nm map saturates.
            likely_feasible: spec.frequency.value() <= baseline_fmax.value() * 1.45,
        })
    }

    /// Explores and logic-synthesizes one specification.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if the specification is invalid, the
    /// frequency is unreachable, or synthesis fails.
    pub fn plan(&self, spec: &Specification) -> Result<PlannedVersion, PlanError> {
        let config = self.config_for(spec)?;
        let base = generate(&config)?;
        Self::lint_gate(&base)?;
        let optimized = optimize_for_with(&base, &self.tech, spec.frequency, &self.sta_cache)?;
        let mut design = optimized.design;
        design.set_name(format!(
            "ggpu_{}cu_{:.0}mhz",
            spec.compute_units,
            spec.frequency.value()
        ));
        Self::lint_gate(&design)?;
        let synthesis = synthesize(&design, &self.tech, spec.frequency)?;
        Ok(PlannedVersion {
            spec: *spec,
            config,
            design,
            plan: optimized.plan,
            synthesis,
            trace: optimized.trace,
        })
    }

    /// Runs physical synthesis on a planned version and checks the
    /// result against the specification's ceilings.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Pnr`] if the physical flow fails
    /// structurally (timing misses do not error — they surface as
    /// `within_spec == false` with a reduced achieved clock, exactly
    /// like the paper's 8-CU 667 MHz version closing at 600 MHz).
    pub fn implement(&self, planned: &PlannedVersion) -> Result<ImplementedVersion, PlanError> {
        let layout = place_and_route(&planned.design, &self.tech, planned.spec.frequency)?;
        let area = planned.synthesis.stats.total_area().to_mm2();
        let power = planned.synthesis.total_power().to_watts();
        let area_ok = planned.spec.max_area_mm2.is_none_or(|max| area <= max);
        let power_ok = planned.spec.max_power_w.is_none_or(|max| power <= max);
        let within_spec = layout.meets_timing && area_ok && power_ok;
        Ok(ImplementedVersion {
            planned: planned.clone(),
            layout,
            within_spec,
        })
    }

    /// The "single push of a button": plans and implements a whole
    /// list of specifications, returning per-version results in spec
    /// order.
    ///
    /// Versions are independent, so they are planned on
    /// [`suite_threads`] scoped threads (override with the
    /// `GGPU_THREADS` environment variable); all workers share this
    /// planner's [`StaCache`].
    pub fn run(&self, specs: &[Specification]) -> Vec<Result<ImplementedVersion, PlanError>> {
        self.run_with_threads(specs, suite_threads(specs.len()))
    }

    /// [`GpuPlanner::run`] on an explicit number of worker threads
    /// (`1` forces the sequential reference behavior).
    pub fn run_with_threads(
        &self,
        specs: &[Specification],
        threads: usize,
    ) -> Vec<Result<ImplementedVersion, PlanError>> {
        parallel_map(specs.len(), threads, |i| {
            self.plan(&specs[i]).and_then(|p| self.implement(&p))
        })
    }

    /// Searches the version space ({1..=8} CUs x the technology's
    /// worthwhile frequency points) for the highest-throughput version
    /// that fits the given area and power ceilings, where throughput
    /// is the compute proxy `CUs x frequency`.
    ///
    /// Returns `None` if no version fits. Unreachable frequencies are
    /// skipped, not errors.
    ///
    /// The 24 design points are independent, so they are planned on
    /// [`suite_threads`] scoped threads (override with the
    /// `GGPU_THREADS` environment variable) sharing this planner's
    /// [`StaCache`]; the winner is then selected by a deterministic
    /// sequential reduction in `(CUs, frequency)` order, so the result
    /// is identical to the single-threaded search.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] only for structural failures (invalid
    /// configurations, synthesis errors).
    pub fn best_within(
        &self,
        max_area_mm2: f64,
        max_power_w: f64,
    ) -> Result<Option<PlannedVersion>, PlanError> {
        let points = Self::sweep_points();
        let threads = suite_threads(points.len());
        self.best_within_with_threads(max_area_mm2, max_power_w, threads)
    }

    /// The `(CU count, frequency)` grid [`GpuPlanner::best_within`]
    /// sweeps: {1..=8} CUs x the paper's frequency points, in search
    /// order.
    pub fn sweep_points() -> Vec<(u32, f64)> {
        (1..=8u32)
            .flat_map(|cus| {
                crate::versions::PAPER_FREQUENCIES_MHZ
                    .iter()
                    .map(move |&mhz| (cus, mhz))
            })
            .collect()
    }

    /// [`GpuPlanner::best_within`] on an explicit number of worker
    /// threads (`1` forces the sequential reference behavior). The
    /// winner does not depend on `threads`.
    ///
    /// Delegates to the sweep-campaign engine
    /// ([`GpuPlanner::sweep`]) with no checkpoint, which is
    /// bit-identical to the pre-campaign reduction; use
    /// [`crate::sweep::SweepConfig`] directly for crash-safe resumable
    /// sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] only for structural failures (invalid
    /// configurations, synthesis errors).
    pub fn best_within_with_threads(
        &self,
        max_area_mm2: f64,
        max_power_w: f64,
        threads: usize,
    ) -> Result<Option<PlannedVersion>, PlanError> {
        let config =
            crate::sweep::SweepConfig::budgets(max_area_mm2, max_power_w).with_threads(threads);
        match self.sweep(&config) {
            Ok(report) => Ok(report.winner),
            Err(crate::sweep::SweepError::Plan(e)) => Err(e),
            Err(crate::sweep::SweepError::Io(_) | crate::sweep::SweepError::Checkpoint(_)) => {
                unreachable!("no checkpoint configured: the sweep never touches the filesystem")
            }
        }
    }

    /// Replays a recorded plan onto a freshly generated baseline —
    /// used to rebuild a version from its recipe.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if the configuration is invalid or the
    /// plan does not apply.
    pub fn rebuild(
        &self,
        spec: &Specification,
        plan: &OptimizationPlan,
    ) -> Result<Design, PlanError> {
        let config = self.config_for(spec)?;
        let base = generate(&config)?;
        Ok(apply_plan(&base, plan)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner() -> GpuPlanner {
        GpuPlanner::new(Tech::l65())
    }

    #[test]
    fn plan_1cu_500_has_empty_recipe() {
        let v = planner()
            .plan(&Specification::new(1, Mhz::new(500.0)))
            .unwrap();
        assert!(v.plan.is_empty());
        assert!(v.synthesis.meets_timing);
        assert_eq!(v.synthesis.stats.macro_count, 51);
    }

    #[test]
    fn plan_1cu_667_meets_timing_with_divisions() {
        let v = planner()
            .plan(&Specification::new(1, Mhz::new(667.0)))
            .unwrap();
        assert!(v.synthesis.meets_timing);
        assert!(!v.plan.divisions.is_empty());
        assert!(v.synthesis.fmax.unwrap().value() >= 667.0);
    }

    #[test]
    fn area_cost_of_optimization_matches_paper_scale() {
        // Paper: +10 % average area 500 -> 590 MHz, +2 % 590 -> 667.
        let p = planner();
        let a500 = p
            .plan(&Specification::new(1, Mhz::new(500.0)))
            .unwrap()
            .synthesis
            .stats
            .total_area()
            .to_mm2();
        let a590 = p
            .plan(&Specification::new(1, Mhz::new(590.0)))
            .unwrap()
            .synthesis
            .stats
            .total_area()
            .to_mm2();
        let a667 = p
            .plan(&Specification::new(1, Mhz::new(667.0)))
            .unwrap()
            .synthesis
            .stats
            .total_area()
            .to_mm2();
        let step1 = a590 / a500;
        let step2 = a667 / a590;
        assert!((1.01..1.25).contains(&step1), "500->590 area x{step1:.3}");
        assert!((1.0..1.10).contains(&step2), "590->667 area x{step2:.3}");
    }

    #[test]
    fn implement_1cu_667_closes() {
        let p = planner();
        let planned = p.plan(&Specification::new(1, Mhz::new(667.0))).unwrap();
        let imp = p.implement(&planned).unwrap();
        assert!(imp.within_spec, "achieved {}", imp.achieved_clock());
        assert_eq!(imp.achieved_clock(), Mhz::new(667.0));
    }

    #[test]
    fn implement_8cu_667_drops_to_about_600() {
        // The paper's headline physical-design finding.
        let p = planner();
        let planned = p.plan(&Specification::new(8, Mhz::new(667.0))).unwrap();
        assert!(planned.synthesis.meets_timing, "logic synthesis closes 667");
        let imp = p.implement(&planned).unwrap();
        assert!(!imp.within_spec, "routes must break 667 MHz post-layout");
        let achieved = imp.achieved_clock().value();
        assert!(
            (540.0..660.0).contains(&achieved),
            "achieved {achieved} MHz, paper: 600"
        );
    }

    #[test]
    fn estimate_is_sane() {
        let est = planner()
            .estimate(&Specification::new(1, Mhz::new(667.0)))
            .unwrap();
        assert!(est.baseline_fmax.value() > 480.0);
        assert!(est.likely_feasible);
        assert!(est.est_area_mm2 > 3.0);
        let too_fast = planner()
            .estimate(&Specification::new(1, Mhz::new(1500.0)))
            .unwrap();
        assert!(!too_fast.likely_feasible);
    }

    #[test]
    fn rebuild_replays_the_recipe() {
        let p = planner();
        let spec = Specification::new(1, Mhz::new(590.0));
        let planned = p.plan(&spec).unwrap();
        let rebuilt = p.rebuild(&spec, &planned.plan).unwrap();
        // The rebuilt design differs only in name.
        let mut renamed = rebuilt;
        renamed.set_name(planned.design.name().to_string());
        assert_eq!(renamed, planned.design);
    }

    #[test]
    fn spec_ceilings_are_enforced() {
        let p = planner();
        let spec = Specification::new(1, Mhz::new(500.0)).with_max_area_mm2(0.5);
        let planned = p.plan(&spec).unwrap();
        let imp = p.implement(&planned).unwrap();
        assert!(!imp.within_spec, "0.5 mm2 ceiling must fail");
    }

    #[test]
    fn lint_gate_rejects_broken_designs() {
        let mut design = generate(&GgpuConfig::default()).unwrap();
        // Sabotage: shrink some macro below the compiler's 16-word
        // minimum. The pre-flight gate must refuse to plan on it.
        let id = design
            .module_ids()
            .find(|&id| !design.module(id).macros.is_empty())
            .expect("generated design has macros");
        design.module_mut(id).macros[0].config.words = 8;
        match GpuPlanner::lint_gate(&design) {
            Err(PlanError::Lint(report)) => {
                assert!(report.has(ggpu_lint::Code::N003), "{report}");
            }
            other => panic!("expected a lint denial, got {other:?}"),
        }
        // The untouched baseline passes the same gate.
        let clean = generate(&GgpuConfig::default()).unwrap();
        assert!(GpuPlanner::lint_gate(&clean).is_ok());
    }

    #[test]
    fn unreachable_frequency_is_an_error() {
        let err = planner()
            .plan(&Specification::new(1, Mhz::new(2000.0)))
            .unwrap_err();
        assert!(matches!(err, PlanError::Dse(DseError::Unreachable { .. })));
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let squares = parallel_map(37, 4, |i| i * i);
        assert_eq!(squares, (0..37).map(|i| i * i).collect::<Vec<_>>());
        // Degenerate thread counts fall back to a sequential map.
        assert_eq!(parallel_map(5, 0, |i| i), vec![0, 1, 2, 3, 4]);
        assert_eq!(parallel_map(0, 8, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn run_parallel_matches_sequential() {
        let p = GpuPlanner::new(Tech::l65());
        let specs = [
            Specification::new(1, Mhz::new(500.0)),
            Specification::new(2, Mhz::new(590.0)),
            Specification::new(1, Mhz::new(2000.0)), // unreachable
            Specification::new(1, Mhz::new(667.0)),
        ];
        let seq = p.run_with_threads(&specs, 1);
        let par = p.run_with_threads(&specs, 4);
        assert_eq!(seq.len(), par.len());
        for (s, q) in seq.iter().zip(&par) {
            assert_eq!(s, q);
        }
        assert!(matches!(par[2], Err(PlanError::Dse(_))));
    }

    #[test]
    fn clones_share_the_sta_cache() {
        let p = GpuPlanner::new(Tech::l65());
        let clone = p.clone();
        clone.plan(&Specification::new(1, Mhz::new(500.0))).unwrap();
        let misses = p.sta_cache().misses();
        assert!(misses > 0, "clone's analyses land in the shared cache");
        // Replanning the same spec is answered from the table.
        p.plan(&Specification::new(1, Mhz::new(500.0))).unwrap();
        assert_eq!(p.sta_cache().misses(), misses);
        assert!(p.sta_cache().hits() > 0);
    }
}

#[cfg(test)]
mod best_within_tests {
    use super::*;

    #[test]
    fn generous_budget_picks_the_biggest_fastest_version() {
        let best = GpuPlanner::new(Tech::l65())
            .best_within(100.0, 100.0)
            .unwrap()
            .expect("something fits");
        assert_eq!(best.spec.compute_units, 8);
        assert!((best.spec.frequency.value() - 667.0).abs() < 1.0);
    }

    #[test]
    fn tight_area_budget_picks_a_small_version() {
        let best = GpuPlanner::new(Tech::l65())
            .best_within(5.0, 100.0)
            .unwrap()
            .expect("a 1-CU version fits in 5 mm2");
        assert_eq!(best.spec.compute_units, 1);
        // Within the area class, the fastest frequency wins.
        assert!(best.spec.frequency.value() >= 590.0);
    }

    #[test]
    fn power_budget_binds_independently_of_area() {
        let best = GpuPlanner::new(Tech::l65())
            .best_within(100.0, 3.5)
            .unwrap()
            .expect("something fits 3.5 W");
        assert!(best.synthesis.total_power().to_watts() <= 3.5);
        assert!(best.spec.compute_units < 8, "8 CUs cannot fit 3.5 W");
    }

    #[test]
    fn impossible_budget_returns_none() {
        assert!(GpuPlanner::new(Tech::l65())
            .best_within(0.5, 0.01)
            .unwrap()
            .is_none());
    }

    #[test]
    fn parallel_search_returns_the_sequential_winner() {
        let p = GpuPlanner::new(Tech::l65());
        let seq = p
            .best_within_with_threads(5.0, 100.0, 1)
            .unwrap()
            .expect("a 1-CU version fits");
        let par = p
            .best_within_with_threads(5.0, 100.0, 4)
            .unwrap()
            .expect("a 1-CU version fits");
        assert_eq!(seq.spec, par.spec);
        assert_eq!(seq.plan, par.plan);
        assert_eq!(seq.synthesis, par.synthesis);
    }
}
