//! The design-space-exploration loop: iterate the frequency map's
//! advice until the target frequency is met.
//!
//! Since the transactional refactor, a DSE candidate is a
//! *transaction* on a [`crate::TransformJournal`], not a clone: the
//! greedy loop keeps one copy-on-write working design and moves it
//! between candidate plans by reverting/re-applying only the actions
//! that differ. The checked-in goldens (`tests/golden/`) pin its
//! plans, traces, fmax bit patterns and netlists for all 12 Table-I
//! versions.

use crate::cache::StaCache;
use crate::journal::TransformJournal;
use crate::map::{advise_delta, advise_with, Advice};
use ggpu_lint::Report;
use ggpu_netlist::{Design, ModuleId};
use ggpu_sta::StaError;
use ggpu_synth::{DivideAxis, TransformError};
use ggpu_tech::units::Mhz;
use ggpu_tech::Tech;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// One concrete optimization action in a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Divide the named macro (original, pre-division name) into
    /// `factor` parts.
    Divide {
        /// Module owning the macro.
        module: String,
        /// Original macro name in the generated netlist.
        macro_name: String,
        /// Total division factor (power of two).
        factor: u32,
        /// Division axis.
        axis: DivideAxis,
    },
    /// Insert a pipeline register at the midpoint of the named path.
    Pipeline {
        /// Module owning the path.
        module: String,
        /// Path name at the time of insertion (halves of earlier
        /// insertions carry `__p0`/`__p1` suffixes).
        path: String,
    },
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Divide {
                module,
                macro_name,
                factor,
                axis,
            } => write!(f, "divide {module}/{macro_name} x{factor} ({axis})"),
            Action::Pipeline { module, path } => write!(f, "pipeline {module}/{path}"),
        }
    }
}

/// A reproducible optimization recipe: division factors per macro plus
/// an ordered list of pipeline insertions. Applying the same plan to a
/// freshly generated baseline yields the same optimized netlist, which
/// is how GPUPlanner regenerates versions "from a single push of a
/// button".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OptimizationPlan {
    /// Total division factor per `(module, macro)`.
    pub divisions: BTreeMap<(String, String), u32>,
    /// Pipeline insertions in application order.
    pub pipelines: Vec<(String, String)>,
}

impl OptimizationPlan {
    /// `true` if the plan performs no work.
    pub fn is_empty(&self) -> bool {
        self.divisions.is_empty() && self.pipelines.is_empty()
    }

    /// All actions of the plan in canonical application order:
    /// divisions in `BTreeMap` key order, then pipelines in insertion
    /// order. The journal's rebase diffs exactly this list.
    pub fn actions(&self) -> Vec<Action> {
        let mut out: Vec<Action> = self
            .divisions
            .iter()
            .map(|((module, macro_name), factor)| Action::Divide {
                module: module.clone(),
                macro_name: macro_name.clone(),
                factor: *factor,
                axis: DivideAxis::Words,
            })
            .collect();
        out.extend(
            self.pipelines
                .iter()
                .map(|(module, path)| Action::Pipeline {
                    module: module.clone(),
                    path: path.clone(),
                }),
        );
        out
    }
}

/// Errors of the DSE loop.
#[derive(Debug, Clone, PartialEq)]
pub enum DseError {
    /// A transform failed to apply.
    Transform(TransformError),
    /// Timing analysis failed.
    Sta(StaError),
    /// The target frequency is not reachable; the error carries the
    /// best frequency found.
    Unreachable {
        /// The requested frequency.
        target: Mhz,
        /// The best fmax achieved before getting stuck.
        best: Mhz,
    },
    /// A plan refers to a module missing from the design.
    UnknownModule(String),
    /// A transform step broke a flow invariant (memory division must
    /// preserve total macro bits, pipeline insertion must preserve
    /// macro timing endpoints); the report carries every finding.
    FlowInvariant(Report),
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::Transform(e) => write!(f, "transform: {e}"),
            DseError::Sta(e) => write!(f, "timing: {e}"),
            DseError::Unreachable { target, best } => {
                write!(f, "target {target:.0} unreachable; best {best:.0}")
            }
            DseError::UnknownModule(m) => write!(f, "plan references unknown module {m}"),
            DseError::FlowInvariant(report) => {
                write!(f, "flow invariant violated: {report}")
            }
        }
    }
}

impl Error for DseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DseError::Transform(e) => Some(e),
            DseError::Sta(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransformError> for DseError {
    fn from(e: TransformError) -> Self {
        DseError::Transform(e)
    }
}

impl From<StaError> for DseError {
    fn from(e: StaError) -> Self {
        DseError::Sta(e)
    }
}

/// Strips one `_d<digits>` division suffix, recovering the original
/// macro name a plan keys on.
pub(crate) fn original_macro_name(name: &str) -> &str {
    if let Some(pos) = name.rfind("_d") {
        if name[pos + 2..].chars().all(|c| c.is_ascii_digit()) && !name[pos + 2..].is_empty() {
            return &name[..pos];
        }
    }
    name
}

/// Applies `plan` to a fresh copy of `base`.
///
/// A division names one macro (the one on the representative timing
/// path), but is applied to *every* sibling bank of the same structure
/// (same name stem and geometry) — all banks of a divided memory fail
/// timing identically, and the paper's flow divides the structure, not
/// one bank.
///
/// # Errors
///
/// Returns [`DseError`] if a transform fails or a module is missing.
pub fn apply_plan(base: &Design, plan: &OptimizationPlan) -> Result<Design, DseError> {
    Ok(apply_plan_dirty(base, plan)?.0)
}

/// [`apply_plan`], additionally reporting which modules the plan
/// mutated (in ascending id order, deduplicated).
///
/// Module ids are arena indices and stable across [`Design::clone`],
/// so the returned set is valid against both `base` and the returned
/// design — it is exactly the advisory dirty set the incremental STA
/// entry points ([`crate::StaCache::analyze_delta`]) expect.
///
/// Implemented as a one-shot [`crate::TransformJournal`]: every action
/// is a lint-gated transaction, and the returned design shares every
/// untouched module (and its cached fingerprint) with `base` via
/// copy-on-write.
///
/// # Errors
///
/// Returns [`DseError`] if a transform fails or a module is missing.
pub fn apply_plan_dirty(
    base: &Design,
    plan: &OptimizationPlan,
) -> Result<(Design, Vec<ModuleId>), DseError> {
    let mut journal = TransformJournal::new(base);
    let dirty = journal.rebase(plan)?;
    Ok((journal.into_design(), dirty))
}

/// The result of a successful exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimized {
    /// The optimized netlist.
    pub design: Design,
    /// The recipe that produced it.
    pub plan: OptimizationPlan,
    /// Achieved maximum frequency.
    pub fmax: Mhz,
    /// Human-readable trace of the map's advice at each iteration.
    pub trace: Vec<String>,
}

/// Search configuration for the DSE loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DseConfig {
    /// Number of candidate plans kept alive per iteration.
    ///
    /// `1` (the default) is the paper's greedy loop — follow the
    /// frequency map's single advice. Widths above 1 run a beam search over the
    /// journal: each iteration expands every surviving plan with the
    /// remedies for its worst paths and keeps the best `beam_width`,
    /// always including the protected greedy chain, so the result is
    /// never worse than greedy.
    pub beam_width: usize,
}

impl Default for DseConfig {
    fn default() -> Self {
        Self { beam_width: 1 }
    }
}

impl DseConfig {
    /// The default greedy configuration (`beam_width == 1`).
    pub fn greedy() -> Self {
        Self::default()
    }

    /// A beam of `width` candidate plans (`0` is clamped to `1`).
    pub fn with_beam_width(width: usize) -> Self {
        Self {
            beam_width: width.max(1),
        }
    }
}

/// Iterates the frequency map until `base` (plus accumulated
/// transforms) meets `target`.
///
/// Mirrors the paper's §III loop: find the critical path; if it starts
/// at a memory block, divide that memory (factors double on repeated
/// advice); otherwise insert a pipeline; repeat.
///
/// # Errors
///
/// Returns [`DseError::Unreachable`] if the advice runs out or stops
/// making progress before the target is met.
pub fn optimize_for(base: &Design, tech: &Tech, target: Mhz) -> Result<Optimized, DseError> {
    optimize_for_with(base, tech, target, &StaCache::new())
}

/// [`optimize_for`] with timing analyses memoized in `cache`.
///
/// Sharing one [`StaCache`] across the exploration of several targets
/// (and across worker threads) turns the repeated re-timing of common
/// plan prefixes into table lookups; see [`crate::cache`].
///
/// # Errors
///
/// Returns [`DseError::Unreachable`] if the advice runs out or stops
/// making progress before the target is met.
pub fn optimize_for_with(
    base: &Design,
    tech: &Tech,
    target: Mhz,
    cache: &StaCache,
) -> Result<Optimized, DseError> {
    optimize_with_config(base, tech, target, cache, &DseConfig::default())
}

/// [`optimize_for_with`] under an explicit [`DseConfig`].
///
/// `beam_width == 1` runs the journal-backed greedy loop; wider beams
/// run
/// [`crate::beam`]'s search, which is never worse than greedy (the
/// greedy chain is kept alive in the beam).
///
/// # Errors
///
/// Returns [`DseError::Unreachable`] if no surviving candidate meets
/// the target.
pub fn optimize_with_config(
    base: &Design,
    tech: &Tech,
    target: Mhz,
    cache: &StaCache,
    config: &DseConfig,
) -> Result<Optimized, DseError> {
    if config.beam_width <= 1 {
        optimize_greedy_journal(base, tech, target, cache)
    } else {
        crate::beam::optimize_beam(base, tech, target, cache, config.beam_width)
    }
}

/// Maximum DSE iterations before declaring the target unreachable.
pub(crate) const MAX_ITERS: usize = 64;

/// Minimum fmax improvement (MHz) an iteration must deliver for the
/// loop to count it as progress.
pub(crate) const MIN_PROGRESS_MHZ: f64 = 0.1;

/// The greedy loop over a [`TransformJournal`]: one working design,
/// candidates reached by rebase (revert + re-apply of the differing
/// suffix), zero clones on the candidate hot path.
fn optimize_greedy_journal(
    base: &Design,
    tech: &Tech,
    target: Mhz,
    cache: &StaCache,
) -> Result<Optimized, DseError> {
    let mut plan = OptimizationPlan::default();
    let mut journal = TransformJournal::new(base);
    let mut trace = Vec::new();
    let mut best = Mhz::new(0.0);
    // Modules mutated by the latest rebase. Empty until the first
    // transform lands; thereafter every iteration analyzes a design
    // that differs from already-timed content only in these modules,
    // so advice flows through the incremental `analyze_delta` path.
    let mut dirty: Option<Vec<ModuleId>> = None;

    for _ in 0..MAX_ITERS {
        let advice = match &dirty {
            // First iteration: the baseline is (possibly) cold, so no
            // dirty-set audit applies.
            None => advise_with(journal.design(), tech, target, cache)?,
            Some(d) => advise_delta(journal.design(), tech, target, cache, d)?,
        };
        trace.push(advice.to_string());
        match advice {
            Advice::Met { fmax } => {
                return Ok(Optimized {
                    design: journal.into_design(),
                    plan,
                    fmax,
                    trace,
                });
            }
            Advice::DivideMemory {
                module,
                macro_name,
                fmax,
            } => {
                if fmax.value() <= best.value() + MIN_PROGRESS_MHZ {
                    return Err(DseError::Unreachable { target, best });
                }
                best = fmax;
                let key = (module, original_macro_name(&macro_name).to_string());
                *plan.divisions.entry(key).or_insert(1) *= 2;
                dirty = Some(journal.rebase(&plan)?);
            }
            Advice::InsertPipeline { module, path, fmax } => {
                if fmax.value() <= best.value() + MIN_PROGRESS_MHZ {
                    return Err(DseError::Unreachable { target, best });
                }
                best = fmax;
                plan.pipelines.push((module, path));
                dirty = Some(journal.rebase(&plan)?);
            }
            Advice::Stuck { fmax, .. } => {
                return Err(DseError::Unreachable {
                    target,
                    best: fmax.max(best),
                });
            }
        }
    }
    Err(DseError::Unreachable { target, best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_lint::FlowSnapshot;
    use ggpu_netlist::stats::design_stats;
    use ggpu_rtl::{generate, GgpuConfig};
    use std::collections::BTreeSet;

    fn base() -> Design {
        generate(&GgpuConfig::with_cus(1).unwrap()).unwrap()
    }

    #[test]
    fn original_name_stripping() {
        assert_eq!(original_macro_name("rf_bank_d0"), "rf_bank");
        assert_eq!(original_macro_name("rf_bank_d12"), "rf_bank");
        assert_eq!(original_macro_name("rf_bank"), "rf_bank");
        assert_eq!(original_macro_name("dram_device"), "dram_device");
        assert_eq!(original_macro_name("x_d"), "x_d");
    }

    #[test]
    fn target_500_needs_no_plan() {
        let opt = optimize_for(&base(), &Tech::l65(), Mhz::new(500.0)).unwrap();
        assert!(opt.plan.is_empty());
        assert!(opt.fmax.value() >= 500.0);
    }

    #[test]
    fn target_590_divides_rf_and_cram_and_pipelines_scheduler() {
        let tech = Tech::l65();
        let opt = optimize_for(&base(), &tech, Mhz::new(590.0)).unwrap();
        assert!(opt.fmax.value() >= 590.0);
        // The paper's 590 MHz version: register files and instruction
        // memories divided, the scheduler logic pipelined.
        assert!(opt
            .plan
            .divisions
            .contains_key(&("processing_element".into(), "rf_bank".into())));
        assert!(!opt.plan.pipelines.is_empty());
        // Per-CU macro count grows from 42 to 52 (8 RF + 2 CRAM parts).
        let stats = design_stats(&opt.design, &tech).unwrap();
        assert!(
            (60..=72).contains(&(stats.macro_count as i64)),
            "1-CU total macros {}",
            stats.macro_count
        );
    }

    #[test]
    fn target_667_is_reachable() {
        let opt = optimize_for(&base(), &Tech::l65(), Mhz::new(667.0)).unwrap();
        assert!(opt.fmax.value() >= 667.0, "fmax {}", opt.fmax);
    }

    #[test]
    fn impossible_target_reports_best() {
        let err = optimize_for(&base(), &Tech::l65(), Mhz::new(2000.0)).unwrap_err();
        match err {
            DseError::Unreachable { target, best } => {
                assert_eq!(target, Mhz::new(2000.0));
                assert!(best.value() > 500.0, "best {best}");
                assert!(best.value() < 2000.0);
            }
            other => panic!("expected Unreachable, got {other}"),
        }
    }

    #[test]
    fn plans_are_reproducible() {
        let tech = Tech::l65();
        let b = base();
        let opt = optimize_for(&b, &tech, Mhz::new(590.0)).unwrap();
        let replayed = apply_plan(&b, &opt.plan).unwrap();
        assert_eq!(replayed, opt.design);
    }

    #[test]
    fn apply_plan_preserves_total_macro_bits() {
        // Divisions re-bank memories but never change total storage;
        // the per-transaction FlowSnapshot checks in the journal
        // enforce this, and the end-to-end totals agree.
        let tech = Tech::l65();
        let b = base();
        let opt = optimize_for(&b, &tech, Mhz::new(590.0)).unwrap();
        assert!(!opt.plan.divisions.is_empty());
        assert_eq!(
            FlowSnapshot::of(&b).total_macro_bits,
            FlowSnapshot::of(&opt.design).total_macro_bits
        );
    }

    #[test]
    fn plan_with_unknown_module_fails() {
        let mut plan = OptimizationPlan::default();
        plan.divisions.insert(("ghost".into(), "x".into()), 2);
        assert!(matches!(
            apply_plan(&base(), &plan),
            Err(DseError::UnknownModule(_))
        ));
    }

    #[test]
    fn optimized_designs_share_every_module_the_plan_does_not_name() {
        let tech = Tech::l65();
        for cus in [1, 8] {
            let b = generate(&GgpuConfig::with_cus(cus).unwrap()).unwrap();
            let opt = optimize_for(&b, &tech, Mhz::new(667.0)).unwrap();
            let named: BTreeSet<String> = opt
                .plan
                .actions()
                .into_iter()
                .map(|a| match a {
                    Action::Divide { module, .. } | Action::Pipeline { module, .. } => module,
                })
                .collect();
            assert!(!named.is_empty(), "{cus} CU: 667 MHz needs a plan");
            assert_eq!(
                opt.design.shared_modules_with(&b),
                b.module_count() - named.len(),
                "{cus} CU: plan names {named:?}"
            );
        }
    }

    #[test]
    fn actions_listing_matches_plan() {
        let tech = Tech::l65();
        let opt = optimize_for(&base(), &tech, Mhz::new(590.0)).unwrap();
        let actions = opt.plan.actions();
        assert_eq!(
            actions.len(),
            opt.plan.divisions.len() + opt.plan.pipelines.len()
        );
        assert!(actions.iter().any(|a| matches!(a, Action::Divide { .. })));
    }

    #[test]
    fn dse_config_defaults_to_greedy() {
        assert_eq!(DseConfig::default().beam_width, 1);
        assert_eq!(DseConfig::greedy(), DseConfig::default());
        assert_eq!(DseConfig::with_beam_width(0).beam_width, 1);
        assert_eq!(DseConfig::with_beam_width(3).beam_width, 3);
    }
}
