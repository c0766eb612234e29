//! The transactional transform engine: apply → measure → revert.
//!
//! GPUPlanner's §III loop evaluates a *candidate* netlist per
//! iteration. The pre-journal flow materialized every candidate by
//! cloning the whole design and replaying the accumulated plan from
//! scratch; [`TransformJournal`] replaces that with a transaction log
//! over one copy-on-write working design:
//!
//! * [`apply`](TransformJournal::apply) runs one [`Transform`]
//!   (division or pipeline) and records its [`Undo`] — O(1) module
//!   snapshots — together with the modules it dirtied.
//! * [`revert_last`](TransformJournal::revert_last) /
//!   [`rollback_to`](TransformJournal::rollback_to) restore those
//!   snapshots, bit-identically (cached fingerprints included), so a
//!   rejected candidate costs pointer swaps, not a re-clone.
//! * [`rebase`](TransformJournal::rebase) moves the working design to
//!   an arbitrary [`OptimizationPlan`] by reverting/re-applying only
//!   the suffix that differs (longest common prefix of the canonical
//!   action lists) — exactly what the greedy loop's "double one
//!   division factor" step needs.
//!
//! Every transaction is lint-gated: the flow invariants N005 (memory
//! division preserves total macro bits) and N006 (pipeline insertion
//! preserves macro timing endpoints) are checked per-transform, and a
//! violating transform is reverted before the error is returned, so
//! the journal never holds a design that failed its own gate.
//!
//! The dirty sets the journal returns are *advisory*: the incremental
//! STA engine ([`ggpu_sta::IncrementalSta`]) re-times by content
//! address and audits the advisory set
//! ([`ggpu_sta::EngineStats::undeclared_dirty`]), never trusts it.

use crate::dse::{Action, DseError, OptimizationPlan};
use ggpu_lint::{check_division, check_pipeline, FlowSnapshot, LintConfig, Report};
use ggpu_netlist::{Design, ModuleId};
use ggpu_synth::{DivideMemory, PipelineInsert, Transform, TransformError, Undo};

/// One committed transaction: the action, its undo record, and the
/// modules it dirtied.
#[derive(Debug)]
struct Entry {
    action: Action,
    undo: Undo,
    dirty: Vec<ModuleId>,
}

/// A named rollback point in a [`TransformJournal`].
///
/// Obtained from [`TransformJournal::checkpoint`]; passing it to
/// [`TransformJournal::rollback_to`] reverts every transaction
/// committed after it. Checkpoints are invalidated by rolling back
/// past them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    name: String,
    depth: usize,
}

impl Checkpoint {
    /// The label given at creation.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of transactions committed when the checkpoint was taken.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// Converts an [`Action`] into the [`Transform`] that performs it.
fn transform_of(action: &Action) -> Box<dyn Transform> {
    match action {
        Action::Divide {
            module,
            macro_name,
            factor,
            axis,
        } => Box::new(DivideMemory {
            module: module.clone(),
            macro_name: macro_name.clone(),
            factor: *factor,
            axis: *axis,
        }),
        Action::Pipeline { module, path } => Box::new(PipelineInsert {
            module: module.clone(),
            path: path.clone(),
        }),
    }
}

/// The lint label for an action, matching the pre-journal flow's
/// per-step labels byte-for-byte.
fn lint_label(action: &Action) -> String {
    match action {
        Action::Divide {
            module,
            macro_name,
            factor,
            ..
        } => format!("{module}/{macro_name} x{factor}"),
        Action::Pipeline { module, path } => format!("{module}/{path}"),
    }
}

fn map_transform_err(e: TransformError) -> DseError {
    match e {
        TransformError::ModuleNotFound { name } => DseError::UnknownModule(name),
        other => DseError::Transform(other),
    }
}

/// An apply/revert transaction log over one copy-on-write design.
///
/// See the [module docs](self) for the role it plays in the DSE loop.
#[derive(Debug)]
pub struct TransformJournal {
    design: Design,
    entries: Vec<Entry>,
    lint_config: LintConfig,
}

impl TransformJournal {
    /// Opens a journal over a copy-on-write clone of `base`.
    ///
    /// The clone is O(modules) `Arc` bumps; no module content is
    /// copied until a transform writes to it, and unchanged modules
    /// keep sharing `base`'s cached fingerprints.
    pub fn new(base: &Design) -> Self {
        Self {
            design: base.clone(),
            entries: Vec::new(),
            lint_config: LintConfig::new(),
        }
    }

    /// The working design with every committed transaction applied.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Consumes the journal, returning the working design.
    pub fn into_design(self) -> Design {
        self.design
    }

    /// Number of committed transactions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no transaction is committed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The committed actions, oldest first.
    pub fn actions(&self) -> Vec<Action> {
        self.entries.iter().map(|e| e.action.clone()).collect()
    }

    /// Takes a named rollback point at the current depth.
    pub fn checkpoint(&self, name: impl Into<String>) -> Checkpoint {
        Checkpoint {
            name: name.into(),
            depth: self.entries.len(),
        }
    }

    /// Applies `action` as one transaction: transform, then the
    /// matching flow-invariant lint (N005 for divisions, N006 for
    /// pipelines). Returns the modules the transaction dirtied.
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] if the transform fails (design unchanged —
    /// transforms are atomic) or if the lint gate denies the result
    /// (the transaction is reverted before returning).
    pub fn apply(&mut self, action: &Action) -> Result<Vec<ModuleId>, DseError> {
        let transform = transform_of(action);
        let before = FlowSnapshot::of(&self.design);
        let undo = transform
            .apply(&mut self.design)
            .map_err(map_transform_err)?;
        let after = FlowSnapshot::of(&self.design);
        let mut invariants = Report::new(self.design.name());
        let label = lint_label(action);
        match action {
            Action::Divide { .. } => {
                check_division(before, after, &label, &self.lint_config, &mut invariants);
            }
            Action::Pipeline { .. } => {
                check_pipeline(before, after, &label, &self.lint_config, &mut invariants);
            }
        }
        if invariants.denial_count() > 0 {
            transform.revert(&mut self.design, undo);
            return Err(DseError::FlowInvariant(invariants));
        }
        let dirty = undo.dirty_modules();
        self.entries.push(Entry {
            action: action.clone(),
            undo,
            dirty,
        });
        Ok(self.entries.last().expect("just pushed").dirty.clone())
    }

    /// Reverts the most recent transaction, restoring the design
    /// bit-identically to its pre-apply state. Returns the modules the
    /// revert restored, or `None` on an empty journal.
    pub fn revert_last(&mut self) -> Option<Vec<ModuleId>> {
        let entry = self.entries.pop()?;
        ggpu_synth::revert(&mut self.design, entry.undo);
        Some(entry.dirty)
    }

    /// Reverts every transaction committed after `checkpoint`,
    /// returning the union of the modules restored (ascending,
    /// deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint was invalidated by an earlier rollback
    /// past it (its depth exceeds the journal's).
    pub fn rollback_to(&mut self, checkpoint: &Checkpoint) -> Vec<ModuleId> {
        assert!(
            checkpoint.depth <= self.entries.len(),
            "checkpoint {:?} invalidated: journal depth {} < checkpoint depth {}",
            checkpoint.name,
            self.entries.len(),
            checkpoint.depth
        );
        let mut touched = Vec::new();
        while self.entries.len() > checkpoint.depth {
            touched.extend(self.revert_last().expect("entries remain"));
        }
        touched.sort();
        touched.dedup();
        touched
    }

    /// Moves the working design to exactly `plan`, reverting and
    /// re-applying only the actions beyond the longest common prefix
    /// of the committed log and `plan.actions()`. Returns the union of
    /// the modules dirtied by the reverted and re-applied transactions
    /// (ascending, deduplicated) — the advisory dirty set for
    /// [`crate::StaCache::analyze_delta`].
    ///
    /// The resulting design is bit-identical to replaying the whole
    /// plan onto a fresh clone of the base: reverts restore exact
    /// snapshots, and the re-applied suffix sees
    /// exactly the state the prefix produced.
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] if a suffix action fails to apply or is
    /// denied by its lint gate. The journal keeps the transactions
    /// that applied cleanly (the failing one is not committed).
    pub fn rebase(&mut self, plan: &OptimizationPlan) -> Result<Vec<ModuleId>, DseError> {
        let target = plan.actions();
        let common = self
            .entries
            .iter()
            .zip(&target)
            .take_while(|(entry, want)| entry.action == **want)
            .count();
        let mut touched = Vec::new();
        while self.entries.len() > common {
            touched.extend(self.revert_last().expect("entries remain"));
        }
        for action in &target[common..] {
            touched.extend(self.apply(action)?);
        }
        touched.sort();
        touched.dedup();
        Ok(touched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_rtl::{generate, GgpuConfig};
    use ggpu_synth::DivideAxis;
    use std::collections::BTreeSet;

    fn base() -> Design {
        generate(&GgpuConfig::with_cus(1).unwrap()).unwrap()
    }

    fn divide(module: &str, mac: &str, factor: u32) -> Action {
        Action::Divide {
            module: module.into(),
            macro_name: mac.into(),
            factor,
            axis: DivideAxis::Words,
        }
    }

    #[test]
    fn apply_revert_restores_bit_identically() {
        let b = base();
        let fp0 = b.structural_fingerprint();
        let mut j = TransformJournal::new(&b);
        let dirty = j
            .apply(&divide("processing_element", "rf_bank", 2))
            .unwrap();
        assert_eq!(dirty.len(), 1);
        assert_ne!(j.design().structural_fingerprint(), fp0);
        let restored = j.revert_last().unwrap();
        assert_eq!(restored, dirty);
        assert_eq!(j.design().structural_fingerprint(), fp0);
        assert_eq!(j.design(), &b);
        assert!(j.is_empty());
    }

    #[test]
    fn checkpoints_roll_back_named_ranges() {
        let b = base();
        let mut j = TransformJournal::new(&b);
        let start = j.checkpoint("start");
        assert_eq!(start.name(), "start");
        assert_eq!(start.depth(), 0);
        j.apply(&divide("processing_element", "rf_bank", 2))
            .unwrap();
        let mid = j.checkpoint("after-rf");
        j.apply(&Action::Pipeline {
            module: "processing_element".into(),
            path: "alu_bypass".into(),
        })
        .unwrap();
        assert_eq!(j.len(), 2);
        let touched = j.rollback_to(&mid);
        assert_eq!(j.len(), 1);
        assert!(!touched.is_empty());
        j.rollback_to(&start);
        assert_eq!(j.design(), &b);
    }

    #[test]
    #[should_panic(expected = "invalidated")]
    fn rolling_back_past_a_checkpoint_invalidates_it() {
        let b = base();
        let mut j = TransformJournal::new(&b);
        j.apply(&divide("processing_element", "rf_bank", 2))
            .unwrap();
        let cp = j.checkpoint("deep");
        j.revert_last();
        j.rollback_to(&cp);
    }

    #[test]
    fn rebase_matches_fresh_replay() {
        let b = base();
        let mut plan = OptimizationPlan::default();
        plan.divisions
            .insert(("processing_element".into(), "rf_bank".into()), 2);
        let mut j = TransformJournal::new(&b);
        j.rebase(&plan).unwrap();
        let replay = crate::dse::apply_plan(&b, &plan).unwrap();
        assert_eq!(j.design(), &replay);
        assert_eq!(
            j.design().structural_fingerprint(),
            replay.structural_fingerprint()
        );

        // Double the factor: the rebase reverts the old division and
        // applies the new one; the result must equal a fresh replay
        // (which is exactly where naive incremental re-division would
        // diverge with ram_d0_d0 names).
        plan.divisions
            .insert(("processing_element".into(), "rf_bank".into()), 4);
        plan.pipelines
            .push(("processing_element".into(), "alu_bypass".into()));
        let dirty = j.rebase(&plan).unwrap();
        let replay = crate::dse::apply_plan(&b, &plan).unwrap();
        assert_eq!(j.design(), &replay);
        assert!(!dirty.is_empty());
    }

    /// Asserts the working design shares with `base` exactly the
    /// modules its committed actions do not name.
    fn assert_shares_unnamed_modules(base: &Design, j: &TransformJournal) {
        let named: BTreeSet<String> = j
            .actions()
            .into_iter()
            .map(|a| match a {
                Action::Divide { module, .. } | Action::Pipeline { module, .. } => module,
            })
            .collect();
        assert_eq!(
            base.shared_modules_with(j.design()),
            base.module_count() - named.len(),
            "plan names {named:?}"
        );
    }

    #[test]
    fn apply_and_rebase_copy_exactly_the_modules_the_plan_names() {
        let b = base();
        let mut j = TransformJournal::new(&b);
        assert_shares_unnamed_modules(&b, &j);
        j.apply(&divide("processing_element", "rf_bank", 2))
            .unwrap();
        assert_shares_unnamed_modules(&b, &j);
        j.apply(&Action::Pipeline {
            module: "compute_unit".into(),
            path: "wf_sched".into(),
        })
        .unwrap();
        assert_shares_unnamed_modules(&b, &j);

        // Rebasing drops the pipeline and redoes the division: the
        // compute unit goes back to sharing the base's module.
        let mut plan = OptimizationPlan::default();
        plan.divisions
            .insert(("processing_element".into(), "rf_bank".into()), 4);
        j.rebase(&plan).unwrap();
        assert_shares_unnamed_modules(&b, &j);
        plan.divisions.clear();
        plan.divisions
            .insert(("memory_controller".into(), "cache_data0".into()), 2);
        j.rebase(&plan).unwrap();
        assert_shares_unnamed_modules(&b, &j);
        j.rebase(&OptimizationPlan::default()).unwrap();
        assert_eq!(b.shared_modules_with(j.design()), b.module_count());
    }

    #[test]
    fn lint_gate_reverts_denied_transactions() {
        // A division of an unknown macro fails atomically.
        let b = base();
        let mut j = TransformJournal::new(&b);
        let err = j
            .apply(&divide("processing_element", "ghost", 2))
            .unwrap_err();
        assert!(matches!(err, DseError::Transform(_)));
        assert_eq!(j.design(), &b);
        assert!(j.is_empty());

        let err = j.apply(&divide("ghost_module", "x", 2)).unwrap_err();
        assert!(matches!(err, DseError::UnknownModule(_)));
        assert_eq!(j.design(), &b);
    }
}
