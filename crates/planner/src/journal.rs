//! The transactional transform engine: apply → measure → revert.
//!
//! GPUPlanner's §III loop evaluates a *candidate* netlist per
//! iteration. The pre-journal flow materialized every candidate by
//! cloning the whole design and replaying the accumulated plan from
//! scratch; [`TransformJournal`] replaces that with a transaction log
//! over one copy-on-write working design:
//!
//! * [`apply`](TransformJournal::apply) performs one [`Action`] (a
//!   memory division or a pipeline insertion) on the module it names,
//!   after taking an O(1) [`ModuleSnapshot`] of that module.
//! * [`revert_last`](TransformJournal::revert_last) restores that
//!   snapshot, bit-identically (cached fingerprint and copy-on-write
//!   sharing included), so undoing a transaction costs a pointer swap,
//!   not a re-clone.
//! * [`rebase`](TransformJournal::rebase) moves the working design to
//!   an arbitrary [`OptimizationPlan`] by reverting/re-applying only
//!   the suffix that differs (longest common prefix of the canonical
//!   action lists) — exactly what the greedy loop's "double one
//!   division factor" step needs.
//!
//! Every transaction is lint-gated: the flow invariants N005 (memory
//! division preserves total macro bits) and N006 (pipeline insertion
//! preserves macro timing endpoints) are checked per action, and a
//! failed or denied action restores its snapshot before the error is
//! returned, so the journal never holds a design that failed its own
//! gate.
//!
//! The journal does not report which modules a transaction touched:
//! the STA memo ([`crate::StaCache`]) keys on the design's structural
//! fingerprint, so a mutated design misses the memo on its own.

use crate::dse::{Action, DseError, OptimizationPlan};
use ggpu_lint::{check_division, check_pipeline, FlowSnapshot, LintConfig, Report};
use ggpu_netlist::{Design, ModuleId, ModuleSnapshot};
use ggpu_synth::{divide_macro, insert_pipeline, TransformError};

/// One committed transaction: the action and the pre-apply state of
/// the one module it edited.
#[derive(Debug)]
struct Entry {
    action: Action,
    snapshot: ModuleSnapshot,
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

    /// Applies `action` as one transaction: snapshot the named module,
    /// edit it, then run the matching flow-invariant lint (N005 for
    /// divisions, N006 for pipelines).
    ///
    /// A division names one macro but divides the *structure*: every
    /// sibling of the same logical memory
    /// ([`ggpu_netlist::module::Module::sibling_macro_names`]: same
    /// [`ggpu_netlist::BankGroupId`], same geometry) fails timing
    /// identically, so each is divided by the same factor.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::UnknownModule`] if the action names a module
    /// the design lacks, [`DseError::Transform`] if the edit fails and
    /// [`DseError::FlowInvariant`] if the lint gate denies the result.
    /// In every case the design is left exactly as it was, copy-on-write
    /// sharing included.
    pub fn apply(&mut self, action: &Action) -> Result<(), DseError> {
        let (Action::Divide { module, .. } | Action::Pipeline { module, .. }) = action;
        let id = self
            .design
            .module_by_name(module)
            .ok_or_else(|| DseError::UnknownModule(module.clone()))?;
        let snapshot = self.design.snapshot_module(id);
        match self.edit(id, action) {
            Ok(()) => {
                self.entries.push(Entry {
                    action: action.clone(),
                    snapshot,
                });
                Ok(())
            }
            Err(e) => {
                self.design.restore_module(snapshot);
                Err(e)
            }
        }
    }

    /// Performs `action` on module `id` and lints the result. May leave
    /// the module partly edited on error; [`apply`](Self::apply)
    /// restores it.
    fn edit(&mut self, id: ModuleId, action: &Action) -> Result<(), DseError> {
        let before = FlowSnapshot::of(&self.design);
        let label = lint_label(action);
        let mut invariants = Report::new(self.design.name());
        match action {
            Action::Divide {
                module,
                macro_name,
                factor,
                axis,
            } => {
                let target = self
                    .design
                    .module(id)
                    .find_macro(macro_name)
                    .ok_or_else(|| TransformError::MacroNotFound {
                        module: module.clone(),
                        name: macro_name.clone(),
                    })?;
                for name in self.design.module(id).sibling_macro_names(target) {
                    divide_macro(&mut self.design, id, &name, *factor, *axis)?;
                }
                let after = FlowSnapshot::of(&self.design);
                check_division(before, after, &label, &self.lint_config, &mut invariants);
            }
            Action::Pipeline { path, .. } => {
                insert_pipeline(&mut self.design, id, path)?;
                let after = FlowSnapshot::of(&self.design);
                check_pipeline(before, after, &label, &self.lint_config, &mut invariants);
            }
        }
        if invariants.denial_count() > 0 {
            return Err(DseError::FlowInvariant(invariants));
        }
        Ok(())
    }

    /// Reverts the most recent transaction, restoring the design
    /// bit-identically to its pre-apply state. Returns the reverted
    /// action, or `None` on an empty journal.
    pub fn revert_last(&mut self) -> Option<Action> {
        let entry = self.entries.pop()?;
        self.design.restore_module(entry.snapshot);
        Some(entry.action)
    }

    /// Moves the working design to exactly `plan`, reverting and
    /// re-applying only the actions beyond the longest common prefix
    /// of the committed log and `plan.actions()`.
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
    pub fn rebase(&mut self, plan: &OptimizationPlan) -> Result<(), DseError> {
        let target = plan.actions();
        let common = self
            .entries
            .iter()
            .zip(&target)
            .take_while(|(entry, want)| entry.action == **want)
            .count();
        while self.entries.len() > common {
            self.revert_last();
        }
        for action in &target[common..] {
            self.apply(action)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_netlist::module::{MacroInst, MemoryRole, Module};
    use ggpu_netlist::BankGroupId;
    use ggpu_rtl::{generate, GgpuConfig};
    use ggpu_synth::DivideAxis;
    use ggpu_tech::sram::SramConfig;
    use std::collections::BTreeSet;

    fn base() -> Design {
        generate(&GgpuConfig::with_cus(1).unwrap()).unwrap()
    }

    /// A one-module design `m` holding `macros`.
    fn small_design(macros: Vec<MacroInst>) -> Design {
        let mut d = Design::new("t");
        let mut m = Module::new("m");
        m.macros = macros;
        let id = d.add_module(m);
        d.set_top(id);
        d
    }

    fn ram() -> MacroInst {
        MacroInst::new(
            "ram",
            SramConfig::dual(2048, 32),
            MemoryRole::CacheData,
            0.8,
        )
    }

    fn bank(name: &str, words: u32, group: Option<u32>) -> MacroInst {
        let m = MacroInst::new(name, SramConfig::dual(words, 32), MemoryRole::Fifo, 0.5);
        match group {
            Some(g) => m.with_bank_group(BankGroupId(g)),
            None => m,
        }
    }

    fn divide(module: &str, mac: &str, factor: u32) -> Action {
        Action::Divide {
            module: module.into(),
            macro_name: mac.into(),
            factor,
            axis: DivideAxis::Words,
        }
    }

    fn pipeline(module: &str, path: &str) -> Action {
        Action::Pipeline {
            module: module.into(),
            path: path.into(),
        }
    }

    fn module_fps(d: &Design) -> Vec<u64> {
        d.module_ids().map(|id| d.module_fingerprint(id)).collect()
    }

    #[test]
    fn apply_revert_restores_bit_identically() {
        let b = base();
        let fp0 = b.structural_fingerprint();
        let mut j = TransformJournal::new(&b);
        for action in [
            divide("processing_element", "rf_bank", 2),
            pipeline("processing_element", "alu_bypass"),
        ] {
            j.apply(&action).unwrap();
            assert_ne!(j.design().structural_fingerprint(), fp0, "{action}");
            assert_eq!(j.revert_last(), Some(action));
            assert_eq!(j.design().structural_fingerprint(), fp0);
            assert_eq!(module_fps(j.design()), module_fps(&b));
            assert_eq!(j.design(), &b);
            assert!(j.is_empty());
        }
    }

    #[test]
    fn divide_memory_expands_sibling_banks() {
        let mut macros: Vec<MacroInst> = (0..4)
            .map(|i| bank(&format!("bank{i}"), 1024, Some(0)))
            .collect();
        // Same group id but different geometry: not a sibling, must
        // stay untouched.
        macros.push(bank("bankx", 2048, Some(0)));
        let mut j = TransformJournal::new(&small_design(macros));
        j.apply(&divide("m", "bank0", 2)).unwrap();
        let m = j.design().module(j.design().top());
        // 4 banks x 2 parts + the untouched odd one out.
        assert_eq!(m.macros.len(), 9);
        for i in 0..4 {
            assert!(m.find_macro(&format!("bank{i}_d0")).is_some());
            assert!(m.find_macro(&format!("bank{i}")).is_none());
        }
        assert!(m.find_macro("bankx").is_some());
        // The parts remain members of the original logical memory.
        assert_eq!(
            m.bank_group_of("bank0_d0"),
            Some(BankGroupId(0)),
            "division parts must inherit the structural group"
        );
    }

    #[test]
    fn user_macro_with_bank_like_name_is_never_misgrouped() {
        // Regression for the retired `bank_base()` stem matching: a
        // user macro named `lsu_b12` has the same stem (`lsu_b`) and
        // geometry as the real sibling banks `lsu_b0`/`lsu_b1`, so the
        // old code divided it along with the structure. Structural
        // group ids make membership explicit: the lone macro is
        // untouched.
        let macros = vec![
            bank("lsu_b0", 1024, Some(7)),
            bank("lsu_b1", 1024, Some(7)),
            bank("lsu_b12", 1024, None),
        ];
        let mut j = TransformJournal::new(&small_design(macros));
        j.apply(&divide("m", "lsu_b0", 2)).unwrap();
        let m = j.design().module(j.design().top());
        assert!(m.find_macro("lsu_b0_d0").is_some());
        assert!(m.find_macro("lsu_b1_d0").is_some());
        assert!(
            m.find_macro("lsu_b12").is_some() && m.find_macro("lsu_b12_d0").is_none(),
            "macro outside the bank group must not be divided"
        );
    }

    #[test]
    fn failed_apply_leaves_design_untouched() {
        // `insert_pipeline` copies the module before it finds the path
        // missing, so only the journal's restore keeps the working
        // design sharing every module with the base.
        let b = small_design(vec![ram()]);
        let mut j = TransformJournal::new(&b);
        let untouched = |j: &TransformJournal, why: &str| {
            assert_eq!(
                j.design().shared_modules_with(&b),
                b.module_count(),
                "{why}"
            );
            assert_eq!(module_fps(j.design()), module_fps(&b), "{why}");
            assert_eq!(j.design(), &b, "{why}");
            assert!(j.is_empty(), "{why}");
        };
        assert!(matches!(
            j.apply(&pipeline("m", "ghost")),
            Err(DseError::Transform(TransformError::PathNotFound { .. }))
        ));
        untouched(&j, "missing path");
        assert!(matches!(
            j.apply(&divide("m", "ram", 3)),
            Err(DseError::Transform(TransformError::Sram(_)))
        ));
        untouched(&j, "division by 3");
        assert!(matches!(
            j.apply(&divide("ghost", "ram", 2)),
            Err(DseError::UnknownModule(_))
        ));
        untouched(&j, "unknown module");
    }

    #[test]
    fn unknown_module_is_reported() {
        let mut j = TransformJournal::new(&small_design(vec![ram()]));
        let err = j.apply(&pipeline("ghost", "p")).unwrap_err();
        assert_eq!(err, DseError::UnknownModule("ghost".into()));
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
        j.rebase(&plan).unwrap();
        let replay = crate::dse::apply_plan(&b, &plan).unwrap();
        assert_eq!(j.design(), &replay);
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
        // A factor-1 "division" renames each register-file bank but
        // adds no macro: N005 denies it after the edit, and the
        // snapshot undoes the renames.
        let b = base();
        let mut j = TransformJournal::new(&b);
        let err = j
            .apply(&divide("processing_element", "rf_bank", 1))
            .unwrap_err();
        assert!(matches!(err, DseError::FlowInvariant(_)), "{err}");
        assert_eq!(j.design(), &b);
        assert_eq!(j.design().shared_modules_with(&b), b.module_count());
        assert!(j.is_empty());

        let err = j
            .apply(&divide("processing_element", "ghost", 2))
            .unwrap_err();
        assert!(matches!(
            err,
            DseError::Transform(TransformError::MacroNotFound { .. })
        ));
        assert_eq!(j.design(), &b);
    }
}
