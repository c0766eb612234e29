//! Flow invariants: post-transform checks asserted after every
//! GPUPlanner step.
//!
//! The planner's transforms are supposed to be PPA-neutral in
//! specific, checkable ways (the paper's §III):
//!
//! * *memory division* replaces one macro by `k` smaller ones holding
//!   the same data — the **total macro bits** of the design must not
//!   change (N005);
//! * *pipeline insertion* splits one timing path in two around a new
//!   register — the number of **macro timing endpoints** must not
//!   change and exactly **one path** is added (N006).
//!
//! [`FlowSnapshot`] captures the cheap structural totals before a
//! step; [`check_division`]/[`check_pipeline`] compare snapshots and
//! return diagnostics on violation. The DSE loop aborts the plan when
//! any check denies.

use crate::diag::{Code, LintConfig, Report};
use ggpu_netlist::timing::PathEndpoint;
use ggpu_netlist::Design;

/// Structural totals of a design, cheap to capture (one hierarchy
/// walk, no clones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSnapshot {
    /// Total macro storage under the top, in bits, counting every
    /// instantiation.
    pub total_macro_bits: u64,
    /// Total macro instantiations under the top.
    pub macro_count: u64,
    /// Timing-path endpoints of kind [`PathEndpoint::Macro`], summed
    /// over module definitions.
    pub macro_endpoints: u64,
    /// Timing paths, summed over module definitions.
    pub path_count: u64,
}

impl FlowSnapshot {
    /// Captures the totals of `design`.
    pub fn of(design: &Design) -> Self {
        let mut total_macro_bits = 0u64;
        let mut macro_count = 0u64;
        design.visit_instances(|_, id| {
            for mac in &design.module(id).macros {
                total_macro_bits += mac.config.capacity_bits();
                macro_count += 1;
            }
        });
        let mut macro_endpoints = 0u64;
        let mut path_count = 0u64;
        for id in design.module_ids() {
            for path in &design.module(id).paths {
                path_count += 1;
                for endpoint in [&path.start, &path.end] {
                    if matches!(endpoint, PathEndpoint::Macro(_)) {
                        macro_endpoints += 1;
                    }
                }
            }
        }
        Self {
            total_macro_bits,
            macro_count,
            macro_endpoints,
            path_count,
        }
    }
}

/// Checks the memory-division invariant between two snapshots,
/// appending findings about `step` to `report`.
///
/// Division must preserve total macro bits (N005) while the macro
/// count strictly grows.
pub fn check_division(
    before: FlowSnapshot,
    after: FlowSnapshot,
    step: &str,
    config: &LintConfig,
    report: &mut Report,
) {
    if after.total_macro_bits != before.total_macro_bits {
        report.push(
            config,
            Code::N005,
            format!(
                "division `{step}` changed total macro bits: {} -> {}",
                before.total_macro_bits, after.total_macro_bits
            ),
            None,
            Some(step.to_string()),
        );
    }
    if after.macro_count <= before.macro_count {
        report.push(
            config,
            Code::N005,
            format!(
                "division `{step}` did not add macros: {} -> {}",
                before.macro_count, after.macro_count
            ),
            None,
            Some(step.to_string()),
        );
    }
}

/// Checks the pipeline-insertion invariant between two snapshots,
/// appending findings about `step` to `report`.
///
/// Insertion must preserve macro endpoints and total macro bits and
/// add exactly one timing path (the split halves) (N006).
pub fn check_pipeline(
    before: FlowSnapshot,
    after: FlowSnapshot,
    step: &str,
    config: &LintConfig,
    report: &mut Report,
) {
    if after.macro_endpoints != before.macro_endpoints {
        report.push(
            config,
            Code::N006,
            format!(
                "pipeline `{step}` changed macro timing endpoints: {} -> {}",
                before.macro_endpoints, after.macro_endpoints
            ),
            None,
            Some(step.to_string()),
        );
    }
    if after.path_count != before.path_count + 1 {
        report.push(
            config,
            Code::N006,
            format!(
                "pipeline `{step}` must add exactly one path: {} -> {}",
                before.path_count, after.path_count
            ),
            None,
            Some(step.to_string()),
        );
    }
    if after.total_macro_bits != before.total_macro_bits {
        report.push(
            config,
            Code::N006,
            format!(
                "pipeline `{step}` changed total macro bits: {} -> {}",
                before.total_macro_bits, after.total_macro_bits
            ),
            None,
            Some(step.to_string()),
        );
    }
}

/// One recorded fallback of the flow supervisor's degradation ladder,
/// in the linter's plain-data terms (the planner owns the rich type;
/// the linter gates on the facts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationStep {
    /// Flow stage that degraded (`"plan"`, `"implement"`, …).
    pub stage: String,
    /// The configured engine that failed (`"SoA backend"`).
    pub from: String,
    /// The fallback that ran instead (`"scalar backend"`).
    pub to: String,
    /// Why the ladder stepped down.
    pub reason: String,
}

/// The flow-supervision gate (N010): every degradation a supervised
/// run recorded becomes one finding, so a degraded result can never
/// pass CI silently — `--deny warn` promotes these to denials, and a
/// clean run contributes nothing.
pub fn check_supervision(steps: &[DegradationStep], config: &LintConfig, report: &mut Report) {
    for step in steps {
        report.push(
            config,
            Code::N010,
            format!(
                "flow degraded at stage `{}`: {} -> {} ({})",
                step.stage, step.from, step.to, step.reason
            ),
            None,
            Some(step.stage.clone()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_netlist::module::{MacroInst, MemoryRole, Module};
    use ggpu_netlist::timing::{LogicStage, TimingPath};
    use ggpu_tech::sram::SramConfig;
    use ggpu_tech::stdcell::CellClass;

    fn design_with_ram(words: u32) -> Design {
        let mut d = Design::new("t");
        let mut m = Module::new("m");
        m.macros.push(MacroInst::new(
            "ram",
            SramConfig::dual(words, 32),
            MemoryRole::Other,
            0.5,
        ));
        m.paths.push(TimingPath::new(
            "p",
            PathEndpoint::Macro("ram".into()),
            PathEndpoint::Register,
            LogicStage::chain(CellClass::Nand2, 6, 2),
        ));
        let id = d.add_module(m);
        d.set_top(id);
        d
    }

    #[test]
    fn snapshot_counts_hierarchy() {
        let snap = FlowSnapshot::of(&design_with_ram(256));
        assert_eq!(snap.total_macro_bits, 256 * 32);
        assert_eq!(snap.macro_count, 1);
        assert_eq!(snap.macro_endpoints, 1);
        assert_eq!(snap.path_count, 1);
    }

    #[test]
    fn division_that_loses_bits_is_n005() {
        let before = FlowSnapshot::of(&design_with_ram(256));
        let after = FlowSnapshot::of(&design_with_ram(128));
        let mut report = Report::new("t");
        check_division(before, after, "m/ram x2", &LintConfig::new(), &mut report);
        assert!(report.has(Code::N005));
        assert!(report.denial_count() >= 1);
    }

    #[test]
    fn real_division_passes() {
        let mut d = design_with_ram(256);
        let before = FlowSnapshot::of(&d);
        let id = d.module_by_name("m").unwrap();
        ggpu_synth::divide_macro(&mut d, id, "ram", 2, ggpu_synth::DivideAxis::Words).unwrap();
        let after = FlowSnapshot::of(&d);
        let mut report = Report::new("t");
        check_division(before, after, "m/ram x2", &LintConfig::new(), &mut report);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn real_pipeline_passes_and_fake_fails() {
        let mut d = design_with_ram(256);
        let before = FlowSnapshot::of(&d);
        let id = d.module_by_name("m").unwrap();
        ggpu_synth::insert_pipeline(&mut d, id, "p").unwrap();
        let after = FlowSnapshot::of(&d);
        let mut report = Report::new("t");
        check_pipeline(before, after, "m/p", &LintConfig::new(), &mut report);
        assert!(report.is_clean(), "{report}");
        // A no-op "pipeline" fails the one-path-added invariant.
        let mut report = Report::new("t");
        check_pipeline(before, before, "m/p", &LintConfig::new(), &mut report);
        assert!(report.has(Code::N006));
    }
}
