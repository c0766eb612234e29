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
//!   change and exactly **one path** is added (N006);
//! * *memory banking* re-banks a logical memory into word-interleaved
//!   banks — total macro bits are preserved while the **port budget**
//!   grows by exactly the added banks' ports (N009).
//!
//! [`FlowSnapshot`] captures the cheap structural totals before a
//! step; [`check_division`]/[`check_pipeline`]/[`check_banking`]
//! compare snapshots and return diagnostics on violation. The DSE
//! loop aborts the plan when any check denies.

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
    /// Total macro ports under the top (1 per single-ported macro,
    /// 2 per dual-ported) — the concurrency budget banking grows.
    pub macro_ports: u64,
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
        let mut macro_ports = 0u64;
        design.visit_instances(|_, id| {
            for mac in &design.module(id).macros {
                total_macro_bits += mac.config.capacity_bits();
                macro_count += 1;
                macro_ports += u64::from(mac.config.port_count());
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
            macro_ports,
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

/// Checks the memory-banking invariant between two snapshots,
/// appending findings about `step` to `report`.
///
/// Banking replaces each of a structure's macros by `banks` smaller,
/// word-interleaved ones: total macro bits must not change, the macro
/// count must grow by a multiple of `banks - 1`, and the port budget
/// must grow by exactly the added macros' ports (`group_ports` per
/// added bank) (N009).
pub fn check_banking(
    before: FlowSnapshot,
    after: FlowSnapshot,
    banks: u32,
    group_ports: u32,
    step: &str,
    config: &LintConfig,
    report: &mut Report,
) {
    if after.total_macro_bits != before.total_macro_bits {
        report.push(
            config,
            Code::N009,
            format!(
                "banking `{step}` changed total macro bits: {} -> {}",
                before.total_macro_bits, after.total_macro_bits
            ),
            None,
            Some(step.to_string()),
        );
    }
    let added = after.macro_count.saturating_sub(before.macro_count);
    if added == 0 || (banks > 1 && !added.is_multiple_of(u64::from(banks - 1))) {
        report.push(
            config,
            Code::N009,
            format!(
                "banking `{step}` (x{banks}) added a non-multiple of {} macros: {} -> {}",
                banks - 1,
                before.macro_count,
                after.macro_count
            ),
            None,
            Some(step.to_string()),
        );
    }
    let expected_ports = before.macro_ports + added * u64::from(group_ports);
    if after.macro_ports != expected_ports {
        report.push(
            config,
            Code::N009,
            format!(
                "banking `{step}` broke the port budget: expected {expected_ports} \
                 ({} + {added} x {group_ports}), got {}",
                before.macro_ports, after.macro_ports
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
    fn real_banking_passes() {
        let mut d = design_with_ram(256);
        let before = FlowSnapshot::of(&d);
        assert_eq!(before.macro_ports, 2, "dual-ported ram");
        let id = d.module_by_name("m").unwrap();
        ggpu_synth::bank_macro(&mut d, id, "ram", 4).unwrap();
        let after = FlowSnapshot::of(&d);
        let mut report = Report::new("t");
        check_banking(
            before,
            after,
            4,
            2,
            "m/ram x4",
            &LintConfig::new(),
            &mut report,
        );
        assert!(report.is_clean(), "{report}");
        assert_eq!(after.macro_ports, 8, "4 dual-ported banks");
    }

    #[test]
    fn banking_that_loses_bits_is_n009() {
        // Seeded bug: a "banking" that halved capacity instead of
        // splitting it (each bank kept words/4 of a half-sized array).
        let before = FlowSnapshot::of(&design_with_ram(256));
        let after = FlowSnapshot::of(&{
            let mut d = design_with_ram(128);
            let id = d.module_by_name("m").unwrap();
            ggpu_synth::bank_macro(&mut d, id, "ram", 4).unwrap();
            d
        });
        let mut report = Report::new("t");
        check_banking(
            before,
            after,
            4,
            2,
            "m/ram x4",
            &LintConfig::new(),
            &mut report,
        );
        assert!(report.has(Code::N009));
        assert!(report.denial_count() >= 1);
    }

    #[test]
    fn banking_that_downgrades_ports_is_n009() {
        // Seeded bug: the bank compiler silently downgraded the dual-
        // ported parent to single-ported banks — capacity checks out,
        // the port budget does not.
        let mut d = design_with_ram(256);
        let before = FlowSnapshot::of(&d);
        let id = d.module_by_name("m").unwrap();
        ggpu_synth::bank_macro(&mut d, id, "ram", 2).unwrap();
        for name in ["ram_b0", "ram_b1"] {
            let mac = d.module_mut(id).find_macro_mut(name).unwrap();
            mac.config = SramConfig::single(mac.config.words, mac.config.bits);
        }
        let after = FlowSnapshot::of(&d);
        let mut report = Report::new("t");
        check_banking(
            before,
            after,
            2,
            2,
            "m/ram x2",
            &LintConfig::new(),
            &mut report,
        );
        assert!(report.has(Code::N009), "{report}");
    }

    #[test]
    fn noop_banking_is_n009() {
        let before = FlowSnapshot::of(&design_with_ram(256));
        let mut report = Report::new("t");
        check_banking(
            before,
            before,
            4,
            2,
            "m/ram x4",
            &LintConfig::new(),
            &mut report,
        );
        assert!(report.has(Code::N009), "a no-op banking added no macros");
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
