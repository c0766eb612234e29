//! The netlist linter: structural and numeric invariants over a
//! [`Design`].
//!
//! Unlike [`Design::validate`], which stops at the first structural
//! error, the linter walks the whole design and reports *every*
//! finding, so a planner pre-flight gate can show the complete damage
//! of a bad transform in one pass.
//!
//! Checks:
//!
//! * **N001** duplicate module / child-instance / macro names.
//! * **N002** dangling references: a child instance pointing outside
//!   the arena, or a timing-path [`PathEndpoint::Macro`] naming a
//!   macro absent from its module.
//! * **N003** SRAM geometry outside the 65 nm memory compiler's legal
//!   range (16–65536 words × 2–144 bits, the paper's §III limits).
//! * **N004** non-finite or out-of-`[0, 1]` activity values on cell
//!   groups and macros.
//! * **N007** missing top module or a cyclic instantiation graph.

use crate::diag::{Code, LintConfig, Report};
use ggpu_netlist::timing::PathEndpoint;
use ggpu_netlist::Design;
use std::collections::HashSet;

/// Lints `design` under `config`.
pub fn lint_design(design: &Design, config: &LintConfig) -> Report {
    let mut report = Report::new(design.name());

    // N001: duplicate module names.
    let mut module_names: HashSet<&str> = HashSet::new();
    for id in design.module_ids() {
        let m = design.module(id);
        if !module_names.insert(&m.name) {
            report.push(
                config,
                Code::N001,
                format!("duplicate module name `{}`", m.name),
                None,
                Some(m.name.clone()),
            );
        }
    }

    for id in design.module_ids() {
        let module = design.module(id);

        // N001: duplicate child-instance and macro names.
        let mut inst_names: HashSet<&str> = HashSet::new();
        for child in &module.children {
            if !inst_names.insert(&child.name) {
                report.push(
                    config,
                    Code::N001,
                    format!("duplicate instance name `{}`", child.name),
                    None,
                    Some(format!("{}/{}", module.name, child.name)),
                );
            }
            // N002: dangling child.
            if child.module.index() >= design.module_count() {
                report.push(
                    config,
                    Code::N002,
                    format!("instance `{}` refers to a missing module", child.name),
                    None,
                    Some(format!("{}/{}", module.name, child.name)),
                );
            }
        }
        let mut macro_names: HashSet<&str> = HashSet::new();
        for mac in &module.macros {
            if !macro_names.insert(&mac.name) {
                report.push(
                    config,
                    Code::N001,
                    format!("duplicate macro name `{}`", mac.name),
                    None,
                    Some(format!("{}/{}", module.name, mac.name)),
                );
            }
            // N003: compiler range.
            if let Err(e) = mac.config.validate() {
                report.push(
                    config,
                    Code::N003,
                    format!(
                        "macro `{}` ({}x{}b) outside the memory-compiler range: {e}",
                        mac.name, mac.config.words, mac.config.bits
                    ),
                    None,
                    Some(format!("{}/{}", module.name, mac.name)),
                );
            }
            // N004: macro access activity.
            if !mac.access_activity.is_finite() || !(0.0..=1.0).contains(&mac.access_activity) {
                report.push(
                    config,
                    Code::N004,
                    format!(
                        "macro `{}` has invalid access activity {}",
                        mac.name, mac.access_activity
                    ),
                    None,
                    Some(format!("{}/{}", module.name, mac.name)),
                );
            }
        }

        // N004: cell-group activity.
        for group in &module.groups {
            if !group.activity.is_finite() || !(0.0..=1.0).contains(&group.activity) {
                report.push(
                    config,
                    Code::N004,
                    format!(
                        "cell group `{}` has invalid activity {}",
                        group.name, group.activity
                    ),
                    None,
                    Some(format!("{}/{}", module.name, group.name)),
                );
            }
        }

        // N002: timing-path endpoints naming missing macros.
        for path in &module.paths {
            for (end, endpoint) in [("start", &path.start), ("end", &path.end)] {
                if let PathEndpoint::Macro(name) = endpoint {
                    if module.find_macro(name).is_none() {
                        report.push(
                            config,
                            Code::N002,
                            format!(
                                "path `{}` {end}s at macro `{name}` which is not in `{}`",
                                path.name, module.name
                            ),
                            None,
                            Some(format!("{}/{}", module.name, path.name)),
                        );
                    }
                }
            }
        }
    }

    // N007: missing top / instantiation cycles. Reuse the structural
    // validator for the graph walk, but only surface the cycle/top
    // classes here (the rest were already reported above, completely).
    match design.validate() {
        Err(ggpu_netlist::design::ValidateDesignError::MissingTop) => {
            report.push(config, Code::N007, "design has no top module", None, None);
        }
        Err(ggpu_netlist::design::ValidateDesignError::InstantiationCycle(m)) => {
            report.push(
                config,
                Code::N007,
                format!("instantiation cycle through module `{m}`"),
                None,
                Some(m),
            );
        }
        _ => {}
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_netlist::module::{CellGroup, Instance, MacroInst, MemoryRole, Module};
    use ggpu_netlist::timing::{LogicStage, TimingPath};
    use ggpu_tech::sram::SramConfig;
    use ggpu_tech::stdcell::CellClass;

    fn config() -> LintConfig {
        LintConfig::new()
    }

    fn small_design() -> Design {
        let mut d = Design::new("t");
        let mut leaf = Module::new("leaf");
        leaf.macros.push(MacroInst::new(
            "ram",
            SramConfig::dual(64, 32),
            MemoryRole::Other,
            0.5,
        ));
        leaf.paths.push(TimingPath::new(
            "read",
            PathEndpoint::Macro("ram".into()),
            PathEndpoint::Register,
            LogicStage::chain(CellClass::Nand2, 4, 2),
        ));
        let leaf = d.add_module(leaf);
        let mut top = Module::new("top");
        top.children.push(Instance {
            name: "u0".into(),
            module: leaf,
        });
        let top = d.add_module(top);
        d.set_top(top);
        d
    }

    #[test]
    fn well_formed_design_is_clean() {
        let r = lint_design(&small_design(), &config());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn missing_top_is_n007() {
        let d = Design::new("x");
        let r = lint_design(&d, &config());
        assert!(r.has(Code::N007));
    }

    #[test]
    fn illegal_sram_shapes_are_n003() {
        let mut d = small_design();
        let leaf = d.module_by_name("leaf").unwrap();
        d.module_mut(leaf).find_macro_mut("ram").unwrap().config = SramConfig::dual(8, 32);
        let r = lint_design(&d, &config());
        assert!(r.has(Code::N003), "{r}");
        // 8 words is below the compiler's 16-word minimum.
        assert_eq!(r.denial_count(), 1);
    }

    #[test]
    fn invalid_activity_is_n004() {
        let mut d = small_design();
        let leaf = d.module_by_name("leaf").unwrap();
        d.module_mut(leaf)
            .find_macro_mut("ram")
            .unwrap()
            .access_activity = f64::NAN;
        d.module_mut(leaf)
            .groups
            .push(CellGroup::new("glue", CellClass::Inv, 10, 0.1));
        d.module_mut(leaf).groups[0].activity = 1.5;
        let r = lint_design(&d, &config());
        assert_eq!(
            r.diagnostics
                .iter()
                .filter(|x| x.code == Code::N004)
                .count(),
            2
        );
    }

    #[test]
    fn dangling_path_macro_is_n002() {
        let mut d = small_design();
        let leaf = d.module_by_name("leaf").unwrap();
        d.module_mut(leaf).remove_macro("ram");
        let r = lint_design(&d, &config());
        assert!(r.has(Code::N002), "{r}");
    }

    #[test]
    fn duplicate_names_are_n001_and_all_reported() {
        let mut d = small_design();
        let leaf = d.module_by_name("leaf").unwrap();
        let dup = d.module(leaf).macros[0].clone();
        d.module_mut(leaf).macros.push(dup);
        let top = d.module_by_name("top").unwrap();
        let dup_inst = d.module(top).children[0].clone();
        d.module_mut(top).children.push(dup_inst);
        let r = lint_design(&d, &config());
        assert_eq!(
            r.diagnostics
                .iter()
                .filter(|x| x.code == Code::N001)
                .count(),
            2,
            "{r}"
        );
    }

    #[test]
    fn generated_ggpu_designs_are_clean() {
        for cus in [1u32, 4] {
            let design = ggpu_rtl::generate(&ggpu_rtl::GgpuConfig::with_cus(cus).unwrap()).unwrap();
            let r = lint_design(&design, &config());
            assert!(r.is_clean(), "{cus}-CU baseline: {r}");
        }
    }
}
