//! The map as an artifact: the paper describes GPUPlanner's map as a
//! *"dynamic spreadsheet, where the user inputs the delay of the
//! memory blocks required for the non-optimized version"* and reads
//! back which memory to divide for a target frequency. This module
//! produces that spreadsheet from a design: one row per memory
//! structure with its access time, the slack of its worst launching
//! path at the target, and the division factor that would close it.

use crate::dse::apply_plan;
use crate::map::advise;
use ggpu_netlist::timing::PathEndpoint;
use ggpu_netlist::Design;
use ggpu_sta::{analyze, StaError};
use ggpu_tech::sram::SramConfig;
use ggpu_tech::units::{Mhz, Ns};
use ggpu_tech::Tech;
use std::fmt::Write as _;

/// One spreadsheet row: a memory structure and what the map says
/// about it at the target frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct MapRow {
    /// Module owning the memory.
    pub module: String,
    /// Macro instance name (one representative bank).
    pub macro_name: String,
    /// Its geometry.
    pub config: SramConfig,
    /// Compiled access time.
    pub access_time: Ns,
    /// Worst slack of a path launching from it at the target clock.
    pub slack: Ns,
    /// Smallest power-of-two division factor that brings the macro's
    /// paths to non-negative slack at the target (1 = no division
    /// needed, `None` = no factor up to 16 suffices).
    pub division_to_close: Option<u32>,
}

/// Builds the frequency map for `design` at `target`.
///
/// Only memories that appear as launch points of declared timing
/// paths are listed (others cannot limit the clock).
///
/// # Errors
///
/// Returns [`StaError`] if timing analysis fails.
pub fn frequency_map(design: &Design, tech: &Tech, target: Mhz) -> Result<Vec<MapRow>, StaError> {
    let report = analyze(design, tech, target)?;
    let mut rows = Vec::new();
    for timing in report.paths() {
        let PathEndpoint::Macro(macro_name) = &timing.start else {
            continue;
        };
        // One row per macro: keep the worst path only.
        if rows
            .iter()
            .any(|r: &MapRow| r.module == timing.module && &r.macro_name == macro_name)
        {
            continue;
        }
        let module_id = design
            .module_by_name(&timing.module)
            .expect("report names an existing module");
        let config = design
            .module(module_id)
            .find_macro(macro_name)
            .expect("report names an existing macro")
            .config;
        let access_time = tech
            .memory_compiler
            .compile(config)
            .map_err(StaError::from)?
            .access_time;

        let division_to_close = if timing.slack.value() >= 0.0 {
            Some(1)
        } else {
            // Try factors 2, 4, 8, 16 on a scratch copy.
            let mut found = None;
            for factor in [2u32, 4, 8, 16] {
                let mut plan = crate::dse::OptimizationPlan::default();
                plan.divisions
                    .insert((timing.module.clone(), macro_name.clone()), factor);
                let Ok(divided) = apply_plan(design, &plan) else {
                    break; // compiler range exceeded
                };
                let divided_report = analyze(&divided, tech, target)?;
                // The row's own check, so a NaN slack never closes.
                let closes = divided_report
                    .paths()
                    .iter()
                    .filter(|p| {
                        p.module == timing.module
                            && matches!(&p.start, PathEndpoint::Macro(n)
                                        if n.starts_with(macro_name.as_str()))
                    })
                    .all(|p| p.slack.value() >= 0.0);
                if closes {
                    found = Some(factor);
                    break;
                }
            }
            found
        };

        rows.push(MapRow {
            module: timing.module.clone(),
            macro_name: macro_name.clone(),
            config,
            access_time,
            slack: timing.slack,
            division_to_close,
        });
    }
    Ok(rows)
}

/// Renders the map as CSV, slowest memory first — the importable form
/// of the paper's spreadsheet.
pub fn map_to_csv(rows: &[MapRow]) -> String {
    let mut sorted: Vec<&MapRow> = rows.iter().collect();
    sorted.sort_by(|a, b| a.slack.value().total_cmp(&b.slack.value()));
    let mut out = String::from("module,macro,words,bits,ports,access_ns,slack_ns,divide_by\n");
    for r in sorted {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.3},{:.3},{}",
            r.module,
            r.macro_name,
            r.config.words,
            r.config.bits,
            r.config.ports,
            r.access_time.value(),
            r.slack.value(),
            r.division_to_close
                .map(|f| f.to_string())
                .unwrap_or_else(|| "unreachable".into()),
        );
    }
    out
}

/// Convenience: the map plus the overall next-step advice, rendered
/// for a designer (the iterative workflow of the paper's Fig. 2).
///
/// # Errors
///
/// Returns [`StaError`] if timing analysis fails.
pub fn render_map(design: &Design, tech: &Tech, target: Mhz) -> Result<String, StaError> {
    let rows = frequency_map(design, tech, target)?;
    let advice = advise(design, tech, target)?;
    Ok(format!(
        "# frequency map @ {target:.0}\n# next step: {advice}\n{}",
        map_to_csv(&rows)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_rtl::{generate, GgpuConfig};

    fn base() -> Design {
        generate(&GgpuConfig::with_cus(1).unwrap()).unwrap()
    }

    #[test]
    fn map_lists_every_memory_launched_path_once() {
        let rows = frequency_map(&base(), &Tech::l65(), Mhz::new(590.0)).unwrap();
        // rf_bank, cram0, lram0, wf_state0, div_stack0, cache_data0,
        // cache_tag, rtm0, axi_fifo0.
        assert_eq!(rows.len(), 9, "{rows:#?}");
        let mut keys: Vec<(String, String)> = rows
            .iter()
            .map(|r| (r.module.clone(), r.macro_name.clone()))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 9, "one row per macro");
    }

    #[test]
    fn failing_memories_get_a_division_factor() {
        let rows = frequency_map(&base(), &Tech::l65(), Mhz::new(590.0)).unwrap();
        let rf = rows
            .iter()
            .find(|r| r.macro_name == "rf_bank")
            .expect("register file row");
        assert!(rf.slack.value() < 0.0, "rf fails at 590 on the baseline");
        assert_eq!(rf.division_to_close, Some(2), "one halving closes 590");
        let small = rows
            .iter()
            .find(|r| r.macro_name == "div_stack0")
            .expect("divergence stack row");
        assert_eq!(small.division_to_close, Some(1), "already meets timing");
    }

    #[test]
    fn csv_is_sorted_worst_first_and_parseable() {
        let rows = frequency_map(&base(), &Tech::l65(), Mhz::new(667.0)).unwrap();
        let csv = map_to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "module,macro,words,bits,ports,access_ns,slack_ns,divide_by"
        );
        assert_eq!(lines.len(), rows.len() + 1);
        // Worst slack first.
        let slack = |line: &str| -> f64 { line.split(',').nth(6).unwrap().parse().unwrap() };
        for pair in lines[1..].windows(2) {
            assert!(slack(pair[0]) <= slack(pair[1]));
        }
    }

    #[test]
    fn render_map_mentions_the_next_step() {
        let text = render_map(&base(), &Tech::l65(), Mhz::new(590.0)).unwrap();
        assert!(text.contains("# next step: divide"));
        assert!(text.contains("rf_bank"));
    }

    #[test]
    fn nan_slack_renders_unreachable_without_panicking() {
        use ggpu_netlist::module::{MacroInst, MemoryRole, Module};
        use ggpu_netlist::timing::{LogicStage, TimingPath};
        use ggpu_tech::stdcell::CellClass;

        let mut d = Design::new("nan");
        let mut m = Module::new("m");
        for (name, route) in [("good", 0.0), ("corrupt", f64::NAN)] {
            m.macros.push(MacroInst::new(
                name,
                SramConfig::dual(4096, 32),
                MemoryRole::Other,
                0.5,
            ));
            let mut path = TimingPath::new(
                format!("{name}_read"),
                PathEndpoint::Macro(name.into()),
                PathEndpoint::Register,
                LogicStage::chain(CellClass::Nand2, 4, 2),
            );
            path.route_delay = Ns::new(route);
            m.paths.push(path);
        }
        let id = d.add_module(m);
        d.set_top(id);
        let (tech, target) = (Tech::l65(), Mhz::new(500.0));
        let rows = frequency_map(&d, &tech, target).unwrap();
        assert_eq!(rows.len(), 2, "{rows:#?}");
        let corrupt = rows.iter().find(|r| r.macro_name == "corrupt").unwrap();
        assert!(corrupt.slack.value().is_nan());
        assert_eq!(corrupt.division_to_close, None, "a NaN slack never closes");
        let csv = map_to_csv(&rows);
        let line = csv.lines().find(|l| l.starts_with("m,corrupt,")).unwrap();
        assert!(line.ends_with(",NaN,unreachable"), "{csv}");
        assert!(render_map(&d, &tech, target)
            .unwrap()
            .contains(",unreachable\n"));
    }

    #[test]
    fn met_target_needs_no_divisions() {
        let rows = frequency_map(&base(), &Tech::l65(), Mhz::new(400.0)).unwrap();
        assert!(rows.iter().all(|r| r.division_to_close == Some(1)));
    }
}
