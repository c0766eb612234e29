//! Datasheet rendering: one self-contained text report per
//! implemented version — the document a designer would archive with
//! the tapeout-ready IP.

use crate::flow::ImplementedVersion;
use std::fmt::Write as _;

/// Renders a full datasheet for an implemented version: the
/// specification, the optimization recipe, the logic-synthesis PPA,
/// the layout characteristics and the per-CU route delays.
pub fn datasheet(version: &ImplementedVersion) -> String {
    let planned = &version.planned;
    let s = &planned.synthesis;
    let layout = &version.layout;
    let mut out = String::new();
    let _ = writeln!(out, "G-GPU datasheet: {}", planned.spec.version_name());
    let _ = writeln!(out, "=================================================");
    let _ = writeln!(out, "specification : {}", planned.spec);
    let _ = writeln!(out, "configuration : {}", planned.config);
    let _ = writeln!(out, "within spec   : {}", version.within_spec);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "optimization recipe ({} steps):",
        planned.plan.actions().len()
    );
    if planned.plan.is_empty() {
        let _ = writeln!(out, "  (baseline, no optimization required)");
    }
    for action in planned.plan.actions() {
        let _ = writeln!(out, "  {action}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "logic synthesis:");
    let _ = writeln!(
        out,
        "  total area    : {:>9.2} mm2",
        s.stats.total_area().to_mm2()
    );
    let _ = writeln!(
        out,
        "  memory area   : {:>9.2} mm2",
        s.stats.macro_area.to_mm2()
    );
    let _ = writeln!(out, "  flip-flops    : {:>9}", s.stats.ff_cells);
    let _ = writeln!(out, "  combinational : {:>9}", s.stats.comb_cells);
    let _ = writeln!(out, "  memory macros : {:>9}", s.stats.macro_count);
    let _ = writeln!(out, "  leakage       : {:>9.2} mW", s.leakage.value());
    let _ = writeln!(out, "  dynamic       : {:>9.2} W", s.dynamic.to_watts());
    let _ = writeln!(
        out,
        "  fmax          : {:>9}",
        s.fmax
            .map(|f| format!("{f:.0}"))
            .unwrap_or_else(|| "n/a".into())
    );
    if let Some(res) = &planned.resilience {
        let _ = writeln!(out);
        let _ = writeln!(out, "resilience:");
        let _ = writeln!(out, "  ecc policy    : {}", res.policy);
        let _ = writeln!(
            out,
            "  stored bits   : {:>9} ({} data + check)",
            res.stored_bits_total(),
            res.data_bits_total()
        );
        let _ = writeln!(out, "  ecc overhead  : {:>8.2} %", res.overhead_pct());
        let _ = writeln!(
            out,
            "  unprotected   : {:>8.2} % of stored bits",
            res.unprotected_fraction() * 100.0
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "physical synthesis:");
    let _ = writeln!(
        out,
        "  chip outline  : {:.2} x {:.2} mm ({:.2} mm2)",
        layout.floorplan.chip.w.to_mm(),
        layout.floorplan.chip.h.to_mm(),
        layout.floorplan.chip.area().to_mm2()
    );
    let _ = writeln!(
        out,
        "  wirelength    : {:>9.1} mm",
        layout.wirelength.total().to_mm()
    );
    for (layer, wl) in layout.wirelength.iter() {
        let _ = writeln!(out, "    {layer:<4}        : {:>9.0} um", wl.value());
    }
    let _ = writeln!(out, "  achieved clock: {:.0}", layout.achieved_clock);
    let _ = writeln!(
        out,
        "  post-route    : {}",
        if layout.meets_timing {
            "MET"
        } else {
            "VIOLATED"
        }
    );
    let _ = writeln!(out, "  CU route delays to memory controller:");
    for (i, d) in layout.cu_route_delays.iter().enumerate() {
        let _ = writeln!(out, "    cu{i:<2}        : {:>9.3}", d);
    }
    out
}

/// [`datasheet`] plus the supervision record: when the flow degraded
/// or retried, a `flow supervision:` section lists every ladder step
/// and the retry count. A clean run appends **nothing** — the output
/// is byte-identical to [`datasheet`], so archived datasheets of
/// healthy flows never change.
pub fn datasheet_with_supervision(
    version: &ImplementedVersion,
    flow: &crate::supervise::DegradationReport,
) -> String {
    let mut out = datasheet(version);
    if flow.is_clean() {
        return out;
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "flow supervision:");
    let _ = writeln!(out, "  retries       : {:>9}", flow.retries);
    for step in &flow.steps {
        let _ = writeln!(
            out,
            "  degraded      : {}: {} -> {} ({})",
            step.stage, step.from, step.to, step.reason
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuPlanner, Specification};
    use ggpu_tech::units::Mhz;
    use ggpu_tech::Tech;

    #[test]
    fn datasheet_contains_every_section() {
        let planner = GpuPlanner::new(Tech::l65());
        let planned = planner
            .plan(&Specification::new(1, Mhz::new(590.0)))
            .unwrap();
        let implemented = planner.implement(&planned).unwrap();
        let text = datasheet(&implemented);
        for needle in [
            "G-GPU datasheet: 1cu@590MHz",
            "optimization recipe",
            "divide",
            "logic synthesis:",
            "memory macros",
            "physical synthesis:",
            "achieved clock: 590",
            "cu0",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn resilient_spec_gets_a_resilience_section() {
        use ggpu_tech::sram::EccScheme;
        let planner = GpuPlanner::new(Tech::l65());
        let spec = Specification::new(1, Mhz::new(500.0)).with_resilience(EccScheme::SecDed);
        let implemented = planner.implement(&planner.plan(&spec).unwrap()).unwrap();
        let text = datasheet(&implemented);
        for needle in [
            "resilience:",
            "ecc policy    : default=secded",
            "ecc overhead",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // An unconstrained spec has no such section.
        let plain = planner
            .implement(
                &planner
                    .plan(&Specification::new(1, Mhz::new(500.0)))
                    .unwrap(),
            )
            .unwrap();
        assert!(!datasheet(&plain).contains("resilience:"));
    }

    #[test]
    fn paper_layout_datasheets_pin_wirelength_and_route_summary() {
        // Regression fence for the paper's four physical versions: the
        // per-layer wirelength ordering of Table II and the route-delay
        // summary must not drift when placement internals change.
        let planner = GpuPlanner::new(Tech::l65());
        for spec in crate::versions::physical_versions() {
            let imp = planner.implement(&planner.plan(&spec).unwrap()).unwrap();
            let text = datasheet(&imp);
            let wl = &imp.layout.wirelength;
            // Table II shape: M3 dominates, upper layers taper off.
            assert!(wl.layer("M3") > wl.layer("M2"), "{spec}");
            assert!(wl.layer("M2") > wl.layer("M6"), "{spec}");
            assert!(wl.layer("M6") > wl.layer("M7"), "{spec}");
            assert!(wl.layer("M7").value() > 0.0, "{spec}");
            // Route-delay summary: one line per CU, last one present.
            let cus = spec.compute_units as usize;
            assert_eq!(imp.layout.cu_route_delays.len(), cus, "{spec}");
            assert!(text.contains(&format!("cu{}", cus - 1)), "{spec}");
            // Only 8cu@667 misses timing post-route (closes near 600).
            let expect_met = !(spec.compute_units == 8 && spec.frequency.value() > 600.0);
            assert_eq!(text.contains("post-route    : MET"), expect_met, "{spec}");
        }
    }

    #[test]
    fn baseline_datasheet_says_no_recipe() {
        let planner = GpuPlanner::new(Tech::l65());
        let implemented = planner
            .implement(
                &planner
                    .plan(&Specification::new(1, Mhz::new(500.0)))
                    .unwrap(),
            )
            .unwrap();
        assert!(datasheet(&implemented).contains("baseline, no optimization required"));
    }
}
