//! DSE and the fault-injection exposure map stay coherent: the
//! campaign's macro map is derived from the *optimized* netlist, so a
//! memory division performed by the frequency-map exploration
//! measurably redistributes that memory's SEU exposure across the new
//! banks (the acceptance link between `gpuplanner` and `ggpu-fault`).

use ggpu_fault::MacroMap;
use ggpu_netlist::EccPolicy;
use ggpu_tech::sram::EccScheme;
use ggpu_tech::units::Mhz;
use ggpu_tech::Tech;
use gpuplanner::{GpuPlanner, Specification};

fn planned_map(planner: &GpuPlanner, mhz: f64) -> (gpuplanner::PlannedVersion, MacroMap) {
    let version = planner.plan(&Specification::new(1, Mhz::new(mhz))).unwrap();
    let policy = EccPolicy::uniform(EccScheme::Parity);
    let map = MacroMap::from_design(&version.design, &policy).unwrap();
    (version, map)
}

#[test]
fn dividing_a_macro_changes_its_seu_exposure() {
    let planner = GpuPlanner::new(Tech::l65());
    // 500 MHz: baseline, rf_bank undivided.
    let (base, base_map) = planned_map(&planner, 500.0);
    assert!(base.plan.is_empty(), "500 MHz needs no recipe");
    // 590 MHz: the map divides the register file.
    let (fast, fast_map) = planned_map(&planner, 590.0);
    assert!(
        fast.plan.divisions.keys().any(|(_, mac)| mac == "rf_bank"),
        "590 MHz divides the register file: {:?}",
        fast.plan.divisions
    );

    // Aggregate exposure of all rf parts is conserved (a word-axis
    // division moves bits, it does not create them)…
    let agg_base = base_map.exposure_of("rf_bank");
    let agg_fast = fast_map.exposure_of("rf_bank");
    assert!(agg_base > 0.0);
    assert!(
        (agg_base - agg_fast).abs() < 1e-9,
        "aggregate {agg_base} vs {agg_fast}"
    );

    // …but each resulting bank carries measurably less than the
    // undivided original, so a campaign samples it less often.
    let part = fast_map.exposure_of("rf_bank_d0");
    assert!(part > 0.0, "divided bank exists in the map");
    assert!(
        part < agg_base * 0.75,
        "per-bank exposure {part} must drop below the undivided {agg_base}"
    );
    // The baseline has no divided banks at all.
    assert_eq!(base_map.exposure_of("rf_bank_d0"), 0.0);
}
