//! Global routing: per-layer wirelength estimation and route-delay
//! annotation of inter-partition timing paths.
//!
//! Local (intra-partition) wiring is estimated with a calibrated
//! statistical model — detailed routing of a 1.5 M-cell design is out
//! of scope and unnecessary for the paper's conclusions, which depend
//! on (a) the per-layer wirelength ranking of Table II and (b) the
//! buffered-wire delay of the CU↔memory-controller routes that caps
//! the 8-CU layout at 600 MHz.

use crate::floorplan::Floorplan;
use crate::PnrError;
use ggpu_netlist::stats::design_stats;
use ggpu_netlist::Design;
use ggpu_tech::units::{Ns, Um};
use ggpu_tech::wireload::BufferedWire;
use ggpu_tech::Tech;
use std::collections::BTreeMap;

/// Signal wires in the CU ↔ memory-controller bus (request + response
/// data, address and handshake).
pub const CU_GMC_BUS_WIRES: f64 = 512.0;
/// Signal wires in the dispatcher ↔ CU control bus.
pub const TOP_CU_BUS_WIRES: f64 = 128.0;
/// Detour factor of routed versus Manhattan length.
pub const ROUTE_DETOUR: f64 = 1.15;
/// Fixed driver/via delay added to every buffered inter-partition
/// route.
pub const ROUTE_OVERHEAD: Ns = Ns::new(0.05);

/// Calibration constants of the statistical local-wirelength model
/// `WL = c * cells^0.75 * chip_mm2^0.3 * congestion`.
const WL_COEFF: f64 = 941.0;
const WL_CELL_EXP: f64 = 0.75;
const WL_AREA_EXP: f64 = 0.3;

/// Fraction of local wirelength per signal layer M2–M7, calibrated to
/// the distribution of the paper's Table II (1CU@500MHz column).
const LOCAL_PROFILE: [(&str, f64); 6] = [
    ("M2", 0.198),
    ("M3", 0.320),
    ("M4", 0.186),
    ("M5", 0.169),
    ("M6", 0.089),
    ("M7", 0.038),
];

/// Fraction of global (inter-partition) wirelength per layer; long
/// routes prefer the fast upper layers.
const GLOBAL_PROFILE: [(&str, f64); 4] = [("M4", 0.15), ("M5", 0.35), ("M6", 0.30), ("M7", 0.20)];

/// Signal wirelength broken down by metal layer — the paper's
/// Table II.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LayerWirelength {
    per_layer: BTreeMap<String, f64>,
}

impl LayerWirelength {
    /// Wirelength on the given layer.
    pub fn layer(&self, name: &str) -> Um {
        Um::new(self.per_layer.get(name).copied().unwrap_or(0.0))
    }

    /// Total signal wirelength.
    pub fn total(&self) -> Um {
        Um::new(self.per_layer.values().sum())
    }

    /// Iterates `(layer, wirelength)` in layer order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Um)> {
        self.per_layer
            .iter()
            .map(|(k, v)| (k.as_str(), Um::new(*v)))
    }

    fn add(&mut self, layer: &str, length: f64) {
        *self.per_layer.entry(layer.to_string()).or_insert(0.0) += length;
    }
}

/// Estimates the signal wirelength of the placed design.
///
/// # Errors
///
/// Fails if a macro geometry is outside the compiler range.
pub fn estimate_wirelength(
    design: &Design,
    floorplan: &Floorplan,
    tech: &Tech,
) -> Result<LayerWirelength, PnrError> {
    let stats = design_stats(design, tech).map_err(PnrError::Sram)?;
    let cells = stats.total_cells() as f64;
    let chip_mm2 = floorplan.chip.area().to_mm2();

    // Congestion: many small macros fragment the placement area and
    // force detours; the factor grows with macro count per unit area.
    let macro_density = stats.macro_count as f64 / chip_mm2.max(1e-6);
    let congestion = (macro_density / 10.0).max(0.5).sqrt();

    let local = WL_COEFF * cells.powf(WL_CELL_EXP) * chip_mm2.powf(WL_AREA_EXP) * congestion;

    let mut wl = LayerWirelength::default();
    for (layer, frac) in LOCAL_PROFILE {
        wl.add(layer, local * frac);
    }

    // Inter-partition buses (each CU talks to its nearest controller
    // replica).
    let mut global = 0.0;
    for cu in floorplan.cus() {
        let dist = floorplan
            .gmcs()
            .map(|g| cu.rect.center_distance(&g.rect).value())
            .fold(f64::MAX, f64::min);
        global += CU_GMC_BUS_WIRES * dist * ROUTE_DETOUR;
    }
    if let Some(top) = floorplan
        .partitions
        .iter()
        .find(|p| p.kind == crate::floorplan::PartitionKind::Top)
    {
        for cu in floorplan.cus() {
            global += TOP_CU_BUS_WIRES * cu.rect.center_distance(&top.rect).value() * ROUTE_DETOUR;
        }
    }
    for (layer, frac) in GLOBAL_PROFILE {
        wl.add(layer, global * frac);
    }
    Ok(wl)
}

/// Annotates the top module's per-CU arbitration paths (and the
/// dispatch path) with buffered-wire route delays derived from the
/// floorplan distances. Returns the per-CU route delays.
///
/// This is where the paper's 8-CU story plays out: *"the connecting
/// routing wires introduce a significant capacitance because of the
/// long distance between the peripheral CUs and the general memory
/// controller"*.
///
/// # Errors
///
/// Returns [`PnrError::MissingLayer`] if the technology has no M6
/// routing layer, or [`PnrError::MissingPartition`] if the floorplan
/// has no memory controller.
pub fn annotate_routes(
    design: &mut Design,
    floorplan: &Floorplan,
    tech: &Tech,
) -> Result<Vec<Ns>, PnrError> {
    let m6 = tech
        .metal_stack
        .by_name("M6")
        .ok_or(PnrError::MissingLayer("M6"))?
        .clone();
    let wire = BufferedWire::on_layer(&m6);
    let mut cu_delays: Vec<(String, Ns)> = Vec::new();
    for cu in floorplan.cus() {
        let dist = floorplan
            .gmcs()
            .map(|g| cu.rect.center_distance(&g.rect))
            .min_by(|a, b| a.value().total_cmp(&b.value()))
            .ok_or(PnrError::MissingPartition("memory_controller"))?;
        cu_delays.push((
            cu.name.clone(),
            wire.delay(dist * ROUTE_DETOUR) + ROUTE_OVERHEAD,
        ));
    }

    let top_id = design.top();
    let top = design.module_mut(top_id);
    let mut delays = Vec::with_capacity(cu_delays.len());
    for (cu_name, delay) in &cu_delays {
        // "cu3" -> path "arb_cu3".
        if let Some(path) = top
            .paths
            .iter_mut()
            .find(|p| p.name == format!("arb_{cu_name}"))
        {
            path.route_delay = *delay;
        }
        delays.push(*delay);
    }
    // The dispatch path runs from the top strip to the farthest CU.
    let max_delay = delays.iter().copied().fold(Ns::ZERO, Ns::max);
    if let Some(path) = top.paths.iter_mut().find(|p| p.name == "dispatch") {
        path.route_delay = max_delay * 0.6;
    }
    Ok(delays)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::build_floorplan;
    use ggpu_rtl::{generate, GgpuConfig};
    use ggpu_sta::max_frequency;

    fn setup(n: u32) -> (Design, Floorplan, Tech) {
        let d = generate(&GgpuConfig::with_cus(n).unwrap()).unwrap();
        let tech = Tech::l65();
        let fp = build_floorplan(&d, &tech).unwrap();
        (d, fp, tech)
    }

    #[test]
    fn wirelength_covers_signal_layers_only() {
        let (d, fp, tech) = setup(1);
        let wl = estimate_wirelength(&d, &fp, &tech).unwrap();
        for layer in ["M2", "M3", "M4", "M5", "M6", "M7"] {
            assert!(wl.layer(layer).value() > 0.0, "{layer}");
        }
        assert_eq!(wl.layer("M1").value(), 0.0);
        assert_eq!(wl.layer("M8").value(), 0.0);
    }

    #[test]
    fn one_cu_total_is_table2_magnitude() {
        let (d, fp, tech) = setup(1);
        let wl = estimate_wirelength(&d, &fp, &tech).unwrap();
        // Paper Table II, 1CU@500MHz: 16.1e6 um total over M2-M7.
        let total = wl.total().value();
        assert!(
            (8.0e6..30.0e6).contains(&total),
            "1-CU total wirelength {total}"
        );
    }

    #[test]
    fn eight_cu_has_several_times_more_wire() {
        let (d1, fp1, tech) = setup(1);
        let (d8, fp8, _) = setup(8);
        let w1 = estimate_wirelength(&d1, &fp1, &tech).unwrap().total();
        let w8 = estimate_wirelength(&d8, &fp8, &tech).unwrap().total();
        let ratio = w8 / w1;
        // Paper: 109.8e6 / 16.1e6 = 6.8x.
        assert!((4.0..10.0).contains(&ratio), "8CU/1CU wirelength {ratio}");
    }

    #[test]
    fn m3_carries_the_most_local_wire() {
        let (d, fp, tech) = setup(1);
        let wl = estimate_wirelength(&d, &fp, &tech).unwrap();
        // Matches the Table II ranking for the unoptimized 1-CU design.
        assert!(wl.layer("M3") > wl.layer("M2"));
        assert!(wl.layer("M2") > wl.layer("M6"));
        assert!(wl.layer("M6") > wl.layer("M7"));
    }

    #[test]
    fn annotation_sets_per_cu_route_delays() {
        let (mut d, fp, tech) = setup(8);
        let before = max_frequency(&d, &tech).unwrap().unwrap();
        let delays = annotate_routes(&mut d, &fp, &tech).unwrap();
        assert_eq!(delays.len(), 8);
        // On the *unoptimized* design the memory paths still dominate,
        // so the baseline fmax must not change (the paper's routes only
        // bite on the 667 MHz-optimized 8-CU version).
        let after = max_frequency(&d, &tech).unwrap().unwrap();
        assert!((after.value() - before.value()).abs() < 1e-6);
        // Peripheral CUs are slower than central ones, and the worst
        // route is substantial (multi-millimetre buffered wire).
        let min = delays.iter().cloned().fold(Ns::new(f64::MAX), Ns::min);
        let max = delays.iter().cloned().fold(Ns::ZERO, Ns::max);
        assert!(
            max.value() > 1.5 * min.value(),
            "delay spread {min} .. {max}"
        );
        assert!(max.value() > 0.4, "worst route delay {max}");
        // The annotation landed on the arb paths.
        let top = d.module(d.top());
        assert!(top
            .paths
            .iter()
            .filter(|p| p.name.starts_with("arb_cu"))
            .all(|p| p.route_delay.value() > 0.0));
    }

    #[test]
    fn one_cu_routes_are_short() {
        let (mut d, fp, tech) = setup(1);
        let delays = annotate_routes(&mut d, &fp, &tech).unwrap();
        assert_eq!(delays.len(), 1);
        assert!(
            delays[0].value() < 0.5,
            "1-CU route delay {} should be well under the 667 MHz budget",
            delays[0]
        );
    }
}
