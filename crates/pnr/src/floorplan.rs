//! Partitioned floorplanning.
//!
//! The paper's implementation strategy breaks the G-GPU into three
//! partition kinds: the CU (placed once, then *cloned* for multi-CU
//! versions), the general memory controller, and the top. CU and GMC
//! partitions target 70 % placement density; the top region is sparse
//! (30 %). This module computes partition sizes from subtree
//! statistics and arranges CUs in two columns flanking the central
//! memory controller — which is what makes peripheral CUs far from the
//! GMC in the 8-CU floorplan.

use crate::geometry::Rect;
use crate::PnrError;
use ggpu_netlist::stats::{local_stats, subtree_stats};
use ggpu_netlist::{Design, ModuleId};
use ggpu_tech::units::{Um, Um2};
use ggpu_tech::Tech;

/// Std-cell utilization target inside CU partitions (paper: 0.70).
const CU_DENSITY: f64 = 0.70;
/// Std-cell utilization target inside the memory controller (paper:
/// 0.70).
const GMC_DENSITY: f64 = 0.70;
/// Std-cell utilization target of the top region (paper: 0.30).
const TOP_DENSITY: f64 = 0.30;

/// Role of a placed partition (used for colouring and route rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionKind {
    /// A compute-unit clone.
    ComputeUnit,
    /// The general memory controller.
    MemoryController,
    /// The sparse top-level region.
    Top,
}

/// One placed partition.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Instance name (`"cu3"`, `"gmc"`, `"top"`).
    pub name: String,
    /// The module implemented by this partition.
    pub module: ModuleId,
    /// Partition kind.
    pub kind: PartitionKind,
    /// Placed outline.
    pub rect: Rect,
    /// Std-cell area inside the partition.
    pub cell_area: Um2,
    /// Macro area inside the partition.
    pub macro_area: Um2,
}

impl Partition {
    /// Std-cell density achieved: cell area over non-macro area.
    pub fn density(&self) -> f64 {
        let free = self.rect.area().value() - self.macro_area.value() * MACRO_HALO;
        if free <= 0.0 {
            f64::INFINITY
        } else {
            self.cell_area.value() / free
        }
    }
}

/// Halo factor reserved around macros (keep-out for routing).
pub const MACRO_HALO: f64 = 1.08;
/// Spacing channel between partitions.
const CHANNEL: f64 = 40.0;

/// A complete floorplan: chip outline plus placed partitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    /// Chip outline (origin at 0,0).
    pub chip: Rect,
    /// All partitions; CU clones first, then the memory controller,
    /// then the top region.
    pub partitions: Vec<Partition>,
}

impl Floorplan {
    /// The (first) memory-controller partition, or `None` for
    /// hand-built floorplans without one (floorplans produced by
    /// [`build_floorplan`] always have it).
    pub fn gmc(&self) -> Option<&Partition> {
        self.gmcs().next()
    }

    /// All memory-controller partitions (more than one when the design
    /// replicates the controller — the paper's future-work remedy for
    /// the 8-CU routing wall).
    pub fn gmcs(&self) -> impl Iterator<Item = &Partition> {
        self.partitions
            .iter()
            .filter(|p| p.kind == PartitionKind::MemoryController)
    }

    /// All CU partitions in instance order.
    pub fn cus(&self) -> impl Iterator<Item = &Partition> {
        self.partitions
            .iter()
            .filter(|p| p.kind == PartitionKind::ComputeUnit)
    }

    /// Manhattan distance from CU `i` to its *nearest* memory
    /// controller replica.
    pub fn cu_to_gmc_distance(&self, i: usize) -> Option<Um> {
        let cu = self.cus().nth(i)?;
        self.gmcs()
            .map(|g| cu.rect.center_distance(&g.rect))
            .min_by(|a, b| a.value().total_cmp(&b.value()))
    }
}

/// Shelf packing does not achieve perfect macro-area utilization; the
/// partition is sized assuming this packing efficiency.
pub const PACKING_EFFICIENCY: f64 = 0.72;

fn partition_size(cell_area: Um2, macro_area: Um2, density: f64) -> Um2 {
    Um2::new(macro_area.value() * MACRO_HALO / PACKING_EFFICIENCY + cell_area.value() / density)
}

/// Builds the partitioned floorplan for a G-GPU-shaped design.
///
/// The design is expected to follow the generator's structure: a top
/// module instantiating CU clones (module name containing
/// `"compute_unit"`) and one memory controller (`"memory_controller"`).
///
/// # Errors
///
/// Returns [`PnrError::MissingPartition`] if the expected hierarchy is
/// not present.
pub fn build_floorplan(design: &Design, tech: &Tech) -> Result<Floorplan, PnrError> {
    let top_id = design.top();
    let top = design.module(top_id);

    let mut cu_instances: Vec<(String, ModuleId)> = Vec::new();
    let mut gmc_instances: Vec<(String, ModuleId)> = Vec::new();
    for child in &top.children {
        let name = &design.module(child.module).name;
        if name.contains("compute_unit") {
            cu_instances.push((child.name.clone(), child.module));
        } else if name.contains("memory_controller") {
            gmc_instances.push((child.name.clone(), child.module));
        }
    }
    if cu_instances.is_empty() {
        return Err(PnrError::MissingPartition("compute_unit"));
    }
    if gmc_instances.is_empty() {
        return Err(PnrError::MissingPartition("memory_controller"));
    }
    let gmc_id = gmc_instances[0].1;

    let cu_stats = subtree_stats(design, cu_instances[0].1, tech).map_err(PnrError::Sram)?;
    let gmc_stats = subtree_stats(design, gmc_id, tech).map_err(PnrError::Sram)?;
    let top_stats = local_stats(design, top_id, tech).map_err(PnrError::Sram)?;

    let cu_area = partition_size(cu_stats.cell_area, cu_stats.macro_area, CU_DENSITY);
    let gmc_area = partition_size(gmc_stats.cell_area, gmc_stats.macro_area, GMC_DENSITY);
    let top_area = partition_size(top_stats.cell_area, top_stats.macro_area, TOP_DENSITY);

    // CU clones form two columns flanking the central GMC column.
    let n = cu_instances.len();
    let left_count = n.div_ceil(2);
    let right_count = n - left_count;

    let cu_side = cu_area.value().sqrt();
    let column_h = |count: usize| count as f64 * (cu_side + CHANNEL);
    let body_h = column_h(left_count).max(cu_side + CHANNEL);

    // The GMC column is sized to the taller of (its own square shape)
    // and the CU columns, keeping the chip rectangular.
    let gmc_w = (gmc_area.value() / body_h).max(gmc_area.value().sqrt() * 0.62);
    let gmc_h = gmc_area.value() / gmc_w;
    // Stacked controller replicas need vertical room of their own.
    let replicas = gmc_instances.len();
    let body_h = body_h.max(replicas as f64 * (gmc_h + CHANNEL));

    let left_w = if left_count > 0 {
        cu_side + CHANNEL
    } else {
        0.0
    };
    let right_w = if right_count > 0 {
        cu_side + CHANNEL
    } else {
        0.0
    };
    let body_w = left_w + gmc_w + CHANNEL + right_w;
    let chip_w = body_w.max(gmc_w + CHANNEL);
    let top_strip_h = (top_area.value() / chip_w).max(60.0);
    let chip_h = body_h.max(gmc_h + CHANNEL) + top_strip_h + CHANNEL;

    let mut partitions = Vec::with_capacity(n + 2);
    for (i, (inst, module)) in cu_instances.iter().enumerate() {
        let (col_x, row) = if i < left_count {
            (0.0, i)
        } else {
            (left_w + gmc_w + CHANNEL, i - left_count)
        };
        let y = row as f64 * (cu_side + CHANNEL);
        partitions.push(Partition {
            name: inst.clone(),
            module: *module,
            kind: PartitionKind::ComputeUnit,
            rect: Rect::new(
                Um::new(col_x),
                Um::new(y),
                Um::new(cu_side),
                Um::new(cu_side),
            ),
            cell_area: cu_stats.cell_area,
            macro_area: cu_stats.macro_area,
        });
    }
    // GMC replicas share the middle column: one replica is vertically
    // centred; two replicas sit at the quarter points, each close to
    // half the CUs.
    for (g, (inst, module)) in gmc_instances.iter().enumerate() {
        let slot_h = body_h / replicas as f64;
        let y_center = slot_h * (g as f64 + 0.5);
        let gmc_y = (y_center - gmc_h / 2.0).clamp(0.0, (chip_h - gmc_h).max(0.0));
        partitions.push(Partition {
            name: inst.clone(),
            module: *module,
            kind: PartitionKind::MemoryController,
            rect: Rect::new(
                Um::new(left_w),
                Um::new(gmc_y),
                Um::new(gmc_w),
                Um::new(gmc_h),
            ),
            cell_area: gmc_stats.cell_area,
            macro_area: gmc_stats.macro_area,
        });
    }
    // Top region strip across the top edge.
    partitions.push(Partition {
        name: "top".into(),
        module: top_id,
        kind: PartitionKind::Top,
        rect: Rect::new(
            Um::new(0.0),
            Um::new(chip_h - top_strip_h),
            Um::new(chip_w),
            Um::new(top_strip_h),
        ),
        cell_area: top_stats.cell_area,
        macro_area: top_stats.macro_area,
    });

    Ok(Floorplan {
        chip: Rect::new(Um::new(0.0), Um::new(0.0), Um::new(chip_w), Um::new(chip_h)),
        partitions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_rtl::{generate, GgpuConfig};

    fn floorplan(n: u32) -> Floorplan {
        let d = generate(&GgpuConfig::with_cus(n).unwrap()).unwrap();
        build_floorplan(&d, &Tech::l65()).unwrap()
    }

    #[test]
    fn one_cu_floorplan_has_three_partitions() {
        let fp = floorplan(1);
        assert_eq!(fp.partitions.len(), 3);
        assert_eq!(fp.cus().count(), 1);
    }

    #[test]
    fn eight_cu_floorplan_clones_partitions() {
        let fp = floorplan(8);
        assert_eq!(fp.cus().count(), 8);
        // All CU clones are identical in size.
        let sizes: Vec<f64> = fp.cus().map(|c| c.rect.area().value()).collect();
        for s in &sizes {
            assert!((s - sizes[0]).abs() < 1e-6);
        }
    }

    #[test]
    fn partitions_fit_in_chip_without_overlap() {
        for n in [1, 2, 4, 8] {
            let fp = floorplan(n);
            for p in &fp.partitions {
                assert!(
                    fp.chip.contains(&p.rect),
                    "{} escapes chip ({n} CUs)",
                    p.name
                );
            }
            for (i, a) in fp.partitions.iter().enumerate() {
                for b in fp.partitions.iter().skip(i + 1) {
                    assert!(
                        !a.rect.overlaps(&b.rect),
                        "{} overlaps {} ({n} CUs)",
                        a.name,
                        b.name
                    );
                }
            }
        }
    }

    #[test]
    fn peripheral_cus_are_farther_in_bigger_floorplans() {
        let fp8 = floorplan(8);
        let dists: Vec<f64> = (0..8)
            .map(|i| fp8.cu_to_gmc_distance(i).unwrap().value())
            .collect();
        let max8 = dists.iter().cloned().fold(0.0, f64::max);
        let fp1 = floorplan(1);
        let d1 = fp1.cu_to_gmc_distance(0).unwrap().value();
        assert!(max8 > 2.0 * d1, "8-CU worst distance {max8} vs 1-CU {d1}");
        // The paper's failing routes are multi-millimetre.
        assert!(max8 > 2000.0, "worst distance {max8} um");
    }

    #[test]
    fn chip_area_tracks_design_area() {
        let a1 = floorplan(1).chip.area().to_mm2();
        let a8 = floorplan(8).chip.area().to_mm2();
        assert!(a8 > 5.0 * a1, "chip areas {a1} vs {a8}");
        // The 1-CU chip should be in the vicinity of Table I's 4.19 mm^2
        // plus floorplan overhead.
        assert!((3.5..9.0).contains(&a1), "1-CU chip {a1} mm2");
    }

    #[test]
    fn density_is_close_to_target() {
        let fp = floorplan(1);
        for cu in fp.cus() {
            let d = cu.density();
            assert!((0.3..=0.8).contains(&d), "CU density {d}");
        }
    }

    #[test]
    fn missing_gmc_is_an_error() {
        use ggpu_netlist::module::Module;
        use ggpu_netlist::Design;
        let mut d = Design::new("bad");
        let cu = d.add_module(Module::new("compute_unit"));
        let mut top = Module::new("top");
        top.children.push(ggpu_netlist::module::Instance {
            name: "cu0".into(),
            module: cu,
        });
        let t = d.add_module(top);
        d.set_top(t);
        let err = build_floorplan(&d, &Tech::l65()).unwrap_err();
        assert!(matches!(
            err,
            PnrError::MissingPartition("memory_controller")
        ));
    }
}
