//! Macro placement inside partitions.
//!
//! Block memories "have to be strategically placed in order to extract
//! the maximum performance" (paper §IV). [`place_macros`] shelf-packs
//! each partition's macros along its bottom edge rows, first-fit
//! decreasing — deterministic, so the paper's 4 physical layouts and
//! all Table-I datasheets are pinned to it — and verifies that the
//! std-cell region can hold the partition's cells at a legal
//! utilization.

use crate::floorplan::{Floorplan, Partition, MACRO_HALO};
use crate::geometry::Rect;
use crate::PnrError;
use ggpu_netlist::module::MemoryRole;
use ggpu_netlist::Design;
use ggpu_tech::units::Um;
use ggpu_tech::Tech;

/// Maximum legal std-cell utilization of the non-macro area.
pub const MAX_CELL_UTILIZATION: f64 = 0.88;
/// Spacing between adjacent macros.
const MACRO_SPACING: f64 = 10.0;

/// A macro placed inside a partition.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedMacro {
    /// Hierarchical name relative to the partition
    /// (`"pe3/rf_bank_d1"`).
    pub name: String,
    /// Architectural role (drives the layout colouring, matching the
    /// paper's Figs. 3-4).
    pub role: MemoryRole,
    /// Placed outline in chip coordinates.
    pub rect: Rect,
}

/// The placement of one partition: its macros plus achieved std-cell
/// utilization.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedPartition {
    /// The partition this placement fills.
    pub partition: Partition,
    /// Placed macros.
    pub macros: Vec<PlacedMacro>,
    /// Std-cell utilization of the remaining area.
    pub utilization: f64,
}

/// One macro to place: hierarchical name, role, width, height.
type MacroSpec = (String, MemoryRole, Um, Um);

/// Collects the macros of a partition's subtree with hierarchical
/// names.
fn collect_macros(
    design: &Design,
    module: ggpu_netlist::ModuleId,
    tech: &Tech,
) -> Result<Vec<MacroSpec>, PnrError> {
    fn walk(
        design: &Design,
        module: ggpu_netlist::ModuleId,
        tech: &Tech,
        prefix: &mut String,
        out: &mut Vec<MacroSpec>,
    ) -> Result<(), PnrError> {
        for m in &design.module(module).macros {
            let compiled = tech
                .memory_compiler
                .compile(m.config)
                .map_err(PnrError::Sram)?;
            let name = if prefix.is_empty() {
                m.name.clone()
            } else {
                format!("{prefix}/{}", m.name)
            };
            out.push((name, m.role, compiled.width, compiled.height));
        }
        let len = prefix.len();
        for child in &design.module(module).children {
            if !prefix.is_empty() {
                prefix.push('/');
            }
            prefix.push_str(&child.name);
            walk(design, child.module, tech, prefix, out)?;
            prefix.truncate(len);
        }
        Ok(())
    }
    let mut out = Vec::new();
    let mut prefix = String::new();
    walk(design, module, tech, &mut prefix, &mut out)?;
    Ok(out)
}

/// Shelf-packs `macros` into `region` with first-fit-decreasing: tall
/// macros open shelves bottom-up; later macros drop into the first
/// shelf with room (rotating when that helps).
fn shelf_pack(region: &Rect, macros: &[MacroSpec]) -> Result<Vec<PlacedMacro>, PnrError> {
    // Normalize each macro taller-than-wide first, then sort by
    // height descending so shelf heights shrink monotonically.
    struct Shelf {
        y: f64,
        height: f64,
        cursor_x: f64,
    }
    let mut items: Vec<(String, MemoryRole, f64, f64)> = macros
        .iter()
        .map(|(n, r, w, h)| {
            let (w, h) = (w.value(), h.value());
            // Lay flat (wider than tall) so shelves stay short.
            if h > w {
                (n.clone(), *r, h, w)
            } else {
                (n.clone(), *r, w, h)
            }
        })
        .collect();
    items.sort_by(|a, b| b.3.total_cmp(&a.3).then_with(|| a.0.cmp(&b.0)));

    let right = (region.x + region.w).value();
    let top = (region.y + region.h).value();
    let mut shelves: Vec<Shelf> = Vec::new();
    let mut next_y = region.y.value();
    let mut placed = Vec::with_capacity(items.len());
    for (name, role, w, h) in items {
        // Try existing shelves first (as-is, then rotated).
        let mut pos = None;
        for shelf in &mut shelves {
            if h <= shelf.height && shelf.cursor_x + w <= right {
                pos = Some((shelf.cursor_x, shelf.y, w, h));
                shelf.cursor_x += w + MACRO_SPACING;
                break;
            }
            if w <= shelf.height && shelf.cursor_x + h <= right {
                pos = Some((shelf.cursor_x, shelf.y, h, w));
                shelf.cursor_x += h + MACRO_SPACING;
                break;
            }
        }
        let (x, y, w, h) = match pos {
            Some(p) => p,
            None => {
                // Open a new shelf; rotate if the macro is wider than
                // the region.
                let (w, h) = if region.x.value() + w > right && region.x.value() + h <= right {
                    (h, w)
                } else {
                    (w, h)
                };
                if next_y + h > top || region.x.value() + w > right {
                    return Err(PnrError::MacrosDoNotFit {
                        partition: String::new(),
                        macro_name: name.clone(),
                    });
                }
                let y = next_y;
                shelves.push(Shelf {
                    y,
                    height: h,
                    cursor_x: region.x.value() + w + MACRO_SPACING,
                });
                next_y += h + MACRO_SPACING;
                (region.x.value(), y, w, h)
            }
        };
        placed.push(PlacedMacro {
            name,
            role,
            rect: Rect::new(Um::new(x), Um::new(y), Um::new(w), Um::new(h)),
        });
    }
    Ok(placed)
}

fn utilization_of(part: &Partition, placed: &[PlacedMacro]) -> f64 {
    let macro_area: f64 = placed.iter().map(|m| m.rect.area().value()).sum();
    let free = part.rect.area().value() - macro_area * MACRO_HALO;
    if free > 0.0 {
        part.cell_area.value() / free
    } else {
        f64::INFINITY
    }
}

/// Places the macros of every partition in `floorplan` with the shelf
/// packer.
///
/// # Errors
///
/// Returns [`PnrError::MacrosDoNotFit`] if a partition cannot hold its
/// macros, or [`PnrError::Congested`] if the std-cell region would
/// exceed [`MAX_CELL_UTILIZATION`].
pub fn place_macros(
    design: &Design,
    floorplan: &Floorplan,
    tech: &Tech,
) -> Result<Vec<PlacedPartition>, PnrError> {
    let mut result = Vec::with_capacity(floorplan.partitions.len());
    for part in &floorplan.partitions {
        let macros = if part.name == "top" {
            // The top partition holds only the top module's own macros
            // (none in the G-GPU), not the whole design.
            Vec::new()
        } else {
            collect_macros(design, part.module, tech)?
        };
        let placed = shelf_pack(&part.rect, &macros).map_err(|e| match e {
            PnrError::MacrosDoNotFit { macro_name, .. } => PnrError::MacrosDoNotFit {
                partition: part.name.clone(),
                macro_name,
            },
            other => other,
        })?;
        let utilization = utilization_of(part, &placed);
        if utilization > MAX_CELL_UTILIZATION {
            return Err(PnrError::Congested {
                partition: part.name.clone(),
                utilization,
            });
        }
        result.push(PlacedPartition {
            partition: part.clone(),
            macros: placed,
            utilization,
        });
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{build_floorplan, DensityTargets};
    use ggpu_rtl::{generate, GgpuConfig};

    fn placed(n: u32) -> Vec<PlacedPartition> {
        let d = generate(&GgpuConfig::with_cus(n).unwrap()).unwrap();
        let tech = Tech::l65();
        let fp = build_floorplan(&d, &tech, DensityTargets::default()).unwrap();
        place_macros(&d, &fp, &tech).unwrap()
    }

    #[test]
    fn every_cu_gets_42_macros() {
        let parts = placed(2);
        for p in parts
            .iter()
            .filter(|p| p.partition.kind == crate::floorplan::PartitionKind::ComputeUnit)
        {
            assert_eq!(p.macros.len(), 42, "{}", p.partition.name);
        }
    }

    #[test]
    fn gmc_gets_9_macros() {
        let parts = placed(1);
        let gmc = parts
            .iter()
            .find(|p| p.partition.kind == crate::floorplan::PartitionKind::MemoryController)
            .unwrap();
        assert_eq!(gmc.macros.len(), 9);
    }

    #[test]
    fn macros_stay_inside_their_partition_and_do_not_overlap() {
        for parts in [placed(1), placed(8)] {
            for p in &parts {
                for m in &p.macros {
                    assert!(
                        p.partition.rect.contains(&m.rect),
                        "{} escapes {}",
                        m.name,
                        p.partition.name
                    );
                }
                for (i, a) in p.macros.iter().enumerate() {
                    for b in p.macros.iter().skip(i + 1) {
                        assert!(!a.rect.overlaps(&b.rect), "{} vs {}", a.name, b.name);
                    }
                }
            }
        }
    }

    #[test]
    fn utilization_is_legal() {
        for p in placed(8) {
            assert!(
                p.utilization <= MAX_CELL_UTILIZATION,
                "{}: {}",
                p.partition.name,
                p.utilization
            );
        }
    }

    #[test]
    fn macro_names_are_hierarchical() {
        let parts = placed(1);
        let cu = parts
            .iter()
            .find(|p| p.partition.kind == crate::floorplan::PartitionKind::ComputeUnit)
            .unwrap();
        assert!(cu.macros.iter().any(|m| m.name.starts_with("pe0/")));
        assert!(cu.macros.iter().any(|m| m.name == "cram0"));
    }
}
