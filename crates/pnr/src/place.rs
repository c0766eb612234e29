//! Macro placement inside partitions.
//!
//! Block memories "have to be strategically placed in order to extract
//! the maximum performance" (paper §IV). Two placers are available
//! behind [`crate::PnrOptions::placer`]:
//!
//! * [`Placer::Legacy`] — the seed-era deterministic shelf packer:
//!   macros along the partition's bottom edge rows, first-fit
//!   decreasing. Retained as the bit-stable reference (the paper's 4
//!   physical layouts and all Table-I datasheets are pinned to it).
//! * [`Placer::Analytical`] — the electrostatic global placer
//!   ([`crate::eplace`]): Nesterov-optimized wirelength + density,
//!   then displacement-minimizing legalization back onto the
//!   partition. Identical CU clones share one solve within a call
//!   (content-addressed by module fingerprint, partition shape, I/O
//!   side, net weights and seed).
//!
//! Either way the packer verifies that the std-cell region can hold
//! the partition's cells at a legal utilization.

use crate::eplace::{self, IoSide, MacroShape, NetWeights};
use crate::floorplan::{Floorplan, Partition, PartitionKind, MACRO_HALO};
use crate::geometry::Rect;
use crate::pool::Pool;
use crate::{PnrError, PnrOptions};
use ggpu_netlist::module::MemoryRole;
use ggpu_netlist::Design;
use ggpu_tech::units::Um;
use ggpu_tech::Tech;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Maximum legal std-cell utilization of the non-macro area.
pub const MAX_CELL_UTILIZATION: f64 = 0.88;
/// Spacing between adjacent macros.
const MACRO_SPACING: f64 = 10.0;

/// Which placement algorithm fills the partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Placer {
    /// Seed-era shelf packer (bit-stable reference, the default).
    #[default]
    Legacy,
    /// Electrostatic analytical placer with legalization.
    Analytical,
}

/// Counters of one placement run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlaceStats {
    /// Fresh analytical partition solves executed.
    pub solves: u64,
    /// Partitions served from an earlier solve of the same run (CU
    /// clones).
    pub cache_hits: u64,
    /// Partitions where legalization failed (or the solve diverged)
    /// and the shelf packer produced the placement instead.
    pub shelf_fallbacks: u64,
    /// Total Nesterov iterations across all fresh solves.
    pub nesterov_iterations: u64,
}

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

/// One pending partition solve: cache key, macros, outline width and
/// height in µm, and which edge the partition's I/O faces.
type SolveJob = (u64, Vec<MacroSpec>, f64, f64, IoSide);

/// One finished solve: placed macros, whether the legalizer fell back
/// to shelf packing, and the Nesterov iteration count.
type SolveOutcome = Result<(Vec<PlacedMacro>, bool, u64), PnrError>;

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
        out: &mut Vec<(String, MemoryRole, Um, Um)>,
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
fn shelf_pack(
    region: &Rect,
    macros: &mut [(String, MemoryRole, Um, Um)],
) -> Result<Vec<PlacedMacro>, PnrError> {
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

/// Which edge of `part` faces the memory controller: CU columns left
/// of the GMC column anchor right, and vice versa; the GMC itself (and
/// the top strip) talk to both sides.
pub(crate) fn io_side(floorplan: &Floorplan, part: &Partition) -> IoSide {
    if part.kind != PartitionKind::ComputeUnit {
        return IoSide::Both;
    }
    let nearest = floorplan.gmcs().min_by(|a, b| {
        part.rect
            .center_distance(&a.rect)
            .value()
            .total_cmp(&part.rect.center_distance(&b.rect).value())
    });
    match nearest {
        Some(gmc) if part.rect.center().0.value() <= gmc.rect.center().0.value() => IoSide::Right,
        Some(_) => IoSide::Left,
        // No controller partition: pull toward the partition center.
        None => IoSide::Both,
    }
}

/// Content-addressed key of one partition's analytical solve: module
/// structure, partition shape, I/O anchor side, net weights and seed.
/// Identical CU clones collide (by construction), so a 64-CU design
/// costs two CU solves — one per column orientation — plus the GMC.
pub(crate) fn solve_key(
    design: &Design,
    part: &Partition,
    side: IoSide,
    options: &PnrOptions,
) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    design.module_fingerprint(part.module).hash(&mut h);
    part.rect.w.value().to_bits().hash(&mut h);
    part.rect.h.value().to_bits().hash(&mut h);
    side.key_code().hash(&mut h);
    options.net_weights.key_bits().hash(&mut h);
    options.seed.hash(&mut h);
    h.finish()
}

/// Legalizes solved macro centers onto the partition (local
/// coordinates): greedy displacement-minimizing packing over the
/// candidate grid spanned by region corners and placed-macro edges,
/// trying both orientations. Returns `None` if some macro cannot be
/// placed (caller falls back to the shelf packer).
fn legalize(
    w: f64,
    h: f64,
    shapes: &[MacroShape],
    solved: &[(f64, f64)],
) -> Option<Vec<PlacedMacro>> {
    // Big macros first: they have the fewest legal spots.
    let mut order: Vec<usize> = (0..shapes.len()).collect();
    order.sort_by(|&a, &b| {
        (shapes[b].w * shapes[b].h)
            .total_cmp(&(shapes[a].w * shapes[a].h))
            .then_with(|| shapes[a].name.cmp(&shapes[b].name))
    });

    let mut placed: Vec<Rect> = Vec::with_capacity(shapes.len());
    let mut out: Vec<Option<PlacedMacro>> = vec![None; shapes.len()];
    for &idx in &order {
        let shape = &shapes[idx];
        let (tx, ty) = solved[idx];
        let mut xs: Vec<f64> = vec![0.0];
        let mut ys: Vec<f64> = vec![0.0];
        for r in &placed {
            xs.push((r.x + r.w).value() + MACRO_SPACING);
            ys.push((r.y + r.h).value() + MACRO_SPACING);
            xs.push(r.x.value());
            ys.push(r.y.value());
        }
        let mut best: Option<(f64, f64, f64, f64, f64, bool)> = None;
        for rot in [false, true] {
            let (mw, mh) = if rot {
                (shape.h, shape.w)
            } else {
                (shape.w, shape.h)
            };
            if rot && (shape.w - shape.h).abs() < 1e-9 {
                continue; // square: identical orientation
            }
            if mw > w + 1e-6 || mh > h + 1e-6 {
                continue;
            }
            // The solved spot itself is the zero-displacement
            // candidate when it happens to be free.
            let sx = (tx - mw / 2.0).clamp(0.0, w - mw);
            let sy = (ty - mh / 2.0).clamp(0.0, h - mh);
            for &x in xs.iter().chain(std::iter::once(&sx)) {
                if x < -1e-6 || x + mw > w + 1e-6 {
                    continue;
                }
                for &y in ys.iter().chain(std::iter::once(&sy)) {
                    if y < -1e-6 || y + mh > h + 1e-6 {
                        continue;
                    }
                    // Keep the routing-halo gap to every placed macro.
                    let gap = MACRO_SPACING - 1e-6;
                    let candidate = Rect::new(
                        Um::new(x - gap),
                        Um::new(y - gap),
                        Um::new(mw + 2.0 * gap),
                        Um::new(mh + 2.0 * gap),
                    );
                    if placed.iter().any(|r| r.overlaps(&candidate)) {
                        continue;
                    }
                    let dx = x + mw / 2.0 - tx;
                    let dy = y + mh / 2.0 - ty;
                    let cost = dx * dx + dy * dy;
                    let better = match &best {
                        None => true,
                        Some((bc, bx, by, _, _, brot)) => match cost.total_cmp(bc) {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Greater => false,
                            std::cmp::Ordering::Equal => match y.total_cmp(by) {
                                std::cmp::Ordering::Less => true,
                                std::cmp::Ordering::Greater => false,
                                std::cmp::Ordering::Equal => match x.total_cmp(bx) {
                                    std::cmp::Ordering::Less => true,
                                    std::cmp::Ordering::Greater => false,
                                    std::cmp::Ordering::Equal => !rot & *brot,
                                },
                            },
                        },
                    };
                    if better {
                        best = Some((cost, x, y, mw, mh, rot));
                    }
                }
            }
        }
        let (_, x, y, mw, mh, _) = best?;
        let rect = Rect::new(Um::new(x), Um::new(y), Um::new(mw), Um::new(mh));
        placed.push(rect);
        out[idx] = Some(PlacedMacro {
            name: shape.name.clone(),
            role: shape.role,
            rect,
        });
    }
    // Input order, like the shelf packer returns sorted order; callers
    // only rely on the set, but determinism wants a fixed order.
    Some(out.into_iter().flatten().collect())
}

/// Solves and legalizes one partition in local coordinates. Falls back
/// to the shelf packer when legalization cannot fit the solved
/// positions, so the analytical path can never produce an illegal
/// placement that the legacy path would have handled.
fn solve_partition(
    mut macros: Vec<MacroSpec>,
    w: f64,
    h: f64,
    side: IoSide,
    options: &PnrOptions,
    pool: &Pool,
) -> SolveOutcome {
    let shapes: Vec<MacroShape> = macros
        .iter()
        .map(|(n, r, mw, mh)| MacroShape {
            name: n.clone(),
            role: *r,
            w: mw.value(),
            h: mh.value(),
        })
        .collect();
    let solved = eplace::solve(
        &shapes,
        w,
        h,
        side,
        &options.net_weights,
        options.seed,
        pool,
    );
    let iterations = solved.iterations as u64;
    if solved.overflow.is_finite() {
        if let Some(placed) = legalize(w, h, &shapes, &solved.pos) {
            return Ok((placed, false, iterations));
        }
    }
    let region = Rect::new(Um::new(0.0), Um::new(0.0), Um::new(w), Um::new(h));
    let placed = shelf_pack(&region, &mut macros)?;
    Ok((placed, true, iterations))
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

/// Places the macros of every partition in `floorplan` with the legacy
/// shelf packer (the seed-era behaviour; equivalent to
/// [`place_macros_with`] under default [`PnrOptions`]).
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
    place_macros_with(design, floorplan, tech, &PnrOptions::default())
}

/// Places the macros of every partition with the placer selected in
/// `options`, parallelizing analytical partition solves on the global
/// worker pool.
///
/// # Errors
///
/// As [`place_macros`].
pub fn place_macros_with(
    design: &Design,
    floorplan: &Floorplan,
    tech: &Tech,
    options: &PnrOptions,
) -> Result<Vec<PlacedPartition>, PnrError> {
    place_macros_pooled(design, floorplan, tech, options, Pool::global())
}

/// [`place_macros_with`] on an explicit worker pool — the hook the
/// determinism property tests use to compare thread counts within one
/// process.
///
/// # Errors
///
/// As [`place_macros`].
pub fn place_macros_pooled(
    design: &Design,
    floorplan: &Floorplan,
    tech: &Tech,
    options: &PnrOptions,
    pool: &Pool,
) -> Result<Vec<PlacedPartition>, PnrError> {
    place_macros_impl(
        design,
        floorplan,
        tech,
        options,
        pool,
        &mut PlaceStats::default(),
    )
}

/// The shared placement engine: legacy shelf path, or analytical path
/// with a content-addressed solve cache that lives for this one call.
fn place_macros_impl(
    design: &Design,
    floorplan: &Floorplan,
    tech: &Tech,
    options: &PnrOptions,
    pool: &Pool,
    stats: &mut PlaceStats,
) -> Result<Vec<PlacedPartition>, PnrError> {
    let mut result = Vec::with_capacity(floorplan.partitions.len());
    match options.placer {
        Placer::Legacy => {
            for part in &floorplan.partitions {
                let mut macros = if part.name == "top" {
                    // The top partition holds only the top module's own
                    // macros (none in the G-GPU), not the whole design.
                    Vec::new()
                } else {
                    collect_macros(design, part.module, tech)?
                };
                let placed = shelf_pack(&part.rect, &mut macros).map_err(|e| match e {
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
        }
        Placer::Analytical => {
            // Assign every partition its solve key, then run only the
            // unique solves — CU clones collapse onto one key per
            // column orientation.
            let mut keys = Vec::with_capacity(floorplan.partitions.len());
            let mut jobs: Vec<SolveJob> = Vec::new();
            for part in &floorplan.partitions {
                let macros = if part.name == "top" {
                    Vec::new()
                } else {
                    collect_macros(design, part.module, tech)?
                };
                if macros.is_empty() {
                    // Macro-less partitions (the top strip) are free:
                    // neither a solve nor a cache hit.
                    keys.push(None);
                    continue;
                }
                let side = io_side(floorplan, part);
                let key = solve_key(design, part, side, options);
                if jobs.iter().any(|(k, ..)| *k == key) {
                    stats.cache_hits += 1;
                } else {
                    jobs.push((key, macros, part.rect.w.value(), part.rect.h.value(), side));
                }
                keys.push(Some(key));
            }
            stats.solves += jobs.len() as u64;

            // Solving nests pool.map (gradient chunks inside partition
            // solves); the work-sharing pool handles that without
            // deadlock and preserves input order.
            let opts = *options;
            let solved: Vec<(u64, SolveOutcome)> = {
                let pool_ref = pool;
                // SAFETY-free trick: the pool's jobs need 'static, so
                // hand each job the global pool for its nested maps
                // when we are on the global pool, else solve inline.
                if std::ptr::eq(pool_ref, Pool::global()) {
                    pool.map(jobs, move |(key, macros, w, h, side)| {
                        (
                            key,
                            solve_partition(macros, w, h, side, &opts, Pool::global()),
                        )
                    })
                } else {
                    jobs.into_iter()
                        .map(|(key, macros, w, h, side)| {
                            (key, solve_partition(macros, w, h, side, &opts, pool_ref))
                        })
                        .collect()
                }
            };
            let mut cache = HashMap::with_capacity(solved.len());
            for (key, outcome) in solved {
                let (placed, fell_back, iterations) = outcome?;
                if fell_back {
                    stats.shelf_fallbacks += 1;
                }
                stats.nesterov_iterations += iterations;
                cache.insert(key, placed);
            }

            for (part, key) in floorplan.partitions.iter().zip(&keys) {
                let local: &[PlacedMacro] = match key {
                    Some(key) => cache
                        .get(key)
                        .ok_or(PnrError::MissingPartition("solve cache entry"))?,
                    None => &[],
                };
                let placed: Vec<PlacedMacro> = local
                    .iter()
                    .map(|m| PlacedMacro {
                        name: m.name.clone(),
                        role: m.role,
                        rect: Rect::new(
                            part.rect.x + m.rect.x,
                            part.rect.y + m.rect.y,
                            m.rect.w,
                            m.rect.h,
                        ),
                    })
                    .collect();
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
        }
    }
    Ok(result)
}

/// Total weighted macro half-perimeter wirelength of a placement under
/// the dataflow net model — the figure of merit the analytical placer
/// minimizes, evaluated exactly (not smoothed) so both placers can be
/// compared on it.
pub fn macro_hpwl(
    floorplan: &Floorplan,
    placements: &[PlacedPartition],
    weights: &NetWeights,
) -> Um {
    let mut total = 0.0;
    for placed in placements {
        if placed.macros.is_empty() {
            continue;
        }
        let part = &placed.partition;
        let side = io_side(floorplan, part);
        let shapes: Vec<MacroShape> = placed
            .macros
            .iter()
            .map(|m| MacroShape {
                name: m.name.clone(),
                role: m.role,
                w: m.rect.w.value(),
                h: m.rect.h.value(),
            })
            .collect();
        let nets = eplace::build_nets(
            &shapes,
            part.rect.w.value(),
            part.rect.h.value(),
            side,
            weights,
        );
        let pos: Vec<(f64, f64)> = placed
            .macros
            .iter()
            .map(|m| {
                let (cx, cy) = m.rect.center();
                (
                    cx.value() - part.rect.x.value(),
                    cy.value() - part.rect.y.value(),
                )
            })
            .collect();
        total += eplace::exact_hpwl(&nets, &pos);
    }
    Um::new(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{build_floorplan, DensityTargets};
    use ggpu_rtl::{generate, GgpuConfig};

    fn placed_with(n: u32, placer: Placer) -> (Floorplan, Vec<PlacedPartition>) {
        let d = generate(&GgpuConfig::with_cus(n).unwrap()).unwrap();
        let tech = Tech::l65();
        let fp = build_floorplan(&d, &tech, DensityTargets::default()).unwrap();
        let options = PnrOptions {
            placer,
            ..PnrOptions::default()
        };
        let parts = place_macros_with(&d, &fp, &tech, &options).unwrap();
        (fp, parts)
    }

    fn placed(n: u32) -> Vec<PlacedPartition> {
        placed_with(n, Placer::Legacy).1
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

    #[test]
    fn analytical_placement_is_legal_and_complete() {
        let (_, parts) = placed_with(2, Placer::Analytical);
        for p in &parts {
            let expected = match p.partition.kind {
                PartitionKind::ComputeUnit => 42,
                PartitionKind::MemoryController => 9,
                PartitionKind::Top => 0,
            };
            assert_eq!(p.macros.len(), expected, "{}", p.partition.name);
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
            assert!(p.utilization <= MAX_CELL_UTILIZATION);
        }
    }

    #[test]
    fn analytical_beats_legacy_hpwl_at_8_cus() {
        let (fp, legacy) = placed_with(8, Placer::Legacy);
        let (_, analytical) = placed_with(8, Placer::Analytical);
        let weights = NetWeights::default();
        let wl_legacy = macro_hpwl(&fp, &legacy, &weights).value();
        let wl_analytical = macro_hpwl(&fp, &analytical, &weights).value();
        assert!(
            wl_analytical < wl_legacy,
            "analytical {wl_analytical:.0} um must beat legacy {wl_legacy:.0} um"
        );
    }

    #[test]
    fn cu_clones_share_one_solve_per_column() {
        let d = generate(&GgpuConfig::with_cus(8).unwrap()).unwrap();
        let tech = Tech::l65();
        let fp = build_floorplan(&d, &tech, DensityTargets::default()).unwrap();
        let options = PnrOptions {
            placer: Placer::Analytical,
            ..PnrOptions::default()
        };
        let mut stats = PlaceStats::default();
        let parts = place_macros_impl(&d, &fp, &tech, &options, &Pool::new(1), &mut stats).unwrap();
        assert_eq!(parts.len(), 10); // 8 CUs + gmc + top
                                     // 8 CUs collapse to left-column + right-column solves, plus
                                     // the GMC; the macro-less top strip costs nothing.
        assert_eq!(stats.solves, 3, "{stats:?}");
        assert_eq!(stats.cache_hits, 6, "{stats:?}");
    }
}
