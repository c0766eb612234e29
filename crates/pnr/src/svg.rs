//! SVG export of a finished layout — the reproduction of the paper's
//! Figs. 3 and 4 (floorplan views with memories coloured by role).

use crate::Layout;
use ggpu_netlist::module::MemoryRole;
use std::fmt::Write as _;

/// Fill colour per memory role, echoing the paper's colour coding
/// (CU memories green, memory-controller memories yellow/pink, top
/// memories blue).
pub fn role_color(role: MemoryRole) -> &'static str {
    match role {
        MemoryRole::RegisterFile => "#3cb44b",
        MemoryRole::InstructionRam => "#7fd08a",
        MemoryRole::ScratchRam => "#2f9e77",
        MemoryRole::CacheData => "#ffe119",
        MemoryRole::CacheTag => "#f032e6",
        MemoryRole::RuntimeMemory => "#fabed4",
        MemoryRole::Fifo => "#f58231",
        MemoryRole::SchedulerState => "#911eb4",
        MemoryRole::Other => "#4363d8",
        // MemoryRole is non_exhaustive; future roles render neutral.
        _ => "#9a9a9a",
    }
}

/// Renders the layout as a standalone SVG document.
///
/// ```
/// # use ggpu_rtl::{generate, GgpuConfig};
/// # use ggpu_pnr::place_and_route;
/// # use ggpu_tech::{Tech, units::Mhz};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = generate(&GgpuConfig::with_cus(1)?)?;
/// let layout = place_and_route(&design, &Tech::l65(), Mhz::new(500.0))?;
/// let svg = ggpu_pnr::to_svg(&layout);
/// assert!(svg.starts_with("<svg"));
/// # Ok(())
/// # }
/// ```
pub fn to_svg(layout: &Layout) -> String {
    let scale = 0.18; // um -> px
    let w = layout.floorplan.chip.w.value() * scale;
    let h = layout.floorplan.chip.h.value() * scale;
    let flip = |y: f64, rect_h: f64| h - (y + rect_h) * scale + rect_h * scale - rect_h * scale;
    let mut svg = String::new();
    let _ = write!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" \
         viewBox=\"0 0 {:.0} {:.0}\">",
        w + 20.0,
        h + 40.0,
        w + 20.0,
        h + 40.0
    );
    let _ = write!(
        svg,
        "<rect x=\"5\" y=\"5\" width=\"{:.1}\" height=\"{:.1}\" fill=\"#f4f4f0\" \
         stroke=\"#222\" stroke-width=\"1.5\"/>",
        w, h
    );
    for part in &layout.placements {
        let r = &part.partition.rect;
        let y = flip(r.y.value(), r.h.value());
        let _ = write!(
            svg,
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" \
             fill=\"#e8e8ff\" fill-opacity=\"0.35\" stroke=\"#555\" stroke-width=\"0.8\"/>",
            5.0 + r.x.value() * scale,
            5.0 + h - (r.y.value() + r.h.value()) * scale,
            r.w.value() * scale,
            r.h.value() * scale,
        );
        let _ = y; // silence in case of future use
        for m in &part.macros {
            let _ = write!(
                svg,
                "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" \
                 fill=\"{}\" stroke=\"#333\" stroke-width=\"0.3\"><title>{}/{}</title></rect>",
                5.0 + m.rect.x.value() * scale,
                5.0 + h - (m.rect.y.value() + m.rect.h.value()) * scale,
                m.rect.w.value() * scale,
                m.rect.h.value() * scale,
                role_color(m.role),
                part.partition.name,
                m.name
            );
        }
        let (cx, _cy) = part.partition.rect.center();
        let _ = write!(
            svg,
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"middle\" \
             fill=\"#222\">{}</text>",
            5.0 + cx.value() * scale,
            5.0 + h - (part.partition.rect.y.value() + part.partition.rect.h.value()) * scale
                + 13.0,
            part.partition.name
        );
    }
    let _ = write!(
        svg,
        "<text x=\"8\" y=\"{:.1}\" font-size=\"12\" fill=\"#222\">{} @ {:.0} MHz \
         (achieved {:.0} MHz)</text>",
        h + 25.0,
        layout.design,
        layout.target.value(),
        layout.achieved_clock.value()
    );
    svg.push_str("</svg>");
    svg
}

/// Renders the macro placement as a DEF-style text report: one
/// `- <hierarchical name> <cell> + PLACED (x y)` line per macro, plus
/// the die area — the hand-off format physical-design teams diff
/// between floorplan revisions.
pub fn to_placement_report(layout: &Layout) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let chip = &layout.floorplan.chip;
    let _ = writeln!(out, "DESIGN {} ;", layout.design);
    let _ = writeln!(
        out,
        "DIEAREA ( 0 0 ) ( {:.0} {:.0} ) ;",
        chip.w.value(),
        chip.h.value()
    );
    let total: usize = layout.placements.iter().map(|p| p.macros.len()).sum();
    let _ = writeln!(out, "COMPONENTS {total} ;");
    for part in &layout.placements {
        for m in &part.macros {
            let _ = writeln!(
                out,
                "- {}/{} SRAM_{}x{} + PLACED ( {:.0} {:.0} ) ;",
                part.partition.name,
                m.name,
                (m.rect.w.value()).round(),
                (m.rect.h.value()).round(),
                m.rect.x.value(),
                m.rect.y.value()
            );
        }
    }
    let _ = writeln!(out, "END COMPONENTS");
    out
}

#[cfg(test)]
mod tests {
    use crate::place_and_route;
    use ggpu_rtl::{generate, GgpuConfig};
    use ggpu_tech::units::Mhz;
    use ggpu_tech::Tech;

    #[test]
    fn svg_contains_all_partitions_and_macros() {
        let d = generate(&GgpuConfig::with_cus(2).unwrap()).unwrap();
        let layout = place_and_route(&d, &Tech::l65(), Mhz::new(500.0)).unwrap();
        let svg = super::to_svg(&layout);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains(">cu0<"));
        assert!(svg.contains(">cu1<"));
        assert!(svg.contains(">gmc<"));
        // 2 CUs x 42 macros + 9 shared macros appear as rects.
        let macro_rects = svg.matches("<title>").count();
        assert_eq!(macro_rects, 2 * 42 + 9);
    }

    #[test]
    fn placement_report_lists_every_macro_inside_the_die() {
        let d = generate(&GgpuConfig::with_cus(1).unwrap()).unwrap();
        let layout = place_and_route(&d, &Tech::l65(), Mhz::new(500.0)).unwrap();
        let def = super::to_placement_report(&layout);
        assert!(def.starts_with("DESIGN ggpu_1cu ;"));
        assert!(def.contains("COMPONENTS 51 ;"));
        assert_eq!(def.matches("+ PLACED").count(), 51);
        assert!(def.contains("cu0/pe0/rf_bank"));
        assert!(def.trim_end().ends_with("END COMPONENTS"));
    }
}
