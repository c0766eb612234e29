//! Physical-synthesis model: partitioned floorplanning, macro
//! placement, global routing and post-route timing.
//!
//! [`place_and_route`] runs the paper's physical flow on a generated
//! design: build the three-partition floorplan (CU clones at 70 %
//! density, general memory controller at 70 %, sparse top at 30 %),
//! shelf-place the memory macros, estimate per-layer wirelength
//! (Table II), annotate the inter-partition routes with buffered-wire
//! delays and re-time the design. The returned [`Layout`] reports the
//! achieved clock — which is where the 8-CU design drops from the
//! requested 667 MHz to ~600 MHz, reproducing the paper's §IV finding.
//!
//! # Example
//!
//! ```
//! use ggpu_pnr::{place_and_route, PnrOptions};
//! use ggpu_rtl::{generate, GgpuConfig};
//! use ggpu_tech::units::Mhz;
//! use ggpu_tech::Tech;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate(&GgpuConfig::with_cus(1)?)?;
//! let layout = place_and_route(&design, &Tech::l65(), Mhz::new(500.0), PnrOptions::default())?;
//! assert!(layout.meets_timing);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod floorplan;
pub mod geometry;
pub mod place;
pub mod route;
pub mod svg;

use ggpu_netlist::Design;
use ggpu_sta::{analyze, max_frequency, StaError, TimingReport};
use ggpu_tech::sram::CompileSramError;
use ggpu_tech::units::{Mhz, Ns};
use ggpu_tech::Tech;
use std::error::Error;
use std::fmt;

pub use floorplan::{build_floorplan, DensityTargets, Floorplan, Partition, PartitionKind};
pub use geometry::Rect;
pub use place::{place_macros, PlacedMacro, PlacedPartition, MAX_CELL_UTILIZATION};
pub use route::{annotate_routes, estimate_wirelength, LayerWirelength};
pub use svg::{role_color, to_placement_report, to_svg};

/// Options of the physical flow.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PnrOptions {
    /// Partition density targets.
    pub densities: DensityTargets,
}

/// Errors of the physical flow.
#[derive(Debug, Clone, PartialEq)]
pub enum PnrError {
    /// The design lacks an expected partition module.
    MissingPartition(&'static str),
    /// The technology's metal stack lacks an expected routing layer.
    MissingLayer(&'static str),
    /// A macro geometry is outside the memory-compiler range.
    Sram(CompileSramError),
    /// A partition cannot physically hold its macros.
    MacrosDoNotFit {
        /// Partition name.
        partition: String,
        /// First macro that failed to place.
        macro_name: String,
    },
    /// Std-cell utilization exceeds the legal maximum.
    Congested {
        /// Partition name.
        partition: String,
        /// Computed utilization.
        utilization: f64,
    },
    /// Post-route timing analysis failed.
    Sta(StaError),
}

impl fmt::Display for PnrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PnrError::MissingPartition(p) => write!(f, "design has no {p} partition"),
            PnrError::MissingLayer(l) => write!(f, "metal stack has no {l} layer"),
            PnrError::Sram(e) => write!(f, "memory compiler: {e}"),
            PnrError::MacrosDoNotFit {
                partition,
                macro_name,
            } => write!(f, "macro {macro_name} does not fit in partition {partition}"),
            PnrError::Congested {
                partition,
                utilization,
            } => write!(
                f,
                "partition {partition} std-cell utilization {utilization:.2} exceeds {MAX_CELL_UTILIZATION}"
            ),
            PnrError::Sta(e) => write!(f, "timing: {e}"),
        }
    }
}

impl Error for PnrError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PnrError::Sram(e) => Some(e),
            PnrError::Sta(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StaError> for PnrError {
    fn from(e: StaError) -> Self {
        PnrError::Sta(e)
    }
}

/// A finished layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    /// Design name.
    pub design: String,
    /// Requested clock.
    pub target: Mhz,
    /// The floorplan.
    pub floorplan: Floorplan,
    /// Placed partitions with their macros.
    pub placements: Vec<PlacedPartition>,
    /// Per-layer signal wirelength (Table II).
    pub wirelength: LayerWirelength,
    /// Post-route timing at the requested clock.
    pub post_route: TimingReport,
    /// Post-route maximum frequency.
    pub fmax: Mhz,
    /// Per-CU route delays to the memory controller.
    pub cu_route_delays: Vec<Ns>,
    /// `true` if the layout meets the requested clock.
    pub meets_timing: bool,
    /// The clock the layout actually supports: the requested clock if
    /// timing is met, otherwise the post-route fmax (the paper's 8-CU
    /// 667 MHz request closes at 600 MHz this way).
    pub achieved_clock: Mhz,
}

/// Runs the physical flow: floorplan → macro placement → routing →
/// post-route timing.
///
/// # Errors
///
/// Returns [`PnrError`] if the hierarchy lacks the expected
/// partitions, macros do not fit, utilization is illegal, or timing
/// analysis fails.
pub fn place_and_route(
    design: &Design,
    tech: &Tech,
    target: Mhz,
    options: PnrOptions,
) -> Result<Layout, PnrError> {
    let floorplan = build_floorplan(design, tech, options.densities)?;
    let placements = place_macros(design, &floorplan, tech)?;
    let wirelength = estimate_wirelength(design, &floorplan, tech)?;

    // Route annotation happens on a copy: PnR must not mutate the
    // caller's netlist.
    let mut annotated = design.clone();
    let cu_route_delays = annotate_routes(&mut annotated, &floorplan, tech)?;
    let post_route = analyze(&annotated, tech, target)?;
    let fmax = max_frequency(&annotated, tech)?.unwrap_or(Mhz::new(f64::INFINITY));
    let meets_timing = post_route.meets_timing();
    let achieved_clock = if meets_timing { target } else { fmax };

    Ok(Layout {
        design: design.name().to_string(),
        target,
        floorplan,
        placements,
        wirelength,
        post_route,
        fmax,
        cu_route_delays,
        meets_timing,
        achieved_clock,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_rtl::{generate, GgpuConfig};

    #[test]
    fn one_cu_closes_500mhz_post_route() {
        let d = generate(&GgpuConfig::with_cus(1).unwrap()).unwrap();
        let layout =
            place_and_route(&d, &Tech::l65(), Mhz::new(500.0), PnrOptions::default()).unwrap();
        assert!(layout.meets_timing, "post-route fmax {}", layout.fmax);
        assert_eq!(layout.achieved_clock, Mhz::new(500.0));
    }

    #[test]
    fn eight_cu_baseline_also_closes_500mhz() {
        let d = generate(&GgpuConfig::with_cus(8).unwrap()).unwrap();
        let layout =
            place_and_route(&d, &Tech::l65(), Mhz::new(500.0), PnrOptions::default()).unwrap();
        assert!(
            layout.meets_timing,
            "paper: 8CU@500MHz closes; fmax {}",
            layout.fmax
        );
    }

    #[test]
    fn pnr_does_not_mutate_the_design() {
        let d = generate(&GgpuConfig::with_cus(2).unwrap()).unwrap();
        let before = d.clone();
        let _ = place_and_route(&d, &Tech::l65(), Mhz::new(500.0), PnrOptions::default()).unwrap();
        assert_eq!(d, before);
    }

    #[test]
    fn route_delays_are_reported_per_cu() {
        let d = generate(&GgpuConfig::with_cus(4).unwrap()).unwrap();
        let layout =
            place_and_route(&d, &Tech::l65(), Mhz::new(500.0), PnrOptions::default()).unwrap();
        assert_eq!(layout.cu_route_delays.len(), 4);
        assert!(layout.cu_route_delays.iter().all(|d| d.value() > 0.0));
    }
}
