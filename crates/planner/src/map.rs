//! The frequency map: GPUPlanner's "dynamic spreadsheet".
//!
//! The paper describes a map that, given the memory delays of the
//! unoptimized design, tells the designer *"the maximum performance
//! and which memory has to be divided or where to introduce pipelines
//! to enhance the performance"*, iterated until the target is met.
//! [`advise`] is that map as a function: it times the design and
//! returns the next recommended action for a frequency target.
//! [`advise_with`] does the same through a shared [`StaCache`], which
//! is how the DSE loop re-times each candidate: the cache re-times only
//! module content it has not seen, so no caller says what changed.

use crate::cache::StaCache;
use ggpu_netlist::Design;
use ggpu_sta::StaError;
use ggpu_tech::sram::MIN_WORDS;
use ggpu_tech::units::Mhz;
use ggpu_tech::Tech;
use std::fmt;

/// The map's recommendation for the next optimization step.
#[derive(Debug, Clone, PartialEq)]
pub enum Advice {
    /// The design already meets the target.
    Met {
        /// Its maximum frequency.
        fmax: Mhz,
    },
    /// Divide a memory macro: the critical path launches from it.
    DivideMemory {
        /// Module owning the macro.
        module: String,
        /// The macro on the critical path (possibly an earlier
        /// division part, e.g. `"rf_bank_d0"`).
        macro_name: String,
        /// Current fmax, for the designer's log.
        fmax: Mhz,
    },
    /// Insert a pipeline register: the critical path is pure logic.
    InsertPipeline {
        /// Module owning the path.
        module: String,
        /// The critical path's name.
        path: String,
        /// Current fmax.
        fmax: Mhz,
    },
    /// No further structural remedy exists (macro at minimum size and
    /// path too shallow to pipeline, or the target exceeds what the
    /// technology supports).
    Stuck {
        /// Best achievable frequency found.
        fmax: Mhz,
        /// The limiting path.
        path: String,
    },
}

impl fmt::Display for Advice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Advice::Met { fmax } => write!(f, "target met (fmax {fmax:.0})"),
            Advice::DivideMemory {
                module,
                macro_name,
                fmax,
            } => write!(f, "divide {module}/{macro_name} (fmax {fmax:.0})"),
            Advice::InsertPipeline { module, path, fmax } => {
                write!(f, "pipeline {module}/{path} (fmax {fmax:.0})")
            }
            Advice::Stuck { fmax, path } => {
                write!(f, "stuck at {fmax:.0} on {path}")
            }
        }
    }
}

/// Produces the next recommended action toward `target`.
///
/// Decision rule, straight from the paper: if the critical path starts
/// at a memory block, divide that memory; otherwise insert a pipeline.
///
/// # Errors
///
/// Returns [`StaError`] if timing analysis fails, including
/// [`StaError::InvalidPeriod`] when the critical path has no finite
/// positive minimum period.
pub fn advise(design: &Design, tech: &Tech, target: Mhz) -> Result<Advice, StaError> {
    advise_with(design, tech, target, &StaCache::new())
}

/// [`advise`] with timing analyses memoized in `cache`.
///
/// The DSE loop re-times near-identical netlists — the baseline and
/// every shared plan prefix — once per frequency target; threading one
/// [`StaCache`] through makes those repeats table lookups.
///
/// # Errors
///
/// Returns [`StaError`] if timing analysis fails.
pub fn advise_with(
    design: &Design,
    tech: &Tech,
    target: Mhz,
    cache: &StaCache,
) -> Result<Advice, StaError> {
    let fmax = match cache.max_frequency(design, tech)? {
        Some(f) => f,
        None => {
            // No timing paths at all: trivially meets any target.
            return Ok(Advice::Met { fmax: target });
        }
    };
    if fmax.value() >= target.value() {
        return Ok(Advice::Met { fmax });
    }
    let report = cache.analyze(design, tech, target)?;
    let crit = report
        .paths()
        .first()
        .expect("paths exist when fmax exists");

    if let ggpu_netlist::timing::PathEndpoint::Macro(name) = &crit.start {
        // Check that the macro can still be divided.
        let module_id = design
            .module_by_name(&crit.module)
            .expect("report module exists");
        let can_divide = design
            .module(module_id)
            .find_macro(name)
            .map(|m| m.config.words / 2 >= MIN_WORDS && m.config.words % 2 == 0)
            .unwrap_or(false);
        if can_divide {
            return Ok(Advice::DivideMemory {
                module: crit.module.clone(),
                macro_name: name.clone(),
                fmax,
            });
        }
    }
    // Pure-logic path, or an exhausted memory: pipeline if possible.
    let module_id = design
        .module_by_name(&crit.module)
        .expect("report module exists");
    let depth = design
        .module(module_id)
        .paths
        .iter()
        .find(|p| p.name == crit.path)
        .map(|p| p.depth())
        .unwrap_or(0);
    if depth >= 2 {
        Ok(Advice::InsertPipeline {
            module: crit.module.clone(),
            path: crit.path.clone(),
            fmax,
        })
    } else {
        Ok(Advice::Stuck {
            fmax,
            path: format!("{}::{}", crit.module, crit.path),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_rtl::{generate, GgpuConfig};

    #[test]
    fn baseline_meets_500() {
        let d = generate(&GgpuConfig::with_cus(1).unwrap()).unwrap();
        let a = advise(&d, &Tech::l65(), Mhz::new(500.0)).unwrap();
        assert!(matches!(a, Advice::Met { .. }), "{a}");
    }

    #[test]
    fn first_advice_toward_590_is_memory_division() {
        // The paper: the unoptimized critical path starts at a memory
        // block, so the map's first recommendation is a division.
        let d = generate(&GgpuConfig::with_cus(1).unwrap()).unwrap();
        let a = advise(&d, &Tech::l65(), Mhz::new(590.0)).unwrap();
        match a {
            Advice::DivideMemory {
                module, macro_name, ..
            } => {
                assert_eq!(module, "processing_element");
                assert_eq!(macro_name, "rf_bank");
            }
            other => panic!("expected division, got {other}"),
        }
    }

    #[test]
    fn empty_design_is_trivially_met() {
        use ggpu_netlist::module::Module;
        let mut d = Design::new("empty");
        let id = d.add_module(Module::new("m"));
        d.set_top(id);
        let a = advise(&d, &Tech::l65(), Mhz::new(1000.0)).unwrap();
        assert!(matches!(a, Advice::Met { .. }));
    }

    #[test]
    fn display_is_readable() {
        let a = Advice::DivideMemory {
            module: "pe".into(),
            macro_name: "rf".into(),
            fmax: Mhz::new(501.0),
        };
        assert_eq!(a.to_string(), "divide pe/rf (fmax 501 MHz)");
    }
}
