//! Arrival-time computation for representative paths.

use crate::report::{PathTiming, TimingReport};
use ggpu_netlist::timing::PathEndpoint;
use ggpu_netlist::{Design, ModuleId};
use ggpu_tech::sram::CompileSramError;
use ggpu_tech::stdcell::CellClass;
use ggpu_tech::units::{FemtoFarads, Mhz, Ns};
use ggpu_tech::Tech;
use std::error::Error;
use std::fmt;

/// Fixed clock uncertainty (jitter + skew margin) subtracted from every
/// path's budget, matching a typical 65 nm sign-off margin.
pub const CLOCK_UNCERTAINTY: Ns = Ns::new(0.05);

/// Default delay budget assumed for paths launching from a module
/// input port.
pub const INPUT_DELAY_BUDGET: Ns = Ns::new(0.30);

/// Problems encountered while timing a design.
#[derive(Debug, Clone, PartialEq)]
pub enum StaError {
    /// A timing path references a macro that does not exist in its
    /// module.
    MacroNotFound {
        /// The module owning the path.
        module: String,
        /// The path name.
        path: String,
        /// The missing macro instance name.
        macro_name: String,
    },
    /// A macro in the design cannot be compiled by the memory compiler.
    Sram(CompileSramError),
    /// The critical path's minimum period (arrival + setup + clock
    /// uncertainty) is not a finite positive time, so the design has
    /// no maximum frequency. A NaN or negative route delay gets here.
    InvalidPeriod {
        /// The module owning the critical path.
        module: String,
        /// The critical path's name.
        path: String,
        /// The offending minimum period.
        min_period: Ns,
    },
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::MacroNotFound {
                module,
                path,
                macro_name,
            } => write!(
                f,
                "path {path} in module {module} references missing macro {macro_name}"
            ),
            StaError::Sram(e) => write!(f, "memory compiler: {e}"),
            StaError::InvalidPeriod {
                module,
                path,
                min_period,
            } => write!(
                f,
                "critical path {path} in module {module} has minimum period {min_period}, \
                 not a finite positive time"
            ),
        }
    }
}

impl Error for StaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StaError::Sram(e) => Some(e),
            StaError::MacroNotFound { .. } | StaError::InvalidPeriod { .. } => None,
        }
    }
}

impl From<CompileSramError> for StaError {
    fn from(e: CompileSramError) -> Self {
        StaError::Sram(e)
    }
}

/// Resolves a macro's (access time, setup) pair by compiling its
/// geometry with the technology's memory compiler.
fn macro_access_time(
    design: &Design,
    module: ModuleId,
    path_name: &str,
    macro_name: &str,
    tech: &Tech,
) -> Result<(Ns, Ns), StaError> {
    let m = design
        .module(module)
        .find_macro(macro_name)
        .ok_or_else(|| StaError::MacroNotFound {
            module: design.module(module).name.clone(),
            path: path_name.to_string(),
            macro_name: macro_name.to_string(),
        })?;
    let compiled = tech.memory_compiler.compile(m.config)?;
    Ok((compiled.access_time, compiled.setup))
}

/// Clock-independent timing of one path: every component of a
/// [`PathTiming`] except the slack, which is a function of the clock
/// period alone. Caching at this granularity makes *any* clock a
/// cache hit — the incremental engine re-derives slack per query with
/// the exact arithmetic [`analyze`] uses, so results stay
/// bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct UnclockedPath {
    pub(crate) module: String,
    pub(crate) path: String,
    pub(crate) start: PathEndpoint,
    pub(crate) end: PathEndpoint,
    pub(crate) launch: Ns,
    pub(crate) logic: Ns,
    pub(crate) route: Ns,
    pub(crate) setup: Ns,
    pub(crate) arrival: Ns,
}

impl UnclockedPath {
    /// Instantiates the path at a clock `period`, computing slack with
    /// the same expression (and therefore the same floating-point
    /// rounding) as the full analysis.
    pub(crate) fn at_period(&self, period: Ns) -> PathTiming {
        let slack = period - CLOCK_UNCERTAINTY - self.setup - self.arrival;
        PathTiming {
            module: self.module.clone(),
            path: self.path.clone(),
            start: self.start.clone(),
            end: self.end.clone(),
            launch: self.launch,
            logic: self.logic,
            route: self.route,
            setup: self.setup,
            arrival: self.arrival,
            slack,
        }
    }
}

/// Ascending-slack ordering used everywhere a report is sorted or a
/// critical path is selected. `total_cmp` instead of
/// `partial_cmp(..).expect(..)`: a NaN delay (e.g. a corrupt route
/// annotation) sorts to the report's tail deterministically instead of
/// panicking the planner mid-sweep.
pub(crate) fn slack_order(a: &PathTiming, b: &PathTiming) -> std::cmp::Ordering {
    a.slack.value().total_cmp(&b.slack.value())
}

/// Times every representative path of module `id`, producing
/// clock-independent results in the module's declaration order.
///
/// Each macro endpoint is compiled at most once per path: a
/// macro-to-macro path through one memory characterizes its geometry
/// once. Reuse across analyses is the incremental engine's job
/// ([`crate::IncrementalSta`] keeps this function's result per module
/// content).
///
/// # Errors
///
/// Returns [`StaError`] if a path references a missing macro or a
/// macro geometry is outside the compiler range.
pub(crate) fn time_module(
    design: &Design,
    id: ModuleId,
    tech: &Tech,
) -> Result<Vec<UnclockedPath>, StaError> {
    let dff = tech.library.cell(CellClass::Dff);
    let module = design.module(id);
    let mut out = Vec::with_capacity(module.paths.len());
    for path in &module.paths {
        // Launch component. Remember a launching macro's timing so a
        // same-macro capture below reuses it instead of recompiling.
        let mut launch_macro: Option<(&str, (Ns, Ns))> = None;
        let launch = match &path.start {
            PathEndpoint::Register => dff.intrinsic_delay,
            PathEndpoint::Macro(name) => {
                let times = macro_access_time(design, id, &path.name, name, tech)?;
                launch_macro = Some((name.as_str(), times));
                times.0
            }
            PathEndpoint::Input => INPUT_DELAY_BUDGET,
            PathEndpoint::Output => Ns::ZERO,
        };

        // Logic component: each stage drives the next stage's input
        // capacitance plus estimated wire load.
        let mut logic = Ns::ZERO;
        for (i, stage) in path.stages.iter().enumerate() {
            let spec = tech.library.cell(stage.class);
            let sink_cap: FemtoFarads = match path.stages.get(i + 1) {
                Some(next) => tech.library.cell(next.class).input_cap,
                None => match &path.end {
                    PathEndpoint::Register => dff.input_cap,
                    PathEndpoint::Macro(_) => FemtoFarads::new(6.0),
                    _ => FemtoFarads::new(4.0),
                },
            };
            let load =
                tech.wire_load.net_cap(stage.fanout) + sink_cap * f64::from(stage.fanout.max(1));
            logic += spec.delay(load);
        }

        // Capture requirement.
        let setup = match &path.end {
            PathEndpoint::Register => dff.setup,
            PathEndpoint::Macro(name) => match launch_macro {
                Some((launch_name, times)) if launch_name == name => times.1,
                _ => macro_access_time(design, id, &path.name, name, tech)?.1,
            },
            PathEndpoint::Input | PathEndpoint::Output => Ns::ZERO,
        };

        let arrival = launch + logic + path.route_delay;
        out.push(UnclockedPath {
            module: module.name.clone(),
            path: path.name.clone(),
            start: path.start.clone(),
            end: path.end.clone(),
            launch,
            logic,
            route: path.route_delay,
            setup,
            arrival,
        });
    }
    Ok(out)
}

/// Times every representative path of every module in `design` against
/// the given clock and returns a full report sorted by ascending slack.
///
/// Identical module instances share their internal paths (the paper's
/// flow likewise places one CU partition and clones it), so each
/// module is analyzed once regardless of its multiplicity.
///
/// This is the full-recompute reference engine; the incremental engine
/// in [`crate::engine`] is property-tested to return byte-identical
/// reports.
///
/// # Errors
///
/// Returns [`StaError`] if a path references a missing macro or a
/// macro geometry is outside the compiler range.
pub fn analyze(design: &Design, tech: &Tech, clock: Mhz) -> Result<TimingReport, StaError> {
    let period = clock.period();
    let mut paths = Vec::new();
    for id in design.module_ids() {
        for up in time_module(design, id, tech)? {
            paths.push(up.at_period(period));
        }
    }
    paths.sort_by(slack_order);
    Ok(TimingReport::new(clock, paths))
}

/// Clock used for the single clock-independent probe analysis behind
/// [`max_frequency`]: path delay does not depend on the clock, so one
/// analysis at any frequency yields the critical delay.
pub(crate) const FMAX_PROBE: Mhz = Mhz::new(100.0);

/// Selects the critical (worst-slack) path from an iterator of timed
/// paths with the exact comparison the report sort uses, keeping the
/// first among ties — i.e. it returns precisely
/// `sorted(paths)[0]` without the O(P log P) sort.
pub(crate) fn select_critical(paths: impl Iterator<Item = PathTiming>) -> Option<PathTiming> {
    let mut crit: Option<PathTiming> = None;
    for p in paths {
        let better = match &crit {
            None => true,
            Some(c) => slack_order(&p, c).is_lt(),
        };
        if better {
            crit = Some(p);
        }
    }
    crit
}

/// Frequency at which `crit` (the critical path of some design) has
/// exactly zero slack.
///
/// # Errors
///
/// Returns [`StaError::InvalidPeriod`] when that path's minimum period
/// is not finite and positive.
pub(crate) fn fmax_of_critical(crit: &PathTiming) -> Result<Mhz, StaError> {
    let min_period = crit.arrival + crit.setup + CLOCK_UNCERTAINTY;
    if !(min_period.is_finite() && min_period.value() > 0.0) {
        return Err(StaError::InvalidPeriod {
            module: crit.module.clone(),
            path: crit.path.clone(),
            min_period,
        });
    }
    Ok(min_period.frequency())
}

/// Computes the maximum clock frequency the design supports: the
/// frequency at which the worst path has exactly zero slack.
///
/// The critical path is found by a single top-1 scan — no report is
/// materialized and no O(P log P) sort runs; ties resolve exactly as
/// the stable report sort would (first declared wins).
///
/// # Errors
///
/// Same conditions as [`analyze`], plus [`StaError::InvalidPeriod`]
/// when the critical path's minimum period is not finite and positive
/// (a NaN or negative delay). Returns `None` inside `Ok` if the design
/// declares no timing paths.
pub fn max_frequency(design: &Design, tech: &Tech) -> Result<Option<Mhz>, StaError> {
    let period = FMAX_PROBE.period();
    let mut crit: Option<PathTiming> = None;
    for id in design.module_ids() {
        for up in time_module(design, id, tech)? {
            let p = up.at_period(period);
            let better = match &crit {
                None => true,
                Some(c) => slack_order(&p, c).is_lt(),
            };
            if better {
                crit = Some(p);
            }
        }
    }
    crit.as_ref().map(fmax_of_critical).transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_netlist::module::{MacroInst, MemoryRole, Module};
    use ggpu_netlist::timing::{LogicStage, TimingPath};
    use ggpu_tech::sram::SramConfig;

    fn design_with_paths() -> Design {
        let mut d = Design::new("t");
        let mut m = Module::new("m");
        m.macros.push(MacroInst::new(
            "big",
            SramConfig::dual(4096, 32),
            MemoryRole::CacheData,
            0.5,
        ));
        m.paths.push(TimingPath::new(
            "mem_read",
            PathEndpoint::Macro("big".into()),
            PathEndpoint::Register,
            LogicStage::chain(CellClass::Nand2, 4, 2),
        ));
        m.paths.push(TimingPath::new(
            "reg_reg",
            PathEndpoint::Register,
            PathEndpoint::Register,
            LogicStage::chain(CellClass::Nand2, 8, 2),
        ));
        let id = d.add_module(m);
        d.set_top(id);
        d
    }

    #[test]
    fn memory_path_dominates() {
        let d = design_with_paths();
        let report = analyze(&d, &Tech::l65(), Mhz::new(500.0)).unwrap();
        let crit = report.critical().unwrap();
        assert_eq!(crit.path, "mem_read");
        assert!(matches!(crit.start, PathEndpoint::Macro(_)));
    }

    #[test]
    fn fmax_matches_zero_slack() {
        let d = design_with_paths();
        let tech = Tech::l65();
        let fmax = max_frequency(&d, &tech).unwrap().unwrap();
        let at_fmax = analyze(&d, &tech, fmax).unwrap();
        assert!(at_fmax.critical().unwrap().slack.value().abs() < 1e-9);
        // Slightly faster clock must violate.
        let pushed = analyze(&d, &tech, Mhz::new(fmax.value() * 1.01)).unwrap();
        assert!(pushed.critical().unwrap().slack.value() < 0.0);
    }

    #[test]
    fn route_delay_reduces_slack() {
        let mut d = design_with_paths();
        let tech = Tech::l65();
        let before = analyze(&d, &tech, Mhz::new(500.0)).unwrap();
        let s_before = before.critical().unwrap().slack;
        let top = d.top();
        d.module_mut(top).paths[0].route_delay = Ns::new(0.3);
        let after = analyze(&d, &tech, Mhz::new(500.0)).unwrap();
        let s_after = after.critical().unwrap().slack;
        assert!((s_before - s_after).value() > 0.29);
    }

    #[test]
    fn missing_macro_is_reported() {
        let mut d = Design::new("t");
        let mut m = Module::new("m");
        m.paths.push(TimingPath::new(
            "bad",
            PathEndpoint::Macro("ghost".into()),
            PathEndpoint::Register,
            vec![],
        ));
        let id = d.add_module(m);
        d.set_top(id);
        let err = analyze(&d, &Tech::l65(), Mhz::new(500.0)).unwrap_err();
        assert!(matches!(err, StaError::MacroNotFound { .. }));
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn empty_design_has_no_fmax() {
        let mut d = Design::new("t");
        let id = d.add_module(Module::new("empty"));
        d.set_top(id);
        assert!(max_frequency(&d, &Tech::l65()).unwrap().is_none());
    }

    #[test]
    fn deeper_logic_is_slower() {
        let tech = Tech::l65();
        let mut d = Design::new("t");
        let mut m = Module::new("m");
        m.paths.push(TimingPath::new(
            "short",
            PathEndpoint::Register,
            PathEndpoint::Register,
            LogicStage::chain(CellClass::Nand2, 3, 2),
        ));
        m.paths.push(TimingPath::new(
            "long",
            PathEndpoint::Register,
            PathEndpoint::Register,
            LogicStage::chain(CellClass::Nand2, 12, 2),
        ));
        let id = d.add_module(m);
        d.set_top(id);
        let report = analyze(&d, &tech, Mhz::new(500.0)).unwrap();
        assert_eq!(report.critical().unwrap().path, "long");
    }
}
