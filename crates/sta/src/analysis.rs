//! Arrival-time computation for representative paths.

use crate::report::{PathTiming, TimingReport};
use ggpu_netlist::timing::{PathEndpoint, TimingPath};
use ggpu_netlist::{Design, ModuleId};
use ggpu_tech::sram::CompileSramError;
use ggpu_tech::stdcell::{CellClass, CellSpec};
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

/// Clock-independent delays of one path. Slack is a function of the
/// clock period alone, so [`analyze`] and [`max_frequency`] share one
/// expression for it ([`Delays::slack`]) and round alike.
#[derive(Clone, Copy)]
struct Delays {
    launch: Ns,
    logic: Ns,
    setup: Ns,
    arrival: Ns,
}

impl Delays {
    fn slack(&self, period: Ns) -> Ns {
        period - CLOCK_UNCERTAINTY - self.setup - self.arrival
    }

    /// The path's report entry at a clock `period`.
    fn timing(&self, module: &str, path: &TimingPath, period: Ns) -> PathTiming {
        PathTiming {
            module: module.to_string(),
            path: path.name.clone(),
            start: path.start.clone(),
            end: path.end.clone(),
            launch: self.launch,
            logic: self.logic,
            route: path.route_delay,
            setup: self.setup,
            arrival: self.arrival,
            slack: self.slack(period),
        }
    }
}

/// Times every representative path of module `id` in declaration
/// order, handing `visit` each path and its delays.
///
/// Each macro endpoint is compiled at most once per path: a
/// macro-to-macro path through one memory characterizes its geometry
/// once.
///
/// # Errors
///
/// Returns [`StaError`] at the first path that references a missing
/// macro or a macro geometry outside the compiler range.
fn for_each_path<'d>(
    design: &'d Design,
    id: ModuleId,
    tech: &Tech,
    mut visit: impl FnMut(&'d TimingPath, Delays),
) -> Result<(), StaError> {
    let dff = tech.library.cell(CellClass::Dff);
    for path in &design.module(id).paths {
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
        // capacitance plus estimated wire load. A chain repeats one
        // cell, so a stage looks its cell up only when its class
        // differs from the stage before it; each spec also serves as
        // the previous stage's sink.
        let mut logic = Ns::ZERO;
        let mut prev: Option<(CellClass, &CellSpec)> = None;
        let mut stages = path
            .stages
            .iter()
            .map(|stage| {
                let spec = match prev {
                    Some((class, spec)) if class == stage.class => spec,
                    _ => tech.library.cell(stage.class),
                };
                prev = Some((stage.class, spec));
                (stage.fanout, spec)
            })
            .peekable();
        while let Some((fanout, spec)) = stages.next() {
            let sink_cap: FemtoFarads = match stages.peek() {
                Some((_, next)) => next.input_cap,
                None => match &path.end {
                    PathEndpoint::Register => dff.input_cap,
                    PathEndpoint::Macro(_) => FemtoFarads::new(6.0),
                    _ => FemtoFarads::new(4.0),
                },
            };
            let load = tech.wire_load.net_cap(fanout) + sink_cap * f64::from(fanout.max(1));
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
        visit(
            path,
            Delays {
                launch,
                logic,
                setup,
                arrival,
            },
        );
    }
    Ok(())
}

/// Times every representative path of every module in `design` against
/// the given clock and returns a full report sorted by ascending slack.
///
/// Identical module instances share their internal paths (the paper's
/// flow likewise places one CU partition and clones it), so each
/// module is analyzed once regardless of its multiplicity. Ties keep
/// declaration order (modules in arena order, then paths), because
/// the sort is stable.
///
/// # Errors
///
/// Returns [`StaError`] if a path references a missing macro or a
/// macro geometry is outside the compiler range.
pub fn analyze(design: &Design, tech: &Tech, clock: Mhz) -> Result<TimingReport, StaError> {
    let period = clock.period();
    let mut paths = Vec::new();
    for id in design.module_ids() {
        let module = &design.module(id).name;
        for_each_path(design, id, tech, |path, delays| {
            paths.push(delays.timing(module, path, period));
        })?;
    }
    // `total_cmp` instead of `partial_cmp(..).expect(..)`: a NaN delay
    // (e.g. a corrupt route annotation) sorts to the report's tail
    // deterministically instead of panicking the planner mid-sweep.
    paths.sort_by(|a, b| a.slack.value().total_cmp(&b.slack.value()));
    Ok(TimingReport::new(clock, paths))
}

/// Clock used for the single clock-independent probe analysis behind
/// [`max_frequency`]: path delay does not depend on the clock, so one
/// analysis at any frequency yields the critical delay.
const FMAX_PROBE: Mhz = Mhz::new(100.0);

/// Computes the maximum clock frequency the design supports: the
/// frequency at which the worst path has exactly zero slack.
///
/// The critical path is found by a single top-1 scan that keeps only
/// its module, path and delays — no report is materialized and no
/// O(P log P) sort runs; ties resolve exactly as the stable report
/// sort would (first declared wins).
///
/// # Errors
///
/// Same conditions as [`analyze`], plus [`StaError::InvalidPeriod`]
/// when the critical path's minimum period is not finite and positive
/// (a NaN or negative delay). Returns `None` inside `Ok` if the design
/// declares no timing paths.
pub fn max_frequency(design: &Design, tech: &Tech) -> Result<Option<Mhz>, StaError> {
    let period = FMAX_PROBE.period();
    let mut crit: Option<(ModuleId, &TimingPath, Delays, Ns)> = None;
    for id in design.module_ids() {
        for_each_path(design, id, tech, |path, delays| {
            // Strict-less `total_cmp`, as the report sort orders slack.
            let slack = delays.slack(period);
            if crit.is_none_or(|(.., worst)| slack.value().total_cmp(&worst.value()).is_lt()) {
                crit = Some((id, path, delays, slack));
            }
        })?;
    }
    let Some((id, path, delays, _)) = crit else {
        return Ok(None);
    };
    let min_period = delays.arrival + delays.setup + CLOCK_UNCERTAINTY;
    if !(min_period.is_finite() && min_period.value() > 0.0) {
        return Err(StaError::InvalidPeriod {
            module: design.module(id).name.clone(),
            path: path.name.clone(),
            min_period,
        });
    }
    Ok(Some(min_period.frequency()))
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
