//! Representative timing paths.
//!
//! An elaborated netlist implies millions of register-to-register
//! paths; synthesis timing is governed by a handful of structural
//! worst-case paths per module. The RTL generators declare exactly
//! those ([`TimingPath`]): where the path launches
//! ([`PathEndpoint::Macro`] paths model the paper's "critical path has
//! its starting point at a memory block"), the chain of logic stages it
//! traverses, and any post-layout wire delay annotated by the router.
//!
//! GPUPlanner's two transforms operate directly on these paths:
//! memory division shrinks the launching macro and prepends a MUX
//! stage; pipeline insertion splits the stage chain in two.

use ggpu_tech::stdcell::CellClass;
use ggpu_tech::units::Ns;
use std::fmt;

/// Where a timing path begins or ends.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PathEndpoint {
    /// A standard-cell register (launch: clock-to-Q; capture: setup).
    Register,
    /// A memory macro identified by its instance name within the
    /// owning module (launch: access time; capture: address/data
    /// setup).
    Macro(String),
    /// A module input port (delay budgeted externally).
    Input,
    /// A module output port.
    Output,
}

impl fmt::Display for PathEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathEndpoint::Register => f.write_str("reg"),
            PathEndpoint::Macro(name) => write!(f, "macro({name})"),
            PathEndpoint::Input => f.write_str("in"),
            PathEndpoint::Output => f.write_str("out"),
        }
    }
}

/// One combinational stage of a path: a cell of `class` driving
/// `fanout` downstream pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LogicStage {
    /// The driving cell's class.
    pub class: CellClass,
    /// Number of sink pins the stage drives.
    pub fanout: u32,
}

impl LogicStage {
    /// A single stage.
    pub fn new(class: CellClass, fanout: u32) -> Self {
        Self { class, fanout }
    }

    /// A chain of `levels` identical stages — convenient for
    /// expressing "N levels of logic".
    pub fn chain(class: CellClass, levels: usize, fanout: u32) -> Vec<Self> {
        vec![Self::new(class, fanout); levels]
    }
}

/// A representative register-to-register (or macro-to-register, etc.)
/// timing path.
///
/// `Hash` is structural: every field participates (the route delay via
/// its IEEE-754 bit pattern), so the planner's content-addressed STA
/// memo treats any mutation — endpoint rewiring, stage edits, route
/// annotation — as a new timing problem.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct TimingPath {
    /// Descriptive name, unique within the owning module.
    pub name: String,
    /// Launch point.
    pub start: PathEndpoint,
    /// Capture point.
    pub end: PathEndpoint,
    /// The combinational stages between launch and capture.
    pub stages: Vec<LogicStage>,
    /// Additional wire delay annotated after routing; zero pre-layout.
    pub route_delay: Ns,
}

impl TimingPath {
    /// Creates a pre-layout path (no route delay).
    pub fn new(
        name: impl Into<String>,
        start: PathEndpoint,
        end: PathEndpoint,
        stages: Vec<LogicStage>,
    ) -> Self {
        Self {
            name: name.into(),
            start,
            end,
            stages,
            route_delay: Ns::ZERO,
        }
    }

    /// Number of combinational stages.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Splits the path after stage `cut` (0-based, exclusive), modelling
    /// pipeline-register insertion: the first half captures into the new
    /// register, the second half launches from it. Route delay stays on
    /// the second half (the inserted register is placed at the launch
    /// end of the long route).
    ///
    /// # Panics
    ///
    /// Panics if `cut` is zero or not less than the stage count —
    /// a pipeline register must leave logic on both sides.
    pub fn split_at(&self, cut: usize) -> (TimingPath, TimingPath) {
        assert!(
            cut > 0 && cut < self.stages.len(),
            "cut {cut} must leave stages on both sides of a {}-stage path",
            self.stages.len()
        );
        let first = TimingPath {
            name: format!("{}__p0", self.name),
            start: self.start.clone(),
            end: PathEndpoint::Register,
            stages: self.stages[..cut].to_vec(),
            route_delay: Ns::ZERO,
        };
        let second = TimingPath {
            name: format!("{}__p1", self.name),
            start: PathEndpoint::Register,
            end: self.end.clone(),
            stages: self.stages[cut..].to_vec(),
            route_delay: self.route_delay,
        };
        (first, second)
    }

    /// `true` if the path launches from the named macro.
    pub fn launches_from_macro(&self, macro_name: &str) -> bool {
        matches!(&self.start, PathEndpoint::Macro(n) if n == macro_name)
    }

    /// `true` if the path captures into the named macro.
    pub fn captures_into_macro(&self, macro_name: &str) -> bool {
        matches!(&self.end, PathEndpoint::Macro(n) if n == macro_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimingPath {
        TimingPath::new(
            "rf_read",
            PathEndpoint::Macro("rf0".into()),
            PathEndpoint::Register,
            LogicStage::chain(CellClass::Nand2, 6, 2),
        )
    }

    #[test]
    fn chain_builds_levels() {
        let stages = LogicStage::chain(CellClass::Inv, 4, 3);
        assert_eq!(stages.len(), 4);
        assert!(stages.iter().all(|s| s.fanout == 3));
    }

    #[test]
    fn split_preserves_stage_total() {
        let p = sample();
        let (a, b) = p.split_at(2);
        assert_eq!(a.depth() + b.depth(), p.depth());
        assert_eq!(a.start, PathEndpoint::Macro("rf0".into()));
        assert_eq!(a.end, PathEndpoint::Register);
        assert_eq!(b.start, PathEndpoint::Register);
        assert_eq!(b.end, PathEndpoint::Register);
    }

    #[test]
    fn split_moves_route_delay_to_second_half() {
        let mut p = sample();
        p.route_delay = Ns::new(0.4);
        let (a, b) = p.split_at(3);
        assert_eq!(a.route_delay, Ns::ZERO);
        assert_eq!(b.route_delay, Ns::new(0.4));
    }

    #[test]
    #[should_panic(expected = "must leave stages on both sides")]
    fn split_at_zero_panics() {
        let _ = sample().split_at(0);
    }

    #[test]
    #[should_panic(expected = "must leave stages on both sides")]
    fn split_at_end_panics() {
        let p = sample();
        let _ = p.split_at(p.depth());
    }

    #[test]
    fn macro_queries() {
        let p = sample();
        assert!(p.launches_from_macro("rf0"));
        assert!(!p.launches_from_macro("rf1"));
        assert!(!p.captures_into_macro("rf0"));
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(PathEndpoint::Register.to_string(), "reg");
        assert_eq!(PathEndpoint::Macro("x".into()).to_string(), "macro(x)");
    }
}
