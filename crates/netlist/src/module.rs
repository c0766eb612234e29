//! Module contents: cell groups, memory macros and child instances.

use crate::ids::ModuleId;
use crate::timing::TimingPath;
use ggpu_tech::sram::SramConfig;
use ggpu_tech::stdcell::CellClass;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A population of identical standard cells inside a module.
///
/// Real elaborated netlists contain each cell individually; at the
/// scale of an 8-CU G-GPU (1.5 M+ cells) that is wasteful when the flow
/// only needs counts, area, power and representative timing paths.
/// A `CellGroup` is a run-length-encoded population: `count` cells of
/// `class`, toggling with the given `activity` (fraction of cells
/// switching per clock cycle, used by the dynamic-power rollup).
#[derive(Debug, Clone, PartialEq)]
pub struct CellGroup {
    /// Descriptive name (e.g. `"operand_regs"`).
    pub name: String,
    /// The cell class populated.
    pub class: CellClass,
    /// Number of cells.
    pub count: u64,
    /// Average switching activity (0.0–1.0) per cycle.
    pub activity: f64,
}

/// Structural hash; the switching activity participates via its
/// IEEE-754 bit pattern (see the [`crate::timing::TimingPath`] note).
impl Hash for CellGroup {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        self.class.hash(state);
        self.count.hash(state);
        state.write_u64(self.activity.to_bits());
    }
}

impl CellGroup {
    /// Creates a group, validating the activity range.
    ///
    /// # Panics
    ///
    /// Panics if `activity` is outside `0.0..=1.0`.
    pub fn new(name: impl Into<String>, class: CellClass, count: u64, activity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&activity),
            "activity must be in [0, 1], got {activity}"
        );
        Self {
            name: name.into(),
            class,
            count,
            activity,
        }
    }
}

/// What architectural structure a memory macro implements; used by the
/// report generators and by the floorplanner's colour coding (the
/// paper's Figs. 3–4 colour memories by partition role).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MemoryRole {
    /// Per-PE register file bank.
    RegisterFile,
    /// Instruction memory (CRAM).
    InstructionRam,
    /// Local scratchpad (LRAM).
    ScratchRam,
    /// Data-cache data array.
    CacheData,
    /// Data-cache tag array.
    CacheTag,
    /// Runtime memory holding kernel descriptors.
    RuntimeMemory,
    /// Data-mover / interface FIFO.
    Fifo,
    /// Wavefront / workgroup bookkeeping state.
    SchedulerState,
    /// Anything else.
    Other,
}

impl fmt::Display for MemoryRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemoryRole::RegisterFile => "register-file",
            MemoryRole::InstructionRam => "instruction-ram",
            MemoryRole::ScratchRam => "scratch-ram",
            MemoryRole::CacheData => "cache-data",
            MemoryRole::CacheTag => "cache-tag",
            MemoryRole::RuntimeMemory => "runtime-memory",
            MemoryRole::Fifo => "fifo",
            MemoryRole::SchedulerState => "scheduler-state",
            MemoryRole::Other => "other",
        };
        f.write_str(s)
    }
}

/// An instantiated memory macro.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroInst {
    /// Instance name within the module (e.g. `"rf_bank0"`).
    pub name: String,
    /// Requested geometry, compiled against the technology's memory
    /// compiler during synthesis.
    pub config: SramConfig,
    /// Architectural role.
    pub role: MemoryRole,
    /// Average accesses per clock cycle (0.0–1.0 per port), used by the
    /// dynamic-power rollup.
    pub access_activity: f64,
    /// Structural bank group: macros implementing the banks of one
    /// logical memory carry the same id (see [`crate::geometry`]).
    /// `None` for a standalone macro.
    pub bank_group: Option<crate::geometry::BankGroupId>,
}

/// Structural hash; the access activity participates via its IEEE-754
/// bit pattern (see the [`crate::timing::TimingPath`] note).
impl Hash for MacroInst {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        self.config.hash(state);
        self.role.hash(state);
        state.write_u64(self.access_activity.to_bits());
        self.bank_group.hash(state);
    }
}

impl MacroInst {
    /// Creates a macro instance, validating the activity range.
    ///
    /// # Panics
    ///
    /// Panics if `access_activity` is outside `0.0..=1.0`.
    pub fn new(
        name: impl Into<String>,
        config: SramConfig,
        role: MemoryRole,
        access_activity: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&access_activity),
            "access activity must be in [0, 1], got {access_activity}"
        );
        Self {
            name: name.into(),
            config,
            role,
            access_activity,
            bank_group: None,
        }
    }

    /// Assigns the structural bank group (builder style).
    pub fn with_bank_group(mut self, group: crate::geometry::BankGroupId) -> Self {
        self.bank_group = Some(group);
        self
    }
}

/// A child-module instantiation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Instance {
    /// Instance name within the parent (e.g. `"cu0"`).
    pub name: String,
    /// The instantiated module.
    pub module: ModuleId,
}

/// A hardware module: populations of cells, memory macros, child
/// instances and representative timing paths.
///
/// `Hash` covers every field, so a module's hash is a structural
/// fingerprint of its full contents; [`crate::Design`] caches one
/// fingerprint per module and invalidates it on mutable access, which
/// is what makes design-level fingerprinting (and the STA memo keyed
/// on it) O(mutated modules) instead of O(whole design).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Module {
    /// Module (type) name, unique within a design.
    pub name: String,
    /// Standard-cell populations.
    pub groups: Vec<CellGroup>,
    /// Memory macros.
    pub macros: Vec<MacroInst>,
    /// Child instances.
    pub children: Vec<Instance>,
    /// Representative register-to-register timing paths through this
    /// module's logic (see [`crate::timing`]).
    pub paths: Vec<TimingPath>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            groups: Vec::new(),
            macros: Vec::new(),
            children: Vec::new(),
            paths: Vec::new(),
        }
    }

    /// Adds a cell group and returns `self` for chaining.
    pub fn with_group(mut self, group: CellGroup) -> Self {
        self.groups.push(group);
        self
    }

    /// Adds a macro and returns `self` for chaining.
    pub fn with_macro(mut self, m: MacroInst) -> Self {
        self.macros.push(m);
        self
    }

    /// Finds a macro by instance name.
    pub fn find_macro(&self, name: &str) -> Option<&MacroInst> {
        self.macros.iter().find(|m| m.name == name)
    }

    /// Finds a macro by instance name, mutably.
    pub fn find_macro_mut(&mut self, name: &str) -> Option<&mut MacroInst> {
        self.macros.iter_mut().find(|m| m.name == name)
    }

    /// Removes the named macro and returns it, or `None` if absent.
    pub fn remove_macro(&mut self, name: &str) -> Option<MacroInst> {
        let idx = self.macros.iter().position(|m| m.name == name)?;
        Some(self.macros.remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_tech::sram::SramConfig;

    #[test]
    fn build_and_query_module() {
        let mut m = Module::new("pe")
            .with_group(CellGroup::new("alu", CellClass::FullAdder, 640, 0.2))
            .with_macro(MacroInst::new(
                "rf",
                SramConfig::dual(512, 32),
                MemoryRole::RegisterFile,
                0.8,
            ));
        assert_eq!(m.name, "pe");
        assert!(m.find_macro("rf").is_some());
        assert!(m.find_macro("nope").is_none());
        let taken = m.remove_macro("rf").unwrap();
        assert_eq!(taken.config.words, 512);
        assert!(m.find_macro("rf").is_none());
        assert!(m.remove_macro("rf").is_none());
    }

    #[test]
    #[should_panic(expected = "activity must be in")]
    fn invalid_group_activity_panics() {
        let _ = CellGroup::new("x", CellClass::Inv, 1, 1.5);
    }

    #[test]
    #[should_panic(expected = "access activity must be in")]
    fn invalid_macro_activity_panics() {
        let _ = MacroInst::new("x", SramConfig::dual(64, 8), MemoryRole::Other, -0.1);
    }

    #[test]
    fn memory_role_display() {
        assert_eq!(MemoryRole::CacheData.to_string(), "cache-data");
        assert_eq!(MemoryRole::RegisterFile.to_string(), "register-file");
    }
}
