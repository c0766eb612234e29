//! GPUPlanner's two netlist transforms: memory division and on-demand
//! pipeline insertion.
//!
//! The paper (§III): *"dividing the memory blocks in the critical path
//! is a valid strategy for increasing the performance of a design.
//! Memory division can be applied by dividing the number of words, the
//! size of the word, or both. [...] a small extra logic is necessary
//! to accommodate the addressing control of the new blocks (i.e.,
//! MUXes to switch between block memories if the number of words is
//! split according to the MSBs of the address). [...] where the
//! critical path was not in memory blocks [...] pipelines were
//! introduced in those paths."*

use ggpu_netlist::module::{CellGroup, MacroInst};
use ggpu_netlist::timing::{LogicStage, PathEndpoint};
use ggpu_netlist::{Design, ModuleId, ModuleSnapshot};
#[cfg(test)]
use ggpu_tech::sram::PortKind;
use ggpu_tech::sram::{CompileSramError, SramConfig};
use ggpu_tech::stdcell::CellClass;
use std::error::Error;
use std::fmt;

/// An undo record: O(1) pre-apply snapshots of every module a
/// [`Transform`] touched, in application order.
///
/// Snapshots are [`ModuleSnapshot`]s — an `Arc` bump plus the module's
/// cached fingerprint slot — so holding an `Undo` costs a pointer per
/// touched module and [`revert`] restores the design *bit-identically*,
/// including the warm fingerprint cache the incremental STA engine
/// keys on.
#[derive(Debug)]
pub struct Undo {
    snapshots: Vec<ModuleSnapshot>,
}

impl Undo {
    /// The modules this record restores (application order,
    /// deduplicated).
    pub fn dirty_modules(&self) -> Vec<ModuleId> {
        let mut out: Vec<ModuleId> = self.snapshots.iter().map(|s| s.id()).collect();
        out.sort();
        out.dedup();
        out
    }
}

/// Restores every module captured in `undo` to its pre-apply state.
///
/// Reverting is O(touched modules): each restore swaps an `Arc` and a
/// fingerprint slot back into the design arena. The result is
/// bit-identical to the pre-apply design — same structural fingerprint,
/// same per-module fingerprints, same Verilog export.
pub fn revert(design: &mut Design, undo: Undo) {
    // Reverse order, so overlapping snapshots of the same module
    // resolve to the earliest (pre-apply) state.
    for snap in undo.snapshots.into_iter().rev() {
        design.restore_module(snap);
    }
}

/// A reversible netlist edit: GPUPlanner's unified transform interface.
///
/// Both optimizations the paper's §III loop applies — memory division
/// ([`DivideMemory`]) and pipeline insertion ([`PipelineInsert`]) —
/// implement this trait, so the planner's transaction journal can
/// apply, measure and revert candidates without knowing which kind of
/// edit it holds.
///
/// # Contract
///
/// * [`apply`](Transform::apply) is **atomic**: on `Err` the design is
///   left exactly as it was (implementations snapshot before mutating
///   and restore on failure).
/// * [`revert`](Transform::revert) after a successful `apply` restores
///   the design bit-identically (fingerprints included).
/// * [`dirty_modules`](Transform::dirty_modules) names every module
///   `apply` may mutate, resolved against the current design — the
///   advisory dirty set the incremental STA engine audits.
pub trait Transform: fmt::Display {
    /// Modules this transform will mutate, resolved against `design`.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::ModuleNotFound`] if the owning module
    /// does not exist.
    fn dirty_modules(&self, design: &Design) -> Result<Vec<ModuleId>, TransformError>;

    /// Applies the edit, returning the undo record. Atomic: on error
    /// the design is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError`] if the edit cannot apply; the design
    /// is left untouched.
    fn apply(&self, design: &mut Design) -> Result<Undo, TransformError>;

    /// Restores the design to its pre-[`apply`](Transform::apply)
    /// state. The default implementation replays the snapshots in
    /// `undo`; transforms with extra bookkeeping may override.
    fn revert(&self, design: &mut Design, undo: Undo) {
        revert(design, undo);
    }
}

/// Memory division as a [`Transform`]: divides the named macro — and
/// every structural sibling of the same logical memory (same
/// [`ggpu_netlist::BankGroupId`], same geometry) — into `factor` parts
/// along `axis`.
///
/// A division names one macro (the one on the representative timing
/// path) but the flow divides the *structure*: every sibling bank
/// fails timing identically. Sibling membership is the structural
/// group id assigned by the RTL generator, never the instance name —
/// the retired name-stem matching (`bank_base`) misgrouped user macros
/// whose names merely looked like sibling banks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivideMemory {
    /// Owning module name.
    pub module: String,
    /// The macro to divide (any bank of the structure).
    pub macro_name: String,
    /// Division factor (power of two ≥ 2).
    pub factor: u32,
    /// Division axis.
    pub axis: DivideAxis,
}

impl fmt::Display for DivideMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "divide {}/{} x{} ({})",
            self.module, self.macro_name, self.factor, self.axis
        )
    }
}

fn resolve_module(design: &Design, name: &str) -> Result<ModuleId, TransformError> {
    design
        .module_by_name(name)
        .ok_or_else(|| TransformError::ModuleNotFound {
            name: name.to_string(),
        })
}

impl Transform for DivideMemory {
    fn dirty_modules(&self, design: &Design) -> Result<Vec<ModuleId>, TransformError> {
        Ok(vec![resolve_module(design, &self.module)?])
    }

    fn apply(&self, design: &mut Design) -> Result<Undo, TransformError> {
        let id = resolve_module(design, &self.module)?;
        let target = design
            .module(id)
            .find_macro(&self.macro_name)
            .cloned()
            .ok_or_else(|| TransformError::MacroNotFound {
                module: self.module.clone(),
                name: self.macro_name.clone(),
            })?;
        let siblings = design.module(id).sibling_macro_names(&target);
        let snapshot = design.snapshot_module(id);
        for name in siblings {
            if let Err(e) = divide_macro(design, id, &name, self.factor, self.axis) {
                // Atomic rollback: a failed sibling undoes the whole
                // structure division.
                design.restore_module(snapshot);
                return Err(e);
            }
        }
        Ok(Undo {
            snapshots: vec![snapshot],
        })
    }
}

/// Pipeline insertion as a [`Transform`]: registers the midpoint of
/// the named path (see [`insert_pipeline`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineInsert {
    /// Owning module name.
    pub module: String,
    /// The path to split.
    pub path: String,
}

impl fmt::Display for PipelineInsert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipeline {}/{}", self.module, self.path)
    }
}

impl Transform for PipelineInsert {
    fn dirty_modules(&self, design: &Design) -> Result<Vec<ModuleId>, TransformError> {
        Ok(vec![resolve_module(design, &self.module)?])
    }

    fn apply(&self, design: &mut Design) -> Result<Undo, TransformError> {
        let id = resolve_module(design, &self.module)?;
        let snapshot = design.snapshot_module(id);
        if let Err(e) = insert_pipeline(design, id, &self.path) {
            design.restore_module(snapshot);
            return Err(e);
        }
        Ok(Undo {
            snapshots: vec![snapshot],
        })
    }
}

/// Which extent of the macro a division splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DivideAxis {
    /// Split the address space; accesses are steered to one part by
    /// the MSBs of the address and the read data is selected with a
    /// MUX tree (the paper's primary strategy).
    Words,
    /// Split the word; all parts are accessed in parallel and the
    /// outputs are concatenated (no MUX, smaller speedup).
    Bits,
}

impl fmt::Display for DivideAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivideAxis::Words => f.write_str("words"),
            DivideAxis::Bits => f.write_str("bits"),
        }
    }
}

/// What a division did to the netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivideOutcome {
    /// Names of the replacement macros.
    pub part_names: Vec<String>,
    /// The geometry of each part.
    pub part_config: SramConfig,
    /// Steering/select cells added to the owning module.
    pub mux_cells_added: u64,
}

/// Problems applying a transform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The named module does not exist in the design.
    ModuleNotFound {
        /// Requested module name.
        name: String,
    },
    /// The named macro does not exist in the module.
    MacroNotFound {
        /// Owning module name.
        module: String,
        /// Requested macro name.
        name: String,
    },
    /// The divided geometry is invalid (uneven split or out of the
    /// compiler range).
    Sram(CompileSramError),
    /// The named timing path does not exist in the module.
    PathNotFound {
        /// Owning module name.
        module: String,
        /// Requested path name.
        name: String,
    },
    /// The path is too shallow to pipeline (needs at least two
    /// combinational stages).
    PathTooShallow {
        /// Requested path name.
        name: String,
        /// Its stage count.
        depth: usize,
    },
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::ModuleNotFound { name } => {
                write!(f, "module {name} not found in design")
            }
            TransformError::MacroNotFound { module, name } => {
                write!(f, "macro {name} not found in module {module}")
            }
            TransformError::Sram(e) => write!(f, "memory compiler: {e}"),
            TransformError::PathNotFound { module, name } => {
                write!(f, "timing path {name} not found in module {module}")
            }
            TransformError::PathTooShallow { name, depth } => {
                write!(f, "path {name} has only {depth} stages, cannot pipeline")
            }
        }
    }
}

impl Error for TransformError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TransformError::Sram(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompileSramError> for TransformError {
    fn from(e: CompileSramError) -> Self {
        TransformError::Sram(e)
    }
}

/// Divides the named macro of `module` into `parts` equal macros along
/// `axis`, updating every timing path that references it and adding
/// the steering logic to the module's cell populations.
///
/// Works for single- and dual-port macros alike (the paper lists
/// single-port support as future work; the transform itself is
/// port-agnostic).
///
/// # Errors
///
/// Returns [`TransformError`] if the macro does not exist or the
/// divided geometry is outside the compiler range.
pub fn divide_macro(
    design: &mut Design,
    module: ModuleId,
    macro_name: &str,
    parts: u32,
    axis: DivideAxis,
) -> Result<DivideOutcome, TransformError> {
    let module_name = design.module(module).name.clone();
    let original = design
        .module(module)
        .find_macro(macro_name)
        .cloned()
        .ok_or_else(|| TransformError::MacroNotFound {
            module: module_name.clone(),
            name: macro_name.to_string(),
        })?;

    let part_configs = match axis {
        DivideAxis::Words => original.config.split_words(parts)?,
        DivideAxis::Bits => original.config.split_bits(parts)?,
    };
    let part_config = part_configs[0];

    // Replace the macro with its parts. For a word split each access
    // activates one part; for a bit split all parts fire together.
    let per_part_activity = match axis {
        DivideAxis::Words => original.access_activity / f64::from(parts),
        DivideAxis::Bits => original.access_activity,
    };
    let m = design.module_mut(module);
    m.remove_macro(macro_name);
    let mut part_names = Vec::with_capacity(parts as usize);
    for (i, cfg) in part_configs.into_iter().enumerate() {
        let name = format!("{macro_name}_d{i}");
        let mut part = MacroInst::new(name.clone(), cfg, original.role, per_part_activity);
        // Parts stay members of the parent's logical memory: the
        // structural group id is how every downstream consumer (fault
        // maps, geometry queries, further transforms) keeps treating
        // the divided structure as one memory.
        if let Some(group) = original.bank_group {
            part = part.with_bank_group(group);
        }
        m.macros.push(part);
        part_names.push(name);
    }

    // Steering logic: a MUX-2 tree per data bit for word splits
    // (parts - 1 nodes per bit), a fan-out buffer per part for the
    // address bus either way.
    let select_levels = (parts as f64).log2().ceil() as usize;
    let mux_cells = match axis {
        DivideAxis::Words => u64::from(part_config.bits) * u64::from(parts - 1),
        DivideAxis::Bits => 0,
    };
    let addr_bits = 32 - part_config.words.leading_zeros().max(1);
    let buf_cells = u64::from(addr_bits) * u64::from(parts - 1);
    if mux_cells > 0 {
        m.groups.push(CellGroup::new(
            format!("{macro_name}_steer_mux"),
            CellClass::Mux2,
            mux_cells,
            original.access_activity.min(1.0),
        ));
    }
    if buf_cells > 0 {
        m.groups.push(CellGroup::new(
            format!("{macro_name}_addr_buf"),
            CellClass::Buf,
            buf_cells,
            original.access_activity.min(1.0),
        ));
    }

    // Rewire timing paths. Launching paths gain the MUX-tree levels in
    // front of their logic; capturing paths gain one address fan-out
    // buffer stage.
    let first = part_names[0].clone();
    for path in &mut design.module_mut(module).paths {
        if matches!(&path.start, PathEndpoint::Macro(n) if n == macro_name) {
            path.start = PathEndpoint::Macro(first.clone());
            if axis == DivideAxis::Words {
                for _ in 0..select_levels {
                    path.stages.insert(0, LogicStage::new(CellClass::Mux2, 1));
                }
            }
        }
        if matches!(&path.end, PathEndpoint::Macro(n) if n == macro_name) {
            path.end = PathEndpoint::Macro(first.clone());
            path.stages
                .push(LogicStage::new(CellClass::Buf, parts.min(4)));
        }
    }

    Ok(DivideOutcome {
        part_names,
        part_config,
        mux_cells_added: mux_cells + buf_cells,
    })
}

/// Number of flip-flops added per pipeline insertion: the datapath
/// width of the deep control paths the paper pipelines (Table I shows
/// ~257 extra FFs for the 1-CU 590 MHz version).
pub const PIPELINE_WIDTH_BITS: u64 = 256;

/// Inserts a pipeline register at the midpoint of the named path,
/// splitting it into two paths and adding the register stage to the
/// module's flip-flop population.
///
/// # Errors
///
/// Returns [`TransformError`] if the path does not exist or has fewer
/// than two combinational stages.
pub fn insert_pipeline(
    design: &mut Design,
    module: ModuleId,
    path_name: &str,
) -> Result<(), TransformError> {
    let module_name = design.module(module).name.clone();
    let m = design.module_mut(module);
    let idx = m
        .paths
        .iter()
        .position(|p| p.name == path_name)
        .ok_or_else(|| TransformError::PathNotFound {
            module: module_name,
            name: path_name.to_string(),
        })?;
    let depth = m.paths[idx].depth();
    if depth < 2 {
        return Err(TransformError::PathTooShallow {
            name: path_name.to_string(),
            depth,
        });
    }
    let (first, second) = m.paths[idx].split_at(depth / 2);
    m.paths[idx] = first;
    m.paths.push(second);
    m.groups.push(CellGroup::new(
        format!("pipe_{path_name}"),
        CellClass::Dff,
        PIPELINE_WIDTH_BITS,
        0.30,
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_netlist::module::{MemoryRole, Module};
    use ggpu_netlist::timing::TimingPath;
    use ggpu_netlist::BankGroupId;
    use ggpu_sta::max_frequency;
    use ggpu_tech::Tech;

    fn test_design() -> (Design, ModuleId) {
        let mut d = Design::new("t");
        let mut m = Module::new("m");
        m.macros.push(MacroInst::new(
            "ram",
            SramConfig::dual(2048, 32),
            MemoryRole::CacheData,
            0.8,
        ));
        m.paths.push(TimingPath::new(
            "read",
            PathEndpoint::Macro("ram".into()),
            PathEndpoint::Register,
            LogicStage::chain(CellClass::Nand2, 4, 2),
        ));
        m.paths.push(TimingPath::new(
            "write",
            PathEndpoint::Register,
            PathEndpoint::Macro("ram".into()),
            LogicStage::chain(CellClass::Mux2, 3, 2),
        ));
        m.paths.push(TimingPath::new(
            "deep_logic",
            PathEndpoint::Register,
            PathEndpoint::Register,
            LogicStage::chain(CellClass::Nand2, 30, 2),
        ));
        let id = d.add_module(m);
        d.set_top(id);
        (d, id)
    }

    #[test]
    fn word_division_improves_fmax() {
        let (mut d, id) = test_design();
        let tech = Tech::l65();
        let before = max_frequency(&d, &tech).unwrap().unwrap();
        let out = divide_macro(&mut d, id, "ram", 2, DivideAxis::Words).unwrap();
        assert_eq!(out.part_names.len(), 2);
        assert_eq!(out.part_config.words, 1024);
        let after = max_frequency(&d, &tech).unwrap().unwrap();
        assert!(after > before, "fmax {before} -> {after}");
        assert!(d.validate().is_ok());
    }

    #[test]
    fn division_rewires_paths_and_adds_muxes() {
        let (mut d, id) = test_design();
        divide_macro(&mut d, id, "ram", 4, DivideAxis::Words).unwrap();
        let m = d.module(id);
        assert_eq!(m.macros.len(), 4);
        assert!(m.find_macro("ram").is_none());
        assert!(m.find_macro("ram_d3").is_some());
        let read = m.paths.iter().find(|p| p.name == "read").unwrap();
        assert!(read.launches_from_macro("ram_d0"));
        // 4-way split: 2 MUX levels in front of 4 original stages.
        assert_eq!(read.depth(), 6);
        let write = m.paths.iter().find(|p| p.name == "write").unwrap();
        assert!(write.captures_into_macro("ram_d0"));
        assert!(m.groups.iter().any(|g| g.name == "ram_steer_mux"));
        // 32 bits x 3 internal mux nodes.
        let mux = m.groups.iter().find(|g| g.name == "ram_steer_mux").unwrap();
        assert_eq!(mux.count, 96);
    }

    #[test]
    fn bit_division_adds_no_muxes() {
        let (mut d, id) = test_design();
        let out = divide_macro(&mut d, id, "ram", 2, DivideAxis::Bits).unwrap();
        assert_eq!(out.part_config.bits, 16);
        assert_eq!(out.part_config.words, 2048);
        let m = d.module(id);
        assert!(m.groups.iter().all(|g| g.name != "ram_steer_mux"));
        let read = m.paths.iter().find(|p| p.name == "read").unwrap();
        assert_eq!(read.depth(), 4, "bit split adds no mux levels");
    }

    #[test]
    fn word_division_preserves_total_access_energy_roughly() {
        let (d, id) = test_design();
        let tech = Tech::l65();
        let before = ggpu_netlist::stats::local_stats(&d, id, &tech)
            .unwrap()
            .energy_per_cycle;
        let (mut d2, id2) = test_design();
        divide_macro(&mut d2, id2, "ram", 2, DivideAxis::Words).unwrap();
        let after = ggpu_netlist::stats::local_stats(&d2, id2, &tech)
            .unwrap()
            .energy_per_cycle;
        // Smaller parts need less energy per access, but the steering
        // logic adds some back; the net change must be modest.
        let ratio = after / before;
        assert!((0.5..=1.2).contains(&ratio), "energy ratio {ratio}");
    }

    #[test]
    fn division_of_missing_macro_fails() {
        let (mut d, id) = test_design();
        let err = divide_macro(&mut d, id, "ghost", 2, DivideAxis::Words).unwrap_err();
        assert!(matches!(err, TransformError::MacroNotFound { .. }));
    }

    #[test]
    fn uneven_division_fails() {
        let (mut d, id) = test_design();
        let err = divide_macro(&mut d, id, "ram", 3, DivideAxis::Words).unwrap_err();
        assert!(matches!(err, TransformError::Sram(_)));
    }

    #[test]
    fn single_port_macros_divide_too() {
        let mut d = Design::new("t");
        let mut m = Module::new("m");
        m.macros.push(MacroInst::new(
            "spram",
            SramConfig::single(1024, 32),
            MemoryRole::ScratchRam,
            0.5,
        ));
        let id = d.add_module(m);
        d.set_top(id);
        let out = divide_macro(&mut d, id, "spram", 2, DivideAxis::Words).unwrap();
        assert_eq!(out.part_config.ports, PortKind::Single);
        assert_eq!(out.part_config.words, 512);
    }

    #[test]
    fn pipeline_insertion_improves_fmax_and_adds_ffs() {
        let (mut d, id) = test_design();
        let tech = Tech::l65();
        // Make the deep logic path critical first.
        divide_macro(&mut d, id, "ram", 4, DivideAxis::Words).unwrap();
        let before = max_frequency(&d, &tech).unwrap().unwrap();
        let ffs_before = ggpu_netlist::stats::local_stats(&d, id, &tech)
            .unwrap()
            .ff_cells;
        insert_pipeline(&mut d, id, "deep_logic").unwrap();
        let after = max_frequency(&d, &tech).unwrap().unwrap();
        let ffs_after = ggpu_netlist::stats::local_stats(&d, id, &tech)
            .unwrap()
            .ff_cells;
        assert!(after > before, "fmax {before} -> {after}");
        assert_eq!(ffs_after - ffs_before, PIPELINE_WIDTH_BITS);
        // The path count grew by one (split into two halves).
        assert_eq!(d.module(id).paths.len(), 4);
    }

    fn fingerprint(d: &Design) -> u64 {
        d.structural_fingerprint()
    }

    #[test]
    fn transform_apply_revert_round_trips_bit_identically() {
        let (mut d, id) = test_design();
        let fp0 = fingerprint(&d);
        let mfp0 = d.module_fingerprint(id);
        let t = DivideMemory {
            module: "m".into(),
            macro_name: "ram".into(),
            factor: 4,
            axis: DivideAxis::Words,
        };
        let undo = t.apply(&mut d).unwrap();
        assert_eq!(undo.dirty_modules(), vec![id]);
        assert_ne!(fingerprint(&d), fp0, "division must change the design");
        t.revert(&mut d, undo);
        assert_eq!(fingerprint(&d), fp0);
        assert_eq!(d.module_fingerprint(id), mfp0);

        let p = PipelineInsert {
            module: "m".into(),
            path: "deep_logic".into(),
        };
        let undo = p.apply(&mut d).unwrap();
        assert_ne!(fingerprint(&d), fp0);
        p.revert(&mut d, undo);
        assert_eq!(fingerprint(&d), fp0);
    }

    #[test]
    fn divide_memory_expands_sibling_banks() {
        let mut d = Design::new("t");
        let mut m = Module::new("m");
        for i in 0..4 {
            m.macros.push(
                MacroInst::new(
                    format!("bank{i}"),
                    SramConfig::dual(1024, 32),
                    MemoryRole::RegisterFile,
                    0.5,
                )
                .with_bank_group(BankGroupId(0)),
            );
        }
        // Same group id but different geometry: not a sibling, must
        // stay untouched.
        m.macros.push(
            MacroInst::new("bankx", SramConfig::dual(2048, 32), MemoryRole::Other, 0.5)
                .with_bank_group(BankGroupId(0)),
        );
        let id = d.add_module(m);
        d.set_top(id);
        let t = DivideMemory {
            module: "m".into(),
            macro_name: "bank0".into(),
            factor: 2,
            axis: DivideAxis::Words,
        };
        t.apply(&mut d).unwrap();
        let m = d.module(id);
        // 4 banks x 2 parts + the untouched odd one out.
        assert_eq!(m.macros.len(), 9);
        for i in 0..4 {
            assert!(m.find_macro(&format!("bank{i}_d0")).is_some());
            assert!(m.find_macro(&format!("bank{i}")).is_none());
        }
        assert!(m.find_macro("bankx").is_some());
        // The parts remain members of the original logical memory.
        assert_eq!(
            m.bank_group_of("bank0_d0"),
            Some(BankGroupId(0)),
            "division parts must inherit the structural group"
        );
    }

    #[test]
    fn user_macro_with_bank_like_name_is_never_misgrouped() {
        // Regression for the retired `bank_base()` stem matching: a
        // user macro named `lsu_b12` has the same stem (`lsu_b`) and
        // geometry as the real sibling banks `lsu_b0`/`lsu_b1`, so the
        // old code divided it along with the structure. Structural
        // group ids make membership explicit: the lone macro is
        // untouched.
        let mut d = Design::new("t");
        let mut m = Module::new("m");
        for i in 0..2 {
            m.macros.push(
                MacroInst::new(
                    format!("lsu_b{i}"),
                    SramConfig::dual(1024, 32),
                    MemoryRole::Fifo,
                    0.5,
                )
                .with_bank_group(BankGroupId(7)),
            );
        }
        m.macros.push(MacroInst::new(
            "lsu_b12",
            SramConfig::dual(1024, 32),
            MemoryRole::Other,
            0.5,
        ));
        let id = d.add_module(m);
        d.set_top(id);
        let t = DivideMemory {
            module: "m".into(),
            macro_name: "lsu_b0".into(),
            factor: 2,
            axis: DivideAxis::Words,
        };
        t.apply(&mut d).unwrap();
        let m = d.module(id);
        assert!(m.find_macro("lsu_b0_d0").is_some());
        assert!(m.find_macro("lsu_b1_d0").is_some());
        assert!(
            m.find_macro("lsu_b12").is_some() && m.find_macro("lsu_b12_d0").is_none(),
            "macro outside the bank group must not be divided"
        );
    }

    #[test]
    fn failed_apply_leaves_design_untouched() {
        let (mut d, id) = test_design();
        let fp0 = fingerprint(&d);
        // Factor 3 fails inside divide_macro (uneven split) after the
        // snapshot is taken: the rollback must restore everything.
        let t = DivideMemory {
            module: "m".into(),
            macro_name: "ram".into(),
            factor: 3,
            axis: DivideAxis::Words,
        };
        assert!(matches!(t.apply(&mut d), Err(TransformError::Sram(_))));
        assert_eq!(fingerprint(&d), fp0);
        assert_eq!(d.module(id).macros.len(), 1);

        let t = PipelineInsert {
            module: "m".into(),
            path: "ghost".into(),
        };
        assert!(matches!(
            t.apply(&mut d),
            Err(TransformError::PathNotFound { .. })
        ));
        assert_eq!(fingerprint(&d), fp0);
    }

    #[test]
    fn unknown_module_is_reported() {
        let (mut d, _) = test_design();
        let t = PipelineInsert {
            module: "ghost".into(),
            path: "p".into(),
        };
        assert!(matches!(
            t.dirty_modules(&d),
            Err(TransformError::ModuleNotFound { .. })
        ));
        assert!(matches!(
            t.apply(&mut d),
            Err(TransformError::ModuleNotFound { .. })
        ));
    }

    #[test]
    fn transform_display_names_the_edit() {
        let t = DivideMemory {
            module: "pe".into(),
            macro_name: "rf".into(),
            factor: 2,
            axis: DivideAxis::Words,
        };
        assert_eq!(t.to_string(), "divide pe/rf x2 (words)");
        let p = PipelineInsert {
            module: "pe".into(),
            path: "sched".into(),
        };
        assert_eq!(p.to_string(), "pipeline pe/sched");
    }

    #[test]
    fn pipeline_of_missing_path_fails() {
        let (mut d, id) = test_design();
        assert!(matches!(
            insert_pipeline(&mut d, id, "ghost"),
            Err(TransformError::PathNotFound { .. })
        ));
    }

    #[test]
    fn pipeline_of_shallow_path_fails() {
        let mut d = Design::new("t");
        let mut m = Module::new("m");
        m.paths.push(TimingPath::new(
            "stub",
            PathEndpoint::Register,
            PathEndpoint::Register,
            LogicStage::chain(CellClass::Nand2, 1, 1),
        ));
        let id = d.add_module(m);
        d.set_top(id);
        assert!(matches!(
            insert_pipeline(&mut d, id, "stub"),
            Err(TransformError::PathTooShallow { depth: 1, .. })
        ));
    }
}
