//! The design arena: a DAG of modules with a designated top.

use crate::ids::ModuleId;
use crate::module::{MacroInst, Module};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A complete design: an arena of modules forming a DAG under
/// instantiation, with one top module.
///
/// Modules are stored behind [`Arc`] with **copy-on-write** semantics:
/// [`Design::clone`] is O(module count) pointer bumps, and a cloned
/// design shares every module (and its cached fingerprint) with its
/// origin until [`Design::module_mut`] breaks the sharing for exactly
/// the module being mutated. This is what makes design-space
/// exploration variants cheap: a variant that touched one module deep
/// copies one module.
///
/// ```
/// use ggpu_netlist::design::Design;
/// use ggpu_netlist::module::Module;
///
/// let mut design = Design::new("demo");
/// let leaf = design.add_module(Module::new("leaf"));
/// let mut top = Module::new("top");
/// top.children.push(ggpu_netlist::module::Instance {
///     name: "u0".into(),
///     module: leaf,
/// });
/// let top = design.add_module(top);
/// design.set_top(top);
/// assert!(design.validate().is_ok());
/// ```
#[derive(Clone)]
pub struct Design {
    name: String,
    modules: Vec<Arc<Module>>,
    top: Option<ModuleId>,
    /// Lazily computed structural fingerprint per module, parallel to
    /// `modules`. A slot is filled on first demand
    /// ([`Design::module_fingerprint`]) and invalidated whenever the
    /// module is borrowed mutably ([`Design::module_mut`]). Cloning a
    /// design clones the filled slots — a fingerprint is a pure
    /// function of module content, which cloning preserves — so a DSE
    /// variant derived by clone-then-mutate re-hashes only the modules
    /// it actually touched. Excluded from `PartialEq`/`Debug`/`Hash`:
    /// it is a cache, not part of the design's identity.
    fp_cache: Vec<OnceLock<u64>>,
}

/// Equality is structural: name, modules and top. The fingerprint
/// cache never participates — two designs with identical contents are
/// equal regardless of which fingerprints happen to be computed.
impl PartialEq for Design {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.modules == other.modules && self.top == other.top
    }
}

impl fmt::Debug for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `Arc<Module>` renders exactly like `Module`; the Table-I
        // goldens pin a digest of this output.
        f.debug_struct("Design")
            .field("name", &self.name)
            .field("modules", &self.modules)
            .field("top", &self.top)
            .finish()
    }
}

/// Structural hash consistent with `PartialEq` (name, modules, top);
/// module contents are folded in via their cached fingerprints, so
/// hashing a warm design is O(module count), not O(design size).
impl Hash for Design {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        state.write_usize(self.modules.len());
        for id in self.module_ids() {
            state.write_u64(self.module_fingerprint(id));
        }
        self.top.hash(state);
    }
}

/// Structural problems detected by [`Design::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateDesignError {
    /// No top module was set.
    MissingTop,
    /// A child instance refers to a module id not in the arena.
    DanglingChild {
        /// The parent module's name.
        parent: String,
        /// The offending instance name.
        instance: String,
    },
    /// The instantiation graph contains a cycle through this module.
    InstantiationCycle(String),
    /// Two modules share a name.
    DuplicateModuleName(String),
    /// Two children of one module share an instance name.
    DuplicateInstanceName {
        /// The parent module's name.
        parent: String,
        /// The duplicated instance name.
        instance: String,
    },
    /// Two macros of one module share an instance name.
    DuplicateMacroName {
        /// The owning module's name.
        module: String,
        /// The duplicated macro name.
        name: String,
    },
}

impl fmt::Display for ValidateDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateDesignError::MissingTop => f.write_str("design has no top module"),
            ValidateDesignError::DanglingChild { parent, instance } => {
                write!(
                    f,
                    "instance {instance} in {parent} refers to a missing module"
                )
            }
            ValidateDesignError::InstantiationCycle(m) => {
                write!(f, "instantiation cycle through module {m}")
            }
            ValidateDesignError::DuplicateModuleName(m) => {
                write!(f, "duplicate module name {m}")
            }
            ValidateDesignError::DuplicateInstanceName { parent, instance } => {
                write!(f, "duplicate instance name {instance} in {parent}")
            }
            ValidateDesignError::DuplicateMacroName { module, name } => {
                write!(f, "duplicate macro name {name} in {module}")
            }
        }
    }
}

impl Error for ValidateDesignError {}

/// The saved state of one module slot: the module's shared content
/// plus its fingerprint-cache slot, captured by
/// [`Design::snapshot_module`]. Restoring a snapshot
/// ([`Design::restore_module`]) is O(1) — it reinstates the original
/// `Arc` (and the fingerprint that was cached for it), so a
/// snapshot/mutate/restore round-trip is *bit-identical*, shared
/// pointers and all. This is the primitive the planner's transform
/// journal builds its apply and revert on.
#[derive(Debug, Clone)]
pub struct ModuleSnapshot {
    id: ModuleId,
    module: Arc<Module>,
    fp: OnceLock<u64>,
}

impl Design {
    /// Creates an empty design.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            modules: Vec::new(),
            top: None,
            fp_cache: Vec::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design (used when the DSE derives variants).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds a module to the arena and returns its id.
    pub fn add_module(&mut self, module: Module) -> ModuleId {
        let id = ModuleId::from_index(self.modules.len());
        self.modules.push(Arc::new(module));
        self.fp_cache.push(OnceLock::new());
        id
    }

    /// Designates the top module.
    pub fn set_top(&mut self, id: ModuleId) {
        assert!(id.index() < self.modules.len(), "top id out of range");
        self.top = Some(id);
    }

    /// The top module id.
    ///
    /// # Panics
    ///
    /// Panics if no top was set; call [`Design::validate`] first when
    /// handling untrusted designs.
    pub fn top(&self) -> ModuleId {
        self.top.expect("design has no top module")
    }

    /// Borrows a module.
    pub fn module(&self, id: ModuleId) -> &Module {
        &self.modules[id.index()]
    }

    /// Mutably borrows a module.
    ///
    /// Copy-on-write: if the module is shared with another design (or
    /// snapshot), its content is deep copied first — exactly one
    /// module, never the whole design. Conservatively invalidates the
    /// module's cached fingerprint: any mutable access is assumed to
    /// change content (re-hashing an unchanged module is cheap;
    /// serving a stale fingerprint would poison every downstream
    /// content-addressed cache).
    pub fn module_mut(&mut self, id: ModuleId) -> &mut Module {
        self.fp_cache[id.index()] = OnceLock::new();
        Arc::make_mut(&mut self.modules[id.index()])
    }

    /// Number of module slots whose content is *shared* (same `Arc`)
    /// with `other`, compared slot-by-slot. Diagnostic for
    /// copy-on-write effectiveness: a fresh clone shares everything; a
    /// clone that mutated one module shares `module_count() - 1`.
    pub fn shared_modules_with(&self, other: &Design) -> usize {
        self.modules
            .iter()
            .zip(&other.modules)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Captures the current state of one module slot (content +
    /// cached fingerprint) as an O(1) [`ModuleSnapshot`]. Restoring it
    /// with [`Design::restore_module`] reinstates this exact state
    /// bit-for-bit.
    pub fn snapshot_module(&self, id: ModuleId) -> ModuleSnapshot {
        ModuleSnapshot {
            id,
            module: Arc::clone(&self.modules[id.index()]),
            fp: self.fp_cache[id.index()].clone(),
        }
    }

    /// Restores a module slot from a snapshot taken on this design (or
    /// a design sharing the same arena layout, e.g. a clone). O(1):
    /// the original `Arc` and fingerprint slot are put back, so
    /// sharing relationships and cached fingerprints round-trip
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's id is out of range for this arena.
    pub fn restore_module(&mut self, snapshot: ModuleSnapshot) {
        let idx = snapshot.id.index();
        self.modules[idx] = snapshot.module;
        self.fp_cache[idx] = snapshot.fp;
    }

    /// The structural fingerprint of one module: a 64-bit hash of its
    /// full contents (name, cell groups, macros, children, timing
    /// paths — floats by bit pattern). Computed lazily and cached;
    /// repeated calls on an unmutated module are a single atomic load.
    ///
    /// Deterministic across processes and designs: two modules with
    /// bit-identical contents fingerprint equal wherever they live,
    /// and a copy-on-write variant shares the warm slots of every
    /// module it did not edit, so fingerprinting a transformed design
    /// rehashes only the modules the transform touched.
    pub fn module_fingerprint(&self, id: ModuleId) -> u64 {
        *self.fp_cache[id.index()].get_or_init(|| {
            let mut h = DefaultHasher::new();
            self.modules[id.index()].hash(&mut h);
            h.finish()
        })
    }

    /// The structural fingerprint of the whole design: module count,
    /// every per-module fingerprint in arena order, and the top id.
    ///
    /// The design *name* is deliberately excluded — timing, synthesis
    /// and power are pure functions of structure, and the flow renames
    /// designs (`ggpu_1cu_590mhz`, …) after optimization; including
    /// the name would only split cache entries that must agree.
    ///
    /// Replaces the old `Debug`-string hashing, which formatted the
    /// entire design (O(design size)) on every cache probe; on a warm
    /// fingerprint cache this is O(module count).
    pub fn structural_fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        h.write_usize(self.modules.len());
        for id in self.module_ids() {
            h.write_u64(self.module_fingerprint(id));
        }
        match self.top {
            Some(t) => h.write_u64(t.index() as u64 + 1),
            None => h.write_u64(0),
        }
        h.finish()
    }

    /// Finds a module by type name.
    pub fn module_by_name(&self, name: &str) -> Option<ModuleId> {
        self.modules
            .iter()
            .position(|m| m.name == name)
            .map(ModuleId::from_index)
    }

    /// All module ids in arena order.
    pub fn module_ids(&self) -> impl Iterator<Item = ModuleId> {
        (0..self.modules.len()).map(ModuleId::from_index)
    }

    /// Number of modules in the arena.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Checks structural invariants: a top exists, all children
    /// resolve, names are unique, and instantiation is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    pub fn validate(&self) -> Result<(), ValidateDesignError> {
        if self.top.is_none() {
            return Err(ValidateDesignError::MissingTop);
        }
        let mut seen_names: HashMap<&str, ()> = HashMap::new();
        for module in &self.modules {
            if seen_names.insert(&module.name, ()).is_some() {
                return Err(ValidateDesignError::DuplicateModuleName(
                    module.name.clone(),
                ));
            }
            let mut inst_names: HashMap<&str, ()> = HashMap::new();
            for child in &module.children {
                if child.module.index() >= self.modules.len() {
                    return Err(ValidateDesignError::DanglingChild {
                        parent: module.name.clone(),
                        instance: child.name.clone(),
                    });
                }
                if inst_names.insert(&child.name, ()).is_some() {
                    return Err(ValidateDesignError::DuplicateInstanceName {
                        parent: module.name.clone(),
                        instance: child.name.clone(),
                    });
                }
            }
            let mut macro_names: HashMap<&str, ()> = HashMap::new();
            for m in &module.macros {
                if macro_names.insert(&m.name, ()).is_some() {
                    return Err(ValidateDesignError::DuplicateMacroName {
                        module: module.name.clone(),
                        name: m.name.clone(),
                    });
                }
            }
        }
        // Cycle check: iterative DFS with colouring and an explicit
        // frame stack (`(module, next child)`), so arbitrarily deep
        // hierarchies cannot overflow the call stack. The traversal
        // order matches the recursive formulation exactly: descend
        // fully into a child before considering its next sibling.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour = vec![Colour::White; self.modules.len()];
        let mut stack: Vec<(ModuleId, usize)> = Vec::new();
        for root in self.module_ids() {
            if colour[root.index()] != Colour::White {
                continue;
            }
            colour[root.index()] = Colour::Grey;
            stack.push((root, 0));
            while let Some(&(id, next_child)) = stack.last() {
                let children = &self.module(id).children;
                if next_child < children.len() {
                    stack.last_mut().expect("frame exists").1 += 1;
                    let child = children[next_child].module;
                    match colour[child.index()] {
                        Colour::Black => {}
                        Colour::Grey => {
                            return Err(ValidateDesignError::InstantiationCycle(
                                self.module(child).name.clone(),
                            ));
                        }
                        Colour::White => {
                            colour[child.index()] = Colour::Grey;
                            stack.push((child, 0));
                        }
                    }
                } else {
                    colour[id.index()] = Colour::Black;
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    /// Visits every instance in the hierarchy under the top module,
    /// depth-first, yielding `(hierarchical_path, module_id)` pairs.
    /// The top module itself is visited with an empty path.
    ///
    /// Iterative (explicit frame stack), so designs with extremely
    /// deep hierarchies — e.g. `allow_extended_cus` configurations —
    /// cannot overflow the call stack.
    pub fn visit_instances<F: FnMut(&str, ModuleId)>(&self, mut f: F) {
        // Frame: (module, next child to descend into, path length up
        // to and including this module's own instance name).
        let mut path = String::new();
        let top = self.top();
        f(&path, top);
        let mut stack: Vec<(ModuleId, usize, usize)> = vec![(top, 0, 0)];
        while let Some(&(id, next_child, path_len)) = stack.last() {
            let children = &self.module(id).children;
            if next_child < children.len() {
                stack.last_mut().expect("frame exists").1 += 1;
                let child = &children[next_child];
                path.truncate(path_len);
                if !path.is_empty() {
                    path.push('/');
                }
                path.push_str(&child.name);
                f(&path, child.module);
                stack.push((child.module, 0, path.len()));
            } else {
                stack.pop();
            }
        }
    }

    /// Iterates every macro instance under the top module with its
    /// full hierarchical path (`"cu0/pe3/rf_bank2"`), pre-order:
    /// a module's own macros before its children's.
    ///
    /// Lazy and allocation-light: the macro itself is *borrowed* (the
    /// seed's `all_macros` cloned every `MacroInst` into a fresh `Vec`
    /// on each call — an allocation storm when probed per DSE
    /// candidate); only the hierarchical path `String` is built per
    /// item. The traversal uses an explicit stack, so hierarchy depth
    /// is bounded by memory, not the call stack.
    pub fn all_macros(&self) -> MacroIter<'_> {
        let top = self.top();
        MacroIter {
            design: self,
            path: String::new(),
            stack: vec![MacroFrame {
                id: top,
                next_macro: 0,
                next_child: 0,
                path_len: 0,
            }],
        }
    }

    /// Counts how many times each module is instantiated under the top
    /// (the top itself counts once). Modules unreachable from the top
    /// have multiplicity zero.
    ///
    /// Iterative (explicit work stack): hierarchy depth cannot
    /// overflow the call stack.
    pub fn multiplicities(&self) -> Vec<u64> {
        let mut mult = vec![0u64; self.modules.len()];
        let mut stack = vec![self.top()];
        while let Some(id) = stack.pop() {
            mult[id.index()] += 1;
            for child in &self.module(id).children {
                stack.push(child.module);
            }
        }
        mult
    }
}

/// One frame of [`MacroIter`]'s explicit traversal stack.
#[derive(Clone, Copy)]
struct MacroFrame {
    id: ModuleId,
    next_macro: usize,
    next_child: usize,
    path_len: usize,
}

/// Iterator over every macro instantiation under a design's top, with
/// hierarchical paths. Produced by [`Design::all_macros`].
pub struct MacroIter<'a> {
    design: &'a Design,
    path: String,
    stack: Vec<MacroFrame>,
}

impl<'a> Iterator for MacroIter<'a> {
    type Item = (String, &'a MacroInst);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(&MacroFrame {
            id,
            next_macro,
            next_child,
            path_len,
        }) = self.stack.last()
        {
            let module = self.design.module(id);
            if next_macro < module.macros.len() {
                self.stack.last_mut().expect("frame exists").next_macro += 1;
                let mac = &module.macros[next_macro];
                self.path.truncate(path_len);
                let full = if self.path.is_empty() {
                    mac.name.clone()
                } else {
                    format!("{}/{}", self.path, mac.name)
                };
                return Some((full, mac));
            }
            if next_child < module.children.len() {
                self.stack.last_mut().expect("frame exists").next_child += 1;
                let child = &module.children[next_child];
                self.path.truncate(path_len);
                if !self.path.is_empty() {
                    self.path.push('/');
                }
                self.path.push_str(&child.name);
                self.stack.push(MacroFrame {
                    id: child.module,
                    next_macro: 0,
                    next_child: 0,
                    path_len: self.path.len(),
                });
            } else {
                self.stack.pop();
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Instance;

    fn two_level() -> Design {
        let mut d = Design::new("t");
        let leaf = d.add_module(Module::new("leaf"));
        let mut mid = Module::new("mid");
        mid.children.push(Instance {
            name: "l0".into(),
            module: leaf,
        });
        mid.children.push(Instance {
            name: "l1".into(),
            module: leaf,
        });
        let mid = d.add_module(mid);
        let mut top = Module::new("top");
        for i in 0..3 {
            top.children.push(Instance {
                name: format!("m{i}"),
                module: mid,
            });
        }
        let top = d.add_module(top);
        d.set_top(top);
        d
    }

    #[test]
    fn validate_accepts_dag() {
        assert!(two_level().validate().is_ok());
    }

    #[test]
    fn validate_rejects_missing_top() {
        let d = Design::new("x");
        assert_eq!(d.validate(), Err(ValidateDesignError::MissingTop));
    }

    #[test]
    fn validate_rejects_cycle() {
        let mut d = Design::new("x");
        let a = d.add_module(Module::new("a"));
        let b = d.add_module(Module::new("b"));
        d.module_mut(a).children.push(Instance {
            name: "u".into(),
            module: b,
        });
        d.module_mut(b).children.push(Instance {
            name: "v".into(),
            module: a,
        });
        d.set_top(a);
        assert!(matches!(
            d.validate(),
            Err(ValidateDesignError::InstantiationCycle(_))
        ));
    }

    #[test]
    fn validate_rejects_self_cycle() {
        let mut d = Design::new("x");
        let a = d.add_module(Module::new("a"));
        d.module_mut(a).children.push(Instance {
            name: "u".into(),
            module: a,
        });
        d.set_top(a);
        assert_eq!(
            d.validate(),
            Err(ValidateDesignError::InstantiationCycle("a".into()))
        );
    }

    #[test]
    fn validate_rejects_duplicate_module_names() {
        let mut d = Design::new("x");
        let a = d.add_module(Module::new("a"));
        d.add_module(Module::new("a"));
        d.set_top(a);
        assert_eq!(
            d.validate(),
            Err(ValidateDesignError::DuplicateModuleName("a".into()))
        );
    }

    #[test]
    fn validate_rejects_duplicate_instance_names() {
        let mut d = Design::new("x");
        let leaf = d.add_module(Module::new("leaf"));
        let mut top = Module::new("top");
        for _ in 0..2 {
            top.children.push(Instance {
                name: "u0".into(),
                module: leaf,
            });
        }
        let top = d.add_module(top);
        d.set_top(top);
        assert!(matches!(
            d.validate(),
            Err(ValidateDesignError::DuplicateInstanceName { .. })
        ));
    }

    #[test]
    fn multiplicities_multiply_through_hierarchy() {
        let d = two_level();
        let mult = d.multiplicities();
        let leaf = d.module_by_name("leaf").unwrap();
        let mid = d.module_by_name("mid").unwrap();
        let top = d.module_by_name("top").unwrap();
        assert_eq!(mult[top.index()], 1);
        assert_eq!(mult[mid.index()], 3);
        assert_eq!(mult[leaf.index()], 6);
    }

    #[test]
    fn visit_builds_hierarchical_paths() {
        let d = two_level();
        let mut paths = Vec::new();
        d.visit_instances(|p, _| paths.push(p.to_string()));
        assert!(paths.contains(&"".to_string()));
        assert!(paths.contains(&"m1/l0".to_string()));
        assert_eq!(paths.len(), 1 + 3 + 6);
        // Pre-order: a parent instance is visited before its children.
        let pos = |s: &str| paths.iter().position(|p| p == s).unwrap();
        assert!(pos("m1") < pos("m1/l0"));
        assert!(pos("m1/l0") < pos("m1/l1"));
        assert!(pos("m0") < pos("m1"));
    }

    /// A linear chain deep enough that recursive walks would overflow
    /// the call stack. All hierarchy traversals must be iterative.
    fn deep_chain(levels: usize) -> Design {
        use crate::module::{MacroInst, MemoryRole};
        use ggpu_tech::sram::SramConfig;
        let mut d = Design::new("deep");
        let mut leaf = Module::new("m0");
        leaf.macros.push(MacroInst::new(
            "ram",
            SramConfig::dual(64, 8),
            MemoryRole::Other,
            0.5,
        ));
        let mut prev = d.add_module(leaf);
        for i in 1..levels {
            let mut m = Module::new(format!("m{i}"));
            m.children.push(Instance {
                name: "c".into(),
                module: prev,
            });
            prev = d.add_module(m);
        }
        d.set_top(prev);
        d
    }

    #[test]
    fn deep_hierarchy_walks_do_not_overflow_the_stack() {
        // >= 10k levels per the extended-CU requirement; 50k to leave
        // no doubt a recursive walk (~100+ bytes/frame) would have
        // blown the 2 MiB test-thread stack.
        const LEVELS: usize = 50_000;
        let d = deep_chain(LEVELS);
        assert!(d.validate().is_ok());
        let mult = d.multiplicities();
        assert!(mult.iter().all(|&m| m == 1));
        let mut visited = 0usize;
        let mut deepest = 0usize;
        d.visit_instances(|p, _| {
            visited += 1;
            deepest = deepest.max(p.len());
        });
        assert_eq!(visited, LEVELS);
        // The deepest path is LEVELS-1 segments of "c" + separators.
        assert_eq!(deepest, 2 * (LEVELS - 1) - 1);
        let macros: Vec<_> = d.all_macros().collect();
        assert_eq!(macros.len(), 1);
        assert!(macros[0].0.ends_with("/ram"));
    }

    #[test]
    fn all_macros_reports_full_paths() {
        use crate::module::{MacroInst, MemoryRole};
        use ggpu_tech::sram::SramConfig;
        let mut d = two_level();
        let leaf = d.module_by_name("leaf").unwrap();
        d.module_mut(leaf).macros.push(MacroInst::new(
            "ram",
            SramConfig::dual(64, 8),
            MemoryRole::Other,
            0.5,
        ));
        let macros: Vec<(String, &MacroInst)> = d.all_macros().collect();
        assert_eq!(macros.len(), 6);
        assert!(macros.iter().any(|(p, _)| p == "m2/l1/ram"));
        // Order matches visit_instances (pre-order by instance).
        assert_eq!(macros[0].0, "m0/l0/ram");
        // The iterator borrows: no MacroInst is cloned.
        assert!(std::ptr::eq(
            macros[0].1,
            d.module(leaf).find_macro("ram").unwrap()
        ));
    }

    #[test]
    fn all_macros_order_interleaves_own_macros_before_children() {
        use crate::module::{MacroInst, MemoryRole};
        use ggpu_tech::sram::SramConfig;
        let mut d = Design::new("t");
        let leaf = d.add_module(Module::new("leaf").with_macro(MacroInst::new(
            "l_ram",
            SramConfig::dual(64, 8),
            MemoryRole::Other,
            0.5,
        )));
        let mut top = Module::new("top").with_macro(MacroInst::new(
            "t_ram",
            SramConfig::dual(64, 8),
            MemoryRole::Other,
            0.5,
        ));
        top.children.push(Instance {
            name: "u0".into(),
            module: leaf,
        });
        let top = d.add_module(top);
        d.set_top(top);
        let names: Vec<String> = d.all_macros().map(|(p, _)| p).collect();
        assert_eq!(names, vec!["t_ram".to_string(), "u0/l_ram".to_string()]);
    }

    #[test]
    fn fingerprints_are_cached_and_invalidated_on_mutation() {
        let mut d = two_level();
        let leaf = d.module_by_name("leaf").unwrap();
        let fp1 = d.module_fingerprint(leaf);
        assert_eq!(fp1, d.module_fingerprint(leaf), "stable while unmutated");
        let whole1 = d.structural_fingerprint();
        assert_eq!(whole1, d.structural_fingerprint());

        // Mutating one module changes its fingerprint and the design's.
        d.module_mut(leaf).name = "leaf2".into();
        assert_ne!(d.module_fingerprint(leaf), fp1);
        assert_ne!(d.structural_fingerprint(), whole1);

        // An untouched sibling keeps its fingerprint.
        let mid = d.module_by_name("mid").unwrap();
        let mid_fp = d.module_fingerprint(mid);
        d.module_mut(leaf).name = "leaf".into();
        assert_eq!(d.module_fingerprint(mid), mid_fp);
        assert_eq!(d.module_fingerprint(leaf), fp1, "content round-trip");
        assert_eq!(d.structural_fingerprint(), whole1);
    }

    #[test]
    fn clone_preserves_fingerprints_and_equality_ignores_cache() {
        let d = two_level();
        let fp = d.structural_fingerprint(); // warm the cache
        let cold = two_level(); // nothing computed
        assert_eq!(d, cold, "cache state must not affect equality");
        let cloned = d.clone();
        assert_eq!(cloned.structural_fingerprint(), fp);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let d = two_level();
        let mut variant = d.clone();
        // A fresh clone shares every module with its origin.
        assert_eq!(variant.shared_modules_with(&d), d.module_count());
        // Mutating one module breaks sharing for exactly that module.
        let leaf = variant.module_by_name("leaf").unwrap();
        variant.module_mut(leaf).name = "leaf_x".into();
        assert_eq!(variant.shared_modules_with(&d), d.module_count() - 1);
        // The origin is untouched.
        assert!(d.module_by_name("leaf").is_some());
        assert!(d.module_by_name("leaf_x").is_none());
    }

    #[test]
    fn unshared_module_mut_does_not_count_a_copy() {
        let mut d = two_level();
        let leaf = d.module_by_name("leaf").unwrap();
        // Warm: touch once so any lazy state settles.
        d.module_mut(leaf).name = "leaf".into();
        // A design that shares nothing pays no copy for mutation:
        // sharing with an observer breaks once, for that module only.
        let observer = d.clone();
        d.module_mut(leaf).name = "leaf_b".into();
        assert_eq!(d.shared_modules_with(&observer), d.module_count() - 1);
        d.module_mut(leaf).name = "leaf_c".into();
        // Second mutation of the now-unshared module keeps sharing.
        assert_eq!(d.shared_modules_with(&observer), d.module_count() - 1);
    }

    #[test]
    fn snapshot_restore_round_trips_bit_identically() {
        let mut d = two_level();
        let leaf = d.module_by_name("leaf").unwrap();
        let fp_before = d.structural_fingerprint(); // warm every slot
        let leaf_fp = d.module_fingerprint(leaf);
        let snap = d.snapshot_module(leaf);

        d.module_mut(leaf).name = "mutant".into();
        d.module_mut(leaf)
            .groups
            .push(crate::module::CellGroup::new(
                "junk",
                ggpu_tech::stdcell::CellClass::Inv,
                7,
                0.1,
            ));
        assert_ne!(d.structural_fingerprint(), fp_before);

        d.restore_module(snap);
        assert_eq!(d.structural_fingerprint(), fp_before);
        // The restored fingerprint slot is still *warm* (it was
        // captured filled), so no re-hash is needed.
        assert_eq!(d.module_fingerprint(leaf), leaf_fp);
        assert_eq!(d, two_level());
    }

    #[test]
    fn structural_fingerprint_ignores_design_name() {
        let mut a = two_level();
        let b = two_level();
        a.set_name("renamed_variant");
        assert_ne!(a, b, "names differ so designs differ");
        assert_eq!(
            a.structural_fingerprint(),
            b.structural_fingerprint(),
            "structure is identical"
        );
    }

    #[test]
    fn identical_module_content_fingerprints_equal_across_designs() {
        let a = two_level();
        let b = two_level();
        let la = a.module_by_name("leaf").unwrap();
        let lb = b.module_by_name("leaf").unwrap();
        assert_eq!(a.module_fingerprint(la), b.module_fingerprint(lb));
    }

    #[test]
    fn module_lookup() {
        let d = two_level();
        assert!(d.module_by_name("mid").is_some());
        assert!(d.module_by_name("nope").is_none());
        assert_eq!(d.module_count(), 3);
    }
}
