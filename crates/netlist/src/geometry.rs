//! Structural bank groups.
//!
//! The macros implementing the banks of one *logical* memory carry the
//! same structural [`BankGroupId`]. Memory division finds a macro's
//! siblings through it ([`Module::sibling_macro_names`]) and its parts
//! inherit it, so fault maps and later transforms keep treating a
//! divided structure as one memory.
//!
//! Group ids are assigned by the RTL generator (and propagated by the
//! synthesis transforms), so membership is a structural fact of the
//! netlist — a user macro whose *name* happens to look like a sibling
//! bank (`"lsu_b12"` next to `"lsu_b0"`/`"lsu_b1"`) can never be
//! misgrouped the way name-stem matching allowed.

use crate::module::{MacroInst, Module};
use std::fmt;

/// Structural identity of one logical memory's bank group, unique
/// within its module. Two macros belong to the same logical memory iff
/// they carry the same id — this replaces name-stem matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BankGroupId(pub u32);

impl fmt::Display for BankGroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl Module {
    /// The bank group of the named macro, if it carries one.
    pub fn bank_group_of(&self, macro_name: &str) -> Option<BankGroupId> {
        self.find_macro(macro_name).and_then(|m| m.bank_group)
    }

    /// The structural siblings of `target`: the members of its bank
    /// group that share its exact SRAM configuration, or the macro
    /// alone when it carries no group id. This is the sibling set the
    /// memory transforms operate on — membership comes from the
    /// structural id, never from the instance name.
    pub fn sibling_macro_names(&self, target: &MacroInst) -> Vec<String> {
        match target.bank_group {
            Some(group) => self
                .macros
                .iter()
                .filter(|m| m.bank_group == Some(group) && m.config == target.config)
                .map(|m| m.name.clone())
                .collect(),
            None => vec![target.name.clone()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::MemoryRole;
    use ggpu_tech::sram::SramConfig;

    fn bank(name: &str, group: Option<u32>) -> MacroInst {
        let m = MacroInst::new(
            name,
            SramConfig::single(64, 32),
            MemoryRole::ScratchRam,
            0.5,
        );
        match group {
            Some(g) => m.with_bank_group(BankGroupId(g)),
            None => m,
        }
    }

    #[test]
    fn siblings_come_from_structure_not_names() {
        let mut m = Module::new("cu");
        m.macros.push(bank("lsu_b0", Some(3)));
        m.macros.push(bank("lsu_b1", Some(3)));
        // Same config, sibling-looking name, but no group id: a
        // different logical memory.
        m.macros.push(bank("lsu_b12", None));
        let target = m.find_macro("lsu_b0").unwrap().clone();
        assert_eq!(m.sibling_macro_names(&target), vec!["lsu_b0", "lsu_b1"]);
        let lone = m.find_macro("lsu_b12").unwrap().clone();
        assert_eq!(m.sibling_macro_names(&lone), vec!["lsu_b12"]);
    }

    #[test]
    fn config_mismatch_excludes_a_member_from_siblings() {
        let mut m = Module::new("cu");
        m.macros.push(bank("a0", Some(0)));
        m.macros.push(bank("a1", Some(0)));
        let odd = MacroInst::new("a2", SramConfig::dual(64, 32), MemoryRole::ScratchRam, 0.5)
            .with_bank_group(BankGroupId(0));
        m.macros.push(odd);
        let target = m.find_macro("a0").unwrap().clone();
        assert_eq!(m.sibling_macro_names(&target), vec!["a0", "a1"]);
    }
}
