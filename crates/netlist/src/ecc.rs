//! Error-protection policy for a design's SRAM macros.
//!
//! The netlist records *what* memories exist
//! ([`MacroInst`](crate::MacroInst)); an [`EccPolicy`] records *how*
//! each architectural role is protected against soft errors. The two
//! are kept separate on purpose: the macro's structural hash
//! participates in the STA memo's fingerprints, so protection must not
//! perturb netlist identity.
//!
//! The policy is consumed by `ggpu-fault`'s injection engine, which
//! reads the ECC model guarding each injection site.

use crate::module::MemoryRole;
use ggpu_tech::sram::EccScheme;
use std::collections::BTreeMap;
use std::fmt;

/// Maps every [`MemoryRole`] to the [`EccScheme`] protecting macros of
/// that role. Roles without an explicit entry fall back to `default`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EccPolicy {
    /// Scheme applied to roles with no explicit override.
    pub default: EccScheme,
    /// Per-role overrides (deterministically ordered for stable
    /// reports).
    pub per_role: BTreeMap<String, EccScheme>,
}

impl EccPolicy {
    /// Policy protecting every role with the same `scheme`.
    pub fn uniform(scheme: EccScheme) -> Self {
        Self {
            default: scheme,
            per_role: BTreeMap::new(),
        }
    }

    /// Policy with no protection anywhere (every site injectable and
    /// silent) — also [`EccPolicy::default`].
    pub fn unprotected() -> Self {
        Self::uniform(EccScheme::None)
    }

    /// Overrides the scheme for one role (builder-style).
    pub fn with_role(mut self, role: MemoryRole, scheme: EccScheme) -> Self {
        self.per_role.insert(role.to_string(), scheme);
        self
    }

    /// The scheme protecting macros of `role`.
    pub fn scheme_for(&self, role: MemoryRole) -> EccScheme {
        self.per_role
            .get(&role.to_string())
            .copied()
            .unwrap_or(self.default)
    }
}

impl fmt::Display for EccPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "default={}", self.default)?;
        for (role, scheme) in &self.per_role {
            write!(f, ",{role}={scheme}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_policy_covers_all_roles() {
        let p = EccPolicy::uniform(EccScheme::SecDed);
        assert_eq!(p.scheme_for(MemoryRole::RegisterFile), EccScheme::SecDed);
        assert_eq!(p.scheme_for(MemoryRole::Other), EccScheme::SecDed);
    }

    #[test]
    fn per_role_override_wins() {
        let p = EccPolicy::uniform(EccScheme::Parity)
            .with_role(MemoryRole::RegisterFile, EccScheme::SecDed)
            .with_role(MemoryRole::CacheTag, EccScheme::None);
        assert_eq!(p.scheme_for(MemoryRole::RegisterFile), EccScheme::SecDed);
        assert_eq!(p.scheme_for(MemoryRole::CacheTag), EccScheme::None);
        assert_eq!(p.scheme_for(MemoryRole::ScratchRam), EccScheme::Parity);
    }

    #[test]
    fn display_is_deterministic() {
        let p = EccPolicy::uniform(EccScheme::Parity)
            .with_role(MemoryRole::ScratchRam, EccScheme::SecDed)
            .with_role(MemoryRole::CacheData, EccScheme::None);
        assert_eq!(
            p.to_string(),
            "default=parity,cache-data=none,scratch-ram=secded"
        );
    }
}
