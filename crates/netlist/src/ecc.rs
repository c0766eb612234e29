//! Error-protection policy for a design's SRAM macros.
//!
//! The netlist records *what* memories exist
//! ([`MacroInst`](crate::MacroInst)); an [`EccPolicy`] records *how*
//! each architectural role is protected against soft errors. The two
//! are kept separate on purpose: the macro's structural hash
//! participates in the STA memo's fingerprints, so protection (a
//! planner-level concern that only widens words at compile time) must
//! not perturb netlist identity.
//!
//! The policy is consumed by
//!
//! * `ggpu-lint`'s N008 coverage check (macros left at
//!   [`EccScheme::None`] under a resilience target),
//! * `ggpu-fault`'s injection engine (which ECC model guards each
//!   injection site), and
//! * `gpuplanner`'s datasheet / frequency-map resilience columns.

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

    /// `true` if no role resolves to a protecting scheme — i.e. the
    /// whole design is exposed.
    pub fn is_unprotected(&self) -> bool {
        self.default == EccScheme::None && self.per_role.values().all(|s| *s == EccScheme::None)
    }

    /// Parses the [`fmt::Display`] form back into a policy.
    ///
    /// Accepted inputs: a bare scheme name (`"secded"` — shorthand for
    /// a uniform policy) or a comma-separated assignment list with an
    /// optional `default=` entry and role names as rendered by
    /// [`MemoryRole`]'s `Display` (`"default=parity,cache-data=none"`).
    /// Round-trips with `Display` exactly.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unparseable token. Role
    /// names are not validated against the `MemoryRole` enum (it is
    /// `#[non_exhaustive]`); unknown roles simply never match a macro.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if let Some(scheme) = EccScheme::parse(s) {
            return Ok(Self::uniform(scheme));
        }
        let mut policy = Self::unprotected();
        for tok in s.split(',') {
            let tok = tok.trim();
            if tok.is_empty() {
                continue;
            }
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected `role=scheme`, got `{tok}`"))?;
            let scheme = EccScheme::parse(val.trim())
                .ok_or_else(|| format!("unknown ECC scheme `{}` in `{tok}`", val.trim()))?;
            if key.trim() == "default" {
                policy.default = scheme;
            } else {
                policy.per_role.insert(key.trim().to_string(), scheme);
            }
        }
        Ok(policy)
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
        assert!(!p.is_unprotected());
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
    fn unprotected_detection() {
        assert!(EccPolicy::unprotected().is_unprotected());
        assert!(EccPolicy::default().is_unprotected());
        let p = EccPolicy::unprotected().with_role(MemoryRole::ScratchRam, EccScheme::Parity);
        assert!(!p.is_unprotected());
        let all_none =
            EccPolicy::uniform(EccScheme::None).with_role(MemoryRole::Fifo, EccScheme::None);
        assert!(all_none.is_unprotected());
    }

    #[test]
    fn parse_round_trips_display() {
        let p = EccPolicy::uniform(EccScheme::Parity)
            .with_role(MemoryRole::ScratchRam, EccScheme::SecDed)
            .with_role(MemoryRole::CacheData, EccScheme::None);
        assert_eq!(EccPolicy::parse(&p.to_string()), Ok(p));
        assert_eq!(
            EccPolicy::parse("secded"),
            Ok(EccPolicy::uniform(EccScheme::SecDed))
        );
        assert_eq!(
            EccPolicy::parse("register-file=parity"),
            Ok(EccPolicy::unprotected().with_role(MemoryRole::RegisterFile, EccScheme::Parity))
        );
        assert!(EccPolicy::parse("default=bogus").is_err());
        assert!(EccPolicy::parse("nonsense").is_err());
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
