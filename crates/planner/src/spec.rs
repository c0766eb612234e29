//! User-facing design specifications.

use ggpu_tech::units::Mhz;
use std::fmt;

/// What the designer asks GPUPlanner for: a CU count, an operating
/// frequency, and optional PPA ceilings checked after implementation
/// (the paper's "resulting PPA is checked to guarantee it is under the
/// initial specification").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Specification {
    /// Number of compute units (1–8).
    pub compute_units: u32,
    /// Requested operating frequency.
    pub frequency: Mhz,
    /// Optional total-area ceiling in mm².
    pub max_area_mm2: Option<f64>,
    /// Optional total-power ceiling in watts.
    pub max_power_w: Option<f64>,
    /// General-memory-controller replicas (1 or 2; replication is the
    /// paper's future-work remedy for the 8-CU routing wall).
    pub memory_controllers: u32,
}

impl Specification {
    /// A specification with no PPA ceilings.
    pub fn new(compute_units: u32, frequency: Mhz) -> Self {
        Self {
            compute_units,
            frequency,
            max_area_mm2: None,
            max_power_w: None,
            memory_controllers: 1,
        }
    }

    /// Replicates the general memory controller (the paper's proposed
    /// fix for the 8-CU 600 MHz cap).
    pub fn with_memory_controllers(mut self, replicas: u32) -> Self {
        self.memory_controllers = replicas;
        self
    }

    /// Adds an area ceiling.
    pub fn with_max_area_mm2(mut self, mm2: f64) -> Self {
        self.max_area_mm2 = Some(mm2);
        self
    }

    /// Adds a power ceiling.
    pub fn with_max_power_w(mut self, watts: f64) -> Self {
        self.max_power_w = Some(watts);
        self
    }

    /// Canonical version name, e.g. `"1cu@500MHz"` (replicated-GMC
    /// versions get a `x2gmc` suffix).
    pub fn version_name(&self) -> String {
        if self.memory_controllers > 1 {
            format!(
                "{}cu@{:.0}MHz_x{}gmc",
                self.compute_units,
                self.frequency.value(),
                self.memory_controllers
            )
        } else {
            format!("{}cu@{:.0}MHz", self.compute_units, self.frequency.value())
        }
    }
}

impl fmt::Display for Specification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.version_name())?;
        if let Some(a) = self.max_area_mm2 {
            write!(f, " area<={a}mm2")?;
        }
        if let Some(p) = self.max_power_w {
            write!(f, " power<={p}W")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_names() {
        let s = Specification::new(8, Mhz::new(667.0));
        assert_eq!(s.version_name(), "8cu@667MHz");
    }

    #[test]
    fn ceilings_compose() {
        let s = Specification::new(1, Mhz::new(500.0))
            .with_max_area_mm2(5.0)
            .with_max_power_w(2.5);
        assert_eq!(s.max_area_mm2, Some(5.0));
        assert_eq!(s.max_power_w, Some(2.5));
        let text = s.to_string();
        assert!(text.contains("area<=5mm2") && text.contains("power<=2.5W"));
    }
}
