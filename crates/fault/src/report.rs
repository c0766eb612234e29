//! Campaign and resilience reports with byte-stable JSON rendering.
//!
//! JSON is hand-rolled (the workspace is dependency-free) with fixed
//! field order and fixed-precision floats, so identical campaigns
//! serialize to identical bytes — the determinism contract tested in
//! `tests/campaign.rs`. Every string goes through one escaper, since
//! macro paths are netlist instance names, which may hold any
//! character.

use crate::map::MacroMap;
use ggpu_tech::sram::EccScheme;
use std::fmt::{self, Write as _};

use crate::campaign::Outcome;

/// Trial counts per classification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Architecturally/logically masked upsets.
    pub masked: u32,
    /// Silent data corruptions.
    pub sdc: u32,
    /// ECC-corrected, output correct.
    pub detected_corrected: u32,
    /// Detected-uncorrectable aborts.
    pub detected_uncorrectable: u32,
    /// Watchdog/cycle-limit hangs.
    pub hang: u32,
    /// Other typed simulator faults.
    pub crash: u32,
}

impl OutcomeCounts {
    /// Adds one trial.
    pub fn add(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Masked => self.masked += 1,
            Outcome::Sdc => self.sdc += 1,
            Outcome::DetectedCorrected => self.detected_corrected += 1,
            Outcome::DetectedUncorrectable => self.detected_uncorrectable += 1,
            Outcome::Hang => self.hang += 1,
            Outcome::Crash => self.crash += 1,
        }
    }

    /// Total trials counted.
    pub fn total(&self) -> u32 {
        self.masked
            + self.sdc
            + self.detected_corrected
            + self.detected_uncorrectable
            + self.hang
            + self.crash
    }

    /// Architectural vulnerability factor: the fraction of upsets with
    /// a user-visible consequence (SDC, detected-uncorrectable abort,
    /// hang or crash). Corrected and masked upsets are benign.
    pub fn avf(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        f64::from(self.sdc + self.detected_uncorrectable + self.hang + self.crash)
            / f64::from(total)
    }

    fn json(&self) -> String {
        format!(
            "{{\"masked\": {}, \"sdc\": {}, \"detected_corrected\": {}, \"detected_uncorrectable\": {}, \"hang\": {}, \"crash\": {}}}",
            self.masked,
            self.sdc,
            self.detected_corrected,
            self.detected_uncorrectable,
            self.hang,
            self.crash
        )
    }
}

/// A string rendered as a JSON string literal: quoted, with quotes,
/// backslashes and control characters escaped.
struct Json<'a>(&'a str);

impl fmt::Display for Json<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        let mut clean = 0;
        // Every character that needs escaping is one ASCII byte, so
        // the runs between them slice on character boundaries.
        for (i, b) in self.0.bytes().enumerate() {
            if b == b'"' || b == b'\\' || b < b' ' {
                f.write_str(&self.0[clean..i])?;
                match b {
                    b'"' | b'\\' => write!(f, "\\{}", char::from(b))?,
                    _ => write!(f, "\\u{b:04x}")?,
                }
                clean = i + 1;
            }
        }
        f.write_str(&self.0[clean..])?;
        f.write_char('"')
    }
}

/// Per-macro campaign attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroAvf {
    /// Hierarchical macro instance path.
    pub path: String,
    /// Architectural role name.
    pub role: String,
    /// Protection scheme the policy assigned.
    pub scheme: EccScheme,
    /// Capacity-weighted share of all upsets (static exposure).
    pub exposure: f64,
    /// Trials attributed to this macro.
    pub counts: OutcomeCounts,
}

/// The full campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Kernel name.
    pub kernel: String,
    /// Grid size.
    pub n: u32,
    /// Master seed.
    pub seed: u64,
    /// Trials run.
    pub trials: u32,
    /// Machine size.
    pub compute_units: u32,
    /// Fault-free run length (the injection window).
    pub golden_cycles: u64,
    /// Outcome totals.
    pub counts: OutcomeCounts,
    /// Per-macro attribution, design-traversal order.
    pub macros: Vec<MacroAvf>,
}

impl CampaignReport {
    /// Overall architectural vulnerability factor.
    pub fn avf(&self) -> f64 {
        self.counts.avf()
    }

    /// Byte-stable JSON rendering.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"kernel\": {},", Json(&self.kernel));
        let _ = writeln!(out, "  \"n\": {},", self.n);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"trials\": {},", self.trials);
        let _ = writeln!(out, "  \"compute_units\": {},", self.compute_units);
        let _ = writeln!(out, "  \"golden_cycles\": {},", self.golden_cycles);
        let _ = writeln!(out, "  \"avf\": {:.6},", self.avf());
        let _ = writeln!(out, "  \"outcomes\": {},", self.counts.json());
        let _ = writeln!(out, "  \"macros\": [");
        for (i, m) in self.macros.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"path\": {}, \"role\": {}, \"ecc\": {}, \"exposure\": {:.6}, \"injections\": {}, \"avf\": {:.6}, \"outcomes\": {}}}{}",
                Json(&m.path),
                Json(&m.role),
                Json(m.scheme.as_str()),
                m.exposure,
                m.counts.total(),
                m.counts.avf(),
                m.counts.json(),
                if i + 1 < self.macros.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

/// One macro's row in the static resilience report.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceRow {
    /// Hierarchical macro instance path.
    pub path: String,
    /// Architectural role name.
    pub role: String,
    /// Protection scheme.
    pub scheme: EccScheme,
    /// Words stored.
    pub words: u32,
    /// Data bits per word.
    pub data_bits: u32,
    /// Check bits per word under the scheme.
    pub check_bits: u32,
    /// Capacity-weighted exposure.
    pub exposure: f64,
}

impl ResilienceRow {
    /// Storage overhead of the check columns, percent of data bits.
    pub fn overhead_pct(&self) -> f64 {
        if self.data_bits == 0 {
            return 0.0;
        }
        100.0 * f64::from(self.check_bits) / f64::from(self.data_bits)
    }
}

/// Static (no-simulation) resilience summary of a design under an ECC
/// policy: what is protected, what each protection costs in stored
/// bits, and where the soft-error cross-section sits. The planner
/// attaches one per generated Table-I version.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Human-readable policy description.
    pub policy: String,
    /// Per-macro rows in design-traversal order.
    pub rows: Vec<ResilienceRow>,
}

impl ResilienceReport {
    /// Builds the report from a derived macro map.
    pub fn from_map(map: &MacroMap, policy: impl Into<String>) -> Self {
        let rows = map
            .sites()
            .iter()
            .enumerate()
            .map(|(i, s)| ResilienceRow {
                path: s.path.clone(),
                role: s.role.to_string(),
                scheme: s.scheme,
                words: s.words,
                data_bits: s.data_bits,
                check_bits: s.check_bits,
                exposure: map.exposure(i),
            })
            .collect();
        Self {
            policy: policy.into(),
            rows,
        }
    }

    /// Total data bits across all macros.
    pub fn data_bits_total(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| u64::from(r.words) * u64::from(r.data_bits))
            .sum()
    }

    /// Total stored bits (data + check) across all macros.
    pub fn stored_bits_total(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| u64::from(r.words) * u64::from(r.data_bits + r.check_bits))
            .sum()
    }

    /// Aggregate check-bit storage overhead, percent.
    pub fn overhead_pct(&self) -> f64 {
        let data = self.data_bits_total();
        if data == 0 {
            return 0.0;
        }
        100.0 * (self.stored_bits_total() - data) as f64 / data as f64
    }

    /// Fraction of stored bits residing in macros with *no* protection
    /// — the headline number lint code N008 gates on.
    pub fn unprotected_fraction(&self) -> f64 {
        let total = self.stored_bits_total();
        if total == 0 {
            return 0.0;
        }
        let unprot: u64 = self
            .rows
            .iter()
            .filter(|r| r.scheme == EccScheme::None)
            .map(|r| u64::from(r.words) * u64::from(r.data_bits + r.check_bits))
            .sum();
        unprot as f64 / total as f64
    }

    /// Byte-stable JSON rendering.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"policy\": {},", Json(&self.policy));
        let _ = writeln!(out, "  \"data_bits\": {},", self.data_bits_total());
        let _ = writeln!(out, "  \"stored_bits\": {},", self.stored_bits_total());
        let _ = writeln!(out, "  \"overhead_pct\": {:.4},", self.overhead_pct());
        let _ = writeln!(
            out,
            "  \"unprotected_fraction\": {:.6},",
            self.unprotected_fraction()
        );
        let _ = writeln!(out, "  \"macros\": [");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"path\": {}, \"role\": {}, \"ecc\": {}, \"words\": {}, \"data_bits\": {}, \"check_bits\": {}, \"exposure\": {:.6}}}{}",
                Json(&r.path),
                Json(&r.role),
                Json(r.scheme.as_str()),
                r.words,
                r.data_bits,
                r.check_bits,
                r.exposure,
                if i + 1 < self.rows.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_avf() {
        let mut c = OutcomeCounts::default();
        for o in [
            Outcome::Masked,
            Outcome::Masked,
            Outcome::Sdc,
            Outcome::Hang,
            Outcome::DetectedCorrected,
            Outcome::DetectedUncorrectable,
        ] {
            c.add(o);
        }
        assert_eq!(c.total(), 6);
        assert!((c.avf() - 3.0 / 6.0).abs() < 1e-12);
        assert!(c.json().contains("\"sdc\": 1"));
    }

    #[test]
    fn empty_counts_avf_is_zero() {
        assert_eq!(OutcomeCounts::default().avf(), 0.0);
    }

    /// Quotes, backslashes and control characters in macro names and
    /// labels come out escaped, so both reports stay valid JSON.
    #[test]
    fn reports_escape_their_strings() {
        use ggpu_netlist::module::Module;
        use ggpu_netlist::{CellGroup, Design, EccPolicy, MacroInst, MemoryRole};
        use ggpu_tech::sram::SramConfig;
        use ggpu_tech::stdcell::CellClass;

        let mut design = Design::new("t");
        let top = Module::new("top")
            .with_group(CellGroup::new("g", CellClass::Inv, 1, 0.1))
            .with_macro(MacroInst::new(
                "rf\"0\\x\t",
                SramConfig::dual(512, 32),
                MemoryRole::RegisterFile,
                0.5,
            ));
        let id = design.add_module(top);
        design.set_top(id);
        let map = MacroMap::from_design(&design, &EccPolicy::unprotected()).unwrap();
        let path = r#""path": "rf\"0\\x\u0009""#;

        let resilience = ResilienceReport::from_map(&map, "uniform \"parity\"").to_json();
        assert!(resilience.contains(path), "{resilience}");
        assert!(
            resilience.contains(r#""policy": "uniform \"parity\"","#),
            "{resilience}"
        );

        let site = &map.sites()[0];
        let campaign = CampaignReport {
            kernel: "k\"1".into(),
            n: 1,
            seed: 1,
            trials: 0,
            compute_units: 1,
            golden_cycles: 1,
            counts: OutcomeCounts::default(),
            macros: vec![MacroAvf {
                path: site.path.clone(),
                role: site.role.to_string(),
                scheme: site.scheme,
                exposure: map.exposure(0),
                counts: OutcomeCounts::default(),
            }],
        }
        .to_json();
        assert!(campaign.contains(path), "{campaign}");
        assert!(campaign.contains(r#""kernel": "k\"1","#), "{campaign}");
    }
}
