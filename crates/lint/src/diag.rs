//! Diagnostics: stable codes, severities, reports and configuration.
//!
//! Every finding of the kernel verifier ([`crate::kernel`]) or the
//! design linter ([`crate::design`]) is a [`Diagnostic`] carrying a
//! stable [`Code`] (`K…` for kernel checks, `N…` for netlist/flow
//! checks), an effective [`Severity`], a human-readable message and an
//! optional location (instruction index or hierarchical site).
//! Consumers gate on [`Report::denial_count`]; tooling consumes
//! [`Report::to_json`].

use std::collections::BTreeMap;
use std::fmt;

/// How severe a diagnostic is treated.
///
/// * `Deny` — the program/design is rejected (pre-flight gates fail).
/// * `Warn` — reported, does not fail by default; promoted to a denial
///   under [`LintConfig::warnings_are_denials`] (CI's `--deny warn`).
/// * `Allow` — the check is disabled; the diagnostic is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Check disabled.
    Allow,
    /// Report without failing.
    Warn,
    /// Reject.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// Stable diagnostic codes.
///
/// `K…` codes come from the kernel verifier, `N…` codes from the
/// netlist/flow linter. Codes are append-only: a code's meaning never
/// changes once shipped, so corpus tests and CI greps stay valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// May-uninitialized register read (the register is not definitely
    /// assigned on some path; r0 is exempt as the zero-idiom register).
    K001,
    /// Dead store: a pure register write whose value is never read.
    K002,
    /// Unreachable instruction(s).
    K003,
    /// Missing `ret`: a reachable path falls through the end of the
    /// program (the simulator faults with `PcOutOfRange`).
    K004,
    /// Branch/jump target outside the program.
    K005,
    /// Estimated divergence depth exceeds the lint threshold.
    K006,
    /// Local-memory race: a `swl` writes a lane-uniform address with a
    /// lane-varying value, so work-items of one wavefront clobber the
    /// same word in an unordered way no barrier can serialize.
    K007,
    /// Barrier inside lane-divergent control flow (the simulator
    /// faults with `DivergentBarrier` when lanes arrive split).
    K008,
    /// Empty program (the very first fetch faults).
    K009,
    /// Out-of-bounds memory access proven (deny) or possible (capped
    /// at warn) by the abstract interpreter's value-range domain.
    K010,
    /// Misaligned word access proven (deny) or possible (capped at
    /// warn) by the stride/alignment domain.
    K011,
    /// Flow-sensitive local-memory race: a `swl` whose address is not
    /// provably lane-distinct stores a value that is neither
    /// lane-uniform nor determined by the address. Replaces K007's
    /// syntactic check.
    K012,
    /// Duplicate name: module, instance or macro.
    N001,
    /// Dangling reference: a child instance or a timing-path endpoint
    /// names a missing module/macro.
    N002,
    /// SRAM macro geometry outside the 65 nm compiler's legal range
    /// (16–65536 words × 2–144 bits).
    N003,
    /// Invalid activity value (non-finite or outside `[0, 1]`).
    N004,
    /// Flow invariant: memory division must preserve total macro bits.
    N005,
    /// Flow invariant: pipeline insertion must preserve macro timing
    /// endpoints and add exactly one path.
    N006,
    /// Design has no top module or the instantiation graph is cyclic.
    N007,
    /// Retired: resilience coverage (an SRAM macro left without
    /// ECC/parity under a resilience target). The planner's resilience
    /// target it checked is gone, so no pass emits it; the slot stays
    /// reserved.
    N008,
    /// Retired: the memory-banking flow invariant (total macro bits
    /// preserved, port budget grown by exactly the added banks'
    /// ports). The banking transform it gated is gone, so no pass
    /// emits it; the slot stays reserved.
    N009,
    /// Flow supervision: the supervised flow fell back from a
    /// configured engine to a degraded one (the verify stage's SoA
    /// backend → scalar reference engine). Degradations
    /// are legitimate — that is the point of the ladder — but must
    /// never be silent: each one surfaces here and in the datasheet,
    /// and CI's `--deny warn` turns a degraded run into a failure.
    N010,
}

impl Code {
    /// Every code, in order.
    pub const ALL: [Code; 22] = [
        Code::K001,
        Code::K002,
        Code::K003,
        Code::K004,
        Code::K005,
        Code::K006,
        Code::K007,
        Code::K008,
        Code::K009,
        Code::K010,
        Code::K011,
        Code::K012,
        Code::N001,
        Code::N002,
        Code::N003,
        Code::N004,
        Code::N005,
        Code::N006,
        Code::N007,
        Code::N008,
        Code::N009,
        Code::N010,
    ];

    /// The stable textual form (`"K001"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::K001 => "K001",
            Code::K002 => "K002",
            Code::K003 => "K003",
            Code::K004 => "K004",
            Code::K005 => "K005",
            Code::K006 => "K006",
            Code::K007 => "K007",
            Code::K008 => "K008",
            Code::K009 => "K009",
            Code::K010 => "K010",
            Code::K011 => "K011",
            Code::K012 => "K012",
            Code::N001 => "N001",
            Code::N002 => "N002",
            Code::N003 => "N003",
            Code::N004 => "N004",
            Code::N005 => "N005",
            Code::N006 => "N006",
            Code::N007 => "N007",
            Code::N008 => "N008",
            Code::N009 => "N009",
            Code::N010 => "N010",
        }
    }

    /// Parses the textual form back to a code.
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// The severity a fresh [`LintConfig`] assigns this code.
    ///
    /// Code-smell checks (uninitialized reads, dead stores,
    /// unreachable code, deep divergence) default to `Warn`; checks
    /// whose violation provably faults the simulator or corrupts the
    /// flow default to `Deny`.
    pub fn default_severity(self) -> Severity {
        match self {
            Code::K001 | Code::K002 | Code::K003 | Code::K006 | Code::N008 | Code::N010 => {
                Severity::Warn
            }
            Code::K004
            | Code::K005
            | Code::K007
            | Code::K008
            | Code::K009
            | Code::K010
            | Code::K011
            | Code::K012
            | Code::N001
            | Code::N002
            | Code::N003
            | Code::N004
            | Code::N005
            | Code::N006
            | Code::N007
            | Code::N009 => Severity::Deny,
        }
    }

    /// `true` for codes no pass emits anymore. Retired codes keep
    /// their slot (codes are append-only) and can still be configured,
    /// but corpus-coverage tests skip them.
    pub fn retired(self) -> bool {
        // K007's syntactic race check is subsumed by the
        // flow-sensitive K012; N008 checked the removed resilience
        // target; N009 gated the removed banking transform.
        matches!(self, Code::K007 | Code::N008 | Code::N009)
    }

    /// One-line description for `--help`/docs.
    pub fn description(self) -> &'static str {
        match self {
            Code::K001 => "may-uninitialized register read",
            Code::K002 => "dead store (pure write never read)",
            Code::K003 => "unreachable instruction(s)",
            Code::K004 => "reachable path falls through end of program",
            Code::K005 => "branch/jump target outside program",
            Code::K006 => "divergence depth exceeds threshold",
            Code::K007 => "retired: syntactic local-store race, superseded by K012",
            Code::K008 => "barrier inside divergent control flow",
            Code::K009 => "empty program",
            Code::K010 => "out-of-bounds memory access (proven or possible)",
            Code::K011 => "misaligned word access (proven or possible)",
            Code::K012 => "flow-sensitive local-memory race",
            Code::N001 => "duplicate module/instance/macro name",
            Code::N002 => "dangling module/macro reference",
            Code::N003 => "SRAM geometry outside compiler range",
            Code::N004 => "invalid activity value",
            Code::N005 => "memory division changed total macro bits",
            Code::N006 => "pipeline insertion broke timing endpoints",
            Code::N007 => "missing top module or instantiation cycle",
            Code::N008 => "retired: resilience coverage, its ECC target was removed",
            Code::N009 => "retired: memory-banking invariant, its transform was removed",
            Code::N010 => "flow supervision degraded a stage to a fallback engine",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Effective severity (after [`LintConfig`] overrides; never
    /// `Allow` — allowed diagnostics are dropped).
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
    /// Offending instruction index, for kernel diagnostics.
    pub inst: Option<usize>,
    /// Offending site (module/macro/path name), for design diagnostics.
    pub site: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.severity, self.code, self.message)?;
        if let Some(i) = self.inst {
            write!(f, " (inst {i})")?;
        }
        if let Some(site) = &self.site {
            write!(f, " (at {site})")?;
        }
        Ok(())
    }
}

/// Severity policy: per-code overrides plus the CI-style "warnings are
/// denials" switch.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LintConfig {
    /// Per-code severity overrides.
    pub overrides: BTreeMap<Code, Severity>,
    /// Promote every `Warn` to `Deny` (CI's `--deny warn`).
    pub warnings_are_denials: bool,
}

impl LintConfig {
    /// The default policy ([`Code::default_severity`], warnings stay
    /// warnings).
    pub fn new() -> Self {
        Self::default()
    }

    /// The CI policy: defaults with warnings promoted to denials.
    pub fn strict() -> Self {
        Self {
            overrides: BTreeMap::new(),
            warnings_are_denials: true,
        }
    }

    /// Overrides one code's severity (builder style).
    pub fn with_override(mut self, code: Code, severity: Severity) -> Self {
        self.overrides.insert(code, severity);
        self
    }

    /// The severity this policy assigns `code`.
    pub fn severity(&self, code: Code) -> Severity {
        let base = self
            .overrides
            .get(&code)
            .copied()
            .unwrap_or_else(|| code.default_severity());
        if base == Severity::Warn && self.warnings_are_denials {
            Severity::Deny
        } else {
            base
        }
    }
}

/// All findings for one subject (a kernel or a design).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Subject name (kernel or design name).
    pub subject: String,
    /// Findings, in analysis order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for `subject`.
    pub fn new(subject: impl Into<String>) -> Self {
        Self {
            subject: subject.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Records a finding under the policy `config`; `Allow`-severity
    /// findings are dropped.
    pub fn push(
        &mut self,
        config: &LintConfig,
        code: Code,
        message: impl Into<String>,
        inst: Option<usize>,
        site: Option<String>,
    ) {
        let severity = config.severity(code);
        if severity == Severity::Allow {
            return;
        }
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            message: message.into(),
            inst,
            site,
        });
    }

    /// Records a finding whose effective severity is capped at `cap`:
    /// the policy severity applies first (an `Allow` override still
    /// drops the finding), then the cap. Used for "possible"-tier
    /// findings of deny-by-default codes, which must stay warnings
    /// under the default policy yet still fail `--deny warn`.
    pub fn push_at_most(
        &mut self,
        config: &LintConfig,
        code: Code,
        cap: Severity,
        message: impl Into<String>,
        inst: Option<usize>,
        site: Option<String>,
    ) {
        let base = config
            .overrides
            .get(&code)
            .copied()
            .unwrap_or_else(|| code.default_severity());
        if base == Severity::Allow {
            return;
        }
        let mut severity = base.min(cap);
        if severity == Severity::Warn && config.warnings_are_denials {
            severity = Severity::Deny;
        }
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            message: message.into(),
            inst,
            site,
        });
    }

    /// Sorts findings into the canonical order used by `--json`
    /// output: by instruction (program order, subject-level findings
    /// last), then code, then site, then message. Deterministic for
    /// any pass ordering.
    pub fn sort_canonical(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            let key = |d: &Diagnostic| {
                (
                    d.inst.map_or(usize::MAX, |i| i),
                    d.code,
                    d.site.clone(),
                    d.message.clone(),
                )
            };
            key(a).cmp(&key(b))
        });
    }

    /// `true` if no diagnostics were recorded.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of deny-level findings.
    pub fn denial_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// `true` if any finding carries `code`.
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The codes present, deduplicated and sorted.
    pub fn codes(&self) -> Vec<Code> {
        let mut codes: Vec<Code> = self.diagnostics.iter().map(|d| d.code).collect();
        codes.sort();
        codes.dedup();
        codes
    }

    /// Machine-readable JSON (hand-rolled; the workspace is
    /// dependency-free).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"subject\":");
        json_string(&mut out, &self.subject);
        out.push_str(",\"denials\":");
        out.push_str(&self.denial_count().to_string());
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":\"");
            out.push_str(d.code.as_str());
            out.push_str("\",\"severity\":\"");
            out.push_str(&d.severity.to_string());
            out.push_str("\",\"message\":");
            json_string(&mut out, &d.message);
            match d.inst {
                Some(n) => {
                    out.push_str(",\"inst\":");
                    out.push_str(&n.to_string());
                }
                None => out.push_str(",\"inst\":null"),
            }
            match &d.site {
                Some(s) => {
                    out.push_str(",\"site\":");
                    json_string(&mut out, s);
                }
                None => out.push_str(",\"site\":null"),
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "{}: clean", self.subject);
        }
        writeln!(
            f,
            "{}: {} finding(s), {} denial(s)",
            self.subject,
            self.diagnostics.len(),
            self.denial_count()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Writes `s` as a JSON string literal into `out`.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip_through_text() {
        for code in Code::ALL {
            assert_eq!(Code::parse(code.as_str()), Some(code));
        }
        assert_eq!(Code::parse("K999"), None);
    }

    #[test]
    fn retired_codes_still_parse_and_say_so() {
        let retired: Vec<Code> = Code::ALL.into_iter().filter(|c| c.retired()).collect();
        assert_eq!(retired, [Code::K007, Code::N008, Code::N009]);
        for code in retired {
            assert_eq!(Code::parse(code.as_str()), Some(code));
            assert!(code.description().starts_with("retired: "), "{code}");
            let config = LintConfig::new().with_override(code, Severity::Allow);
            assert_eq!(config.severity(code), Severity::Allow);
        }
    }

    #[test]
    fn strict_config_promotes_warnings() {
        let default = LintConfig::new();
        let strict = LintConfig::strict();
        assert_eq!(default.severity(Code::K001), Severity::Warn);
        assert_eq!(strict.severity(Code::K001), Severity::Deny);
        assert_eq!(strict.severity(Code::K004), Severity::Deny);
    }

    #[test]
    fn allow_override_drops_diagnostics() {
        let config = LintConfig::new().with_override(Code::K001, Severity::Allow);
        let mut report = Report::new("x");
        report.push(&config, Code::K001, "dropped", None, None);
        report.push(&config, Code::K004, "kept", Some(3), None);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.denial_count(), 1);
        assert!(report.has(Code::K004));
        assert!(!report.has(Code::K001));
    }

    #[test]
    fn push_at_most_caps_then_promotes() {
        // Default policy: deny-by-default code capped to warn.
        let mut r = Report::new("x");
        r.push_at_most(
            &LintConfig::new(),
            Code::K010,
            Severity::Warn,
            "m",
            Some(0),
            None,
        );
        assert_eq!(r.diagnostics[0].severity, Severity::Warn);
        assert_eq!(r.denial_count(), 0);
        // Strict policy: the capped warning is promoted back to deny.
        let mut r = Report::new("x");
        r.push_at_most(
            &LintConfig::strict(),
            Code::K010,
            Severity::Warn,
            "m",
            Some(0),
            None,
        );
        assert_eq!(r.denial_count(), 1);
        // Allow override still drops it.
        let config = LintConfig::new().with_override(Code::K010, Severity::Allow);
        let mut r = Report::new("x");
        r.push_at_most(&config, Code::K010, Severity::Warn, "m", Some(0), None);
        assert!(r.is_clean());
    }

    #[test]
    fn canonical_sort_is_program_order_then_code() {
        let config = LintConfig::new();
        let mut r = Report::new("x");
        r.push(&config, Code::K009, "subject-level", None, None);
        r.push(&config, Code::K005, "later", Some(4), None);
        r.push(
            &config,
            Code::K002,
            "same inst, smaller code",
            Some(4),
            None,
        );
        r.push(&config, Code::K004, "earlier", Some(1), None);
        r.sort_canonical();
        let order: Vec<(Option<usize>, Code)> =
            r.diagnostics.iter().map(|d| (d.inst, d.code)).collect();
        assert_eq!(
            order,
            vec![
                (Some(1), Code::K004),
                (Some(4), Code::K002),
                (Some(4), Code::K005),
                (None, Code::K009),
            ]
        );
    }

    #[test]
    fn json_escapes_and_structures() {
        let config = LintConfig::new();
        let mut report = Report::new("k\"1");
        report.push(&config, Code::K005, "bad \"target\"", Some(2), None);
        let json = report.to_json();
        assert!(json.contains("\"subject\":\"k\\\"1\""));
        assert!(json.contains("\"code\":\"K005\""));
        assert!(json.contains("\"inst\":2"));
        assert!(json.contains("\"denials\":1"));
    }

    #[test]
    fn display_mentions_code_and_site() {
        let d = Diagnostic {
            code: Code::N003,
            severity: Severity::Deny,
            message: "words 8 below minimum".into(),
            inst: None,
            site: Some("cu0/rf_bank0".into()),
        };
        let text = d.to_string();
        assert!(text.contains("N003"));
        assert!(text.contains("cu0/rf_bank0"));
    }
}
