//! Crash-safe, resumable DSE sweep campaigns.
//!
//! [`GpuPlanner::best_within`] plans the full 24-point `(CU count,
//! frequency)` grid — minutes of design-space exploration that, before
//! this module, restarted from zero whenever the host died. A
//! [`SweepConfig`] with a checkpoint path turns the sweep into a
//! campaign over the shared write-ahead journal (`ggpu-wal`, the same
//! machinery behind the fault crate's resumable campaigns):
//!
//! * the header fingerprints the campaign — both ceilings, the grid
//!   size, the technology and the planner's ECC override — so a
//!   journal written under any other campaign is refused, never
//!   answered from;
//! * every finished grid point appends **one journal line** carrying
//!   its status and — for planned points — the full optimization
//!   recipe and advice trace, fsynced, in completion order;
//! * `kill -9` at *any* byte offset leaves either a whole record
//!   (the point is never re-run) or a torn tail (repaired on open; the
//!   point re-runs). Resumed sweeps reconstruct each recorded
//!   [`PlannedVersion`] deterministically — regenerate the baseline,
//!   replay the recipe, re-synthesize — so the final winner is
//!   byte-identical to an uninterrupted run.
//!
//! The journal as written is the campaign's record: after its last
//! append a sweep writes nothing more, and a resume that plans nothing
//! leaves the file untouched.
//!
//! [`GpuPlanner::best_within_with_threads`] is this sweep with no
//! checkpoint.

use crate::dse::OptimizationPlan;
use crate::flow::{parallel_map, GpuPlanner, PlanError, PlannedVersion};
use crate::spec::Specification;
use ggpu_kernels::suite_threads;
use ggpu_netlist::EccPolicy;
use ggpu_synth::synthesize;
use ggpu_tech::units::Mhz;
use ggpu_wal::{Journal, WalError, WalOp};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

/// Sweep campaign policy.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Total-area ceiling, mm².
    pub max_area_mm2: f64,
    /// Total-power ceiling, W.
    pub max_power_w: f64,
    /// Worker threads; `0` picks [`suite_threads`].
    pub threads: usize,
    /// Optional journal path: set to make the campaign resumable.
    /// Every record is fsynced.
    pub checkpoint: Option<PathBuf>,
}

impl SweepConfig {
    /// A sweep under the given PPA ceilings, with defaults everywhere
    /// else (auto threads, no checkpoint).
    pub fn budgets(max_area_mm2: f64, max_power_w: f64) -> Self {
        Self {
            max_area_mm2,
            max_power_w,
            threads: 0,
            checkpoint: None,
        }
    }

    /// Sets an explicit worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Makes the campaign resumable through a journal at `path`.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// The journal header: everything a recorded point depends on.
    /// `tech` is [`ggpu_tech::Tech::structural_fingerprint`] and `ecc`
    /// the planner's ECC override, if any. That fingerprint is stable
    /// only within one Rust toolchain, so a journal written by a binary
    /// from another toolchain may carry another `tech` value and is
    /// then refused as foreign ([`SweepError::Checkpoint`]), never
    /// answered from.
    fn header(&self, points: usize, tech: u64, ecc: Option<EccPolicy>) -> String {
        format!(
            "ggpu-sweep v3 area={:016x} power={:016x} points={points} tech={tech:016x} ecc={}",
            self.max_area_mm2.to_bits(),
            self.max_power_w.to_bits(),
            ecc.map_or_else(|| "none".into(), |p| p.to_string()),
        )
    }
}

/// Errors of a sweep campaign.
#[derive(Debug)]
pub enum SweepError {
    /// A grid point failed structurally (invalid configuration,
    /// synthesis error — the same failures that abort
    /// [`GpuPlanner::best_within`]).
    Plan(PlanError),
    /// Journal I/O failed; carries the offending path and operation.
    Io(WalError),
    /// The journal does not belong to this campaign (other ceilings,
    /// technology or ECC override), or a record is corrupt (including
    /// a point recorded twice and a recipe that no longer replays).
    Checkpoint(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Plan(e) => write!(f, "sweep point: {e}"),
            SweepError::Io(e) => write!(f, "sweep journal: {e}"),
            SweepError::Checkpoint(m) => write!(f, "sweep checkpoint: {m}"),
        }
    }
}

impl Error for SweepError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SweepError::Plan(e) => Some(e),
            SweepError::Io(e) => Some(e),
            SweepError::Checkpoint(_) => None,
        }
    }
}

impl From<WalError> for SweepError {
    fn from(e: WalError) -> Self {
        // A complete-but-foreign header is a caller mistake, not an
        // I/O failure.
        if e.op == WalOp::Open && e.source.kind() == std::io::ErrorKind::InvalidData {
            SweepError::Checkpoint(e.source.to_string())
        } else {
            SweepError::Io(e)
        }
    }
}

impl From<PlanError> for SweepError {
    fn from(e: PlanError) -> Self {
        SweepError::Plan(e)
    }
}

/// The outcome of a sweep campaign.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The winning version under the ceilings, if any — identical to
    /// [`GpuPlanner::best_within`]'s under the same ceilings.
    pub winner: Option<PlannedVersion>,
    /// Grid points planned by this invocation.
    pub evaluated: usize,
    /// Grid points answered from the journal.
    pub resumed: usize,
    /// Grid points whose target frequency is unreachable.
    pub unreachable: usize,
}

impl SweepReport {
    /// A deterministic text summary. The evaluated/resumed split is
    /// omitted so an uninterrupted run and a resume from **any** kill
    /// point render byte-identically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total = self.evaluated + self.resumed;
        let _ = writeln!(out, "ggpu sweep: {total} points");
        let _ = writeln!(
            out,
            "winner      : {}",
            self.winner
                .as_ref()
                .map(|w| w.spec.version_name())
                .unwrap_or_else(|| "none".into())
        );
        let _ = writeln!(out, "unreachable : {}", self.unreachable);
        out
    }
}

/// Journal-record status of one grid point.
#[derive(Debug, Clone, PartialEq)]
enum PointOutcome {
    Planned {
        plan: OptimizationPlan,
        trace: Vec<String>,
    },
    Unreachable,
}

/// One freshly-planned grid point: index, journal-record status, and
/// the planned version when the point was actually kept.
type FreshPoint = (usize, PointOutcome, Option<PlannedVersion>);

impl GpuPlanner {
    /// Runs a (optionally resumable) sweep campaign over
    /// [`GpuPlanner::sweep_points`] and reduces it to the best version
    /// within the configured ceilings.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Plan`] on structural planning failures
    /// (never for unreachable frequencies), and
    /// [`SweepError::Io`]/[`SweepError::Checkpoint`] for journal
    /// problems, including a journal from another campaign, a point
    /// recorded twice and a recorded recipe that does not replay.
    pub fn sweep(&self, config: &SweepConfig) -> Result<SweepReport, SweepError> {
        let points = Self::sweep_points();
        let spec_for = |i: usize| {
            let (cus, mhz) = points[i];
            Specification::new(cus, Mhz::new(mhz))
                .with_max_area_mm2(config.max_area_mm2)
                .with_max_power_w(config.max_power_w)
        };

        // Load whatever a previous invocation journaled. A run plans
        // only its missing points, so each point is recorded once.
        let mut done: BTreeMap<usize, PointOutcome> = BTreeMap::new();
        let journal = match &config.checkpoint {
            Some(path) => {
                // Sweep specs carry no resilience of their own, so the
                // policy is the planner's override.
                let header = config.header(
                    points.len(),
                    self.tech().structural_fingerprint(),
                    self.resilience_policy(&spec_for(0)),
                );
                let (journal, lines) = Journal::open(path, &header)?;
                for (no, line) in lines.iter().enumerate() {
                    let (i, outcome) = parse_record(line)?;
                    if i >= points.len() {
                        return Err(SweepError::Checkpoint(format!(
                            "record for point {i} outside the {}-point grid",
                            points.len()
                        )));
                    }
                    if done.insert(i, outcome).is_some() {
                        return Err(SweepError::Checkpoint(format!(
                            "point {i} recorded twice (line {})",
                            no + 2
                        )));
                    }
                }
                Some(Mutex::new(journal))
            }
            None => None,
        };
        let resumed = done.len();

        // Plan the missing points in parallel, journaling each outcome
        // the moment it exists. Structural errors are not recorded:
        // they abort the campaign and the point re-runs on resume.
        let missing: Vec<usize> = (0..points.len())
            .filter(|i| !done.contains_key(i))
            .collect();
        let threads = if config.threads == 0 {
            suite_threads(missing.len())
        } else {
            config.threads
        };
        let fresh: Vec<Result<FreshPoint, SweepError>> =
            parallel_map(missing.len(), threads, |k| {
                let i = missing[k];
                let (outcome, version) = match self.plan(&spec_for(i)) {
                    Ok(v) => (
                        PointOutcome::Planned {
                            plan: v.plan.clone(),
                            trace: v.trace.clone(),
                        },
                        Some(v),
                    ),
                    Err(PlanError::Dse(_)) => (PointOutcome::Unreachable, None),
                    Err(e) => return Err(SweepError::Plan(e)),
                };
                if let Some(journal) = &journal {
                    let mut j = journal.lock().unwrap_or_else(|p| p.into_inner());
                    j.append(&encode_record(i, &outcome))?;
                }
                Ok((i, outcome, version))
            });

        // First structural error in grid order aborts, exactly like
        // the legacy reduction.
        let mut outcomes: BTreeMap<usize, (PointOutcome, Option<PlannedVersion>)> =
            done.into_iter().map(|(i, o)| (i, (o, None))).collect();
        let mut evaluated = 0usize;
        for result in fresh {
            let (i, outcome, version) = result?;
            evaluated += 1;
            outcomes.insert(i, (outcome, version));
        }

        // Deterministic reduction in grid order: reconstruct resumed
        // candidates from their recorded recipe, keep the highest
        // throughput (ties broken by smaller area).
        let mut best: Option<(f64, PlannedVersion)> = None;
        let mut unreachable = 0usize;
        for (i, &(cus, mhz)) in points.iter().enumerate() {
            let Some((outcome, version)) = outcomes.remove(&i) else {
                continue;
            };
            let planned = match (outcome, version) {
                (PointOutcome::Unreachable, _) => {
                    unreachable += 1;
                    continue;
                }
                (PointOutcome::Planned { .. }, Some(v)) => v,
                (PointOutcome::Planned { plan, trace }, None) => {
                    self.rebuild_planned(i, &spec_for(i), plan, trace)?
                }
            };
            let area = planned.synthesis.stats.total_area().to_mm2();
            let power = planned.synthesis.total_power().to_watts();
            if area > config.max_area_mm2 || power > config.max_power_w {
                continue;
            }
            let throughput = f64::from(cus) * mhz;
            let better = match &best {
                None => true,
                Some((t, b)) => {
                    throughput > *t
                        || (throughput == *t && area < b.synthesis.stats.total_area().to_mm2())
                }
            };
            if better {
                best = Some((throughput, planned));
            }
        }

        Ok(SweepReport {
            winner: best.map(|(_, p)| p),
            evaluated,
            resumed,
            unreachable,
        })
    }

    /// Deterministically reconstructs grid point `i`'s
    /// [`PlannedVersion`] from its journaled recipe: regenerate the
    /// baseline, replay the plan, re-synthesize. Bit-identical to the
    /// original `plan` result (`rebuild_replays_the_recipe` pins the
    /// netlist identity). A recipe that does not replay was not
    /// written by a run of this flow, so it is a corrupt checkpoint.
    fn rebuild_planned(
        &self,
        i: usize,
        spec: &Specification,
        plan: OptimizationPlan,
        trace: Vec<String>,
    ) -> Result<PlannedVersion, SweepError> {
        let config = self.config_for(spec)?;
        let mut design = self.rebuild(spec, &plan).map_err(|e| match e {
            PlanError::Dse(e) => {
                SweepError::Checkpoint(format!("the recipe of point {i} does not replay: {e}"))
            }
            other => SweepError::Plan(other),
        })?;
        design.set_name(format!(
            "ggpu_{}cu_{:.0}mhz",
            spec.compute_units,
            spec.frequency.value()
        ));
        // The original run passed the lint and resilience gates
        // (deterministic on the same netlist), so only the resilience
        // *report* needs recomputing.
        let resilience = self.resilience_policy(spec).and_then(|policy| {
            ggpu_fault::MacroMap::from_design(&design, &policy)
                .ok()
                .map(|map| ggpu_fault::ResilienceReport::from_map(&map, policy.to_string()))
        });
        let synthesis =
            synthesize(&design, self.tech(), spec.frequency).map_err(PlanError::Synthesis)?;
        Ok(PlannedVersion {
            spec: *spec,
            config,
            design,
            plan,
            synthesis,
            trace,
            resilience,
        })
    }
}

/// Percent-escapes a record field (delimiters, whitespace and `%`
/// itself become `%hh`).
fn esc(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'.' | b'@' | b'-' | b'/' => {
                out.push(b as char)
            }
            _ => {
                let _ = write!(out, "%{b:02x}");
            }
        }
    }
    out
}

fn unesc(s: &str) -> Result<String, SweepError> {
    let bad = || SweepError::Checkpoint(format!("malformed escape in field `{s}`"));
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3).ok_or_else(bad)?;
            let hex = std::str::from_utf8(hex).map_err(|_| bad())?;
            out.push(u8::from_str_radix(hex, 16).map_err(|_| bad())?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| bad())
}

fn encode_plan(plan: &OptimizationPlan) -> String {
    let mut items = Vec::new();
    for ((module, mac), factor) in &plan.divisions {
        items.push(format!("d,{},{},{factor}", esc(module), esc(mac)));
    }
    for (module, path) in &plan.pipelines {
        items.push(format!("l,{},{}", esc(module), esc(path)));
    }
    if items.is_empty() {
        "-".into()
    } else {
        items.join(";")
    }
}

fn decode_plan(s: &str) -> Result<OptimizationPlan, SweepError> {
    let mut plan = OptimizationPlan::default();
    if s == "-" {
        return Ok(plan);
    }
    let bad = |item: &str| SweepError::Checkpoint(format!("malformed plan item `{item}`"));
    for item in s.split(';') {
        let fields: Vec<&str> = item.split(',').collect();
        match fields.as_slice() {
            ["d", module, mac, factor] => {
                let factor = factor
                    .parse::<u32>()
                    .ok()
                    .filter(|f| *f >= 2 && f.is_power_of_two())
                    .ok_or_else(|| bad(item))?;
                plan.divisions.insert((unesc(module)?, unesc(mac)?), factor);
            }
            ["l", module, path] => plan.pipelines.push((unesc(module)?, unesc(path)?)),
            _ => return Err(bad(item)),
        }
    }
    Ok(plan)
}

fn encode_trace(trace: &[String]) -> String {
    if trace.is_empty() {
        "-".into()
    } else {
        trace.iter().map(|t| esc(t)).collect::<Vec<_>>().join(",")
    }
}

fn decode_trace(s: &str) -> Result<Vec<String>, SweepError> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',').map(unesc).collect()
}

fn encode_record(i: usize, outcome: &PointOutcome) -> String {
    match outcome {
        PointOutcome::Planned { plan, trace } => {
            format!("p {i} ok {} t={}", encode_plan(plan), encode_trace(trace))
        }
        PointOutcome::Unreachable => format!("p {i} dse"),
    }
}

fn parse_record(line: &str) -> Result<(usize, PointOutcome), SweepError> {
    let bad = || SweepError::Checkpoint(format!("malformed sweep record `{line}`"));
    let mut fields = line.split(' ');
    if fields.next() != Some("p") {
        return Err(bad());
    }
    let i = fields
        .next()
        .and_then(|f| f.parse::<usize>().ok())
        .ok_or_else(bad)?;
    let outcome = match fields.next() {
        Some("ok") => {
            let plan = decode_plan(fields.next().ok_or_else(bad)?)?;
            let trace_field = fields.next().ok_or_else(bad)?;
            let trace = decode_trace(trace_field.strip_prefix("t=").ok_or_else(bad)?)?;
            PointOutcome::Planned { plan, trace }
        }
        Some("dse") => PointOutcome::Unreachable,
        _ => return Err(bad()),
    };
    if fields.next().is_some() {
        return Err(bad());
    }
    Ok((i, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let mut plan = OptimizationPlan::default();
        plan.divisions.insert(("cu 0".into(), "reg;file".into()), 4);
        plan.pipelines.push(("top".into(), "p__p0,p1".into()));
        let outcomes = [
            PointOutcome::Planned {
                plan,
                trace: vec!["divide cu 0/reg;file x4".into(), "100% done".into()],
            },
            PointOutcome::Unreachable,
            PointOutcome::Planned {
                plan: OptimizationPlan::default(),
                trace: Vec::new(),
            },
        ];
        for (i, outcome) in outcomes.iter().enumerate() {
            let line = encode_record(i, outcome);
            assert!(!line.contains('\n'));
            let (j, parsed) = parse_record(&line).expect("round trip");
            assert_eq!(j, i);
            assert_eq!(&parsed, outcome);
        }
    }

    #[test]
    fn corrupt_records_are_refused() {
        for line in [
            "q 0 ok - t=-",
            "p x ok - t=-",
            "p 0 nonsense",
            "p 0 ok - t=- extra",
            "p 0 budget 912",
            "p 0 ok d,only,three t=-",
            "p 0 ok d,compute_unit,cram0,0 t=-",
            "p 0 ok d,compute_unit,cram0,1 t=-",
            "p 0 ok d,compute_unit,cram0,3 t=-",
            "p 0 ok b,compute_unit,lram0,2 t=-",
            "p 0 ok - t=%zz",
        ] {
            assert!(
                matches!(parse_record(line), Err(SweepError::Checkpoint(_))),
                "`{line}` must be refused"
            );
        }
    }

    #[test]
    fn escaping_is_reversible_for_hostile_strings() {
        for s in ["", "a b", "100%", "a,b;c d\te\nf", "ünïcode", "p 0 ok"] {
            assert_eq!(unesc(&esc(s)).expect("reversible"), s, "{s:?}");
        }
    }
}
