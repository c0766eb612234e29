//! Crash-safe, resumable DSE sweep campaigns.
//!
//! [`GpuPlanner::best_within`] plans the full 24-point `(CU count,
//! frequency)` grid — minutes of design-space exploration that, before
//! this module, restarted from zero whenever the host died. A
//! [`SweepConfig`] with a checkpoint path turns the sweep into a
//! campaign over the shared write-ahead journal (`ggpu-wal`, the same
//! machinery behind the fault crate's resumable campaigns):
//!
//! * every finished grid point appends **one journal line** carrying
//!   its status and — for planned points — the full optimization
//!   recipe and advice trace, fsynced by default;
//! * `kill -9` at *any* byte offset leaves either a whole record
//!   (the point is never re-run) or a torn tail (repaired on open; the
//!   point re-runs). Resumed sweeps reconstruct each recorded
//!   [`PlannedVersion`] deterministically — regenerate the baseline,
//!   replay the recipe, re-synthesize — so the final winner is
//!   byte-identical to an uninterrupted run;
//! * on completion the journal is **compacted** into a canonical
//!   snapshot (tmp sibling + fsync + atomic rename), deduplicated and
//!   sorted by point index.
//!
//! A per-candidate wall-clock budget ([`SweepConfig::candidate_budget`])
//! turns pathological points into structured, journaled skips
//! ([`SweepSkip`]) instead of unbounded stalls. With no checkpoint and
//! no budget the sweep is bit-identical to the legacy
//! [`GpuPlanner::best_within_with_threads`] — which now delegates
//! here.

use crate::dse::OptimizationPlan;
use crate::flow::{parallel_map, worker_threads, GpuPlanner, PlanError, PlannedVersion};
use crate::spec::Specification;
use ggpu_synth::synthesize;
use ggpu_tech::units::Mhz;
use ggpu_wal::{Journal, WalError, WalOp};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sweep campaign policy.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Total-area ceiling, mm².
    pub max_area_mm2: f64,
    /// Total-power ceiling, W.
    pub max_power_w: f64,
    /// Worker threads; `0` picks [`worker_threads`].
    pub threads: usize,
    /// Optional journal path: set to make the campaign resumable.
    pub checkpoint: Option<PathBuf>,
    /// Per-candidate wall-clock budget: a grid point whose planning
    /// exceeds it is recorded as a structured skip instead of a
    /// candidate. `None` (the default) never skips.
    pub candidate_budget: Option<Duration>,
    /// `fsync` each journal record (the default). Disable to trade
    /// power-loss durability for throughput (`kill -9` still loses
    /// nothing either way).
    pub sync: bool,
}

impl SweepConfig {
    /// A sweep under the given PPA ceilings, with defaults everywhere
    /// else (auto threads, no checkpoint, no budget, fsync on).
    pub fn budgets(max_area_mm2: f64, max_power_w: f64) -> Self {
        Self {
            max_area_mm2,
            max_power_w,
            threads: 0,
            checkpoint: None,
            candidate_budget: None,
            sync: true,
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

    /// Sets the per-candidate wall-clock budget.
    pub fn with_candidate_budget(mut self, budget: Duration) -> Self {
        self.candidate_budget = Some(budget);
        self
    }

    /// Toggles per-record fsync.
    pub fn with_sync(mut self, sync: bool) -> Self {
        self.sync = sync;
        self
    }

    fn header(&self, points: usize) -> String {
        let budget = match self.candidate_budget {
            Some(d) => format!("{}", d.as_millis()),
            None => "none".to_string(),
        };
        format!(
            "ggpu-sweep v1 area={:016x} power={:016x} points={points} budget={budget}",
            self.max_area_mm2.to_bits(),
            self.max_power_w.to_bits(),
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
    /// The journal does not belong to this campaign, or a record is
    /// corrupt.
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

/// One budget-exceeded grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSkip {
    /// CU count of the skipped point.
    pub compute_units: u32,
    /// Frequency of the skipped point, MHz.
    pub frequency_mhz: f64,
    /// Wall-clock the point consumed before being cut, ms (informative
    /// only; excluded from [`SweepReport::render`] so reports stay
    /// byte-stable across runs).
    pub elapsed_ms: u64,
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
    /// Budget-exceeded points, in grid order.
    pub skips: Vec<SweepSkip>,
}

impl SweepReport {
    /// A deterministic text summary. Skip wall-clocks and the
    /// evaluated/resumed split are omitted so an uninterrupted run and
    /// a resume from **any** kill point render byte-identically.
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
        let _ = writeln!(out, "budget skips: {}", self.skips.len());
        for s in &self.skips {
            let _ = writeln!(out, "  {}cu@{:.0}MHz", s.compute_units, s.frequency_mhz);
        }
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
    Budget {
        elapsed_ms: u64,
    },
}

/// One freshly-planned grid point: index, journal-record status, and
/// the planned version when the point was actually kept.
type FreshPoint = (usize, PointOutcome, Option<PlannedVersion>);

impl GpuPlanner {
    /// Runs a (optionally resumable, optionally budgeted) sweep
    /// campaign over [`GpuPlanner::sweep_points`] and reduces it to
    /// the best version within the configured ceilings.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Plan`] on structural planning failures
    /// (never for unreachable frequencies or budget skips), and
    /// [`SweepError::Io`]/[`SweepError::Checkpoint`] for journal
    /// problems.
    pub fn sweep(&self, config: &SweepConfig) -> Result<SweepReport, SweepError> {
        let points = Self::sweep_points();
        let spec_for = |i: usize| {
            let (cus, mhz) = points[i];
            Specification::new(cus, Mhz::new(mhz))
                .with_max_area_mm2(config.max_area_mm2)
                .with_max_power_w(config.max_power_w)
        };

        // Load whatever a previous invocation journaled (last record
        // per point wins, tolerating a pre-compaction duplicate).
        let mut done: BTreeMap<usize, PointOutcome> = BTreeMap::new();
        let journal = match &config.checkpoint {
            Some(path) => {
                let (journal, lines, _) = Journal::open(path, &config.header(points.len()))?;
                for line in &lines {
                    let (i, outcome) = parse_record(line)?;
                    if i >= points.len() {
                        return Err(SweepError::Checkpoint(format!(
                            "record for point {i} outside the {}-point grid",
                            points.len()
                        )));
                    }
                    done.insert(i, outcome);
                }
                Some(Mutex::new(journal.with_sync(config.sync)))
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
            worker_threads(missing.len())
        } else {
            config.threads
        };
        let fresh: Vec<Result<FreshPoint, SweepError>> =
            parallel_map(missing.len(), threads, |k| {
                let i = missing[k];
                let started = Instant::now();
                let (outcome, version) = match self.plan(&spec_for(i)) {
                    Ok(v) => {
                        let elapsed = started.elapsed();
                        match config.candidate_budget {
                            Some(budget) if elapsed > budget => (
                                PointOutcome::Budget {
                                    elapsed_ms: elapsed.as_millis() as u64,
                                },
                                None,
                            ),
                            _ => (
                                PointOutcome::Planned {
                                    plan: v.plan.clone(),
                                    trace: v.trace.clone(),
                                },
                                Some(v),
                            ),
                        }
                    }
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
        let mut skips = Vec::new();
        for (i, &(cus, mhz)) in points.iter().enumerate() {
            let Some((outcome, version)) = outcomes.remove(&i) else {
                continue;
            };
            let planned = match (outcome, version) {
                (PointOutcome::Unreachable, _) => {
                    unreachable += 1;
                    continue;
                }
                (PointOutcome::Budget { elapsed_ms }, _) => {
                    skips.push(SweepSkip {
                        compute_units: cus,
                        frequency_mhz: mhz,
                        elapsed_ms,
                    });
                    continue;
                }
                (PointOutcome::Planned { .. }, Some(v)) => v,
                (PointOutcome::Planned { plan, trace }, None) => {
                    self.rebuild_planned(&spec_for(i), plan, trace)?
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

        // The grid is complete: compact the journal into a canonical
        // snapshot (deduplicated, sorted, atomically renamed into
        // place).
        if let (Some(_), Some(path)) = (&journal, &config.checkpoint) {
            let mut contents = config.header(points.len());
            contents.push('\n');
            // Re-read through a fresh open to fold this run's appends
            // and any pre-existing duplicates into one record per
            // point.
            let (_, lines, _) = Journal::open(path, &config.header(points.len()))?;
            let mut canonical: BTreeMap<usize, String> = BTreeMap::new();
            for line in &lines {
                let (i, outcome) = parse_record(line)?;
                canonical.insert(i, encode_record(i, &outcome));
            }
            for record in canonical.values() {
                contents.push_str(record);
                contents.push('\n');
            }
            ggpu_wal::write_snapshot(path, &contents)?;
        }

        Ok(SweepReport {
            winner: best.map(|(_, p)| p),
            evaluated,
            resumed,
            unreachable,
            skips,
        })
    }

    /// Deterministically reconstructs a [`PlannedVersion`] from its
    /// journaled recipe: regenerate the baseline, replay the plan,
    /// re-synthesize. Bit-identical to the original `plan` result
    /// (`rebuild_replays_the_recipe` pins the netlist identity).
    fn rebuild_planned(
        &self,
        spec: &Specification,
        plan: OptimizationPlan,
        trace: Vec<String>,
    ) -> Result<PlannedVersion, SweepError> {
        let config = self.config_for(spec)?;
        let mut design = self.rebuild(spec, &plan)?;
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
                let factor = factor.parse::<u32>().map_err(|_| bad(item))?;
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
        PointOutcome::Budget { elapsed_ms } => format!("p {i} budget {elapsed_ms}"),
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
        Some("budget") => PointOutcome::Budget {
            elapsed_ms: fields
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(bad)?,
        },
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
            PointOutcome::Budget { elapsed_ms: 912 },
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
            "p 0 budget notanumber",
            "p 0 ok d,only,three t=-",
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
