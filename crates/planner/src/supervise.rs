//! Flow supervision: panic isolation, per-stage deadlines, seeded
//! retries and graceful-degradation ladders around the end-to-end
//! pipeline (verify → plan → implement → fault campaign).
//!
//! The push-button promise of the paper's Fig. 2 flow is only as good
//! as its worst failure mode: a panicking worker, a livelocked stage
//! or a flaky engine must not take the whole batch down or —
//! worse — silently change the produced silicon. The [`Supervisor`]
//! runs every [`Specification`] as an isolated unit:
//!
//! * each stage executes under [`std::panic::catch_unwind`] (and, when
//!   a deadline is configured, on its own watchdog thread), so one
//!   poisoned spec cannot abort its siblings;
//! * transient failures retry with a deterministic, seeded, capped
//!   backoff; persistent ones step down a **degradation ladder**
//!   (beam → greedy search, incremental STA → uncached STA, SoA
//!   backend → scalar reference engine). Every step is recorded in a
//!   structured [`DegradationReport`] — degraded results are never
//!   silent; the design linter surfaces them as `N010` findings
//!   ([`ggpu_lint::check_supervision`]);
//! * all outcomes surface as one unified [`FlowError`] carrying the
//!   stage, the spec fingerprint, the attempt count and a
//!   retryable/fatal classification.
//!
//! A seeded chaos harness ([`FailurePlan`]) injects panics, delays and
//! I/O errors at stage boundaries to property-test exactly this
//! machinery; see `tests/chaos.rs`.
//!
//! There is no stage deadline by default: stages run inline with zero
//! thread overhead unless [`SupervisorConfig::stage_timeout`] is set.

use crate::dse::DseConfig;
use crate::flow::{parallel_map, worker_threads, GpuPlanner, ImplementedVersion, PlanError};
use crate::spec::Specification;
use ggpu_fault::{
    run_campaign, CampaignConfig, CampaignError, CampaignReport, MacroMap, Rng, Workload,
};
use ggpu_lint::DegradationStep;
use ggpu_simt::{AccelBackend, SimtConfig};
use std::collections::hash_map::DefaultHasher;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// The stages of the supervised pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowStage {
    /// Shipped-kernel verification plus a backend smoke run.
    Verify,
    /// Design-space exploration and logic synthesis.
    Plan,
    /// Physical synthesis.
    Implement,
    /// Statistical fault-injection campaign (resilient specs only).
    Campaign,
}

impl FlowStage {
    /// Stable stage name (reports, degradation steps, lint sites).
    pub fn as_str(self) -> &'static str {
        match self {
            FlowStage::Verify => "verify",
            FlowStage::Plan => "plan",
            FlowStage::Implement => "implement",
            FlowStage::Campaign => "campaign",
        }
    }

    fn index(self) -> u64 {
        match self {
            FlowStage::Verify => 0,
            FlowStage::Plan => 1,
            FlowStage::Implement => 2,
            FlowStage::Campaign => 3,
        }
    }
}

impl fmt::Display for FlowStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What went wrong inside one stage attempt.
#[derive(Debug)]
pub enum FlowErrorKind {
    /// The planning flow failed (wraps configuration, DSE, synthesis,
    /// PnR and lint errors).
    Plan(PlanError),
    /// The fault campaign failed (wraps workload, setup and
    /// checkpoint/WAL errors).
    Campaign(CampaignError),
    /// Kernel verification or the backend smoke run failed.
    Verify(String),
    /// The stage panicked; carries the rendered panic payload.
    Panic(String),
    /// The stage overran its deadline.
    Timeout {
        /// The budget that was exceeded.
        budget_ms: u64,
    },
    /// A chaos-injected I/O failure (test harness only).
    Injected(String),
}

impl FlowErrorKind {
    /// `true` if a retry of the same stage could plausibly succeed:
    /// panics, deadline overruns and injected faults are transient;
    /// planner and campaign errors are deterministic and fatal.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            FlowErrorKind::Panic(_) | FlowErrorKind::Timeout { .. } | FlowErrorKind::Injected(_)
        )
    }
}

impl fmt::Display for FlowErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowErrorKind::Plan(e) => write!(f, "{e}"),
            FlowErrorKind::Campaign(e) => write!(f, "fault campaign: {e}"),
            FlowErrorKind::Verify(m) => write!(f, "verification: {m}"),
            FlowErrorKind::Panic(m) => write!(f, "panicked: {m}"),
            FlowErrorKind::Timeout { budget_ms } => {
                write!(f, "deadline exceeded ({budget_ms} ms budget)")
            }
            FlowErrorKind::Injected(m) => write!(f, "injected fault: {m}"),
        }
    }
}

/// A unified flow failure: which stage, for which spec, after how many
/// attempts, and why.
#[derive(Debug)]
pub struct FlowError {
    /// The stage that exhausted its ladder.
    pub stage: FlowStage,
    /// `Specification::version_name` of the failing spec.
    pub spec: String,
    /// Stable fingerprint of the spec (keys chaos injection and
    /// backoff seeding).
    pub fingerprint: u64,
    /// Attempts consumed across all rungs of this stage.
    pub attempts: u32,
    /// The final underlying failure.
    pub kind: FlowErrorKind,
}

impl FlowError {
    /// `true` if the terminal failure was of a transient kind (the
    /// ladder ran out of rungs while retrying).
    pub fn retryable(&self) -> bool {
        self.kind.retryable()
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flow stage `{}` failed for {} (fingerprint {:016x}) after {} attempt(s): {}",
            self.stage, self.spec, self.fingerprint, self.attempts, self.kind
        )
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.kind {
            FlowErrorKind::Plan(e) => Some(e),
            FlowErrorKind::Campaign(e) => Some(e),
            _ => None,
        }
    }
}

/// Every fallback the supervisor took for one spec. Attached to the
/// outcome (and renderable into the datasheet via
/// [`crate::datasheet::datasheet_with_supervision`]) so degraded runs
/// are always visible.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationReport {
    /// Ladder steps taken, in order.
    pub steps: Vec<DegradationStep>,
    /// Same-rung retries consumed across all stages.
    pub retries: u32,
}

impl DegradationReport {
    /// `true` if the flow ran entirely on its first-choice engines
    /// with no retries.
    pub fn is_clean(&self) -> bool {
        self.steps.is_empty() && self.retries == 0
    }

    /// Lints the report: one `N010` finding per degradation step
    /// (warn by default; `--deny warn` turns a degraded run into a
    /// failure).
    pub fn lint(&self, name: &str, config: &ggpu_lint::LintConfig) -> ggpu_lint::Report {
        let mut report = ggpu_lint::Report::new(name);
        ggpu_lint::check_supervision(&self.steps, config, &mut report);
        report
    }
}

/// One chaos injection, as decided by a [`FailurePlan`] roll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Panic at stage entry.
    Panic,
    /// Sleep this many milliseconds before the stage body (trips the
    /// deadline when it is configured tighter).
    Delay(u64),
    /// Fail the stage with [`FlowErrorKind::Injected`].
    Io,
}

/// Seeded chaos harness: deterministically injects failures at stage
/// boundaries, keyed on `(seed, spec fingerprint, stage, attempt)` —
/// the same plan always fails the same attempts, so chaos campaigns
/// are reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailurePlan {
    /// Master seed.
    pub seed: u64,
    /// Panic probability per attempt, in permille.
    pub panic_permille: u32,
    /// Delay probability per attempt, in permille.
    pub delay_permille: u32,
    /// I/O-error probability per attempt, in permille.
    pub io_permille: u32,
    /// Upper bound of an injected delay.
    pub max_delay_ms: u64,
}

impl FailurePlan {
    /// No injections (the production configuration).
    pub fn none() -> Self {
        Self {
            seed: 0,
            panic_permille: 0,
            delay_permille: 0,
            io_permille: 0,
            max_delay_ms: 0,
        }
    }

    /// The default chaos mix: ~12 % panics, ~6 % delays, ~12 % I/O
    /// errors per stage attempt.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            panic_permille: 120,
            delay_permille: 60,
            io_permille: 120,
            max_delay_ms: 2,
        }
    }

    /// `true` if this plan can never fire.
    pub fn is_none(&self) -> bool {
        self.panic_permille == 0 && self.delay_permille == 0 && self.io_permille == 0
    }

    /// The (deterministic) injection for one stage attempt, if any.
    pub fn roll(&self, fingerprint: u64, stage: FlowStage, attempt: u32) -> Option<Injection> {
        if self.is_none() {
            return None;
        }
        let mut rng = Rng::for_trial(
            self.seed ^ fingerprint,
            (stage.index() << 32) | u64::from(attempt),
        );
        let draw = (rng.next_u64() % 1000) as u32;
        if draw < self.panic_permille {
            Some(Injection::Panic)
        } else if draw < self.panic_permille + self.delay_permille {
            Some(Injection::Delay(rng.next_u64() % (self.max_delay_ms + 1)))
        } else if draw < self.panic_permille + self.delay_permille + self.io_permille {
            Some(Injection::Io)
        } else {
            None
        }
    }
}

/// Supervisor policy.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Per-stage deadline. `None` (the default) runs stages inline with
    /// no watchdog thread.
    pub stage_timeout: Option<Duration>,
    /// Same-rung retries after the first attempt (transient failures
    /// only).
    pub max_retries: u32,
    /// Base of the exponential retry backoff, milliseconds. `0` (the
    /// default) retries immediately — deterministic tests stay fast.
    pub backoff_base_ms: u64,
    /// Backoff cap, milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed of the backoff jitter (and of any chaos plan keyed off
    /// this supervisor).
    pub seed: u64,
    /// First-choice DSE search (`beam_width > 1` enables the
    /// beam → greedy rung).
    pub dse: DseConfig,
    /// First-choice execution backend of the verify smoke run (the
    /// SoA → scalar rung).
    pub backend: AccelBackend,
    /// Trials of the per-spec fault campaign; `0` (the default) skips
    /// the campaign stage. Only specs with a resilience policy run it.
    pub campaign_trials: u32,
    /// Chaos harness (tests only; [`FailurePlan::none`] in
    /// production).
    pub chaos: FailurePlan,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            stage_timeout: None,
            max_retries: 2,
            backoff_base_ms: 0,
            backoff_cap_ms: 1_000,
            seed: 0,
            dse: DseConfig::default(),
            backend: AccelBackend::Soa,
            campaign_trials: 0,
            chaos: FailurePlan::none(),
        }
    }
}

impl SupervisorConfig {
    /// The capped exponential backoff before retry `attempt`
    /// (1-based), with deterministic seeded jitter.
    pub fn backoff_ms(&self, fingerprint: u64, attempt: u32) -> u64 {
        if self.backoff_base_ms == 0 || attempt == 0 {
            return 0;
        }
        let exp = self
            .backoff_base_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.backoff_cap_ms);
        let mut rng = Rng::for_trial(self.seed ^ fingerprint, u64::from(attempt));
        // Jitter in [exp/2, exp].
        (exp / 2) + rng.next_u64() % (exp / 2 + 1)
    }
}

/// A spec that survived the supervised pipeline.
#[derive(Debug, Clone)]
pub struct SupervisedVersion {
    /// The implemented version — bit-identical to the unsupervised
    /// flow's whenever no ladder rung changed an engine with
    /// result-visible behavior.
    pub version: ImplementedVersion,
    /// Fault-campaign report, when the campaign stage ran.
    pub campaign: Option<CampaignReport>,
    /// Every fallback and retry the supervisor took. Empty on a clean
    /// run.
    pub degradations: DegradationReport,
}

/// Stable fingerprint of a specification (version name + ceilings +
/// resilience target). Keys chaos injection, backoff jitter and
/// campaign seeds; independent of pointer identity and build.
pub fn spec_fingerprint(spec: &Specification) -> u64 {
    let mut h = DefaultHasher::new();
    spec.version_name().hash(&mut h);
    spec.max_area_mm2.map(f64::to_bits).hash(&mut h);
    spec.max_power_w.map(f64::to_bits).hash(&mut h);
    format!("{:?}", spec.resilience).hash(&mut h);
    h.finish()
}

/// One rung of a stage's degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// Verify smoke on this backend.
    Backend(AccelBackend),
    /// Plan with this beam width and STA caching mode.
    Search { beam_width: usize, cached_sta: bool },
    /// Implement (single-rung ladder; retry only).
    Implement,
    /// Campaign (single-rung ladder; retry only).
    Campaign,
}

impl Rung {
    fn name(self) -> String {
        match self {
            Rung::Backend(AccelBackend::Scalar) => "scalar backend".into(),
            Rung::Backend(_) => "SoA backend".into(),
            Rung::Search {
                beam_width,
                cached_sta,
            } => {
                let search = if beam_width > 1 { "beam" } else { "greedy" };
                let sta = if cached_sta {
                    "incremental STA"
                } else {
                    "uncached STA"
                };
                format!("{search} search + {sta}")
            }
            Rung::Implement => "shelf placer".into(),
            Rung::Campaign => "fault campaign".into(),
        }
    }
}

/// The supervised end-to-end flow.
#[derive(Debug, Clone)]
pub struct Supervisor {
    planner: GpuPlanner,
    config: SupervisorConfig,
}

impl Supervisor {
    /// A supervisor over `planner` with the default policy
    /// ([`SupervisorConfig::default`]: no stage deadline).
    pub fn new(planner: GpuPlanner) -> Self {
        Self {
            planner,
            config: SupervisorConfig::default(),
        }
    }

    /// Overrides the supervision policy.
    pub fn with_config(mut self, config: SupervisorConfig) -> Self {
        self.config = config;
        self
    }

    /// The supervision policy in effect.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Runs every spec through the supervised pipeline, in parallel on
    /// [`worker_threads`] scoped workers, each spec an isolated unit:
    /// a panic, deadline overrun or hard error in one spec never
    /// affects its siblings. Results come back in spec order.
    pub fn run(&self, specs: &[Specification]) -> Vec<Result<SupervisedVersion, FlowError>> {
        parallel_map(specs.len(), worker_threads(specs.len()), |i| {
            self.run_spec(&specs[i])
        })
    }

    /// Runs one spec through verify → plan → implement → campaign.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] when a stage exhausts its retry budget on
    /// every rung of its degradation ladder.
    pub fn run_spec(&self, spec: &Specification) -> Result<SupervisedVersion, FlowError> {
        let fp = spec_fingerprint(spec);
        let mut degradations = DegradationReport::default();

        // Stage 1: verify (SoA → scalar ladder).
        let verify_rungs: Vec<Rung> = match self.config.backend {
            AccelBackend::Scalar => vec![Rung::Backend(AccelBackend::Scalar)],
            b => vec![Rung::Backend(b), Rung::Backend(AccelBackend::Scalar)],
        };
        self.ladder(
            spec,
            fp,
            FlowStage::Verify,
            &verify_rungs,
            &mut degradations,
            |rung| {
                let Rung::Backend(backend) = rung else {
                    unreachable!("verify ladder holds backend rungs")
                };
                verify_kernels(backend)
            },
        )?;

        // Stage 2: plan (beam → greedy, incremental STA → uncached STA).
        let mut plan_rungs = Vec::new();
        let beam = self.config.dse.beam_width;
        if beam > 1 {
            plan_rungs.push(Rung::Search {
                beam_width: beam,
                cached_sta: true,
            });
        }
        plan_rungs.push(Rung::Search {
            beam_width: 1,
            cached_sta: true,
        });
        plan_rungs.push(Rung::Search {
            beam_width: 1,
            cached_sta: false,
        });
        let planned = self.ladder(spec, fp, FlowStage::Plan, &plan_rungs, &mut degradations, {
            let planner = self.planner.clone();
            let spec = *spec;
            move |rung| {
                let Rung::Search {
                    beam_width,
                    cached_sta,
                } = rung
                else {
                    unreachable!("plan ladder holds search rungs")
                };
                let planner = if cached_sta {
                    planner.clone()
                } else {
                    // Uncached STA: a fresh passthrough table,
                    // bit-identical results by the cache contract.
                    planner
                        .clone()
                        .with_sta_cache(std::sync::Arc::new(crate::cache::StaCache::passthrough()))
                };
                planner
                    .plan_with_config(&spec, &DseConfig::with_beam_width(beam_width))
                    .map_err(FlowErrorKind::Plan)
            }
        })?;

        // Stage 3: implement (single rung: there is one placer).
        let version = self.ladder(
            spec,
            fp,
            FlowStage::Implement,
            &[Rung::Implement],
            &mut degradations,
            {
                let planner = self.planner.clone();
                let planned = planned.clone();
                move |_| planner.implement(&planned).map_err(FlowErrorKind::Plan)
            },
        )?;

        // Stage 4: campaign (resilient specs only, opt-in).
        let campaign = match (
            self.config.campaign_trials,
            self.planner.resilience_policy(spec),
        ) {
            (0, _) | (_, None) => None,
            (trials, Some(policy)) => Some(self.ladder(
                spec,
                fp,
                FlowStage::Campaign,
                &[Rung::Campaign],
                &mut degradations,
                {
                    let design = planned.design.clone();
                    let seed = self.config.seed ^ fp;
                    move |_| run_fault_campaign(&design, &policy, seed, trials)
                },
            )?),
        };

        Ok(SupervisedVersion {
            version,
            campaign,
            degradations,
        })
    }

    /// Runs one stage down its degradation ladder: retry transient
    /// failures on the same rung (seeded capped backoff), step down a
    /// rung when the budget is exhausted or the failure is
    /// deterministic, and fail with a [`FlowError`] only when the
    /// bottom rung gives out.
    fn ladder<T, F>(
        &self,
        spec: &Specification,
        fingerprint: u64,
        stage: FlowStage,
        rungs: &[Rung],
        degradations: &mut DegradationReport,
        body: F,
    ) -> Result<T, FlowError>
    where
        T: Send + 'static,
        F: Fn(Rung) -> Result<T, FlowErrorKind> + Send + Sync + Clone + 'static,
    {
        let mut attempts = 0u32;
        let mut last: Option<FlowErrorKind> = None;
        for (r, &rung) in rungs.iter().enumerate() {
            let mut rung_attempt = 0u32;
            loop {
                let injection = self.config.chaos.roll(fingerprint, stage, attempts);
                let outcome = self.isolated(stage, rung, injection, body.clone());
                attempts += 1;
                match outcome {
                    Ok(v) => return Ok(v),
                    Err(kind) => {
                        let retry = kind.retryable() && rung_attempt < self.config.max_retries;
                        last = Some(kind);
                        if retry {
                            rung_attempt += 1;
                            degradations.retries += 1;
                            let wait = self.config.backoff_ms(fingerprint, rung_attempt);
                            if wait > 0 {
                                thread::sleep(Duration::from_millis(wait));
                            }
                            continue;
                        }
                    }
                }
                // Same-rung budget exhausted (or deterministic
                // failure): step down, recording the step — a fallback
                // is never silent.
                if let Some(&next) = rungs.get(r + 1) {
                    degradations.steps.push(DegradationStep {
                        stage: stage.as_str().to_string(),
                        from: rung.name(),
                        to: next.name(),
                        reason: last
                            .as_ref()
                            .map(|k| k.to_string())
                            .unwrap_or_else(|| "unknown".into()),
                    });
                }
                break;
            }
        }
        Err(FlowError {
            stage,
            spec: spec.version_name(),
            fingerprint,
            attempts,
            kind: last.unwrap_or_else(|| FlowErrorKind::Verify("empty ladder".into())),
        })
    }

    /// Executes one stage attempt in isolation: chaos injection, panic
    /// capture and — when a deadline is configured — a watchdog thread
    /// with `recv_timeout` (the worker is detached on overrun; it
    /// finishes into the void).
    fn isolated<T, F>(
        &self,
        stage: FlowStage,
        rung: Rung,
        injection: Option<Injection>,
        body: F,
    ) -> Result<T, FlowErrorKind>
    where
        T: Send + 'static,
        F: FnOnce(Rung) -> Result<T, FlowErrorKind> + Send + 'static,
    {
        let attempt = move || -> Result<T, FlowErrorKind> {
            match injection {
                Some(Injection::Panic) => panic!("chaos: injected panic at stage `{stage}`"),
                Some(Injection::Delay(ms)) => thread::sleep(Duration::from_millis(ms)),
                Some(Injection::Io) => {
                    return Err(FlowErrorKind::Injected(format!(
                        "chaos: injected I/O failure at stage `{stage}`"
                    )))
                }
                None => {}
            }
            body(rung)
        };
        match self.config.stage_timeout {
            None => catch_unwind(AssertUnwindSafe(attempt))
                .unwrap_or_else(|p| Err(FlowErrorKind::Panic(panic_message(&*p)))),
            Some(budget) => {
                let (tx, rx) = mpsc::channel();
                let spawned = thread::Builder::new()
                    .name(format!("ggpu-flow-{stage}"))
                    .spawn(move || {
                        let out = catch_unwind(AssertUnwindSafe(attempt))
                            .unwrap_or_else(|p| Err(FlowErrorKind::Panic(panic_message(&*p))));
                        let _ = tx.send(out);
                    });
                match spawned {
                    Err(e) => Err(FlowErrorKind::Verify(format!("cannot spawn stage: {e}"))),
                    Ok(_) => rx
                        .recv_timeout(budget)
                        .unwrap_or(Err(FlowErrorKind::Timeout {
                            budget_ms: budget.as_millis() as u64,
                        })),
                }
            }
        }
    }
}

/// Renders a caught panic payload as the human-readable message most
/// panics carry (`&str` or `String`), falling back to a generic label
/// for exotic payloads.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    "non-string panic payload".to_string()
}

/// The verify stage body: lint every shipped kernel through the full
/// verifier, then smoke-run the copy kernel on `backend` and check the
/// output against the architectural golden.
///
/// Public so an unsupervised baseline (e.g. perfbench's `gen_flow`)
/// can run the exact same stage work without the supervision
/// machinery around it.
pub fn verify_kernels(backend: AccelBackend) -> Result<(), FlowErrorKind> {
    for report in ggpu_lint::verify_shipped(&ggpu_lint::LintConfig::new()) {
        if report.denial_count() > 0 {
            return Err(FlowErrorKind::Verify(format!(
                "shipped kernel denied: {report}"
            )));
        }
    }
    let copy = ggpu_kernels::bench::all()[1];
    let workload = Workload::from_bench(&copy, 64)
        .map_err(|e| FlowErrorKind::Verify(format!("smoke workload: {e}")))?;
    let sim = SimtConfig::default().with_backend(backend);
    let mut gpu = workload
        .fresh_gpu(sim)
        .map_err(|e| FlowErrorKind::Verify(format!("smoke gpu: {e}")))?;
    gpu.launch(workload.kernel(), workload.launch())
        .map_err(|e| FlowErrorKind::Verify(format!("smoke launch: {e}")))?;
    let out = workload
        .read_output(&gpu)
        .map_err(|e| FlowErrorKind::Verify(format!("smoke readback: {e}")))?;
    if out != workload.golden() {
        return Err(FlowErrorKind::Verify(format!(
            "smoke output diverges from golden on `{}` backend",
            match backend {
                AccelBackend::Scalar => "scalar",
                _ => "soa",
            }
        )));
    }
    Ok(())
}

/// The campaign stage body: a seeded single-fault campaign over the
/// optimized netlist's macro map.
fn run_fault_campaign(
    design: &ggpu_netlist::Design,
    policy: &ggpu_netlist::EccPolicy,
    seed: u64,
    trials: u32,
) -> Result<CampaignReport, FlowErrorKind> {
    let map = MacroMap::from_design(design, policy)
        .map_err(|e| FlowErrorKind::Verify(format!("macro map: {e}")))?;
    let copy = ggpu_kernels::bench::all()[1];
    let workload = Workload::from_bench(&copy, 256)
        .map_err(|e| FlowErrorKind::Campaign(CampaignError::Workload(e)))?;
    let cfg = CampaignConfig::new(seed, trials);
    run_campaign(&workload, &map, &cfg).map_err(FlowErrorKind::Campaign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_tech::units::Mhz;
    use ggpu_tech::Tech;

    fn supervisor() -> Supervisor {
        Supervisor::new(GpuPlanner::new(Tech::l65()))
    }

    #[test]
    fn clean_run_matches_the_plain_flow_bit_for_bit() {
        let planner = GpuPlanner::new(Tech::l65());
        let spec = Specification::new(1, Mhz::new(590.0));
        let plain = planner.implement(&planner.plan(&spec).unwrap()).unwrap();
        let supervised = supervisor().run_spec(&spec).unwrap();
        assert!(supervised.degradations.is_clean());
        assert!(supervised.campaign.is_none());
        assert_eq!(supervised.version, plain);
    }

    #[test]
    fn bad_spec_frequencies_are_plan_errors_not_panics() {
        // `Mhz::period` panics on 0, negative and NaN, and +inf prices
        // to infinite area and power: all four are refused up front.
        let sup = supervisor();
        let planner = GpuPlanner::new(Tech::l65());
        for mhz in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let spec = Specification::new(1, Mhz::new(mhz));
            let frequency_error = |e: &PlanError| match e {
                PlanError::Frequency(f) => f.value().to_bits() == mhz.to_bits(),
                _ => false,
            };
            let err = planner.plan(&spec).unwrap_err();
            assert!(frequency_error(&err), "plan at {mhz}: {err}");
            let err = planner.estimate(&spec).unwrap_err();
            assert!(frequency_error(&err), "estimate at {mhz}: {err}");
            let err = sup.run_spec(&spec).unwrap_err();
            assert_eq!(err.stage, FlowStage::Plan, "{mhz}: {err}");
            assert!(
                matches!(&err.kind, FlowErrorKind::Plan(e) if frequency_error(e)),
                "{mhz}: {err}"
            );
        }
    }

    #[test]
    fn injected_io_failures_exhaust_the_ladder() {
        // An I/O error on every attempt: both verify rungs burn their
        // full retry budget and the stage surfaces a retryable
        // FlowError with the exact attempt accounting.
        let cfg = SupervisorConfig {
            stage_timeout: None,
            chaos: FailurePlan {
                seed: 7,
                panic_permille: 0,
                delay_permille: 0,
                io_permille: 1000,
                max_delay_ms: 0,
            },
            ..SupervisorConfig::default()
        };
        let sup = supervisor().with_config(cfg);
        let err = sup
            .run_spec(&Specification::new(1, Mhz::new(500.0)))
            .unwrap_err();
        assert_eq!(err.stage, FlowStage::Verify);
        assert!(err.retryable());
        // 2 rungs x (1 attempt + 2 retries).
        assert_eq!(err.attempts, 6);
        assert!(err.to_string().contains("injected I/O failure"));
    }

    #[test]
    fn chaos_rolls_are_deterministic() {
        let plan = FailurePlan::seeded(42);
        for stage in [
            FlowStage::Verify,
            FlowStage::Plan,
            FlowStage::Implement,
            FlowStage::Campaign,
        ] {
            for attempt in 0..8 {
                assert_eq!(
                    plan.roll(0xABCD, stage, attempt),
                    plan.roll(0xABCD, stage, attempt)
                );
            }
        }
        // Different fingerprints decorrelate.
        let a: Vec<_> = (0..32).map(|i| plan.roll(1, FlowStage::Plan, i)).collect();
        let b: Vec<_> = (0..32).map(|i| plan.roll(2, FlowStage::Plan, i)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn backoff_is_capped_and_seeded() {
        let mut cfg = SupervisorConfig {
            backoff_base_ms: 10,
            backoff_cap_ms: 40,
            ..SupervisorConfig::default()
        };
        for attempt in 1..10 {
            let ms = cfg.backoff_ms(0x1234, attempt);
            assert!(ms <= 40, "attempt {attempt} backed off {ms} ms");
            assert_eq!(ms, cfg.backoff_ms(0x1234, attempt), "deterministic");
        }
        assert_eq!(cfg.backoff_ms(0x1234, 0), 0);
        cfg.backoff_base_ms = 0;
        assert_eq!(cfg.backoff_ms(0x1234, 3), 0, "zero base disables backoff");
    }

    #[test]
    fn timeout_surfaces_as_a_retryable_flow_error() {
        // A 1 ns budget expires before any real stage work can land on
        // the channel, deterministically tripping the watchdog.
        let cfg = SupervisorConfig {
            stage_timeout: Some(Duration::from_nanos(1)),
            max_retries: 0,
            chaos: FailurePlan::none(),
            ..SupervisorConfig::default()
        };
        let sup = supervisor().with_config(cfg);
        let err = sup
            .run_spec(&Specification::new(1, Mhz::new(500.0)))
            .unwrap_err();
        assert_eq!(err.stage, FlowStage::Verify);
        assert!(matches!(err.kind, FlowErrorKind::Timeout { budget_ms: 0 }));
        assert!(err.retryable());
        assert_eq!(err.attempts, 2, "one attempt per rung, no retries");
    }

    #[test]
    fn panic_messages_render_str_and_string_payloads() {
        let p = catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "plain str");
        let p = catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
        let p = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }

    #[test]
    fn degradation_report_lints_as_n010() {
        let mut report = DegradationReport::default();
        report.steps.push(DegradationStep {
            stage: "plan".into(),
            from: "beam search + incremental STA".into(),
            to: "greedy search + incremental STA".into(),
            reason: "panicked: boom".into(),
        });
        let lint = report.lint("t", &ggpu_lint::LintConfig::new());
        assert!(lint.has(ggpu_lint::Code::N010));
        assert!(!report.is_clean());
        assert!(DegradationReport::default().is_clean());
    }
}
