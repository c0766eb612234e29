//! Flow supervision: panic isolation, per-stage deadlines, seeded
//! retries and a graceful-degradation ladder around the end-to-end
//! pipeline (verify → plan → implement).
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
//! * transient failures retry on the same rung with a deterministic,
//!   seeded, capped backoff. Plan and implement have one rung each;
//!   the verify stage's **degradation ladder** steps from the SoA
//!   backend down to the scalar reference engine, the one fallback
//!   that runs other code. Every step is recorded in a structured
//!   [`DegradationReport`] — degraded results are never
//!   silent; the design linter surfaces them as `N010` findings
//!   ([`ggpu_lint::check_supervision`]);
//! * all outcomes surface as one unified [`FlowError`] carrying the
//!   stage, the spec fingerprint, the attempt count and a
//!   retryable/fatal classification.
//!
//! A seeded chaos harness ([`FailurePlan`]) injects panics and I/O
//! errors at stage boundaries to property-test exactly this machinery;
//! see `tests/chaos.rs`.
//!
//! There is no stage deadline by default: stages run inline with zero
//! thread overhead unless [`SupervisorConfig::stage_timeout`] is set.
//!
//! The verify stage checks nothing spec-specific. A supervisor and its
//! clones share a session memo of the backends whose [`verify_kernels`]
//! passed, and a spec whose backend is in it skips the stage body; only
//! concurrent specs that miss together each run it. Chaos injection and
//! retries still act on every spec's verify stage, and failures are
//! never recorded.

use crate::flow::{parallel_map, GpuPlanner, ImplementedVersion, PlanError};
use crate::spec::Specification;
use ggpu_fault::{Rng, Workload};
use ggpu_kernels::suite_threads;
use ggpu_lint::DegradationStep;
use ggpu_simt::{AccelBackend, SimtConfig};
use std::collections::hash_map::DefaultHasher;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

/// The stages of the supervised pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowStage {
    /// Shipped-kernel verification plus a backend smoke run, done once
    /// per backend per [`Supervisor`] session.
    Verify,
    /// Design-space exploration and logic synthesis.
    Plan,
    /// Physical synthesis.
    Implement,
}

impl FlowStage {
    /// Stable stage name (reports, degradation steps, lint sites).
    pub fn as_str(self) -> &'static str {
        match self {
            FlowStage::Verify => "verify",
            FlowStage::Plan => "plan",
            FlowStage::Implement => "implement",
        }
    }

    fn index(self) -> u64 {
        match self {
            FlowStage::Verify => 0,
            FlowStage::Plan => 1,
            FlowStage::Implement => 2,
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
    /// planner and verification errors are deterministic and fatal.
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
    /// I/O-error probability per attempt, in permille.
    pub io_permille: u32,
}

impl FailurePlan {
    /// No injections (the production configuration).
    pub fn none() -> Self {
        Self {
            seed: 0,
            panic_permille: 0,
            io_permille: 0,
        }
    }

    /// The default chaos mix: ~12 % panics and ~12 % I/O errors per
    /// stage attempt.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            panic_permille: 120,
            io_permille: 120,
        }
    }

    /// `true` if this plan can never fire.
    pub fn is_none(&self) -> bool {
        self.panic_permille == 0 && self.io_permille == 0
    }

    /// The (deterministic) injection for one stage attempt, if any.
    /// Every field may take its full range: the permille thresholds
    /// saturate.
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
        } else if draw < self.panic_permille.saturating_add(self.io_permille) {
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
    /// Seed of the backoff jitter, mixed with the spec fingerprint.
    pub seed: u64,
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
    /// Every fallback and retry the supervisor took. Empty on a clean
    /// run.
    pub degradations: DegradationReport,
}

/// Stable fingerprint of a specification (version name + ceilings).
/// Keys chaos injection and backoff jitter; independent of pointer
/// identity and build.
pub fn spec_fingerprint(spec: &Specification) -> u64 {
    let mut h = DefaultHasher::new();
    spec.version_name().hash(&mut h);
    spec.max_area_mm2.map(f64::to_bits).hash(&mut h);
    spec.max_power_w.map(f64::to_bits).hash(&mut h);
    h.finish()
}

/// One rung of a stage's degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// Verify smoke on this backend.
    Backend(AccelBackend),
    /// Plan (single-rung ladder; retry only).
    Search,
    /// Implement (single-rung ladder; retry only).
    Implement,
}

impl Rung {
    fn name(self) -> &'static str {
        match self {
            Rung::Backend(AccelBackend::Scalar) => "scalar backend",
            Rung::Backend(_) => "SoA backend",
            Rung::Search => "greedy search",
            Rung::Implement => "shelf placer",
        }
    }
}

/// The verify stage's ladder: the SoA backend, then the scalar
/// reference engine.
const VERIFY_RUNGS: [Rung; 2] = [
    Rung::Backend(AccelBackend::Soa),
    Rung::Backend(AccelBackend::Scalar),
];

/// The supervised end-to-end flow. Clones share the planner's STA
/// cache and the session's record of verified backends.
#[derive(Debug, Clone)]
pub struct Supervisor {
    planner: GpuPlanner,
    config: SupervisorConfig,
    /// Backends whose verify body has passed in this session.
    verified: Arc<Mutex<Vec<AccelBackend>>>,
}

impl Supervisor {
    /// A supervisor over `planner` with the default policy
    /// ([`SupervisorConfig::default`]: no stage deadline).
    pub fn new(planner: GpuPlanner) -> Self {
        Self {
            planner,
            config: SupervisorConfig::default(),
            verified: Arc::default(),
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
    /// [`suite_threads`] scoped workers, each spec an isolated unit:
    /// a panic, deadline overrun or hard error in one spec never
    /// affects its siblings. Results come back in spec order.
    pub fn run(&self, specs: &[Specification]) -> Vec<Result<SupervisedVersion, FlowError>> {
        parallel_map(specs.len(), suite_threads(specs.len()), |i| {
            self.run_spec(&specs[i])
        })
    }

    /// Runs one spec through verify → plan → implement.
    /// The verify stage's body is a no-op for a backend that already
    /// passed it in this session; chaos rolls and retries still apply.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] when a stage exhausts its retry budget on
    /// every rung of its degradation ladder.
    pub fn run_spec(&self, spec: &Specification) -> Result<SupervisedVersion, FlowError> {
        let fp = spec_fingerprint(spec);
        let mut degradations = DegradationReport::default();

        // Stage 1: verify (SoA → scalar ladder), once per backend.
        self.ladder(
            spec,
            fp,
            FlowStage::Verify,
            &VERIFY_RUNGS,
            &mut degradations,
            {
                let verified = Arc::clone(&self.verified);
                move |rung| {
                    let Rung::Backend(backend) = rung else {
                        unreachable!("verify ladder holds backend rungs")
                    };
                    verify_once(&verified, backend, verify_kernels)
                }
            },
        )?;

        // Stage 2: plan (single rung: the greedy search over the
        // planner's STA cache).
        let planned = self.ladder(
            spec,
            fp,
            FlowStage::Plan,
            &[Rung::Search],
            &mut degradations,
            {
                let planner = self.planner.clone();
                let spec = *spec;
                move |_| planner.plan(&spec).map_err(FlowErrorKind::Plan)
            },
        )?;

        // Stage 3: implement (single rung: there is one placer).
        let version = self.ladder(
            spec,
            fp,
            FlowStage::Implement,
            &[Rung::Implement],
            &mut degradations,
            {
                let planner = self.planner.clone();
                move |_| planner.implement(&planned).map_err(FlowErrorKind::Plan)
            },
        )?;

        Ok(SupervisedVersion {
            version,
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
                        from: rung.name().to_string(),
                        to: next.name().to_string(),
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
/// Nothing in it depends on the spec, so a [`Supervisor`] session runs
/// it once per backend: after it has passed on a backend, later specs
/// on that backend skip it (concurrent specs that miss together each
/// run it). Public so an unsupervised baseline (e.g. perfbench's
/// `gen_flow`) can run the exact same stage work without the
/// supervision machinery around it.
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

/// Runs `verify` on `backend` unless `verified` already holds it, and
/// records `backend` only when `verify` passes. Two callers that miss
/// at once both verify; the record still holds `backend` once.
fn verify_once(
    verified: &Mutex<Vec<AccelBackend>>,
    backend: AccelBackend,
    verify: impl FnOnce(AccelBackend) -> Result<(), FlowErrorKind>,
) -> Result<(), FlowErrorKind> {
    // The only update is one push of a `Copy` value, so a poisoned
    // lock still guards a valid list.
    let lock = || verified.lock().unwrap_or_else(PoisonError::into_inner);
    if lock().contains(&backend) {
        return Ok(());
    }
    verify(backend)?;
    let mut done = lock();
    if !done.contains(&backend) {
        done.push(backend);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_tech::units::Mhz;
    use ggpu_tech::Tech;

    fn supervisor() -> Supervisor {
        Supervisor::new(GpuPlanner::new(Tech::l65()))
    }

    fn verified(sup: &Supervisor) -> Vec<AccelBackend> {
        sup.verified.lock().expect("verify memo").clone()
    }

    #[test]
    fn clean_run_matches_the_plain_flow_bit_for_bit() {
        let planner = GpuPlanner::new(Tech::l65());
        let spec = Specification::new(1, Mhz::new(590.0));
        let plain = planner.implement(&planner.plan(&spec).unwrap()).unwrap();
        let supervised = supervisor().run_spec(&spec).unwrap();
        assert!(supervised.degradations.is_clean());
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
                io_permille: 1000,
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
    fn a_session_verifies_each_backend_once() {
        let sup = supervisor();
        let early_clone = sup.clone();
        assert!(
            verified(&sup).is_empty(),
            "a fresh supervisor records nothing"
        );
        sup.run_spec(&Specification::new(1, Mhz::new(500.0)))
            .unwrap();
        assert_eq!(verified(&sup), [AccelBackend::Soa]);
        sup.run_spec(&Specification::new(2, Mhz::new(500.0)))
            .unwrap();
        assert_eq!(
            verified(&sup),
            [AccelBackend::Soa],
            "a second spec adds nothing"
        );
        // A clone taken before the first run shares the record.
        assert_eq!(verified(&early_clone), [AccelBackend::Soa]);
    }

    #[test]
    fn failed_verify_stages_record_nothing() {
        let io_every_attempt = SupervisorConfig {
            chaos: FailurePlan {
                seed: 7,
                panic_permille: 0,
                io_permille: 1000,
            },
            ..SupervisorConfig::default()
        };
        let sup = supervisor().with_config(io_every_attempt);
        let spec = Specification::new(1, Mhz::new(500.0));
        let err = sup.run_spec(&spec).unwrap_err();
        assert_eq!(err.stage, FlowStage::Verify);
        assert_eq!(err.attempts, 6);
        assert!(
            verified(&sup).is_empty(),
            "an injected failure was recorded"
        );
        // The same session without chaos verifies for real.
        let sup = sup.with_config(SupervisorConfig::default());
        assert!(sup.run_spec(&spec).unwrap().degradations.is_clean());
        assert_eq!(verified(&sup), [AccelBackend::Soa]);
    }

    #[test]
    fn concurrent_specs_record_a_backend_once() {
        let sup = supervisor();
        let specs = [1, 2].map(|cus| Specification::new(cus, Mhz::new(500.0)));
        // `Supervisor::run` on two workers, whatever `GGPU_THREADS` says.
        for out in parallel_map(specs.len(), 2, |i| sup.run_spec(&specs[i])) {
            assert!(out.unwrap().degradations.is_clean());
        }
        assert_eq!(verified(&sup), [AccelBackend::Soa]);
    }

    #[test]
    fn verify_once_records_only_passes_and_dedups_racing_callers() {
        let memo = Mutex::new(Vec::new());
        let fail = |_| Err(FlowErrorKind::Verify("smoke output diverges".into()));
        assert!(verify_once(&memo, AccelBackend::Soa, fail).is_err());
        assert!(memo.lock().unwrap().is_empty(), "a failure was recorded");
        // Both callers miss, then both pass: the record holds SoA once.
        let both_missed = std::sync::Barrier::new(2);
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let passed = verify_once(&memo, AccelBackend::Soa, |_| {
                        both_missed.wait();
                        Ok(())
                    });
                    assert!(passed.is_ok());
                });
            }
        });
        assert_eq!(*memo.lock().unwrap(), [AccelBackend::Soa]);
        // A recorded backend skips `verify`; another backend runs it.
        let refuse = |_| panic!("verified twice");
        assert!(verify_once(&memo, AccelBackend::Soa, refuse).is_ok());
        assert!(verify_once(&memo, AccelBackend::Scalar, |_| Ok(())).is_ok());
        assert_eq!(
            *memo.lock().unwrap(),
            [AccelBackend::Soa, AccelBackend::Scalar]
        );
    }

    #[test]
    fn chaos_rolls_are_deterministic() {
        let plan = FailurePlan::seeded(42);
        for stage in [FlowStage::Verify, FlowStage::Plan, FlowStage::Implement] {
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
    fn full_range_failure_plans_roll_without_panicking() {
        // Edge values of every field, or a seeded random one.
        let mut rng = Rng::seeded(0xC4A05);
        let permille = |rng: &mut Rng| {
            let edges = [0, 1, 999, 1000, u32::MAX - 1, u32::MAX];
            edges
                .get(rng.usize_in(edges.len() + 1))
                .copied()
                .unwrap_or_else(|| rng.next_u64() as u32)
        };
        let stages = [FlowStage::Verify, FlowStage::Plan, FlowStage::Implement];
        for case in 0..512 {
            let plan = FailurePlan {
                seed: rng.next_u64(),
                panic_permille: permille(&mut rng),
                io_permille: permille(&mut rng),
            };
            let roll = plan.roll(rng.next_u64(), stages[case % 3], rng.next_u64() as u32);
            // A threshold of 1000 permille or more always fires.
            if plan.panic_permille >= 1000 {
                assert_eq!(roll, Some(Injection::Panic), "{plan:?}");
            }
            if plan.panic_permille.saturating_add(plan.io_permille) >= 1000 {
                assert!(roll.is_some(), "{plan:?}");
            }
        }
    }

    #[test]
    fn degradation_report_lints_as_n010() {
        let [from, to] = VERIFY_RUNGS.map(Rung::name);
        assert_eq!(from, "SoA backend");
        assert_eq!(to, "scalar backend");
        let mut report = DegradationReport::default();
        report.steps.push(DegradationStep {
            stage: "verify".into(),
            from: from.into(),
            to: to.into(),
            reason: "panicked: boom".into(),
        });
        let lint = report.lint("t", &ggpu_lint::LintConfig::new());
        assert!(lint.has(ggpu_lint::Code::N010));
        assert!(!report.is_clean());
        assert!(DegradationReport::default().is_clean());
    }
}
