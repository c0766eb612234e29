//! Chaos property suite for the flow supervisor: hundreds of seeded
//! fault-injection campaigns against the end-to-end pipeline, pinning
//! the supervision contract — nothing is silently lost, every
//! degradation is reported, and whenever every rung that ran is
//! bit-identical the supervised result equals the plain flow's.

use ggpu_tech::units::Mhz;
use ggpu_tech::Tech;
use gpuplanner::{
    datasheet, datasheet_with_supervision, FailurePlan, GpuPlanner, Specification, Supervisor,
    SupervisorConfig,
};

const CAMPAIGNS: u64 = 200;

fn chaos_config(seed: u64) -> SupervisorConfig {
    SupervisorConfig {
        // Pin the policy regardless of the defaults.
        stage_timeout: None,
        max_retries: 2,
        backoff_base_ms: 0,
        seed,
        chaos: FailurePlan::seeded(seed),
        ..SupervisorConfig::default()
    }
}

/// The verify stage's fallback (the scalar backend) checks the same
/// kernels and the plan and implement stages have one rung each, so
/// *any* surviving outcome must equal the unsupervised flow's — chaos
/// can slow the flow down or kill it, never change its silicon.
#[test]
fn chaos_campaigns_never_lose_or_corrupt_results() {
    let planner = GpuPlanner::new(Tech::l65());
    let spec = Specification::new(1, Mhz::new(500.0));
    let baseline = planner.implement(&planner.plan(&spec).unwrap()).unwrap();

    let mut survived = 0u64;
    let mut killed = 0u64;
    let mut degraded_runs = 0u64;
    let mut retried_runs = 0u64;
    for seed in 0..CAMPAIGNS {
        let sup = Supervisor::new(planner.clone()).with_config(chaos_config(seed));
        match sup.run_spec(&spec) {
            Ok(out) => {
                survived += 1;
                // Nothing corrupted: bit-identical to the plain flow.
                assert_eq!(out.version, baseline, "seed {seed} changed the result");
                assert_eq!(
                    datasheet(&out.version),
                    datasheet(&baseline),
                    "seed {seed} changed the datasheet"
                );
                // Every degradation is structured and reported.
                if !out.degradations.steps.is_empty() {
                    degraded_runs += 1;
                    for step in &out.degradations.steps {
                        assert!(!step.stage.is_empty() && !step.reason.is_empty());
                        assert_ne!(step.from, step.to, "seed {seed}: no-op ladder step");
                    }
                    let lint = out
                        .degradations
                        .lint(&spec.version_name(), &ggpu_lint::LintConfig::new());
                    assert_eq!(
                        lint.diagnostics.len(),
                        out.degradations.steps.len(),
                        "seed {seed}: one N010 finding per step"
                    );
                    assert!(lint.has(ggpu_lint::Code::N010));
                    // ...and it reaches the datasheet.
                    let sheet = datasheet_with_supervision(&out.version, &out.degradations);
                    assert!(sheet.contains("flow supervision:"), "seed {seed}");
                    assert!(sheet.starts_with(&datasheet(&out.version)), "seed {seed}");
                }
                if out.degradations.retries > 0 {
                    retried_runs += 1;
                }
            }
            Err(err) => {
                killed += 1;
                // A campaign only dies after the whole ladder is
                // exhausted on retryable failures: the attempt
                // accounting must show a full budget spent on every
                // rung (1 attempt + 2 retries per rung).
                assert!(
                    err.retryable(),
                    "seed {seed}: chaos injects transients only"
                );
                let rungs = match err.stage {
                    gpuplanner::FlowStage::Verify => 2,
                    gpuplanner::FlowStage::Plan => 1,
                    gpuplanner::FlowStage::Implement => 1,
                };
                assert_eq!(err.attempts, rungs * 3, "seed {seed}: {err}");
                assert!(err.to_string().contains(&spec.version_name()));
            }
        }
    }
    // Accounting: every campaign resolved one way or the other.
    assert_eq!(survived + killed, CAMPAIGNS);
    // The chaos mix (~24 % per attempt) must actually exercise the
    // machinery: plenty of retried runs, some ladder degradations,
    // and most campaigns surviving.
    assert!(survived > CAMPAIGNS / 2, "only {survived} survived");
    assert!(retried_runs > 10, "only {retried_runs} campaigns retried");
    assert!(degraded_runs > 0, "no campaign degraded");
}

/// Chaos campaigns are reproducible: the same seed takes the same
/// path — same outcome, same degradation record, same attempts.
#[test]
fn chaos_campaigns_are_deterministic_per_seed() {
    let planner = GpuPlanner::new(Tech::l65());
    let spec = Specification::new(1, Mhz::new(500.0));
    for seed in [3, 17, 99] {
        let a = Supervisor::new(planner.clone())
            .with_config(chaos_config(seed))
            .run_spec(&spec);
        let b = Supervisor::new(planner.clone())
            .with_config(chaos_config(seed))
            .run_spec(&spec);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.version, y.version, "seed {seed}");
                assert_eq!(x.degradations, y.degradations, "seed {seed}");
            }
            (Err(x), Err(y)) => {
                assert_eq!(x.to_string(), y.to_string(), "seed {seed}");
                assert_eq!(x.attempts, y.attempts, "seed {seed}");
            }
            (x, y) => panic!("seed {seed} diverged: {x:?} vs {y:?}"),
        }
    }
}

/// With no chaos, supervision is invisible: the paper's physical
/// versions come out byte-identical to the unsupervised flow, clean
/// degradation reports, datasheets unchanged down to the last byte.
#[test]
fn supervised_flow_is_byte_identical_when_no_fault_fires() {
    let planner = GpuPlanner::new(Tech::l65());
    let specs = gpuplanner::physical_versions();
    let supervisor = Supervisor::new(planner.clone());
    let supervised = supervisor.run(&specs);
    assert_eq!(supervised.len(), specs.len());
    for (spec, outcome) in specs.iter().zip(supervised) {
        let out = outcome.unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert!(out.degradations.is_clean(), "{spec}");
        let plain = planner.implement(&planner.plan(spec).unwrap()).unwrap();
        assert_eq!(out.version, plain, "{spec}");
        // A clean run adds nothing to the datasheet.
        assert_eq!(
            datasheet_with_supervision(&out.version, &out.degradations),
            datasheet(&plain),
            "{spec}"
        );
    }
}
