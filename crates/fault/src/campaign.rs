//! Monte-Carlo SEU campaigns: many independent single-fault trials,
//! classified into the standard resilience taxonomy.
//!
//! # Determinism contract
//!
//! Trial `i`'s injection is a pure function of `(seed, i)` and the
//! macro map ([`crate::rng::Rng::for_trial`]), and the simulator is
//! deterministic, so a campaign's report is **byte-identical** across
//! thread counts and runs — `tests/campaign.rs` asserts this on the
//! serialized JSON.

use crate::map::{Geometry, MacroMap};
use crate::report::{CampaignReport, MacroAvf, OutcomeCounts};
use crate::rng::Rng;
use crate::workload::{Workload, WorkloadError};
#[cfg(test)]
use ggpu_simt::{FaultPlan, HardenedOptions};
use ggpu_simt::{Gpu, HardenedRun, Injection, InjectionOutcome, SimError, SimtConfig};
use std::fmt;
use std::panic::resume_unwind;

/// How one fault trial ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The run completed with correct output and no correction event:
    /// the upset was architecturally or logically masked (includes
    /// vacant sites and lucky mis-corrections).
    Masked,
    /// The run completed but the output differs from the golden
    /// reference: silent data corruption.
    Sdc,
    /// ECC corrected the upset and the output is correct.
    DetectedCorrected,
    /// Parity/SEC-DED flagged an uncorrectable word; the run aborted
    /// with a typed `SimError::UncorrectableFault`.
    DetectedUncorrectable,
    /// The watchdog (or the hard cycle ceiling) flagged a hung run.
    Hang,
    /// The simulator aborted with any other typed fault (bad PC,
    /// memory fault, scheduler stall...).
    Crash,
}

/// One classified trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TrialRecord {
    /// Trial index in `0..trials`.
    trial: u32,
    /// Index into the macro map of the macro hit.
    macro_idx: u32,
    /// Injection cycle.
    cycle: u64,
    /// Classification.
    outcome: Outcome,
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; together with the trial index it fully determines
    /// every injection.
    pub seed: u64,
    /// Number of independent single-fault trials.
    pub trials: u32,
    /// The simulated machine. The default configuration leaves
    /// [`SimtConfig::backend`] on `Auto`, which resolves to the SoA
    /// fast path — fault semantics are bit-identical across backends
    /// (the simt equivalence suite pins this, injection plans and
    /// watchdog included), so campaigns get the fast engine without
    /// any behavioural difference; set the backend to
    /// `AccelBackend::Scalar` to force the reference engine when
    /// bisecting.
    pub sim: SimtConfig,
    /// Livelock watchdog for every trial (and hang classification).
    pub watchdog: ggpu_simt::WatchdogConfig,
    /// Worker threads; `0` picks [`ggpu_kernels::suite_threads`]
    /// (`GGPU_THREADS` if set, otherwise the host parallelism).
    pub threads: usize,
}

impl CampaignConfig {
    /// A campaign with default machine, watchdog and threading.
    pub fn new(seed: u64, trials: u32) -> Self {
        Self {
            seed,
            trials,
            sim: SimtConfig::default(),
            watchdog: ggpu_simt::WatchdogConfig::default(),
            threads: 0,
        }
    }
}

/// Campaign-level failures (per-trial simulator faults are *outcomes*,
/// not errors).
#[derive(Debug)]
pub enum CampaignError {
    /// Preparing or golden-running the workload failed.
    Workload(WorkloadError),
    /// A trial could not even be set up (memory staging failed).
    Setup(SimError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Workload(e) => write!(f, "workload: {e}"),
            CampaignError::Setup(e) => write!(f, "trial setup: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Workload(e) => Some(e),
            CampaignError::Setup(e) => Some(e),
        }
    }
}

impl From<WorkloadError> for CampaignError {
    fn from(e: WorkloadError) -> Self {
        CampaignError::Workload(e)
    }
}

/// Runs a fault-injection campaign.
///
/// Every trial's injection is sampled up front and the trials are
/// sorted by `(cycle, trial)`. Each worker takes a contiguous run of
/// that order and forks its trials from one fault-free pass on its own
/// machine ([`Gpu::launch_forked`]), so the pass only moves forward
/// and a trial simulates only what its upset changes. The report is
/// built from the records the workers return; a worker's panic
/// resumes on the calling thread.
///
/// # Errors
///
/// Returns [`CampaignError`] on workload preparation or trial set-up
/// failure. Simulator faults *inside* trials are classified, never
/// propagated.
pub fn run_campaign(
    workload: &Workload,
    map: &MacroMap,
    cfg: &CampaignConfig,
) -> Result<CampaignReport, CampaignError> {
    // The fault-free reference runs on the first worker's machine.
    let mut first_gpu = Gpu::new(cfg.sim, workload.memory_words());
    let golden = workload.run_golden_on(&mut first_gpu)?;
    // Injections target [1, cycles): cycle 0 precedes dispatch (every
    // CU-resident site is vacant) and the final cycle post-dates the
    // last read.
    let cycle_hi = golden.cycles.max(2);
    let geom = Geometry::new(cfg.sim, workload.memory_words());

    // Trials in injection order, split into their ids (trial, macro)
    // and the injections a worker's pass forks.
    let mut planned: Vec<(u32, Planned)> = (0..cfg.trials)
        .map(|t| (t, plan_trial(map, cfg, &geom, cycle_hi, t)))
        .collect();
    planned.sort_by_key(|(t, p)| (p.injection.cycle, *t));
    let (ids, injections): (Vec<(u32, u32)>, Vec<Injection>) = planned
        .into_iter()
        .map(|(t, p)| ((t, p.macro_idx), p.injection))
        .unzip();
    let workers = match cfg.threads {
        0 => ggpu_kernels::suite_threads(ids.len()),
        n => n.min(ids.len().max(1)),
    };

    let records = std::thread::scope(|scope| {
        let mut first_gpu = Some(first_gpu);
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let run = w * ids.len() / workers..(w + 1) * ids.len() / workers;
                let (ids, injections) = (&ids[run.clone()], &injections[run]);
                let gpu = first_gpu.take();
                scope.spawn(move || {
                    let mut gpu = gpu.unwrap_or_else(|| Gpu::new(cfg.sim, workload.memory_words()));
                    let mut records = Vec::with_capacity(ids.len());
                    fork_trials(workload, cfg, &mut gpu, ids, injections, |rec| {
                        records.push(rec)
                    })?;
                    Ok(records)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect::<Result<Vec<_>, CampaignError>>()
    })?;

    Ok(build_report(workload, map, cfg, golden.cycles, &records))
}

/// One trial's seeded injection and the macro it hits.
#[derive(Debug)]
struct Planned {
    macro_idx: u32,
    injection: Injection,
}

/// Trial `trial`'s injection: a pure function of `(seed, trial)`, the
/// map and the geometry.
fn plan_trial(
    map: &MacroMap,
    cfg: &CampaignConfig,
    geom: &Geometry,
    cycle_hi: u64,
    trial: u32,
) -> Planned {
    let mut rng = Rng::for_trial(cfg.seed, u64::from(trial));
    let (macro_idx, injection) = map.sample_injection(&mut rng, geom, 1, cycle_hi);
    Planned {
        macro_idx: macro_idx as u32,
        injection,
    }
}

/// Forks `injections` (sorted by cycle; `ids[i]` is the trial and
/// macro of `injections[i]`) from one fault-free pass on `gpu`, a
/// machine built with `cfg.sim`, which it restages first; hands each
/// classified trial to `record`.
fn fork_trials(
    workload: &Workload,
    cfg: &CampaignConfig,
    gpu: &mut Gpu,
    ids: &[(u32, u32)],
    injections: &[Injection],
    mut record: impl FnMut(TrialRecord),
) -> Result<(), CampaignError> {
    if injections.is_empty() {
        return Ok(());
    }
    workload.restage(gpu).map_err(CampaignError::Setup)?;
    let mut visited = 0;
    let pass = gpu.launch_forked(
        workload.kernel(),
        workload.launch(),
        Some(cfg.watchdog),
        injections,
        |i, run, image| {
            visited += 1;
            let (trial, macro_idx) = ids[i];
            record(TrialRecord {
                trial,
                macro_idx,
                cycle: injections[i].cycle,
                outcome: classify(workload, run, workload.output_of(image)),
            });
        },
    );
    match pass {
        // Only a launch that failed validation visits nothing.
        Err(e) if visited < injections.len() => Err(CampaignError::Setup(e)),
        _ => Ok(()),
    }
}

/// How a trial ended: a typed error by kind, then the output against
/// [`Workload::golden`] (`None` when it could not be read), then
/// whether ECC corrected the upset.
fn classify(
    workload: &Workload,
    run: Result<HardenedRun, SimError>,
    output: Option<&[u32]>,
) -> Outcome {
    match run {
        Err(SimError::UncorrectableFault(_)) => Outcome::DetectedUncorrectable,
        Err(SimError::Watchdog { .. }) | Err(SimError::CycleLimit { .. }) => Outcome::Hang,
        Err(_) => Outcome::Crash,
        Ok(run) => match output {
            None => Outcome::Crash,
            Some(out) if out != workload.golden() => Outcome::Sdc,
            Some(_) if run.log.count(InjectionOutcome::Corrected) > 0 => Outcome::DetectedCorrected,
            Some(_) => Outcome::Masked,
        },
    }
}

/// Runs one planned trial from scratch on `gpu`, which it restages
/// first: the oracle the forked trials are checked against.
#[cfg(test)]
fn run_trial(workload: &Workload, cfg: &CampaignConfig, plan: &Planned, gpu: &mut Gpu) -> Outcome {
    workload.restage(gpu).expect("inputs fit");
    let opts = HardenedOptions {
        plan: FaultPlan::new(vec![plan.injection.clone()]),
        watchdog: Some(cfg.watchdog),
    };
    let run = gpu.launch_hardened(workload.kernel(), workload.launch(), &opts);
    let output = workload.read_output(gpu).ok();
    classify(workload, run, output.as_deref())
}

/// Counts the records of every worker into the report.
fn build_report(
    workload: &Workload,
    map: &MacroMap,
    cfg: &CampaignConfig,
    golden_cycles: u64,
    records: &[Vec<TrialRecord>],
) -> CampaignReport {
    let mut totals = OutcomeCounts::default();
    let mut per_macro: Vec<OutcomeCounts> = vec![OutcomeCounts::default(); map.sites().len()];
    for rec in records.iter().flatten() {
        totals.add(rec.outcome);
        if let Some(c) = per_macro.get_mut(rec.macro_idx as usize) {
            c.add(rec.outcome);
        }
    }
    let macros = map
        .sites()
        .iter()
        .zip(per_macro)
        .enumerate()
        .map(|(i, (site, counts))| MacroAvf {
            path: site.path.clone(),
            role: site.role.to_string(),
            scheme: site.scheme,
            exposure: map.exposure(i),
            counts,
        })
        .collect();
    CampaignReport {
        kernel: workload.name.to_string(),
        n: workload.n,
        seed: cfg.seed,
        trials: cfg.trials,
        compute_units: cfg.sim.compute_units,
        golden_cycles,
        counts: totals,
        macros,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trials forked from one fault-free pass classify exactly as the
    /// same trials run from scratch, each on a fresh machine: mat_mul,
    /// copy, vec_mul and fir under all three policies, on both
    /// backends. The fault-free reference ran on the forking machine
    /// first, as in `run_campaign`.
    #[test]
    fn forked_trials_match_fresh_launches() {
        use ggpu_netlist::EccPolicy;
        use ggpu_simt::AccelBackend;
        use ggpu_tech::sram::EccScheme;

        let design = ggpu_rtl::generate(&ggpu_rtl::GgpuConfig::with_cus(1).unwrap()).unwrap();
        for bench in &ggpu_kernels::bench::all()[..4] {
            let w = Workload::from_bench(bench, 128).unwrap();
            for backend in [AccelBackend::Scalar, AccelBackend::Soa] {
                for policy in [
                    EccPolicy::unprotected(),
                    EccPolicy::uniform(EccScheme::Parity),
                    EccPolicy::uniform(EccScheme::SecDed),
                ] {
                    let map = MacroMap::from_design(&design, &policy).unwrap();
                    let mut cfg = CampaignConfig::new(5, 48);
                    cfg.sim.backend = backend;
                    let mut gpu = Gpu::new(cfg.sim, w.memory_words());
                    let cycle_hi = w.run_golden_on(&mut gpu).unwrap().cycles;
                    let geom = Geometry::new(cfg.sim, w.memory_words());
                    let plans: Vec<Planned> = (0..cfg.trials)
                        .map(|t| plan_trial(&map, &cfg, &geom, cycle_hi, t))
                        .collect();
                    let mut order: Vec<u32> = (0..cfg.trials).collect();
                    order.sort_by_key(|&t| (plans[t as usize].injection.cycle, t));
                    let ids: Vec<(u32, u32)> = order
                        .iter()
                        .map(|&t| (t, plans[t as usize].macro_idx))
                        .collect();
                    let injections: Vec<Injection> = order
                        .iter()
                        .map(|&t| plans[t as usize].injection.clone())
                        .collect();
                    let mut forked = vec![None; plans.len()];
                    fork_trials(&w, &cfg, &mut gpu, &ids, &injections, |rec| {
                        assert!(forked[rec.trial as usize].replace(rec).is_none());
                    })
                    .unwrap();
                    let fresh: Vec<Option<TrialRecord>> = (0..cfg.trials)
                        .map(|t| {
                            let plan = &plans[t as usize];
                            let mut gpu = w.fresh_gpu(cfg.sim).unwrap();
                            Some(TrialRecord {
                                trial: t,
                                macro_idx: plan.macro_idx,
                                cycle: plan.injection.cycle,
                                outcome: run_trial(&w, &cfg, plan, &mut gpu),
                            })
                        })
                        .collect();
                    let what = format!("{} on {backend:?} under {policy:?}", w.name);
                    assert_eq!(forked, fresh, "{what}");
                    assert!(
                        fresh.iter().flatten().any(|r| r.outcome != Outcome::Masked),
                        "{what}: every trial masked, nothing compared"
                    );
                }
            }
        }
    }
}
