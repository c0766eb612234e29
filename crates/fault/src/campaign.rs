//! Monte-Carlo SEU campaigns: many independent single-fault trials,
//! classified into the standard resilience taxonomy.
//!
//! # Determinism contract
//!
//! Trial `i`'s injection is a pure function of `(seed, i)` and the
//! macro map ([`crate::rng::Rng::for_trial`]), and the simulator is
//! deterministic, so a campaign's report is **byte-identical** across
//! thread counts, checkpoint/resume splits and runs — the property
//! suite asserts this on the serialized JSON.
//!
//! # Checkpointing
//!
//! With [`CampaignConfig::checkpoint`] set, every finished trial
//! appends one text line to the checkpoint journal (a
//! [`ggpu_wal::Journal`], the shared write-ahead primitive). The
//! journal header names everything a trial's outcome depends on —
//! seed, kernel, grid, trial count, plus fixed digests of the macro
//! map and of the simulated machine and watchdog — so a rerun refuses
//! a journal written by any other campaign. A matching rerun skips
//! the recorded trials and completes the rest; the final report is
//! identical to an uninterrupted run. A process killed mid-append
//! leaves a torn final line, which the journal truncates away on open
//! — that trial simply re-runs — so resume after `kill -9` at *any*
//! byte is byte-identical to an uninterrupted campaign
//! (`tests/resume_prop.rs`).

use crate::map::{Geometry, MacroMap};
use crate::report::{CampaignReport, MacroAvf, OutcomeCounts};
use crate::rng::Rng;
use crate::workload::{Workload, WorkloadError};
#[cfg(test)]
use ggpu_simt::{FaultPlan, HardenedOptions};
use ggpu_simt::{Gpu, HardenedRun, Injection, InjectionOutcome, SimError, SimtConfig};
use ggpu_wal::{Journal, WalError, WalOp};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::path::PathBuf;
use std::sync::Mutex;

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

impl Outcome {
    /// Stable machine-readable name (checkpoint / JSON vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Sdc => "sdc",
            Outcome::DetectedCorrected => "detected-corrected",
            Outcome::DetectedUncorrectable => "detected-uncorrectable",
            Outcome::Hang => "hang",
            Outcome::Crash => "crash",
        }
    }

    /// Parses [`Outcome::as_str`] output.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "masked" => Outcome::Masked,
            "sdc" => Outcome::Sdc,
            "detected-corrected" => Outcome::DetectedCorrected,
            "detected-uncorrectable" => Outcome::DetectedUncorrectable,
            "hang" => Outcome::Hang,
            "crash" => Outcome::Crash,
            _ => return None,
        })
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finished trial, sufficient to rebuild its report contribution
/// without re-simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialRecord {
    /// Trial index in `0..trials`.
    pub trial: u32,
    /// Index into the macro map of the macro hit.
    pub macro_idx: u32,
    /// Injection cycle.
    pub cycle: u64,
    /// Classification.
    pub outcome: Outcome,
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
    /// Optional checkpoint file for resumable campaigns.
    pub checkpoint: Option<PathBuf>,
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
            checkpoint: None,
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
    /// Checkpoint I/O failed; the error carries the offending path
    /// and the operation that failed ([`WalError`]).
    Io(WalError),
    /// The checkpoint file does not match this campaign.
    Checkpoint(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Workload(e) => write!(f, "workload: {e}"),
            CampaignError::Setup(e) => write!(f, "trial setup: {e}"),
            CampaignError::Io(e) => write!(f, "checkpoint io: {e}"),
            CampaignError::Checkpoint(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Io(e) => Some(e),
            CampaignError::Workload(e) => Some(e),
            CampaignError::Setup(e) => Some(e),
            CampaignError::Checkpoint(_) => None,
        }
    }
}

impl From<WorkloadError> for CampaignError {
    fn from(e: WorkloadError) -> Self {
        CampaignError::Workload(e)
    }
}

impl From<WalError> for CampaignError {
    /// A journal-open failure whose header was complete but foreign is
    /// a campaign mismatch (caller error), not an I/O failure.
    fn from(e: WalError) -> Self {
        if e.op == WalOp::Open && e.source.kind() == std::io::ErrorKind::InvalidData {
            return CampaignError::Checkpoint(e.source.to_string());
        }
        CampaignError::Io(e)
    }
}

/// Shared worker output, behind one lock so checkpoint lines are
/// whole.
struct TrialSink {
    records: Vec<TrialRecord>,
    journal: Option<Journal>,
    /// A worker whose pass could not run.
    error: Option<CampaignError>,
}

/// Runs (or resumes) a fault-injection campaign.
///
/// Every pending trial's injection is sampled up front and the trials
/// are sorted by `(cycle, trial)`. Each worker takes a contiguous run
/// of that order and forks its trials from one fault-free pass on its
/// own machine ([`Gpu::launch_forked`]), so the pass only moves
/// forward and a trial simulates only what its upset changes.
///
/// # Errors
///
/// Returns [`CampaignError`] on workload preparation failure,
/// checkpoint corruption or I/O failure. Simulator faults *inside*
/// trials are classified, never propagated.
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
    let plans: Vec<Planned> = (0..cfg.trials)
        .map(|t| plan_trial(map, cfg, &geom, cycle_hi, t))
        .collect();

    let mut done: BTreeMap<u32, TrialRecord> = BTreeMap::new();
    let journal = match &cfg.checkpoint {
        Some(path) => {
            let header = checkpoint_header(cfg, workload, map);
            let (journal, lines) = Journal::open(path, &header)?;
            for (no, line) in lines.iter().enumerate() {
                let rec = parse_record(line, no, &plans)?;
                if done.insert(rec.trial, rec).is_some() {
                    return Err(CampaignError::Checkpoint(format!(
                        "trial {} recorded twice (line {})",
                        rec.trial,
                        no + 2
                    )));
                }
            }
            // Campaign trials are re-runnable at no cost beyond the
            // re-simulation, so the journal trades the per-append
            // fsync for campaign throughput: `kill -9` still loses
            // nothing (the OS keeps buffered writes), only a whole-
            // machine power failure can drop the buffered tail — and
            // the dropped trials simply re-run.
            Some(journal.with_sync(false))
        }
        None => None,
    };

    // Pending trials in injection order, split into their ids
    // (trial, macro) and the injections a worker's pass forks.
    let mut pending: Vec<(u32, Planned)> = (0..cfg.trials)
        .zip(plans)
        .filter(|(t, _)| !done.contains_key(t))
        .collect();
    pending.sort_by_key(|(t, p)| (p.injection.cycle, *t));
    let (ids, injections): (Vec<(u32, u32)>, Vec<Injection>) = pending
        .into_iter()
        .map(|(t, p)| ((t, p.macro_idx), p.injection))
        .unzip();
    let sink = Mutex::new(TrialSink {
        records: Vec::with_capacity(ids.len()),
        journal,
        error: None,
    });
    let workers = match cfg.threads {
        0 => ggpu_kernels::suite_threads(ids.len()),
        n => n.min(ids.len().max(1)),
    };

    std::thread::scope(|scope| {
        let sink = &sink;
        let mut first_gpu = Some(first_gpu);
        for w in 0..workers {
            let run = w * ids.len() / workers..(w + 1) * ids.len() / workers;
            let (ids, injections) = (&ids[run.clone()], &injections[run]);
            let gpu = first_gpu.take();
            scope.spawn(move || {
                let mut gpu = gpu.unwrap_or_else(|| Gpu::new(cfg.sim, workload.memory_words()));
                let forked = fork_trials(workload, cfg, &mut gpu, ids, injections, |rec| {
                    let mut guard = sink.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(journal) = guard.journal.as_mut() {
                        // Checkpoint write failures degrade to an
                        // un-checkpointed campaign rather than losing
                        // the computed trial.
                        let _ = journal.append(&format!(
                            "t {} {} {} {}",
                            rec.trial, rec.macro_idx, rec.cycle, rec.outcome
                        ));
                    }
                    guard.records.push(rec);
                });
                if let Err(e) = forked {
                    sink.lock().unwrap_or_else(|e| e.into_inner()).error = Some(e);
                }
            });
        }
    });

    let sink = sink.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some(e) = sink.error {
        return Err(e);
    }
    for rec in sink.records {
        done.insert(rec.trial, rec);
    }

    let records: Vec<TrialRecord> = done.into_values().collect();
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

/// FNV-1a-64: a fixed digest, so a journal written by one build is
/// recognised by the next (`DefaultHasher` makes no such promise).
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The journal's identity line. `map=` digests every site's path,
/// scheme and stored bits (which fix its exposure); `machine=` digests
/// the simulated machine and the watchdog.
fn checkpoint_header(cfg: &CampaignConfig, workload: &Workload, map: &MacroMap) -> String {
    let mut sites = String::new();
    for s in map.sites() {
        let _ = writeln!(sites, "{} {} {}", s.path, s.scheme, s.capacity_bits());
    }
    let machine = format!("{:?} {:?}", cfg.sim, cfg.watchdog);
    format!(
        "ggpu-fault-checkpoint v2 seed={} kernel={} n={} trials={} map={:016x} machine={:016x}",
        cfg.seed,
        workload.name,
        workload.n,
        cfg.trials,
        fnv1a64(&sites),
        fnv1a64(&machine)
    )
}

/// Parses one complete journal record line and checks it against the
/// trial's seeded injection. Torn tails never reach this point (the
/// journal repairs them on open), so a line that does not parse, or
/// that names another macro or cycle than its trial's injection, is
/// genuine corruption and errors.
fn parse_record(line: &str, no: usize, plans: &[Planned]) -> Result<TrialRecord, CampaignError> {
    let mut f = line.split_ascii_whitespace();
    let rec = (|| {
        if f.next()? != "t" {
            return None;
        }
        let trial: u32 = f.next()?.parse().ok()?;
        let macro_idx: u32 = f.next()?.parse().ok()?;
        let cycle: u64 = f.next()?.parse().ok()?;
        let outcome = Outcome::parse(f.next()?)?;
        Some(TrialRecord {
            trial,
            macro_idx,
            cycle,
            outcome,
        })
    })();
    let Some(r) = rec else {
        return Err(CampaignError::Checkpoint(format!(
            "unparseable line {}: {line:?}",
            no + 2
        )));
    };
    let Some(plan) = plans.get(r.trial as usize) else {
        return Err(CampaignError::Checkpoint(format!(
            "trial {} out of range (campaign has {})",
            r.trial,
            plans.len()
        )));
    };
    if (r.macro_idx, r.cycle) != (plan.macro_idx, plan.injection.cycle) {
        return Err(CampaignError::Checkpoint(format!(
            "trial {} recorded macro {} at cycle {}, but its injection hits macro {} at cycle {}",
            r.trial, r.macro_idx, r.cycle, plan.macro_idx, plan.injection.cycle
        )));
    }
    Ok(r)
}

fn build_report(
    workload: &Workload,
    map: &MacroMap,
    cfg: &CampaignConfig,
    golden_cycles: u64,
    records: &[TrialRecord],
) -> CampaignReport {
    let mut totals = OutcomeCounts::default();
    let mut per_macro: Vec<OutcomeCounts> = vec![OutcomeCounts::default(); map.sites().len()];
    for rec in records {
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

    #[test]
    fn outcome_names_round_trip() {
        for o in [
            Outcome::Masked,
            Outcome::Sdc,
            Outcome::DetectedCorrected,
            Outcome::DetectedUncorrectable,
            Outcome::Hang,
            Outcome::Crash,
        ] {
            assert_eq!(Outcome::parse(o.as_str()), Some(o));
        }
        assert_eq!(Outcome::parse("nope"), None);
    }

    #[test]
    fn io_error_carries_path_and_operation() {
        // Pointing the checkpoint at a directory fails at journal
        // open; the error must name the offending path and the file
        // operation, not a bare message.
        let dir = std::env::temp_dir().join(format!("ggpu_fault_io_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = Journal::open(&dir, "hdr").unwrap_err();
        let err = CampaignError::from(wal);
        match &err {
            CampaignError::Io(e) => {
                assert_eq!(e.path, dir);
                assert!(matches!(e.op, WalOp::Read | WalOp::Create));
            }
            other => panic!("expected Io, got {other:?}"),
        }
        let text = err.to_string();
        assert!(text.contains("checkpoint io"), "{text}");
        assert!(text.contains(&dir.display().to_string()), "{text}");
        // `source()` exposes the WalError for callers that downcast.
        assert!(std::error::Error::source(&err).is_some());
        let _ = std::fs::remove_dir(&dir);
    }

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

    #[test]
    fn foreign_header_maps_to_checkpoint_mismatch() {
        let path = std::env::temp_dir().join(format!("ggpu_fault_foreign_{}", std::process::id()));
        std::fs::write(&path, "some other campaign\n").unwrap();
        let wal = Journal::open(&path, "ggpu-fault-checkpoint v1 seed=1").unwrap_err();
        assert!(matches!(
            CampaignError::from(wal),
            CampaignError::Checkpoint(_)
        ));
        let _ = std::fs::remove_file(&path);
    }
}
