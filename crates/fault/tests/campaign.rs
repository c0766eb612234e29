//! Campaign-level guarantees: zero-injection bit-identity on every
//! shipped kernel, seed determinism of the serialized report across
//! thread counts, and outcome totals that account for every trial.

use ggpu_fault::{run_campaign, CampaignConfig, MacroMap, OutcomeCounts, Workload};
use ggpu_kernels::bench;
use ggpu_netlist::EccPolicy;
use ggpu_rtl::{generate, GgpuConfig};
use ggpu_simt::{FaultPlan, HardenedOptions, SimtConfig, WatchdogConfig};
use ggpu_tech::sram::EccScheme;

/// The eight shipped kernels (Table III seven plus the LRAM-tiled
/// mat_mul extension) at CI-sized grids.
fn all_workloads() -> Vec<Workload> {
    let mut v: Vec<Workload> = bench::all()
        .iter()
        .map(|b| Workload::from_bench(b, 128).expect("prepare"))
        .collect();
    v.push(Workload::from_bench(&bench::mat_mul_local(), 128).expect("prepare local"));
    v
}

/// Hard guarantee: a hardened launch with an empty plan (watchdog ON)
/// is bit-identical to the un-instrumented simulator — same RunStats,
/// same full memory image — for all 8 shipped kernels.
#[test]
fn zero_injection_campaign_is_bit_identical_on_all_kernels() {
    let config = SimtConfig::with_cus(2);
    for w in all_workloads() {
        let mut plain = w.fresh_gpu(config).expect("stage");
        let base = plain.launch(w.kernel(), w.launch()).expect("plain run");

        let mut hardened = w.fresh_gpu(config).expect("stage");
        let opts = HardenedOptions {
            plan: FaultPlan::empty(),
            watchdog: Some(WatchdogConfig::default()),
        };
        let run = hardened
            .launch_hardened(w.kernel(), w.launch(), &opts)
            .expect("hardened run");

        assert_eq!(base, run.stats, "{}: stats diverged", w.name);
        assert!(run.log.events.is_empty(), "{}: spurious events", w.name);
        let words = w.memory_words();
        let img_a = plain.read_words(0, words).expect("image");
        let img_b = hardened.read_words(0, words).expect("image");
        assert_eq!(img_a, img_b, "{}: memory image diverged", w.name);
    }
}

fn campaign_fixture() -> (Workload, MacroMap) {
    let design = generate(&GgpuConfig::with_cus(1).expect("cfg")).expect("generate");
    let map =
        MacroMap::from_design(&design, &EccPolicy::uniform(EccScheme::Parity)).expect("macro map");
    let copy = bench::all()[1];
    let w = Workload::from_bench(&copy, 256).expect("prepare");
    (w, map)
}

/// Identical seed + config ⇒ byte-identical campaign JSON, however
/// many workers split the trials (3 and 7 split 32 unevenly). A
/// zero-trial campaign counts nothing and still lists every macro.
#[test]
fn seed_determines_report_bytes_across_thread_counts() {
    let (w, map) = campaign_fixture();
    let run = |seed, trials, threads| {
        let mut cfg = CampaignConfig::new(seed, trials);
        cfg.threads = threads;
        run_campaign(&w, &map, &cfg).unwrap_or_else(|e| panic!("{threads} threads: {e}"))
    };
    let a = run(0xCAFE, 32, 1).to_json();
    for threads in [2, 3, 4, 7] {
        assert_eq!(run(0xCAFE, 32, threads).to_json(), a, "{threads} threads");
    }
    let c = run(0xCAFF, 32, 4).to_json();
    assert_ne!(a, c, "different seeds must explore different faults");

    let sites: Vec<&str> = map.sites().iter().map(|s| s.path.as_str()).collect();
    for threads in [0, 1, 4] {
        let empty = run(0xCAFE, 0, threads);
        assert_eq!(empty.counts, OutcomeCounts::default(), "{threads} threads");
        let listed: Vec<&str> = empty.macros.iter().map(|m| m.path.as_str()).collect();
        assert_eq!(listed, sites, "{threads} threads");
        assert!(
            empty
                .macros
                .iter()
                .all(|m| m.counts == OutcomeCounts::default()),
            "{threads} threads"
        );
    }
}

/// The campaign actually exercises the taxonomy: with an unprotected
/// design enough trials produce at least one non-masked outcome, and
/// outcome totals always equal the trial count.
#[test]
fn outcomes_sum_to_trials() {
    let design = generate(&GgpuConfig::with_cus(1).expect("cfg")).expect("generate");
    let map = MacroMap::from_design(&design, &EccPolicy::unprotected()).expect("map");
    let copy = bench::all()[1];
    let w = Workload::from_bench(&copy, 256).expect("prepare");
    let cfg = CampaignConfig::new(11, 40);
    let report = run_campaign(&w, &map, &cfg).expect("run");
    assert_eq!(report.counts.total(), 40);
    let per_macro: u32 = report.macros.iter().map(|m| m.counts.total()).sum();
    assert_eq!(per_macro, 40, "every trial attributes to one macro");
    assert!(report.golden_cycles > 0);
}
