//! Campaign-level guarantees: zero-injection bit-identity on every
//! shipped kernel, seed determinism of the serialized report across
//! thread counts, checkpoint/resume equivalence, and checkpoints that
//! refuse to resume a different campaign.

use ggpu_fault::{run_campaign, CampaignConfig, CampaignError, MacroMap, Workload};
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

/// Identical seed + config ⇒ byte-identical campaign JSON, regardless
/// of worker-thread count.
#[test]
fn seed_determines_report_bytes_across_thread_counts() {
    let (w, map) = campaign_fixture();
    let mut cfg = CampaignConfig::new(0xCAFE, 32);
    cfg.threads = 1;
    let a = run_campaign(&w, &map, &cfg).expect("run 1t").to_json();
    cfg.threads = 4;
    let b = run_campaign(&w, &map, &cfg).expect("run 4t").to_json();
    assert_eq!(a, b);

    let mut other = CampaignConfig::new(0xCAFF, 32);
    other.threads = 4;
    let c = run_campaign(&w, &map, &other).expect("run").to_json();
    assert_ne!(a, c, "different seeds must explore different faults");
}

/// A campaign interrupted mid-way and resumed from its checkpoint
/// produces the same bytes as an uninterrupted run.
#[test]
fn checkpoint_resume_is_byte_identical() {
    let (w, map) = campaign_fixture();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ggpu_fault_ckpt_{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let mut cfg = CampaignConfig::new(0xBEEF, 24);
    cfg.threads = 2;
    let uninterrupted = run_campaign(&w, &map, &cfg).expect("baseline").to_json();

    // Full checkpointed run, then truncate to simulate an interruption
    // after the first 8 recorded trials.
    cfg.checkpoint = Some(path.clone());
    let full = run_campaign(&w, &map, &cfg)
        .expect("checkpointed")
        .to_json();
    assert_eq!(full, uninterrupted);

    let text = std::fs::read_to_string(&path).expect("read ckpt");
    let keep: Vec<&str> = text.lines().take(1 + 8).collect();
    std::fs::write(&path, format!("{}\n", keep.join("\n"))).expect("truncate");

    let resumed = run_campaign(&w, &map, &cfg).expect("resumed").to_json();
    assert_eq!(resumed, uninterrupted);

    // A mismatched campaign must refuse the checkpoint.
    let mut wrong = cfg.clone();
    wrong.seed = 1;
    assert!(run_campaign(&w, &map, &wrong).is_err());

    let _ = std::fs::remove_file(&path);
}

/// A checkpoint resumes only the campaign that wrote it. A journal
/// written under another ECC policy, machine or watchdog is refused
/// instead of replayed as this campaign's outcomes. A record naming a
/// macro or cycle other than its trial's seeded injection, or a second
/// record for one trial, is corruption.
#[test]
fn checkpoint_refuses_a_foreign_campaign() {
    let (w, parity) = campaign_fixture();
    let design = generate(&GgpuConfig::with_cus(1).expect("cfg")).expect("generate");
    let secded =
        MacroMap::from_design(&design, &EccPolicy::uniform(EccScheme::SecDed)).expect("macro map");
    let path = std::env::temp_dir().join(format!("ggpu_fault_foreign_{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let mut cfg = CampaignConfig::new(0x5EED, 16);
    cfg.threads = 2;
    cfg.checkpoint = Some(path.clone());
    run_campaign(&w, &parity, &cfg).expect("parity campaign");
    let refused = |map: &MacroMap, cfg: &CampaignConfig| {
        matches!(
            run_campaign(&w, map, cfg),
            Err(CampaignError::Checkpoint(_))
        )
    };

    assert!(refused(&secded, &cfg), "resumed under another ECC policy");
    let mut machine = cfg.clone();
    machine.sim = SimtConfig::with_cus(2);
    assert!(refused(&parity, &machine), "resumed on another machine");
    let mut watchdog = cfg.clone();
    watchdog.watchdog.patience += 1;
    assert!(
        refused(&parity, &watchdog),
        "resumed under another watchdog"
    );

    // Edits of trial 0's record, each refused on its own.
    let text = std::fs::read_to_string(&path).expect("read ckpt");
    let record = text
        .lines()
        .find(|l| l.starts_with("t 0 "))
        .expect("trial 0 recorded")
        .to_string();
    let fields: Vec<&str> = record.split(' ').collect();
    let (macro_idx, cycle): (usize, u64) = (
        fields[2].parse().expect("macro"),
        fields[3].parse().expect("cycle"),
    );
    let sites = parity.sites().len();
    let with_trial0 = |line: &str| format!("t 0 {line} {}", fields[4]);
    let edits = [
        (
            "an out-of-range macro index",
            with_trial0(&format!("{sites} {cycle}")),
        ),
        (
            "another in-range macro",
            with_trial0(&format!("{} {cycle}", (macro_idx + 1) % sites)),
        ),
        (
            "another cycle",
            with_trial0(&format!("{macro_idx} {}", cycle + 1)),
        ),
        ("a second record", format!("{record}\n{record}")),
    ];
    for (what, edit) in edits {
        let edited: Vec<&str> = text
            .lines()
            .map(|l| if l == record { edit.as_str() } else { l })
            .collect();
        std::fs::write(&path, format!("{}\n", edited.join("\n"))).expect("rewrite");
        assert!(refused(&parity, &cfg), "accepted {what} for trial 0");
    }
    // The untouched journal still resumes.
    std::fs::write(&path, &text).expect("restore");
    assert!(
        run_campaign(&w, &parity, &cfg).is_ok(),
        "refused its own journal"
    );

    let _ = std::fs::remove_file(&path);
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
