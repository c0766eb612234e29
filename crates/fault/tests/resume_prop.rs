//! Kill-point resume property: a campaign whose checkpoint journal is
//! cut at *any* byte offset — simulating `kill -9` (or power loss)
//! mid-write — resumes to a report byte-identical to an uninterrupted
//! run, and never re-runs a trial whose record survived whole.

use ggpu_fault::{run_campaign, CampaignConfig, MacroMap, Rng, Workload};
use ggpu_kernels::bench;
use ggpu_netlist::EccPolicy;
use ggpu_rtl::{generate, GgpuConfig};
use ggpu_tech::sram::EccScheme;
use std::path::PathBuf;

fn fixture() -> (Workload, MacroMap) {
    let design = generate(&GgpuConfig::with_cus(1).expect("cfg")).expect("generate");
    let map =
        MacroMap::from_design(&design, &EccPolicy::uniform(EccScheme::Parity)).expect("macro map");
    let copy = bench::all()[1];
    let w = Workload::from_bench(&copy, 256).expect("prepare");
    (w, map)
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ggpu_resume_prop_{}_{tag}.txt", std::process::id()))
}

#[test]
fn resume_from_any_truncation_offset_is_byte_identical() {
    let (w, map) = fixture();
    let mut cfg = CampaignConfig::new(0x5EED, 24);
    cfg.threads = 2;
    let uninterrupted = run_campaign(&w, &map, &cfg).expect("baseline").to_json();

    // One complete checkpointed run to obtain the full journal bytes.
    let path = scratch("full");
    let _ = std::fs::remove_file(&path);
    cfg.checkpoint = Some(path.clone());
    let full = run_campaign(&w, &map, &cfg).expect("checkpointed");
    assert_eq!(full.to_json(), uninterrupted);
    let journal = std::fs::read(&path).expect("journal bytes");
    assert!(journal.len() > 64, "journal holds header + 24 records");

    // Randomized kill points across the whole byte range: inside the
    // header, on line boundaries, mid-record. Each truncated file must
    // resume to the same bytes.
    let mut rng = Rng::for_trial(0xDEAD_BEEF, 0);
    let mut offsets: Vec<usize> = (0..24)
        .map(|_| (rng.next_u64() % journal.len() as u64) as usize)
        .collect();
    offsets.push(0);
    offsets.push(journal.len() - 1);
    for off in offsets {
        std::fs::write(&path, &journal[..off]).expect("truncate");
        let resumed = run_campaign(&w, &map, &cfg)
            .unwrap_or_else(|e| panic!("resume from offset {off} failed: {e}"))
            .to_json();
        assert_eq!(resumed, uninterrupted, "offset {off} diverged");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_skips_recorded_trials() {
    // A journal holding a sentinel record for trial 0 proves resumed
    // campaigns trust surviving records instead of re-running them:
    // the sentinel's (impossible) outcome flows into the report. It
    // keeps trial 0's macro and cycle, which a resume checks against
    // the trial's seeded injection.
    let (w, map) = fixture();
    let path = scratch("skip");
    let _ = std::fs::remove_file(&path);
    let mut cfg = CampaignConfig::new(0x5EED, 4);
    cfg.threads = 1;
    cfg.checkpoint = Some(path.clone());
    let baseline = run_campaign(&w, &map, &cfg).expect("baseline");

    let text = std::fs::read_to_string(&path).expect("read");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    // Replace trial 0's outcome with a sentinel `hang`.
    let idx = lines
        .iter()
        .position(|l| l.starts_with("t 0 "))
        .expect("trial 0 recorded");
    let fields: Vec<&str> = lines[idx].split(' ').collect();
    lines[idx] = format!("t 0 {} {} hang", fields[2], fields[3]);
    std::fs::write(&path, format!("{}\n", lines.join("\n"))).expect("rewrite");

    let resumed = run_campaign(&w, &map, &cfg).expect("resumed");
    assert_eq!(
        resumed.counts.hang,
        baseline.counts.hang + 1,
        "sentinel record was honored, not re-simulated"
    );
    let _ = std::fs::remove_file(&path);
}
