//! Kill-point resume properties of the sweep campaign: a checkpointed
//! `best_within` sweep whose journal is cut at *any* byte offset —
//! simulating `kill -9` or power loss mid-write — resumes to the same
//! winner byte for byte and never double-runs a recorded point. The
//! journal as written (one record per point, in completion order) is
//! the record: a resume that plans nothing leaves the file untouched,
//! and a journal from another campaign — other ceilings, technology or
//! ECC override — or with a point recorded twice is refused.

use ggpu_fault::Rng;
use ggpu_netlist::EccPolicy;
use ggpu_tech::sram::{MemoryCompiler, SramParams};
use ggpu_tech::Tech;
use gpuplanner::{GpuPlanner, SweepConfig, SweepError};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ggpu_sweep_resume_{}_{tag}.txt",
        std::process::id()
    ))
}

/// The journal file's identity: replacing it (tmp file + rename)
/// changes the inode, and rewriting it in place the modification time.
#[cfg(unix)]
fn file_identity(path: &std::path::Path) -> (u64, std::time::SystemTime) {
    use std::os::unix::fs::MetadataExt as _;
    let meta = std::fs::metadata(path).expect("journal metadata");
    (meta.ino(), meta.modified().expect("journal mtime"))
}

/// Complete journal lines in a byte prefix (excluding the header):
/// the points a resume must answer without re-planning.
fn surviving_records(bytes: &[u8]) -> usize {
    let text = String::from_utf8_lossy(bytes);
    let mut lines: Vec<&str> = text.split('\n').collect();
    lines.pop(); // the torn fragment (or the empty tail after a '\n')
    lines.iter().filter(|l| l.starts_with("p ")).count()
}

#[test]
fn sweep_resumes_byte_identically_from_any_truncation_offset() {
    let planner = GpuPlanner::new(Tech::l65());
    let plain = planner
        .best_within_with_threads(5.0, 100.0, 2)
        .unwrap()
        .expect("a 1-CU version fits 5 mm2");

    let path = scratch("full");
    let _ = std::fs::remove_file(&path);
    let cfg = SweepConfig::budgets(5.0, 100.0)
        .with_threads(2)
        .with_checkpoint(&path);
    let full = planner.sweep(&cfg).expect("checkpointed sweep");
    assert_eq!(full.evaluated, 24);
    assert_eq!(full.resumed, 0);
    let winner = full.winner.as_ref().expect("same ceilings, same winner");
    assert_eq!(winner, &plain, "journaling must not change the winner");

    // The journal is the header plus one record per point, in
    // whatever order the workers finished them.
    let journal = std::fs::read(&path).expect("journal bytes");
    let text = String::from_utf8(journal.clone()).expect("utf8 journal");
    let mut indices: Vec<usize> = text
        .lines()
        .skip(1)
        .map(|line| {
            line.split(' ')
                .nth(1)
                .and_then(|i| i.parse().ok())
                .expect("point index")
        })
        .collect();
    indices.sort_unstable();
    assert_eq!(
        indices,
        (0..24).collect::<Vec<_>>(),
        "each grid point recorded once:\n{text}"
    );

    // A resume of the completed campaign re-plans nothing and writes
    // nothing: same bytes, same file.
    #[cfg(unix)]
    let identity = file_identity(&path);
    let warm = planner.sweep(&cfg).expect("warm resume");
    assert_eq!(warm.evaluated, 0);
    assert_eq!(warm.resumed, 24);
    assert_eq!(warm.winner.as_ref(), Some(winner));
    assert_eq!(warm.render(), full.render());
    assert_eq!(
        std::fs::read(&path).expect("journal bytes"),
        journal,
        "a resume that plans nothing must not rewrite the journal"
    );
    #[cfg(unix)]
    assert_eq!(
        file_identity(&path),
        identity,
        "a resume that plans nothing must not replace or rewrite the journal"
    );

    // Kill points across the whole byte range: inside the header, on
    // record boundaries, mid-record. Every resume must (a) answer the
    // surviving records from the journal — no double-runs — and
    // (b) reduce to the byte-identical winner and report.
    let mut rng = Rng::for_trial(0x51EE_9001, 0);
    let mut offsets: Vec<usize> = (0..8)
        .map(|_| (rng.next_u64() % journal.len() as u64) as usize)
        .collect();
    offsets.push(0);
    offsets.push(journal.len() - 1);
    for off in offsets {
        std::fs::write(&path, &journal[..off]).expect("truncate");
        let survivors = surviving_records(&journal[..off]);
        let resumed = planner
            .sweep(&cfg)
            .unwrap_or_else(|e| panic!("resume from offset {off} failed: {e}"));
        assert_eq!(resumed.resumed, survivors, "offset {off} double-ran points");
        assert_eq!(resumed.evaluated, 24 - survivors, "offset {off}");
        assert_eq!(
            resumed.winner.as_ref(),
            Some(winner),
            "offset {off} changed the winner"
        );
        assert_eq!(resumed.render(), full.render(), "offset {off}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resumes_under_another_technology_or_ecc_policy_are_refused() {
    // Slower SRAM needs deeper recipes: the l65 recipes replayed under
    // it would miss their own targets. The ECC override decides the
    // recorded trace and the rebuilt resilience report.
    let mut slow = Tech::l65();
    let p = *slow.memory_compiler.params();
    slow.memory_compiler = MemoryCompiler::new(SramParams {
        t_fixed: p.t_fixed + 0.25,
        ..p
    });
    let policy = EccPolicy::parse("default=none,register-file=secded").expect("policy");
    let l65 = || GpuPlanner::new(Tech::l65());
    for (tag, journaled, resumed) in [
        ("tech", l65(), GpuPlanner::new(slow)),
        ("ecc", l65().with_ecc_policy(policy), l65()),
    ] {
        let path = scratch(tag);
        let _ = std::fs::remove_file(&path);
        let cfg = SweepConfig::budgets(30.0, 100.0)
            .with_threads(2)
            .with_checkpoint(&path);
        assert_eq!(
            journaled.sweep(&cfg).expect("journaled sweep").evaluated,
            24
        );
        let journal = std::fs::read(&path).expect("journal bytes");
        match resumed.sweep(&cfg) {
            Err(SweepError::Checkpoint(msg)) => assert!(msg.contains("header"), "{tag}: {msg}"),
            Err(e) => panic!("{tag}: expected a checkpoint mismatch, got {e}"),
            Ok(report) => panic!("{tag}: the resume was answered:\n{}", report.render()),
        }
        assert_eq!(
            std::fs::read(&path).expect("journal bytes"),
            journal,
            "{tag}: a refused resume must leave the journal as it was"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn resumed_recipes_that_do_not_replay_are_corrupt_checkpoints() {
    let planner = GpuPlanner::new(Tech::l65());
    let path = scratch("replay");
    let _ = std::fs::remove_file(&path);
    let cfg = SweepConfig::budgets(5.0, 100.0)
        .with_threads(2)
        .with_checkpoint(&path);
    planner.sweep(&cfg).expect("seed sweep");
    let journal = std::fs::read_to_string(&path).expect("journal");

    // Swap point 1's recipe (`p 1 ok {plan} t={trace}`) for one that
    // names a missing module, macro or path, or a factor no run of the
    // flow can record.
    for (plan, refusal) in [
        ("d,ghost,ram,2", "point 1"),
        ("d,compute_unit,ghost,2", "point 1"),
        ("l,compute_unit,ghost", "point 1"),
        ("d,compute_unit,cram0,0", "malformed"),
        ("d,compute_unit,cram0,1", "malformed"),
        ("d,compute_unit,cram0,3", "malformed"),
    ] {
        let edited: Vec<String> = journal
            .lines()
            .map(|line| {
                let mut fields: Vec<&str> = line.split(' ').collect();
                if line.starts_with("p 1 ok ") {
                    fields[3] = plan;
                }
                fields.join(" ")
            })
            .collect();
        std::fs::write(&path, edited.join("\n") + "\n").expect("write edited journal");
        match planner.sweep(&cfg) {
            Err(SweepError::Checkpoint(msg)) => assert!(msg.contains(refusal), "{plan}: {msg}"),
            other => panic!("{plan}: expected a corrupt-checkpoint refusal, got {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn foreign_headers_and_corrupt_records_are_refused() {
    let planner = GpuPlanner::new(Tech::l65());
    let cfg_a = SweepConfig::budgets(5.0, 100.0).with_threads(2);
    // A complete journal of campaign A, to take its header and
    // records from.
    let journal_a = {
        let path = scratch("header");
        let _ = std::fs::remove_file(&path);
        planner
            .sweep(&cfg_a.clone().with_checkpoint(&path))
            .expect("seed sweep");
        let text = std::fs::read_to_string(&path).expect("journal");
        let _ = std::fs::remove_file(&path);
        text
    };
    let header_a = journal_a.lines().next().expect("header");

    // A complete header from different ceilings is a checkpoint
    // mismatch, not an I/O error and not a silent restart.
    let path = scratch("foreign");
    std::fs::write(&path, format!("{header_a}\n")).expect("write foreign journal");
    let other = SweepConfig::budgets(6.0, 100.0)
        .with_threads(2)
        .with_checkpoint(&path);
    match planner.sweep(&other) {
        Err(SweepError::Checkpoint(msg)) => {
            assert!(msg.contains("header"), "{msg}")
        }
        other => panic!("expected a checkpoint mismatch, got {other:?}"),
    }

    // So is the same campaign's header in a retired format: v1, whose
    // journals could hold wall-clock budget records, and v2, which did
    // not fingerprint the technology or the ECC override.
    let (v3_prefix, _) = header_a
        .split_once(" tech=")
        .expect("a v3 header names the technology");
    let v2 = v3_prefix.replace("ggpu-sweep v3", "ggpu-sweep v2");
    let v1 = format!(
        "{} budget=none",
        v3_prefix.replace("ggpu-sweep v3", "ggpu-sweep v1")
    );
    let same = cfg_a.with_checkpoint(&path);
    for retired in [v1, v2] {
        std::fs::write(&path, format!("{retired}\n")).expect("write retired journal");
        assert!(
            matches!(planner.sweep(&same), Err(SweepError::Checkpoint(_))),
            "`{retired}` must be refused"
        );
    }

    // A matching header followed by garbage is refused too.
    std::fs::write(&path, format!("{header_a}\ntotal garbage\n")).expect("write corrupt journal");
    match planner.sweep(&same) {
        Err(SweepError::Checkpoint(msg)) => {
            assert!(msg.contains("malformed"), "{msg}")
        }
        other => panic!("expected a corrupt-record refusal, got {other:?}"),
    }

    // So is a point recorded twice: no run of the flow writes one.
    let point_0 = journal_a
        .lines()
        .find(|line| line.starts_with("p 0 "))
        .expect("point 0 recorded");
    std::fs::write(&path, format!("{journal_a}{point_0}\n")).expect("write duplicate record");
    match planner.sweep(&same) {
        Err(SweepError::Checkpoint(msg)) => {
            assert!(msg.contains("point 0 recorded twice (line 26)"), "{msg}")
        }
        other => panic!("expected a duplicate-record refusal, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}
