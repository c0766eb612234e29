//! Acceptance fuzz: no injected fault can panic the simulator.
//! Random (domain, coordinates, cycle, bits, protection) tuples —
//! including wildly out-of-range coordinates — must always yield a
//! normal result (`Ok`) or a typed `SimError`, never a panic, whether
//! they run as one hardened launch or are forked from a fault-free
//! pass.

use ggpu_fault::Workload;
use ggpu_kernels::bench;
use ggpu_prop::{cases, Rng};
use ggpu_simt::{
    FaultPlan, FaultSite, HardenedOptions, Injection, Protection, SimtConfig, WatchdogConfig,
};

fn random_site(rng: &mut Rng) -> FaultSite {
    // Coordinates sampled over a range far wider than any live
    // machine so vacancy paths get heavy coverage.
    let cu = rng.u32_in(0, 15);
    let slot = rng.u32_in(0, 31);
    let lane = rng.u32_in(0, 127);
    match rng.u32_in(0, 4) {
        0 => FaultSite::Register {
            cu,
            slot,
            lane,
            reg: (rng.u32_in(0, 63)) as u8,
        },
        1 => FaultSite::LocalWord {
            cu,
            word: rng.u32_in(0, (1 << 14) - 1),
        },
        2 => FaultSite::GlobalWord {
            word: rng.u32_in(0, (1 << 21) - 1),
        },
        3 => FaultSite::Pc { cu, slot, lane },
        _ => FaultSite::ExecMask { cu, slot, lane },
    }
}

fn random_protection(rng: &mut Rng) -> Protection {
    match rng.u32_in(0, 2) {
        0 => Protection::None,
        1 => Protection::Parity,
        _ => Protection::SecDed,
    }
}

fn random_injection(rng: &mut Rng, i: usize) -> Injection {
    Injection {
        cycle: match rng.u32_in(0, 3) {
            0 => 0,
            1 => rng.u64_in(5_000, u64::MAX),
            _ => rng.u64_in(0, 4_999),
        },
        site: random_site(rng),
        flips: (0..rng.usize_in(0, 3))
            .map(|_| rng.u32_in(0, 255) as u8)
            .collect(),
        codeword_flips: rng.u32_in(0, 4),
        protection: random_protection(rng),
        label: format!("fuzz{i}"),
    }
}

fn watchdog() -> WatchdogConfig {
    WatchdogConfig {
        interval: 512,
        patience: 1,
    }
}

#[test]
fn random_injections_never_panic() {
    let copy = bench::all()[1];
    let w = Workload::from_bench(&copy, 64).expect("prepare");
    cases(64, |rng| {
        let n_inj = rng.usize_in(1, 4);
        let injections: Vec<Injection> = (0..n_inj).map(|i| random_injection(rng, i)).collect();
        let opts = HardenedOptions {
            plan: FaultPlan::new(injections),
            watchdog: Some(watchdog()),
        };
        let mut gpu = w.fresh_gpu(SimtConfig::with_cus(1)).expect("stage");
        // Ok and typed Err are both acceptable; a panic fails the test.
        let _ = gpu.launch_hardened(w.kernel(), w.launch(), &opts);
    });
}

/// The fork entry point under the same garbage, with up to 12
/// injections per pass (so forks share pass times): it must not panic
/// and must visit every injection exactly once.
#[test]
fn random_forks_never_panic() {
    let copy = bench::all()[1];
    let w = Workload::from_bench(&copy, 64).expect("prepare");
    cases(64, |rng| {
        let injections: Vec<Injection> = (0..rng.usize_in(0, 12))
            .map(|i| random_injection(rng, i))
            .collect();
        let mut visits = vec![0u32; injections.len()];
        let mut gpu = w.fresh_gpu(SimtConfig::with_cus(1)).expect("stage");
        let watchdog = rng.chance(0.5).then(watchdog);
        let _ = gpu.launch_forked(w.kernel(), w.launch(), watchdog, &injections, |i, _, _| {
            visits[i] += 1;
        });
        assert!(visits.iter().all(|&v| v == 1), "visits {visits:?}");
    });
}
