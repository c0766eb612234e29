//! `Gpu::reset` returns a machine to its `Gpu::new` state after any
//! launch, on both backends. The launches are plain runs, hardened
//! runs with random upsets (global-word sites included) and launches
//! that fault after some lanes have stored. After the reset the whole
//! memory reads as zeros, and a second launch on the reset machine
//! equals the same launch on a new machine, in `RunStats`, fault log,
//! typed error and the whole memory image.

use ggpu_prop::{cases, Rng};
use ggpu_simt::{
    AccelBackend, FaultEvent, FaultPlan, FaultSite, Gpu, HardenedOptions, Injection,
    InjectionOutcome, Kernel, Launch, Protection, RunStats, SimError, SimtConfig, WatchdogConfig,
};

/// 16 pages of 4 KiB.
const MEM_WORDS: usize = 16 * 1024;
const MEM_BYTES: u32 = MEM_WORDS as u32 * 4;

/// Lanes whose `gid % param2 == 0` store `gid + 1` at
/// `param0 + gid * param1`; then every lane adds its stored value to
/// `out[gid]` at `param3`. Stride 0 is a broadcast store, stride 4 a
/// coalesced one, and any other stride per-lane stores. A modulus
/// above 1 makes the issue mask sparse, and an address past the end
/// or an unaligned stride faults after the lanes before it stored.
const SCATTER: &str = "
    gid   r1
    param r2, 0
    param r3, 1
    param r4, 2
    mul   r5, r1, r3
    add   r5, r5, r2
    addi  r7, r1, 1
    remu  r6, r1, r4
    bne   r6, r0, skip
    sw    r5, r7, 0
    skip:
    param r8, 3
    slli  r9, r1, 2
    add   r9, r9, r8
    lw    r10, r9, 0
    add   r10, r10, r7
    sw    r9, r10, 0
    ret
";

/// One launch with the inputs staged before it.
struct Case {
    stage: (u32, Vec<u32>),
    launch: Launch,
    hardened: Option<HardenedOptions>,
}

fn small_config(rng: &mut Rng) -> SimtConfig {
    let mut c = SimtConfig::with_cus(rng.u32_in(1, 2));
    c.wavefront_size = rng.pick_copy(&[8, 16, 33, 64]);
    c.max_wavefronts_per_cu = rng.u32_in(2, 8);
    c.max_cycles = 200_000;
    c
}

fn word_addr(rng: &mut Rng, below: u32) -> u32 {
    rng.u32_in(0, below / 4 - 1) * 4
}

fn random_site(rng: &mut Rng, config: &SimtConfig) -> FaultSite {
    let cu = rng.u32_in(0, config.compute_units - 1);
    let slot = rng.u32_in(0, config.max_wavefronts_per_cu - 1);
    let lane = rng.u32_in(0, config.wavefront_size - 1);
    match rng.u32_in(0, 5) {
        // Global words twice as often: any page, written or not, and
        // sometimes past the end (a vacant site).
        0 | 1 => FaultSite::GlobalWord {
            word: rng.u32_in(0, MEM_WORDS as u32 + 64),
        },
        2 => FaultSite::Register {
            cu,
            slot,
            lane,
            reg: rng.u32_in(1, 10) as u8,
        },
        3 => FaultSite::LocalWord {
            cu,
            word: rng.u32_in(0, 64),
        },
        4 => FaultSite::Pc { cu, slot, lane },
        _ => FaultSite::ExecMask { cu, slot, lane },
    }
}

fn random_case(rng: &mut Rng, config: &SimtConfig) -> Case {
    let max_wg = (config.wavefront_size * config.max_wavefronts_per_cu).min(256);
    let wg = rng.u32_in(1, max_wg);
    let modulus = rng.pick_copy(&[1, 1, 2, 3]);
    let faulting = rng.chance(0.3);
    let (n, base, stride) = if faulting {
        // Lane 0 stores in range; a later lane runs off the end or
        // lands unaligned.
        if rng.chance(0.5) {
            let stride = rng.pick_copy(&[4, 8, 1028, 4100]);
            (256, MEM_BYTES - 4 * rng.u32_in(1, 60), stride)
        } else {
            (256, word_addr(rng, MEM_BYTES), 6)
        }
    } else {
        let stride = rng.pick_copy(&[0, 4, 8, 1028, 4100]);
        let n = rng.u32_in(1, 256).min(1 + MEM_BYTES / 2 / stride.max(4));
        (n, word_addr(rng, MEM_BYTES / 2), stride)
    };
    let out = word_addr(rng, MEM_BYTES - 4 * n);
    let stage_at = word_addr(rng, MEM_BYTES - 4 * 1500);
    let stage = (
        stage_at,
        (0..rng.u32_in(0, 1500)).map(|_| rng.any_u32()).collect(),
    );
    let hardened = (!faulting && rng.chance(0.5)).then(|| {
        let injections = (0..rng.usize_in(1, 4))
            .map(|_| {
                let site = random_site(rng, config);
                Injection::single(
                    rng.u64_in(0, 3000),
                    site,
                    rng.u32_in(0, 31) as u8,
                    rng.pick_copy(&[Protection::None, Protection::Parity, Protection::SecDed]),
                )
                .with_label(site.domain())
            })
            .collect();
        HardenedOptions {
            plan: FaultPlan::new(injections),
            watchdog: rng.chance(0.5).then(WatchdogConfig::default),
        }
    });
    Case {
        stage,
        launch: Launch::new(n, wg, vec![base, stride, modulus, out]),
        hardened,
    }
}

type Outcome = Result<(RunStats, Vec<FaultEvent>), SimError>;

fn run(gpu: &mut Gpu, kernel: &Kernel, case: &Case) -> Outcome {
    let (at, words) = &case.stage;
    gpu.write_words(*at, words).expect("staging fits");
    match &case.hardened {
        None => gpu.launch(kernel, &case.launch).map(|s| (s, Vec::new())),
        Some(opts) => gpu
            .launch_hardened(kernel, &case.launch, opts)
            .map(|r| (r.stats, r.log.events)),
    }
}

fn image(gpu: &Gpu) -> Vec<u32> {
    gpu.read_words(0, MEM_WORDS).expect("whole memory")
}

#[test]
fn reset_machine_is_indistinguishable_from_a_new_one() {
    let kernel = Kernel::from_asm("scatter", SCATTER).expect("scatter assembles");
    let (mut partial_faults, mut global_upsets) = (0, 0);
    cases(150, |rng| {
        let config = small_config(rng);
        let first = random_case(rng, &config);
        let second = random_case(rng, &config);
        for backend in [AccelBackend::Scalar, AccelBackend::Soa] {
            let config = config.with_backend(backend);
            let mut reused = Gpu::new(config, MEM_WORDS);
            let outcome = run(&mut reused, &kernel, &first);
            let (at, staged) = &first.stage;
            let mut expect = vec![0; MEM_WORDS];
            expect[*at as usize / 4..][..staged.len()].copy_from_slice(staged);
            if outcome.is_err() && image(&reused) != expect {
                partial_faults += 1;
            }
            if let Ok((_, events)) = &outcome {
                global_upsets += events
                    .iter()
                    .filter(|e| e.label == "global" && e.outcome == InjectionOutcome::Applied)
                    .count();
            }
            reused.reset();
            assert!(
                image(&reused).iter().all(|&w| w == 0),
                "{backend:?}: reset left a non-zero word after {outcome:?}"
            );

            let mut fresh = Gpu::new(config, MEM_WORDS);
            let a = run(&mut reused, &kernel, &second);
            let b = run(&mut fresh, &kernel, &second);
            assert_eq!(a, b, "{backend:?}: relaunch outcome differs");
            assert!(
                image(&reused) == image(&fresh),
                "{backend:?}: relaunch memory image differs"
            );
        }
    });
    assert!(partial_faults > 0, "no launch faulted after storing");
    assert!(global_upsets > 0, "no global-word upset landed");
}
