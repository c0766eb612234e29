//! `Gpu::launch_forked` against the launches it stands for: every
//! injection's forked result equals `launch_hardened` with that one
//! injection on a fresh machine, in `RunStats`, fault log, typed error
//! and the whole memory image, on both backends, and the fault-free
//! result it returns equals an empty-plan hardened launch.
//!
//! The kernels stream through global memory and the cache, trade
//! values through the LRAM across a barrier, diverge, or spin forever.
//! The machines are small; some have a cycle ceiling the launch
//! reaches, and most a watchdog that can trip. The injection sets mix
//! cycle 0, cycles past the end and injections that share a pass time;
//! every site kind, vacant coordinates and check-bit-only flips; and 0
//! to 3 codeword flips under no protection, parity and SEC-DED. The
//! coverage counts include upsets in state a kernel never accesses,
//! which the fork answers from the fault-free run, and upsets on the
//! registers it does access.

use ggpu_isa::Inst;
use ggpu_prop::{cases, Rng};
use ggpu_simt::{
    AccelBackend, FaultEvent, FaultPlan, FaultSite, Gpu, HardenedOptions, HardenedRun, Injection,
    InjectionOutcome, Kernel, Launch, Protection, RunStats, SimError, SimtConfig, WatchdogConfig,
    LOCAL_WORDS,
};

/// 16 pages of 4 KiB.
const MEM_WORDS: usize = 16 * 1024;
/// Byte address of the staged input (pages 0 and 1).
const IN: u32 = 0;
/// Byte address of the output (page 8 onwards).
const OUT: u32 = 0x8000;

/// `out[gid]` = the sum of `param2` input words spaced 256 bytes
/// apart from `in[gid]`. A trip count of 0 wraps and runs off the end
/// of memory (or into the cycle ceiling).
const STREAM: &str = "
    gid   r1
    param r2, 0
    param r3, 1
    param r4, 2
    slli  r5, r1, 2
    add   r6, r5, r2
    addi  r7, r0, 0
    loop:
    lw    r8, r6, 0
    add   r7, r7, r8
    addi  r6, r6, 256
    addi  r4, r4, -1
    bne   r4, r0, loop
    add   r9, r5, r3
    sw    r9, r7, 0
    ret
";

/// Each lane parks `in[gid] + gid` in the LRAM at its local id, then
/// after the barrier stores its neighbour's word to `out[gid]`.
const EXCHANGE: &str = "
    lid    r1
    gid    r2
    wgsize r3
    slli   r4, r1, 2
    param  r5, 0
    slli   r6, r2, 2
    add    r6, r6, r5
    lw     r7, r6, 0
    add    r7, r7, r2
    swl    r4, r7, 0
    bar
    addi   r8, r1, 1
    remu   r8, r8, r3
    slli   r8, r8, 2
    lwl    r9, r8, 0
    param  r10, 1
    slli   r11, r2, 2
    add    r11, r11, r10
    sw     r11, r9, 0
    ret
";

/// Lane `gid` loops `gid % 5` times, so a wavefront diverges.
const DIVERGE: &str = "
    gid   r1
    addi  r2, r0, 5
    remu  r3, r1, r2
    addi  r4, r0, 0
    beq   r3, r0, done
    loop:
    add   r4, r4, r1
    mul   r4, r4, r3
    addi  r3, r3, -1
    bne   r3, r0, loop
    done:
    param r5, 1
    slli  r6, r1, 2
    add   r6, r6, r5
    sw    r6, r4, 0
    ret
";

/// Every lane stores its id, then the odd lanes spin forever: the
/// watchdog trips, or without one the cycle ceiling.
const SPIN: &str = "
    gid   r1
    param r3, 1
    slli  r4, r1, 2
    add   r4, r4, r3
    sw    r4, r1, 0
    andi  r2, r1, 1
    beq   r2, r0, done
    spin:
    jmp   spin
    done:
    ret
";

fn small_config(rng: &mut Rng) -> SimtConfig {
    let mut c = SimtConfig::with_cus(rng.u32_in(1, 2));
    c.wavefront_size = rng.pick_copy(&[8, 16, 33, 64]);
    c.max_wavefronts_per_cu = rng.u32_in(2, 8);
    c.max_cycles = if rng.chance(0.2) {
        rng.u64_in(200, 3000)
    } else {
        20_000
    };
    c
}

fn random_launch(rng: &mut Rng, config: &SimtConfig) -> (Kernel, Launch) {
    let (name, src) = rng.pick_copy(&[
        ("stream", STREAM),
        ("exchange", EXCHANGE),
        ("diverge", DIVERGE),
        ("spin", SPIN),
    ]);
    let kernel = Kernel::from_asm(name, src).expect("kernel assembles");
    let max_wg = (config.wavefront_size * config.max_wavefronts_per_cu).min(128);
    let n = rng.u32_in(1, 256);
    let wg = rng.u32_in(1, max_wg);
    let trips = rng.pick_copy(&[0, 1, 2, 3, 4, 6]);
    (kernel, Launch::new(n, wg, vec![IN, OUT, trips]))
}

/// A site of every kind, its coordinates sometimes one past the live
/// machine (vacant). Half the register sites hit one of the `named`
/// registers (bit `r` for register `r`), which the kernel reads or
/// writes, in one of the first 8 lanes of the oldest resident wavefront
/// of CU 0, which are live for most of a run.
fn random_site(rng: &mut Rng, config: &SimtConfig, named: u32) -> FaultSite {
    let cu = rng.u32_in(0, config.compute_units);
    let slot = rng.u32_in(0, config.max_wavefronts_per_cu);
    let lane = rng.u32_in(0, config.wavefront_size);
    match rng.u32_in(0, 6) {
        0 => FaultSite::Register {
            cu,
            slot,
            lane,
            reg: rng.u32_in(0, 40) as u8,
        },
        1 => FaultSite::LocalWord {
            cu,
            word: if rng.chance(0.9) {
                rng.u32_in(0, 128)
            } else {
                rng.u32_in(LOCAL_WORDS as u32 - 4, LOCAL_WORDS as u32 + 4)
            },
        },
        2 => FaultSite::GlobalWord {
            word: match rng.u32_in(0, 3) {
                0 => rng.u32_in(0, 1100),
                1 => OUT / 4 + rng.u32_in(0, 300),
                2 => rng.u32_in(0, MEM_WORDS as u32 - 1),
                _ => MEM_WORDS as u32 + rng.u32_in(0, 8),
            },
        },
        3 => FaultSite::Pc { cu, slot, lane },
        4 | 5 => FaultSite::ExecMask { cu, slot, lane },
        _ => {
            let regs: Vec<u8> = (0..32).filter(|r| named >> r & 1 == 1).collect();
            FaultSite::Register {
                cu: 0,
                slot: 0,
                lane: rng.u32_in(0, 7),
                reg: rng.pick_copy(&regs),
            }
        }
    }
}

/// One injection: cycle 0, a cycle past `end`, the cycle of (or just
/// after) an earlier injection, or any cycle of the run; 0-3 data
/// flips (bits past 31 wrap, and a bit named twice cancels) and 0-3
/// codeword flips, so some flips hit only check bits.
fn random_injection(
    rng: &mut Rng,
    config: &SimtConfig,
    named: u32,
    end: u64,
    earlier: &[Injection],
) -> Injection {
    let cycle = match rng.u32_in(0, 5) {
        0 => 0,
        1 => end + rng.u64_in(1, 50),
        2 if !earlier.is_empty() => rng.pick(earlier).cycle + rng.u64_in(0, 2),
        _ => rng.u64_in(0, end),
    };
    let site = random_site(rng, config, named);
    Injection {
        cycle,
        site,
        flips: (0..rng.usize_in(0, 3))
            .map(|_| rng.u32_in(0, 40) as u8)
            .collect(),
        codeword_flips: rng.u32_in(0, 3),
        protection: rng.pick_copy(&[Protection::None, Protection::Parity, Protection::SecDed]),
        label: format!("{}#{}", site.domain(), earlier.len()),
    }
}

/// What a caller can observe of one run.
type Seen = (Result<(RunStats, Vec<FaultEvent>), SimError>, Vec<u32>);

fn seen(result: Result<HardenedRun, SimError>, image: &[u32]) -> Seen {
    (result.map(|r| (r.stats, r.log.events)), image.to_vec())
}

fn staged(config: SimtConfig, input: &[u32]) -> Gpu {
    let mut gpu = Gpu::new(config, MEM_WORDS);
    gpu.write_words(IN, input).expect("input fits");
    gpu
}

fn image(gpu: &Gpu) -> Vec<u32> {
    gpu.read_words(0, MEM_WORDS).expect("whole memory")
}

/// Registers `kernel` reads or writes, bit `r` for register `r`.
fn named_registers(kernel: &Kernel) -> u32 {
    kernel
        .program
        .iter()
        .flat_map(|inst| inst.uses().chain(inst.def()))
        .fold(0, |named, r| named | 1 << r.index())
}

/// `true` if `kernel` touches the LRAM.
fn uses_lram(kernel: &Kernel) -> bool {
    kernel
        .program
        .iter()
        .any(|inst| matches!(inst, Inst::Lwl { .. } | Inst::Swl { .. }))
}

/// Outcome categories the suite must reach, so a property that
/// silently stopped covering one fails.
#[derive(Default, Debug)]
struct Coverage {
    landed_and_changed: u32,
    corrected: u32,
    vacant: u32,
    never_applied: u32,
    detected: u32,
    watchdog: u32,
    cycle_limit: u32,
    shared_pass: u32,
    /// A landing upset on a register no instruction names.
    unnamed_register: u32,
    /// A landing upset in the LRAM of a kernel without `lwl`/`swl`.
    lram_without_lwl: u32,
    /// A landing upset on a global word in a page the fault-free run
    /// never touches: its image differs from the fault-free image in
    /// that word alone.
    untouched_page: u32,
    /// A landing upset on a register the kernel names that changed the
    /// run.
    named_register_changed: u32,
}

impl Coverage {
    fn tally(&mut self, kernel: &Kernel, inj: &Injection, want: &Seen, golden: &Seen) {
        // What the upset changed; the log always differs, the
        // fault-free one being empty.
        fn result(seen: &Seen) -> Result<RunStats, &SimError> {
            seen.0.as_ref().map(|(stats, _)| *stats)
        }
        let changed = result(want) != result(golden) || want.1 != golden.1;
        let named = named_registers(kernel);
        match &want.0 {
            Ok((_, events)) => match events.first().map(|e| e.outcome) {
                None => self.never_applied += 1,
                Some(InjectionOutcome::Corrected) => self.corrected += 1,
                Some(InjectionOutcome::Vacant) => self.vacant += 1,
                Some(_) => {
                    self.landed_and_changed += u32::from(changed);
                    match inj.site {
                        FaultSite::Register { reg, .. } if named >> (reg & 31) & 1 == 0 => {
                            self.unnamed_register += 1
                        }
                        FaultSite::LocalWord { .. } if !uses_lram(kernel) => {
                            self.lram_without_lwl += 1
                        }
                        FaultSite::GlobalWord { word } => {
                            self.untouched_page += u32::from(in_untouched_page(word, want, golden))
                        }
                        _ => {}
                    }
                }
            },
            Err(SimError::UncorrectableFault(_)) => {
                self.detected += 1;
                return;
            }
            Err(SimError::Watchdog { .. }) => self.watchdog += 1,
            Err(SimError::CycleLimit { .. }) => self.cycle_limit += 1,
            Err(_) => {}
        }
        // Only a landing upset changes a run, whatever its end. In a
        // fault-free run that completed, the watchdog never saw the
        // state stand still, so the fork may answer never-accessed
        // registers there: a fork that took a named one for such a
        // register would fail this case.
        if let FaultSite::Register { reg, .. } = inj.site {
            let named = named >> (reg & 31) & 1 == 1;
            self.named_register_changed += u32::from(changed && named && golden.0.is_ok());
        }
    }
}

/// `true` when a global upset of `word` lands in a page no completed
/// run of the test kernels touches: they read only the first input
/// page and write only the output page. The fresh run then ends like
/// the fault-free one, its image differing in that word alone.
fn in_untouched_page(word: u32, want: &Seen, golden: &Seen) -> bool {
    let page = word as usize / 1024;
    let addressed = [IN, OUT].map(|a| a as usize / 4096).contains(&page);
    let same_run = matches!((&want.0, &golden.0),
        (Ok((got, _)), Ok((fault_free, _))) if got == fault_free);
    let differs: Vec<usize> = (0..want.1.len())
        .filter(|&w| want.1[w] != golden.1[w])
        .collect();
    !addressed && same_run && differs == [word as usize]
}

#[test]
fn forked_runs_equal_single_injection_launches() {
    let mut cov = Coverage::default();
    cases(48, |rng| {
        let config = small_config(rng);
        let (kernel, launch) = random_launch(rng, &config);
        let input: Vec<u32> = (0..1100).map(|_| rng.u32_in(0, 1000)).collect();
        let watchdog = rng.chance(0.7).then(|| WatchdogConfig {
            interval: rng.u64_in(32, 512),
            patience: rng.u32_in(1, 2),
        });
        let hardened = |config: SimtConfig, plan: Vec<Injection>| -> Seen {
            let mut gpu = staged(config, &input);
            let opts = HardenedOptions {
                plan: FaultPlan::new(plan),
                watchdog,
            };
            let result = gpu.launch_hardened(&kernel, &launch, &opts);
            seen(result, &image(&gpu))
        };
        let end = match hardened(config, Vec::new()).0 {
            Ok((stats, _)) => stats.cycles,
            Err(SimError::Watchdog { cycle }) => cycle,
            Err(SimError::CycleLimit { limit }) => limit,
            Err(_) => 500,
        };
        let mut injections: Vec<Injection> = Vec::new();
        for _ in 0..rng.usize_in(1, 10) {
            let inj = random_injection(rng, &config, named_registers(&kernel), end, &injections);
            injections.push(inj);
        }
        let mut cycles: Vec<u64> = injections.iter().map(|i| i.cycle).collect();
        cycles.sort_unstable();
        cov.shared_pass += u32::from(cycles.windows(2).any(|w| w[1] - w[0] <= 2));

        for backend in [AccelBackend::Scalar, AccelBackend::Soa] {
            let config = SimtConfig { backend, ..config };
            let mut forked: Vec<Option<Seen>> = vec![None; injections.len()];
            let mut gpu = staged(config, &input);
            let golden = gpu.launch_forked(&kernel, &launch, watchdog, &injections, |i, r, img| {
                assert!(
                    forked[i].is_none(),
                    "{backend:?}: injection {i} visited twice"
                );
                forked[i] = Some(seen(r, img));
            });
            let golden = seen(golden, &image(&gpu));
            let want_golden = hardened(config, Vec::new());
            assert_eq!(golden.0, want_golden.0, "{backend:?}: fault-free result");
            assert!(
                golden.1 == want_golden.1,
                "{backend:?}: fault-free memory image differs"
            );
            for (i, inj) in injections.iter().enumerate() {
                let got = forked[i]
                    .take()
                    .unwrap_or_else(|| panic!("{backend:?}: injection {i} never visited"));
                let want = hardened(config, vec![inj.clone()]);
                assert_eq!(got.0, want.0, "{backend:?}: result of {inj:?}");
                assert!(
                    got.1 == want.1,
                    "{backend:?}: memory image of {inj:?} differs"
                );
                if backend == AccelBackend::Soa {
                    cov.tally(&kernel, inj, &want, &want_golden);
                }
            }
        }
    });
    let c = &cov;
    for (what, n) in [
        ("a landed upset that changed the run", c.landed_and_changed),
        ("a SEC-DED correction", c.corrected),
        ("a vacant site", c.vacant),
        ("an injection past the end", c.never_applied),
        ("a detected upset", c.detected),
        ("a watchdog trip", c.watchdog),
        ("the cycle ceiling", c.cycle_limit),
        ("injections sharing a pass time", c.shared_pass),
        ("a landed upset on an unnamed register", c.unnamed_register),
        ("a landed LRAM upset without lwl/swl", c.lram_without_lwl),
        ("a landed upset in an untouched page", c.untouched_page),
        (
            "a landed register upset that changed the run",
            c.named_register_changed,
        ),
    ] {
        assert!(n > 0, "no case reached {what}: {c:?}");
    }
}

/// Injections at cycle 0 land before any dispatch: only the memory
/// sites resolve, and a global upset of an input word changes the
/// output.
#[test]
fn cycle_zero_upsets_only_reach_memory() {
    let config = SimtConfig::with_cus(1);
    let kernel = Kernel::from_asm("stream", STREAM).expect("kernel assembles");
    let launch = Launch::new(64, 64, vec![IN, OUT, 1]);
    let input: Vec<u32> = (0..64).collect();
    let at0 = |site| Injection::single(0, site, 4, Protection::None).with_label("t");
    let injections = [
        at0(FaultSite::GlobalWord { word: 5 }),
        at0(FaultSite::Register {
            cu: 0,
            slot: 0,
            lane: 0,
            reg: 1,
        }),
        at0(FaultSite::LocalWord { cu: 0, word: 0 }),
    ];
    let mut outcomes = Vec::new();
    let mut gpu = staged(config, &input);
    gpu.launch_forked(&kernel, &launch, None, &injections, |i, r, img| {
        let run = r.expect("completes");
        outcomes.push((i, run.log.events[0].outcome, img[OUT as usize / 4 + 5]));
    })
    .expect("fault-free run");
    outcomes.sort_by_key(|o| o.0);
    assert_eq!(
        outcomes,
        vec![
            (0, InjectionOutcome::Applied, 5 ^ 16),
            (1, InjectionOutcome::Vacant, 5),
            (2, InjectionOutcome::Applied, 5),
        ]
    );
}

/// The watchdog gate: under a watchdog that the fault-free `SPIN` run
/// trips, an upset mid-spin in the LRAM (`SPIN` has no `lwl`/`swl`) or
/// in a register no instruction names changes the fingerprint, so it
/// resets the streak that was building and the run trips later. Such
/// upsets must run their suffix, not take the fault-free result.
#[test]
fn upsets_that_reset_a_watchdog_streak_run_their_suffix() {
    let kernel = Kernel::from_asm("spin", SPIN).expect("kernel assembles");
    let launch = Launch::new(64, 64, vec![IN, OUT, 0]);
    let watchdog = Some(WatchdogConfig {
        interval: 256,
        patience: 2,
    });
    for backend in [AccelBackend::Scalar, AccelBackend::Soa] {
        let config = SimtConfig {
            backend,
            ..SimtConfig::with_cus(1)
        };
        let hardened = |plan: Vec<Injection>| -> Seen {
            let mut gpu = staged(config, &[]);
            let opts = HardenedOptions {
                plan: FaultPlan::new(plan),
                watchdog,
            };
            let result = gpu.launch_hardened(&kernel, &launch, &opts);
            seen(result, &image(&gpu))
        };
        let Err(SimError::Watchdog { cycle: trip }) = hardened(Vec::new()).0 else {
            panic!("{backend:?}: the fault-free spin must trip the watchdog");
        };
        // Between the check that began the streak and the one that
        // ends it.
        let mid = trip - 128;
        let lane1_r20 = FaultSite::Register {
            cu: 0,
            slot: 0,
            lane: 1,
            reg: 20,
        };
        let injections = [
            Injection::single(
                mid,
                FaultSite::LocalWord { cu: 0, word: 3 },
                0,
                Protection::None,
            ),
            Injection::single(mid, lane1_r20, 5, Protection::None),
        ];
        let mut forked: Vec<Option<Seen>> = vec![None; injections.len()];
        let mut gpu = staged(config, &[]);
        let _ = gpu.launch_forked(&kernel, &launch, watchdog, &injections, |i, r, img| {
            forked[i] = Some(seen(r, img));
        });
        for (inj, got) in injections.iter().zip(forked) {
            let got = got.expect("every injection is visited");
            let want = hardened(vec![inj.clone()]);
            assert_eq!(got.0, want.0, "{backend:?}: result of {inj:?}");
            assert!(got.1 == want.1, "{backend:?}: memory image of {inj:?}");
            match want.0 {
                Err(SimError::Watchdog { cycle }) => {
                    assert_ne!(
                        cycle, trip,
                        "{backend:?}: {inj:?} left the streak as it was"
                    )
                }
                other => panic!("{backend:?}: {inj:?} ended {other:?}"),
            }
        }
    }
}
