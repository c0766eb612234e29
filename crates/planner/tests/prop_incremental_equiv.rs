//! Equivalence and accounting properties of the incremental STA path.
//!
//! The incremental engine (`StaCache::new()` backed by
//! `ggpu_sta::IncrementalSta`) must be observationally *bit-identical*
//! to the full recompute (`StaCache::passthrough()` /
//! `ggpu_sta::analyze`): same `TimingReport`s down to slack bit
//! patterns, same `OptimizationPlan`s out of the DSE, same fmax. These
//! properties drive randomized transform sequences through both paths
//! and compare.

mod common;

use common::random_design;
use ggpu_netlist::module::Module;
use ggpu_netlist::timing::{LogicStage, PathEndpoint, TimingPath};
use ggpu_netlist::Design;
use ggpu_prop::{cases, Rng};
use ggpu_rtl::{generate, GgpuConfig};
use ggpu_sta::analyze;
use ggpu_tech::sram::MIN_WORDS;
use ggpu_tech::stdcell::CellClass;
use ggpu_tech::units::{Mhz, Ns};
use ggpu_tech::Tech;
use gpuplanner::{apply_plan_dirty, optimize_for_with, OptimizationPlan, StaCache};

/// A random plan valid against [`random_design`]'s shape.
fn random_plan(rng: &mut Rng, design: &Design) -> OptimizationPlan {
    let mut plan = OptimizationPlan::default();
    for id in design.module_ids() {
        let module = design.module(id);
        for mac in &module.macros {
            if rng.chance(0.5) {
                let mut factor = 1u32 << rng.u32_in(1, 3); // 2, 4, 8
                while mac.config.words / factor < MIN_WORDS {
                    factor /= 2;
                }
                if factor >= 2 {
                    plan.divisions
                        .insert((module.name.clone(), mac.name.clone()), factor);
                }
            }
        }
        if rng.chance(0.4) && module.paths.iter().any(|p| p.name == "logic") {
            plan.pipelines.push((module.name.clone(), "logic".into()));
        }
    }
    plan
}

#[test]
fn random_transform_sequences_are_bit_identical_incremental_vs_full() {
    let tech = Tech::l65();
    cases(48, |rng| {
        let base = random_design(rng);
        let plan = random_plan(rng, &base);
        let (mutated, dirty) = apply_plan_dirty(&base, &plan).expect("plan applies");
        let clock = Mhz::new(rng.f64_in(200.0, 900.0));

        // Warm the incremental cache on the baseline, then analyze the
        // mutated design through the delta path.
        let cache = StaCache::new();
        cache.analyze(&base, &tech, clock).expect("baseline times");
        let incremental = cache
            .analyze_delta(&mutated, &tech, clock, &dirty)
            .expect("delta times");

        let full = analyze(&mutated, &tech, clock).expect("full times");
        assert_eq!(incremental, full, "reports diverge");
        for (a, b) in incremental.paths().iter().zip(full.paths()) {
            assert_eq!(
                a.slack.value().to_bits(),
                b.slack.value().to_bits(),
                "slack bits diverge on {}::{}",
                a.module,
                a.path
            );
        }
        // The dirty set from apply_plan_dirty must be complete: no
        // undeclared mutations.
        assert_eq!(cache.engine_stats().undeclared_dirty, 0);

        // fmax agrees bit-for-bit too.
        let f_inc = cache.max_frequency(&mutated, &tech).expect("fmax");
        let f_full = ggpu_sta::max_frequency(&mutated, &tech).expect("fmax");
        match (f_inc, f_full) {
            (Some(a), Some(b)) => assert_eq!(a.value().to_bits(), b.value().to_bits()),
            (a, b) => assert_eq!(a, b),
        }
    });
}

#[test]
fn dse_plans_identical_incremental_vs_passthrough() {
    let tech = Tech::l65();
    let base = generate(&GgpuConfig::with_cus(1).unwrap()).unwrap();
    for target in [590.0, 667.0] {
        let target = Mhz::new(target);
        let cached = optimize_for_with(&base, &tech, target, &StaCache::new()).unwrap();
        let reference = optimize_for_with(&base, &tech, target, &StaCache::passthrough()).unwrap();
        assert_eq!(cached.plan, reference.plan, "plans diverge at {target}");
        assert_eq!(
            cached.fmax.value().to_bits(),
            reference.fmax.value().to_bits(),
            "fmax diverges at {target}"
        );
        assert_eq!(
            cached.design, reference.design,
            "designs diverge at {target}"
        );
        assert_eq!(cached.trace, reference.trace, "traces diverge at {target}");
    }
}

#[test]
fn cache_accounting_is_monotone_and_repeat_sweeps_hit() {
    let tech = Tech::l65();
    let base = generate(&GgpuConfig::with_cus(1).unwrap()).unwrap();
    let cache = StaCache::new();
    let target = Mhz::new(590.0);

    let first = optimize_for_with(&base, &tech, target, &cache).unwrap();
    let h1 = cache.hits();
    let m1 = cache.misses();
    let e1 = cache.engine_stats();
    assert!(m1 > 0, "first sweep must compute something");
    assert!(
        e1.module_hits > 0,
        "DSE iterations share unchanged modules, so the module-level \
         engine must hit even on the first sweep"
    );

    // The identical sweep again: every design-level query repeats, so
    // hits grow and misses stand still.
    let second = optimize_for_with(&base, &tech, target, &cache).unwrap();
    assert_eq!(first.plan, second.plan);
    let h2 = cache.hits();
    let m2 = cache.misses();
    let e2 = cache.engine_stats();
    assert!(h2 > h1, "repeat sweep produced no hits");
    assert_eq!(m2, m1, "repeat sweep recomputed something");
    // All counters are monotone.
    assert!(e2.module_hits >= e1.module_hits);
    assert!(e2.module_misses >= e1.module_misses);
    assert!(e2.analyze_calls >= e1.analyze_calls);
    assert!(e2.fmax_calls >= e1.fmax_calls);
    assert_eq!(
        e2.module_misses, e1.module_misses,
        "repeat sweep re-timed a module"
    );
    let rate = e2.hit_rate();
    assert!((0.0..=1.0).contains(&rate));
}

#[test]
fn nan_route_delay_never_panics_and_sorts_to_the_tail() {
    let tech = Tech::l65();
    let mut d = Design::new("nan");
    let mut m = Module::new("m");
    m.paths.push(TimingPath::new(
        "good",
        PathEndpoint::Register,
        PathEndpoint::Register,
        LogicStage::chain(CellClass::Nand2, 6, 2),
    ));
    let mut bad = TimingPath::new(
        "corrupt",
        PathEndpoint::Register,
        PathEndpoint::Register,
        LogicStage::chain(CellClass::Nand2, 4, 2),
    );
    bad.route_delay = Ns::new(f64::NAN);
    m.paths.push(bad);
    let id = d.add_module(m);
    d.set_top(id);

    let cache = StaCache::new();
    let report = cache.analyze(&d, &tech, Mhz::new(500.0)).expect("no panic");
    assert_eq!(report.paths().len(), 2);
    // total_cmp sends the (positive) NaN slack to the tail, so the
    // well-formed path stays critical.
    assert_eq!(report.critical().unwrap().path, "good");
    assert!(report.paths()[1].slack.value().is_nan());
    // fmax selection must not panic either.
    let _ = cache.max_frequency(&d, &tech).expect("no panic");
}
