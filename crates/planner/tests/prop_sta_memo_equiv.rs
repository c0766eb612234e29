//! Equivalence and accounting properties of the memoized STA path.
//!
//! The design-level memo (`StaCache::new()`) must be observationally
//! *bit-identical* to the full recompute (`ggpu_sta::analyze` /
//! `ggpu_sta::max_frequency`): same `TimingReport`s down to slack bit
//! patterns, same `OptimizationPlan`s out of the DSE, same fmax. The
//! design fingerprint is the memo's only reuse rule, so these
//! properties drive randomized transform sequences through both paths
//! and compare: a transformed design must never get its base's answer.

mod common;

use common::random_design;
use ggpu_netlist::module::Module;
use ggpu_netlist::timing::{LogicStage, PathEndpoint, TimingPath};
use ggpu_netlist::Design;
use ggpu_prop::{cases, Rng};
use ggpu_rtl::{generate, GgpuConfig};
use ggpu_sta::{analyze, StaError};
use ggpu_tech::sram::MIN_WORDS;
use ggpu_tech::stdcell::CellClass;
use ggpu_tech::units::{Mhz, Ns};
use ggpu_tech::Tech;
use gpuplanner::{
    advise, apply_plan, optimize_for, optimize_for_with, Advice, DseError, OptimizationPlan,
    StaCache,
};

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
fn random_transform_sequences_are_bit_identical_memo_vs_full() {
    let tech = Tech::l65();
    cases(48, |rng| {
        let base = random_design(rng);
        let clock = Mhz::new(rng.f64_in(200.0, 900.0));
        // Warm the cache on the baseline (both entry points) before the
        // plan applies, so the mutated design starts as a copy with
        // warm fingerprints and shares every untouched module with it.
        let cache = StaCache::new();
        cache.analyze(&base, &tech, clock).expect("baseline times");
        cache.max_frequency(&base, &tech).expect("baseline fmax");
        let plan = random_plan(rng, &base);
        let mutated = apply_plan(&base, &plan).expect("plan applies");
        let memo = cache
            .analyze(&mutated, &tech, clock)
            .expect("mutated design times");

        let full = analyze(&mutated, &tech, clock).expect("full times");
        assert_eq!(memo, full, "reports diverge");
        for (a, b) in memo.paths().iter().zip(full.paths()) {
            assert_eq!(
                a.slack.value().to_bits(),
                b.slack.value().to_bits(),
                "slack bits diverge on {}::{}",
                a.module,
                a.path
            );
        }
        // fmax agrees bit-for-bit too.
        let f_memo = cache.max_frequency(&mutated, &tech).expect("fmax");
        let f_full = ggpu_sta::max_frequency(&mutated, &tech).expect("fmax");
        match (f_memo, f_full) {
            (Some(a), Some(b)) => assert_eq!(a.value().to_bits(), b.value().to_bits()),
            (a, b) => assert_eq!(a, b),
        }
    });
}

/// The macro a division part (`<name>_d<n>`) was cut from; plans key
/// the original macro.
fn undivided(name: &str) -> &str {
    match name.rsplit_once("_d") {
        Some((stem, n)) if !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()) => stem,
        _ => name,
    }
}

/// The DSE over one shared cache, replayed step by step with no memo
/// across designs: each step's design is rebuilt from the base through
/// `apply_plan`, and `advise` times it through a fresh table per call.
/// Every piece of advice, the plan, the fmax bits and the design must
/// match the cached run's.
#[test]
fn dse_plans_identical_memo_vs_replayed_advice() {
    let tech = Tech::l65();
    let base = generate(&GgpuConfig::with_cus(1).unwrap()).unwrap();
    let cache = StaCache::new();
    for target in [590.0, 667.0] {
        let target = Mhz::new(target);
        let cached = optimize_for_with(&base, &tech, target, &cache).unwrap();
        let mut plan = OptimizationPlan::default();
        for (step, logged) in cached.trace.iter().enumerate() {
            let design = apply_plan(&base, &plan).unwrap();
            let advice = advise(&design, &tech, target).unwrap();
            assert_eq!(advice.to_string(), *logged, "step {step} at {target}");
            match advice {
                Advice::Met { fmax } => {
                    assert_eq!(step + 1, cached.trace.len(), "met early at {target}");
                    assert_eq!(plan, cached.plan, "plans diverge at {target}");
                    assert_eq!(
                        fmax.value().to_bits(),
                        cached.fmax.value().to_bits(),
                        "fmax diverges at {target}"
                    );
                    assert_eq!(design, cached.design, "designs diverge at {target}");
                }
                Advice::DivideMemory {
                    module, macro_name, ..
                } => {
                    let key = (module, undivided(&macro_name).to_string());
                    *plan.divisions.entry(key).or_insert(1) *= 2;
                }
                Advice::InsertPipeline { module, path, .. } => plan.pipelines.push((module, path)),
                Advice::Stuck { .. } => panic!("stuck at {target}"),
            }
        }
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
    assert!(m1 > 0, "first sweep must compute something");

    // The identical sweep again: every design-level query repeats, so
    // hits grow and misses stand still.
    let second = optimize_for_with(&base, &tech, target, &cache).unwrap();
    assert_eq!(first.plan, second.plan);
    let h2 = cache.hits();
    let m2 = cache.misses();
    assert!(h2 > h1, "repeat sweep produced no hits");
    assert_eq!(m2, m1, "repeat sweep recomputed something");
}

#[test]
fn nan_route_delay_never_panics_and_sorts_to_the_tail() {
    let tech = Tech::l65();
    let d = design_with_routes(&[("good", 0.0), ("corrupt", f64::NAN)]);
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

/// A one-module design with one register-to-register path per
/// `(name, route delay in ns)` pair.
fn design_with_routes(routes: &[(&str, f64)]) -> Design {
    let mut d = Design::new("routes");
    let mut m = Module::new("m");
    for &(name, route) in routes {
        let mut path = TimingPath::new(
            name,
            PathEndpoint::Register,
            PathEndpoint::Register,
            LogicStage::chain(CellClass::Nand2, 4, 2),
        );
        path.route_delay = Ns::new(route);
        m.paths.push(path);
    }
    let id = d.add_module(m);
    d.set_top(id);
    d
}

#[test]
fn critical_paths_without_a_positive_period_are_typed_errors() {
    let tech = Tech::l65();
    let target = Mhz::new(500.0);
    // In each design the `corrupt` path is the critical one: alone, or
    // ahead of a good path because `total_cmp` sorts a sign-set NaN
    // slack first.
    let cases: [(&str, &[(&str, f64)]); 4] = [
        ("NaN route", &[("corrupt", f64::NAN)]),
        ("-NaN route", &[("good", 0.0), ("corrupt", -f64::NAN)]),
        ("-100 ns route", &[("corrupt", -100.0)]),
        ("infinite route", &[("corrupt", f64::INFINITY)]),
    ];
    let names_corrupt = |e: &StaError| match e {
        StaError::InvalidPeriod { module, path, .. } => module == "m" && path == "corrupt",
        _ => false,
    };
    for (case, routes) in cases {
        let d = design_with_routes(routes);
        for (engine, fmax) in [
            ("ggpu_sta", ggpu_sta::max_frequency(&d, &tech)),
            ("StaCache::new", StaCache::new().max_frequency(&d, &tech)),
        ] {
            match fmax {
                Err(e) if names_corrupt(&e) => {}
                other => panic!("{case}, {engine}: expected InvalidPeriod, got {other:?}"),
            }
        }
        match advise(&d, &tech, target) {
            Err(e) if names_corrupt(&e) => {}
            other => panic!("{case}, advise: expected InvalidPeriod, got {other:?}"),
        }
        match optimize_for(&d, &tech, target) {
            Err(DseError::Sta(e)) if names_corrupt(&e) => {}
            other => panic!("{case}, optimize_for: expected DseError::Sta, got {other:?}"),
        }
    }
}
