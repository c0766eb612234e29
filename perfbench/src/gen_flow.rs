//! `gen_flow`: one op is one generator session on a fresh
//! `GpuPlanner`, so its STA cache starts cold as in a new CLI run:
//!
//! * the 12 Table-I specs through `Supervisor::run_spec`, plus their
//!   datasheets;
//! * the 4 physical versions through `plan`, `implement` and
//!   `ggpu_pnr::to_svg`;
//! * a 24-point sweep journaled to a fresh checkpoint with the default
//!   fsync, then the same sweep resumed from the complete journal.
//!
//! Datasheets, SVGs and the sweep report must be byte-identical in
//! every session, and the resumed sweep must render like the journaled
//! one. The traced run also replays the supervisor's stage bodies
//! without supervision (as `flow_bench` does) on a second cold planner,
//! to split `run_spec` into verify, DSE, synthesis and implementation.

use crate::fault_campaign::mix;
use crate::trace::Tracer;
use crate::{mape, Layers, Outcome, Workload, OUT_DIR, THREADS};
use ggpu_pnr::to_svg;
use ggpu_rtl::generate;
use ggpu_simt::AccelBackend;
use ggpu_synth::synthesize;
use ggpu_tech::units::Mhz;
use ggpu_tech::Tech;
use gpuplanner::{
    datasheet, optimize_with_config, paper_versions, physical_versions, verify_kernels, DseConfig,
    GpuPlanner, Specification, StaCache, Supervisor, SupervisorConfig, SweepConfig,
};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Paper Table I: version, total mm², memory mm², #mem, total W.
const PAPER_TABLE1: [(&str, f64, f64, f64, f64); 12] = [
    ("1cu@500MHz", 4.19, 2.68, 51.0, 2.055),
    ("1cu@590MHz", 4.66, 3.15, 68.0, 2.66),
    ("1cu@667MHz", 4.77, 3.26, 71.0, 2.72),
    ("2cu@500MHz", 7.45, 4.64, 93.0, 3.77),
    ("2cu@590MHz", 8.16, 5.34, 120.0, 4.81),
    ("2cu@667MHz", 8.27, 5.45, 123.0, 4.87),
    ("4cu@500MHz", 13.84, 8.56, 177.0, 7.14),
    ("4cu@590MHz", 15.03, 9.72, 224.0, 9.02),
    ("4cu@667MHz", 15.15, 9.83, 227.0, 9.07),
    ("8cu@500MHz", 26.51, 16.39, 345.0, 13.86),
    ("8cu@590MHz", 28.65, 18.49, 432.0, 17.40),
    ("8cu@667MHz", 28.69, 18.60, 435.0, 19.76),
];

/// Session inputs: sweep ceilings drawn from the seed, and where the
/// sweep journal goes.
pub struct GenFlow {
    max_area_mm2: f64,
    max_power_w: f64,
    checkpoint: PathBuf,
}

/// A supervision policy pinned against the host: no deadline, a fixed
/// retry budget, immediate retries, no chaos.
fn pinned_config() -> SupervisorConfig {
    SupervisorConfig {
        stage_timeout: None,
        max_retries: 2,
        backoff_base_ms: 0,
        ..SupervisorConfig::default()
    }
}

/// Uniform draw in `[lo, hi)` from a 64-bit value.
fn draw(bits: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((bits >> 11) as f64 / (1u64 << 53) as f64)
}

impl GenFlow {
    /// Warms the process-wide memos a CLI run warms once — kernel
    /// verification and SRAM compilation — on a throwaway planner, so
    /// each session still starts with a cold STA cache.
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        tr.span("lint.preflight", |_| crate::paper_repro::lint_preflight())?;
        tr.span("planner.warm", |_| {
            GpuPlanner::new(Tech::l65())
                .plan(&Specification::new(1, Mhz::new(500.0)))
                .map_err(|e| e.to_string())
        })?;
        let a = mix(seed);
        Ok(Self {
            max_area_mm2: draw(a, 5.0, 30.0),
            max_power_w: draw(mix(a), 2.5, 20.0),
            checkpoint: PathBuf::from(format!("{OUT_DIR}/sweep-{}.wal", std::process::id())),
        })
    }

    fn remove_checkpoint(&self) -> Result<(), String> {
        match std::fs::remove_file(&self.checkpoint) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                Err(format!("removing {}: {e}", self.checkpoint.display()))
            }
            _ => Ok(()),
        }
    }
}

impl Drop for GenFlow {
    fn drop(&mut self) {
        let _ = self.remove_checkpoint();
    }
}

impl Workload for GenFlow {
    fn op(&mut self, tr: &mut Tracer) -> Result<Outcome, String> {
        let planner = GpuPlanner::new(Tech::l65());
        let supervisor = Supervisor::new(planner.clone()).with_config(pinned_config());
        let mut fingerprint = String::new();
        let mut counts: BTreeMap<String, f64> = BTreeMap::new();

        // The 12 Table-I versions, supervised, with datasheets, and the
        // (measured, paper) pairs of each compared Table-I column.
        let mut columns: [(&str, Vec<(f64, f64)>); 4] = [
            ("area", Vec::new()),
            ("mem_area", Vec::new()),
            ("macros", Vec::new()),
            ("power", Vec::new()),
        ];
        for (spec, paper) in paper_versions().into_iter().zip(PAPER_TABLE1) {
            let name = spec.version_name();
            if name != paper.0 {
                return Err(format!("version {name} where the paper has {}", paper.0));
            }
            let out = tr
                .span("planner.run_spec", |_| supervisor.run_spec(&spec))
                .map_err(|e| format!("{name}: {e}"))?;
            if !out.degradations.is_clean() {
                return Err(format!("{name}: a clean run degraded"));
            }
            fingerprint.push_str(&tr.span("planner.datasheet", |_| datasheet(&out.version)));
            let s = &out.version.planned.synthesis;
            let measured = [
                s.stats.total_area().to_mm2(),
                s.stats.macro_area.to_mm2(),
                s.stats.macro_count as f64,
                s.total_power().to_watts(),
            ];
            let reference = [paper.1, paper.2, paper.3, paper.4];
            for ((_, pairs), pair) in columns.iter_mut().zip(measured.into_iter().zip(reference)) {
                pairs.push(pair);
            }
        }
        for (name, pairs) in &columns {
            counts.insert(format!("accuracy.table1.{name}_mape_pct"), mape(pairs));
        }
        let all: Vec<(f64, f64)> = columns
            .iter()
            .flat_map(|(_, p)| p.iter().copied())
            .collect();
        counts.insert("accuracy.table1.mape_pct".into(), mape(&all));

        // The 4 physical versions and their layouts.
        for spec in physical_versions() {
            let name = spec.version_name();
            let implemented = tr
                .span("planner.physical", |_| {
                    planner.plan(&spec).and_then(|p| planner.implement(&p))
                })
                .map_err(|e| format!("{name}: {e}"))?;
            fingerprint.push_str(&tr.span("pnr.svg", |_| to_svg(&implemented.layout)));
            counts.insert(
                format!(
                    "pnr.wirelength.{}cu_{:.0}mhz",
                    spec.compute_units,
                    spec.frequency.value()
                ),
                implemented.layout.wirelength.total().value(),
            );
        }

        // A journaled sweep, then its resume from the complete journal.
        self.remove_checkpoint()?;
        let cfg = SweepConfig::budgets(self.max_area_mm2, self.max_power_w)
            .with_threads(THREADS)
            .with_checkpoint(&self.checkpoint);
        let journaled = tr
            .span("planner.sweep_journaled", |_| planner.sweep(&cfg))
            .map_err(|e| e.to_string())?;
        let bytes = std::fs::metadata(&self.checkpoint)
            .map_err(|e| format!("{}: {e}", self.checkpoint.display()))?
            .len();
        let resumed = tr
            .span("planner.sweep_resume", |_| planner.sweep(&cfg))
            .map_err(|e| e.to_string())?;
        self.remove_checkpoint()?;
        let points = GpuPlanner::sweep_points().len();
        if journaled.evaluated != points || resumed.resumed != points || resumed.evaluated != 0 {
            return Err(format!(
                "sweep planned {} and resumed {} of {points} points; the resume planned {}",
                journaled.evaluated, resumed.resumed, resumed.evaluated
            ));
        }
        let report = journaled.render();
        if resumed.render() != report {
            return Err("the resumed sweep renders differently".into());
        }
        fingerprint.push_str(&report);

        counts.insert("wal.journal_bytes".into(), bytes as f64);
        counts.insert("planner.sweep.evaluated".into(), journaled.evaluated as f64);
        counts.insert(
            "planner.sweep.unreachable".into(),
            journaled.unreachable as f64,
        );
        counts.insert("sta.cache_hits".into(), planner.sta_cache().hits() as f64);
        counts.insert(
            "sta.cache_misses".into(),
            planner.sta_cache().misses() as f64,
        );
        Ok(Outcome {
            fingerprint,
            counts,
        })
    }

    fn attribute(&mut self, tr: &mut Tracer) -> Result<(), String> {
        // The supervisor's stage bodies, unsupervised, on a planner as
        // cold as the session's; a separate cold table for the DSE-only
        // calls sees the same sequence of STA queries.
        let planner = GpuPlanner::new(Tech::l65());
        let dse_cache = StaCache::new();
        let tech = Tech::l65();
        for spec in paper_versions() {
            let name = spec.version_name();
            let e = |e: &dyn std::fmt::Display| format!("{name}: {e}");
            tr.span("plain.verify", |_| verify_kernels(AccelBackend::Soa))
                .map_err(|x| e(&x))?;
            let planned = tr
                .span("plain.plan", |_| planner.plan(&spec))
                .map_err(|x| e(&x))?;
            let base = generate(&planned.config).map_err(|x| e(&x))?;
            tr.span("plain.dse", |_| {
                optimize_with_config(
                    &base,
                    &tech,
                    spec.frequency,
                    &dse_cache,
                    &DseConfig::default(),
                )
            })
            .map_err(|x| e(&x))?;
            tr.span("plain.synthesize", |_| {
                synthesize(&planned.design, &tech, spec.frequency)
            })
            .map_err(|x| e(&x))?;
            tr.span("plain.implement", |_| planner.implement(&planned))
                .map_err(|x| e(&x))?;
        }
        Ok(())
    }

    fn layer_metrics(&self, layers: &Layers) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        for (metric, span) in [
            ("planner.run_spec_ms", "planner.run_spec"),
            ("planner.datasheet_ms", "planner.datasheet"),
            ("planner.physical_ms", "planner.physical"),
            ("pnr.svg_ms", "pnr.svg"),
            ("planner.sweep_journaled_ms", "planner.sweep_journaled"),
            ("planner.sweep_resume_ms", "planner.sweep_resume"),
            ("planner.verify_ms", "plain.verify"),
            ("planner.plan_ms", "plain.plan"),
            ("planner.dse_ms", "plain.dse"),
            ("synth.synthesize_ms", "plain.synthesize"),
            ("pnr.implement_ms", "plain.implement"),
        ] {
            m.insert(metric.to_string(), layers.ms(span, None));
        }
        let plain = m["planner.verify_ms"] + m["planner.plan_ms"] + m["pnr.implement_ms"];
        m.insert(
            "planner.supervise_overhead_ms".into(),
            m["planner.run_spec_ms"] - plain,
        );
        m.insert(
            "lint.preflight_ms".into(),
            layers.setup_ms("lint.preflight"),
        );
        m.insert("planner.warm_ms".into(), layers.setup_ms("planner.warm"));
        m
    }
}
