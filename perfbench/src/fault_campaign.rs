//! `fault_campaign`: one op is a seeded SEU campaign set — mat_mul,
//! copy, vec_mul and fir at n = 256 on the 1-CU design, each under no
//! protection, parity and SEC-DED, 256 single-fault trials per
//! campaign (3,072 short hardened launches). The campaign seed comes
//! from the benchmark seed; every op must reproduce the first op's
//! reports byte for byte. Trials time out at [`TIMEOUT_FACTOR`] times
//! the golden run's cycles.
//!
//! A campaign is one opaque `run_campaign` call, so the traced run
//! also times, after each traced op, the two per-trial costs inside
//! it: the golden run each campaign starts with, and `fresh_gpu`, once
//! per trial.

use crate::trace::Tracer;
use crate::{Layers, Outcome, Workload, THREADS};
use ggpu_fault::{run_campaign, CampaignConfig, MacroMap, Workload as FaultWorkload};
use ggpu_netlist::EccPolicy;
use ggpu_rtl::{generate, GgpuConfig};
use ggpu_tech::sram::EccScheme;
use std::collections::BTreeMap;

/// Kernels of the campaign set: the first four of Table III.
const KERNELS: usize = 4;
/// Grid size of every campaign kernel.
const N: u32 = 256;
/// Trials per campaign.
const TRIALS: u32 = 256;

/// A trial still running at this multiple of its kernel's golden
/// cycle count is a timeout, classified as a hang — the usual
/// fault-injection timeout. Without it, the rare injection that
/// stretches a loop runs to the simulator's 400M-cycle ceiling, and a
/// single such trial can double an op's cost for some seeds.
const TIMEOUT_FACTOR: u64 = 4;

/// Prepared kernels, macro maps and the campaign seed.
pub struct FaultCampaign {
    /// Each kernel with its campaign configuration.
    workloads: Vec<(FaultWorkload, CampaignConfig)>,
    maps: Vec<MacroMap>,
}

/// SplitMix64 step: turns the benchmark seed into a campaign seed.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultCampaign {
    /// Generates the 1-CU design, prepares the four kernels (verify,
    /// inputs, golden output, golden cycles for the timeout) and maps
    /// the design's macros under each policy.
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let config = GgpuConfig::with_cus(1).map_err(|e| e.to_string())?;
        let design = tr.span("rtl.generate", |_| {
            generate(&config).map_err(|e| e.to_string())
        })?;
        let seed = mix(seed);
        let workloads = tr.span("fault.workload_build", |_| {
            ggpu_kernels::all()[..KERNELS]
                .iter()
                .map(|b| {
                    let e = |e: &dyn std::fmt::Display| format!("{}: {e}", b.name);
                    let w = FaultWorkload::from_bench(b, N).map_err(|x| e(&x))?;
                    let mut cfg = CampaignConfig::new(seed, TRIALS);
                    cfg.threads = THREADS;
                    let golden = w.run_golden(cfg.sim).map_err(|x| e(&x))?;
                    cfg.sim.max_cycles = TIMEOUT_FACTOR * golden.cycles;
                    Ok((w, cfg))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let maps = tr.span("fault.map", |_| {
            [
                EccPolicy::unprotected(),
                EccPolicy::uniform(EccScheme::Parity),
                EccPolicy::uniform(EccScheme::SecDed),
            ]
            .iter()
            .map(|p| MacroMap::from_design(&design, p).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, String>>()
        })?;
        Ok(Self { workloads, maps })
    }
}

impl Workload for FaultCampaign {
    fn op(&mut self, tr: &mut Tracer) -> Result<Outcome, String> {
        let mut fingerprint = String::new();
        let mut totals = ggpu_fault::OutcomeCounts::default();
        for (w, cfg) in &self.workloads {
            for map in &self.maps {
                let report = tr
                    .span_arg("fault.campaign", w.name, |_| run_campaign(w, map, cfg))
                    .map_err(|e| format!("{} campaign: {e}", w.name))?;
                let c = &report.counts;
                if c.total() != TRIALS {
                    return Err(format!(
                        "{}: {} of {TRIALS} trials classified",
                        w.name,
                        c.total()
                    ));
                }
                totals.masked += c.masked;
                totals.sdc += c.sdc;
                totals.detected_corrected += c.detected_corrected;
                totals.detected_uncorrectable += c.detected_uncorrectable;
                totals.hang += c.hang;
                totals.crash += c.crash;
                fingerprint.push_str(&report.to_json());
                fingerprint.push('\n');
            }
        }
        let counts = [
            ("fault.masked", totals.masked),
            ("fault.sdc", totals.sdc),
            ("fault.detected_corrected", totals.detected_corrected),
            ("fault.due", totals.detected_uncorrectable),
            ("fault.hang", totals.hang),
            ("fault.crash", totals.crash),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), f64::from(v)))
        .collect();
        Ok(Outcome {
            fingerprint,
            counts,
        })
    }

    fn attribute(&mut self, tr: &mut Tracer) -> Result<(), String> {
        for (w, cfg) in &self.workloads {
            let e = |e: &dyn std::fmt::Display| format!("{}: {e}", w.name);
            for _ in &self.maps {
                tr.span_arg("fault.golden_run", w.name, |_| w.run_golden(cfg.sim))
                    .map_err(|x| e(&x))?;
            }
            tr.span_arg("fault.fresh_gpu", w.name, |_| {
                for _ in 0..self.maps.len() as u32 * TRIALS {
                    std::hint::black_box(w.fresh_gpu(cfg.sim).map_err(|x| e(&x))?);
                }
                Ok::<(), String>(())
            })?;
        }
        Ok(())
    }

    fn layer_metrics(&self, layers: &Layers) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        for (w, _) in &self.workloads {
            m.insert(
                format!("fault.{}.campaign_ms", w.name),
                layers.ms("fault.campaign", Some(w.name)),
            );
        }
        let campaign_ms = layers.ms("fault.campaign", None);
        if campaign_ms > 0.0 {
            let trials = (self.workloads.len() * self.maps.len()) as f64 * f64::from(TRIALS);
            m.insert("fault.trials_per_s".into(), trials / (campaign_ms / 1e3));
            let per_call_us = layers.ms("fault.fresh_gpu", None) * 1e3 / trials;
            m.insert("fault.fresh_gpu_us".into(), per_call_us);
        }
        m.insert(
            "fault.golden_run_ms".into(),
            layers.ms("fault.golden_run", None),
        );
        m.insert(
            "fault.workload_build_ms".into(),
            layers.setup_ms("fault.workload_build"),
        );
        m.insert("fault.map_ms".into(), layers.setup_ms("fault.map"));
        m
    }
}
