//! Reproduction benchmark of the G-GPU workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_repro --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process, one client, closed loop: each op starts when the
//! previous one has finished and been verified. Three workloads:
//!
//! * `paper_repro` — Table III and the Fig. 5/6 data (35 verified
//!   simulations plus the area ratios). The paper fixes the input
//!   sizes, so this workload is seed-independent by construction.
//! * `fault_campaign` — 4 kernels x 3 ECC policies x 256 seeded SEU
//!   trials; the campaign seed is derived from `--seed`.
//! * `gen_flow` — one generator session: the 12 Table-I specs through
//!   the supervisor, the 4 physical versions, and a journaled sweep
//!   (area/power ceilings drawn from `--seed`) plus its resume.
//!
//! `--trace 0` times ops untraced and prints the end-to-end metrics;
//! `--trace 1` alternates untraced and traced ops and prints the
//! per-layer metrics, including the tracing overhead. The last line of
//! standard output is the JSON result; a detailed record with
//! provenance, sample statistics and the span table is written under
//! `perfbench/out/`.

mod fault_campaign;
mod gen_flow;
mod heap;
mod paper_repro;
mod stats;
mod trace;

use stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 3] = ["paper_repro", "fault_campaign", "gen_flow"];

/// Fresh processes timed from spawn to "first op ready" for `setup_s`.
const SETUP_PROBES: usize = 25;

/// Worker threads of every parallel layer (campaign trials, the DSE
/// sweep, the placer pool). One thread makes every count repeat
/// exactly, including STA cache hits across the sweep, whose workers
/// would otherwise race to fill the shared cache.
pub const THREADS: usize = 1;

/// Where detailed records and scratch journals go, relative to the
/// checkout root the benchmark runs from.
pub const OUT_DIR: &str = "perfbench/out";

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("pass_s", "s"), ("peak_heap_mb", "MB")];

/// Per-layer metrics (`--trace 1`): name and unit. Every workload
/// reports all of them; a layer the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 84] = [
    // SIMT simulator.
    ("simt.launch_s", "s"),
    ("simt.mat_mul.launch_ms", "ms"),
    ("simt.copy.launch_ms", "ms"),
    ("simt.vec_mul.launch_ms", "ms"),
    ("simt.fir.launch_ms", "ms"),
    ("simt.div_int.launch_ms", "ms"),
    ("simt.xcorr.launch_ms", "ms"),
    ("simt.parallel_sel.launch_ms", "ms"),
    ("simt.ns_per_sched_iter", "ns"),
    ("simt.mcyc_per_s", "Mcyc/s"),
    ("simt.gpu_new_ms", "ms"),
    ("simt.readback_ms", "ms"),
    ("simt.cycles", "count"),
    ("simt.vector_instructions", "count"),
    ("simt.stall_cycles", "count"),
    ("simt.sched_iterations", "count"),
    ("simt.mem.accesses", "count"),
    ("simt.mem.hit_ratio", "ratio"),
    ("simt.mem.fills", "count"),
    ("simt.lram_conflict_cycles", "count"),
    // Kernel harness and static verification.
    ("kernels.inputs_ms", "ms"),
    ("kernels.golden_ms", "ms"),
    ("kernels.check_ms", "ms"),
    ("lint.kernel_verify_ms", "ms"),
    ("lint.preflight_ms", "ms"),
    // RISC-V baseline, generator and area model.
    ("riscv.run_ms", "ms"),
    ("riscv.cycles", "count"),
    ("rtl.generate_ms", "ms"),
    ("netlist.design_stats_ms", "ms"),
    // Fault campaigns.
    ("fault.mat_mul.campaign_ms", "ms"),
    ("fault.copy.campaign_ms", "ms"),
    ("fault.vec_mul.campaign_ms", "ms"),
    ("fault.fir.campaign_ms", "ms"),
    ("fault.trials_per_s", "1/s"),
    ("fault.golden_run_ms", "ms"),
    ("fault.fresh_gpu_us", "us"),
    ("fault.workload_build_ms", "ms"),
    ("fault.map_ms", "ms"),
    ("fault.masked", "count"),
    ("fault.sdc", "count"),
    ("fault.detected_corrected", "count"),
    ("fault.due", "count"),
    ("fault.hang", "count"),
    ("fault.crash", "count"),
    // Generator flow: supervisor, DSE, synthesis, STA cache, P&R, WAL.
    ("planner.run_spec_ms", "ms"),
    ("planner.verify_ms", "ms"),
    ("planner.plan_ms", "ms"),
    ("planner.dse_ms", "ms"),
    ("synth.synthesize_ms", "ms"),
    ("pnr.implement_ms", "ms"),
    ("planner.supervise_overhead_ms", "ms"),
    ("planner.datasheet_ms", "ms"),
    ("planner.physical_ms", "ms"),
    ("pnr.svg_ms", "ms"),
    ("planner.sweep_journaled_ms", "ms"),
    ("planner.sweep_resume_ms", "ms"),
    ("planner.warm_ms", "ms"),
    ("wal.journal_bytes", "bytes"),
    ("sta.cache_hits", "count"),
    ("sta.cache_misses", "count"),
    ("planner.sweep.evaluated", "count"),
    ("planner.sweep.unreachable", "count"),
    ("pnr.wirelength.1cu_500mhz", "um"),
    ("pnr.wirelength.1cu_667mhz", "um"),
    ("pnr.wirelength.8cu_500mhz", "um"),
    ("pnr.wirelength.8cu_667mhz", "um"),
    // Reproduction accuracy against the paper's published values.
    ("accuracy.table3.mape_pct", "%"),
    ("accuracy.table3.rv_mape_pct", "%"),
    ("accuracy.table3.gpu_1cu_mape_pct", "%"),
    ("accuracy.table3.gpu_2cu_mape_pct", "%"),
    ("accuracy.table3.gpu_4cu_mape_pct", "%"),
    ("accuracy.table3.gpu_8cu_mape_pct", "%"),
    ("accuracy.table1.mape_pct", "%"),
    ("accuracy.table1.area_mape_pct", "%"),
    ("accuracy.table1.mem_area_mape_pct", "%"),
    ("accuracy.table1.macros_mape_pct", "%"),
    ("accuracy.table1.power_mape_pct", "%"),
    ("accuracy.fig5.peak_speedup", "x"),
    ("accuracy.fig6.peak_derated", "x"),
    // The traced run itself.
    ("trace.pass_ms", "ms"),
    ("trace.traced_pass_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.layer_sum_ms", "ms"),
    ("trace.root_self_ms", "ms"),
];

/// What one op must reproduce exactly on every repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Output text that must be byte-identical across ops (reports,
    /// datasheets, layouts, cycle tables).
    pub fingerprint: String,
    /// Deterministic counts, reported as per-layer metrics.
    pub counts: BTreeMap<String, f64>,
}

/// One workload: a set-up, a repeatable op, and the per-layer view of
/// its traced ops.
pub trait Workload {
    /// Runs one op, recording spans when `tr` is on. Any output that
    /// fails its check is an `Err`.
    fn op(&mut self, tr: &mut Tracer) -> Result<Outcome, String>;

    /// Traced run only: side measurements made after each traced op,
    /// outside its span, to split opaque calls into layers.
    fn attribute(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    /// Per-layer timings from the traced ops' spans.
    fn layer_metrics(&self, layers: &Layers) -> BTreeMap<String, f64>;
}

/// Builds a workload, recording its set-up spans on `tr`.
fn setup(args: &Args, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "paper_repro" => Box::new(paper_repro::PaperRepro::setup(tr)?),
        "fault_campaign" => Box::new(fault_campaign::FaultCampaign::setup(args.seed, tr)?),
        "gen_flow" => Box::new(gen_flow::GenFlow::setup(args.seed, tr)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// The traced ops' spans, reduced per layer.
pub struct Layers<'a> {
    tr: &'a Tracer,
    groups: &'a [u32],
}

impl Layers<'_> {
    /// Median over traced ops of the per-op time in spans `name`
    /// (qualified by `arg` when given), ms; 0 when never called.
    pub fn ms(&self, name: &str, arg: Option<&str>) -> f64 {
        self.median(&self.tr.busy_ms(name, arg))
    }

    /// Median over traced ops of the self time of spans `name`, ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut per_group: BTreeMap<u32, f64> = BTreeMap::new();
        for (s, own) in self.tr.spans().iter().zip(self.tr.self_ns()) {
            if s.name == name {
                *per_group.entry(s.group).or_insert(0.0) += own as f64 / 1e6;
            }
        }
        self.median(&per_group)
    }

    /// Time in set-up spans `name`, ms (set-up runs once).
    pub fn setup_ms(&self, name: &str) -> f64 {
        self.tr
            .busy_ms(name, None)
            .get(&SETUP_GROUP)
            .copied()
            .unwrap_or(0.0)
    }

    fn median(&self, per_group: &BTreeMap<u32, f64>) -> f64 {
        let samples: Vec<f64> = self
            .groups
            .iter()
            .map(|g| per_group.get(g).copied().unwrap_or(0.0))
            .collect();
        Summary::new(&samples).median().unwrap_or(0.0)
    }
}

/// Mean absolute percentage error of `(measured, paper)` pairs.
pub fn mape(pairs: &[(f64, f64)]) -> f64 {
    pairs.iter().map(|(m, p)| ((m - p) / p).abs()).sum::<f64>() / pairs.len() as f64 * 100.0
}

/// Span group of the set-up; ops count up from 1.
const SETUP_GROUP: u32 = 0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set up, say "ready" and exit: one `setup_s` sample.
    probe: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10,
            trace: false,
            probe: false,
        };
        while let Some(flag) = it.next() {
            if flag == "--setup-probe" {
                args.probe = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(bad)?,
                "--seconds" => args.seconds = value.parse().map_err(bad)?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got `{}`",
                args.workload
            ));
        }
        if args.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(args)
    }
}

/// Environment knobs that silently change what the measured crates
/// run, each pinned before any library code reads it: `(name, pinned
/// value, value found)`. `None` as pinned means removed, so the
/// library default applies.
fn pin_env() -> Vec<(&'static str, Option<String>, Option<String>)> {
    let pins: [(&str, Option<String>); 5] = [
        // Unset: SimtConfig's Auto backend resolves to the SoA engine.
        ("GGPU_ACCEL", None),
        ("GGPU_THREADS", Some(THREADS.to_string())),
        // Unset: supervisor stages run inline with no deadline.
        ("GGPU_STAGE_TIMEOUT_MS", None),
        // Unset: campaign trial counts come from the workload itself.
        ("GGPU_FAULT_TRIALS", None),
        ("GGPU_BENCH_ITERS", None),
    ];
    pins.into_iter()
        .map(|(name, pinned)| {
            let found = std::env::var(name).ok();
            match &pinned {
                Some(v) => std::env::set_var(name, v),
                None => std::env::remove_var(name),
            }
            (name, pinned, found)
        })
        .collect()
}

/// The checked-out commit, read from `.git` without running git, or
/// `"unknown"` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process, MB (`VmHWM`), for the record.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; a non-finite value (a bug upstream) is written as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn provenance(args: &Args, nproc: usize, env: &[(&str, Option<String>, Option<String>)]) -> String {
    let opt = |v: &Option<String>| v.as_deref().map_or_else(|| "null".into(), json_str);
    let env: Vec<String> = env
        .iter()
        .map(|(name, pinned, found)| {
            format!(
                "{}: {{\"pinned\": {}, \"found\": {}}}",
                json_str(name),
                opt(pinned),
                opt(found)
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": {}, \
         \"nproc\": {nproc}, \"threads_used\": {THREADS}, \"profile\": {}, \
         \"client\": \"closed loop, 1 client, 1 process\", \"env\": {{{}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&git_rev()),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        env.join(", ")
    )
}

/// Runs ops, checks each against the first op's outcome, and counts
/// failures. A failed op yields no sample.
#[derive(Default)]
struct Checker {
    first: Option<Outcome>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// Runs `op`; returns its wall time in seconds when it succeeded
    /// and reproduced the first op's outcome.
    fn run(&mut self, op: impl FnOnce() -> Result<Outcome, String>) -> Option<f64> {
        self.attempted += 1;
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(op));
        let secs = t0.elapsed().as_secs_f64();
        let error = match result {
            Ok(Ok(outcome)) => match &self.first {
                None => {
                    self.first = Some(outcome);
                    None
                }
                Some(first) if *first == outcome => None,
                Some(first) => Some(describe_mismatch(first, &outcome)),
            },
            Ok(Err(e)) => Some(e),
            Err(panic) => Some(format!(
                "panic: {}",
                panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("(non-string payload)")
            )),
        };
        match error {
            None => Some(secs),
            Some(e) => {
                self.failed += 1;
                eprintln!("op {} failed: {e}", self.attempted);
                None
            }
        }
    }
}

fn describe_mismatch(first: &Outcome, now: &Outcome) -> String {
    for (k, v) in &now.counts {
        if first.counts.get(k) != Some(v) {
            return format!("count {k} = {v}, first op had {:?}", first.counts.get(k));
        }
    }
    if first.counts.len() != now.counts.len() {
        return "the set of counts changed".into();
    }
    "output differs from the first op's".into()
}

/// What a run prints and records.
struct RunResult {
    checker: Checker,
    metrics: Vec<(&'static str, &'static str, f64)>,
    detail: String,
}

/// Spawns `SETUP_PROBES` fresh processes that each set up the workload
/// and report ready; returns spawn-to-ready seconds for each.
fn probe_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--setup-probe", "--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning a set-up probe: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let ready = t0.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("waiting for a set-up probe: {e}"))?;
        if !status.success() || !matches!(read, Some(Ok(_))) || line.trim() != "ready" {
            return Err(format!("set-up probe failed ({status}, said {line:?})"));
        }
        samples.push(ready);
    }
    Ok(samples)
}

/// `--trace 0`: end-to-end metrics from untraced ops.
fn timed_run(args: &Args) -> Result<RunResult, String> {
    let setup_samples = probe_setups(args)?;
    let mut off = Tracer::off();
    let mut workload = setup(args, &mut off)?;
    let mut checker = Checker::default();
    let mut samples = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while start.elapsed() < budget {
        if let Some(s) = checker.run(|| workload.op(&mut off)) {
            samples.push(s);
        }
    }
    let setup = Summary::new(&setup_samples);
    let ops = Summary::new(&samples);
    let metrics = vec![
        ("setup_s", setup.median().unwrap_or(0.0)),
        ("pass_s", ops.median().unwrap_or(0.0)),
        ("peak_heap_mb", heap::peak_mb()),
    ];
    let list = |v: &[f64]| {
        v.iter()
            .map(|s| json_num(*s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let detail = format!(
        "{{\"setup_s\": {}, \"op_s\": {}, \"op_p90_s\": {}, \"vm_hwm_mb\": {}, \
         \"setup_samples_s\": [{}], \"op_samples_s\": [{}]}}",
        setup.to_json(),
        ops.to_json(),
        json_num(ops.percentile(90.0).unwrap_or(0.0)),
        json_num(peak_rss_mb()?),
        list(&setup_samples),
        list(&samples)
    );
    Ok(RunResult {
        checker,
        metrics: with_units(&END_TO_END, metrics),
        detail,
    })
}

/// `--trace 1`: alternates untraced and traced ops for the budget and
/// reduces the traced ops' spans to per-layer metrics.
fn traced_run(args: &Args) -> Result<(RunResult, Tracer), String> {
    let mut tr = Tracer::on();
    tr.set_group(SETUP_GROUP);
    let mut workload = tr.span("setup", |tr| setup(args, tr))?;
    let mut off = Tracer::off();
    let mut checker = Checker::default();
    let mut untraced = Vec::new();
    let mut groups = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut group = SETUP_GROUP;
    while start.elapsed() < budget || untraced.is_empty() || groups.is_empty() {
        if let Some(s) = checker.run(|| workload.op(&mut off)) {
            untraced.push(s);
        }
        group += 1;
        tr.set_group(group);
        let traced = checker.run(|| {
            let outcome = tr.span("op", |tr| workload.op(tr))?;
            tr.span("attribute", |tr| workload.attribute(tr))?;
            Ok(outcome)
        });
        match traced {
            Some(_) => groups.push(group),
            None => tr.abandon_open_spans(),
        }
        if checker.attempted > 4 && checker.failed == checker.attempted {
            break;
        }
    }

    let layers = Layers {
        tr: &tr,
        groups: &groups,
    };
    let mut metrics = workload.layer_metrics(&layers);
    if let Some(first) = &checker.first {
        metrics.extend(first.counts.clone());
    }
    simt_throughput(&mut metrics);
    let pass_ms = Summary::new(&untraced).median().unwrap_or(0.0) * 1e3;
    let traced_ms = layers.ms("op", None);
    let root_self = layers.self_ms("op");
    metrics.insert("trace.pass_ms".into(), pass_ms);
    metrics.insert("trace.traced_pass_ms".into(), traced_ms);
    metrics.insert("trace.overhead_ms".into(), traced_ms - pass_ms);
    metrics.insert("trace.layer_sum_ms".into(), traced_ms - root_self);
    metrics.insert("trace.root_self_ms".into(), root_self);

    let unknown: Vec<&String> = metrics
        .keys()
        .filter(|k| !PER_LAYER.iter().any(|(n, _)| n == k))
        .collect();
    assert!(
        unknown.is_empty(),
        "metrics missing from PER_LAYER: {unknown:?}"
    );
    let values = PER_LAYER
        .iter()
        .map(|(name, _)| (*name, metrics.get(*name).copied().unwrap_or(0.0)))
        .collect();
    let detail = format!(
        "{{\"untraced_op_s\": {}, \"traced_ops\": {}, \"layers\": {}}}",
        Summary::new(&untraced).to_json(),
        groups.len(),
        tr.layer_table_json()
    );
    Ok((
        RunResult {
            checker,
            metrics: with_units(&PER_LAYER, values),
            detail,
        },
        tr,
    ))
}

/// Simulator host cost per simulated event, from the traced launch
/// time and the op's deterministic counts.
fn simt_throughput(m: &mut BTreeMap<String, f64>) {
    let launch_s = m.get("simt.launch_s").copied().unwrap_or(0.0);
    if launch_s <= 0.0 {
        return;
    }
    if let Some(&cycles) = m.get("simt.cycles") {
        m.insert("simt.mcyc_per_s".into(), cycles / launch_s / 1e6);
    }
    if let Some(&iters) = m.get("simt.sched_iterations").filter(|&&i| i > 0.0) {
        m.insert("simt.ns_per_sched_iter".into(), launch_s * 1e9 / iters);
    }
}

fn with_units(
    table: &[(&'static str, &'static str)],
    values: Vec<(&'static str, f64)>,
) -> Vec<(&'static str, &'static str, f64)> {
    values
        .into_iter()
        .map(|(name, v)| {
            let unit = table
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, u)| *u)
                .expect("every metric has a unit");
            (name, unit, v)
        })
        .collect()
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = pin_env();
    if args.probe {
        let _workload = setup(&args, &mut Tracer::off())?;
        println!("ready");
        std::io::stdout().flush().map_err(|e| e.to_string())?;
        return Ok(());
    }
    let provenance = provenance(&args, nproc, &env);
    println!("provenance: {provenance}");
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let result = if args.trace {
        let (result, tr) = traced_run(&args)?;
        write_file(&format!("{stem}.spans.json"), &tr.chrome_json())?;
        result
    } else {
        timed_run(&args)?
    };

    let Checker {
        first,
        attempted,
        failed,
    } = &result.checker;
    let correct = *failed == 0 && first.is_some();
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    write_file(
        &format!("{stem}.json"),
        &format!(
            "{{\"provenance\": {provenance}, \"result\": {line}, \"detail\": {}}}\n",
            result.detail
        ),
    )?;
    for (name, unit, v) in &result.metrics {
        println!("{name:>32} {v:>16.4} {unit}");
    }
    println!("{line}");
    Ok(())
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let json: String = include_str!("../../BENCHMARK.json")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} [{unit}] is not in BENCHMARK.json"
            );
        }
        for workload in WORKLOADS {
            assert!(json.contains(&format!("\"name\":\"{workload}\",\"why\"")));
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn arguments_are_checked() {
        let a = args(&[
            "--workload",
            "gen_flow",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("gen_flow", 7, 3, true)
        );
        assert!(!a.probe);
        assert!(args(&["--setup-probe", "--workload", "paper_repro"]).is_ok_and(|a| a.probe));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "gen_flow", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "gen_flow", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "gen_flow", "--seed"]).is_err());
        assert!(args(&["--workload", "gen_flow", "--colour", "red"]).is_err());
    }

    #[test]
    fn mape_is_mean_absolute_percentage_error() {
        assert!((mape(&[(110.0, 100.0), (45.0, 50.0)]) - 10.0).abs() < 1e-12);
    }
}
