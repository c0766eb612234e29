//! `ggpu-lint` — the command-line front end of the static analyzers.
//!
//! ```text
//! ggpu-lint --all-kernels              lint the 8 shipped paper kernels
//! ggpu-lint --asm FILE ...             lint assembler source files
//! ggpu-lint --design [CUS]             lint generated baseline netlists
//! ggpu-lint --deny warn                treat warnings as denials (CI)
//! ggpu-lint --allow K001 --deny-code K006   per-code severity overrides
//! ggpu-lint --json                     machine-readable output
//! ggpu-lint --list-codes               print the code table
//! ```
//!
//! Exit status: `0` when no deny-level diagnostic was emitted, `1`
//! otherwise, `2` on usage errors. The last line is always a summary
//! (`N programs, M denials`) so CI logs show the gate at a glance.

use ggpu_lint::{lint_design, verify_asm, Code, LintConfig, Report, Severity, SHIPPED_KERNELS};
use std::process::ExitCode;

struct Options {
    all_kernels: bool,
    asm_files: Vec<String>,
    design_cus: Vec<u32>,
    config: LintConfig,
    json: bool,
}

fn usage() -> &'static str {
    "usage: ggpu-lint [--all-kernels] [--asm FILE ...] [--design [CUS]]\n\
     \x20                [--deny warn] [--deny-code CODE] [--warn-code CODE] [--allow CODE]\n\
     \x20                [--json] [--list-codes]"
}

fn parse_code(tok: &str) -> Result<Code, String> {
    Code::parse(tok).ok_or_else(|| format!("unknown lint code `{tok}`"))
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        all_kernels: false,
        asm_files: Vec::new(),
        design_cus: Vec::new(),
        config: LintConfig::new(),
        json: false,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg {
            "--all-kernels" => opts.all_kernels = true,
            "--asm" => {
                let file = value("--asm")?;
                opts.asm_files.push(file);
            }
            "--design" => {
                // Optional CU-count operand; default 1.
                if let Some(next) = args.get(i + 1).and_then(|a| a.parse::<u32>().ok()) {
                    i += 1;
                    opts.design_cus.push(next);
                } else {
                    opts.design_cus.push(1);
                }
            }
            "--deny" => {
                let level = value("--deny")?;
                match level.as_str() {
                    "warn" => opts.config.warnings_are_denials = true,
                    other => return Err(format!("--deny takes `warn`, got `{other}`")),
                }
            }
            "--deny-code" => {
                let code = parse_code(&value("--deny-code")?)?;
                opts.config.overrides.insert(code, Severity::Deny);
            }
            "--warn-code" => {
                let code = parse_code(&value("--warn-code")?)?;
                opts.config.overrides.insert(code, Severity::Warn);
            }
            "--allow" => {
                let code = parse_code(&value("--allow")?)?;
                opts.config.overrides.insert(code, Severity::Allow);
            }
            "--json" => opts.json = true,
            "--list-codes" => {
                println!("code  default  description");
                for code in Code::ALL {
                    println!(
                        "{}  {:7}  {}",
                        code.as_str(),
                        code.default_severity().to_string(),
                        code.description()
                    );
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if !opts.all_kernels && opts.asm_files.is_empty() && opts.design_cus.is_empty() {
        return Err("nothing to lint (try --all-kernels)".into());
    }
    Ok(Some(opts))
}

fn collect_reports(opts: &Options) -> Result<Vec<Report>, String> {
    let mut reports = Vec::new();
    if opts.all_kernels {
        for (name, src) in SHIPPED_KERNELS {
            let (_, report) = verify_asm(name, src, &opts.config)
                .map_err(|e| format!("shipped kernel {name} failed to assemble: {e}"))?;
            reports.push(report);
        }
    }
    for file in &opts.asm_files {
        let src =
            std::fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
        let (_, report) = verify_asm(file, &src, &opts.config)
            .map_err(|e| format!("`{file}` failed to assemble: {e}"))?;
        reports.push(report);
    }
    for &cus in &opts.design_cus {
        let config = ggpu_rtl::GgpuConfig::with_cus(cus)
            .map_err(|e| format!("invalid CU count {cus}: {e}"))?;
        let design =
            ggpu_rtl::generate(&config).map_err(|e| format!("generation ({cus} CUs): {e}"))?;
        // Kernel reports come pre-sorted from the verifier; design
        // reports are sorted here so the v2 JSON ordering guarantee
        // holds for every report in the envelope.
        let mut report = lint_design(&design, &opts.config);
        report.sort_canonical();
        reports.push(report);
    }
    Ok(reports)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ggpu-lint: {msg}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let reports = match collect_reports(&opts) {
        Ok(reports) => reports,
        Err(msg) => {
            eprintln!("ggpu-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let denials: usize = reports.iter().map(Report::denial_count).sum();
    if opts.json {
        // schema_version history: 1 = the unversioned PR-2 envelope
        // {"reports":[...],"denials":N}; 2 = adds this field and
        // guarantees canonically-ordered diagnostics (program order,
        // then code) within every report.
        let mut out = String::from("{\"schema_version\":2,\"reports\":[");
        for (i, report) in reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&report.to_json());
        }
        out.push_str("],\"denials\":");
        out.push_str(&denials.to_string());
        out.push('}');
        println!("{out}");
    } else {
        for report in &reports {
            println!("{report}");
        }
    }
    println!("{} programs, {} denials", reports.len(), denials);
    if denials > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
