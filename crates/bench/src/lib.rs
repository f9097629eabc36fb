#![warn(missing_docs)]

//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see `EXPERIMENTS.md` for the mapping) and supports:
//!
//! * `--quick` — a shrunken configuration for smoke testing;
//! * `--t <N>` / `--seed <N>` — override the sample count / master seed;
//! * `--threads <N>` — worker threads for exact MC-dropout passes;
//! * `--json <path>` — dump the result record as JSON;
//! * `--trace-out <path>` / `--metrics-out <path>` — install a telemetry
//!   recorder for the run and export it as a JSONL trace / a
//!   Prometheus-style text dump on exit (see `docs/OBSERVABILITY.md`).
//!
//! `--help` / `-h` prints the usage line and exits with status 0.
//! Unknown flags and malformed values are hard errors: [`parse_args`]
//! prints the problem and exits with status 2.

use fast_bcnn::experiments::ExpConfig;

pub mod baseline;
mod batch_report;
mod chaos_report;
mod serve_report;
mod slo_report;
mod supervise_report;
mod swap_report;
pub mod trace_lint;

pub use batch_report::{BatchBenchReport, BatchPoint};
pub use chaos_report::{ChaosBenchReport, ChaosRound, CHAOS_SCHEMA};
pub use serve_report::{ServeBenchReport, ServeQuantileCell, SERVE_SCHEMA};
pub use slo_report::{
    SloBenchReport, SloChaosCell, SloClassCell, SloQuantileCell, SloWindow, SLO_SCHEMA,
};
pub use supervise_report::{
    SuperviseBenchReport, SuperviseShardCell, SuperviseTransitionCell, SUPERVISE_SCHEMA,
};
pub use swap_report::{SwapBenchReport, SwapBenchRound, SwapVersionCell, SWAP_SCHEMA};

/// Command-line options shared by every harness binary.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// The experiment configuration (quick or full).
    pub cfg: ExpConfig,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Optional JSONL telemetry trace output path.
    pub trace_out: Option<String>,
    /// Optional Prometheus-style metrics output path.
    pub metrics_out: Option<String>,
    /// `--help` / `-h` was given: print [`USAGE`] instead of running.
    pub help: bool,
}

/// The usage line of the shared harness flags.
pub const USAGE: &str = "usage: [--quick] [--t <N>] [--seed <N>] [--threads <N>] [--json <path>] \
                         [--trace-out <path>] [--metrics-out <path>] [--help]";

impl HarnessArgs {
    /// Installs a telemetry recorder when `--trace-out` or
    /// `--metrics-out` was given. Keep the returned sink alive for the
    /// whole run: the files are written when it drops.
    pub fn telemetry(&self) -> Option<fast_bcnn::telemetry::FileSink> {
        fast_bcnn::telemetry::FileSink::new(self.trace_out.as_deref(), self.metrics_out.as_deref())
    }
}

/// Parses the common flags from `std::env::args`. Prints [`USAGE`] and
/// exits with status 0 on `--help` / `-h`, and exits with status 2 on any
/// unknown flag or malformed value.
pub fn parse_args() -> HarnessArgs {
    let args: Vec<String> = std::env::args().collect();
    match from_arg_list(&args[1..]) {
        Ok(parsed) if parsed.help => {
            println!("{USAGE}");
            std::process::exit(0);
        }
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Parses the common flags from a slice (testable form of
/// [`parse_args`]).
///
/// # Errors
///
/// Returns a message for an unknown flag, a flag missing its value, or a
/// value that does not parse (including `--threads 0`). `--help` / `-h`
/// stops parsing and sets [`HarnessArgs::help`].
pub fn from_arg_list(args: &[String]) -> Result<HarnessArgs, String> {
    fn value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> Result<T, String> {
        let raw = value(args, i, flag)?;
        raw.parse()
            .map_err(|_| format!("{flag} needs a number, got `{raw}`"))
    }

    let mut cfg = ExpConfig::default();
    let mut json = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut help = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                help = true;
                break;
            }
            "--quick" => cfg = ExpConfig::quick(),
            "--json" => {
                json = Some(value(args, i, "--json")?.to_string());
                i += 1;
            }
            "--trace-out" => {
                trace_out = Some(value(args, i, "--trace-out")?.to_string());
                i += 1;
            }
            "--metrics-out" => {
                metrics_out = Some(value(args, i, "--metrics-out")?.to_string());
                i += 1;
            }
            "--t" => {
                cfg.t = number(args, i, "--t")?;
                i += 1;
            }
            "--seed" => {
                cfg.seed = number(args, i, "--seed")?;
                i += 1;
            }
            "--threads" => {
                cfg.threads = number(args, i, "--threads")?;
                if cfg.threads == 0 {
                    return Err("--threads needs a value >= 1".to_string());
                }
                i += 1;
            }
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    Ok(HarnessArgs {
        cfg,
        json,
        trace_out,
        metrics_out,
        help,
    })
}

/// Writes the JSON record if `--json` was given.
pub fn maybe_dump<T: serde::Serialize>(args: &HarnessArgs, value: &T) {
    if let Some(path) = &args.json {
        if let Err(e) = fast_bcnn::report::save_json(path, value) {
            eprintln!("failed to write {path}: {e}");
        } else {
            eprintln!("wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_args() {
        let a = from_arg_list(&[]).unwrap();
        assert_eq!(a.cfg, ExpConfig::default());
        assert_eq!(a.cfg.threads, 1);
        assert!(a.json.is_none());
    }

    #[test]
    fn quick_and_json_flags() {
        let a = from_arg_list(&strings(&["--quick", "--json", "/tmp/x.json"])).unwrap();
        assert_eq!(a.cfg, ExpConfig::quick());
        assert_eq!(a.json.as_deref(), Some("/tmp/x.json"));
    }

    #[test]
    fn t_override() {
        let a = from_arg_list(&strings(&["--t", "12"])).unwrap();
        assert_eq!(a.cfg.t, 12);
    }

    #[test]
    fn seed_override() {
        let a = from_arg_list(&strings(&["--seed", "99"])).unwrap();
        assert_eq!(a.cfg.seed, 99);
    }

    #[test]
    fn threads_override() {
        let a = from_arg_list(&strings(&["--threads", "4"])).unwrap();
        assert_eq!(a.cfg.threads, 4);
        // --quick resets the config; order matters, last writer wins.
        let b = from_arg_list(&strings(&["--threads", "4", "--quick"])).unwrap();
        assert_eq!(b.cfg.threads, 1);
    }

    #[test]
    fn telemetry_flags_parse_and_gate_the_sink() {
        let a = from_arg_list(&strings(&[
            "--trace-out",
            "/tmp/t.jsonl",
            "--metrics-out",
            "/tmp/m.prom",
        ]))
        .unwrap();
        assert_eq!(a.trace_out.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(a.metrics_out.as_deref(), Some("/tmp/m.prom"));
        let none = from_arg_list(&[]).unwrap();
        assert!(none.telemetry().is_none(), "no flags -> no recorder");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let e = from_arg_list(&strings(&["--bogus"])).unwrap_err();
        assert!(e.contains("--bogus"), "unhelpful message: {e}");
    }

    #[test]
    fn help_flags_ask_for_usage_instead_of_failing() {
        for flag in ["--help", "-h"] {
            let a = from_arg_list(&strings(&[flag])).unwrap();
            assert!(a.help, "{flag} must request the usage text");
            // Help wins over whatever follows it, even a bad flag.
            let b = from_arg_list(&strings(&["--quick", flag, "--bogus"])).unwrap();
            assert!(b.help);
        }
        assert!(!from_arg_list(&[]).unwrap().help);
    }

    #[test]
    fn malformed_values_are_errors() {
        assert!(from_arg_list(&strings(&["--t"])).is_err());
        assert!(from_arg_list(&strings(&["--t", "many"])).is_err());
        assert!(from_arg_list(&strings(&["--threads", "0"])).is_err());
        assert!(from_arg_list(&strings(&["--json"])).is_err());
    }
}
