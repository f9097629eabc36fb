//! The repository benchmark. One command, three workloads:
//!
//! * `vgg16-skip`  — B-VGG16 skipping MC-dropout, closed loop;
//! * `vgg16-exact` — the same requests forced onto the exact path;
//! * `lenet-serve` — B-LeNet-5 served over TCP, open-loop rate ladder.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload vgg16-skip --seed 1 --seconds 25 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object with the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! and the spans are written to `perfbench/out/<workload>.trace.jsonl`.
//! See `perfbench/README.md`.

mod ladder;
mod layers;
mod lenet;
mod reference;
mod stats;
mod trace;
mod vgg;
mod wire;

use std::fmt::Write as _;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input and schedule.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_: std::num::ParseIntError| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad value {value:?} for {flag}"))?,
                )
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests measured.
    pub attempted: u64,
    /// Of them, requests that failed.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Number of CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over request ids and output bits: the printed output digest.
pub fn digest(outputs: &[(u64, Vec<u32>)]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for (id, bits) in outputs {
        for word in std::iter::once(*id).chain(bits.iter().map(|&b| u64::from(b))) {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

/// Writes `text` to `perfbench/out/<name>`, creating the directory.
pub fn write_out(name: &str, text: &str) -> Result<String, String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn result_line(correct: bool, out: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let value = m.value;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted, out.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <vgg16-skip|vgg16-exact|lenet-serve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "vgg16-skip" => vgg::run(&args, false),
        "vgg16-exact" => vgg::run(&args, true),
        "lenet-serve" => lenet::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let run = run.and_then(
        |out| match out.metrics.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!(
                "metric {} is not finite: most requests failed",
                m.name
            )),
            None => Ok(out),
        },
    );
    match run {
        Ok(out) => {
            for m in &out.metrics {
                println!("metric {} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_line(true, &out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_keeps_every_digit() {
        let mut out = Outcome {
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        out.metric("latency_p50_ref", 1.234_567_891_2, "ref");
        out.metric("setup_s", 2.0, "s");
        assert_eq!(
            result_line(true, &out),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_ref\": {\"value\": 1.2345678912, \"unit\": \"ref\"}, \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
