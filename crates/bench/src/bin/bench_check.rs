//! CI validator for bench records. Dispatches on content:
//!
//! * a record carrying `"schema": "chaos-v1"` parses back through
//!   [`fbcnn_bench::ChaosBenchReport`] and must pass its acceptance rules
//!   — accounting reconciled exactly, every loss typed, nothing
//!   abandoned, and (for full soaks) the ≥ 200-request / ≥ 5-class
//!   coverage floors;
//! * a record carrying `"schema": "swap-v1"` parses back through
//!   [`fbcnn_bench::SwapBenchReport`] — zero lost requests under
//!   hot-swap, every healthy rollout promoted, every crashing rollout
//!   rolled back, and per-version request counters reconciled exactly;
//! * a record carrying `"schema": "slo-v1"` parses back through
//!   [`fbcnn_bench::SloBenchReport`] — the health walk paged on the
//!   fault burst and recovered, the windowed accounting reconciled
//!   exactly, every quantile estimate honored the bucket error bound,
//!   and the postmortem replayed exactly the failed requests;
//! * a record carrying `"schema": "supervise-v1"` parses back through
//!   [`fbcnn_bench::SuperviseBenchReport`] — all three shard poisons
//!   injected, quarantined, rebuilt and re-admitted through the probe
//!   gate, every shard healthy at campaign end, the failover path
//!   actually exercised, bit identity held, and the three-way ledger
//!   reconciled exactly;
//! * a record carrying `"schema": "serve-v1"` parses back through
//!   [`fbcnn_bench::ServeBenchReport`] — the loadgen ↔ server ↔ registry
//!   ledger reconciled exactly, zero aborts and transport errors, the
//!   shed/expiry/malformed tiers exercised, bit identity held, and (on a
//!   ≥ 4-CPU host running a full soak) the scaled goodput floor;
//! * anything else parses as the `throughput` harness's
//!   [`fbcnn_bench::BatchBenchReport`] — every point bit-identical to
//!   sequential, positive timings, and (only on a multi-CPU host running
//!   multiple worker threads) the batch-size ≥ 8 speedup target.
//!
//! With `--baseline <file>` the checker instead diffs the record's
//! *headline ratios* (see [`fbcnn_bench::baseline`]) against a committed
//! baseline and fails on a > 15 % regression — this mode accepts any
//! record shape carrying ratios (`BENCH_hotpath.json`,
//! `BENCH_batch.json`), so no schema validation runs.
//!
//! Exits non-zero on missing, malformed or failing records.
//!
//! Usage: `bench_check <BENCH_*.json> [min_speedup] [--baseline <file>]`

use fbcnn_bench::{
    baseline, BatchBenchReport, ChaosBenchReport, ServeBenchReport, SloBenchReport,
    SuperviseBenchReport, SwapBenchReport, CHAOS_SCHEMA, SERVE_SCHEMA, SLO_SCHEMA,
    SUPERVISE_SCHEMA, SWAP_SCHEMA,
};

fn fail(msg: String) -> ! {
    eprintln!("bench_check: {msg}");
    std::process::exit(1);
}

fn check_chaos(path: &str, text: &str) {
    let report: ChaosBenchReport = match serde_json::from_str(text) {
        Ok(report) => report,
        Err(e) => fail(format!("{path}: malformed chaos record: {e}")),
    };
    if let Err(reason) = report.validate() {
        fail(format!("{path}: {reason}"));
    }
    println!(
        "bench_check: ok — chaos soak seed {}: {} requests over {} classes, \
         {} ok / {} failed, {} transitions, reconciled exactly{}",
        report.seed,
        report.requests_total,
        report.classes.len(),
        report.ok_total,
        report.failed_total,
        report.transitions.len(),
        if report.quick { " [quick smoke]" } else { "" },
    );
}

fn check_swap(path: &str, text: &str) {
    let report: SwapBenchReport = match serde_json::from_str(text) {
        Ok(report) => report,
        Err(e) => fail(format!("{path}: malformed swap record: {e}")),
    };
    if let Err(reason) = report.validate() {
        fail(format!("{path}: {reason}"));
    }
    println!(
        "bench_check: ok — swap campaign seed {}: {} requests over {} rounds, \
         {} promotions / {} rollbacks, {} responses bit-checked, reconciled exactly{}",
        report.seed,
        report.requests_total,
        report.rounds.len(),
        report.promotions,
        report.rollbacks,
        report.compared_outputs,
        if report.quick { " [quick smoke]" } else { "" },
    );
}

fn check_slo(path: &str, text: &str) {
    let report: SloBenchReport = match serde_json::from_str(text) {
        Ok(report) => report,
        Err(e) => fail(format!("{path}: malformed slo record: {e}")),
    };
    if let Err(reason) = report.validate() {
        fail(format!("{path}: {reason}"));
    }
    println!(
        "bench_check: ok — slo soak seed {}: {} windows, {} requests ({} failed), \
         {} quantile checks in bound, postmortem `{}` replays {} failed ids, \
         reconciled exactly{}",
        report.seed,
        report.windows,
        report.registry_requests,
        report.registry_failed,
        report.quantiles.len(),
        report.postmortem_trigger,
        report.postmortem_failed_ids.len(),
        if report.quick { " [quick smoke]" } else { "" },
    );
}

fn check_serve(path: &str, text: &str) {
    let report: ServeBenchReport = match serde_json::from_str(text) {
        Ok(report) => report,
        Err(e) => fail(format!("{path}: malformed serve record: {e}")),
    };
    if let Err(reason) = report.validate() {
        fail(format!("{path}: {reason}"));
    }
    println!(
        "bench_check: ok — serve soak seed {}: {} frames over {} connections \
         ({} ok / {} failed / {} shed / {} wire errors), {:.0} req/s goodput, \
         {} bit checks held, ledger reconciled exactly{}{}",
        report.seed,
        report.offered,
        report.server_connections,
        report.ok,
        report.failed,
        report.shed,
        report.wire_errors,
        report.goodput_rps,
        report.bit_checked,
        if report.cpus < 4 {
            " [single-CPU correctness-only acceptance]"
        } else {
            ""
        },
        if report.quick { " [quick smoke]" } else { "" },
    );
}

fn check_supervise(path: &str, text: &str) {
    let report: SuperviseBenchReport = match serde_json::from_str(text) {
        Ok(report) => report,
        Err(e) => fail(format!("{path}: malformed supervise record: {e}")),
    };
    if let Err(reason) = report.validate() {
        fail(format!("{path}: {reason}"));
    }
    println!(
        "bench_check: ok — supervision soak seed {}: {} frames over {} bursts, \
         3 poisons healed ({} rebuilds, {} failovers, {} transitions), \
         {} bit checks held, ledger reconciled exactly{}",
        report.seed,
        report.offered,
        report.bursts,
        report.rebuild_attempts,
        report.failovers,
        report.transitions.len(),
        report.bit_checked,
        if report.quick { " [quick smoke]" } else { "" },
    );
}

fn check_baseline(path: &str, text: &str, baseline_path: &str) {
    let base_text = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(e) => fail(format!("{baseline_path}: {e}")),
    };
    let current: serde::Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => fail(format!("{path}: malformed JSON: {e}")),
    };
    let base: serde::Value = match serde_json::from_str(&base_text) {
        Ok(v) => v,
        Err(e) => fail(format!("{baseline_path}: malformed JSON: {e}")),
    };
    let compared = match baseline::diff_ratios(&current, &base, baseline::DEFAULT_TOLERANCE) {
        Ok(compared) => compared,
        Err(reason) => fail(format!("{path} vs {baseline_path}: {reason}")),
    };
    for d in &compared {
        println!(
            "  {:<40} baseline {:>7.3}x  current {:>7.3}x  ({:+.1}%)",
            d.key,
            d.baseline,
            d.current,
            d.relative_change() * 100.0
        );
    }
    println!(
        "bench_check: ok — {} headline ratio(s) within {:.0}% of {baseline_path}",
        compared.len(),
        baseline::DEFAULT_TOLERANCE * 100.0
    );
}

fn check_batch(path: &str, text: &str, min_speedup: f64) {
    let report: BatchBenchReport = match serde_json::from_str(text) {
        Ok(report) => report,
        Err(e) => fail(format!("{path}: malformed record: {e}")),
    };
    if let Err(reason) = report.validate(min_speedup) {
        fail(format!("{path}: {reason}"));
    }

    let widest = report
        .points
        .iter()
        .max_by_key(|p| p.batch_size)
        .map(|p| format!("batch {} at {:.2}x", p.batch_size, p.speedup))
        .unwrap_or_else(|| "no points".into());
    println!(
        "bench_check: ok — {} points (T = {}, {} threads, {} CPUs), {widest}{}",
        report.points.len(),
        report.t,
        report.threads,
        report.cpus,
        if report.cpus < 4 {
            " [single-CPU correctness-only acceptance]"
        } else {
            ""
        },
    );
}

const USAGE: &str = "usage: bench_check <BENCH_*.json> [min_speedup] [--baseline <file>]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut path = None;
    let mut min_speedup = 1.5;
    let mut baseline_path = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--baseline" => {
                let Some(value) = args.get(i + 1) else {
                    fail("--baseline needs a file".to_string());
                };
                baseline_path = Some(value.clone());
                i += 1;
            }
            other if path.is_none() => path = Some(other.to_string()),
            target => match target.parse::<f64>() {
                Ok(v) if v > 0.0 => min_speedup = v,
                _ => fail(format!(
                    "min_speedup must be a positive number, got `{target}`"
                )),
            },
        }
        i += 1;
    }
    let Some(path) = path else {
        fail(format!("{USAGE} (got {} args)", args.len() - 1));
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => fail(format!("{path}: {e}")),
    };
    if let Some(baseline_path) = &baseline_path {
        check_baseline(&path, &text, baseline_path);
        return;
    }
    // Chaos, swap and slo records carry schema tags; their presence in
    // the text decides which parser's errors to surface.
    if text.contains(&format!("\"{CHAOS_SCHEMA}\"")) {
        check_chaos(&path, &text);
    } else if text.contains(&format!("\"{SWAP_SCHEMA}\"")) {
        check_swap(&path, &text);
    } else if text.contains(&format!("\"{SLO_SCHEMA}\"")) {
        check_slo(&path, &text);
    } else if text.contains(&format!("\"{SUPERVISE_SCHEMA}\"")) {
        check_supervise(&path, &text);
    } else if text.contains(&format!("\"{SERVE_SCHEMA}\"")) {
        check_serve(&path, &text);
    } else {
        check_batch(&path, &text, min_speedup);
    }
}
