//! CI validator for telemetry artifacts: proves that a `--trace-out`
//! JSONL file round-trips through the versioned envelope reader, passes
//! the structural span lint ([`fbcnn_bench::trace_lint`] — per-thread
//! end-time monotonicity, parent encloses child), and that a
//! `--metrics-out` dump parses back as a well-formed Prometheus-style
//! exposition. Exits non-zero on empty, missing or malformed files.
//!
//! Usage: `trace_check <trace.jsonl> <metrics.prom>`

use fast_bcnn::telemetry::parse_exposition;
use fbcnn_bench::trace_lint::lint_spans;

fn fail(msg: String) -> ! {
    eprintln!("trace_check: {msg}");
    std::process::exit(1);
}

const USAGE: &str = "usage: trace_check <trace.jsonl> <metrics.prom>";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().skip(1).any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let [_, trace_path, metrics_path] = args.as_slice() else {
        fail(format!("{USAGE} (got {} args)", args.len() - 1));
    };

    let events = match fast_bcnn::io::read_trace(trace_path) {
        Ok(events) => events,
        Err(e) => fail(format!("{trace_path}: {e}")),
    };
    if events.is_empty() {
        fail(format!("{trace_path}: trace holds no events"));
    }
    let spans = events.iter().filter(|e| e.kind == "span").count();
    let counters = events.iter().filter(|e| e.kind == "counter").count();
    let histograms = events.iter().filter(|e| e.kind == "histogram").count();
    let lint = match lint_spans(&events) {
        Ok(stats) => stats,
        Err(e) => fail(format!("{trace_path}: {e}")),
    };

    let text = match std::fs::read_to_string(metrics_path) {
        Ok(text) => text,
        Err(e) => fail(format!("{metrics_path}: {e}")),
    };
    let samples = match parse_exposition(&text) {
        Ok(samples) => samples,
        Err(e) => fail(format!("{metrics_path}: {e}")),
    };
    if samples.is_empty() {
        fail(format!("{metrics_path}: exposition holds no samples"));
    }

    println!(
        "trace_check: ok — {} trace events ({spans} spans, {counters} counters, \
         {histograms} histograms), {} exposition samples; span lint: {} thread(s), \
         {} parent link(s) enclosed, {} evicted parent(s) skipped",
        events.len(),
        samples.len(),
        lint.threads,
        lint.parent_links,
        lint.missing_parents
    );
}
