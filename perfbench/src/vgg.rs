//! `vgg16-skip` and `vgg16-exact`: B-VGG16 at `ModelScale::BENCH`, T=30,
//! served closed loop by one caller thread through
//! `BatchEngine::run_request`, on the skipping path or forced exact, each
//! request run between two reference brackets.

use crate::ladder::mix64;
use crate::layers::{LayerAcc, Probe};
use crate::reference::{in_refs, Reference};
use crate::stats::median;
use crate::trace::Trace;
use crate::wire::{trace_chain, Conn};
use crate::{digest, nproc, peak_rss_mb, write_out, Args, Outcome};
use fast_bcnn::serve::{serve, ServeConfig};
use fast_bcnn::{
    synth_input, BatchConfig, BatchEngine, BatchRequest, DegradedMode, Engine, EngineConfig,
    ModelArtifact, ModelRegistry, RegistryConfig, RequestClass, RobustConfig, RunControl,
};
use fbcnn_nn::models::ModelKind;
use fbcnn_tensor::{Shape, Tensor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// MC-dropout samples per request.
pub const SAMPLES: usize = 30;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests recomputed through an independent route after timing.
const CHECKS_SKIP: usize = 2;
const CHECKS_EXACT: usize = 6;
/// Request ids of warm-up requests start here (distinct from measured ids).
const WARM_ID: u64 = 1 << 40;
/// The reference bracket timed before and after each measured request:
/// small products (about as long as the weight pass on this host) and one
/// pass over streamed weights about the size of the model's conv weights.
const REF_SMALL: usize = 100;
const REF_WEIGHTS_MIB: usize = 16;

fn config() -> EngineConfig {
    EngineConfig {
        samples: SAMPLES,
        ..EngineConfig::for_model(ModelKind::Vgg16)
    }
}

/// Distinct, seeded input of request `id`: the cache never hits.
fn input(shape: Shape, seed: u64, id: u64) -> Tensor {
    synth_input(shape, mix64(seed ^ mix64(id)))
}

/// What one measured request produced.
struct Done {
    id: u64,
    seed: u64,
    latency_s: f64,
    latency_ref: f64,
    mean_bits: Vec<u32>,
    used: usize,
    ok: bool,
}

fn control(force_exact: bool) -> RunControl {
    RunControl {
        force_exact,
        ..RunControl::none()
    }
}

/// Serves ids from `first` upward closed loop on `nproc` threads while
/// `more(id, seconds since start)` holds, and returns what `serve` returned.
/// Warm-up and the traced run use it; the measured run has one caller.
fn closed_loop<T: Send>(
    first: u64,
    more: impl Fn(u64, f64) -> bool + Sync,
    serve: impl Fn(u64) -> T + Sync,
) -> Vec<T> {
    let next = AtomicU64::new(first);
    let done = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..nproc() {
            s.spawn(|| loop {
                let id = next.fetch_add(1, Ordering::Relaxed);
                if !more(id, start.elapsed().as_secs_f64()) {
                    break;
                }
                let item = serve(id);
                done.lock().expect("a caller thread panicked").push(item);
            });
        }
    });
    done.into_inner().expect("a caller thread panicked")
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX` parameter.
const M_ARENA_MAX: i32 = -8;

/// Makes every thread allocate from one arena. With glibc's per-thread
/// arenas, which arena the measuring thread drew on after the warm-up
/// threads varied between runs, and peak memory with it (by up to 10 %).
fn single_arena() {
    // SAFETY: `mallopt` only sets a malloc tuning parameter; it is called
    // before the run starts a thread, and its result (0 on failure) only
    // says whether the setting took.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

fn set_up() -> (Vec<f64>, BatchEngine) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut batch = None;
    for _ in 0..SETUPS {
        drop(batch.take());
        let t = Instant::now();
        let engine = Engine::new(config());
        batch = Some(BatchEngine::new(engine, BatchConfig::default()));
        times.push(t.elapsed().as_secs_f64());
    }
    (times, batch.expect("at least one set-up"))
}

/// Fills the pre-inference cache to capacity with distinct inputs, the
/// steady state of a long-running engine, so that peak memory does not
/// depend on how many requests a run completes. Each warm-up request is
/// capped at one exact sample.
fn warm_up(batch: &BatchEngine, seed: u64) {
    let shape = batch.engine().network().input_shape();
    let ctl = RunControl {
        max_samples: Some(1),
        ..control(true)
    };
    let end = WARM_ID + batch.batch_config().cache_capacity as u64;
    closed_loop(
        WARM_ID,
        |id, _| id < end,
        |id| {
            batch.run_request(&BatchRequest::new(id, input(shape, seed, id)), &ctl);
        },
    );
}

/// The measured closed loop: one caller, each request bracketed by the
/// reference bracket on the same thread.
fn measure(batch: &BatchEngine, args: &Args, force_exact: bool) -> Vec<Done> {
    let shape = batch.engine().network().input_shape();
    let ctl = control(force_exact);
    // The expected outcome: a full fast run, or a forced exact one.
    let want = if force_exact {
        DegradedMode::FullFallback
    } else {
        DegradedMode::Healthy
    };
    let mut reference = Reference::new(REF_SMALL, REF_WEIGHTS_MIB);
    let mut done = Vec::new();
    let start = Instant::now();
    for id in 0.. {
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let req = BatchRequest::new(id, input(shape, args.seed, id));
        let before = reference.time_ns();
        let t = Instant::now();
        let out = batch.run_request(&req, &ctl);
        let latency = t.elapsed().as_nanos() as f64;
        let after = reference.time_ns();
        let (mean_bits, used, ok) = match &out.result {
            Ok((p, r)) => (
                p.mean.iter().map(|v| v.to_bits()).collect(),
                r.used_samples,
                !r.expired && r.mode == want && !out.cache_hit,
            ),
            Err(_) => (Vec::new(), 0, false),
        };
        done.push(Done {
            id,
            seed: out.seed,
            latency_s: latency / 1e9,
            latency_ref: in_refs(latency, before, after),
            mean_bits,
            used,
            ok,
        });
    }
    done
}

pub fn run(args: &Args, force_exact: bool) -> Result<Outcome, String> {
    let name = if force_exact {
        "vgg16-exact"
    } else {
        "vgg16-skip"
    };
    let cfg = config();
    println!(
        "config workload={name} model={} scale=width {} resolution_div {} T={} seed={} nproc={} callers=1 seconds={} trace={}",
        cfg.model, cfg.scale.width, cfg.scale.resolution_div, cfg.samples, args.seed, nproc(), args.seconds, args.trace
    );
    single_arena();
    if args.trace {
        return run_traced(args, name, force_exact);
    }
    let (setups, batch) = set_up();
    println!("set-ups s: {setups:?}");
    warm_up(&batch, args.seed);
    let done = measure(&batch, args, force_exact);
    check_outputs(&batch, name, args.seed, force_exact, &done)?;
    if done.is_empty() {
        return Err("no request completed".to_string());
    }
    let failed = done.iter().filter(|d| !d.ok).count();
    let latencies: Vec<f64> = done.iter().map(|d| d.latency_s * 1e3).collect();
    let in_ref: Vec<f64> = done.iter().map(|d| d.latency_ref).collect();
    let used: Vec<f64> = done.iter().map(|d| d.used as f64).collect();
    let busy_s: f64 = done.iter().map(|d| d.latency_s).sum();
    println!(
        "measured requests={} samples_per_req_median={}",
        done.len(),
        median(&used).unwrap_or(0.0)
    );
    // Wall-clock figures follow the host's speed: printed, not gated.
    println!(
        "wall clock: latency_p50_ms = {:.3} ms; throughput_rps = {:.4} req/s (one caller, requests over time inside run_request)",
        median(&latencies).unwrap_or(0.0),
        done.len() as f64 / busy_s
    );

    let mut out = Outcome {
        attempted: done.len() as u64,
        failed: failed as u64,
        ..Outcome::default()
    };
    out.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.metric("ok_ratio", 1.0 - failed as f64 / done.len() as f64, "ratio");
    out.metric("latency_p50_ref", median(&in_ref).unwrap_or(0.0), "ref");
    Ok(out)
}

/// Recomputes a seeded sample of the measured requests through the
/// engine's own route — `predict_robust_seeded` for the skipping path,
/// `predict_robust_controlled` with a forced exact path otherwise — and
/// compares the mean bits. Runs after timing, on the calling thread.
fn check_outputs(
    batch: &BatchEngine,
    name: &str,
    seed: u64,
    force_exact: bool,
    done: &[Done],
) -> Result<(), String> {
    let mut ok: Vec<&Done> = done.iter().filter(|d| d.ok).collect();
    ok.sort_by_key(|d| d.id);
    let n = if force_exact {
        CHECKS_EXACT
    } else {
        CHECKS_SKIP
    };
    let mut picked: Vec<&Done> = Vec::new();
    for k in 0..n as u64 {
        if ok.is_empty() {
            break;
        }
        picked.push(ok.swap_remove((mix64(seed ^ k) % ok.len() as u64) as usize));
    }
    picked.sort_by_key(|d| d.id);
    let engine = batch.engine();
    let shape = engine.network().input_shape();
    for d in &picked {
        let x = input(shape, seed, d.id);
        let again = if force_exact {
            engine.predict_robust_controlled(&x, d.seed, &RobustConfig::default(), &control(true))
        } else {
            engine.predict_robust_seeded(&x, d.seed)
        };
        let same = again.as_ref().is_ok_and(|(p, r)| {
            r.used_samples == d.used
                && p.mean
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(d.mean_bits.iter().copied())
        });
        if !same {
            return Err(format!(
                "output mismatch on workload {name}, request id {}",
                d.id
            ));
        }
    }
    let outputs: Vec<(u64, Vec<u32>)> =
        picked.iter().map(|d| (d.id, d.mean_bits.clone())).collect();
    println!(
        "checked {} of {} requests: outputs match; digest {:016x}",
        picked.len(),
        done.len(),
        digest(&outputs)
    );
    Ok(())
}

fn run_traced(args: &Args, name: &str, force_exact: bool) -> Result<Outcome, String> {
    let engine = Engine::new(config());
    let batch = BatchEngine::new(engine.clone(), BatchConfig::default());
    warm_up(&batch, args.seed);
    let probe = Probe::new(&engine);
    let shape = engine.network().input_shape();
    let epoch = Instant::now();
    let mut trace = Trace::new(epoch);
    let mut acc = LayerAcc::default();

    // One request through serve → registry → engine, alone on the host.
    // Its class has no deadline; the exact workload jams every breaker
    // open, the production route onto the exact path.
    let registry = Arc::new(
        ModelRegistry::new(
            ModelArtifact::from_engine(&engine, 1, "perfbench"),
            RegistryConfig::default(),
        )
        .map_err(|e| e.to_string())?,
    );
    if force_exact {
        for shard in 0..registry.config().shards {
            registry.jam_shard_breaker(shard);
        }
    }
    let server = serve(Arc::clone(&registry), ServeConfig::default()).map_err(|e| e.to_string())?;
    let mut conn = Conn::connect(server.addr())?;
    let chain_id = WARM_ID + 1000;
    let req = BatchRequest::new(chain_id, input(shape, args.seed, chain_id));
    trace_chain(
        &mut trace,
        &mut acc,
        &probe,
        &batch,
        &registry,
        &mut conn,
        &req,
        &RequestClass::named("batch"),
    )?;
    drop(conn);
    server.shutdown();

    // A quarter of the time untraced (the overhead reference), the rest
    // traced, on the same closed loop.
    let ctl = control(force_exact);
    let plain = closed_loop(
        0,
        |_, t| t < args.seconds / 4.0,
        |id| {
            let req = BatchRequest::new(id, input(shape, args.seed, id));
            let t = Instant::now();
            batch.run_request(&req, &ctl);
            t.elapsed().as_nanos() as f64
        },
    );
    let traced = closed_loop(
        1 << 20,
        |_, t| t < args.seconds * 3.0 / 4.0,
        |id| {
            let req = BatchRequest::new(id, input(shape, args.seed, id));
            let mut tr = Trace::new(epoch);
            let mut acc = LayerAcc::default();
            let r = probe.trace_request(&mut tr, &mut acc, &batch, &req, &ctl, None);
            (r, tr, acc)
        },
    );
    for (r, tr, a) in traced {
        r?;
        trace.absorb(tr);
        acc.absorb(a);
    }
    let path = write_out(&format!("{name}.trace.jsonl"), &trace.to_jsonl())?;
    println!("spans={} written to {path}", trace.spans.len());
    let mut out = Outcome {
        attempted: acc.requests,
        ..Outcome::default()
    };
    acc.report(
        &probe,
        "engine.request_ns",
        median(&plain).unwrap_or(0.0),
        &mut out,
    );
    Ok(out)
}
