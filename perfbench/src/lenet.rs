//! `lenet-serve`: B-LeNet-5 at T=4 booted in-process as artifact →
//! registry (2 shards) → TCP server, driven open loop by the benchmark's
//! own generator over a fixed ladder of offered rates.

use crate::ladder::{self, mix64, poisson_schedule, StepStats, HIGH, LADDER_RPS, LIMIT_MS, LOW};
use crate::layers::{LayerAcc, Probe};
use crate::reference::{in_refs, Reference};
use crate::stats::{median, percentile_rule};
use crate::trace::Trace;
use crate::wire::{trace_chain, Conn};
use crate::{digest, nproc, peak_rss_mb, write_out, Args, Outcome};
use fast_bcnn::serve::{
    default_classes, serve, NetServerHandle, ServeConfig, ServeRequest, DEFAULT_MAX_FRAME_BYTES,
};
use fast_bcnn::{
    synth_input, BatchConfig, BatchEngine, BatchRequest, Engine, EngineConfig, ModelArtifact,
    ModelRegistry, RegistryConfig, RequestClass,
};
use fbcnn_bayes::derive_request_seed;
use fbcnn_nn::models::ModelKind;
use fbcnn_tensor::Tensor;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// MC-dropout samples per request (as in the quick serve soak).
pub const SAMPLES: usize = 4;
/// Registry shards.
const SHARDS: usize = 2;
/// Distinct inputs in the hot pool: fewer than a shard's pre-inference
/// cache (64), so after warm-up almost every request hits.
const HOT: usize = 32;
/// The SLO class of every request.
const CLASS: &str = "interactive";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Closed-loop warm-up requests per connection.
const WARM_PER_CONN: usize = 100;
/// Responses recomputed through the engine after timing.
const CHECKS: usize = 64;
/// Share of `--seconds` spent on the closed loop.
const CLOSED_SHARE: f64 = 0.3;
/// Small reference products timed before and after each closed-loop
/// request; B-LeNet-5's weights fit the core's own caches, so the
/// bracket streams none.
const REF_SMALL: usize = 20;
/// How long a step waits for its last responses.
const DRAIN: Duration = Duration::from_secs(5);

fn config() -> EngineConfig {
    EngineConfig {
        samples: SAMPLES,
        calibration_samples: 3,
        ..EngineConfig::for_model(ModelKind::LeNet5)
    }
}

fn class() -> RequestClass {
    let policy = default_classes()
        .into_iter()
        .find(|c| c.name == CLASS)
        .expect("the default classes include interactive");
    RequestClass {
        name: policy.name,
        deadline: policy.deadline,
        sample_budget: policy.sample_budget,
    }
}

struct Server {
    engine: Engine,
    registry: Arc<ModelRegistry>,
    handle: NetServerHandle,
}

/// Time to ready: engine build and calibration, artifact, registry boot
/// and listen.
fn set_up() -> Result<Server, String> {
    let engine = Engine::new(config());
    let artifact = ModelArtifact::from_engine(&engine, 1, "perfbench");
    let registry = Arc::new(
        ModelRegistry::new(
            artifact,
            RegistryConfig {
                shards: SHARDS,
                ..RegistryConfig::default()
            },
        )
        .map_err(|e| e.to_string())?,
    );
    let handle = serve(Arc::clone(&registry), ServeConfig::default()).map_err(|e| e.to_string())?;
    Ok(Server {
        engine,
        registry,
        handle,
    })
}

fn hot_pool(engine: &Engine, seed: u64) -> Vec<Tensor> {
    let shape = engine.network().input_shape();
    (0..HOT as u64)
        .map(|k| synth_input(shape, mix64(seed ^ mix64(k + 1))))
        .collect()
}

fn pick(seed: u64, id: u64) -> usize {
    (mix64(seed ^ mix64(id) ^ 0x5EED) % HOT as u64) as usize
}

fn frame(id: u64, input: &Tensor) -> Result<Vec<u8>, String> {
    ServeRequest::from_input(id, CLASS, input)
        .encode(DEFAULT_MAX_FRAME_BYTES)
        .map_err(|e| e.to_string())
}

/// One scheduled request and what became of it.
#[derive(Debug, Clone, Default)]
struct Sent {
    id: u64,
    due_s: f64,
    lag_ms: f64,
    backlog: usize,
    latency_ms: Option<f64>,
    pristine: bool,
    mean_bits: Vec<u32>,
}

/// Sends `plan` (due time s, id, frame) on `conn` on schedule from
/// `start`, timing each request from its due time to its response.
fn drive(
    conn: &mut Conn,
    plan: &[(f64, u64, Vec<u8>)],
    start: Instant,
) -> Result<Vec<Sent>, String> {
    let mut sent: Vec<Sent> = Vec::with_capacity(plan.len());
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut next = 0;
    let mut drain_until = None;
    loop {
        let now = Instant::now();
        let wait = if let Some((due_s, id, bytes)) = plan.get(next) {
            let due = start + Duration::from_secs_f64(*due_s);
            if now >= due {
                sent.push(Sent {
                    id: *id,
                    due_s: *due_s,
                    lag_ms: (now - due).as_secs_f64() * 1e3,
                    backlog: inflight.len(),
                    ..Sent::default()
                });
                conn.send(bytes)?;
                inflight.push_back(next);
                next += 1;
                continue;
            }
            due - now
        } else if inflight.is_empty() {
            return Ok(sent);
        } else {
            let until = *drain_until.get_or_insert(now + DRAIN);
            if now >= until {
                return Ok(sent); // unanswered requests count as failed
            }
            until - now
        };
        let (responses, at) = conn.poll(wait)?;
        for resp in responses {
            let k = inflight
                .pop_front()
                .ok_or(format!("unsolicited response {}", resp.id))?;
            let s = &mut sent[k];
            if resp.id != s.id {
                return Err(format!("response {} arrived for request {}", resp.id, s.id));
            }
            let due = start + Duration::from_secs_f64(s.due_s);
            s.latency_ms = Some(at.saturating_duration_since(due).as_secs_f64() * 1e3);
            s.pristine = resp.is_pristine();
            s.mean_bits = resp.mean_bits;
        }
    }
}

/// Runs one ladder step at `rate` for `seconds` over every connection.
fn run_step(
    conns: &mut [Conn],
    pool: &[Tensor],
    seed: u64,
    step: usize,
    rate: f64,
    seconds: f64,
) -> Result<(StepStats, Vec<Sent>), String> {
    let due = poisson_schedule(mix64(seed ^ (step as u64 + 1)), rate, seconds);
    let mut plans: Vec<Vec<(f64, u64, Vec<u8>)>> = vec![Vec::new(); conns.len()];
    for (j, &t) in due.iter().enumerate() {
        let id = ((step as u64 + 1) << 32) | j as u64;
        plans[j % conns.len()].push((t, id, frame(id, &pool[pick(seed, id)])?));
    }
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<Result<Vec<Sent>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&plans)
            .map(|(conn, plan)| s.spawn(move || drive(conn, plan, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".to_string()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    all.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    // A failed or unanswered request misses every latency limit.
    let latency = |s: &Sent| match s.latency_ms {
        Some(l) if s.pristine => l,
        _ => f64::INFINITY,
    };
    let stats = StepStats {
        rate,
        sent: all.len(),
        good: all.iter().filter(|s| latency(s) <= LIMIT_MS).count(),
        failed: all.iter().filter(|s| latency(s).is_infinite()).count(),
        latencies_ms: all.iter().map(latency).collect(),
        lag_ms: all.iter().map(|s| s.lag_ms).collect(),
        backlog: all.iter().map(|s| (s.due_s, s.backlog)).collect(),
    };
    Ok((stats, all))
}

/// Closed-loop warm-up: fills both shards' caches with the hot pool.
fn warm_up(conns: &mut [Conn], pool: &[Tensor], seed: u64) -> Result<(), String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || -> Result<(), String> {
                    for j in 0..WARM_PER_CONN as u64 {
                        let id = (1 << 48) | ((c as u64) << 24) | j;
                        let resp = conn.roundtrip(&frame(id, &pool[pick(seed, id)])?)?;
                        if !resp.is_pristine() {
                            return Err(format!("warm-up request {id} failed: {}", resp.reason));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .unwrap_or_else(|_| Err("warm-up thread panicked".to_string()))
        })
    })
}

/// Closed loop for `seconds` on one connection, one request in flight,
/// each roundtrip between two reference brackets on this thread.
/// Returns every roundtrip time (s), the same in reference units, and the
/// requests that did not come back ok and pristine.
fn closed_loop(
    conn: &mut Conn,
    pool: &[Tensor],
    seed: u64,
    seconds: f64,
) -> Result<(Vec<f64>, Vec<f64>, usize), String> {
    let mut reference = Reference::new(REF_SMALL, 0);
    let (mut rtts, mut in_ref, mut failed) = (Vec::new(), Vec::new(), 0);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let id = (1 << 44) | rtts.len() as u64;
        let bytes = frame(id, &pool[pick(seed, id)])?;
        let before = reference.time_ns();
        let t = Instant::now();
        let resp = conn.roundtrip(&bytes)?;
        let rtt = t.elapsed().as_nanos() as f64;
        let after = reference.time_ns();
        rtts.push(rtt / 1e9);
        in_ref.push(in_refs(rtt, before, after));
        failed += usize::from(!resp.is_pristine());
    }
    Ok((rtts, in_ref, failed))
}

fn ms(p: Option<crate::stats::Percentile>) -> String {
    p.map_or("n/a".to_string(), |p| {
        format!("{:.3} (p{:.1})", p.value, p.q * 100.0)
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = config();
    let conns_n = nproc();
    println!(
        "config workload=lenet-serve model={} T={} shards={SHARDS} class={CLASS} hot_inputs={HOT} seed={} nproc={} connections={conns_n} seconds={} trace={} ladder_rps={:?} low={} high={} limit_p99_ms={LIMIT_MS}",
        cfg.model, cfg.samples, args.seed, nproc(), args.seconds, args.trace, LADDER_RPS, LADDER_RPS[LOW], LADDER_RPS[HIGH]
    );
    if args.trace {
        return run_traced(args);
    }
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            let Server { handle, .. } = old;
            handle.shutdown();
        }
        let t = Instant::now();
        server = Some(set_up()?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    let pool = hot_pool(&server.engine, args.seed);
    let mut conns = (0..conns_n)
        .map(|_| Conn::connect(server.handle.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    warm_up(&mut conns, &pool, args.seed)?;

    // Closed loop, one request in flight on one connection: the steady
    // measurement that `latency_p50_ref` reports.
    let (rtts, rtt_ref, closed_failed) =
        closed_loop(&mut conns[0], &pool, args.seed, args.seconds * CLOSED_SHARE)?;
    let rtt_ms: Vec<f64> = rtts.iter().map(|t| t * 1e3).collect();
    // Wall-clock figures follow the host's speed: printed, not gated.
    println!(
        "closed loop: {} requests on 1 connection; wall clock: roundtrip p50 {} p99 {} ms; throughput_rps = {:.3} req/s (requests over time inside roundtrips)",
        rtts.len(),
        ms(percentile_rule(&rtt_ms, 0.5)),
        ms(percentile_rule(&rtt_ms, 0.99)),
        rtts.len() as f64 / rtts.iter().sum::<f64>(),
    );

    // The ladder, ascending; `low` and `high` run twice as long as the
    // other steps. Past `high`, it stops at the first step that misses
    // the limit: its queue would only delay the next step.
    let unit_s = args.seconds * (1.0 - CLOSED_SHARE) / (LADDER_RPS.len() + 2) as f64;
    let step_s = |k: usize| {
        if k == LOW || k == HIGH {
            2.0 * unit_s
        } else {
            unit_s
        }
    };
    let mut steps = Vec::new();
    let mut sent = Vec::new();
    println!("step  rate_rps  sent  p50_ms  p99_ms  good_share  lag_p99_ms  backlog_growth  end_backlog  meets_limit");
    for (k, &rate) in LADDER_RPS.iter().enumerate() {
        let (st, s) = run_step(&mut conns, &pool, args.seed, k, rate, step_s(k))?;
        let meets = st.meets_limit();
        println!(
            "{k:>4} {rate:>9} {:>5} {:>7} {:>7} {:>10.4} {:>11.3} {:>15.3} {:>12} {meets:>12}",
            st.sent,
            ms(percentile_rule(&st.latencies_ms, 0.5)),
            ms(percentile_rule(&st.latencies_ms, 0.99)),
            st.good as f64 / st.sent.max(1) as f64,
            st.lag_p99_ms(),
            st.backlog_growth(),
            st.end_backlog(conns_n),
        );
        steps.push(st);
        sent.push(s);
        if k >= HIGH && !meets {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(conns);

    // Expected pre-inference cache hit share of the measured steps: a
    // request misses only the first time its (shard, input) pair is seen.
    let mut seen = HashSet::new();
    for c in 0..conns_n as u64 {
        for j in 0..WARM_PER_CONN as u64 {
            let id = (1 << 48) | (c << 24) | j;
            seen.insert((server.registry.shard_of(id), pick(args.seed, id)));
        }
    }
    let measured: Vec<&Sent> = sent.iter().flatten().collect();
    let misses = measured
        .iter()
        .filter(|s| seen.insert((server.registry.shard_of(s.id), pick(args.seed, s.id))))
        .count();
    println!(
        "cache hit share (expected from routing) {:.4}",
        1.0 - misses as f64 / measured.len().max(1) as f64
    );

    let (low, high) = (&steps[LOW], &steps[HIGH]);
    let max_rate = ladder::max_rate(&steps);
    let p = |st: &StepStats, q| percentile_rule(&st.latencies_ms, q);
    let line = |name: &str, v: Option<crate::stats::Percentile>| println!("{name} = {} ms", ms(v));
    line("p50_ms.low", p(low, 0.5));
    line("p99_ms.low", p(low, 0.99));
    line("p50_ms.high", p(high, 0.5));
    line("p99_ms.high", p(high, 0.99));
    println!(
        "goodput_rps.high = {} req/s",
        high.good as f64 / step_s(HIGH)
    );
    println!("max_rate_rps = {max_rate} req/s");
    for (k, st) in steps.iter().enumerate() {
        println!(
            "serve.backlog.{k} = {}; loadgen.lag_p99_ms.{k} = {:.3}",
            st.end_backlog(conns_n),
            st.lag_p99_ms()
        );
    }

    check_outputs(&server.engine, &pool, args.seed, &[&sent[LOW], &sent[HIGH]])?;
    server.handle.shutdown();

    let attempted = rtts.len() + low.sent + high.sent;
    let failed = closed_failed + low.failed + high.failed;
    let mut out = Outcome {
        attempted: attempted as u64,
        failed: failed as u64,
        ..Outcome::default()
    };
    out.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.metric(
        "ok_ratio",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    out.metric(
        "latency_p50_ref",
        percentile_rule(&rtt_ref, 0.5).map_or(f64::NAN, |p| p.value),
        "ref",
    );
    Ok(out)
}

/// Recomputes a seeded sample of pristine responses with
/// `Engine::predict_robust_seeded` under each request's resolved seed.
fn check_outputs(
    engine: &Engine,
    pool: &[Tensor],
    seed: u64,
    steps: &[&Vec<Sent>],
) -> Result<(), String> {
    let mut ok: Vec<&Sent> = steps
        .iter()
        .flat_map(|s| s.iter())
        .filter(|s| s.pristine)
        .collect();
    ok.sort_by_key(|s| s.id);
    let mut picked = Vec::new();
    for k in 0..CHECKS as u64 {
        if ok.is_empty() {
            break;
        }
        picked.push(ok.swap_remove((mix64(seed ^ k) % ok.len() as u64) as usize));
    }
    picked.sort_by_key(|s| s.id);
    for s in &picked {
        let again = engine
            .predict_robust_seeded(
                &pool[pick(seed, s.id)],
                derive_request_seed(engine.config().seed, s.id),
            )
            .map_err(|e| format!("check of request {} failed: {e}", s.id))?;
        if !again
            .0
            .mean
            .iter()
            .map(|v| v.to_bits())
            .eq(s.mean_bits.iter().copied())
        {
            return Err(format!(
                "output mismatch on workload lenet-serve, request id {}",
                s.id
            ));
        }
    }
    let outputs: Vec<(u64, Vec<u32>)> =
        picked.iter().map(|s| (s.id, s.mean_bits.clone())).collect();
    println!(
        "checked {} responses: outputs match; digest {:016x}",
        picked.len(),
        digest(&outputs)
    );
    Ok(())
}

fn run_traced(args: &Args) -> Result<Outcome, String> {
    let server = set_up()?;
    let pool = hot_pool(&server.engine, args.seed);
    let mut conns = vec![Conn::connect(server.handle.addr())?];
    warm_up(&mut conns, &pool, args.seed)?;
    let mut conn = conns.pop().expect("one connection");
    // The replica the engine-level trace runs on, its cache warmed too.
    let batch = BatchEngine::new(server.engine.clone(), BatchConfig::default());
    for (k, x) in pool.iter().enumerate() {
        batch.run_request(
            &BatchRequest::new(1 << 47 | k as u64, x.clone()),
            &fast_bcnn::RunControl::none(),
        );
    }
    let probe = Probe::new(&server.engine);

    // A quarter of the time untraced roundtrips (the overhead reference),
    // the rest traced, one request in flight.
    let mut plain = Vec::new();
    let start = Instant::now();
    let mut id = 1u64 << 40;
    while start.elapsed().as_secs_f64() < args.seconds / 4.0 {
        let bytes = frame(id, &pool[pick(args.seed, id)])?;
        let t = Instant::now();
        conn.roundtrip(&bytes)?;
        plain.push(t.elapsed().as_nanos() as f64);
        id += 1;
    }
    let mut trace = Trace::new(Instant::now());
    let mut acc = LayerAcc::default();
    let class = class();
    let start = Instant::now();
    let mut id = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds * 3.0 / 4.0 {
        let req = BatchRequest::new(id, pool[pick(args.seed, id)].clone());
        trace_chain(
            &mut trace,
            &mut acc,
            &probe,
            &batch,
            &server.registry,
            &mut conn,
            &req,
            &class,
        )?;
        id += 1;
    }
    drop(conn);
    server.handle.shutdown();
    let path = write_out("lenet-serve.trace.jsonl", &trace.to_jsonl())?;
    println!("spans={} written to {path}", trace.spans.len());
    let mut out = Outcome {
        attempted: acc.requests,
        ..Outcome::default()
    };
    acc.report(
        &probe,
        "serve.rtt_ns",
        median(&plain).unwrap_or(0.0),
        &mut out,
    );
    Ok(out)
}
