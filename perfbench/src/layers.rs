//! The traced run's per-layer view of one engine request: the real
//! `BatchEngine::run_request` as the root span, a replay of its parts
//! through the layers' public functions, and probes that time the rest.

use crate::trace::{self_time_ns, unattributed_share, Link, Trace};
use crate::Outcome;
use fast_bcnn::{BatchEngine, BatchRequest, Engine, RunControl};
use fbcnn_bayes::mask::DropoutMasks;
use fbcnn_bayes::McDropout;
use fbcnn_nn::{ActivationGuard, NodeId, Workspace};
use fbcnn_predictor::{
    build_skip_maps, PolarityIndicators, PredictiveInference, PredictorShared, PreparedInput,
    SkipMap,
};
use fbcnn_tensor::stats::{argmax, softmax};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Input-invariant predictor state, built once per run.
pub struct Probe<'e> {
    engine: &'e Engine,
    shared: Arc<PredictorShared>,
    indicators: PolarityIndicators,
    convs: Vec<NodeId>,
}

/// Per-layer figures gathered over the traced requests of one thread.
#[derive(Debug, Default)]
pub struct LayerAcc {
    /// Durations of each timed call, ns, by metric name.
    pub calls: BTreeMap<String, Vec<f64>>,
    /// Conv node label → (skipped, total) neurons over all probed samples.
    pub skip: BTreeMap<String, (u64, u64)>,
    /// Predicted-unaffected, undropped neurons and how many of them are
    /// zero in the exact sample under the same masks.
    pub predicted: u64,
    /// See `predicted`.
    pub predicted_zero: u64,
    /// Requests traced, samples they used and fallback samples.
    pub requests: u64,
    /// See `requests`.
    pub samples: u64,
    /// See `requests`.
    pub fallback_samples: u64,
    /// Requests whose pre-inference came from the cache.
    pub cache_hits: u64,
    /// Requests whose skip and exact MC means pick the same class.
    pub argmax_agree: u64,
}

impl LayerAcc {
    /// Records one call's duration under `name`.
    pub fn push(&mut self, name: &str, ns: f64) {
        self.calls.entry(name.to_string()).or_default().push(ns);
    }

    /// Merges another thread's figures.
    pub fn absorb(&mut self, other: LayerAcc) {
        for (k, v) in other.calls {
            self.calls.entry(k).or_default().extend(v);
        }
        for (k, (s, t)) in other.skip {
            let e = self.skip.entry(k).or_default();
            e.0 += s;
            e.1 += t;
        }
        self.predicted += other.predicted;
        self.predicted_zero += other.predicted_zero;
        self.requests += other.requests;
        self.samples += other.samples;
        self.fallback_samples += other.fallback_samples;
        self.cache_hits += other.cache_hits;
        self.argmax_agree += other.argmax_agree;
    }

    /// Median of the calls recorded under `name` (0 when none were).
    pub fn median(&self, name: &str) -> f64 {
        self.calls
            .get(name)
            .and_then(|v| crate::stats::median(v))
            .unwrap_or(0.0)
    }

    /// Mean of the values recorded under `name` (0 when none were).
    pub fn mean(&self, name: &str) -> f64 {
        match self.calls.get(name) {
            Some(v) if !v.is_empty() => v.iter().sum::<f64>() / v.len() as f64,
            _ => 0.0,
        }
    }

    /// Adds every per-layer metric to `out` and prints the per-conv-layer
    /// table. `untraced_root_ns` is the median of the root call measured
    /// without tracing in the same run; `traced_root` names the root.
    pub fn report(
        &self,
        probe: &Probe<'_>,
        traced_root: &str,
        untraced_root_ns: f64,
        out: &mut Outcome,
    ) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let (macs, bytes) = probe.conv_work();
        let other_ns = self.median("nn.other_ns");
        let mut ideal_ns = other_ns;
        let (mut skipped, mut total) = (0u64, 0u64);
        println!("layer        conv_ns   skip_rate   ideal_ns");
        for label in probe.conv_labels() {
            let conv_ns = self.median(&format!("nn.conv_ns.{label}"));
            let (s, t) = self.skip.get(&label).copied().unwrap_or_default();
            skipped += s;
            total += t;
            let rate = ratio(s, t);
            ideal_ns += conv_ns * (1.0 - rate);
            println!(
                "{label:<10} {conv_ns:>10.0} {rate:>10.4} {:>10.0}",
                conv_ns * (1.0 - rate)
            );
        }
        let skip_sample_ns = self.median("predictor.skip_sample_ns");
        let request_ns = self.median("engine.request_ns");
        let requests = self.requests.max(1) as f64;
        let ns = "ns";
        out.metric("nn.conv_ns", self.median("nn.conv_ns"), ns);
        out.metric("nn.other_ns", other_ns, ns);
        out.metric("nn.conv_macs", macs, "count");
        out.metric("nn.conv_bytes", bytes, "bytes");
        out.metric("bayes.mask_gen_ns", self.median("bayes.mask_gen_ns"), ns);
        out.metric(
            "bayes.exact_sample_ns",
            self.median("bayes.exact_sample_ns"),
            ns,
        );
        out.metric(
            "bayes.canary_exact_ns",
            self.median("bayes.canary_exact_ns"),
            ns,
        );
        out.metric("bayes.summarize_ns", self.median("bayes.summarize_ns"), ns);
        out.metric(
            "predictor.pre_inference_ns",
            self.median("predictor.pre_inference_ns"),
            ns,
        );
        out.metric(
            "predictor.prediction_ns",
            self.median("predictor.prediction_ns"),
            ns,
        );
        out.metric("predictor.skip_sample_ns", skip_sample_ns, ns);
        out.metric("predictor.ideal_ns", ideal_ns, ns);
        out.metric(
            "predictor.ideal_fraction",
            ideal_ns / skip_sample_ns.max(1.0),
            "ratio",
        );
        out.metric("predictor.skip_rate", ratio(skipped, total), "ratio");
        out.metric(
            "predictor.precision",
            ratio(self.predicted_zero, self.predicted),
            "ratio",
        );
        out.metric("engine.request_ns", request_ns, ns);
        out.metric("engine.self_ns", self.median("engine.self_ns"), ns);
        out.metric(
            "engine.samples_per_req",
            self.samples as f64 / requests,
            "count",
        );
        out.metric(
            "engine.fallback_samples",
            self.fallback_samples as f64,
            "count",
        );
        out.metric(
            "engine.argmax_agree",
            self.argmax_agree as f64 / requests,
            "ratio",
        );
        out.metric(
            "batch.cache_hit_ratio",
            self.cache_hits as f64 / requests,
            "ratio",
        );
        out.metric("registry.handle_ns", self.median("registry.handle_ns"), ns);
        out.metric(
            "registry.overhead_ns",
            self.median("registry.overhead_ns"),
            ns,
        );
        out.metric(
            "resilience.retry_ratio",
            self.mean("resilience.retry"),
            "ratio",
        );
        out.metric(
            "resilience.forced_exact_ratio",
            self.mean("resilience.forced_exact"),
            "ratio",
        );
        out.metric("serve.codec_ns", self.median("serve.codec_ns"), ns);
        out.metric(
            "serve.frame_bytes",
            self.median("serve.frame_bytes"),
            "bytes",
        );
        out.metric("serve.rtt_ns", self.median("serve.rtt_ns"), ns);
        out.metric("serve.overhead_ns", self.median("serve.overhead_ns"), ns);
        out.metric(
            "trace.unattributed_share",
            self.median("trace.unattributed_share"),
            "ratio",
        );
        out.metric(
            "trace.overhead_ns",
            self.median(traced_root) - untraced_root_ns,
            ns,
        );
    }
}

fn mean_bits(probs: &[f32]) -> Vec<u32> {
    probs.iter().map(|v| v.to_bits()).collect()
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

impl<'e> Probe<'e> {
    /// Builds the shared predictor state of `engine`.
    pub fn new(engine: &'e Engine) -> Self {
        let net = engine.network();
        Self {
            engine,
            shared: Arc::new(engine.predictor_shared()),
            indicators: PolarityIndicators::from_network(net),
            convs: net.conv_nodes(),
        }
    }

    /// Conv node labels, in graph order.
    pub fn conv_labels(&self) -> Vec<String> {
        let net = self.engine.network();
        self.convs
            .iter()
            .map(|&n| net.node(n).label().to_string())
            .collect()
    }

    /// Multiply-accumulates and bytes moved (input, weights, bias and
    /// output tensors as f32) of one dense pass over every conv layer,
    /// computed from the tensor shapes.
    pub fn conv_work(&self) -> (f64, f64) {
        let net = self.engine.network();
        let (mut macs, mut bytes) = (0.0, 0.0);
        for &id in &self.convs {
            let node = net.node(id);
            let Some(conv) = node.layer().and_then(|l| l.as_conv()) else {
                continue;
            };
            let out = net.shape(id).len() as f64;
            let input = net.shape(node.inputs()[0]).len() as f64;
            macs += out * conv.macs_per_neuron() as f64;
            bytes += 4.0 * (input + conv.weights().len() as f64 + conv.bias().len() as f64 + out);
        }
        (macs, bytes)
    }

    /// Times every node of one dropout-free pass through
    /// `Network::eval_node_ws` (the kernel the exact path runs), as nested
    /// spans `nn.<label>` under `parent`. Returns per-node ns.
    fn time_nodes(
        &self,
        tr: &mut Trace,
        req: u64,
        parent: usize,
        input: &fbcnn_tensor::Tensor,
    ) -> Vec<f64> {
        let net = self.engine.network();
        let mut ws = Workspace::new();
        let mut per_node = vec![0.0; net.len()];
        net.forward_with(input, |net, node, ins| {
            let t = Instant::now();
            let id = tr.begin(
                &format!("nn.{}", node.label()),
                req,
                Some(parent),
                Link::Nested,
            );
            let out = net.eval_node_ws(node, ins, &mut ws);
            tr.end(id);
            per_node[node.id().0] = ns_since(t);
            out
        });
        per_node
    }

    /// Traces one request: the real `run_request` as a span (a replayed
    /// child of `parent` when given), the replay of its parts, then the
    /// probes. Returns the root span index, or an error when the request
    /// failed or the replay did not reproduce its output bit for bit.
    pub fn trace_request(
        &self,
        tr: &mut Trace,
        acc: &mut LayerAcc,
        batch: &BatchEngine,
        req: &BatchRequest,
        ctl: &RunControl,
        parent: Option<usize>,
    ) -> Result<usize, String> {
        let link = if parent.is_some() {
            Link::Replay
        } else {
            Link::Nested
        };
        let id = req.id;
        let root = tr.begin("engine.run_request", id, parent, link);
        let outcome = batch.run_request(req, ctl);
        tr.end(root);
        let (prediction, report) = outcome
            .result
            .as_ref()
            .map_err(|e| format!("request {id} failed: {e}"))?;
        let used = report.used_samples;
        acc.push("engine.request_ns", tr.spans[root].duration_ns() as f64);
        acc.requests += 1;
        acc.samples += report.used_samples as u64;
        acc.fallback_samples += report.fallback_samples as u64;
        acc.cache_hits += u64::from(outcome.cache_hit);

        // Replay: the same public calls robust_core makes, in its order.
        let bnet = self.engine.bayesian_network();
        let rc = batch.batch_config().robust;
        let seed = outcome.seed;
        let input = &req.input;
        let prepared = if outcome.cache_hit {
            None
        } else {
            let t = Instant::now();
            let p = tr.time(
                "predictor.pre_inference",
                id,
                Some(root),
                Link::Replay,
                || PreparedInput::new(bnet, input),
            );
            acc.push("predictor.pre_inference_ns", ns_since(t));
            Some(p)
        };
        let prepared = Arc::new(match prepared {
            Some(p) => p,
            None => {
                let probe = tr.begin("probe", id, None, Link::Nested);
                let t = Instant::now();
                let p = tr.time(
                    "predictor.pre_inference",
                    id,
                    Some(probe),
                    Link::Nested,
                    || PreparedInput::new(bnet, input),
                );
                acc.push("predictor.pre_inference_ns", ns_since(t));
                tr.end(probe);
                p
            }
        });
        let fast =
            PredictiveInference::from_parts(bnet, Arc::clone(&self.shared), Arc::clone(&prepared));
        let mut ws = Workspace::new();
        let mut masks_of: Vec<DropoutMasks> = Vec::with_capacity(used);
        let mask_gen = |tr: &mut Trace, acc: &mut LayerAcc, parent: usize, s: usize| {
            let t = Instant::now();
            let m = tr.time("bayes.mask_gen", id, Some(parent), Link::Nested, || {
                bnet.generate_masks(seed, s)
            });
            acc.push("bayes.mask_gen_ns", ns_since(t));
            m
        };
        if !ctl.force_exact {
            let canary = tr.begin("engine.canary", id, Some(root), Link::Replay);
            let masks = mask_gen(tr, acc, canary, 0);
            let t = Instant::now();
            tr.time("bayes.canary_exact", id, Some(canary), Link::Nested, || {
                softmax(bnet.forward_sample(input, &masks).logits())
            });
            acc.push("bayes.canary_exact_ns", ns_since(t));
            let t = Instant::now();
            tr.time(
                "predictor.skip_sample",
                id,
                Some(canary),
                Link::Nested,
                || fast.run_sample(&masks),
            );
            acc.push("predictor.skip_sample_ns", ns_since(t));
            tr.end(canary);
        }
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(used);
        for s in 0..used {
            let sample = tr.begin("engine.sample", id, Some(root), Link::Replay);
            let masks = mask_gen(tr, acc, sample, s);
            let mut row = None;
            if !ctl.force_exact {
                let t = Instant::now();
                let run = tr.time(
                    "predictor.skip_sample",
                    id,
                    Some(sample),
                    Link::Nested,
                    || fast.run_sample(&masks),
                );
                acc.push("predictor.skip_sample_ns", ns_since(t));
                let probs = softmax(run.logits());
                if ActivationGuard::probs_are_sane(&probs)
                    && run.stats().skip_rate() <= rc.max_skip_rate
                {
                    row = Some(probs);
                }
            }
            if row.is_none() {
                let t = Instant::now();
                let run = tr.time("bayes.exact_sample", id, Some(sample), Link::Nested, || {
                    bnet.forward_sample_checked(input, &masks, &mut ws, &rc.guard)
                });
                acc.push("bayes.exact_sample_ns", ns_since(t));
                let (run, _) =
                    run.map_err(|e| format!("request {id}: replayed exact sample failed: {e}"))?;
                row = Some(softmax(run.logits()));
            }
            rows.extend(row);
            masks_of.push(masks);
            tr.end(sample);
        }
        let t = Instant::now();
        let replayed = tr.time("bayes.summarize", id, Some(root), Link::Replay, || {
            McDropout::summarize(rows.clone())
        });
        acc.push("bayes.summarize_ns", ns_since(t));
        if mean_bits(&replayed.mean) != mean_bits(&prediction.mean) {
            return Err(format!(
                "request {id}: the replay through public calls did not reproduce the served mean"
            ));
        }
        acc.push("engine.self_ns", self_time_ns(&tr.spans, root) as f64);
        acc.push(
            "trace.unattributed_share",
            unattributed_share(&tr.spans, root),
        );

        // Probes: the dense kernels per node, the predictor's skip maps,
        // the path this request did not take, and skip-vs-exact agreement.
        let probe = tr.begin("probe", id, None, Link::Nested);
        let nodes = self.time_nodes(tr, id, probe, input);
        let net = self.engine.network();
        let mut conv_ns = 0.0;
        for (i, ns) in nodes.iter().enumerate() {
            let node = &net.nodes()[i];
            if node.layer().is_some_and(|l| l.is_conv()) {
                conv_ns += ns;
                acc.push(&format!("nn.conv_ns.{}", node.label()), *ns);
            } else {
                acc.push("nn.other_node_ns", *ns);
            }
        }
        acc.push("nn.conv_ns", conv_ns);
        acc.push("nn.other_ns", nodes.iter().sum::<f64>() - conv_ns);
        let mut other_rows = Vec::with_capacity(used);
        for masks in &masks_of {
            let t = Instant::now();
            let maps = tr.time(
                "predictor.prediction",
                id,
                Some(probe),
                Link::Nested,
                || {
                    build_skip_maps(
                        net,
                        masks,
                        fast.zero_masks(),
                        &self.indicators,
                        fast.thresholds(),
                    )
                },
            );
            acc.push("predictor.prediction_ns", ns_since(t));
            let exact = if ctl.force_exact {
                let t = Instant::now();
                let run = tr.time(
                    "predictor.skip_sample",
                    id,
                    Some(probe),
                    Link::Nested,
                    || fast.run_sample(masks),
                );
                acc.push("predictor.skip_sample_ns", ns_since(t));
                other_rows.push(softmax(run.logits()));
                bnet.forward_sample_checked(input, masks, &mut ws, &rc.guard)
            } else {
                let t = Instant::now();
                let run = tr.time("bayes.exact_sample", id, Some(probe), Link::Nested, || {
                    bnet.forward_sample_checked(input, masks, &mut ws, &rc.guard)
                });
                acc.push("bayes.exact_sample_ns", ns_since(t));
                if let Ok((r, _)) = &run {
                    other_rows.push(softmax(r.logits()));
                }
                run
            };
            let (exact, _) =
                exact.map_err(|e| format!("request {id}: probe exact sample failed: {e}"))?;
            self.count_skips(acc, &maps, &exact.activations);
        }
        tr.end(probe);
        if !other_rows.is_empty() {
            let other = McDropout::summarize(other_rows);
            acc.argmax_agree += u64::from(argmax(&other.mean) == argmax(&prediction.mean));
        }
        Ok(root)
    }

    /// Adds one sample's skip maps to the per-layer skip rates and to the
    /// predictor's precision against the exact activations.
    fn count_skips(
        &self,
        acc: &mut LayerAcc,
        maps: &[Option<SkipMap>],
        exact: &[fbcnn_tensor::Tensor],
    ) {
        let net = self.engine.network();
        for &node in &self.convs {
            let Some(map) = maps[node.0].as_ref() else {
                continue;
            };
            let s = map.stats();
            let e = acc
                .skip
                .entry(net.node(node).label().to_string())
                .or_default();
            e.0 += s.skipped as u64;
            e.1 += s.total as u64;
            let values = exact[node.0].as_slice();
            for i in map.predicted.and_not(&map.dropped).iter_set() {
                acc.predicted += 1;
                acc.predicted_zero += u64::from(values[i] == 0.0);
            }
        }
    }
}
