//! `prior_fetch`: read-only serving.
//!
//! Many task ids are registered with priors whose component counts run
//! from 1 to `MAX_COMPONENTS`, so frames range from under 1 KB to tens of
//! KB and together outgrow the CPU caches. The multiset of component
//! counts is fixed; the seed assigns it to task ids, draws the priors'
//! parameters and the fetch sequence, so every seed serves the same bytes
//! in a different order.
//!
//! One keep-alive connection runs `PriorClient::fetch_prior` (payload plus
//! decode) over the sequence. An epoch is one pass over the sequence on a
//! fresh connection; the sequence is shorter than the server's
//! per-connection request cap (1024), so no request pays a reconnect.

use std::time::Instant;

use dre_bayes::MixturePrior;
use dre_linalg::Matrix;
use dre_serve::{PriorClient, TcpConnector, FRAME_OVERHEAD};
use dro_edge::transfer;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::common::{
    self, ensure, gauss, rng, Check, Digest, Params, PassClock, RunOutput, Variants, TASK_ID,
};
use crate::report::{Metrics, Tally, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;

struct Scale {
    tasks: usize,
    max_components: usize,
    /// Passes over every task id per epoch, each in a fresh seeded order:
    /// every seed fetches the same multiset of frames.
    laps: usize,
    history_tasks: usize,
    history_samples: usize,
}

const FULL: Scale = Scale {
    tasks: 256,
    max_components: 96,
    laps: 3,
    history_tasks: common::HISTORY_TASKS,
    history_samples: common::HISTORY_SAMPLES,
};

const SMOKE: Scale = Scale {
    tasks: 16,
    max_components: 8,
    laps: 2,
    history_tasks: 24,
    history_samples: 60,
};

/// Task ids of the synthetic priors start here; the cloud prior keeps
/// [`TASK_ID`].
const FIRST_TASK: u64 = 100;

struct Inputs {
    /// `(task id, prior)` to register.
    priors: Vec<(u64, MixturePrior)>,
    /// Task ids in fetch order.
    sequence: Vec<u64>,
}

fn inputs(seed: u64, scale: &Scale, dim: usize) -> Check<Inputs> {
    let mut r = rng(seed, 5);
    let mut counts: Vec<usize> = (0..scale.tasks)
        .map(|i| 1 + i % scale.max_components)
        .collect();
    counts.shuffle(&mut r);
    let mut priors = Vec::with_capacity(scale.tasks);
    for (i, &k) in counts.iter().enumerate() {
        let components = (0..k)
            .map(|_| {
                let weight = r.gen_range(0.1..1.0);
                let mean = (0..dim).map(|_| 2.0 * gauss(&mut r)).collect();
                let diag: Vec<f64> = (0..dim).map(|_| r.gen_range(0.2..2.0)).collect();
                (weight, mean, Matrix::from_diag(&diag))
            })
            .collect();
        let prior = MixturePrior::new(components).map_err(|e| format!("synthetic prior: {e}"))?;
        priors.push((FIRST_TASK + i as u64, prior));
    }
    let mut sequence = Vec::with_capacity(scale.laps * scale.tasks);
    let mut lap: Vec<u64> = (0..scale.tasks as u64).map(|i| FIRST_TASK + i).collect();
    for _ in 0..scale.laps {
        lap.shuffle(&mut r);
        sequence.extend_from_slice(&lap);
    }
    Ok(Inputs { priors, sequence })
}

#[derive(Debug, Default)]
struct Pass {
    fetch_ms: Vec<f64>,
    /// Fetches per second of fetch time, per epoch.
    epoch_rates: Vec<f64>,
    fetches: u64,
    fetched_bytes: u64,
    busy: u64,
}

pub fn run(params: &Params) -> Check<RunOutput> {
    let scale = if params.smoke { &SMOKE } else { &FULL };
    let family = common::family();
    let history = common::history(
        &family,
        params.seed,
        scale.history_tasks,
        scale.history_samples,
    );
    let inputs = inputs(params.seed, scale, family.config().dim + 1)?;

    let (server, _fit, setup) = common::repeat_setup(params.setup_reps(), || {
        let fit = common::fit_cloud(&history, params.seed)?;
        let server = common::bind_server()?;
        server.register_prior(TASK_ID, &fit.prior);
        for (task, prior) in &inputs.priors {
            server.register_prior(*task, prior);
        }
        Ok((server, fit))
    })?;
    // What each task must decode to, from the bytes the server holds; those
    // bytes must in turn decode to the prior registered (up to the
    // codec's float round-off).
    let mut expected = std::collections::HashMap::new();
    for (task, original) in &inputs.priors {
        let entry = server
            .state()
            .prior_entry(*task)
            .ok_or_else(|| format!("task {task} is not registered"))?;
        let decoded = transfer::deserialize_prior(&entry.payload)
            .map_err(|e| format!("task {task}: registered payload does not decode: {e}"))?;
        ensure(common::same_prior(&decoded, original), || {
            format!("task {task}: the served payload decodes to another prior")
        })?;
        expected.insert(*task, transfer::serialize_prior(&decoded));
    }
    let frame_kb: Vec<f64> = inputs
        .priors
        .iter()
        .map(|(t, _)| {
            (FRAME_OVERHEAD
                + server
                    .state()
                    .prior_entry(*t)
                    .map_or(0, |e| e.payload.len())) as f64
                / 1024.0
        })
        .collect();

    let mut tally = Tally::default();
    let connections_before = server.metrics().connections;
    let mut pass = |tr: &mut Tracer| -> Check<(Pass, Variants<Digest>)> {
        let mut pass = Pass::default();
        let clock = PassClock::start(params);
        let digests = common::cycle_variants(1, |_| {
            if !clock.more(pass.fetch_ms.len()) {
                return Ok(None);
            }
            let mut client =
                PriorClient::new(TcpConnector::new(server.addr()), common::client_policy())
                    .keep_alive(true);
            let mut digest = Digest::default();
            let first_fetch = pass.fetch_ms.len();
            let mut buf = Vec::new();
            for &task in &inputs.sequence {
                let start = Instant::now();
                // `fetch_prior` untraced, its two calls traced.
                let prior = if tr.is_on() {
                    let root = tr.open("round");
                    tr.span("serve.fetch_payload", |_| {
                        client.fetch_prior_payload_into(task, &mut buf)
                    })
                    .map_err(|e| format!("fetch of task {task} failed: {e}"))?;
                    let prior = tr
                        .span("core.decode", |_| transfer::deserialize_prior(&buf))
                        .map_err(|e| format!("decode of task {task} failed: {e}"))?;
                    tr.close(root);
                    pass.fetched_bytes += (FRAME_OVERHEAD + buf.len()) as u64;
                    prior
                } else {
                    client
                        .fetch_prior(task)
                        .map_err(|e| format!("fetch of task {task} failed: {e}"))?
                };
                pass.fetch_ms.push(start.elapsed().as_secs_f64() * 1e3);
                pass.fetches += 1;
                // Output check, outside the timed fetch.
                let bytes = transfer::serialize_prior(&prior);
                ensure(expected.get(&task) == Some(&bytes), || {
                    format!("task {task} decoded to a prior other than the registered one")
                })?;
                digest.bytes(&bytes);
            }
            pass.busy += client.metrics().busy;
            let secs: f64 = pass.fetch_ms[first_fetch..].iter().sum::<f64>() / 1e3;
            pass.epoch_rates.push(inputs.sequence.len() as f64 / secs);
            Ok(Some(digest))
        })?;
        tally.attempt(pass.fetches);
        tally.fail("busy_reply", pass.busy);
        Ok((pass, digests))
    };

    let (untraced, untraced_digests) = pass(&mut Tracer::off())?;
    let mut layers = Metrics::new(PER_LAYER);
    if params.trace {
        let before = server.metrics();
        let mut tracer = Tracer::new();
        let (traced, traced_digests) = pass(&mut tracer)?;
        let after = server.metrics();
        traced_digests.check_same(&untraced_digests, "decoded different priors")?;
        setup.record_layers(&mut layers);
        common::record_server_layers(&mut layers, &before, &after, traced.fetches);
        layers.set(
            "core.decode_us_p50",
            common::span_p50_us(params, &tracer, "core.decode")?,
        );
        layers.set(
            "serve.fetch_payload_us_p50",
            common::span_p50_us(params, &tracer, "serve.fetch_payload")?,
        );
        layers.set(
            "serve.bytes_out_per_fetch",
            traced.fetched_bytes as f64 / traced.fetches as f64,
        );
        layers.set(
            "trace.coverage",
            tracer.coverage("round", common::is_layer_span),
        );
        let overhead = stats::median(&traced.fetch_ms).unwrap_or(0.0)
            / stats::median(&untraced.fetch_ms).unwrap_or(f64::NAN)
            - 1.0;
        layers.set("trace.overhead_frac", overhead);
        common::write_trace(&tracer, "prior_fetch", params);
    }
    layers.set("parallel.threads", dre_parallel::max_threads() as f64);

    let churn = server.metrics().connections - connections_before;
    common::check_churn(churn, common::churn_budget())?;

    let e2e = common::e2e_metrics(
        params,
        &setup,
        &untraced.fetch_ms,
        &untraced.epoch_rates,
        "fetch",
    )?;
    let fetch_us = |m: &str| e2e.get(m).unwrap_or(0.0) * 1e3;
    let named = vec![
        ("setup_s", setup.setup_s(), "s"),
        ("fetch_p50_us", fetch_us("op_p50_ms"), "us"),
        (
            "fetch_p90_us",
            common::pct(params, &untraced.fetch_ms, 90.0, "fetch")? * 1e3,
            "us",
        ),
        ("fetches_per_s", e2e.get("work_per_s").unwrap_or(0.0), "1/s"),
        (
            "frame_kb_min",
            frame_kb.iter().copied().fold(f64::INFINITY, f64::min),
            "KiB",
        ),
        (
            "frame_kb_max",
            frame_kb.iter().copied().fold(0.0, f64::max),
            "KiB",
        ),
        ("frames_total_kb", frame_kb.iter().sum(), "KiB"),
        ("peak_rss_mb", e2e.get("peak_rss_mb").unwrap_or(0.0), "MB"),
        ("failed_frac", tally.failed_frac(), "fraction"),
        ("connections_opened", churn as f64, "count"),
    ];
    Ok(RunOutput {
        tally,
        e2e,
        layers,
        named,
    })
}
