//! `fleet_round`: whole fleet rounds through the real stack.
//!
//! The cloud serves the prior it fitted at set-up from a one-worker
//! `PriorServer`. A population of devices, each a persistent `EdgeRuntime`
//! that connects afresh for every request (intermittently connected
//! devices), takes turns in cohorts: each round the load thread calls
//! `fit_step` (fetch, fit, report) on every device of one cohort, then
//! `CloudLearner::step_server` with admission on drains, admits, absorbs,
//! collapses and publishes, and a keep-alive probe fetches and decodes the
//! new generation. The round ends when the probe holds it.
//!
//! An epoch is one pass over a population from a fresh learner and the
//! set-up prior. Each variant has its own population, order and learner
//! seed; every repeat of a variant must publish the same bytes. The eval
//! devices sit in the last cohort and fit under the prior the earlier
//! cohorts' reports refreshed.

use std::sync::Arc;
use std::time::Instant;

use dre_data::Dataset;
use dre_learner::{AdmissionConfig, CloudLearner, LearnerConfig, SirConfig};
use dre_models::{metrics, LinearModel};
use dre_serve::{
    EdgeRuntime, EdgeRuntimeConfig, PriorClient, ServerHandle, TcpConnector, FRAME_OVERHEAD,
};
use dro_edge::{transfer, EdgeLearner, EdgeLearnerConfig, FitMode};
use rand::seq::SliceRandom;

use crate::common::{
    self, ensure, ms, rng, Check, CloudFit, Digest, Digested, LearnerCounts, Params, PassClock,
    RunOutput, TimingSink, Variants, TASK_ID,
};
use crate::report::{Metrics, Tally, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;

struct Scale {
    population: usize,
    cohort: usize,
    eval: usize,
    train: usize,
    eval_train: usize,
    eval_test: usize,
    history_tasks: usize,
    history_samples: usize,
}

const FULL: Scale = Scale {
    population: 512,
    cohort: 16,
    eval: 4,
    train: 128,
    eval_train: 12,
    eval_test: 400,
    history_tasks: common::HISTORY_TASKS,
    history_samples: common::HISTORY_SAMPLES,
};

const SMOKE: Scale = Scale {
    population: 8,
    cohort: 4,
    eval: 2,
    train: 24,
    eval_train: 12,
    eval_test: 50,
    history_tasks: 24,
    history_samples: 60,
};

struct Device {
    id: u64,
    train: Dataset,
    /// Held-out data of an eval device.
    test: Option<Dataset>,
    runtime: EdgeRuntime<TcpConnector>,
    /// Client of the traced pass, which replays `fit_step`'s calls.
    client: PriorClient<TcpConnector>,
    /// Reports the traced pass sent; its sequence numbers continue after
    /// the runtime's.
    traced_reports: u64,
}

/// The learner as the cloud runs it: default SIR settings, admission on,
/// seeded from the run seed. A refresh interval of one report makes every
/// tick that admits anything publish exactly once, so each round ends on
/// a new generation.
pub fn learner_config(seed: u64, variant: usize) -> LearnerConfig {
    let seed = seed ^ ((variant as u64) << 32);
    LearnerConfig {
        sir: SirConfig {
            seed: seed ^ 0x5151,
            ..SirConfig::default()
        },
        refresh_interval: 1,
        admission: Some(AdmissionConfig {
            seed: seed ^ 0xAD,
            ..AdmissionConfig::default()
        }),
        ..LearnerConfig::default()
    }
}

/// What an epoch must reproduce, and its per-epoch counts.
#[derive(Debug, Default)]
struct Epoch {
    digest: Digest,
    accuracy: f64,
    learner: LearnerCounts,
    /// This epoch's fits, and (counted in full by traced passes only) its
    /// EM rounds, fetches and fetched frame bytes.
    em_rounds: u64,
    fits: u64,
    fetches: u64,
    fetched_bytes: u64,
}

impl Digested for Epoch {
    fn digest(&self) -> Digest {
        self.digest
    }
}

impl Epoch {
    fn finish(&mut self, learner: &CloudLearner, eval: &[(LinearModel, &Dataset)]) -> Check<()> {
        let mut acc = 0.0;
        for (model, test) in eval {
            acc += metrics::accuracy(model, test.features(), test.labels())
                .map_err(|e| format!("accuracy: {e}"))?;
            self.digest.f64s(&model.to_packed());
        }
        self.accuracy = acc / eval.len() as f64;
        // Every device is honest here, so every gated report is an honest
        // one.
        self.learner.gated_honest = self.learner.gated;
        self.learner.finish(learner, TASK_ID, &mut self.digest);
        self.digest.u64(self.accuracy.to_bits());
        Ok(())
    }
}

/// Samples of one pass.
#[derive(Debug, Default)]
struct Pass {
    round_ms: Vec<f64>,
    /// Device steps per second of round time, per epoch.
    epoch_rates: Vec<f64>,
    step_ms: Vec<f64>,
    rounds: u64,
    backlog_max: u64,
    drained: u64,
}

struct Fleet<'a> {
    server: ServerHandle,
    fit: CloudFit,
    seed: u64,
    scale: &'a Scale,
    devices: Vec<Device>,
    /// Per variant, the device order: consecutive cohorts of it make the
    /// epoch's rounds, and the eval devices sit in the last cohort.
    orders: Vec<Vec<usize>>,
    tally: Tally,
    /// Connections the run may open, shared evenly by its passes.
    budget: u64,
}

pub fn run(params: &Params) -> Check<RunOutput> {
    run_with_budget(params, common::churn_budget())
}

/// [`run`] under a connection budget of `budget` for the whole run.
fn run_with_budget(params: &Params, budget: u64) -> Check<RunOutput> {
    let scale = if params.smoke { &SMOKE } else { &FULL };
    let family = common::family();
    let history = common::history(
        &family,
        params.seed,
        scale.history_tasks,
        scale.history_samples,
    );
    let devices_data = device_data(params, scale, &family);

    let (server, fit, setup) = common::repeat_setup(params.setup_reps(), || {
        let fit = common::fit_cloud(&history, params.seed)?;
        let server = common::bind_server()?;
        server.register_prior(TASK_ID, &fit.prior);
        CloudLearner::try_new(learner_config(params.seed, 0))
            .map_err(|e| format!("learner construction failed: {e}"))?;
        Ok((server, fit))
    })?;

    let addr = server.addr();
    let devices = devices_data
        .into_iter()
        .enumerate()
        .map(|(i, (train, test))| {
            let id = 1000 + i as u64;
            let config = EdgeRuntimeConfig {
                task_id: TASK_ID,
                device_id: id,
                learner: EdgeLearnerConfig::default(),
                keep_alive: false,
                ..EdgeRuntimeConfig::default()
            };
            Device {
                id,
                train,
                test,
                runtime: EdgeRuntime::new(TcpConnector::new(addr), common::client_policy(), config),
                client: PriorClient::new(TcpConnector::new(addr), common::client_policy()),
                traced_reports: 0,
            }
        })
        .collect();
    let mut fleet = Fleet {
        server,
        fit,
        seed: params.seed,
        scale,
        devices,
        orders: orders(params, scale),
        tally: Tally::default(),
        budget,
    };
    let connections_at_start = fleet.server.metrics().connections;

    let (untraced, untraced_epochs) = fleet.pass(params, &mut Tracer::off())?;
    let untraced_epoch = untraced_epochs.first();

    let mut layers = Metrics::new(PER_LAYER);
    if params.trace {
        let before = fleet.server.metrics();
        let mut tracer = Tracer::new();
        let (traced, traced_epochs) = fleet.pass(params, &mut tracer)?;
        let after = fleet.server.metrics();
        traced_epochs.check_same(
            &untraced_epochs,
            "published different priors, models or counts",
        )?;
        let epoch = traced_epochs.first();
        setup.record_layers(&mut layers);
        common::record_server_layers(&mut layers, &before, &after, traced.rounds);
        layers.set(
            "core.fit_ms_p50",
            common::span_p50_us(params, &tracer, "core.fit")? / 1e3,
        );
        layers.set(
            "core.em_rounds_per_fit",
            epoch.em_rounds as f64 / epoch.fits as f64,
        );
        layers.set(
            "core.decode_us_p50",
            common::span_p50_us(params, &tracer, "core.decode")?,
        );
        layers.set(
            "serve.fetch_payload_us_p50",
            common::span_p50_us(params, &tracer, "serve.fetch_payload")?,
        );
        layers.set(
            "serve.report_us_p50",
            common::span_p50_us(params, &tracer, "serve.report")?,
        );
        layers.set(
            "serve.publish_us_p50",
            common::span_p50_us(params, &tracer, "serve.publish")?,
        );
        layers.set("serve.inbox_backlog_max", traced.backlog_max as f64);
        layers.set(
            "serve.bytes_out_per_fetch",
            epoch.fetched_bytes as f64 / epoch.fetches as f64,
        );
        let absorb_us: f64 = tracer.self_times_us("learner.absorb").iter().sum();
        layers.set(
            "learner.absorb_us_per_report",
            absorb_us / traced.drained as f64,
        );
        layers.set(
            "learner.drain_us_p50",
            common::span_p50_us(params, &tracer, "learner.drain")?,
        );
        epoch.learner.record(&mut layers);
        layers.set(
            "trace.coverage",
            tracer.coverage("round", common::is_layer_span),
        );
        let overhead = stats::median(&traced.round_ms).unwrap_or(0.0)
            / stats::median(&untraced.round_ms).unwrap_or(f64::NAN)
            - 1.0;
        layers.set("trace.overhead_frac", overhead);
        common::write_trace(&tracer, "fleet_round", params);
    }
    layers.set("parallel.threads", dre_parallel::max_threads() as f64);

    let churn = fleet.server.metrics().connections - connections_at_start;
    common::check_churn(churn, budget)?;

    let e2e = common::e2e_metrics(
        params,
        &setup,
        &untraced.round_ms,
        &untraced.epoch_rates,
        "round",
    )?;
    let (p50, p90) = (
        e2e.get("op_p50_ms").unwrap_or(0.0),
        common::pct(params, &untraced.round_ms, 90.0, "round")?,
    );
    let named = vec![
        ("setup_s", setup.setup_s(), "s"),
        ("round_p50_ms", p50, "ms"),
        ("round_p90_ms", p90, "ms"),
        (
            "device_step_p50_ms",
            common::pct(params, &untraced.step_ms, 50.0, "device step")?,
            "ms",
        ),
        (
            "device_step_p90_ms",
            stats::percentile(&untraced.step_ms, 90.0).unwrap_or(0.0),
            "ms",
        ),
        ("accuracy", untraced_epoch.accuracy, "fraction"),
        ("peak_rss_mb", e2e.get("peak_rss_mb").unwrap_or(0.0), "MB"),
        ("failed_frac", fleet.tally.failed_frac(), "fraction"),
        ("connections_opened", churn as f64, "count"),
    ];
    ensure(untraced_epoch.accuracy > 0.5, || {
        format!(
            "eval accuracy {} is no better than chance",
            untraced_epoch.accuracy
        )
    })?;
    Ok(RunOutput {
        tally: fleet.tally,
        e2e,
        layers,
        named,
    })
}

/// Each variant has a population of its own, so a run averages over
/// several draws of device data. Devices `v·P .. (v+1)·P` belong to
/// variant `v`; the first `eval` of each block are its eval devices.
fn is_eval(scale: &Scale, device: usize) -> bool {
    device % scale.population < scale.eval
}

/// Per variant, a seeded order of its population with the eval devices in
/// the last cohort.
fn orders(params: &Params, scale: &Scale) -> Vec<Vec<usize>> {
    (0..params.variants())
        .map(|v| {
            let block = v * scale.population..(v + 1) * scale.population;
            let (eval, mut rest): (Vec<usize>, Vec<usize>) =
                block.partition(|&i| is_eval(scale, i));
            rest.shuffle(&mut rng(params.seed, 100 + v as u64));
            let tail = rest.split_off(scale.population - scale.cohort);
            rest.extend(eval);
            rest.extend(tail);
            rest
        })
        .collect()
}

/// Per-device train sets; eval devices are few-shot and carry a held-out
/// set.
fn device_data(
    params: &Params,
    scale: &Scale,
    family: &dre_data::TaskFamily,
) -> Vec<(Dataset, Option<Dataset>)> {
    let mut r = rng(params.seed, 3);
    (0..params.variants() * scale.population)
        .map(|i| {
            let task = family.sample_task(&mut r);
            if is_eval(scale, i) {
                let train = task.generate(scale.eval_train, &mut r);
                (train, Some(task.generate(scale.eval_test, &mut r)))
            } else {
                (task.generate(scale.train, &mut r), None)
            }
        })
        .collect()
}

impl Fleet<'_> {
    fn rounds_per_epoch(&self) -> usize {
        self.scale.population / self.scale.cohort
    }

    /// Epochs until the pass's time or its share of the connection budget
    /// is spent, cycling through the variants.
    fn pass(&mut self, params: &Params, tr: &mut Tracer) -> Check<(Pass, Variants<Epoch>)> {
        let mut pass = Pass::default();
        let clock = PassClock::start(params);
        // Every device step opens two connections and the probe one per
        // epoch. A program fast enough to spend the pass's share of the
        // budget before its time is up ends the pass early instead of
        // failing the run.
        let per_epoch = 2 * self.scale.population as u64 + 1;
        let budget = common::pass_budget(params, self.budget);
        let at_start = self.server.metrics().connections;
        let epochs = common::cycle_variants(self.orders.len(), |variant| {
            let opened = self.server.metrics().connections - at_start;
            if !clock.more(pass.round_ms.len()) || opened + per_epoch > budget {
                return Ok(None);
            }
            self.epoch(&mut pass, variant, tr).map(Some)
        })?;
        Ok((pass, epochs))
    }

    fn epoch(&mut self, pass: &mut Pass, variant: usize, tr: &mut Tracer) -> Check<Epoch> {
        self.server.register_prior(TASK_ID, &self.fit.prior);
        let mut learner = CloudLearner::try_new(learner_config(self.seed, variant))
            .map_err(|e| format!("learner construction failed: {e}"))?;
        let mut probe = PriorClient::new(
            TcpConnector::new(self.server.addr()),
            common::client_policy(),
        )
        .keep_alive(true);
        let mut epoch = Epoch::default();
        let mut eval_models = Vec::new();
        let mut buf = Vec::new();
        let state = Arc::clone(self.server.state());
        let first_round = pass.round_ms.len();
        for round in 0..self.rounds_per_epoch() {
            let cohort =
                self.orders[variant][round * self.scale.cohort..][..self.scale.cohort].to_vec();
            let generation = state.cache_generation();
            let start = Instant::now();
            tr.set_round(pass.rounds);
            let root = tr.open("round");
            for &i in &cohort {
                let open = usize::from(probe.has_live_stream()) + 1;
                ensure(open <= common::MAX_OPEN_CONNECTIONS, || {
                    format!("{open} connections open at once")
                })?;
                let d = &mut self.devices[i];
                let t = Instant::now();
                let step = tr.open("step");
                let model = if tr.is_on() {
                    let (model, em_rounds) = traced_step(tr, d, &mut buf)?;
                    epoch.em_rounds += em_rounds as u64;
                    epoch.fetches += 1;
                    epoch.fetched_bytes += (FRAME_OVERHEAD + buf.len()) as u64;
                    model
                } else {
                    let fit = d
                        .runtime
                        .fit_step(&d.train)
                        .map_err(|e| format!("device {} fit failed: {e}", d.id))?;
                    ensure(fit.mode == FitMode::FreshPrior, || {
                        format!(
                            "device {} fitted in mode {:?}, not FreshPrior",
                            d.id, fit.mode
                        )
                    })?;
                    ensure(fit.reported, || {
                        format!("device {} report was not accepted", d.id)
                    })?;
                    fit.model
                };
                tr.close(step);
                pass.step_ms.push(ms(t.elapsed()));
                self.tally.attempt(1);
                epoch.fits += 1;
                if d.test.is_some() {
                    eval_models.push((i, model));
                }
            }
            // The cloud's tick: `step_server` untraced, its three calls
            // traced.
            let tick_span = tr.open("tick");
            pass.backlog_max = pass.backlog_max.max(state.report_backlog() as u64);
            let tick = if tr.is_on() {
                let reports = tr.span("learner.drain", |_| self.server.take_reports());
                pass.drained += reports.len() as u64;
                let absorb = tr.open("learner.absorb");
                let tick = learner
                    .absorb(reports, &mut TimingSink::new(&state, tr))
                    .map_err(|e| format!("learner absorb failed: {e}"))?;
                tr.close(absorb);
                tr.span("serve.note_admission", |_| {
                    state.note_admission_outcomes(tick.gated as u64, tick.quarantined as u64)
                });
                tick
            } else {
                learner
                    .step_server(&self.server)
                    .map_err(|e| format!("learner tick failed: {e}"))?
            };
            tr.close(tick_span);
            let probe_span = tr.open("probe");
            tr.span("serve.fetch_payload", |_| {
                probe.fetch_prior_payload_into(TASK_ID, &mut buf)
            })
            .map_err(|e| format!("probe fetch failed: {e}"))?;
            tr.span("core.decode", |_| transfer::deserialize_prior(&buf))
                .map_err(|e| format!("probe decode failed: {e}"))?;
            tr.close(probe_span);
            tr.close(root);
            pass.round_ms.push(ms(start.elapsed()));
            pass.rounds += 1;
            epoch.fetches += 1;
            epoch.fetched_bytes += (FRAME_OVERHEAD + buf.len()) as u64;

            // Output checks, outside the timed round.
            ensure(state.cache_generation() == generation + 1, || {
                format!(
                    "round {round} published {} generations, not exactly one",
                    state.cache_generation() - generation
                )
            })?;
            let entry = state
                .prior_entry(TASK_ID)
                .ok_or_else(|| "the task's prior vanished".to_string())?;
            ensure(*entry.payload == buf, || {
                format!("round {round}: the probe adopted bytes other than the published prior")
            })?;
            epoch.digest.bytes(&buf);
            epoch.learner.tick(&tick);
        }
        let eval: Vec<(LinearModel, &Dataset)> = eval_models
            .into_iter()
            .map(|(i, m)| (m, self.devices[i].test.as_ref().expect("eval device")))
            .collect();
        epoch.finish(&learner, &eval)?;
        let secs: f64 = pass.round_ms[first_round..].iter().sum::<f64>() / 1e3;
        pass.epoch_rates.push(self.scale.population as f64 / secs);
        Ok(epoch)
    }
}

/// One device step through the calls `EdgeRuntime::fit_step` makes:
/// fetch the payload, decode it, fit, report.
fn traced_step(tr: &mut Tracer, d: &mut Device, buf: &mut Vec<u8>) -> Check<(LinearModel, usize)> {
    tr.span("serve.fetch_payload", |_| {
        d.client.fetch_prior_payload_into(TASK_ID, buf)
    })
    .map_err(|e| format!("device {} fetch failed: {e}", d.id))?;
    let prior = tr
        .span("core.decode", |_| transfer::deserialize_prior(buf))
        .map_err(|e| format!("device {} decode failed: {e}", d.id))?;
    let fit = tr
        .span("core.fit", |_| {
            EdgeLearner::new(EdgeLearnerConfig::default(), prior).and_then(|l| l.fit(&d.train))
        })
        .map_err(|e| format!("device {} fit failed: {e}", d.id))?;
    d.traced_reports += 1;
    // Sequence numbers continue past every one the runtime may have used.
    let seq = d.runtime.step() + d.traced_reports;
    let accepted = tr
        .span("serve.report", |_| {
            d.client
                .report_model(TASK_ID, d.id, seq, fit.model.to_packed())
        })
        .map_err(|e| format!("device {} report failed: {e}", d.id))?;
    ensure(accepted, || format!("device {} report was rejected", d.id))?;
    Ok((fit.model, fit.em_rounds))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Connections one smoke epoch opens: two per device step, one probe.
    const EPOCH: u64 = 2 * SMOKE.population as u64 + 1;

    fn traced_smoke() -> Params {
        // Time to spare: only the connection budget ends a pass.
        Params {
            seed: 5,
            seconds: 60.0,
            trace: true,
            smoke: true,
        }
    }

    #[test]
    fn the_traced_pass_keeps_its_share_of_the_connection_budget() {
        // Three epochs' worth: the untraced pass could spend it all and
        // leave the traced pass nothing, but each pass gets half.
        let out = run_with_budget(&traced_smoke(), 3 * EPOCH).unwrap();
        assert!(out.layers.get("trace.coverage").unwrap() > 0.5);
        assert_eq!(out.tally.attempted(), 2 * SMOKE.population as u64);
    }

    #[test]
    fn a_budget_short_of_one_epoch_fails_the_run() {
        let err = run_with_budget(&traced_smoke(), EPOCH).unwrap_err();
        assert!(err.contains("ran no epoch"), "{err}");
    }
}
