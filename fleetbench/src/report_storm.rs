//! `report_storm`: writes beside reads on the cloud side, with no device
//! fitting.
//!
//! Pre-generated reports (honest ones drawn around the family's cluster
//! parameters, plus a seeded colluding cohort that all report one
//! off-cluster point) go over one keep-alive connection with
//! `PriorClient::report_model`. A second keep-alive connection fetches the
//! prior between reports. Every `BATCH` reports the learner ticks
//! synchronously: drain, absorb (score, admit, push), then a forced
//! refresh that collapses and publishes, so every tick republishes — gated
//! reports do not count toward `refresh_interval`, so an interval of
//! `BATCH` would skip ticks. The reader then fetches the new generation;
//! the time from the ack of the batch's last report until it has decoded
//! it is the publish lag.
//!
//! An epoch is the whole report stream from a fresh learner and the
//! set-up prior, over fresh connections.

use std::sync::Arc;
use std::time::Instant;

use dre_bayes::MixturePrior;
use dre_learner::{AdmissionConfig, CloudLearner, LearnerConfig, SirConfig};
use dre_serve::{PriorClient, ServerHandle, TcpConnector, FRAME_OVERHEAD};
use dro_edge::transfer;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::common::{
    self, ensure, gauss, ms, rng, us, Check, CloudFit, Digest, Digested, LearnerCounts, Params,
    PassClock, RunOutput, TimingSink, Variants, TASK_ID,
};
use crate::report::{Metrics, Tally, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;

struct Scale {
    devices: usize,
    reports: usize,
    batch: usize,
    history_tasks: usize,
    history_samples: usize,
}

const FULL: Scale = Scale {
    devices: 64,
    reports: 256,
    batch: 16,
    history_tasks: common::HISTORY_TASKS,
    history_samples: common::HISTORY_SAMPLES,
};

/// One epoch at full size takes a few tens of milliseconds, so smoke mode
/// keeps it: at toy size the gate has too few reports to arm.
const SMOKE: Scale = Scale {
    devices: 64,
    reports: 256,
    batch: 16,
    history_tasks: 24,
    history_samples: 60,
};

/// One device in four colludes.
const COLLUDER_SHARE: usize = 4;

/// Spread of honest reports around their cluster's parameters: the
/// family's own within-cluster spread.
const HONEST_STD: f64 = 0.3;

/// Spread of the colluders around their shared target.
const COLLUDER_STD: f64 = 0.05;

const FIRST_DEVICE_ID: u64 = 5000;

struct Inputs {
    /// Per variant, `(device index, packed parameters)` in send order.
    streams: Vec<Vec<(usize, Vec<f64>)>>,
    colluder: Vec<bool>,
}

fn inputs(seed: u64, scale: &Scale, variants: usize) -> Inputs {
    let family = common::family();
    let centers = family.cluster_centers();
    let mut r = rng(seed, 4);
    let mut ids: Vec<usize> = (0..scale.devices).collect();
    ids.shuffle(&mut r);
    let mut colluder = vec![false; scale.devices];
    for &i in &ids[..scale.devices / COLLUDER_SHARE] {
        colluder[i] = true;
    }
    let cluster: Vec<usize> = (0..scale.devices)
        .map(|_| r.gen_range(0..centers.len()))
        .collect();
    // The colluders' common target mirrors the first cluster through the
    // origin: far from every honest report.
    let target: Vec<f64> = centers[0].iter().map(|c| -c).collect();
    let report = |d: usize, r: &mut rand::rngs::StdRng| -> (usize, Vec<f64>) {
        let (center, std) = if colluder[d] {
            (&target, COLLUDER_STD)
        } else {
            (&centers[cluster[d]], HONEST_STD)
        };
        (d, center.iter().map(|c| c + std * gauss(r)).collect())
    };
    let streams = (0..variants)
        .map(|_| {
            // The colluders join after the first batch: the learner's base
            // measure and the gate's baseline come from honest reports.
            let mut honest: Vec<usize> = (0..scale.devices).filter(|&d| !colluder[d]).collect();
            honest.shuffle(&mut r);
            let mut stream: Vec<_> = honest[..scale.batch]
                .iter()
                .map(|&d| report(d, &mut r))
                .collect();
            let mut order: Vec<usize> = (0..scale.devices).collect();
            while stream.len() < scale.reports {
                order.shuffle(&mut r);
                for &d in order.iter().take(scale.reports - stream.len()) {
                    stream.push(report(d, &mut r));
                }
            }
            stream
        })
        .collect();
    Inputs { streams, colluder }
}

fn learner_config(seed: u64, variant: usize) -> LearnerConfig {
    let seed = seed ^ ((variant as u64) << 32);
    LearnerConfig {
        sir: SirConfig {
            seed: seed ^ 0x5151,
            ..SirConfig::default()
        },
        // Publishing is the tick's forced refresh (see the module docs).
        refresh_interval: usize::MAX,
        admission: Some(AdmissionConfig {
            seed: seed ^ 0xAD,
            ..AdmissionConfig::default()
        }),
        ..LearnerConfig::default()
    }
}

#[derive(Debug, Default)]
struct Epoch {
    digest: Digest,
    learner: LearnerCounts,
    /// Traced passes only: reader fetches and fetched frame bytes of this
    /// epoch.
    fetches: u64,
    fetched_bytes: u64,
}

impl Digested for Epoch {
    fn digest(&self) -> Digest {
        self.digest
    }
}

#[derive(Debug, Default)]
struct Pass {
    lag_ms: Vec<f64>,
    /// Reports decided per second, per epoch.
    epoch_rates: Vec<f64>,
    fetch_us: Vec<f64>,
    reports: u64,
    batches: u64,
    drained: u64,
    fetches: u64,
    fetched_bytes: u64,
    backlog_max: u64,
}

struct Storm<'a> {
    server: ServerHandle,
    fit: CloudFit,
    seed: u64,
    scale: &'a Scale,
    inputs: Inputs,
    /// Last sequence number each device used.
    seq: Vec<u64>,
    tally: Tally,
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
    let inputs = inputs(params.seed, scale, params.variants());

    let (server, fit, setup) = common::repeat_setup(params.setup_reps(), || {
        let fit = common::fit_cloud(&history, params.seed)?;
        let server = common::bind_server()?;
        server.register_prior(TASK_ID, &fit.prior);
        CloudLearner::try_new(learner_config(params.seed, 0))
            .map_err(|e| format!("learner construction failed: {e}"))?;
        Ok((server, fit))
    })?;
    let mut storm = Storm {
        server,
        fit,
        seed: params.seed,
        scale,
        seq: vec![0; inputs.colluder.len()],
        inputs,
        tally: Tally::default(),
    };
    let connections_before = storm.server.metrics().connections;

    let (untraced, untraced_epochs) = storm.pass(params, &mut Tracer::off())?;
    ensure(untraced_epochs.first().learner.gated > 0, || {
        "admission gated no report: the colluding cohort went unnoticed".to_string()
    })?;

    let mut layers = Metrics::new(PER_LAYER);
    if params.trace {
        let before = storm.server.metrics();
        let mut tracer = Tracer::new();
        let (traced, traced_epochs) = storm.pass(params, &mut tracer)?;
        let after = storm.server.metrics();
        traced_epochs.check_same(&untraced_epochs, "published different priors or counts")?;
        let epoch = traced_epochs.first();
        setup.record_layers(&mut layers);
        common::record_server_layers(&mut layers, &before, &after, traced.reports);
        let p50 = |name: &str| common::span_p50_us(params, &tracer, name);
        layers.set("core.decode_us_p50", p50("core.decode")?);
        layers.set("serve.fetch_payload_us_p50", p50("serve.fetch_payload")?);
        layers.set("serve.report_us_p50", p50("serve.report")?);
        layers.set("serve.publish_us_p50", p50("serve.publish")?);
        layers.set("learner.drain_us_p50", p50("learner.drain")?);
        layers.set(
            "learner.collapse_us_p50",
            common::pct(
                params,
                &tracer.self_times_us("learner.collapse"),
                50.0,
                "collapse",
            )?,
        );
        let absorb_us: f64 = tracer.self_times_us("learner.absorb").iter().sum();
        layers.set(
            "learner.absorb_us_per_report",
            absorb_us / traced.drained.max(1) as f64,
        );
        layers.set("serve.inbox_backlog_max", traced.backlog_max as f64);
        layers.set(
            "serve.bytes_out_per_fetch",
            epoch.fetched_bytes as f64 / epoch.fetches.max(1) as f64,
        );
        epoch.learner.record(&mut layers);
        layers.set(
            "trace.coverage",
            tracer.coverage("round", common::is_layer_span),
        );
        let overhead = stats::median(&traced.lag_ms).unwrap_or(0.0)
            / stats::median(&untraced.lag_ms).unwrap_or(f64::NAN)
            - 1.0;
        layers.set("trace.overhead_frac", overhead);
        common::write_trace(&tracer, "report_storm", params);
    }
    layers.set("parallel.threads", dre_parallel::max_threads() as f64);

    let churn = storm.server.metrics().connections - connections_before;
    common::check_churn(churn, common::churn_budget())?;

    let e2e = common::e2e_metrics(
        params,
        &setup,
        &untraced.lag_ms,
        &untraced.epoch_rates,
        "publish lag",
    )?;
    let fetch_p50 = common::pct(params, &untraced.fetch_us, 50.0, "reader fetch")?;
    let fetch_p90 = common::pct(params, &untraced.fetch_us, 90.0, "reader fetch")?;
    let named = vec![
        ("setup_s", setup.setup_s(), "s"),
        ("reports_per_s", e2e.get("work_per_s").unwrap_or(0.0), "1/s"),
        (
            "publish_lag_p50_ms",
            e2e.get("op_p50_ms").unwrap_or(0.0),
            "ms",
        ),
        (
            "publish_lag_p90_ms",
            common::pct(params, &untraced.lag_ms, 90.0, "publish lag")?,
            "ms",
        ),
        ("fetch_p50_us", fetch_p50, "us"),
        ("fetch_p90_us", fetch_p90, "us"),
        ("peak_rss_mb", e2e.get("peak_rss_mb").unwrap_or(0.0), "MB"),
        ("failed_frac", storm.tally.failed_frac(), "fraction"),
        ("connections_opened", churn as f64, "count"),
    ];
    Ok(RunOutput {
        tally: storm.tally,
        e2e,
        layers,
        named,
    })
}

impl Storm<'_> {
    /// Epochs until the pass's time is spent, cycling through the
    /// variants.
    fn pass(&mut self, params: &Params, tr: &mut Tracer) -> Check<(Pass, Variants<Epoch>)> {
        let mut pass = Pass::default();
        let clock = PassClock::start(params);
        let epochs = common::cycle_variants(self.inputs.streams.len(), |variant| {
            if !clock.more(pass.lag_ms.len()) {
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
        let addr = self.server.addr();
        let mut writer =
            PriorClient::new(TcpConnector::new(addr), common::client_policy()).keep_alive(true);
        let mut reader =
            PriorClient::new(TcpConnector::new(addr), common::client_policy()).keep_alive(true);
        let state = Arc::clone(self.server.state());
        let metrics_before = self.server.metrics();
        let mut epoch = Epoch::default();
        let fetched_before = (pass.fetches, pass.fetched_bytes);
        let mut published: Vec<(MixturePrior, Arc<Vec<u8>>)> = Vec::new();
        let (mut accepted, mut rejected) = (0u64, 0u64);
        let mut buf = Vec::new();
        let start = Instant::now();
        let mut root = None;

        for (k, (device, params)) in self.inputs.streams[variant].iter().enumerate() {
            if k % self.scale.batch == 0 {
                tr.set_round(pass.batches);
                root = Some(tr.open("round"));
            }
            let open =
                usize::from(writer.has_live_stream()) + usize::from(reader.has_live_stream());
            ensure(open <= common::MAX_OPEN_CONNECTIONS, || {
                format!("{open} connections open at once")
            })?;
            self.seq[*device] += 1;
            let id = FIRST_DEVICE_ID + *device as u64;
            let seq = self.seq[*device];
            let ok = tr
                .span("serve.report", |_| {
                    writer.report_model(TASK_ID, id, seq, params.clone())
                })
                .map_err(|e| format!("report failed: {e}"))?;
            let acked = Instant::now();
            if ok {
                accepted += 1;
            } else {
                rejected += 1;
            }

            let t = Instant::now();
            self.fetch(&mut reader, &mut buf, tr, pass)?;
            pass.fetch_us.push(us(t.elapsed()));

            if (k + 1) % self.scale.batch != 0 {
                continue;
            }
            // The tick: drain, absorb, note the admission outcomes, then
            // collapse and publish.
            let tick_span = tr.open("tick");
            pass.backlog_max = pass.backlog_max.max(state.report_backlog() as u64);
            let reports = tr.span("learner.drain", |_| state.take_reports());
            pass.drained += reports.len() as u64;
            let absorb = tr.open("learner.absorb");
            let tick = learner
                .absorb(reports, &mut TimingSink::new(&state, tr))
                .map_err(|e| format!("learner absorb failed: {e}"))?;
            tr.close(absorb);
            tr.span("serve.note_admission", |_| {
                state.note_admission_outcomes(tick.gated as u64, tick.quarantined as u64)
            });
            epoch.learner.tick(&tick);
            let collapse = tr.open("learner.collapse");
            let refreshed = learner
                .force_refresh(&mut TimingSink::new(&state, tr))
                .map_err(|e| format!("refresh failed: {e}"))?;
            tr.close(collapse);
            tr.close(tick_span);
            ensure(refreshed == [TASK_ID], || {
                format!("tick refreshed {refreshed:?}, not the one task")
            })?;
            let prior = self.fetch(&mut reader, &mut buf, tr, pass)?;
            pass.lag_ms.push(ms(acked.elapsed()));
            pass.batches += 1;
            if let Some(id) = root.take() {
                tr.close(id);
            }
            let entry = state
                .prior_entry(TASK_ID)
                .ok_or_else(|| "the task's prior vanished".to_string())?;
            published.push((prior, entry.payload));
        }
        let sent = self.inputs.streams[variant].len() as u64;
        pass.epoch_rates
            .push(sent as f64 / start.elapsed().as_secs_f64());
        pass.reports += sent;
        epoch.fetches = pass.fetches - fetched_before.0;
        epoch.fetched_bytes = pass.fetched_bytes - fetched_before.1;

        // Output checks, outside the timed stream.
        for (i, (prior, payload)) in published.iter().enumerate() {
            ensure(common::decodes_to(prior, payload)?, || {
                format!("tick {i}: the reader decoded a prior other than the published one")
            })?;
            epoch.digest.bytes(payload);
        }
        let m = self.server.metrics();
        let shed = m.reports_shed - metrics_before.reports_shed;
        let replayed = m.reports_replayed - metrics_before.reports_replayed;
        let sent = self.inputs.streams[variant].len() as u64;
        ensure(
            epoch.learner.admitted + epoch.learner.gated + shed + replayed == sent
                && rejected == shed + replayed,
            || {
                format!(
                    "{sent} reports sent, but {} admitted, {} gated, {shed} shed, \
                     {replayed} replayed and {rejected} rejected",
                    epoch.learner.admitted, epoch.learner.gated
                )
            },
        )?;
        ensure(accepted + rejected == sent, || {
            "a report went unacknowledged".to_string()
        })?;
        self.tally.attempt(sent);
        self.tally.fail("report_shed", shed);
        self.tally.fail("report_replayed", replayed);
        self.tally
            .fail("report_rejected", rejected - shed - replayed);

        let admission = learner
            .admission()
            .ok_or_else(|| "admission is off".to_string())?;
        epoch.learner.gated_honest = self
            .inputs
            .colluder
            .iter()
            .enumerate()
            .filter(|(_, &c)| !c)
            .filter_map(|(d, _)| admission.reputation(FIRST_DEVICE_ID + d as u64))
            .map(|r| r.gated)
            .sum();
        epoch.learner.finish(&learner, TASK_ID, &mut epoch.digest);
        Ok(epoch)
    }

    /// One reader fetch: `fetch_prior` untraced, its two calls traced.
    fn fetch(
        &self,
        reader: &mut PriorClient<TcpConnector>,
        buf: &mut Vec<u8>,
        tr: &mut Tracer,
        pass: &mut Pass,
    ) -> Check<MixturePrior> {
        if !tr.is_on() {
            return reader
                .fetch_prior(TASK_ID)
                .map_err(|e| format!("reader fetch failed: {e}"));
        }
        tr.span("serve.fetch_payload", |_| {
            reader.fetch_prior_payload_into(TASK_ID, buf)
        })
        .map_err(|e| format!("reader fetch failed: {e}"))?;
        pass.fetches += 1;
        pass.fetched_bytes += (FRAME_OVERHEAD + buf.len()) as u64;
        tr.span("core.decode", |_| transfer::deserialize_prior(buf))
            .map_err(|e| format!("reader decode failed: {e}"))
    }
}
