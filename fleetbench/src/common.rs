//! What every workload shares: the task family, the cloud set-up, seeded
//! input streams, the run clock and the determinism digest.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dre_bayes::MixturePrior;
use dre_data::{Dataset, TaskFamily, TaskFamilyConfig};
use dre_learner::{CloudLearner, LearnerTick, PriorSink};
use dre_serve::{
    MetricsSnapshot, PriorServer, RetryPolicy, ServeConfig, ServerHandle, ServerState,
};
use dro_edge::{train_source_model, CloudKnowledge, PriorFitMethod};
use rand::rngs::StdRng;
use rand::Rng;

use crate::report::{Metrics, Tally};
use crate::stats;
use crate::trace::Tracer;

/// The task id every single-task workload serves.
pub const TASK_ID: u64 = 7;

/// The family's cluster layout is fixed; `--seed` draws the history,
/// devices and data from it. Letting the seed move the clusters would move
/// the prior's component count, and with it every fit's cost, so seeds
/// would no longer measure the same work.
const FAMILY_SEED: u64 = 0x00F1_EE70;

/// Source tasks in the cloud's history and samples per task. At this size
/// the source fits and the collapsed Gibbs fit dominate set-up.
pub const HISTORY_TASKS: usize = 192;
pub const HISTORY_SAMPLES: usize = 200;

/// Set-ups per run; `setup_s` is their median. One set-up takes about
/// 0.1 s, so fifteen cost little next to the measured passes and hold the
/// median steady against a burst on the host.
pub const SETUP_REPS: usize = 15;

/// Epoch variants per run (see [`Params::variants`]).
pub const VARIANTS: usize = 4;

/// Connections the benchmark may hold open at once: the hardware thread
/// count of the two-core reference host.
pub const MAX_OPEN_CONNECTIONS: usize = 2;

/// A check that failed: the run's output is wrong.
pub type Check<T> = Result<T, String>;

/// Fails with `msg` unless `cond` holds.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Check<()> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// How a run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Measured seconds of the untraced pass (split between the untraced
    /// and traced passes of a traced run).
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes and no minimum sample count: checks only.
    pub smoke: bool,
}

impl Params {
    /// Measured passes per run: an untraced one, and a traced one after
    /// it when tracing.
    pub fn passes(&self) -> u64 {
        if self.trace {
            2
        } else {
            1
        }
    }

    /// Seconds each measured pass runs.
    pub fn pass_seconds(&self) -> f64 {
        self.seconds / self.passes() as f64
    }

    /// Samples a pass must collect before it may stop: enough for a p90
    /// with ten samples beyond it, or a token few in smoke mode.
    pub fn min_samples(&self) -> usize {
        if self.smoke {
            1
        } else {
            stats::samples_needed(90.0)
        }
    }

    /// Seeded variants of an epoch a run cycles through (the learner's
    /// seed and the order of work), so one run averages over several
    /// learner trajectories instead of measuring one.
    pub fn variants(&self) -> usize {
        if self.smoke {
            1
        } else {
            VARIANTS
        }
    }

    /// Set-ups per run.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }
}

/// Everything one workload run yields.
#[derive(Debug)]
pub struct RunOutput {
    pub tally: Tally,
    /// Untraced end-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// The workload's metrics in its own terms, for the human-readable
    /// lines: name, value, unit.
    pub named: Vec<(&'static str, f64, &'static str)>,
}

/// A `StdRng` for input stream `stream` of run seed `seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    dre_prob::seeded_rng(splitmix64(seed ^ splitmix64(stream)))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A standard normal draw (Box–Muller).
pub fn gauss(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let v: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
}

/// The fixed task family: dimension 8, three clusters.
pub fn family() -> TaskFamily {
    let config = TaskFamilyConfig {
        dim: 8,
        num_clusters: 3,
        ..TaskFamilyConfig::default()
    };
    TaskFamily::generate(&config, &mut dre_prob::seeded_rng(FAMILY_SEED))
        .expect("the fixed family config is valid")
}

/// The cloud's source-task history: input generation, not set-up.
pub fn history(family: &TaskFamily, seed: u64, tasks: usize, samples: usize) -> Vec<Dataset> {
    let mut r = rng(seed, 1);
    (0..tasks)
        .map(|_| family.sample_task(&mut r).generate(samples, &mut r))
        .collect()
}

/// The cloud's fitted prior and what fitting it took.
#[derive(Debug, Clone)]
pub struct CloudFit {
    pub prior: MixturePrior,
    pub payload: Vec<u8>,
    pub source_ms: f64,
    pub prior_ms: f64,
}

/// The program's cloud set-up: one source model per history task, then
/// the DP prior over them by collapsed Gibbs.
pub fn fit_cloud(history: &[Dataset], seed: u64) -> Check<CloudFit> {
    let t = Instant::now();
    let models = history
        .iter()
        .map(train_source_model)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("source fit failed: {e}"))?;
    let source = t.elapsed();
    let cloud = CloudKnowledge::from_source_models(
        models,
        1.0,
        PriorFitMethod::CollapsedGibbs,
        &mut rng(seed, 2),
    )
    .map_err(|e| format!("cloud prior fit failed: {e}"))?;
    let prior_time = t.elapsed() - source;
    let prior = cloud.prior().clone();
    Ok(CloudFit {
        payload: dro_edge::transfer::serialize_prior(&prior),
        prior,
        source_ms: ms(source),
        prior_ms: ms(prior_time),
    })
}

/// Runs `build` `reps` times and keeps the last result. Every repetition
/// must produce the same cloud prior bytes.
pub fn repeat_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Check<(T, CloudFit)>,
) -> Check<(T, CloudFit, SetupLog)> {
    let mut log = SetupLog::default();
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous set-up first, so its server is gone before
        // the next one binds.
        drop(last.take());
        let t = Instant::now();
        let (built, fit) = build()?;
        log.total_s.push(t.elapsed().as_secs_f64());
        log.source_ms.push(fit.source_ms);
        log.prior_ms.push(fit.prior_ms);
        if let Some(first) = &log.payload {
            ensure(first == &fit.payload, || {
                "set-up is not deterministic: the cloud prior changed between set-ups".to_string()
            })?;
        } else {
            log.payload = Some(fit.payload.clone());
        }
        last = Some((built, fit));
    }
    let (built, fit) = last.expect("at least one set-up ran");
    Ok((built, fit, log))
}

/// Timings of a run's repeated set-ups.
#[derive(Debug, Default)]
pub struct SetupLog {
    pub total_s: Vec<f64>,
    pub source_ms: Vec<f64>,
    pub prior_ms: Vec<f64>,
    payload: Option<Vec<u8>>,
}

impl SetupLog {
    /// Median set-up seconds.
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.total_s).expect("at least one set-up ran")
    }

    /// Records the shared set-up layers into `layers`.
    pub fn record_layers(&self, layers: &mut Metrics) {
        layers.set(
            "core.source_fit_ms",
            stats::median(&self.source_ms).unwrap_or(0.0),
        );
        layers.set(
            "bayes.prior_fit_ms",
            stats::median(&self.prior_ms).unwrap_or(0.0),
        );
    }
}

/// A one-worker prior server on an OS-assigned loopback port.
pub fn bind_server() -> Check<ServerHandle> {
    PriorServer::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("bind failed: {e}"))
}

/// Client retries: a keep-alive stream the server retires after its
/// request cap is replaced at once, not after the default 10 ms backoff.
pub fn client_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_micros(20),
        max_backoff: Duration::from_millis(2),
        jitter_seed: 0,
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Decides when a measured pass may stop: once its time is spent and it
/// holds enough samples, or at a hard cap so a run always ends.
#[derive(Debug)]
pub struct PassClock {
    start: Instant,
    seconds: f64,
    min_samples: usize,
}

impl PassClock {
    pub fn start(params: &Params) -> PassClock {
        PassClock {
            start: Instant::now(),
            seconds: params.pass_seconds(),
            min_samples: params.min_samples(),
        }
    }

    /// Whether to run another epoch given `samples` collected so far.
    pub fn more(&self, samples: usize) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        let hard_cap = (4.0 * self.seconds).max(60.0);
        (elapsed < self.seconds || samples < self.min_samples) && elapsed < hard_cap
    }
}

/// An epoch's outputs, reduced to what must repeat bit for bit.
pub trait Digested {
    fn digest(&self) -> Digest;
}

impl Digested for Digest {
    fn digest(&self) -> Digest {
        *self
    }
}

/// The first epoch of each variant a pass ran; variant 0 always ran.
#[derive(Debug)]
pub struct Variants<E>(Vec<Option<E>>);

impl<E: Digested> Variants<E> {
    /// The first epoch of variant 0.
    pub fn first(&self) -> &E {
        self.0[0]
            .as_ref()
            .expect("cycle_variants returns only after variant 0 ran")
    }

    /// Fails unless every variant both passes ran has the same digest in
    /// each.
    pub fn check_same(&self, other: &Variants<E>, what: &str) -> Check<()> {
        for (a, b) in self.0.iter().zip(&other.0) {
            if let (Some(a), Some(b)) = (a, b) {
                ensure(a.digest() == b.digest(), || {
                    format!("the traced pass {what} than the untraced pass")
                })?;
            }
        }
        Ok(())
    }
}

/// Runs epochs through `variants` in turn until `next` returns `None`.
/// Every repeat of a variant must reproduce the digest of its first epoch,
/// and at least one epoch must run.
pub fn cycle_variants<E: Digested>(
    variants: usize,
    mut next: impl FnMut(usize) -> Check<Option<E>>,
) -> Check<Variants<E>> {
    let mut first: Vec<Option<E>> = (0..variants).map(|_| None).collect();
    let mut k = 0;
    while let Some(epoch) = next(k % variants)? {
        let v = k % variants;
        match &first[v] {
            Some(f) => ensure(f.digest() == epoch.digest(), || {
                format!("an epoch of variant {v} did not reproduce its outputs")
            })?,
            None => first[v] = Some(epoch),
        }
        k += 1;
    }
    ensure(first[0].is_some(), || {
        "a pass ran no epoch: its time or connection budget ran out first".to_string()
    })?;
    Ok(Variants(first))
}

/// FNV-1a over everything an epoch must reproduce bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64s(&mut self, vs: &[f64]) {
        for v in vs {
            self.u64(v.to_bits());
        }
    }
}

/// The `q`-th percentile of `samples`, failing the run when fewer than
/// ten samples lie beyond it; 0 in smoke mode, whose passes are too short
/// to support one.
pub fn pct(params: &Params, samples: &[f64], q: f64, what: &str) -> Check<f64> {
    match stats::percentile(samples, q) {
        Some(v) => Ok(v),
        None if params.smoke => Ok(0.0),
        None => Err(format!(
            "{what}: {} samples cannot support p{q} with {} beyond it",
            samples.len(),
            stats::MIN_TAIL
        )),
    }
}

/// The p50 in microseconds of the spans named `name` (see [`pct`]).
pub fn span_p50_us(params: &Params, tracer: &Tracer, name: &str) -> Check<f64> {
    pct(params, &tracer.durations_us(name), 50.0, name)
}

/// The learner's counts over one epoch; they must repeat exactly at a
/// seed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LearnerCounts {
    pub admitted: u64,
    pub gated: u64,
    pub quarantined: u64,
    /// Gated reports that honest devices sent.
    pub gated_honest: u64,
    pub resamples: u64,
    pub map_clusters: u64,
    pub observations: u64,
}

impl LearnerCounts {
    /// Adds one tick's decisions.
    pub fn tick(&mut self, tick: &LearnerTick) {
        self.admitted += tick.absorbed as u64;
        self.gated += tick.gated as u64;
        self.quarantined += tick.quarantined as u64;
    }

    /// Reads the filter state of `task` at the end of an epoch and folds
    /// every count into `digest`.
    pub fn finish(&mut self, learner: &CloudLearner, task: u64, digest: &mut Digest) {
        self.resamples = learner.filter_resamples(task);
        self.map_clusters = learner.filter_map_clusters(task) as u64;
        self.observations = learner.filter_observations(task) as u64;
        for v in [
            self.admitted,
            self.gated,
            self.quarantined,
            self.gated_honest,
            self.resamples,
            self.map_clusters,
            self.observations,
        ] {
            digest.u64(v);
        }
    }

    /// Records every count as a per-layer metric.
    pub fn record(&self, layers: &mut Metrics) {
        layers.set("learner.admitted", self.admitted as f64);
        layers.set("learner.gated", self.gated as f64);
        layers.set("learner.quarantined", self.quarantined as f64);
        layers.set("learner.gated_honest", self.gated_honest as f64);
        layers.set("learner.resamples", self.resamples as f64);
        layers.set("learner.map_clusters", self.map_clusters as f64);
        layers.set("learner.observations", self.observations as f64);
    }
}

/// Fills the end-to-end metrics shared by every workload.
///
/// The tail reported is p75: on a shared two-core host the p90 of a
/// multi-threaded operation tracks the neighbours' bursts more than the
/// program (the workload lines still print p90). `work_per_s` is the
/// median over epochs of each epoch's rate, so a burst that slows a few
/// epochs does not move it.
pub fn e2e_metrics(
    params: &Params,
    setup: &SetupLog,
    op_ms: &[f64],
    epoch_rates: &[f64],
    what: &str,
) -> Check<Metrics> {
    let mut m = Metrics::new(crate::report::END_TO_END);
    m.set("setup_s", setup.setup_s());
    m.set("op_p50_ms", pct(params, op_ms, 50.0, what)?);
    m.set("op_p75_ms", pct(params, op_ms, 75.0, what)?);
    m.set("work_per_s", stats::median(epoch_rates).unwrap_or(0.0));
    m.set("peak_rss_mb", crate::sys::peak_rss_mb().unwrap_or(0.0));
    Ok(m)
}

/// A `PriorSink` that publishes to a server state inside a
/// `serve.publish` span.
pub struct TimingSink<'a> {
    state: &'a Arc<ServerState>,
    tracer: &'a mut Tracer,
}

impl<'a> TimingSink<'a> {
    pub fn new(state: &'a Arc<ServerState>, tracer: &'a mut Tracer) -> TimingSink<'a> {
        TimingSink { state, tracer }
    }
}

impl PriorSink for TimingSink<'_> {
    fn publish(&mut self, task_id: u64, prior: &MixturePrior) {
        let id = self.tracer.open("serve.publish");
        self.state.register_prior(task_id, prior);
        self.tracer.close(id);
    }
}

/// Layer spans carry a crate prefix (`core.fit`); structural ones
/// (`round`, `step`, `tick`, `probe`) do not.
pub fn is_layer_span(name: &str) -> bool {
    name.contains('.')
}

/// Server-side ratios and counts over a traced pass of `ops` operations.
pub fn record_server_layers(
    layers: &mut Metrics,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    ops: u64,
) {
    let d = |f: fn(&MetricsSnapshot) -> u64| (f(after) - f(before)) as f64;
    let requests = d(|m| m.requests).max(1.0);
    let hits = d(|m| m.prior_cache_hits);
    let lookups = (hits + d(|m| m.prior_cache_builds)).max(1.0);
    layers.set("serve.frame_cache_hit_ratio", hits / lookups);
    layers.set(
        "serve.wouldblock_reads_per_req",
        d(|m| m.wouldblock_reads) / requests,
    );
    layers.set(
        "serve.batched_writes_per_req",
        d(|m| m.batched_writes) / requests,
    );
    layers.set(
        "serve.connections_per_op",
        d(|m| m.connections) / ops.max(1) as f64,
    );
    layers.set("serve.busy", d(|m| m.busy));
    layers.set("serve.errors", d(|m| m.errors));
    layers.set("serve.reports_shed", d(|m| m.reports_shed));
    layers.set("serve.reports_replayed", d(|m| m.reports_replayed));
}

/// Connections a run may open: half the ephemeral port range, so that
/// closed ones lingering in TIME_WAIT never crowd it.
pub fn churn_budget() -> u64 {
    crate::sys::ephemeral_ports().unwrap_or(28_232) / 2
}

/// Each measured pass's share of a run's connection budget, as
/// [`Params::pass_seconds`] shares its time.
pub fn pass_budget(params: &Params, run_budget: u64) -> u64 {
    run_budget / params.passes()
}

/// Fails the run when it opened more connections than `budget`.
pub fn check_churn(connections: u64, budget: u64) -> Check<()> {
    ensure(connections <= budget, || {
        format!("{connections} connections opened: over the budget of {budget}")
    })
}

/// Writes the traced pass's spans to `fleetbench/traces/` under the
/// working directory; a failure to write is reported, not fatal. Smoke
/// runs (and the tests that make them) write nothing.
pub fn write_trace(tracer: &Tracer, workload: &str, params: &Params) {
    if params.smoke {
        return;
    }
    let seed = params.seed;
    let dir = std::path::Path::new("fleetbench").join("traces");
    let path = dir.join(format!("{workload}-seed{seed}.tsv"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tracer.write_tsv(&mut w)?;
            std::io::Write::flush(&mut w)
        });
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// Whether `decoded` is the prior `payload` encodes: equal after one
/// decode, since decoding renormalises the weights and rebuilds each
/// covariance from its Cholesky factor.
pub fn decodes_to(decoded: &MixturePrior, payload: &[u8]) -> Check<bool> {
    let expected = dro_edge::transfer::deserialize_prior(payload)
        .map_err(|e| format!("a registered payload does not decode: {e}"))?;
    Ok(dro_edge::transfer::serialize_prior(decoded)
        == dro_edge::transfer::serialize_prior(&expected))
}

/// Whether two priors agree component by component: weights and means to
/// a relative 1e-12, covariances (rebuilt from Cholesky factors on each
/// decode) to a relative 1e-9.
pub fn same_prior(a: &MixturePrior, b: &MixturePrior) -> bool {
    let close = |x: f64, y: f64, tol: f64| (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0);
    a.num_components() == b.num_components()
        && a.dim() == b.dim()
        && a.components().iter().zip(b.components()).all(|(p, q)| {
            let (cp, cq) = (p.cov(), q.cov());
            close(p.weight(), q.weight(), 1e-12)
                && p.mean()
                    .iter()
                    .zip(q.mean())
                    .all(|(&x, &y)| close(x, y, 1e-12))
                && (0..a.dim()).all(|i| (0..a.dim()).all(|j| close(cp[(i, j)], cq[(i, j)], 1e-9)))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Digested for u64 {
        fn digest(&self) -> Digest {
            let mut d = Digest::default();
            d.u64(*self);
            d
        }
    }

    #[test]
    fn cycle_variants_checks_repeats_and_needs_one_epoch() {
        // Two variants, four epochs: 10, 20, 10, 20.
        let mut n = 0;
        let v = cycle_variants(2, |variant| {
            n += 1;
            Ok((n <= 4).then_some(10 * (variant as u64 + 1)))
        })
        .unwrap();
        assert_eq!(*v.first(), 10);
        // A repeat that differs fails the pass.
        let mut n = 0;
        let bad = cycle_variants(2, |_| {
            n += 1;
            Ok((n <= 3).then_some(n))
        });
        assert!(bad.unwrap_err().contains("variant 0"));
        // So does a pass that runs nothing.
        assert!(cycle_variants::<u64>(2, |_| Ok(None)).is_err());
    }

    #[test]
    fn each_pass_gets_its_share_of_the_budget() {
        let mut p = Params {
            seed: 1,
            seconds: 15.0,
            trace: false,
            smoke: false,
        };
        assert_eq!(pass_budget(&p, 14_116), 14_116);
        assert_eq!(p.pass_seconds(), 15.0);
        p.trace = true;
        assert_eq!(pass_budget(&p, 14_116), 7_058);
        assert_eq!(p.pass_seconds(), 7.5);
    }

    #[test]
    fn same_prior_sees_through_the_codec_but_not_a_change() {
        let prior = family_prior();
        let payload = dro_edge::transfer::serialize_prior(&prior);
        let decoded = dro_edge::transfer::deserialize_prior(&payload).unwrap();
        assert!(same_prior(&decoded, &prior));
        assert!(decodes_to(&decoded, &payload).unwrap());
        let mut moved = payload.clone();
        // The first component's weight sits right after the 13-byte header.
        moved[13 + 7] ^= 0x01;
        let other = dro_edge::transfer::deserialize_prior(&moved).unwrap();
        assert!(!same_prior(&other, &prior));
        assert!(!decodes_to(&other, &payload).unwrap());
    }

    fn family_prior() -> MixturePrior {
        let components = family()
            .cluster_centers()
            .iter()
            .map(|c| {
                let diag: Vec<f64> = (0..c.len()).map(|i| 0.5 + i as f64 * 0.1).collect();
                (1.0, c.clone(), dre_linalg::Matrix::from_diag(&diag))
            })
            .collect();
        MixturePrior::new(components).unwrap()
    }
}
