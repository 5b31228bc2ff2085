//! `fleet_sim`: the event simulator only.
//!
//! One prior-transfer fleet, whose devices fetch the prior the cloud
//! fitted at set-up (its component count and dimension set the payload
//! size), runs on both delivery paths: private pipes (the legacy direct
//! delivery) and the one-big-switch fabric with a small deterministic
//! per-frame loss on the device links, so go-back-N retransmits. An epoch
//! is one run on each path; every epoch must reproduce the first one's
//! `SimReport`s bit for bit.

use std::time::Instant;

use dre_edgesim::{
    ComputeModel, DeviceSpec, FitMode, Link, LossModel, Scenario, SimReport, Strategy,
    SwitchConfig, Topology,
};

use crate::common::{self, ensure, ms, Check, Params, PassClock, RunOutput};
use crate::report::{Metrics, Tally, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;

struct Scale {
    devices: usize,
    history_tasks: usize,
    history_samples: usize,
}

/// A fleet whose state stays in the CPU caches: at 8192 devices the
/// simulator's speed followed the neighbours' use of the shared cache.
const FULL: Scale = Scale {
    devices: 1024,
    history_tasks: common::HISTORY_TASKS,
    history_samples: common::HISTORY_SAMPLES,
};

const SMOKE: Scale = Scale {
    devices: 64,
    history_tasks: 24,
    history_samples: 60,
};

/// Per-crossing drop probability on every device link.
const DEVICE_LOSS: f64 = 0.002;

struct Scenarios {
    legacy: Scenario,
    fabric: Scenario,
}

fn build(devices: usize, prior_components: usize, dim: usize, seed: u64) -> Scenarios {
    let spec = DeviceSpec {
        link: Link::new_ms(5.0, 1e6),
        strategy: Strategy::PriorTransfer {
            samples: 64,
            dim,
            iterations: 50,
            em_rounds: 4,
            prior_components,
        },
    };
    let topology = Topology::one_big_switch(Link::new_ms(1.0, 1e12))
        .with_switch(SwitchConfig {
            // Room for the whole fleet's incast: drops come from link loss
            // alone.
            queue_capacity: 2 * devices as u32 + 16,
            ..SwitchConfig::default()
        })
        .with_device_loss(LossModel::Bernoulli {
            loss: DEVICE_LOSS,
            seed,
        });
    let mut legacy = Scenario::new(ComputeModel::default());
    let mut fabric = Scenario::new(ComputeModel::default()).with_topology(topology);
    for _ in 0..devices {
        legacy.add_device(spec);
        fabric.add_device(spec);
    }
    Scenarios { legacy, fabric }
}

#[derive(Debug, Default)]
struct Pass {
    epoch_ms: Vec<f64>,
    /// Simulated events per second, per epoch.
    epoch_rates: Vec<f64>,
    legacy_s: f64,
    fabric_s: f64,
    reports: Option<(SimReport, SimReport)>,
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

    let mut build_ms = Vec::new();
    let (scenarios, _fit, setup) = common::repeat_setup(params.setup_reps(), || {
        let fit = common::fit_cloud(&history, params.seed)?;
        let t = Instant::now();
        let s = build(
            scale.devices,
            fit.prior.num_components(),
            fit.prior.dim() - 1,
            params.seed,
        );
        build_ms.push(ms(t.elapsed()));
        Ok((s, fit))
    })?;

    let mut tally = Tally::default();
    let mut run_pass = |tr: &mut Tracer| -> Check<Pass> {
        let mut pass = Pass::default();
        let clock = PassClock::start(params);
        while clock.more(pass.epoch_ms.len()) {
            let start = Instant::now();
            let root = tr.open("round");
            let legacy = tr.span("edgesim.legacy", |_| scenarios.legacy.run());
            let legacy_s = start.elapsed().as_secs_f64();
            let t = Instant::now();
            let fabric = tr.span("edgesim.fabric", |_| scenarios.fabric.run());
            let fabric_s = t.elapsed().as_secs_f64();
            tr.close(root);
            pass.epoch_ms.push(ms(start.elapsed()));
            pass.epoch_rates.push(
                (legacy.events_executed + fabric.events_executed) as f64 / (legacy_s + fabric_s),
            );
            pass.legacy_s += legacy_s;
            pass.fabric_s += fabric_s;

            // Output checks, outside the timed runs.
            for (path, r) in [("legacy", &legacy), ("fabric", &fabric)] {
                tally.attempt(r.devices.len() as u64);
                let incomplete = r
                    .devices
                    .iter()
                    .filter(|d| d.mode != FitMode::FreshPrior || d.completion.as_micros() == 0)
                    .count();
                tally.fail(
                    if path == "legacy" {
                        "legacy_device_incomplete"
                    } else {
                        "fabric_device_incomplete"
                    },
                    incomplete as u64,
                );
                ensure(r.devices.len() == scale.devices, || {
                    format!(
                        "{path}: {} of {} devices reported",
                        r.devices.len(),
                        scale.devices
                    )
                })?;
            }
            ensure(
                legacy.frames_forwarded == 0 && legacy.messages_dropped == 0,
                || "private pipes carried fabric frames".to_string(),
            )?;
            check_fabric_accounting(&fabric)?;
            match &pass.reports {
                Some((l, f)) => ensure(*l == legacy && *f == fabric, || {
                    "a rerun did not reproduce the SimReport bit for bit".to_string()
                })?,
                None => pass.reports = Some((legacy, fabric)),
            }
        }
        Ok(pass)
    };

    let untraced = run_pass(&mut Tracer::off())?;
    let mut layers = Metrics::new(PER_LAYER);
    if params.trace {
        let mut tracer = Tracer::new();
        let traced = run_pass(&mut tracer)?;
        ensure(traced.reports == untraced.reports, || {
            "the traced pass simulated a different fleet than the untraced pass".to_string()
        })?;
        let (legacy, fabric) = traced
            .reports
            .as_ref()
            .ok_or_else(|| "the traced pass ran no epoch".to_string())?;
        let epochs = traced.epoch_ms.len() as f64;
        setup.record_layers(&mut layers);
        layers.set(
            "edgesim.legacy_events_per_s",
            legacy.events_executed as f64 * epochs / traced.legacy_s,
        );
        layers.set(
            "edgesim.fabric_events_per_s",
            fabric.events_executed as f64 * epochs / traced.fabric_s,
        );
        layers.set("edgesim.build_ms", stats::median(&build_ms).unwrap_or(0.0));
        layers.set("edgesim.events_legacy", legacy.events_executed as f64);
        layers.set("edgesim.events_fabric", fabric.events_executed as f64);
        layers.set("edgesim.frames_forwarded", fabric.frames_forwarded as f64);
        layers.set("edgesim.messages_dropped", fabric.messages_dropped as f64);
        layers.set(
            "edgesim.bytes_retransmitted",
            fabric.bytes_retransmitted as f64,
        );
        layers.set(
            "trace.coverage",
            tracer.coverage("round", common::is_layer_span),
        );
        let overhead = stats::median(&traced.epoch_ms).unwrap_or(0.0)
            / stats::median(&untraced.epoch_ms).unwrap_or(f64::NAN)
            - 1.0;
        layers.set("trace.overhead_frac", overhead);
        common::write_trace(&tracer, "fleet_sim", params);
    }
    layers.set("parallel.threads", dre_parallel::max_threads() as f64);

    let e2e = common::e2e_metrics(
        params,
        &setup,
        &untraced.epoch_ms,
        &untraced.epoch_rates,
        "simulated fleet",
    )?;
    let (legacy, fabric) = untraced
        .reports
        .as_ref()
        .ok_or_else(|| "the untraced pass ran no epoch".to_string())?;
    let named = vec![
        ("setup_s", setup.setup_s(), "s"),
        (
            "sim_events_per_s",
            e2e.get("work_per_s").unwrap_or(0.0),
            "1/s",
        ),
        ("epoch_p50_ms", e2e.get("op_p50_ms").unwrap_or(0.0), "ms"),
        (
            "events_per_epoch",
            (legacy.events_executed + fabric.events_executed) as f64,
            "count",
        ),
        (
            "fabric_messages_dropped",
            fabric.messages_dropped as f64,
            "count",
        ),
        (
            "fabric_bytes_retransmitted",
            fabric.bytes_retransmitted as f64,
            "count",
        ),
        ("peak_rss_mb", e2e.get("peak_rss_mb").unwrap_or(0.0), "MB"),
        ("failed_frac", tally.failed_frac(), "fraction"),
    ];
    Ok(RunOutput {
        tally,
        e2e,
        layers,
        named,
    })
}

/// Every frame offered to a fabric port is forwarded or dropped, and with
/// a roomy queue the drops are the link loss: about `DEVICE_LOSS` of the
/// device-link crossings, which are half of all crossings. Loss forces
/// retransmission.
fn check_fabric_accounting(r: &SimReport) -> Check<()> {
    let offered = r.frames_forwarded + r.messages_dropped;
    ensure(
        offered > 0 && r.messages_dropped > 0 && r.bytes_retransmitted > 0,
        || {
            format!(
            "fabric: {} forwarded, {} dropped, {} bytes retransmitted: loss did not exercise go-back-N",
            r.frames_forwarded, r.messages_dropped, r.bytes_retransmitted
        )
        },
    )?;
    // Device-link crossings are half of all; allow five binomial sigmas.
    let trials = offered as f64 / 2.0;
    let expected = DEVICE_LOSS * trials;
    let sigma = (trials * DEVICE_LOSS * (1.0 - DEVICE_LOSS)).sqrt();
    ensure(
        (r.messages_dropped as f64 - expected).abs() <= 5.0 * sigma + 2.0,
        || {
            format!(
                "fabric: {} of {offered} offered frames dropped, expected about {expected:.0}",
                r.messages_dropped
            )
        },
    )
}
