//! Seeded end-to-end pipeline benchmark: a synthetic fleet driven
//! through `chs-sched` ingest → `PolicyStore` publish → serving →
//! `chs-pool` simulation → `chs-manager` run → dead-letter replay.
//!
//! One run is one workload in one process. It sets its inputs up from
//! the seed (several times, reporting the median set-up time), then
//! repeats whole pipeline rounds until the measuring time is spent and
//! reports medians over rounds. The first round's outputs are checked;
//! every later round must reproduce them bitwise. The traced mode
//! alternates untraced and traced rounds, so per-layer times and the
//! tracing overhead come from one run. See README.md.

pub mod checks;
pub mod pipeline;
pub mod trace;
pub mod workload;

use std::time::{Duration, Instant};

use pipeline::{run_round, LayerTrace, RoundOutput, StageTimes};
use workload::{setup, Inputs, Scale, Spec, WorkloadKind};

/// Times the inputs are generated per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Largest share of the traced pipeline time the stage timers may leave
/// unattributed.
pub const CLOSURE_TOLERANCE: f64 = 0.02;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub kind: WorkloadKind,
    /// Input seed.
    pub seed: u64,
    /// Measuring time: rounds repeat until the round boundary nearest
    /// this many seconds.
    pub seconds: f64,
    /// Report per-layer metrics from alternating traced rounds.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Worker threads of the parallel stages.
    pub threads: usize,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Every check violation seen.
    pub violations: Vec<String>,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// Untraced and traced rounds run.
    pub rounds: (usize, usize),
}

impl Report {
    /// No check was violated.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn med(rounds: &[StageTimes], f: impl Fn(&StageTimes) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Per-round values the traced metrics are medians of.
struct TracedRound {
    times: StageTimes,
    layer: LayerTrace,
}

/// Run one workload: set up, repeat rounds, check, and report.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    let spec = Spec::new(opts.kind, opts.scale, opts.threads);

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs: Option<Inputs> = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t = Instant::now();
        match setup(&spec, opts.seed) {
            Ok(i) => inputs = Some(i),
            Err(e) => {
                report.violations.push(format!("setup: {e}"));
                report.attempted = 1;
                report.failed = 1;
                return report;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set up at least once");

    let measure = Duration::from_secs_f64(opts.seconds.max(0.0));
    let start = Instant::now();
    let mut untraced: Vec<StageTimes> = Vec::new();
    let mut traced: Vec<TracedRound> = Vec::new();
    let mut first: Option<RoundOutput> = None;
    for round in 0.. {
        let is_traced = opts.trace && round % 2 == 1;
        let round_start = Instant::now();
        let out = match run_round(&inputs, is_traced) {
            Ok(out) => out,
            Err(e) => {
                report.violations.push(format!("round {round}: {e}"));
                report.failed += 1;
                report.attempted += 1;
                return report;
            }
        };
        let round_time = round_start.elapsed();
        report.attempted += out.attempted();
        report.failed += out.failed();
        if let Some(first) = &first {
            if out.fingerprint() != first.fingerprint() {
                report
                    .violations
                    .push(format!("round {round}: outputs differ from round 0"));
            }
        } else {
            report.violations.extend(checks::check_round(&inputs, &out));
        }
        let t = out.times;
        eprintln!(
            "round {round}{}: pipeline {:.3} s = observe {:.3} + publish {:.3} + serve {:.3} \
             + pool {:.3} + manager {:.3} + replay {:.3}; time to policy {:.3} s (median of {} passes)",
            if is_traced { " (traced)" } else { "" },
            t.pipeline_s,
            t.observe_s,
            t.publish_s,
            t.serve_s,
            t.pool_s,
            t.manager_s,
            t.replay_s,
            t.time_to_policy_s,
            inputs.spec.policy_passes
        );
        if let Some(layer) = out.trace {
            let unattributed = (t.pipeline_s - t.stage_sum()) / t.pipeline_s;
            if !(0.0..=CLOSURE_TOLERANCE).contains(&unattributed) {
                report.violations.push(format!(
                    "round {round}: stage times leave {:.3}% of the pipeline unattributed",
                    100.0 * unattributed
                ));
            }
            traced.push(TracedRound { times: t, layer });
        } else {
            untraced.push(t);
        }
        if first.is_none() {
            first = Some(out);
        }
        // Stop at the round boundary nearest the measuring time, once
        // each kind of round the mode needs has run.
        let enough = !untraced.is_empty() && (!opts.trace || !traced.is_empty());
        if enough && start.elapsed() + round_time.mul_f64(0.5) >= measure {
            break;
        }
    }
    let first = first.expect("ran at least one round");
    report.rounds = (untraced.len(), traced.len());

    // The uncontended side fleet: one more pool run, checked against the
    // ledger walked without the engine.
    report.attempted += 1;
    match checks::run_side_fleet(&inputs) {
        Ok((result, walked)) => report
            .violations
            .extend(checks::check_side_fleet(&result, &walked)),
        Err(e) => {
            report.failed += 1;
            report.violations.push(e);
        }
    }

    report.metrics = if opts.trace {
        layer_metrics(&inputs, &first, &untraced, &traced)
    } else {
        end_to_end_metrics(&inputs, &first, &untraced, median(&setup_s))
    };
    for m in &report.metrics {
        if !m.value.is_finite() {
            report
                .violations
                .push(format!("metric {} is {}", m.name, m.value));
        }
    }
    report
}

fn end_to_end_metrics(
    inputs: &Inputs,
    first: &RoundOutput,
    rounds: &[StageTimes],
    setup_s: f64,
) -> Vec<Metric> {
    let spec = &inputs.spec;
    let machine_hours = spec.pool.machines as f64 * spec.pool.window / 3_600.0;
    let client_hours = spec.manager.clients as f64 * spec.manager.window / 3_600.0;
    let queries = spec.queries() as f64;
    vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "pipeline_s",
            value: med(rounds, |t| t.pipeline_s),
            unit: "s",
        },
        Metric {
            name: "time_to_policy_s",
            value: med(rounds, |t| t.time_to_policy_s),
            unit: "s",
        },
        Metric {
            name: "decisions_per_s",
            value: med(rounds, |t| queries / t.serve_s),
            unit: "1/s",
        },
        Metric {
            name: "pool_machine_hours_per_s",
            value: med(rounds, |t| machine_hours / t.pool_s),
            unit: "h/s",
        },
        Metric {
            name: "manager_client_hours_per_s",
            value: med(rounds, |t| client_hours / (t.manager_s + t.replay_s)),
            unit: "h/s",
        },
        Metric {
            name: "efficiency",
            value: first.pool.efficiency(),
            unit: "fraction",
        },
        Metric {
            name: "pool_mb_per_hour",
            value: first.pool.cycle.megabytes_per_hour(),
            unit: "MB/h",
        },
        Metric {
            name: "manager_goodput_mb",
            value: first.manager.result.goodput_mb(spec.manager.image_mb),
            unit: "MB",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        },
    ]
}

fn layer_metrics(
    inputs: &Inputs,
    first: &RoundOutput,
    untraced: &[StageTimes],
    traced: &[TracedRound],
) -> Vec<Metric> {
    let spec = &inputs.spec;
    let t = |f: &dyn Fn(&TracedRound) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let sched = &first.sched;
    let counters = sched.cache().counters();
    let stats = first.sched.store().stats();
    let pool = &first.pool;
    let manager = &first.manager;
    let layer = traced[0].layer;
    let traced_pipeline = t(&|r| r.times.pipeline_s);
    let untraced_pipeline = med(untraced, |t| t.pipeline_s);
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("sched.observe_s", t(&|r| r.times.observe_s), "s"),
        m(
            "sched.refit_observe_s",
            t(&|r| r.layer.refit_observe_s),
            "s",
        ),
        m("sched.refits", sched.refits() as f64, "count"),
        m("sched.regime_shifts", sched.regime_shifts() as f64, "count"),
        m("sched.publish_s", t(&|r| r.times.publish_s), "s"),
        m(
            "markov.build_us_per_table",
            t(&|r| 1e6 * r.times.publish_s / counters.builds.max(1) as f64),
            "us",
        ),
        m("markov.tables_built", counters.builds as f64, "count"),
        m("markov.cache_hits", counters.hits as f64, "count"),
        m("markov.cluster_shared", counters.shared as f64, "count"),
        m(
            "markov.cluster_rejects",
            sched.cluster_rejects() as f64,
            "count",
        ),
        m(
            "store.query_ns",
            t(&|r| 1e9 * r.times.serve_s / spec.queries() as f64),
            "ns",
        ),
        m("store.tables", stats.tables as f64, "count"),
        m(
            "store.segments_per_table",
            stats.total_segments as f64 / stats.tables.max(1) as f64,
            "count",
        ),
        m("store.dedup_ratio", stats.dedup_ratio, "ratio"),
        m("pool.run_s", t(&|r| r.times.pool_s), "s"),
        m(
            "pool.ns_per_event",
            t(&|r| 1e9 * r.times.pool_s / pool.events.max(1) as f64),
            "ns",
        ),
        m("pool.events", pool.events as f64, "count"),
        m("pool.stale_events", pool.stale_events as f64, "count"),
        m("pool.policy_calls", layer.policy_calls as f64, "count"),
        m("pool.policy_s", t(&|r| r.layer.policy_s), "s"),
        m(
            "pool.workload_segments",
            layer.workload_segments as f64,
            "count",
        ),
        m("pool.workload_s", t(&|r| r.layer.workload_s), "s"),
        m(
            "pool.engine_self_s",
            t(&|r| r.times.pool_s - r.layer.policy_s - r.layer.workload_s),
            "s",
        ),
        m(
            "pool.transfers_completed",
            pool.transfers_completed as f64,
            "count",
        ),
        m("pool.mean_transfer_s", pool.mean_transfer_seconds, "s"),
        m(
            "pool.core_util_mean",
            pool.core_utilization.mean,
            "fraction",
        ),
        m("manager.run_s", t(&|r| r.times.manager_s), "s"),
        m(
            "manager.us_per_transfer",
            t(&|r| 1e6 * r.times.manager_s / manager.result.transfers_started.max(1) as f64),
            "us",
        ),
        m(
            "manager.transfers_started",
            manager.result.transfers_started as f64,
            "count",
        ),
        m(
            "manager.link_utilization",
            manager.result.link_utilization,
            "fraction",
        ),
        m(
            "manager.deferred_checkpoints",
            manager.report.deferred_checkpoints as f64,
            "count",
        ),
        m(
            "manager.retries",
            manager.report.faults.retries as f64,
            "count",
        ),
        m(
            "manager.faults_injected",
            manager.report.faults.total_faults() as f64,
            "count",
        ),
        m("manager.dead_letters", first.enqueued as f64, "count"),
        m("replay.run_s", t(&|r| r.times.replay_s), "s"),
        m("replay.popped", first.replay.popped as f64, "count"),
        m("replay.replayed", first.replay.replayed as f64, "count"),
        m("replay.abandoned", first.replay.abandoned as f64, "count"),
        m("trace.pipeline_s", traced_pipeline, "s"),
        m("trace.stage_sum_s", t(&|r| r.times.stage_sum()), "s"),
        m(
            "trace.overhead_pct",
            100.0 * (traced_pipeline - untraced_pipeline) / untraced_pipeline,
            "%",
        ),
    ]
}

/// Peak resident set of this process in MB (`ru_maxrss`, which Linux
/// fills from the same high-water mark `/proc/self/status` shows as
/// `VmHWM`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mb() -> f64 {
    /// The 64-bit Linux `struct rusage`: two `timeval`s (user and
    /// system time), then fourteen `long`s starting with `ru_maxrss`.
    #[repr(C)]
    struct Rusage {
        _times: [i64; 4],
        maxrss: i64,
        _rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        _times: [0; 4],
        maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `Rusage` has the size and layout of the 64-bit Linux
    // `struct rusage`, and `getrusage` writes only within the struct it
    // is handed.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// Peak resident set is only read on 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_mb() -> f64 {
    f64::NAN
}
