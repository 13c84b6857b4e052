//! One round of the pipeline: ingest → publish (with serving bursts) →
//! pool → manager → replay, driven through the crates' public API.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use chs_manager::{replay_dead_letters, run_manager, ManagerOutcome, ReplayReport};
use chs_markov::PolicyStore;
use chs_pool::{PoolResult, PoolSim, StorePolicy};
use chs_sched::{Scheduler, SchedulerConfig};

use crate::trace::{TimedPolicy, TimedTimeline};
use crate::workload::{query, Inputs};

/// Queries per timed batch in the traced serving stage.
const SERVE_BATCH: usize = 1_024;

/// Host seconds per stage of one round. The stages partition the
/// pipeline: `pipeline_s` minus their sum is loop glue only.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimes {
    /// `Scheduler::observe` calls.
    pub observe_s: f64,
    /// `Scheduler::publish` calls.
    pub publish_s: f64,
    /// `PolicyStore::next_interval` query bursts.
    pub serve_s: f64,
    /// `PoolSim::run`.
    pub pool_s: f64,
    /// `run_manager`.
    pub manager_s: f64,
    /// `replay_dead_letters`.
    pub replay_s: f64,
    /// From the first `observe` to the end of replay.
    pub pipeline_s: f64,
    /// From the first `observe` until the last `publish` returns, less
    /// the query bursts served in between.
    pub time_to_policy_s: f64,
}

impl StageTimes {
    /// Sum of the per-stage times.
    pub fn stage_sum(&self) -> f64 {
        self.observe_s
            + self.publish_s
            + self.serve_s
            + self.pool_s
            + self.manager_s
            + self.replay_s
    }
}

/// What the traced round measured inside stages.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTrace {
    /// Time in `observe` calls that returned a refit trigger.
    pub refit_observe_s: f64,
    /// `PoolPolicy::next_interval` calls made by the pool.
    pub policy_calls: u64,
    /// Time inside those calls.
    pub policy_s: f64,
    /// `Timeline::segment` draws made by the pool.
    pub workload_segments: u64,
    /// Time inside those draws.
    pub workload_s: f64,
}

/// What the serving stage's caller saw.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeTally {
    /// Queries sent.
    pub queries: u64,
    /// Queries answered with a finite positive interval.
    pub answered: u64,
    /// Order-sensitive fold over every answer.
    pub digest: u64,
}

/// Everything one round produced.
pub struct RoundOutput {
    /// Per-stage host times.
    pub times: StageTimes,
    /// In-stage measurements (traced rounds only).
    pub trace: Option<LayerTrace>,
    /// Observations ingested.
    pub observations: u64,
    /// `observe` calls that returned an error.
    pub observe_errors: u64,
    /// Operations of the extra policy passes.
    pub passes: PassOps,
    /// Digest of every published epoch, in publish order.
    pub store_digests: Vec<u64>,
    /// Serving-stage tally across all bursts.
    pub serve: ServeTally,
    /// The scheduler after the last publish.
    pub sched: Scheduler,
    /// The pool run.
    pub pool: PoolResult,
    /// The manager run; its dead-letter queue is the one replay drained.
    pub manager: ManagerOutcome,
    /// Letters the manager run enqueued.
    pub enqueued: u64,
    /// The replay pass.
    pub replay: ReplayReport,
}

impl RoundOutput {
    /// Operations attempted: observe and publish calls (the extra
    /// policy passes' too), queries, the pool and manager runs, and
    /// replayed letters.
    pub fn attempted(&self) -> u64 {
        self.observations
            + self.passes.observations
            + self.passes.publishes
            + self.store_digests.len() as u64
            + self.serve.queries
            + 2
            + self.replay.popped
    }

    /// Operations that failed: errored observations and unanswered or
    /// non-finite queries. (Errors of the other stages end the round.)
    pub fn failed(&self) -> u64 {
        self.observe_errors
            + self.passes.observe_errors
            + (self.serve.queries - self.serve.answered)
    }

    /// A fingerprint of every simulated output, equal across rounds of
    /// one run when the program is deterministic.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut f = self.store_digests.clone();
        f.extend([
            self.serve.digest,
            self.serve.answered,
            self.pool.digest,
            self.pool.events,
            self.manager.result.digest,
            self.enqueued,
            self.replay.popped,
            self.replay.replayed,
            self.replay.abandoned,
            self.replay.wire_mb.to_bits(),
        ]);
        f
    }
}

fn serve_range(
    store: &PolicyStore,
    inputs: &Inputs,
    burst: usize,
    range: std::ops::Range<usize>,
    tally: &mut ServeTally,
) {
    let mut digest = tally.digest;
    let mut answered = 0u64;
    let queries = range.len() as u64;
    for i in range {
        let (machine, age) = query(inputs, burst, i);
        if let Some(t) = store.next_interval(machine, age) {
            if t.is_finite() && t > 0.0 {
                answered += 1;
                digest = digest.rotate_left(5) ^ t.to_bits();
            }
        }
    }
    tally.queries += queries;
    tally.answered += answered;
    tally.digest = black_box(digest);
}

fn new_scheduler(inputs: &Inputs) -> Result<Scheduler, String> {
    let spec = &inputs.spec;
    let mut config = SchedulerConfig::new(
        spec.streaming.clone(),
        chs_markov::CompressionConfig::new(spec.costs),
    );
    config.publish_every = 0; // publishes follow the spec's cadence
    Scheduler::new(config).map_err(|e| format!("scheduler config: {e}"))
}

/// One extra ingest → publish pass on a fresh scheduler, without the
/// serving bursts: its time to policy, and the digest of its last epoch.
fn policy_pass(inputs: &Inputs, ops: &mut PassOps) -> Result<(f64, u64), String> {
    let spec = &inputs.spec;
    let mut sched = new_scheduler(inputs)?;
    let start = Instant::now();
    let mut next_round = 0;
    let mut digest = 0;
    for &upto in &spec.publish_after {
        for round in &inputs.rounds[next_round..upto] {
            for (m, &x) in round.iter().enumerate() {
                if sched.observe(m as u64, x).is_err() {
                    ops.observe_errors += 1;
                }
            }
        }
        ops.observations += ((upto - next_round) * spec.machines) as u64;
        next_round = upto;
        digest = sched
            .publish()
            .map_err(|e| format!("publish: {e}"))?
            .digest();
        ops.publishes += 1;
    }
    Ok((start.elapsed().as_secs_f64(), digest))
}

/// Operations of the extra policy passes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PassOps {
    /// Observations ingested.
    pub observations: u64,
    /// `observe` calls that returned an error.
    pub observe_errors: u64,
    /// Epochs published.
    pub publishes: u64,
}

/// Run one round. `traced` swaps in the per-call timers and the timing
/// pool wrappers; the untraced round times stage boundaries only.
///
/// Before the timed pipeline, `spec.policy_passes - 1` extra ingest →
/// publish passes run on fresh schedulers; `time_to_policy_s` is the
/// median over them and the pipeline's own pass.
pub fn run_round(inputs: &Inputs, traced: bool) -> Result<RoundOutput, String> {
    let spec = &inputs.spec;
    let mut passes = PassOps::default();
    let mut pass_times = Vec::with_capacity(spec.policy_passes);
    let mut pass_digests = Vec::with_capacity(spec.policy_passes);
    for _ in 1..spec.policy_passes {
        let (t, digest) = policy_pass(inputs, &mut passes)?;
        pass_times.push(t);
        pass_digests.push(digest);
    }
    let mut sched = new_scheduler(inputs)?;
    let mut times = StageTimes::default();
    let mut trace = LayerTrace::default();
    let mut serve = ServeTally::default();
    let mut stores = Vec::with_capacity(spec.publish_after.len());
    let mut observations = 0u64;
    let mut observe_errors = 0u64;

    let start = Instant::now();
    let mut next_round = 0;
    for (burst, &upto) in spec.publish_after.iter().enumerate() {
        let t0 = Instant::now();
        if traced {
            let mut prev = t0;
            for round in &inputs.rounds[next_round..upto] {
                for (m, &x) in round.iter().enumerate() {
                    let r = sched.observe(m as u64, x);
                    let now = Instant::now();
                    match r {
                        Ok(Some(_)) => trace.refit_observe_s += (now - prev).as_secs_f64(),
                        Ok(None) => {}
                        Err(_) => observe_errors += 1,
                    }
                    prev = now;
                }
            }
        } else {
            for round in &inputs.rounds[next_round..upto] {
                for (m, &x) in round.iter().enumerate() {
                    if sched.observe(m as u64, x).is_err() {
                        observe_errors += 1;
                    }
                }
            }
        }
        observations += ((upto - next_round) * spec.machines) as u64;
        next_round = upto;
        let t1 = Instant::now();
        let store: Arc<PolicyStore> = sched.publish().map_err(|e| format!("publish: {e}"))?;
        let t2 = Instant::now();
        let per = spec.queries_per_burst;
        let serve_s = if traced {
            let mut busy = 0.0;
            for lo in (0..per).step_by(SERVE_BATCH) {
                let tb = Instant::now();
                serve_range(
                    &store,
                    inputs,
                    burst,
                    lo..(lo + SERVE_BATCH).min(per),
                    &mut serve,
                );
                busy += tb.elapsed().as_secs_f64();
            }
            busy
        } else {
            serve_range(&store, inputs, burst, 0..per, &mut serve);
            t2.elapsed().as_secs_f64()
        };
        stores.push(store);
        times.observe_s += (t1 - t0).as_secs_f64();
        times.publish_s += (t2 - t1).as_secs_f64();
        if burst + 1 == spec.publish_after.len() {
            times.time_to_policy_s = (t2 - start).as_secs_f64() - times.serve_s;
        }
        times.serve_s += serve_s;
    }

    let t0 = Instant::now();
    let policy = StorePolicy::new(Arc::clone(sched.store()));
    let pool = if traced {
        let timeline = TimedTimeline::new(&inputs.workload);
        let mut policy = TimedPolicy::new(policy);
        let result = PoolSim::run(&spec.pool, &timeline, &mut policy);
        trace.policy_calls = policy.calls;
        trace.policy_s = policy.busy.as_secs_f64();
        trace.workload_segments = timeline.calls.get();
        trace.workload_s = timeline.busy.get().as_secs_f64();
        result
    } else {
        let mut policy = policy;
        PoolSim::run(&spec.pool, &inputs.workload, &mut policy)
    }
    .map_err(|e| format!("pool run: {e}"))?;
    let t1 = Instant::now();
    let mut manager =
        run_manager(&spec.manager, &inputs.fault_plan).map_err(|e| format!("manager run: {e}"))?;
    let t2 = Instant::now();
    let enqueued = manager.dlq.enqueued;
    let replay = replay_dead_letters(&mut manager.dlq, &spec.replay, &inputs.replay_plan)
        .map_err(|e| format!("replay: {e}"))?;
    let t3 = Instant::now();
    times.pool_s = (t1 - t0).as_secs_f64();
    times.manager_s = (t2 - t1).as_secs_f64();
    times.replay_s = (t3 - t2).as_secs_f64();
    times.pipeline_s = (t3 - start).as_secs_f64();
    let store_digests: Vec<u64> = stores.iter().map(|s| s.digest()).collect();
    let last = store_digests.last().copied();
    if pass_digests.iter().any(|&d| Some(d) != last) {
        return Err("an extra policy pass published a different last epoch".into());
    }
    pass_times.push(times.time_to_policy_s);
    times.time_to_policy_s = crate::median(&pass_times);

    Ok(RoundOutput {
        times,
        trace: traced.then_some(trace),
        observations,
        observe_errors,
        passes,
        store_digests,
        serve,
        sched,
        pool,
        manager,
        enqueued,
        replay,
    })
}
