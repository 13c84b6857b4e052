//! The three workloads and the seeded inputs each run is built from.
//!
//! A [`Spec`] fixes a workload's shape (fleet size, model family,
//! fabric provisioning, publish cadence, fault plan); [`setup`] turns a
//! spec and a seed into [`Inputs`]: the observation tape every machine
//! streams into the scheduler, the pool's lazy availability workload,
//! and the manager's fault plans. The same seed gives bitwise the same
//! inputs.

use chs_dist::fit::{DetectorConfig, StreamingFitConfig};
use chs_dist::ModelKind;
use chs_manager::{ManagerConfig, ReplayConfig};
use chs_markov::{mix64, CheckpointCosts, DEFAULT_MAX_AGE};
use chs_net::FaultPlan;
use chs_pool::{FabricConfig, PoolSimConfig, Timeline, Workload, WorkloadConfig};

/// Per-machine NIC rate, MB/s (the campus scale `pool_bench` uses).
pub const NIC_MB_S: f64 = 4.0;
/// Machines per rack in every fabric.
pub const RACK_SIZE: usize = 32;
/// Checkpoint image, MB: 512 MB at 4 MB/s is a 128 s nominal transfer.
pub const IMAGE_MB: f64 = 512.0;
/// Per-rack uplink, MB/s: 4:1 oversubscribed against the rack's NICs,
/// as in `pool_bench`.
const UPLINK_MB_S: f64 = 8.0 * NIC_MB_S;
/// Work interval of the fixed-interval side fleet, seconds.
pub const SIDE_INTERVAL_S: f64 = 900.0;
/// Machines of the uncontended fixed-interval side fleet.
const SIDE_MACHINES: usize = 64;
/// Window of the side fleet, seconds.
const SIDE_WINDOW_S: f64 = 2.0 * 86_400.0;
/// Total per-attempt fault probability of the manager's plan.
const FAULT_INTENSITY: f64 = 0.5;
/// Total per-attempt fault probability during replay.
const REPLAY_FAULT_INTENSITY: f64 = 0.1;

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// A large rack-homogeneous fleet, one publish, one contended day.
    PoolDay,
    /// Per-machine heavy-tailed histories with a regime shift, fitted
    /// with the 2-phase hyperexponential and republished every few
    /// observation rounds.
    RefitChurn,
    /// Hundreds of manager clients on one saturated, faulty link.
    ManagerStorm,
}

impl WorkloadKind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::PoolDay,
        WorkloadKind::RefitChurn,
        WorkloadKind::ManagerStorm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::PoolDay => "pool-day",
            WorkloadKind::RefitChurn => "refit-churn",
            WorkloadKind::ManagerStorm => "manager-storm",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input size: `Full` is what the benchmark measures, `Small` the
/// seconds-long shape the benchmark's own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// A small shape with the same structure, for tests.
    Small,
}

/// Everything that shapes one workload, independent of the seed.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Machines streamed into the scheduler and simulated by the pool.
    pub machines: usize,
    /// Distinct availability ground truths (dealt over racks).
    pub unique_streams: usize,
    /// Machines sharing one ground truth (1 = every machine its own).
    pub stream_rack: usize,
    /// Observations per machine.
    pub observations: usize,
    /// Observation index at which every machine's regime shifts to the
    /// pool's ground truth (`None`: one stationary regime throughout).
    pub shift_at: Option<usize>,
    /// Pre-shift scale as a multiple of the post-shift scale.
    pub pre_shift_scale: f64,
    /// Per-machine streaming-fit configuration.
    pub streaming: StreamingFitConfig,
    /// Checkpoint costs the policy tables are built for (the pool's
    /// nominal transfer time).
    pub costs: CheckpointCosts,
    /// Publish an epoch after these many observation rounds (ascending;
    /// the last equals `observations`).
    pub publish_after: Vec<usize>,
    /// `next_interval` queries served after each publish.
    pub queries_per_burst: usize,
    /// Ingest → publish passes per round that `time_to_policy_s` is the
    /// median of: the pipeline's own and extra ones before it, so a
    /// sub-second stage is timed over more than a second.
    pub policy_passes: usize,
    /// The contended pool run.
    pub pool: PoolSimConfig,
    /// The manager run.
    pub manager: ManagerConfig,
    /// The dead-letter replay pass.
    pub replay: ReplayConfig,
}

fn fabric(machines: usize, core_mb_s: f64) -> FabricConfig {
    FabricConfig {
        nic_mb_s: NIC_MB_S,
        uplink_mb_s: UPLINK_MB_S,
        core_mb_s: core_mb_s.max(NIC_MB_S),
        rack_size: RACK_SIZE.min(machines),
    }
}

/// A core that never binds: every NIC can run at full rate at once.
fn ample_core(machines: usize) -> f64 {
    machines as f64 * NIC_MB_S
}

/// The knee of `pool_bench`'s congestion sweep: twice the provisioned
/// core (¼ of an uplink per rack), where goodput first falls away from
/// its plateau and max-min sharing at the core is active.
fn knee_core(machines: usize) -> f64 {
    let racks = machines.div_ceil(RACK_SIZE) as f64;
    racks * 2.0 * (UPLINK_MB_S / 8.0)
}

fn pool_config(machines: usize, core_mb_s: f64, window: f64) -> PoolSimConfig {
    PoolSimConfig {
        machines,
        fabric: fabric(machines, core_mb_s),
        image_mb: IMAGE_MB,
        window,
        count_recovery_bytes: true,
        keep_ledgers: false,
        stress_insertion_order: false,
    }
}

/// A manager run of `clients` clients over `days` on a link of three
/// campus links' capacity. Offered checkpoint load runs well past it, so
/// admission defers and the link stays near full, without collapsing
/// goodput to a handful of commits.
fn manager_config(clients: usize, days: f64, threads: usize) -> ManagerConfig {
    let mut m = ManagerConfig::campus(clients, ModelKind::Weibull);
    m.window = days * 86_400.0;
    m.link_mb_per_s *= 3.0;
    // One retry, then the checkpoint dead-letters: at the plans' fault
    // intensities this leaves letters for the replay pass.
    m.retry.max_retries = 1;
    m.threads = threads;
    m
}

fn replay_config(manager: &ManagerConfig) -> ReplayConfig {
    ReplayConfig {
        link_mb_per_s: manager.link_mb_per_s,
        max_in_flight: 4,
        retry: manager.retry,
        image_mb: manager.image_mb,
    }
}

impl Spec {
    /// The spec of `kind` at `scale`, with `threads` bootstrap workers
    /// for the manager.
    pub fn new(kind: WorkloadKind, scale: Scale, threads: usize) -> Spec {
        let small = scale == Scale::Small;
        let costs = CheckpointCosts::symmetric(IMAGE_MB / NIC_MB_S);
        let day = 86_400.0;
        match kind {
            WorkloadKind::PoolDay => {
                let machines = if small { 2_048 } else { 32_768 };
                let manager = manager_config(if small { 24 } else { 192 }, 14.0, threads);
                Spec {
                    machines,
                    // One ground truth per rack: a thousand streams keep the
                    // seed-to-seed spread of the pool's aggregates small.
                    unique_streams: machines / RACK_SIZE,
                    stream_rack: RACK_SIZE,
                    observations: 25,
                    shift_at: None,
                    pre_shift_scale: 1.0,
                    streaming: StreamingFitConfig {
                        kind: ModelKind::Weibull,
                        ..StreamingFitConfig::default()
                    },
                    costs,
                    publish_after: vec![25],
                    queries_per_burst: if small { 100_000 } else { 6_000_000 },
                    policy_passes: 5,
                    pool: pool_config(machines, knee_core(machines), day),
                    replay: replay_config(&manager),
                    manager,
                }
            }
            WorkloadKind::RefitChurn => {
                let machines = if small { 128 } else { 3_000 };
                let observations = if small { 112 } else { 144 };
                let manager = manager_config(if small { 24 } else { 192 }, 14.0, threads);
                let first = 25;
                let every = 20;
                let mut publish_after: Vec<usize> = (first..observations).step_by(every).collect();
                publish_after.push(observations);
                Spec {
                    machines,
                    unique_streams: machines,
                    stream_rack: 1,
                    observations,
                    shift_at: Some(72),
                    pre_shift_scale: 0.2,
                    streaming: StreamingFitConfig {
                        kind: ModelKind::HyperExponential { phases: 2 },
                        window: 64,
                        min_fit_observations: 25,
                        // A short armed detector so a shift is caught
                        // well before the next periodic refresh resets it.
                        detector: DetectorConfig {
                            window: 24,
                            min_observations: 12,
                            threshold: 10.0,
                        },
                        refresh_every: Some(96),
                        warm_iterations: 400,
                    },
                    costs,
                    publish_after,
                    queries_per_burst: if small { 20_000 } else { 1_500_000 },
                    policy_passes: 1,
                    pool: pool_config(machines, ample_core(machines), 4.0 * day),
                    replay: replay_config(&manager),
                    manager,
                }
            }
            WorkloadKind::ManagerStorm => {
                let machines = if small { 256 } else { 32_768 };
                let manager = manager_config(if small { 24 } else { 192 }, 30.0, threads);
                Spec {
                    machines,
                    unique_streams: machines / RACK_SIZE,
                    stream_rack: RACK_SIZE,
                    observations: 25,
                    shift_at: None,
                    pre_shift_scale: 1.0,
                    streaming: StreamingFitConfig {
                        kind: ModelKind::Weibull,
                        ..StreamingFitConfig::default()
                    },
                    costs,
                    publish_after: vec![25],
                    queries_per_burst: if small { 50_000 } else { 10_000_000 },
                    policy_passes: 5,
                    pool: pool_config(machines, ample_core(machines), 0.5 * day),
                    replay: replay_config(&manager),
                    manager,
                }
            }
        }
    }

    /// Queries served per round.
    pub fn queries(&self) -> usize {
        self.queries_per_burst * self.publish_after.len()
    }
}

/// The side fleet's pool configuration: uncontended (every flow runs at
/// its NIC rate), so its ledger has a closed form.
pub fn side_pool() -> PoolSimConfig {
    let mut c = pool_config(SIDE_MACHINES, ample_core(SIDE_MACHINES), SIDE_WINDOW_S);
    c.fabric.uplink_mb_s = c.fabric.rack_size as f64 * NIC_MB_S;
    c
}

/// The seeded inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload's shape.
    pub spec: Spec,
    /// The pool's lazy availability workload (also the ground truth of
    /// the machines' post-shift regime).
    pub workload: Workload,
    /// `rounds[r][m]`: machine `m`'s `r`-th observed availability
    /// duration, seconds.
    pub rounds: Vec<Vec<f64>>,
    /// Offset that places this seed's query scatter.
    pub query_salt: u64,
    /// Fault plan of the manager run.
    pub fault_plan: FaultPlan,
    /// Fault plan of the replay pass.
    pub replay_plan: FaultPlan,
}

/// A uniform in `(0, 1]`, safe to take the log of.
fn unit_open(x: u64) -> f64 {
    1.0 - (mix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// Generate the inputs of `spec` for `seed`.
pub fn setup(spec: &Spec, seed: u64) -> Result<Inputs, String> {
    let post_len = spec.observations - spec.shift_at.unwrap_or(0);
    let workload = Workload::new(WorkloadConfig {
        machines: spec.machines,
        rack_size: spec.stream_rack,
        unique_streams: spec.unique_streams,
        history_len: post_len,
        mean_gap: 1_800.0,
        seed,
    })
    .map_err(|e| format!("workload: {e}"))?;

    // Post-shift durations are the stream's own history: the regime the
    // machine ends in is the one the pool then simulates.
    let histories: Vec<Vec<f64>> = (0..workload.streams())
        .map(|s| workload.history(s))
        .collect();
    let mut rounds = vec![vec![0.0; spec.machines]; spec.observations];
    for m in 0..spec.machines {
        let s = workload.stream_of(m as u32);
        let p = workload.params(s);
        let pre = spec.shift_at.unwrap_or(0);
        let base = mix64(seed ^ mix64(0x5052_4553_4849_4654 ^ m as u64));
        for (r, round) in rounds.iter_mut().enumerate() {
            round[m] = if r < pre {
                let u = unit_open(base ^ mix64(r as u64));
                (p.scale * spec.pre_shift_scale * (-u.ln()).powf(1.0 / p.shape)).max(1.0)
            } else {
                histories[s][r - pre]
            };
        }
    }

    let mut fault_plan = FaultPlan::uniform(FAULT_INTENSITY, seed ^ 0x4641_554c_5453);
    // Injected fit failures would only swap clients onto the exponential
    // fallback; the storm is about the link, so keep every client native.
    fault_plan.p_fit_failure = 0.0;
    let mut replay_plan = FaultPlan::uniform(REPLAY_FAULT_INTENSITY, seed ^ 0x5245_504c_4159);
    replay_plan.p_fit_failure = 0.0;
    let mut spec = spec.clone();
    spec.manager.seed = seed;
    Ok(Inputs {
        spec,
        workload,
        rounds,
        query_salt: mix64(seed ^ 0x0051_5545_5259),
        fault_plan,
        replay_plan,
    })
}

/// The `i`-th query of burst `burst`: a fixed scatter over machines and
/// over ages from 0 to 1.2× the table horizon, so a sixth of the queries
/// exercise the past-horizon clamp.
#[inline]
pub fn query(inputs: &Inputs, burst: usize, i: usize) -> (u64, f64) {
    let k = (burst * inputs.spec.queries_per_burst + i) as u64;
    let machine = mix64(k ^ inputs.query_salt) % inputs.spec.machines as u64;
    let age = (k % 4_096) as f64 * (1.2 * DEFAULT_MAX_AGE / 4_096.0);
    (machine, age)
}

/// The side fleet's ledger computed without the pool engine: walk each
/// machine's `Workload` segments through recovery → work → checkpoint
/// with every transfer at its uncontended duration `cost`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WalkedLedger {
    /// Work seconds whose checkpoint committed.
    pub useful_seconds: f64,
    /// Checkpoints that committed.
    pub checkpoints_committed: u64,
    /// Available machine seconds inside the window.
    pub total_seconds: f64,
}

/// Walk `machines` machines of `timeline` over `[0, window)` at a fixed
/// work interval. A checkpoint commits when it completes by its
/// segment's end (completions win ties), or strictly before the window
/// closes.
pub fn walk_fixed_interval(
    timeline: &impl Timeline,
    machines: usize,
    window: f64,
    cost: f64,
    interval: f64,
) -> WalkedLedger {
    let mut out = WalkedLedger::default();
    for m in 0..machines as u32 {
        let mut prev_end = 0.0;
        let mut index = 0;
        while let Some(seg) = timeline.segment(m, index, prev_end) {
            if seg.start >= window || seg.is_empty() {
                break;
            }
            let cut = seg.end > window;
            let end = seg.end.min(window);
            out.total_seconds += end - seg.start;
            let fits = |t: f64| if cut { t < end } else { t <= end };
            let mut t = seg.start + cost;
            if fits(t) {
                while fits(t + interval + cost) {
                    t += interval + cost;
                    out.useful_seconds += interval;
                    out.checkpoints_committed += 1;
                }
            }
            prev_end = seg.end;
            index += 1;
        }
    }
    out
}
