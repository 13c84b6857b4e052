//! The benchmark's own tests: small-scale runs pass every check, every
//! check rejects a corrupted output, and thread count does not change
//! the outputs.

use chs_pipeline_bench::checks::{
    check_manager, check_policy_accuracy, check_pool_ledger, check_replay, check_round,
    check_serving, check_side_fleet, run_side_fleet,
};
use chs_pipeline_bench::pipeline::{run_round, RoundOutput};
use chs_pipeline_bench::workload::{setup, walk_fixed_interval, Inputs, Scale, Spec, WorkloadKind};
use chs_pipeline_bench::{run, Options};
use chs_pool::{Seg, VecTimeline};

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn small_round(kind: WorkloadKind, threads: usize) -> (Inputs, RoundOutput) {
    let inputs = setup(&Spec::new(kind, Scale::Small, threads), 11).expect("small inputs");
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let out = pool
        .install(|| run_round(&inputs, false))
        .expect("small round");
    (inputs, out)
}

#[test]
fn small_runs_pass_every_check() {
    for kind in WorkloadKind::ALL {
        for trace in [false, true] {
            let report = run(&Options {
                kind,
                seed: 5,
                seconds: 0.0,
                trace,
                scale: Scale::Small,
                threads: cores(),
            });
            assert!(report.correct(), "{}: {:?}", kind.name(), report.violations);
            assert_eq!(report.failed, 0, "{}", kind.name());
            assert!(report.attempted > 0);
            let names: Vec<_> = report.metrics.iter().map(|m| m.name).collect();
            let expected = if trace {
                "trace.overhead_pct"
            } else {
                "peak_rss_mb"
            };
            assert!(names.contains(&expected), "{}: {names:?}", kind.name());
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
}

#[test]
fn refit_churn_shifts_regimes_and_dead_letters_reach_replay() {
    let (_, out) = small_round(WorkloadKind::RefitChurn, 1);
    assert!(
        out.sched.regime_shifts() > 0,
        "the regime shift must be detected"
    );
    let (_, out) = small_round(WorkloadKind::ManagerStorm, 1);
    assert!(out.enqueued > 0 && out.replay.popped == out.enqueued);
    assert!(
        out.manager.report.deferred_checkpoints > 0,
        "admission must engage"
    );
}

#[test]
fn checks_reject_corrupted_outputs() {
    let (inputs, out) = small_round(WorkloadKind::PoolDay, 1);
    assert!(check_round(&inputs, &out).is_empty());
    let queries = inputs.spec.queries() as u64;

    let mut serve = out.serve;
    serve.answered -= 1;
    assert!(
        !check_serving(&serve, queries).is_empty(),
        "unanswered query"
    );

    let store = out.sched.store();
    let doubled = |m, a| store.next_interval(m, a).map(|t| 2.0 * t);
    assert!(!check_policy_accuracy(&out.sched, inputs.spec.machines, doubled).is_empty());

    let mut pool = out.pool.clone();
    pool.cycle.useful_seconds += 3_600.0;
    assert!(
        !check_pool_ledger(&pool).is_empty(),
        "shifted useful seconds"
    );
    let mut pool = out.pool.clone();
    pool.core_utilization.max = 1.01;
    assert!(!check_pool_ledger(&pool).is_empty(), "core over capacity");

    let (side, walked) = run_side_fleet(&inputs).expect("side fleet");
    assert!(check_side_fleet(&side, &walked).is_empty());
    let mut shifted = side.clone();
    shifted.cycle.useful_seconds += 900.0;
    assert!(
        !check_side_fleet(&shifted, &walked).is_empty(),
        "shifted side useful seconds"
    );
    let mut extra = side;
    extra.cycle.checkpoints_committed += 1;
    assert!(
        !check_side_fleet(&extra, &walked).is_empty(),
        "extra side commit"
    );

    let mut manager = out.manager.clone();
    manager.report.deferred_checkpoints += 1;
    assert!(
        !check_manager(&manager).is_empty(),
        "abandonments unbalanced"
    );
    let mut manager = out.manager.clone();
    manager.result.cycle.lost_seconds += 60.0;
    assert!(!check_manager(&manager).is_empty(), "time books unbalanced");

    let dlq = &out.manager.dlq;
    assert!(check_replay(out.enqueued, &out.replay, dlq).is_empty());
    let mut replay = out.replay;
    replay.replayed += 1;
    assert!(
        !check_replay(out.enqueued, &replay, dlq).is_empty(),
        "replayed + abandoned != popped"
    );
    let mut replay = out.replay;
    replay.wire_mb += 100.0;
    assert!(
        !check_replay(out.enqueued, &replay, dlq).is_empty(),
        "wire bytes unbalanced"
    );
    assert!(
        !check_replay(out.enqueued + 1, &out.replay, dlq).is_empty(),
        "letter left behind"
    );
}

#[test]
fn walked_ledger_matches_a_hand_computed_segment() {
    // One segment [0, 1000), 128 s transfers, 200 s intervals: recovery
    // ends at 128, commits at 456 and 784; the third checkpoint would
    // end at 1112, past the segment.
    let timeline = VecTimeline(vec![vec![Seg {
        start: 0.0,
        end: 1_000.0,
    }]]);
    let walked = walk_fixed_interval(&timeline, 1, 10_000.0, 128.0, 200.0);
    assert_eq!(walked.checkpoints_committed, 2);
    assert_eq!(walked.useful_seconds, 400.0);
    assert_eq!(walked.total_seconds, 1_000.0);
    // A window closing inside the segment truncates it.
    let walked = walk_fixed_interval(&timeline, 1, 600.0, 128.0, 200.0);
    assert_eq!(walked.checkpoints_committed, 1);
    assert_eq!(walked.total_seconds, 600.0);
}

#[test]
fn one_thread_and_all_threads_agree() {
    for kind in WorkloadKind::ALL {
        let (_, one) = small_round(kind, 1);
        let (_, all) = small_round(kind, cores());
        assert_eq!(one.fingerprint(), all.fingerprint(), "{}", kind.name());
        assert_eq!(one.pool.digest, all.pool.digest);
        assert_eq!(one.store_digests, all.store_digests);
    }
}
