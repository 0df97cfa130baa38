//! Property tests of the fault-tolerance machinery.
//!
//! The central claim (DESIGN.md, "Runtime fault tolerance"): because every
//! task attempt is pure, ANY fault plan that leaves each task fewer than
//! `max_attempts` failures yields output exactly equal to a fault-free,
//! single-threaded reference run — recovery is invisible. These properties
//! generate arbitrary such plans and hold the runner to that claim, plus
//! exact metrics accounting: every planned recoverable fault fires exactly
//! once and shows up in [`JobMetrics`] as a counted failure.

use std::time::Duration;

use hamming_suite::mapreduce::{
    hash_partition, try_run_job, Fault, FaultInjector, FaultPlan, JobConfig, JobError, JobMetrics,
    TaskId,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const INPUTS: u64 = 120;

/// One reduced group: `(key, sum, count)`.
type Row = (u64, u64, usize);

/// Reference workload: group `x` by `x % groups`, reduce to `(key, sum,
/// count)`. 120 inputs split across `workers` map tasks (120 is divisible
/// by 1..=4, so `workers` splits exist for every generated worker count).
fn run(
    workers: usize,
    reducers: usize,
    max_attempts: u32,
    injector: &FaultInjector,
) -> Result<(Vec<Row>, JobMetrics), JobError> {
    let config = JobConfig::named("prop-faults")
        .with_workers(workers)
        .with_reducers(reducers)
        .with_max_attempts(max_attempts);
    let result = try_run_job(
        &config,
        (0..INPUTS).collect(),
        |x, emit| emit(x % 7, x),
        hash_partition,
        |k, vs, out| out.push((*k, vs.iter().sum::<u64>(), vs.len())),
        injector,
    )?;
    Ok((result.outputs, result.metrics))
}

/// Derives a recoverable fault plan from `seed`: every task draws between
/// 0 and `max_attempts - 1` failures (panic or transient, on consecutive
/// attempts starting at 0, so each scheduled fault is guaranteed to fire),
/// plus an occasional sub-millisecond delay that costs no attempt.
/// Returns the plan and the total number of scheduled failures.
fn recoverable_plan(
    seed: u64,
    map_tasks: usize,
    reduce_tasks: usize,
    max_attempts: u32,
) -> (FaultPlan, u32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = FaultPlan::new();
    let mut total = 0u32;
    let tasks = (0..map_tasks)
        .map(TaskId::map)
        .chain((0..reduce_tasks).map(TaskId::reduce));
    for task in tasks {
        let failures = rng.gen_range(0..max_attempts);
        for attempt in 0..failures {
            plan = if rng.gen_bool(0.5) {
                plan.panic_on(task, attempt)
            } else {
                plan.transient(task, attempt)
            };
        }
        total += failures;
        if rng.gen_bool(0.2) {
            // A straggle that resolves by itself; no speculation configured,
            // so this must not perturb anything.
            plan = plan.delay(task, failures, Duration::from_micros(200));
        }
    }
    (plan, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any plan with < max_attempts failures per task is survivable, and
    /// the recovered output equals the single-threaded fault-free
    /// reference exactly — same values, same order.
    #[test]
    fn recoverable_plans_are_invisible_in_output(
        seed in any::<u64>(),
        workers in 1usize..=4,
        reducers in 1usize..=4,
        max_attempts in 2u32..=4,
    ) {
        let (reference, ref_metrics) =
            run(1, reducers, max_attempts, &FaultInjector::none()).expect("reference run");
        prop_assert_eq!(ref_metrics.total_failures(), 0);

        let (plan, planned_failures) = recoverable_plan(seed, workers, reducers, max_attempts);
        prop_assert!(plan.max_failures_per_task() < max_attempts);
        let injector = FaultInjector::new(plan);
        let (outputs, metrics) =
            run(workers, reducers, max_attempts, &injector).expect("plan is recoverable");

        prop_assert_eq!(outputs, reference);
        prop_assert_eq!(metrics.total_failures(), planned_failures);
        prop_assert_eq!(metrics.total_retries(), planned_failures);
        // Every scheduled fault fired exactly once (consecutive attempts
        // from 0 always execute), and failures counted == non-delay faults.
        let delivered = injector.delivered();
        prop_assert_eq!(delivered.len(), injector.plan().len());
        let delivered_failures = delivered
            .iter()
            .filter(|e| !matches!(e.fault, Fault::Delay(_)))
            .count() as u32;
        prop_assert_eq!(delivered_failures, planned_failures);
        // Shuffle volume is a property of the data, not of the recovery
        // schedule: winning attempts only.
        prop_assert_eq!(metrics.shuffle_bytes, ref_metrics.shuffle_bytes);
    }

    /// A plan that schedules `max_attempts` failures on one task always
    /// surfaces as a typed `TaskFailed` for exactly that task — never as a
    /// panic, never as wrong output.
    #[test]
    fn unrecoverable_plans_fail_closed(
        seed in any::<u64>(),
        victim_map in any::<bool>(),
        max_attempts in 1u32..=3,
    ) {
        let workers = 2usize;
        let reducers = 2usize;
        let victim = if victim_map { TaskId::map(1) } else { TaskId::reduce(0) };
        let (mut plan, _) = recoverable_plan(seed, workers, reducers, max_attempts);
        // Saturate the victim: a failure on every attempt it can make.
        for attempt in 0..max_attempts {
            plan = plan.panic_on(victim, attempt);
        }
        let err = run(workers, reducers, max_attempts, &FaultInjector::new(plan))
            .expect_err("victim must exhaust its attempts");
        match err {
            JobError::TaskFailed { task, attempts, .. } => {
                prop_assert_eq!(task, victim);
                prop_assert_eq!(attempts, max_attempts);
            }
            other => panic!("expected TaskFailed for {victim}, got {other:?}"),
        }
    }

    /// Worker count is pure parallelism: with faults or without, it never
    /// changes what a job computes.
    #[test]
    fn worker_count_is_invisible_under_faults(
        seed in any::<u64>(),
        reducers in 1usize..=3,
    ) {
        let runs: Vec<Vec<Row>> = [1usize, 2, 4]
            .iter()
            .map(|&w| {
                let (plan, _) = recoverable_plan(seed, w, reducers, 2);
                run(w, reducers, 2, &FaultInjector::new(plan))
                    .expect("recoverable")
                    .0
            })
            .collect();
        prop_assert_eq!(&runs[0], &runs[1]);
        prop_assert_eq!(&runs[1], &runs[2]);
    }
}
