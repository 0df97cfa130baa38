//! Robustness and semantics tests of the MapReduce runtime: determinism
//! under scheduling, skew reporting, combiner-free grouping guarantees,
//! and — the heart of this suite — recovery under deterministic fault
//! injection. The headline property: a job's outputs are byte-identical
//! across worker counts and across any fault plan that leaves every task
//! at least one successful attempt.

use std::time::Duration;

use hamming_suite::mapreduce::{
    hash_partition, try_run_job, DistributedCache, Fault, FaultInjector, FaultPlan, InMemoryDfs,
    JobConfig, JobError, Phase, ShuffleBytes, TaskId,
};

/// The reference workload used by the fault-matrix tests: sum of inputs
/// grouped by `x % 13`, over 2000 inputs.
fn reference_config(workers: usize, reducers: usize) -> JobConfig {
    JobConfig::named("fault-matrix")
        .with_workers(workers)
        .with_reducers(reducers)
}

fn run_reference(
    config: &JobConfig,
    injector: &FaultInjector,
) -> Result<(Vec<(u64, u64)>, hamming_suite::mapreduce::JobMetrics), JobError> {
    let result = try_run_job(
        config,
        (0..2_000u64).collect(),
        |x, emit| emit(x % 13, x),
        hash_partition,
        |k, vs, out| out.push((*k, vs.iter().sum::<u64>())),
        injector,
    )?;
    Ok((result.outputs, result.metrics))
}

#[test]
fn results_independent_of_worker_and_reducer_counts() {
    let inputs: Vec<u64> = (0..2_000).collect();
    let reference: Vec<(u64, u64)> = {
        let mut v: Vec<(u64, u64)> = (0..13u64)
            .map(|k| (k, (0..2_000u64).filter(|x| x % 13 == k).sum()))
            .collect();
        v.sort_unstable();
        v
    };
    for workers in [1usize, 2, 7] {
        for reducers in [1usize, 3, 13, 40] {
            let mut got = try_run_job(
                &JobConfig::named("det")
                    .with_workers(workers)
                    .with_reducers(reducers),
                inputs.clone(),
                |x, emit| emit(x % 13, x),
                hash_partition,
                |k, vs, out| out.push((*k, vs.iter().sum::<u64>())),
                &FaultInjector::none(),
            )
            .expect("job runs")
            .outputs;
            got.sort_unstable();
            assert_eq!(got, reference, "workers={workers} reducers={reducers}");
        }
    }
}

#[test]
fn hash_partition_is_deterministic_and_total() {
    for key in 0..1_000u64 {
        let p = hash_partition(&key, 7);
        assert!(p < 7);
        assert_eq!(p, hash_partition(&key, 7), "same key, same partition");
    }
}

// ---------------------------------------------------------------------------
// Fault-injection matrix
// ---------------------------------------------------------------------------

#[test]
fn every_task_failing_once_leaves_outputs_byte_identical() {
    // 4 workers over 2000 inputs → 4 map tasks; 3 reducers → 3 reduce
    // tasks. First attempt of EVERY task panics; the job must recover
    // with outputs identical (not just equivalent) to the fault-free run.
    let config = reference_config(4, 3);
    let (clean, clean_metrics) = run_reference(&config, &FaultInjector::none()).expect("clean run");
    assert_eq!(clean_metrics.total_failures(), 0);
    assert_eq!(clean_metrics.total_attempts(), 7, "4 map + 3 reduce");

    let injector = FaultInjector::new(FaultPlan::panic_first_attempt_everywhere(4, 3));
    let (chaotic, metrics) = run_reference(&config, &injector).expect("job recovers everywhere");
    assert_eq!(chaotic, clean, "recovery must be invisible in the output");

    // Exact recovery accounting: every task burned exactly one failure.
    assert_eq!(metrics.map_failures(), 4);
    assert_eq!(metrics.reduce_failures(), 3);
    assert_eq!(metrics.total_retries(), 7);
    assert_eq!(metrics.total_attempts(), 14, "every task ran twice");
    for t in metrics.map_tasks.iter().chain(metrics.reduce_tasks.iter()) {
        assert_eq!((t.attempts, t.failures), (2, 1));
    }
    assert!((metrics.attempt_overhead() - 2.0).abs() < 1e-12);
    assert_eq!(injector.delivered().len(), 7, "every planned fault fired");

    // Shuffle accounting comes from winning attempts only — identical to
    // the fault-free run, not double-counted.
    assert_eq!(metrics.shuffle_bytes, clean_metrics.shuffle_bytes);
}

#[test]
fn mixed_panics_and_transients_recover_identically() {
    let config = reference_config(4, 3).with_max_attempts(3);
    let (clean, _) = run_reference(&config, &FaultInjector::none()).expect("clean run");
    let plan = FaultPlan::new()
        .panic_on(TaskId::map(0), 0)
        .transient(TaskId::map(0), 1) // map 0 fails twice, succeeds third
        .transient(TaskId::map(2), 0)
        .panic_on(TaskId::reduce(1), 0)
        .transient(TaskId::reduce(2), 1); // attempt 1 never runs: no failure at attempt 0
    let injector = FaultInjector::new(plan);
    let (chaotic, metrics) = run_reference(&config, &injector).expect("job recovers");
    assert_eq!(chaotic, clean);
    assert_eq!(metrics.map_tasks[0].failures, 2);
    assert_eq!(metrics.map_tasks[0].attempts, 3);
    assert_eq!(metrics.map_tasks[2].failures, 1);
    assert_eq!(metrics.reduce_tasks[1].failures, 1);
    assert_eq!(
        metrics.reduce_tasks[2].failures, 0,
        "a fault scheduled on an attempt that never runs never fires"
    );
    assert_eq!(metrics.total_failures(), 4);
    assert_eq!(injector.delivered().len(), 4);
}

#[test]
fn exhausting_max_attempts_is_a_typed_error_not_a_panic() {
    let config = reference_config(2, 2).with_max_attempts(2);
    let plan = FaultPlan::new()
        .panic_on(TaskId::reduce(0), 0)
        .panic_on(TaskId::reduce(0), 1);
    let err = run_reference(&config, &FaultInjector::new(plan)).unwrap_err();
    match err {
        JobError::TaskFailed {
            task,
            attempts,
            ref message,
        } => {
            assert_eq!(task, TaskId::reduce(0));
            assert_eq!(attempts, 2);
            assert!(message.contains("injected panic"), "{message}");
        }
        ref other => panic!("expected TaskFailed, got {other:?}"),
    }
    assert!(err.to_string().contains("reduce[0] failed after 2 attempts"));
}

#[test]
fn retry_backoff_is_applied_between_attempts() {
    // Two forced failures with a 30ms backoff base: the job must take at
    // least base * (1 + 2) = 90ms longer than instant retry would.
    let config = reference_config(1, 1)
        .with_max_attempts(3)
        .with_backoff(Duration::from_millis(30), 99);
    let plan = FaultPlan::new()
        .panic_on(TaskId::map(0), 0)
        .panic_on(TaskId::map(0), 1);
    let start = std::time::Instant::now();
    let (_, metrics) = run_reference(&config, &FaultInjector::new(plan)).expect("recovers");
    assert!(
        start.elapsed() >= Duration::from_millis(90),
        "backoff was skipped: {:?}",
        start.elapsed()
    );
    assert_eq!(metrics.map_tasks[0].failures, 2);
}

#[test]
fn mapper_panic_is_a_typed_error_when_retries_are_exhausted() {
    let err = try_run_job(
        &JobConfig::named("boom")
            .with_workers(2)
            .with_reducers(2)
            .with_max_attempts(1),
        vec![1u64, 2, 3],
        |x, emit| {
            if x == 2 {
                panic!("injected mapper failure");
            }
            emit(x, x);
        },
        hash_partition,
        |_, vs, out: &mut Vec<u64>| out.extend(vs),
        &FaultInjector::none(),
    )
    .unwrap_err();
    match err {
        JobError::TaskFailed { task, message, .. } => {
            assert_eq!(task.phase, Phase::Map);
            assert!(message.contains("injected mapper failure"), "{message}");
        }
        other => panic!("expected TaskFailed, got {other:?}"),
    }
}

#[test]
fn reducer_panic_is_a_typed_error_when_retries_are_exhausted() {
    let err = try_run_job(
        &JobConfig::named("boom")
            .with_workers(2)
            .with_reducers(2)
            .with_max_attempts(1),
        vec![1u64, 2, 3],
        |x, emit| emit(x, x),
        hash_partition,
        |_, _, _: &mut Vec<u64>| panic!("injected reducer failure"),
        &FaultInjector::none(),
    )
    .unwrap_err();
    match err {
        JobError::TaskFailed { task, message, .. } => {
            assert_eq!(task.phase, Phase::Reduce);
            assert!(message.contains("injected reducer failure"), "{message}");
        }
        other => panic!("expected TaskFailed, got {other:?}"),
    }
}

#[test]
fn deterministic_user_panics_survive_one_retry_of_nondeterministic_ones() {
    // A mapper that fails only on its first call per process would be
    // nondeterministic; our purity contract bans it. But a *fault plan*
    // models exactly that operational reality — verify a panic-prone
    // mapper under injection still exhausts attempts deterministically.
    let plan = FaultPlan::new()
        .panic_on(TaskId::map(0), 0)
        .panic_on(TaskId::map(0), 1)
        .panic_on(TaskId::map(0), 2);
    let err = run_reference(
        &reference_config(1, 1).with_max_attempts(3),
        &FaultInjector::new(plan),
    )
    .unwrap_err();
    assert_eq!(
        err,
        JobError::TaskFailed {
            task: TaskId::map(0),
            attempts: 3,
            message: "injected panic on map[0] attempt 2".into(),
        }
    );
}

#[test]
fn out_of_range_partitioner_is_rejected_with_typed_error() {
    let err = try_run_job(
        &JobConfig::named("oob").with_workers(1).with_reducers(2),
        vec![1u64],
        |x, emit| emit(x, x),
        |_, n| n + 5, // out of range
        |_, vs, out: &mut Vec<u64>| out.extend(vs),
        &FaultInjector::none(),
    )
    .unwrap_err();
    assert_eq!(
        err,
        JobError::PartitionerOutOfRange {
            task: TaskId::map(0),
            partition: 7,
            reducers: 2,
        }
    );
}

#[test]
fn delivered_faults_are_observable_per_attempt() {
    let plan = FaultPlan::new()
        .transient(TaskId::map(0), 0)
        .delay(TaskId::map(0), 1, Duration::from_millis(1));
    let injector = FaultInjector::new(plan);
    run_reference(&reference_config(1, 1), &injector).expect("recovers");
    let log = injector.delivered();
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].attempt, 0);
    assert_eq!(log[0].fault, Fault::TransientError);
    assert_eq!(log[1].attempt, 1);
    assert_eq!(log[1].fault, Fault::Delay(Duration::from_millis(1)));
}

// ---------------------------------------------------------------------------
// Pre-existing semantics tests
// ---------------------------------------------------------------------------

#[test]
fn map_only_style_job_with_unit_values() {
    // A "map-only" pattern: reducer is the identity on keys.
    let result = try_run_job(
        &JobConfig::named("ids").with_workers(3).with_reducers(3),
        (0..100u64).collect::<Vec<_>>(),
        |x, emit| emit(x * 2, ()),
        hash_partition,
        |k, _, out| out.push(*k),
        &FaultInjector::none(),
    )
    .expect("job runs");
    let mut got = result.outputs;
    got.sort_unstable();
    assert_eq!(got, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
}

#[test]
fn metrics_reflect_real_volumes() {
    let n = 500usize;
    let result = try_run_job(
        &JobConfig::named("vol").with_workers(4).with_reducers(4),
        (0..n as u64).collect::<Vec<_>>(),
        |x, emit| {
            // Two records out per record in.
            emit(x % 10, x);
            emit((x + 1) % 10, x);
        },
        hash_partition,
        |_, vs, out: &mut Vec<u64>| out.push(vs.len() as u64),
        &FaultInjector::none(),
    )
    .expect("job runs");
    let m = &result.metrics;
    assert_eq!(m.shuffle_bytes, 2 * n * 16, "(u64,u64) = 16B each");
    assert_eq!(m.reduce_input_records(), 2 * n);
    let map_in: usize = m.map_tasks.iter().map(|t| t.records_in).sum();
    assert_eq!(map_in, n);
    let map_out: usize = m.map_tasks.iter().map(|t| t.records_out).sum();
    assert_eq!(map_out, 2 * n);
    assert!(m.elapsed.as_nanos() > 0);
    // A fault-free job reports clean recovery counters.
    assert_eq!(m.total_failures(), 0);
    assert!((m.attempt_overhead() - 1.0).abs() < 1e-12);
}

#[test]
fn dfs_blocks_drive_map_splits() {
    // One map task per DFS block — the Hadoop input-split contract.
    let dfs = InMemoryDfs::new();
    dfs.put_with_blocks("f", (0..100u32).collect(), 25, 4);
    let splits = dfs.try_splits::<u32>("f").expect("the file exists");
    assert_eq!(splits.len(), 4);
    // Feed splits as inputs (one split = one logical task's records).
    let result = try_run_job(
        &JobConfig::named("per-split").with_workers(4).with_reducers(2),
        splits,
        |split, emit| emit((), split.len() as u64),
        hash_partition,
        |_, vs, out| out.push(vs.iter().sum::<u64>()),
        &FaultInjector::none(),
    )
    .expect("job runs");
    assert_eq!(result.outputs, vec![100]);
}

#[test]
fn broadcast_cost_model() {
    let payload: Vec<u64> = (0..1000).collect();
    let bytes = payload.shuffle_bytes();
    let cache = DistributedCache::broadcast(payload, 16);
    assert_eq!(cache.traffic_bytes(), bytes * 16);
    // All handles alias one copy in-process.
    let a = cache.get();
    let b = cache.get();
    assert!(std::sync::Arc::ptr_eq(&a, &b));
}

#[test]
fn stress_many_keys_single_worker_vs_many() {
    // 50k records over 5k keys: grouping correctness at volume.
    let inputs: Vec<u64> = (0..50_000).collect();
    let run = |w: usize| {
        let mut out = try_run_job(
            &JobConfig::named("stress").with_workers(w).with_reducers(8),
            inputs.clone(),
            |x, emit| emit(x % 5_000, 1u64),
            hash_partition,
            |k, vs, out| out.push((*k, vs.len())),
            &FaultInjector::none(),
        )
        .expect("job runs")
        .outputs;
        out.sort_unstable();
        out
    };
    let single = run(1);
    let multi = run(8);
    assert_eq!(single, multi);
    assert!(single.iter().all(|&(_, c)| c == 10));
}

#[test]
fn stress_chaos_under_volume() {
    // The 50k-record stress workload with every task's first attempt
    // panicking: grouping correctness must survive recovery at volume.
    let inputs: Vec<u64> = (0..50_000).collect();
    let config = JobConfig::named("stress-chaos")
        .with_workers(8)
        .with_reducers(8);
    let clean = try_run_job(
        &config,
        inputs.clone(),
        |x, emit| emit(x % 5_000, 1u64),
        hash_partition,
        |k, vs, out| out.push((*k, vs.len())),
        &FaultInjector::none(),
    )
    .expect("clean");
    let injector = FaultInjector::new(FaultPlan::panic_first_attempt_everywhere(8, 8));
    let chaotic = try_run_job(
        &config,
        inputs,
        |x, emit| emit(x % 5_000, 1u64),
        hash_partition,
        |k, vs, out| out.push((*k, vs.len())),
        &injector,
    )
    .expect("recovers");
    assert_eq!(chaotic.outputs, clean.outputs);
    assert_eq!(chaotic.metrics.total_failures(), 16);
}
