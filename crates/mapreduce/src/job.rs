//! The job runner: typed map → shuffle → reduce, one thread per task,
//! with Hadoop-style fault tolerance.
//!
//! The execution mirrors Hadoop's architecture at the level the algorithms
//! care about:
//!
//! * inputs are chunked into [`JobConfig::num_workers`] **splits**, one
//!   map task per split;
//! * each map task **partitions its output locally** into one spill bucket
//!   per reducer (Hadoop's map-side spill), measuring the serialized bytes
//!   of every record via [`ShuffleBytes`] — that sum is the job's shuffle
//!   cost;
//! * each reduce task merges its buckets from all map tasks, groups its
//!   keys in **sorted key order** (Hadoop's merge-sort), and invokes the
//!   reducer once per key.
//!
//! # Fault tolerance
//!
//! Every task runs under a **supervisor** on a thread of its own:
//!
//! * the supervisor runs the task's attempts one after another on that
//!   thread, each under `catch_unwind` — a panicking attempt fails that
//!   attempt, never the whole job;
//! * failed attempts are **retried** up to [`JobConfig::max_attempts`]
//!   times, with deterministic seeded exponential backoff between
//!   attempts ([`JobConfig::with_backoff`]);
//! * a task whose attempts are exhausted fails the job with a typed
//!   [`JobError`] instead of a panic.
//!
//! A task never has two attempts running at once: a straggling attempt
//! (an injected [`Fault::Delay`], say) runs to completion, and nothing
//! launches a duplicate beside it.
//!
//! # Determinism
//!
//! Mappers, partitioners, and reducers are required to be **pure**: their
//! output must be a function of their input only. Under that contract
//! every attempt of a task produces identical output, so which attempt
//! succeeds (the first or a retry) is unobservable in the results;
//! combined with sorted-key grouping and stable task ordering, a job's
//! output is byte-identical for any worker count and any fault schedule
//! that leaves every task at least one successful attempt. The test suite
//! (`tests/mapreduce_robustness.rs`, `tests/fault_properties.rs`) pins
//! this property down with deterministic fault injection ([`crate::fault`]).
//!
//! # Observability
//!
//! When [`ha_obs`] tracing is enabled the runner records a span tree per
//! job — `mr.job` → `mr.map_phase`/`mr.shuffle`/`mr.reduce_phase`, with
//! per-attempt `mr.map_task`/`mr.reduce_task` spans on the supervisor
//! threads (parented across the thread boundary) wrapping the
//! `mr.map`/`mr.spill` and `mr.sort`/`mr.reduce` sub-phases — plus typed
//! events for every attempt launch, retry, and injected fault, and
//! `mr.*` registry counters mirroring [`JobMetrics`]. With tracing off
//! (the default) every hook is a single relaxed atomic load.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::thread;
use std::time::{Duration, Instant};

use crate::fault::{Fault, FaultInjector, TaskId};
use crate::metrics::{JobMetrics, TaskMetrics};
use crate::shuffle::ShuffleBytes;

/// Configuration of one MapReduce job.
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// Job name (for metrics and logs).
    pub name: String,
    /// Worker threads executing map tasks (≈ cluster map slots).
    pub num_workers: usize,
    /// Reduce tasks / partitions (the paper's `N`).
    pub num_reducers: usize,
    /// Failed attempts allowed per task before the job fails (Hadoop's
    /// `mapreduce.map.maxattempts`). `1` = fail fast, no retries.
    pub max_attempts: u32,
    /// Base delay of the exponential retry backoff; `ZERO` retries
    /// immediately (the test-suite setting).
    pub backoff_base: Duration,
    /// Seed of the deterministic backoff jitter.
    pub backoff_seed: u64,
}

impl JobConfig {
    /// A config named `name` with parallelism matched to the host, one
    /// retry per task, and no backoff.
    pub fn named(name: &str) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        JobConfig {
            name: name.to_string(),
            num_workers: workers,
            num_reducers: workers,
            max_attempts: 2,
            backoff_base: Duration::ZERO,
            backoff_seed: 0xEDB7_2015,
        }
    }

    /// Sets the number of reduce partitions.
    pub fn with_reducers(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one reducer");
        self.num_reducers = n;
        self
    }

    /// Sets the number of map worker threads.
    pub fn with_workers(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one worker");
        self.num_workers = n;
        self
    }

    /// Sets how many failed attempts each task may burn before the job
    /// fails (`1` disables retries).
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        assert!(n >= 1, "need at least one attempt");
        self.max_attempts = n;
        self
    }

    /// Sets the retry backoff: exponential in `base` with deterministic
    /// jitter derived from `seed`, the task id, and the failure count.
    pub fn with_backoff(mut self, base: Duration, seed: u64) -> Self {
        self.backoff_base = base;
        self.backoff_seed = seed;
        self
    }
}

/// Why a job failed. Every variant is a *recoverable* error surfaced to
/// the caller — the runner itself never panics on task failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// A task exhausted its attempts; `message` is the last failure
    /// (panic payload or transient-error description).
    TaskFailed {
        /// The task that gave up.
        task: TaskId,
        /// Attempts launched for it (all of them failed).
        attempts: u32,
        /// Description of the final failure.
        message: String,
    },
    /// The user partitioner returned a partition `>= num_reducers`. This
    /// is deterministic, so it is fatal immediately — no retry could
    /// succeed.
    PartitionerOutOfRange {
        /// The map task whose record was misrouted.
        task: TaskId,
        /// The offending partition index.
        partition: usize,
        /// The configured reducer count.
        reducers: usize,
    },
    /// A DFS read or write failed beyond what replication could mask —
    /// unrecoverable data loss or corruption surfaced by the storage
    /// layer (see [`crate::dfs::DfsError`]). Retrying the task cannot
    /// help: the bytes are gone.
    StorageFailed(crate::dfs::DfsError),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::TaskFailed {
                task,
                attempts,
                message,
            } => write!(f, "{task} failed after {attempts} attempts: {message}"),
            JobError::PartitionerOutOfRange {
                task,
                partition,
                reducers,
            } => write!(
                f,
                "{task}: partitioner returned {partition} for {reducers} reducers"
            ),
            JobError::StorageFailed(e) => write!(f, "storage failed: {e}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<crate::dfs::DfsError> for JobError {
    fn from(e: crate::dfs::DfsError) -> Self {
        JobError::StorageFailed(e)
    }
}

/// Output records plus metrics of a finished job.
#[derive(Debug)]
pub struct JobResult<O> {
    /// Reducer outputs, concatenated in reducer order (deterministic).
    pub outputs: Vec<O>,
    /// Measured job metrics.
    pub metrics: JobMetrics,
}

/// The default partitioner: deterministic hash of the key modulo the
/// reducer count (Hadoop's `HashPartitioner`).
pub fn hash_partition<K: Hash>(key: &K, reducers: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % reducers as u64) as usize
}

/// One attempt's verdict, as seen by the supervisor.
enum AttemptError {
    /// Worth retrying: a panic or a transient error.
    Transient(String),
    /// Deterministic, retry cannot help: fail the job now.
    Fatal(JobError),
}

/// Deterministic backoff before retry number `failures`: exponential in
/// the configured base, plus jitter that is a pure function of (seed,
/// task, failure count) — reproducible, but decorrelated across tasks.
fn backoff(config: &JobConfig, task: TaskId, failures: u32) -> Duration {
    if config.backoff_base.is_zero() {
        return Duration::ZERO;
    }
    let exp = (failures.saturating_sub(1)).min(6);
    let base = config.backoff_base * 2u32.pow(exp);
    let mut h = DefaultHasher::new();
    (config.backoff_seed, task, failures).hash(&mut h);
    let jitter = h.finish() % (config.backoff_base.as_nanos().max(1) as u64);
    base + Duration::from_nanos(jitter)
}

/// Renders a panic payload into a failure message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked (non-string payload)".to_string()
    }
}

/// Supervises one task on the calling thread: runs attempt 0, 1, … in
/// turn, each under `catch_unwind` so a panicking attempt becomes a
/// `Transient` failure, retries transient failures with backoff, and
/// returns the first successful payload with the number of failed
/// attempts before it — or the typed error that ends the job.
fn supervise<T>(
    config: &JobConfig,
    task: TaskId,
    attempt_fn: impl Fn(u32) -> Result<T, AttemptError>,
) -> Result<(T, u32), JobError> {
    let max_attempts = config.max_attempts.max(1);
    let mut failures = 0;
    loop {
        let attempt = failures;
        ha_obs::emit(|| ha_obs::Event::TaskAttempt {
            task: task.to_string(),
            attempt,
        });
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| attempt_fn(attempt)))
            .unwrap_or_else(|payload| Err(AttemptError::Transient(panic_message(payload))));
        match outcome {
            Ok(payload) => return Ok((payload, failures)),
            Err(AttemptError::Fatal(err)) => return Err(err),
            Err(AttemptError::Transient(message)) => {
                failures += 1;
                if failures >= max_attempts {
                    return Err(JobError::TaskFailed {
                        task,
                        attempts: failures,
                        message,
                    });
                }
                ha_obs::emit(|| ha_obs::Event::TaskRetry {
                    task: task.to_string(),
                    failures,
                    message: message.clone(),
                });
                thread::sleep(backoff(config, task, failures));
            }
        }
    }
}

/// Runs the `tasks` tasks of one phase, each supervised on a thread of
/// its own, and returns their outcomes in task order.
fn run_phase<T: Send>(
    config: &JobConfig,
    tasks: usize,
    task_id: fn(usize) -> TaskId,
    attempt_fn: &(impl Fn(usize, u32) -> Result<T, AttemptError> + Sync),
) -> Vec<Result<(T, u32), JobError>> {
    thread::scope(|scope| {
        let supervisors: Vec<_> = (0..tasks)
            .map(|i| scope.spawn(move || supervise(config, task_id(i), |a| attempt_fn(i, a))))
            .collect();
        supervisors
            .into_iter()
            .map(|h| h.join().expect("task supervisors never panic"))
            .collect()
    })
}

/// Applies any injected fault for `(task, attempt)`, then runs the
/// attempt body. Injected panics unwind (the supervisor's `catch_unwind`
/// turns them into transient failures, same as a user-code panic);
/// injected delays stretch the attempt (a straggler, which must not
/// change the output); injected transient errors fail without unwinding.
fn run_attempt<T>(
    faults: &FaultInjector,
    task: TaskId,
    attempt: u32,
    body: impl FnOnce() -> Result<T, AttemptError>,
) -> Result<T, AttemptError> {
    if let Some(fault) = faults.deliver(task, attempt) {
        ha_obs::emit(|| ha_obs::Event::TaskFault {
            task: task.to_string(),
            attempt,
            fault: format!("{fault:?}"),
        });
        match fault {
            Fault::TransientError => {
                return Err(AttemptError::Transient(format!(
                    "injected transient error on {task} attempt {attempt}"
                )));
            }
            Fault::Panic => panic!("injected panic on {task} attempt {attempt}"),
            Fault::Delay(d) => thread::sleep(d),
        }
    }
    body()
}

/// Runs a job: `mapper` over `inputs`, records routed by `partitioner`
/// (pass [`hash_partition`] for Hadoop's default; the Hamming-join passes
/// its pivot-based range partitioner, §5.1), then `reducer` per key in
/// sorted key order. `faults` injects deterministic task failures; pass
/// [`FaultInjector::none`] for none (a no-op lookup per attempt).
pub fn try_run_job<I, K, V, O, M, P, R>(
    config: &JobConfig,
    inputs: Vec<I>,
    mapper: M,
    partitioner: P,
    reducer: R,
    faults: &FaultInjector,
) -> Result<JobResult<O>, JobError>
where
    I: Clone + Send + Sync,
    K: Hash + Eq + Ord + Clone + Send + Sync + ShuffleBytes,
    V: Clone + Send + Sync + ShuffleBytes,
    O: Send,
    M: Fn(I, &mut dyn FnMut(K, V)) + Sync,
    P: Fn(&K, usize) -> usize + Sync,
    R: Fn(&K, Vec<V>, &mut Vec<O>) + Sync,
{
    let job_start = Instant::now();
    let reducers = config.num_reducers.max(1);
    let workers = config.num_workers.max(1);
    let _job_span = ha_obs::span_labeled("mr.job", || config.name.clone());

    // ---- Map phase: one supervised task per split, spilled into
    // per-reducer buckets. Splits are owned outside the thread scope so
    // retried attempts can re-read their input.
    struct MapPayload<K, V> {
        buckets: Vec<Vec<(K, V)>>,
        metrics: TaskMetrics,
        bytes: usize,
    }

    let map_phase_span = ha_obs::span("mr.map_phase");
    let map_ctx = ha_obs::current_context();
    let splits = make_splits(inputs, workers);
    let map_attempt = |task_idx: usize, attempt: u32| -> Result<MapPayload<K, V>, AttemptError> {
        let task = TaskId::map(task_idx);
        let split = &splits[task_idx];
        run_attempt(faults, task, attempt, || {
            let _task_span =
                ha_obs::span_labeled_under("mr.map_task", || task.to_string(), &map_ctx);
            let start = Instant::now();
            // Map pass: run the mapper over the split, collecting its
            // emitted records (Hadoop's in-memory output buffer).
            let mut records: Vec<(K, V)> = Vec::new();
            {
                let _map_span = ha_obs::span("mr.map");
                for input in split {
                    mapper(input.clone(), &mut |k, v| records.push((k, v)));
                }
            }
            // Spill pass: partition the buffer into per-reducer buckets,
            // metering serialized shuffle bytes. The first out-of-range
            // partition aborts the job — deterministic, so fatal.
            let mut buckets: Vec<Vec<(K, V)>> = (0..reducers).map(|_| Vec::new()).collect();
            let mut bytes = 0usize;
            let mut records_out = 0usize;
            let mut out_of_range: Option<usize> = None;
            {
                let _spill_span = ha_obs::span("mr.spill");
                for (k, v) in records {
                    let p = partitioner(&k, reducers);
                    if p >= reducers {
                        out_of_range = Some(p);
                        break;
                    }
                    bytes += k.shuffle_bytes() + v.shuffle_bytes();
                    records_out += 1;
                    buckets[p].push((k, v));
                }
            }
            if let Some(partition) = out_of_range {
                return Err(AttemptError::Fatal(JobError::PartitionerOutOfRange {
                    task,
                    partition,
                    reducers,
                }));
            }
            Ok(MapPayload {
                buckets,
                metrics: TaskMetrics {
                    duration: start.elapsed(),
                    records_in: split.len(),
                    records_out,
                    ..TaskMetrics::default()
                },
                bytes,
            })
        })
    };
    let map_outcomes = run_phase(config, splits.len(), TaskId::map, &map_attempt);

    let mut metrics = JobMetrics {
        job_name: config.name.clone(),
        ..JobMetrics::default()
    };
    let mut shuffle_bytes = 0usize;
    let mut all_buckets: Vec<Vec<Vec<(K, V)>>> = Vec::with_capacity(map_outcomes.len());
    // Errors surface in task order, so the reported failure is
    // deterministic even when several tasks fail concurrently.
    for outcome in map_outcomes {
        let (payload, failures) = outcome?;
        shuffle_bytes += payload.bytes;
        metrics.map_tasks.push(TaskMetrics {
            attempts: failures + 1,
            failures,
            ..payload.metrics
        });
        all_buckets.push(payload.buckets);
    }
    metrics.shuffle_bytes = shuffle_bytes;
    drop(map_phase_span);

    // ---- Shuffle: regroup the per-task spill buckets into per-reducer
    // input columns (the all-to-all exchange whose byte volume the paper's
    // cost model bounds).
    let shuffle_span = ha_obs::span("mr.shuffle");
    let mut reducer_inputs: Vec<Vec<Vec<(K, V)>>> = (0..reducers).map(|_| Vec::new()).collect();
    for task_buckets in all_buckets {
        for (r, bucket) in task_buckets.into_iter().enumerate() {
            reducer_inputs[r].push(bucket);
        }
    }
    drop(shuffle_span);

    // ---- Reduce phase: each reducer merges its bucket column from every
    // map task, groups in sorted key order, and reduces. The columns are
    // owned outside the scope; attempts clone records while grouping so a
    // retry can always start from pristine input.

    struct ReducePayload<O> {
        outputs: Vec<O>,
        metrics: TaskMetrics,
    }

    let reduce_phase_span = ha_obs::span("mr.reduce_phase");
    let reduce_ctx = ha_obs::current_context();
    let reduce_attempt = |task_idx: usize, attempt: u32| -> Result<ReducePayload<O>, AttemptError> {
        let task = TaskId::reduce(task_idx);
        let buckets = &reducer_inputs[task_idx];
        run_attempt(faults, task, attempt, || {
            let _task_span =
                ha_obs::span_labeled_under("mr.reduce_task", || task.to_string(), &reduce_ctx);
            let start = Instant::now();
            // Sort pass: merge the bucket column into sorted key order
            // (Hadoop's merge-sort before the reduce call).
            let mut grouped: BTreeMap<K, Vec<V>> = BTreeMap::new();
            let mut records_in = 0usize;
            {
                let _sort_span = ha_obs::span("mr.sort");
                for bucket in buckets {
                    for (k, v) in bucket {
                        records_in += 1;
                        grouped.entry(k.clone()).or_default().push(v.clone());
                    }
                }
            }
            let mut outputs = Vec::new();
            {
                let _reduce_span = ha_obs::span("mr.reduce");
                for (k, vs) in grouped {
                    reducer(&k, vs, &mut outputs);
                }
            }
            let records_out = outputs.len();
            Ok(ReducePayload {
                outputs,
                metrics: TaskMetrics {
                    duration: start.elapsed(),
                    records_in,
                    records_out,
                    ..TaskMetrics::default()
                },
            })
        })
    };
    let reduce_outcomes = run_phase(config, reducers, TaskId::reduce, &reduce_attempt);

    let mut outputs = Vec::new();
    for outcome in reduce_outcomes {
        let (payload, failures) = outcome?;
        metrics.reduce_tasks.push(TaskMetrics {
            attempts: failures + 1,
            failures,
            ..payload.metrics
        });
        outputs.extend(payload.outputs);
    }
    drop(reduce_phase_span);
    metrics.elapsed = job_start.elapsed();

    // Mirror the job's metrics into the central registry under stable
    // `mr.*` names (the is_enabled guard skips the formatting when off).
    if ha_obs::is_enabled() {
        ha_obs::add("mr.jobs", 1);
        ha_obs::add("mr.map_tasks", metrics.map_tasks.len() as u64);
        ha_obs::add("mr.reduce_tasks", metrics.reduce_tasks.len() as u64);
        ha_obs::add("mr.shuffle_bytes", metrics.shuffle_bytes as u64);
        ha_obs::add(
            &format!("mr.shuffle_bytes/{}", metrics.job_name),
            metrics.shuffle_bytes as u64,
        );
        ha_obs::add("mr.task_attempts", u64::from(metrics.total_attempts()));
        ha_obs::add("mr.task_failures", u64::from(metrics.total_failures()));
        for t in &metrics.map_tasks {
            ha_obs::observe("mr.map_task_ns", t.duration);
        }
        for t in &metrics.reduce_tasks {
            ha_obs::observe("mr.reduce_task_ns", t.duration);
        }
    }
    Ok(JobResult { outputs, metrics })
}

/// Splits `inputs` into at most `n` balanced chunks, preserving order.
fn make_splits<I>(inputs: Vec<I>, n: usize) -> Vec<Vec<I>> {
    if inputs.is_empty() {
        return Vec::new();
    }
    let n = n.min(inputs.len()).max(1);
    let chunk = inputs.len().div_ceil(n);
    let mut splits = Vec::with_capacity(n);
    let mut rest = inputs;
    while !rest.is_empty() {
        let tail = rest.split_off(chunk.min(rest.len()));
        splits.push(rest);
        rest = tail;
    }
    splits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn cfg() -> JobConfig {
        JobConfig::named("test").with_workers(4).with_reducers(3)
    }

    #[test]
    fn word_count() {
        let docs: Vec<String> = vec![
            "the quick brown fox".into(),
            "the lazy dog".into(),
            "the quick dog".into(),
        ];
        let result = try_run_job(
            &cfg(),
            docs,
            |doc, emit| {
                for w in doc.split_whitespace() {
                    emit(w.to_string(), 1u64);
                }
            },
            hash_partition,
            |w, counts, out| out.push((w.clone(), counts.len() as u64)),
            &FaultInjector::none(),
        )
        .expect("job runs");
        let mut got = result.outputs;
        got.sort();
        assert_eq!(
            got,
            vec![
                ("brown".into(), 1),
                ("dog".into(), 2),
                ("fox".into(), 1),
                ("lazy".into(), 1),
                ("quick".into(), 2),
                ("the".into(), 3u64),
            ]
        );
    }

    #[test]
    fn deterministic_across_runs_and_worker_counts() {
        let inputs: Vec<u64> = (0..1000).collect();
        let run = |workers: usize| {
            try_run_job(
                &JobConfig::named("det").with_workers(workers).with_reducers(5),
                inputs.clone(),
                |x, emit| emit(x % 17, x),
                hash_partition,
                |k, vs, out| out.push((*k, vs.iter().sum::<u64>())),
                &FaultInjector::none(),
            )
            .expect("job runs")
            .outputs
        };
        let a = run(1);
        let b = run(8);
        // Outputs may interleave across reducers differently, but sorted
        // content must match; and single-reducer runs are identical.
        let mut a_sorted = a.clone();
        let mut b_sorted = b.clone();
        a_sorted.sort();
        b_sorted.sort();
        assert_eq!(a_sorted, b_sorted);
    }

    #[test]
    fn shuffle_bytes_accounted() {
        let inputs: Vec<u64> = (0..100).collect();
        let result = try_run_job(
            &cfg(),
            inputs,
            |x, emit| emit(x, x * 2), // (u64, u64) = 16 bytes each
            hash_partition,
            |_, vs, out: &mut Vec<u64>| out.extend(vs),
            &FaultInjector::none(),
        )
        .expect("job runs");
        assert_eq!(result.metrics.shuffle_bytes, 100 * 16);
        assert_eq!(result.metrics.reduce_input_records(), 100);
    }

    #[test]
    fn custom_partitioner_controls_placement() {
        let inputs: Vec<u32> = (0..90).collect();
        let result = try_run_job(
            &cfg(),
            inputs,
            |x, emit| emit(x, ()),
            |&k, n| (k as usize / 30).min(n - 1), // range partitioning
            |k, _, out| out.push(*k),
            &FaultInjector::none(),
        )
        .expect("job runs");
        // Reduce task record counts: 30 each — perfectly balanced.
        let counts: Vec<usize> = result
            .metrics
            .reduce_tasks
            .iter()
            .map(|t| t.records_in)
            .collect();
        assert_eq!(counts, vec![30, 30, 30]);
        assert!((result.metrics.reduce_skew() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skew_shows_up_in_metrics() {
        let inputs: Vec<u32> = (0..300).collect();
        let result = try_run_job(
            &cfg(),
            inputs,
            |x, emit| emit(x, ()),
            |&k, _| usize::from(k >= 280), // 280 vs 20: heavy skew
            |k, _, out| out.push(*k),
            &FaultInjector::none(),
        )
        .expect("job runs");
        assert!(result.metrics.reduce_skew() > 1.5);
    }

    #[test]
    fn empty_input_produces_empty_result() {
        let result = try_run_job(
            &cfg(),
            Vec::<u64>::new(),
            |x, emit| emit(x, x),
            hash_partition,
            |_, vs, out: &mut Vec<u64>| out.extend(vs),
            &FaultInjector::none(),
        )
        .expect("job runs");
        assert!(result.outputs.is_empty());
        assert_eq!(result.metrics.shuffle_bytes, 0);
    }

    #[test]
    fn reducer_sees_all_values_of_a_key_together() {
        let inputs: Vec<u64> = (0..50).collect();
        let result = try_run_job(
            &cfg(),
            inputs,
            |x, emit| emit((), x),
            hash_partition,
            |_, vs, out| {
                assert_eq!(vs.len(), 50, "single key gathers everything");
                out.push(vs.iter().sum::<u64>());
            },
            &FaultInjector::none(),
        )
        .expect("job runs");
        assert_eq!(result.outputs, vec![(0..50).sum::<u64>()]);
    }

    #[test]
    fn splits_are_balanced() {
        let s = make_splits((0..10).collect::<Vec<_>>(), 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], vec![0, 1, 2, 3]);
        assert_eq!(s[2], vec![8, 9]);
        assert!(make_splits(Vec::<u8>::new(), 4).is_empty());
        assert_eq!(make_splits(vec![1], 4).len(), 1);
    }

    #[test]
    fn partitioner_out_of_range_is_a_typed_error() {
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
        assert!(err.to_string().contains("partitioner returned 7"));
    }

    #[test]
    fn out_of_range_partitioner_is_fatal_despite_retry_budget() {
        // Deterministic failure: retries must NOT be burned on it.
        let injector = FaultInjector::none();
        let err = try_run_job(
            &JobConfig::named("oob").with_workers(1).with_reducers(2).with_max_attempts(5),
            vec![1u64],
            |x, emit| emit(x, x),
            |_, n| n,
            |_, vs, out: &mut Vec<u64>| out.extend(vs),
            &injector,
        )
        .unwrap_err();
        assert!(matches!(err, JobError::PartitionerOutOfRange { .. }));
    }

    #[test]
    fn mapper_panic_surfaces_as_task_failed() {
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
            JobError::TaskFailed {
                task,
                attempts,
                message,
            } => {
                assert_eq!(task.phase, crate::fault::Phase::Map);
                assert_eq!(attempts, 1);
                assert!(message.contains("injected mapper failure"), "{message}");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn reducer_panic_surfaces_as_task_failed() {
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
                assert_eq!(task.phase, crate::fault::Phase::Reduce);
                assert!(message.contains("injected reducer failure"), "{message}");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn panicking_task_recovers_with_one_retry() {
        let injector = FaultInjector::new(FaultPlan::new().panic_on(TaskId::map(0), 0));
        let result = try_run_job(
            &JobConfig::named("retry").with_workers(2).with_reducers(2),
            (0..100u64).collect(),
            |x, emit| emit(x % 7, x),
            hash_partition,
            |k, vs, out| out.push((*k, vs.iter().sum::<u64>())),
            &injector,
        )
        .expect("job recovers");
        let mut outputs = result.outputs;
        outputs.sort_unstable();
        let mut expected: Vec<(u64, u64)> = (0..7u64)
            .map(|k| (k, (0..100u64).filter(|x| x % 7 == k).sum()))
            .collect();
        expected.sort_unstable();
        assert_eq!(outputs, expected);
        assert_eq!(result.metrics.map_tasks[0].attempts, 2);
        assert_eq!(result.metrics.map_tasks[0].failures, 1);
        assert_eq!(result.metrics.total_retries(), 1);
        assert_eq!(injector.delivered().len(), 1);
    }

    #[test]
    fn exhausted_attempts_fail_with_exact_counts() {
        let plan = FaultPlan::new()
            .panic_on(TaskId::map(0), 0)
            .transient(TaskId::map(0), 1)
            .panic_on(TaskId::map(0), 2);
        let injector = FaultInjector::new(plan);
        let err = try_run_job(
            &JobConfig::named("exhaust")
                .with_workers(1)
                .with_reducers(1)
                .with_max_attempts(3),
            vec![1u64, 2, 3],
            |x, emit| emit(x, x),
            hash_partition,
            |_, vs, out: &mut Vec<u64>| out.extend(vs),
            &injector,
        )
        .unwrap_err();
        // Three failures (panic, transient, panic) exhaust max_attempts=3;
        // the error carries the final failure's message.
        assert_eq!(
            err,
            JobError::TaskFailed {
                task: TaskId::map(0),
                attempts: 3,
                message: "injected panic on map[0] attempt 2".into(),
            }
        );
        assert_eq!(injector.delivered().len(), 3);
    }

    #[test]
    fn a_task_runs_all_its_attempts_on_one_thread() {
        let threads = std::sync::Mutex::new(Vec::new());
        let result = try_run_job(
            &JobConfig::named("inline")
                .with_workers(1)
                .with_reducers(1)
                .with_max_attempts(3),
            vec![1u64],
            |x, emit| {
                let mut seen = threads.lock().unwrap();
                seen.push(thread::current().id());
                if seen.len() < 3 {
                    drop(seen);
                    panic!("mapper attempt fails");
                }
                emit(x, x);
            },
            hash_partition,
            |_, vs, out: &mut Vec<u64>| out.extend(vs),
            &FaultInjector::none(),
        )
        .expect("the third attempt succeeds");
        assert_eq!(result.outputs, vec![1]);
        assert_eq!(result.metrics.map_tasks[0].attempts, 3);
        let seen = threads.into_inner().unwrap();
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|&t| t == seen[0]), "{seen:?}");
        assert_ne!(seen[0], thread::current().id(), "tasks run off the caller");
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let config = JobConfig::named("backoff").with_backoff(Duration::from_millis(10), 7);
        let t = TaskId::map(3);
        let d1 = backoff(&config, t, 1);
        let d2 = backoff(&config, t, 2);
        let d3 = backoff(&config, t, 3);
        assert_eq!(d1, backoff(&config, t, 1), "same inputs, same delay");
        assert!(d2 >= Duration::from_millis(20) && d2 < Duration::from_millis(30));
        assert!(d3 >= Duration::from_millis(40) && d3 < Duration::from_millis(50));
        assert!(d1 < d2 && d2 < d3);
        assert_ne!(
            backoff(&config, TaskId::map(0), 1),
            backoff(&config, TaskId::map(1), 1),
            "jitter decorrelates tasks"
        );
        let zero = config.with_backoff(Duration::ZERO, 7);
        assert_eq!(backoff(&zero, t, 3), Duration::ZERO);
    }
}
