//! Distributed-layer integration: the MapReduce pipelines agree with the
//! centralized algorithms, and the MapReduce runtime behaves like a
//! deterministic Hadoop stand-in.

use hamming_suite::bitcode::BinaryCode;
use hamming_suite::datagen::{generate, DatasetProfile};
use hamming_suite::distributed::pgbj::{try_pgbj_self_knn_join, PgbjConfig};
use hamming_suite::distributed::pipeline::{try_mrha_hamming_join, try_mrha_self_join, MrHaConfig};
use hamming_suite::distributed::pmh::try_pmh_hamming_join;
use hamming_suite::distributed::preprocess::preprocess;
use hamming_suite::distributed::{try_mrha_batch_select, try_mrha_knn_join, JoinOption};
use hamming_suite::hashing::SimilarityHasher;
use hamming_suite::index::select::nested_loop_join;
use hamming_suite::knn::exact_knn;
use hamming_suite::mapreduce::dfs::DEFAULT_BLOCK_RECORDS;
use hamming_suite::mapreduce::{
    hash_partition, try_run_job, FaultInjector, FaultPlan, InMemoryDfs, JobConfig, JobError,
    JobMetrics, TaskId,
};

fn dataset(n: usize, seed: u64, base: u64) -> Vec<(Vec<f64>, u64)> {
    generate(&DatasetProfile::tiny(12, 4), n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, base + i as u64))
        .collect()
}

fn cfg(option: JoinOption) -> MrHaConfig {
    MrHaConfig {
        partitions: 6,
        workers: 4,
        option,
        ..MrHaConfig::default()
    }
}

#[test]
fn mrha_options_and_pmh_all_agree_with_central_join() {
    // Same generator seed ⇒ overlapping distributions ⇒ non-empty join.
    let r = dataset(150, 81, 0);
    let s = dataset(180, 81, 100_000);
    let none = FaultInjector::none();
    let a = try_mrha_hamming_join(&r, &s, &cfg(JoinOption::A), &none).expect("MRHA-A runs");
    let b = try_mrha_hamming_join(&r, &s, &cfg(JoinOption::B), &none).expect("MRHA-B runs");
    let pmh = try_pmh_hamming_join(&r, &s, 10, &cfg(JoinOption::A), &none).expect("PMH runs");
    assert!(a.pairs.len() >= 100, "workload too sparse ({})", a.pairs.len());
    assert_eq!(a.pairs, b.pairs);
    assert_eq!(a.pairs, pmh.pairs);

    // Centralized reference under the same learned hash (same seed).
    let c = cfg(JoinOption::A);
    let pre = preprocess(&r, &s, c.sample_rate, c.code_len, c.partitions, c.seed);
    let rc: Vec<(BinaryCode, u64)> = r.iter().map(|(v, id)| (pre.hasher.hash(v), *id)).collect();
    let sc: Vec<(BinaryCode, u64)> = s.iter().map(|(v, id)| (pre.hasher.hash(v), *id)).collect();
    assert_eq!(a.pairs, nested_loop_join(&rc, &sc, c.h));
}

#[test]
fn traffic_ordering_matches_figure_7() {
    // MRHA-B ≤ MRHA-A < PMH on total traffic, even at test scale.
    let data = dataset(400, 83, 0);
    let none = FaultInjector::none();
    let a = try_mrha_self_join(&data, &cfg(JoinOption::A), &none).expect("MRHA-A runs");
    let b = try_mrha_self_join(&data, &cfg(JoinOption::B), &none).expect("MRHA-B runs");
    let pmh = try_pmh_hamming_join(&data, &data, 10, &cfg(JoinOption::A), &none).expect("PMH runs");
    let pgbj = try_pgbj_self_knn_join(
        &data,
        &PgbjConfig {
            num_pivots: 6,
            workers: 4,
            k: 10,
            ..PgbjConfig::default()
        },
        &none,
    )
    .expect("PGBJ runs");
    let (ta, tb, tp) = (
        a.metrics.total_traffic_bytes(),
        b.metrics.total_traffic_bytes(),
        pmh.metrics.total_traffic_bytes(),
    );
    assert!(tb < tp && ta < tp, "MRHA ({ta}/{tb}) below PMH ({tp})");
    // PGBJ ships raw vectors with replication: the heaviest shuffle.
    assert!(
        pgbj.metrics.shuffle_bytes > a.metrics.shuffle_bytes,
        "PGBJ {} vs MRHA-A {}",
        pgbj.metrics.shuffle_bytes,
        a.metrics.shuffle_bytes
    );
}

#[test]
fn pgbj_is_exact_for_knn() {
    let data = dataset(250, 84, 0);
    let outcome = try_pgbj_self_knn_join(
        &data,
        &PgbjConfig {
            num_pivots: 5,
            workers: 4,
            k: 4,
            ..PgbjConfig::default()
        },
        &FaultInjector::none(),
    )
    .expect("job runs");
    assert_eq!(outcome.neighbours.len(), 250);
    for (id, neigh) in outcome.neighbours.iter().step_by(17) {
        let (v, _) = &data[*id as usize];
        let rest: Vec<_> = data.iter().filter(|(_, o)| o != id).cloned().collect();
        let truth: Vec<u64> = exact_knn(&rest, v, 4).into_iter().map(|n| n.id).collect();
        let mut got = neigh.clone();
        let mut want = truth.clone();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "tuple {id}");
    }
}

#[test]
fn load_balance_beats_naive_hash_on_skewed_data() {
    // Heavily skewed profile: pivot partitioning must keep reduce skew low.
    let profile = DatasetProfile {
        skew: 1.6,
        ..DatasetProfile::tiny(12, 10)
    };
    let data: Vec<(Vec<f64>, u64)> = generate(&profile, 1_200, 85)
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, i as u64))
        .collect();
    let outcome =
        try_mrha_self_join(&data, &cfg(JoinOption::A), &FaultInjector::none()).expect("job runs");
    assert!(
        outcome.metrics.reduce_skew() < 3.0,
        "reduce skew {}",
        outcome.metrics.reduce_skew()
    );
}

#[test]
fn mapreduce_runtime_roundtrip_via_dfs() {
    // A two-job pipeline chained through the DFS, the Figure 5 shape.
    let dfs = InMemoryDfs::new();
    dfs.put_with_blocks("input/r", (0..1000u64).collect(), 128, 8);
    assert_eq!(dfs.block_count("input/r"), 8);

    // Job 1: square every record, write back.
    let job1 = try_run_job(
        &JobConfig::named("square").with_workers(4).with_reducers(4),
        dfs.try_get::<u64>("input/r").expect("written above"),
        |x, emit| emit(x % 4, x * x),
        hash_partition,
        |_, vs, out: &mut Vec<u64>| out.extend(vs),
        &FaultInjector::none(),
    )
    .expect("job runs");
    dfs.put_with_blocks("tmp/squares", job1.outputs, DEFAULT_BLOCK_RECORDS, 0);

    // Job 2: global sum.
    let job2 = try_run_job(
        &JobConfig::named("sum").with_workers(4).with_reducers(1),
        dfs.try_get::<u64>("tmp/squares").expect("written above"),
        |x, emit| emit((), x),
        hash_partition,
        |_, vs, out: &mut Vec<u64>| out.push(vs.iter().sum()),
        &FaultInjector::none(),
    )
    .expect("job runs");
    let want: u64 = (0..1000u64).map(|x| x * x).sum();
    assert_eq!(job2.outputs, vec![want]);
    assert!(job1.metrics.shuffle_bytes > 0 && job2.metrics.shuffle_bytes > 0);
}

#[test]
fn self_join_pairs_symmetric_clean() {
    let data = dataset(200, 86, 0);
    let outcome =
        try_mrha_self_join(&data, &cfg(JoinOption::A), &FaultInjector::none()).expect("job runs");
    let mut seen = std::collections::HashSet::new();
    for (a, b) in &outcome.pairs {
        assert!(a < b, "ordered pairs only");
        assert!(seen.insert((*a, *b)), "no duplicates");
    }
}

/// An entry point under test: its output rendered for byte comparison,
/// plus the metrics of every job it ran.
type EntryPoint<'a> = Box<dyn Fn(&FaultInjector) -> Result<(String, JobMetrics), JobError> + 'a>;

/// Every `ha-distributed` entry point is a `try_*` function, so each must
/// hide recoverable task failures completely and fail closed on the rest.
/// The plans name task ids, so they fire in every job the entry point runs.
#[test]
fn every_distributed_entry_point_recovers_invisibly_and_fails_closed() {
    let r = dataset(60, 87, 0);
    let s = dataset(70, 87, 100_000);
    let queries: Vec<Vec<f64>> = s.iter().step_by(10).map(|(v, _)| v.clone()).collect();
    let c = |option| MrHaConfig {
        partitions: 3,
        workers: 2,
        ..cfg(option)
    };
    let pgbj = PgbjConfig {
        num_pivots: 3,
        workers: 2,
        k: 3,
        ..PgbjConfig::default()
    };
    let entry_points: Vec<(&str, EntryPoint)> = vec![
        (
            "mrha_hamming_join A",
            Box::new(|f| {
                try_mrha_hamming_join(&r, &s, &c(JoinOption::A), f)
                    .map(|o| (format!("{:?}", o.pairs), o.metrics))
            }),
        ),
        (
            "mrha_hamming_join B",
            Box::new(|f| {
                try_mrha_hamming_join(&r, &s, &c(JoinOption::B), f)
                    .map(|o| (format!("{:?}", o.pairs), o.metrics))
            }),
        ),
        (
            "mrha_self_join",
            Box::new(|f| {
                try_mrha_self_join(&r, &c(JoinOption::A), f)
                    .map(|o| (format!("{:?}", o.pairs), o.metrics))
            }),
        ),
        (
            "mrha_knn_join",
            Box::new(|f| {
                try_mrha_knn_join(&r, &s, 3, &c(JoinOption::A), f)
                    .map(|o| (format!("{:?}", o.neighbours), o.metrics))
            }),
        ),
        (
            "mrha_batch_select",
            Box::new(|f| {
                try_mrha_batch_select(&s, &queries, &c(JoinOption::A), f)
                    .map(|o| (format!("{:?}", o.hits), o.metrics))
            }),
        ),
        (
            "pmh_hamming_join",
            Box::new(|f| {
                try_pmh_hamming_join(&r, &s, 4, &c(JoinOption::A), f)
                    .map(|o| (format!("{:?}", o.pairs), o.metrics))
            }),
        ),
        (
            "pgbj_self_knn_join",
            Box::new(|f| {
                try_pgbj_self_knn_join(&r, &pgbj, f)
                    .map(|o| (format!("{:?}", o.neighbours), o.metrics))
            }),
        ),
    ];

    for (name, run) in &entry_points {
        let (clean, clean_metrics) = run(&FaultInjector::none()).expect("fault-free run");
        assert_eq!(clean_metrics.total_retries(), 0, "{name}");

        // (a) The first attempt of map[0] and reduce[0] panics in every job.
        let once = FaultPlan::new()
            .panic_on(TaskId::map(0), 0)
            .panic_on(TaskId::reduce(0), 0);
        let (recovered, metrics) = run(&FaultInjector::new(once)).expect("recovers");
        assert_eq!(recovered, clean, "{name}: recovery must be invisible");
        assert!(metrics.total_retries() > 0, "{name}: no fault fired");

        // (b) map[0] panics on both of its attempts: a typed error, and
        // the panic never reaches the caller.
        let twice = FaultPlan::new()
            .panic_on(TaskId::map(0), 0)
            .panic_on(TaskId::map(0), 1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(&FaultInjector::new(twice))
        }))
        .unwrap_or_else(|_| panic!("{name}: a task panic escaped"));
        match outcome {
            Err(JobError::TaskFailed {
                task, attempts: 2, ..
            }) => {
                assert_eq!(task, TaskId::map(0), "{name}")
            }
            other => panic!("{name}: expected TaskFailed after 2 attempts, got {other:?}"),
        }
    }
}
