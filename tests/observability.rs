//! HA-Trace ↔ legacy-metrics equivalence: the "no parallel truth" rule.
//!
//! Every subsystem keeps its own typed metrics (`JobMetrics`,
//! `DfsMetrics`, `ServeMetrics`); the observability registry mirrors
//! them through `ha_obs::add`/`observe` hooks at the same call sites.
//! If the two ever disagree, one of them is lying. These tests run
//! seeded chaos workloads (injected task faults, corrupted replicas, a
//! mixed serving workload) with tracing enabled and assert the registry
//! totals equal the legacy counters **exactly** — not approximately.
//!
//! They also pin the structural guarantees the `trace` experiment relies
//! on: phase spans nest under the job root and account for its wall
//! time, and the JSON-lines export is one well-formed object per line.
//!
//! Tracing state is process-global, so every test serialises on one
//! mutex and starts from `ha_obs::reset()`.

use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard, PoisonError};

use hamming_suite::bitcode::segment::Segmentation;
use hamming_suite::bitcode::BinaryCode;
use hamming_suite::datagen::{generate, DatasetProfile};
use hamming_suite::distributed::pipeline::{try_mrha_hamming_join_on_dfs, MrHaConfig};
use hamming_suite::hashing::{SimilarityHasher, SpectralHasher};
use hamming_suite::index::planner::{PlanConfig, PlannedIndex};
use hamming_suite::index::testkit::{clustered_dataset, random_dataset};
use hamming_suite::index::{Backend, CostModel, HammingIndex, MihIndex};
use hamming_suite::mapreduce::dfs::DEFAULT_BLOCK_RECORDS;
use hamming_suite::mapreduce::{
    hash_partition, try_run_job, DfsConfig, FaultInjector, FaultPlan, InMemoryDfs, JobConfig,
    StorageFaultPlan, TaskId,
};
use hamming_suite::obs;
use hamming_suite::service::{HaServe, ServeConfig};

/// Serialises tests touching the process-global collector. Poisoning is
/// absorbed: a failed test must not cascade into the rest of the suite.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Word-count inputs with enough lines for several map tasks.
fn lines() -> Vec<String> {
    vec![
        "the quick brown fox jumps over the lazy dog".to_string(),
        "pack my box with five dozen liquor jugs".to_string(),
        "how vexingly quick daft zebras jump".to_string(),
        "sphinx of black quartz judge my vow".to_string(),
    ]
}

fn word_count_job(
    config: &JobConfig,
    injector: &FaultInjector,
) -> hamming_suite::mapreduce::JobResult<(String, u64)> {
    try_run_job(
        config,
        lines(),
        |line: String, emit: &mut dyn FnMut(String, u64)| {
            for word in line.split_whitespace() {
                emit(word.to_string(), 1);
            }
        },
        hash_partition,
        |word: &String, counts: Vec<u64>, out: &mut Vec<(String, u64)>| {
            out.push((word.clone(), counts.into_iter().sum::<u64>()));
        },
        injector,
    )
    .expect("job succeeds despite transient faults")
}

#[test]
fn registry_mirrors_job_metrics_under_faults() {
    let _guard = obs_lock();
    obs::reset();

    let injector = FaultInjector::new(
        FaultPlan::new()
            .transient(TaskId::map(0), 0)
            .transient(TaskId::reduce(1), 0),
    );
    let config = JobConfig::named("obs-equivalence")
        .with_workers(2)
        .with_reducers(3);
    let result = word_count_job(&config, &injector);
    let metrics = &result.metrics;

    let trace = obs::take_trace();
    obs::disable();

    // Counter ↔ JobMetrics equivalence, field by field.
    assert_eq!(trace.counter("mr.jobs"), 1);
    assert_eq!(trace.counter("mr.map_tasks"), metrics.map_tasks.len() as u64);
    assert_eq!(
        trace.counter("mr.reduce_tasks"),
        metrics.reduce_tasks.len() as u64
    );
    assert_eq!(
        trace.counter("mr.shuffle_bytes"),
        metrics.shuffle_bytes as u64
    );
    assert_eq!(
        trace.counter("mr.shuffle_bytes/obs-equivalence"),
        metrics.shuffle_bytes as u64
    );
    assert_eq!(
        trace.counter("mr.task_attempts"),
        u64::from(metrics.total_attempts())
    );
    assert_eq!(
        trace.counter("mr.task_failures"),
        u64::from(metrics.total_failures())
    );
    // The chaos actually fired: both injected transients were recorded.
    assert_eq!(metrics.total_failures(), 2);

    // Latency histograms sample exactly once per completed task.
    assert_eq!(
        trace.metrics.histogram("mr.map_task_ns").count(),
        metrics.map_tasks.len() as u64
    );
    assert_eq!(
        trace.metrics.histogram("mr.reduce_task_ns").count(),
        metrics.reduce_tasks.len() as u64
    );

    // One launch event per attempt, exactly mirroring the attempt count.
    let attempt_events = trace
        .events
        .iter()
        .filter(|e| matches!(e.event, obs::Event::TaskAttempt { .. }))
        .count();
    assert_eq!(attempt_events as u64, u64::from(metrics.total_attempts()));
}

#[test]
fn registry_mirrors_dfs_metrics_under_storage_faults() {
    let _guard = obs_lock();
    obs::reset();

    // Every block's primary replica is corrupt: each read must detect
    // the bad checksum, fail over, serve degraded, and re-replicate.
    let dfs = InMemoryDfs::with_faults(
        DfsConfig::default(),
        StorageFaultPlan::new().corrupt_primaries_everywhere(),
    );
    let records: Vec<u64> = (0..10).collect();
    dfs.put_with_blocks("codes", records.clone(), 3, 8);
    let splits = dfs.try_splits::<u64>("codes").expect("degraded read succeeds");
    assert_eq!(splits.concat(), records);

    let metrics = dfs.metrics();
    let trace = obs::take_trace();
    obs::disable();

    assert_eq!(
        trace.counter("dfs.bytes_written"),
        metrics.bytes_written as u64
    );
    assert_eq!(
        trace.counter("dfs.corrupt_blocks_detected"),
        metrics.corrupt_blocks_detected
    );
    assert_eq!(trace.counter("dfs.failovers"), metrics.failovers);
    assert_eq!(trace.counter("dfs.degraded_reads"), metrics.degraded_reads);
    assert_eq!(
        trace.counter("dfs.re_replications"),
        metrics.re_replications
    );
    // The chaos actually fired: 10 records at 3 per block is 4 blocks,
    // each with a corrupt primary.
    assert_eq!(metrics.corrupt_blocks_detected, 4);
    assert_eq!(metrics.degraded_reads, 4);

    // The write and the read each left a labelled span.
    assert_eq!(trace.count_named("dfs.write"), 1);
    assert_eq!(trace.count_named("dfs.read"), 1);
}

#[test]
fn registry_mirrors_serve_metrics() {
    let _guard = obs_lock();
    obs::reset();

    let codes: Vec<(BinaryCode, u64)> =
        (0..512).map(|i| (BinaryCode::from_u64(i, 32), i)).collect();
    let serve =
        HaServe::build(32, codes, ServeConfig::default()).expect("service builds");

    let query = BinaryCode::from_u64(5, 32);
    let first = serve.select(&query, 2).expect("select");
    let second = serve.select(&query, 2).expect("repeat select");
    assert_eq!(first, second); // epoch unchanged → guaranteed cache hit
    serve.knn(&query, 7).expect("knn");
    serve.insert(BinaryCode::from_u64(900, 32), 900).expect("insert");
    serve.select(&query, 2).expect("post-insert select"); // epoch bumped → miss
    assert!(serve.delete(&BinaryCode::from_u64(900, 32), 900).expect("delete"));

    let m = serve.metrics();
    // Joining the workers guarantees every registry hook has run.
    drop(serve);
    let trace = obs::take_trace();
    obs::disable();

    assert_eq!(trace.counter("serve.selects"), m.selects);
    assert_eq!(trace.counter("serve.cache_hits"), m.cache_hits);
    assert_eq!(trace.counter("serve.cache_misses"), m.cache_misses);
    assert_eq!(trace.counter("serve.batches_formed"), m.batches_formed);
    assert_eq!(trace.counter("serve.inserts"), m.inserts);
    assert_eq!(trace.counter("serve.deletes"), m.deletes);
    assert_eq!(trace.counter("serve.knns"), m.knns);
    assert_eq!(trace.counter("serve.rejected"), m.rejected);
    // The workload shape itself: 3 selects, exactly 1 served from cache.
    assert_eq!(m.selects, 3);
    assert_eq!(m.cache_hits, 1);
    assert_eq!(m.knns, 1);

    // Each executed batch probes every shard once.
    assert_eq!(
        trace.metrics.histogram("serve.shard_probe_ns").count(),
        m.batches_formed * 4
    );
    // Queue wait is observed for every batch (selects and the knn).
    assert!(trace.metrics.histogram("serve.queue_wait_ns").count() >= m.batches_formed);
}

/// The executor names: a service records the group kernel this process
/// dispatches to once at build, and a cache-missed select over 4 shards
/// is one `exec.fan_out` span of 4 tasks — unless `fan_out` keeps the
/// probes inline.
#[test]
fn serve_fan_out_reports_kernel_span_and_tasks() {
    let _guard = obs_lock();
    let codes: Vec<(BinaryCode, u64)> =
        (0..256).map(|i| (BinaryCode::from_u64(i, 32), i)).collect();
    let kernel = format!("exec.kernel.{}", hamming_suite::bitcode::Kernel::detect().name());
    for fan_out in [2usize, 1] {
        obs::reset();
        let cfg = ServeConfig { workers: 0, shards: 4, fan_out, ..ServeConfig::default() };
        let serve = HaServe::build(32, codes.clone(), cfg).expect("service builds");
        serve.select(&BinaryCode::from_u64(5, 32), 2).expect("select");
        drop(serve);
        let trace = obs::take_trace();
        obs::disable();

        assert_eq!(trace.counter(&kernel), 1, "fan_out={fan_out}");
        if fan_out > 1 {
            assert_eq!(trace.count_named("exec.fan_out"), 1);
            assert_eq!(trace.counter("exec.parallel_fanouts"), 1);
            assert_eq!(trace.counter("exec.tasks"), 4);
        } else {
            assert_eq!(trace.count_named("exec.fan_out"), 0);
            assert_eq!(trace.counter("exec.tasks"), 0);
        }
    }
}

#[test]
fn job_phase_spans_account_for_job_wall_time() {
    let _guard = obs_lock();
    obs::reset();

    let config = JobConfig::named("obs-accounting")
        .with_workers(2)
        .with_reducers(2);
    word_count_job(&config, &FaultInjector::none());

    let trace = obs::take_trace();
    obs::disable();

    let root = trace
        .spans
        .iter()
        .find(|s| s.name == "mr.job")
        .expect("job root span");
    let phases: Vec<_> = trace
        .children(root.id)
        .into_iter()
        .filter(|s| {
            matches!(s.name, "mr.map_phase" | "mr.shuffle" | "mr.reduce_phase")
        })
        .collect();
    assert_eq!(phases.len(), 3, "all three phases nest under the job root");

    // Phases run sequentially inside the root, so their durations sum to
    // at most the root's — and, the supervisor doing little else, to at
    // least half of it even on a noisy CI box.
    let root_ns = root.end_ns - root.start_ns;
    let phase_ns: u64 = phases.iter().map(|s| s.end_ns - s.start_ns).sum();
    assert!(phase_ns <= root_ns, "children cannot outlast their parent");
    assert!(
        phase_ns * 2 >= root_ns,
        "phases cover {phase_ns}ns of a {root_ns}ns job — accounting hole"
    );

    // Task spans parent under their phase, not under the root, even
    // though they run on worker threads (cross-thread span_under).
    let map_phase = phases.iter().find(|s| s.name == "mr.map_phase").expect("map phase");
    let map_tasks: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == "mr.map_task")
        .collect();
    assert!(!map_tasks.is_empty());
    assert!(map_tasks.iter().all(|s| s.parent == Some(map_phase.id)));
}

#[test]
fn json_lines_export_is_one_object_per_line() {
    let _guard = obs_lock();
    obs::reset();

    let config = JobConfig::named("obs-json").with_workers(2).with_reducers(2);
    word_count_job(&config, &FaultInjector::none());

    let trace = obs::take_trace();
    obs::disable();

    let text = trace.to_json_lines();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        trace.spans.len() + trace.events.len() + trace.metrics.counters.len()
            + trace.metrics.histograms.len(),
        "one line per span, event, counter, and histogram"
    );
    for line in &lines {
        assert!(
            line.starts_with("{\"type\":\"") && line.ends_with('}'),
            "malformed JSON line: {line}"
        );
    }
    for kind in ["span", "event", "counter", "histogram"] {
        assert!(
            lines.iter().any(|l| l.starts_with(&format!("{{\"type\":\"{kind}\""))),
            "no {kind} line in the export"
        );
    }
}

/// The MIH probe funnel (the quantities Norouzi et al. explain MIH's
/// sub-linear behaviour with): `mih.probes` is exactly the query-
/// independent probe budget, every candidate is either a dedup hit or
/// verified, and on an all-direct index `mih.candidates` is exactly the
/// rows whose chunk value lies within the chunk's probe radius — the
/// bucket sizes of the probed values, counted by brute force.
#[test]
fn mih_counters_report_the_probe_funnel() {
    let _guard = obs_lock();
    let data = random_dataset(2_000, 64, 3);
    let mih = MihIndex::build(64, data.clone());
    let queries: Vec<&BinaryCode> = data.iter().step_by(100).map(|(c, _)| c).collect();
    let h = 2 * mih.chunks() as u32; // every table probed: stored codes dedup
    assert!(!mih.would_scan(h));

    obs::reset();
    let answers: usize = queries.iter().map(|q| mih.search(q, h).len()).sum();
    let trace = obs::take_trace();
    obs::disable();

    let per_query = mih.probe_estimate(h);
    assert_eq!(trace.counter("mih.probes"), per_query * queries.len() as u64);
    let (candidates, dedup, verified) = (
        trace.counter("mih.candidates"),
        trace.counter("mih.dedup_hits"),
        trace.counter("mih.verified"),
    );
    assert_eq!(candidates, dedup + verified);
    let seg = Segmentation::new(64, mih.chunks());
    let m = mih.chunks() as u32;
    let mut bucket_rows = 0u64;
    for k in 0..mih.chunks() {
        // Direct-addressed: more than 2^(w−4) distinct values (mih.rs).
        let values: HashSet<u64> = data.iter().map(|(c, _)| seg.extract(c, k)).collect();
        assert!(values.len() > 1 << (seg.bounds(k).1 - 4), "chunk {k} is direct");
        let radius = if k as u32 <= h % m { h / m } else { h / m - 1 };
        for q in &queries {
            let value = seg.extract(q, k);
            let near = |(c, _): &&(BinaryCode, u64)| (seg.extract(c, k) ^ value).count_ones();
            bucket_rows += data.iter().filter(|item| near(item) <= radius).count() as u64;
        }
    }
    assert_eq!(candidates, bucket_rows);
    // A stored code sits in its own bucket of every probed table.
    assert!(dedup >= (mih.chunks() as u64 - 1) * queries.len() as u64);
    assert!(verified >= answers as u64);
}

/// kNN's expansion is visible: one served kNN is one `core.knn.queries`,
/// and its probe rounds land in `core.knn.rounds`. Codes 0..512 hold 1
/// code at distance 0 from code 0, 10 within 1 and 46 within 2, so
/// k = 40 needs radii 0, 1 and 2.
#[test]
fn knn_counters_report_the_expansion_rounds() {
    let _guard = obs_lock();
    let codes: Vec<(BinaryCode, u64)> =
        (0..512).map(|i| (BinaryCode::from_u64(i, 32), i)).collect();
    let serve = HaServe::build(32, codes, ServeConfig::default()).expect("service builds");

    obs::reset();
    let near = serve.knn(&BinaryCode::from_u64(0, 32), 40).expect("knn");
    drop(serve);
    let trace = obs::take_trace();
    obs::disable();

    assert_eq!(near.len(), 40);
    assert_eq!(trace.count_named("serve.knn"), 1);
    assert_eq!(trace.counter("core.knn.queries"), 1);
    assert!(trace.counter("core.knn.rounds") >= 3, "k = 40 needs radii 0, 1 and 2");
}

/// The join's probe route is visible from the running system: every S
/// probe of the DFS pipeline's Option A is tallied under exactly one
/// `distributed.join.route.<backend>` counter, and the probe side's
/// set-up (decode + MIH derive + freeze-if-needed) is one span inside
/// the join phase.
#[test]
fn join_route_counters_account_for_every_probe() {
    let _guard = obs_lock();
    let tuples = |seed: u64, base: u64| -> Vec<(Vec<f64>, u64)> {
        generate(&DatasetProfile::tiny(10, 3), 150, seed)
            .into_iter()
            .zip(base..)
            .collect()
    };
    let (r, s) = (tuples(61, 0), tuples(61, 10_000));
    let dfs = InMemoryDfs::new();
    dfs.put_with_blocks("in/r", r, DEFAULT_BLOCK_RECORDS, 0);
    dfs.put_with_blocks("in/s", s.clone(), DEFAULT_BLOCK_RECORDS, 0);
    let cfg = MrHaConfig { partitions: 3, workers: 2, ..MrHaConfig::default() };

    obs::reset();
    let outcome = try_mrha_hamming_join_on_dfs(
        &dfs,
        "in/r",
        "in/s",
        "out/pairs",
        &cfg,
        &FaultInjector::none(),
    )
    .expect("job runs");
    let trace = obs::take_trace();
    obs::disable();

    assert!(!outcome.pairs.is_empty());
    let routed: u64 = ["ha-flat", "arena-bfs", "mih", "linear"]
        .iter()
        .map(|b| trace.counter(&format!("distributed.join.route.{b}")))
        .sum();
    assert_eq!(routed, s.len() as u64, "one route per S probe");
    assert_eq!(trace.count_named("distributed.join.probe_setup"), 1);
    let setup = trace.last_named("distributed.join.probe_setup").expect("probe set-up span");
    let join = trace.last_named("pipeline.join").expect("join phase span");
    assert_eq!(setup.parent, Some(join.id));
}

/// A build is phases, not one number: every `PlannedIndex::build_with`
/// is one `core.plan.build` span whose children are its phases, each
/// exactly once and inside the build. `core.plan.mih` and
/// `core.plan.profile` run on two threads and may overlap in time (or
/// not: a one-core host may run them one after the other); both end
/// before anything after them starts. `core.plan.profile` holds H-Build's
/// rank sort, which every build takes. Where the flat layout can win
/// (clustered codes, default model), the rest of H-Build and the freeze
/// follow in the build, one after another — H-Build over a build forest
/// compiled straight to the snapshot, no arena; where it cannot (a model
/// pricing flat out, as the default one does on 10⁵-row random sets), the
/// build ends after the profile, and the snapshot is built on first
/// demand as one `core.plan.materialize` span holding `core.hbuild.*` and
/// `core.plan.freeze` in order. Either way the arena is built only when
/// the arena backend asks for it: one more `core.plan.materialize`,
/// holding `core.hbuild.*` and no freeze. Both rank paths of H-Build (64
/// and 128 bits) are covered.
#[test]
fn planned_build_spans_split_the_build_into_phases() {
    const EAGER: [&[&str]; 4] = [
        &["core.plan.mih", "core.plan.profile"],
        &["core.hbuild.leaves"],
        &["core.hbuild.levels"],
        &["core.plan.freeze"],
    ];
    const DEFERRED: [&[&str]; 1] = [&["core.plan.mih", "core.plan.profile"]];
    const MATERIALIZE: [&[&str]; 4] = [
        &["core.hbuild.rank_sort"],
        &["core.hbuild.leaves"],
        &["core.hbuild.levels"],
        &["core.plan.freeze"],
    ];
    const ARENA: [&[&str]; 3] =
        [&["core.hbuild.rank_sort"], &["core.hbuild.leaves"], &["core.hbuild.levels"]];
    let _guard = obs_lock();
    // `parent`'s children are exactly the phases of `stages`, each once
    // and inside `parent`; every phase of a stage ends before any phase
    // of the next stage starts. Phases of one stage may overlap.
    let staged = |trace: &obs::Trace, parent: &obs::SpanRecord, stages: &[&[&str]]| {
        let children = trace.children(parent.id);
        assert_eq!(children.len(), stages.concat().len(), "{}: {children:?}", parent.name);
        let phase = |name: &str| {
            let found: Vec<_> = children.iter().filter(|s| s.name == name).collect();
            assert_eq!(found.len(), 1, "{name} once under {}", parent.name);
            let span = found[0];
            assert!(
                parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns,
                "{name} lies inside {}",
                parent.name
            );
            span
        };
        for name in stages.concat() {
            phase(name);
        }
        for pair in stages.windows(2) {
            for before in pair[0] {
                for after in pair[1] {
                    assert!(
                        phase(before).end_ns <= phase(after).start_ns,
                        "{before} ends before {after} starts under {}",
                        parent.name
                    );
                }
            }
        }
    };
    for bits in [64usize, 128] {
        for (clustered, stages) in [(true, &EAGER[..]), (false, &DEFERRED[..])] {
            let (items, cfg) = if clustered {
                (clustered_dataset(3_000, bits, 3, 2, 5), PlanConfig::default())
            } else {
                let model = CostModel {
                    flat_row_h_ns: 100.0,
                    arena_row_h_ns: 200.0,
                    ..CostModel::default()
                };
                (random_dataset(3_000, bits, 5), PlanConfig { model, ..PlanConfig::default() })
            };
            let query = items[0].0.clone();
            obs::reset();
            let index = PlannedIndex::build_with(bits, items, cfg);
            let trace = obs::take_trace();
            let build = trace.last_named("core.plan.build").expect("a build span");
            assert_eq!(build.parent, None);
            assert_eq!(trace.count_named("core.plan.build"), 1, "one span per build");
            staged(&trace, build, stages);
            let profile = trace.last_named("core.plan.profile").expect("a profile span");
            staged(&trace, profile, &[&["core.hbuild.rank_sort"]]);
            let phases = stages.concat().len();
            assert_eq!(trace.spans.len(), phases + 2, "bits={bits} clustered={clustered}");

            // Asking for the snapshot builds a deferred HA-Index, once.
            assert!(index.store_bytes().is_some());
            index.store_bytes();
            let trace = obs::take_trace();
            if clustered {
                assert!(trace.spans.is_empty(), "an eager build has nothing left to build");
            } else {
                assert_eq!(trace.count_named("core.plan.materialize"), 1);
                let materialize = trace.last_named("core.plan.materialize").expect("span");
                assert_eq!(materialize.parent, None);
                staged(&trace, materialize, &MATERIALIZE);
            }

            // Forcing the arena backend builds the arena, once.
            for _ in 0..2 {
                assert!(index.search_with_backend(Backend::ArenaBfs, &query, 2).is_some());
            }
            let trace = obs::take_trace();
            assert_eq!(trace.count_named("core.plan.materialize"), 1);
            let materialize = trace.last_named("core.plan.materialize").expect("span");
            assert_eq!(materialize.parent, None);
            staged(&trace, materialize, &ARENA);
        }
    }
    obs::disable();
}

/// A durable service whose planner cannot route to the flat layout
/// builds no HA-Index at any point of its life: bootstrap, a merge and
/// recovery each run one `PlannedIndex::build_with` per shard they build,
/// and the only H-Build step in the trace is the rank sort the profile
/// takes. Generations persist their rows, so publishing one asks for no
/// snapshot: no leaves, levels, freeze or deferred materialisation.
#[test]
fn durable_generations_build_no_ha_index_the_planner_cannot_route_to() {
    let _guard = obs_lock();
    let model = CostModel { flat_row_h_ns: 100.0, arena_row_h_ns: 200.0, ..CostModel::default() };
    let cfg = ServeConfig { workers: 0, shards: 2, model, ..ServeConfig::default() };
    let items = random_dataset(3_000, 64, 7);
    let dfs = std::sync::Arc::new(InMemoryDfs::new());
    obs::reset();
    let serve = HaServe::bootstrap_durable(&dfs, "/srv", 64, items.clone(), cfg.clone())
        .expect("bootstrap");
    let fresh = BinaryCode::from_u64(0x5eed, 64);
    serve.insert(fresh.clone(), 90_000).expect("insert");
    assert!(serve.merge_now(serve.shard_of(&fresh)).expect("merge"), "one merge publishes");
    drop(serve);
    let recovered = HaServe::recover(&dfs, "/srv", cfg).expect("recover");
    assert_eq!(recovered.len(), items.len() + 1);
    assert_eq!(recovered.select(&fresh, 0).expect("select"), vec![90_000]);
    let trace = obs::take_trace();
    obs::disable();

    // Two bootstrap shards, one merge, two recovered shards.
    assert_eq!(trace.count_named("core.plan.build"), 5);
    for span in &trace.spans {
        assert!(
            !matches!(span.name, "core.plan.freeze" | "core.plan.materialize"),
            "{} ran in a durable life cycle that never routes flat",
            span.name
        );
        if span.name.starts_with("core.hbuild.") {
            assert_eq!(span.name, "core.hbuild.rank_sort", "H-Build ran");
            let parent = trace.spans.iter().find(|p| Some(p.id) == span.parent);
            assert_eq!(parent.map(|p| p.name), Some("core.plan.profile"));
        }
    }
}

/// Learning a hash is visible: one traced `SpectralHasher::fit` is one
/// `hashing.fit` root span holding `hashing.fit.covariance`,
/// `hashing.fit.eigen` and `hashing.fit.ranges` once each, run one after
/// another inside it. Encoding records nothing per vector.
#[test]
fn spectral_fit_spans_split_the_fit_into_phases() {
    const PHASES: [&str; 3] = [
        "hashing.fit.covariance",
        "hashing.fit.eigen",
        "hashing.fit.ranges",
    ];
    let _guard = obs_lock();
    let data = generate(&DatasetProfile::tiny(24, 4), 400, 3);

    obs::reset();
    let hasher = SpectralHasher::fit_vectors(&data, 32, 32);
    for v in &data {
        hasher.hash(v);
    }
    let trace = obs::take_trace();
    obs::disable();

    let fit = trace.last_named("hashing.fit").expect("a hashing.fit span");
    assert_eq!(fit.parent, None);
    assert_eq!(trace.count_named("hashing.fit"), 1);
    let children = trace.children(fit.id);
    for phase in PHASES {
        assert_eq!(
            children.iter().filter(|s| s.name == phase).count(),
            1,
            "{phase} once under the fit"
        );
    }
    let phase_ns: u64 = children.iter().map(|s| s.end_ns - s.start_ns).sum();
    assert!(
        phase_ns <= fit.end_ns - fit.start_ns,
        "phases outlast their fit"
    );
    assert_eq!(
        trace.spans.len(),
        1 + PHASES.len(),
        "no span per encoded vector"
    );
}

// Cheap sanity for the equivalence tests above: a job run with tracing
// *disabled* must leave the registry untouched when tracing is turned on
// afterwards — hooks are genuinely gated, not buffered.
#[test]
fn disabled_tracing_records_nothing() {
    let _guard = obs_lock();
    obs::disable();

    let config = JobConfig::named("obs-off").with_workers(2).with_reducers(2);
    let result = try_run_job(
        &config,
        lines(),
        |line: String, emit: &mut dyn FnMut(String, u64)| {
            for word in line.split_whitespace() {
                emit(word.to_string(), 1);
            }
        },
        hash_partition,
        |word: &String, counts: Vec<u64>, out: &mut Vec<(String, u64)>| {
            out.push((word.clone(), counts.into_iter().sum::<u64>()));
        },
        &FaultInjector::none(),
    )
    .expect("job runs");
    assert!(!result.outputs.is_empty());

    obs::reset();
    let trace = obs::take_trace();
    obs::disable();
    assert!(trace.spans.is_empty());
    assert!(trace.events.is_empty());
    assert_eq!(trace.counter("mr.jobs"), 0);
}
