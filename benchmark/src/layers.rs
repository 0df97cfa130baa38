//! Every call the benchmark makes into the program, and nothing else.
//! This file is the surface a refactor of the program has to keep (or
//! precede with its own benchmark change); the list of symbols is
//! repeated in the README. Each call that a workload times is wrapped in
//! a span named `<layer>.<operation>`.
//!
//! Imports go through the `hamming_suite::` facade only.

use std::sync::Arc;
use std::time::Duration;

use hamming_suite::bitcode::{masked_distance_group, BinaryCode, GroupLayout, Kernel};
use hamming_suite::distributed::{
    try_mrha_hamming_join, try_mrha_hamming_join_on_dfs, JoinOption, JoinOutcome, MrHaConfig,
};
use hamming_suite::hashing::{SimilarityHasher, SpectralHasher};
use hamming_suite::index::planner::PlannedIndex;
use hamming_suite::index::{Backend, DynamicHaIndex, HammingIndex, MihIndex};
use hamming_suite::mapreduce::TaskMetrics;
use hamming_suite::mapreduce::{FaultInjector, InMemoryDfs};
use hamming_suite::service::{HaServe, SelectTicket, ServeConfig};
use hamming_suite::store::HaStore;

use crate::gen::Codes;
use crate::trace::Tracer;

pub type Code = BinaryCode;
pub type Item = (BinaryCode, u64);
pub type VecTuple = (Vec<f64>, u64);
pub type Pairs = Vec<(u64, u64)>;
pub type Index = PlannedIndex;
pub type Serve = HaServe;
pub type Ticket = SelectTicket;
pub type Dfs = Arc<InMemoryDfs>;
pub type Hasher = SpectralHasher;

/// The four exact backends, in the order of the `core.search_us.*` and
/// `core.route_share.*` metrics: ha-flat, arena-bfs, mih, linear.
pub const BACKENDS: [Backend; 4] = [
    Backend::HaFlat,
    Backend::ArenaBfs,
    Backend::Mih,
    Backend::Linear,
];

// ---- bitcode ---------------------------------------------------------

pub fn code(words: &[u64], bits: usize) -> Code {
    BinaryCode::from_words(words, bits)
}

pub fn codes(set: &Codes) -> Vec<Code> {
    (0..set.len()).map(|i| code(set.row(i), set.bits)).collect()
}

/// `(code, id)` pairs with `id = first_id + row`.
pub fn items(set: &Codes, first_id: u64) -> Vec<Item> {
    codes(set).into_iter().zip(first_id..).collect()
}

pub fn kernel_name() -> &'static str {
    Kernel::detect().name()
}

/// One SoA sweep of `group` siblings with the detected kernel and no
/// pruning (`limit = u32::MAX`): the kernel's throughput ceiling.
pub fn group_sweep(query: &[u64], planes: &[u64], group: usize, acc: &mut [u32]) {
    masked_distance_group(
        Kernel::detect(),
        GroupLayout::Soa,
        query,
        planes,
        group,
        u32::MAX,
        acc,
    );
}

pub fn hamming(a: &Code, b: &Code) -> u32 {
    a.hamming(b)
}

pub fn code_bits(c: &Code) -> usize {
    c.len()
}

// ---- core ------------------------------------------------------------

pub fn index_build(tr: &mut Tracer, bits: usize, items: Vec<Item>) -> Index {
    tr.span("core.build", crate::trace::NO_PARENT, u32::MAX, || {
        PlannedIndex::build(bits, items)
    })
}

pub fn index_search(
    tr: &mut Tracer,
    parent: u32,
    req: u32,
    index: &Index,
    q: &Code,
    h: u32,
) -> Vec<u64> {
    tr.span("core.search", parent, req, || index.search(q, h))
}

pub fn index_search_forced(index: &Index, backend: Backend, q: &Code, h: u32) -> Option<Vec<u64>> {
    index.search_with_backend(backend, q, h)
}

pub fn index_route(index: &Index, h: u32) -> Backend {
    index.backend_for(h)
}

pub fn index_memory_bytes(index: &Index) -> usize {
    index.memory_bytes()
}

pub fn index_store_bytes(index: &Index) -> Option<Vec<u8>> {
    index.store_bytes()
}

pub fn hbuild(items: Vec<Item>) -> DynamicHaIndex {
    DynamicHaIndex::build(items)
}

pub fn freeze(dha: &mut DynamicHaIndex) {
    dha.freeze();
}

pub fn mih_build(bits: usize, items: Vec<Item>) -> MihIndex {
    MihIndex::build(bits, items)
}

// ---- store -----------------------------------------------------------

pub fn store_open(bytes: Vec<u8>) -> Option<HaStore> {
    HaStore::open_bytes(bytes).ok()
}

pub fn store_view_search(store: &HaStore, q: &Code, h: u32) -> Vec<u64> {
    store.view().search(q, h)
}

// ---- service ---------------------------------------------------------

/// Everything default except the worker count: `workers = 0` is the
/// program's manual-drive mode, `workers = 1` one serving thread next to
/// the one client thread (the 2 cores of the reference host).
fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        ..ServeConfig::default()
    }
}

pub fn serve_build(
    tr: &mut Tracer,
    bits: usize,
    items: Vec<Item>,
    workers: usize,
) -> Result<Serve, String> {
    tr.span("service.build", crate::trace::NO_PARENT, u32::MAX, || {
        HaServe::build(bits, items, serve_config(workers)).map_err(|e| e.to_string())
    })
}

pub fn dfs_new() -> Dfs {
    Arc::new(InMemoryDfs::new())
}

pub fn serve_bootstrap(
    tr: &mut Tracer,
    dfs: &Dfs,
    bits: usize,
    items: Vec<Item>,
) -> Result<Serve, String> {
    tr.span(
        "service.bootstrap",
        crate::trace::NO_PARENT,
        u32::MAX,
        || {
            HaServe::bootstrap_durable(dfs, "hab", bits, items, serve_config(0))
                .map_err(|e| e.to_string())
        },
    )
}

pub fn serve_recover(tr: &mut Tracer, dfs: &Dfs) -> Result<Serve, String> {
    tr.span("service.recover", crate::trace::NO_PARENT, u32::MAX, || {
        HaServe::recover(dfs, "hab", serve_config(0)).map_err(|e| e.to_string())
    })
}

pub fn submit(
    tr: &mut Tracer,
    parent: u32,
    req: u32,
    s: &Serve,
    q: &Code,
    h: u32,
) -> Option<Ticket> {
    tr.span("service.submit", parent, req, || s.submit_select(q, h).ok())
}

pub fn wait(tr: &mut Tracer, parent: u32, req: u32, t: Ticket) -> Option<Vec<u64>> {
    tr.span("service.wait", parent, req, || t.wait().ok())
}

pub fn pump_all(tr: &mut Tracer, parent: u32, req: u32, s: &Serve) {
    tr.span("service.pump", parent, req, || {
        s.pump_all();
    });
}

pub fn insert(tr: &mut Tracer, parent: u32, req: u32, s: &Serve, item: &Item) -> bool {
    tr.span("service.insert", parent, req, || {
        s.insert(item.0.clone(), item.1).is_ok()
    })
}

pub fn delete(tr: &mut Tracer, parent: u32, req: u32, s: &Serve, item: &Item) -> bool {
    tr.span("service.delete", parent, req, || {
        matches!(s.delete(&item.0, item.1), Ok(true))
    })
}

/// `Ok(false)` (nothing to absorb) is not a failure.
pub fn merge_now(tr: &mut Tracer, parent: u32, req: u32, s: &Serve, shard: usize) -> bool {
    tr.span("service.merge_now", parent, req, || {
        s.merge_now(shard).is_ok()
    })
}

pub fn shard_count(s: &Serve) -> usize {
    s.shard_count()
}

/// The serving counters at one moment: `ServeMetrics` (cumulative since
/// the service started) plus the DFS write volume of a durable service.
pub struct ServeCounters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub batch_sizes: Vec<(usize, u64)>,
    pub batches_formed: u64,
    pub merges_completed: u64,
    pub rejected: u64,
    pub shed: u64,
    pub wal_appends: u64,
    /// p50 of the program's own per-shard probe histogram (a log2-bucket
    /// upper bound).
    pub probe_p50: Duration,
    pub dfs_bytes: usize,
}

pub fn serve_counters(s: &Serve, dfs: Option<&Dfs>) -> ServeCounters {
    let m = s.metrics();
    ServeCounters {
        cache_hits: m.cache_hits,
        cache_misses: m.cache_misses,
        batches_formed: m.batches_formed,
        merges_completed: m.merges_completed,
        rejected: m.rejected,
        shed: m.deadline_shed,
        wal_appends: m.wal_appends,
        probe_p50: m.total_latency().quantile(0.5),
        batch_sizes: m.batch_sizes,
        dfs_bytes: dfs.map_or(0, |d| d.bytes_written()),
    }
}

// ---- mapreduce / distributed / hashing -------------------------------

pub const R_PATH: &str = "hab/r";
pub const S_PATH: &str = "hab/s";
pub const OUT_PATH: &str = "hab/out";

pub fn dfs_put(
    tr: &mut Tracer,
    dfs: &Dfs,
    path: &str,
    records: Vec<VecTuple>,
    record_bytes: usize,
) {
    tr.span(
        "mapreduce.dfs_put",
        crate::trace::NO_PARENT,
        u32::MAX,
        || {
            dfs.put_with_blocks(path, records, 4096, record_bytes);
        },
    );
}

pub fn dfs_get_vectors(dfs: &Dfs, path: &str) -> Option<Vec<VecTuple>> {
    dfs.try_get(path).ok()
}

pub fn dfs_get_pairs(dfs: &Dfs, path: &str) -> Option<Pairs> {
    dfs.try_get(path).ok()
}

pub fn dfs_is_clean(dfs: &Dfs) -> bool {
    dfs.metrics().is_clean()
}

/// Learned code length and join radius of `mr_join`.
pub const JOIN_CODE_LEN: usize = 32;
pub const JOIN_H: u32 = 3;

/// One MapReduce worker: on the 2-core reference host the second worker
/// bought 1.13x and tripled the run-to-run range (`README.md`).
fn join_config() -> MrHaConfig {
    MrHaConfig {
        partitions: 4,
        workers: 1,
        code_len: JOIN_CODE_LEN,
        h: JOIN_H,
        ..MrHaConfig::default()
    }
}

/// What one join reported besides its pairs (`JoinOutcome`'s
/// `PhaseTimes` and `JobMetrics`), as plain numbers.
pub struct JoinNumbers {
    /// sampling, hash learning, index build, join — seconds.
    pub phases: [f64; 4],
    pub shuffle_bytes: usize,
    pub broadcast_bytes: usize,
    pub traffic_bytes: usize,
    pub map_busy_s: f64,
    pub reduce_busy_s: f64,
    pub reduce_skew: f64,
    pub task_retries: u32,
}

fn join_numbers(o: &JoinOutcome) -> JoinNumbers {
    let busy =
        |tasks: &[TaskMetrics]| -> f64 { tasks.iter().map(|t| t.duration.as_secs_f64()).sum() };
    JoinNumbers {
        phases: [
            o.times.sampling,
            o.times.hash_learning,
            o.times.index_build,
            o.times.join,
        ]
        .map(|d| d.as_secs_f64()),
        shuffle_bytes: o.metrics.shuffle_bytes,
        broadcast_bytes: o.metrics.broadcast_bytes,
        traffic_bytes: o.metrics.total_traffic_bytes(),
        map_busy_s: busy(&o.metrics.map_tasks),
        reduce_busy_s: busy(&o.metrics.reduce_tasks),
        reduce_skew: o.metrics.reduce_skew(),
        task_retries: o.metrics.total_retries(),
    }
}

pub fn join_on_dfs(
    tr: &mut Tracer,
    parent: u32,
    req: u32,
    dfs: &Dfs,
) -> Result<(Pairs, JoinNumbers), String> {
    tr.span("distributed.join_on_dfs", parent, req, || {
        try_mrha_hamming_join_on_dfs(
            dfs,
            R_PATH,
            S_PATH,
            OUT_PATH,
            &join_config(),
            &FaultInjector::none(),
        )
        .map(|o| {
            let numbers = join_numbers(&o);
            (o.pairs, numbers)
        })
        .map_err(|e| e.to_string())
    })
}

/// The reference the DFS pipeline is checked against: the in-memory
/// pipeline forced through the other join realization (Option B).
pub fn join_in_memory_b(r: &[VecTuple], s: &[VecTuple]) -> Result<Pairs, String> {
    let cfg = MrHaConfig {
        option: JoinOption::B,
        ..join_config()
    };
    try_mrha_hamming_join(r, s, &cfg, &FaultInjector::none())
        .map(|o| o.pairs)
        .map_err(|e| e.to_string())
}

pub fn spectral_fit(sample: &[Vec<f64>], code_len: usize) -> Hasher {
    SpectralHasher::fit_vectors(sample, code_len, code_len)
}

pub fn encode(hasher: &Hasher, v: &[f64]) -> Code {
    hasher.hash(v)
}

// ---- obs -------------------------------------------------------------

pub fn obs_on() {
    hamming_suite::obs::enable();
}

pub fn obs_off() {
    hamming_suite::obs::disable();
}
